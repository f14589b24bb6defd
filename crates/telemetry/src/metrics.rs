//! The metrics half of the substrate: named counters, gauges and
//! mergeable log-bucket histograms behind pre-interned integer handles.
//!
//! Registration (name → id) happens once, at instrumentation setup, under
//! the registry lock. Hot paths then carry only `Copy` ids: recording is a
//! lock + `Vec` index, with no allocation.

use std::collections::BTreeMap;

use osdc_sim::stats::Log2Histogram;

/// Handle to a named monotonic counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterId(pub(crate) u32);

/// Handle to a named last-value gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GaugeId(pub(crate) u32);

/// Handle to a named power-of-two-bucket histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HistogramId(pub(crate) u32);

/// One kind's name table plus value slots, indexed by id.
#[derive(Debug, Default)]
pub(crate) struct Table<T> {
    index: BTreeMap<String, u32>,
    pub(crate) names: Vec<String>,
    pub(crate) values: Vec<T>,
}

impl<T: Default> Table<T> {
    /// Idempotent name → id interning.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.index.insert(name.to_string(), id);
        self.names.push(name.to_string());
        self.values.push(T::default());
        id
    }
}

/// The shared metric state, owned by `Telemetry` behind a `parking_lot`
/// mutex.
#[derive(Debug, Default)]
pub(crate) struct MetricsCore {
    pub(crate) counters: Table<u64>,
    pub(crate) gauges: Table<f64>,
    pub(crate) histograms: Table<Log2Histogram>,
}

impl MetricsCore {
    pub(crate) fn add(&mut self, id: CounterId, n: u64) {
        if let Some(v) = self.counters.values.get_mut(id.0 as usize) {
            *v += n;
        }
    }

    pub(crate) fn set(&mut self, id: GaugeId, value: f64) {
        if let Some(v) = self.gauges.values.get_mut(id.0 as usize) {
            *v = value;
        }
    }

    pub(crate) fn observe(&mut self, id: HistogramId, value: f64) {
        if let Some(h) = self.histograms.values.get_mut(id.0 as usize) {
            h.record(value);
        }
    }

    /// Fold another registry into this one, interning names in the other's
    /// registration order: counters add, gauges take the other's value
    /// (last-writer-wins, matching a later serial scenario overwriting an
    /// earlier one), histograms merge. Absorbing per-scenario registries in
    /// submission order therefore reproduces the name order and values a
    /// single shared registry would hold after the same scenarios ran
    /// serially — given the workspace convention that a scenario writes
    /// every gauge it registers.
    pub(crate) fn absorb(&mut self, other: &MetricsCore) {
        for (name, &v) in other.counters.names.iter().zip(&other.counters.values) {
            let id = self.counters.intern(name);
            self.add(CounterId(id), v);
        }
        for (name, &v) in other.gauges.names.iter().zip(&other.gauges.values) {
            let id = self.gauges.intern(name);
            self.set(GaugeId(id), v);
        }
        for (name, h) in other.histograms.names.iter().zip(&other.histograms.values) {
            let id = self.histograms.intern(name);
            if let Some(dst) = self.histograms.values.get_mut(id as usize) {
                dst.merge(h);
            }
        }
    }
}

/// Exporter-facing snapshot of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    /// `(bucket index, count)` for non-empty buckets only.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    pub(crate) fn from(name: &str, h: &Log2Histogram) -> Self {
        HistogramSnapshot {
            name: name.to_string(),
            count: h.count(),
            sum: h.sum(),
            mean: h.mean(),
            p50: h.quantile_upper_bound(0.5),
            p99: h.quantile_upper_bound(0.99),
            buckets: h
                .bucket_counts()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
        }
    }
}
