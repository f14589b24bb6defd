//! # osdc-telemetry — deterministic metrics + sim-clock tracing substrate
//!
//! §7.4 of the paper runs the OSDC federation on an in-house monitoring
//! stack: Nagios checks plus a custom usage monitor feeding a public
//! status page. This crate is that layer made machine-readable for the
//! reproduction: one substrate every subsystem (WAN flows, transfer
//! pipelines, Tukey requests, MapReduce jobs, NRPE checks) publishes into,
//! and every experiment harness can export from. The DES kernel can
//! publish too, through [`Telemetry::engine_probe`], but no product path
//! attaches that probe.
//!
//! Three parts:
//!
//! * **Metrics** — named counters, gauges and mergeable log-bucket
//!   histograms. Names are interned once into `Copy` ids; hot paths record
//!   through ids only (no per-event allocation). The shared registry sits
//!   behind a `parking_lot` mutex. Parallel work records through
//!   [`run_sharded`] (a private registry per task, absorbed in submission
//!   order) or returns its counts to the calling thread to record.
//! * **Tracing** — spans on the **simulation clock** ([`SimTime`], never
//!   wall time), with nesting via an open-span stack, ordered per-span
//!   attributes, instant `point` samples, all in a bounded ring buffer.
//! * **Exporters** — a JSONL trace/metric dump (byte-identical across
//!   same-seed runs; a tested invariant) and a human-readable federation
//!   ops report.
//!
//! A [`Telemetry`] handle is cheap to clone (an `Arc`) and has a global
//! no-op mode: [`Telemetry::disabled`] carries no state at all, every
//! operation early-returns on a `None`, and the `telemetry_overhead`
//! bench in `osdc-bench` pins the disabled-path cost to the seed kernel.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use osdc_sim::{EngineProbe, SimTime};
use parking_lot::Mutex;

pub mod audit;
mod export;
mod metrics;
mod trace;

pub use metrics::{CounterId, GaugeId, HistogramId, HistogramSnapshot};
pub use trace::{AttrValue, SpanId, TraceEvent, DEFAULT_RING_CAPACITY};

use metrics::MetricsCore;
use trace::TraceCore;

#[derive(Debug)]
struct Inner {
    metrics: Mutex<MetricsCore>,
    trace: Mutex<TraceCore>,
}

/// The shared telemetry handle. Clones share state; `disabled()` is a
/// stateless no-op.
#[derive(Clone, Debug)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// A live collector with the default ring capacity.
    pub fn new() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A live collector whose trace ring holds at most `capacity` events.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                metrics: Mutex::new(MetricsCore::default()),
                trace: Mutex::new(TraceCore::with_capacity(capacity)),
            })),
        }
    }

    /// The global no-op mode: records nothing, allocates nothing, holds no
    /// locks. Instrumented code can keep a `Telemetry` field unconditionally
    /// and still cost one branch per call when observability is off.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- metrics registration (cold path) --------------------------------

    /// Intern a counter name. Idempotent: the same name always yields the
    /// same id.
    pub fn counter(&self, name: &str) -> CounterId {
        match &self.inner {
            Some(i) => CounterId(i.metrics.lock().counters.intern(name)),
            None => CounterId(0),
        }
    }

    pub fn gauge(&self, name: &str) -> GaugeId {
        match &self.inner {
            Some(i) => GaugeId(i.metrics.lock().gauges.intern(name)),
            None => GaugeId(0),
        }
    }

    pub fn histogram(&self, name: &str) -> HistogramId {
        match &self.inner {
            Some(i) => HistogramId(i.metrics.lock().histograms.intern(name)),
            None => HistogramId(0),
        }
    }

    // ---- metrics recording (hot path) ------------------------------------

    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(i) = &self.inner {
            i.metrics.lock().add(id, n);
        }
    }

    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    #[inline]
    pub fn set_gauge(&self, id: GaugeId, value: f64) {
        if let Some(i) = &self.inner {
            i.metrics.lock().set(id, value);
        }
    }

    #[inline]
    pub fn observe(&self, id: HistogramId, value: f64) {
        if let Some(i) = &self.inner {
            i.metrics.lock().observe(id, value);
        }
    }

    // ---- metric reads (tests, monitor bridge, reports) --------------------

    pub fn counter_value(&self, name: &str) -> u64 {
        match &self.inner {
            Some(i) => {
                let m = i.metrics.lock();
                m.counters
                    .names
                    .iter()
                    .position(|n| n == name)
                    .map(|p| m.counters.values[p])
                    .unwrap_or(0)
            }
            None => 0,
        }
    }

    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let i = self.inner.as_ref()?;
        let m = i.metrics.lock();
        m.gauges
            .names
            .iter()
            .position(|n| n == name)
            .map(|p| m.gauges.values[p])
    }

    /// Snapshot of every registered gauge as `(name, value)`, in
    /// registration order.
    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        match &self.inner {
            Some(i) => {
                let m = i.metrics.lock();
                m.gauges
                    .names
                    .iter()
                    .cloned()
                    .zip(m.gauges.values.iter().copied())
                    .collect()
            }
            None => Vec::new(),
        }
    }

    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        match &self.inner {
            Some(i) => {
                let m = i.metrics.lock();
                m.counters
                    .names
                    .iter()
                    .cloned()
                    .zip(m.counters.values.iter().copied())
                    .collect()
            }
            None => Vec::new(),
        }
    }

    pub fn histograms_snapshot(&self) -> Vec<HistogramSnapshot> {
        match &self.inner {
            Some(i) => {
                let m = i.metrics.lock();
                m.histograms
                    .names
                    .iter()
                    .zip(&m.histograms.values)
                    .map(|(n, h)| HistogramSnapshot::from(n, h))
                    .collect()
            }
            None => Vec::new(),
        }
    }

    // ---- tracing -----------------------------------------------------------

    /// Open a span at virtual time `t`, nested under the innermost open
    /// span.
    pub fn span_start(&self, name: &str, t: SimTime) -> SpanId {
        match &self.inner {
            Some(i) => i.trace.lock().span_start(name, t),
            None => SpanId::NONE,
        }
    }

    /// Close a span at virtual time `t`.
    pub fn span_end(&self, id: SpanId, t: SimTime) {
        if let Some(i) = &self.inner {
            i.trace.lock().span_end(id, t);
        }
    }

    /// Attach an attribute to a span. The value conversion only happens
    /// when telemetry is live.
    pub fn attr(&self, span: SpanId, key: &str, value: impl Into<AttrValue>) {
        if let Some(i) = &self.inner {
            i.trace.lock().attr(span, key, value.into());
        }
    }

    /// Record an instant `(name, t, value)` sample into the event log.
    pub fn point(&self, name: &str, t: SimTime, value: f64) {
        if let Some(i) = &self.inner {
            i.trace.lock().point(name, t, value);
        }
    }

    /// The innermost open span, if any.
    pub fn current_span(&self) -> Option<SpanId> {
        self.inner
            .as_ref()
            .and_then(|i| i.trace.lock().current_span())
    }

    /// Number of events currently buffered (tests and reports).
    pub fn trace_len(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.trace.lock().events.len())
            .unwrap_or(0)
    }

    // ---- scenario-shard merging -------------------------------------------

    /// Fold another collector's recorded state into this one: trace events
    /// append in the other's recording order (span ids renumbered past the
    /// ids already issued here), counters add, gauges take the other's
    /// value, histograms merge.
    ///
    /// This is the submission-order merge behind [`run_sharded`]: each grid
    /// scenario records into a private registry, and the parent absorbs the
    /// registries in submission order after the pool drains. Absorbing in
    /// that order reproduces the stream a single shared collector would
    /// have recorded from the same scenarios run serially, which is what
    /// keeps `--trace` artifacts byte-identical for any `--jobs N`.
    ///
    /// A disabled side (either one) makes this a no-op, as does absorbing a
    /// collector into itself.
    pub fn absorb(&self, other: &Telemetry) {
        let (Some(a), Some(b)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(a, b) {
            return;
        }
        a.trace.lock().absorb(&b.trace.lock());
        a.metrics.lock().absorb(&b.metrics.lock());
    }

    // ---- exporters ---------------------------------------------------------

    /// The full trace + metrics dump as JSONL, deterministic byte-for-byte
    /// given identical recorded state.
    pub fn export_jsonl(&self) -> String {
        match &self.inner {
            Some(i) => {
                let trace = i.trace.lock();
                let metrics = i.metrics.lock();
                let mut out = String::new();
                export::write_jsonl(&trace, &metrics, &mut out);
                out
            }
            None => String::new(),
        }
    }

    /// Write [`Telemetry::export_jsonl`] to a file.
    pub fn export_jsonl_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.export_jsonl().as_bytes())
    }

    /// The human-readable federation ops report.
    pub fn ops_report(&self) -> String {
        match &self.inner {
            Some(i) => {
                let trace = i.trace.lock();
                let metrics = i.metrics.lock();
                export::ops_report(&trace, &metrics)
            }
            None => "federation ops report: telemetry disabled\n".to_string(),
        }
    }
}

/// Run a grid of independent scenarios on the deterministic parallel map
/// ([`osdc_sim::run_indexed`]), each against its **own** telemetry
/// registry, then absorb the registries into `parent` in submission order.
///
/// Each task receives `(its private Telemetry, its submission index)`; the
/// private collector is live iff `parent` is live, so disabled runs pay
/// nothing. Results come back in submission order, and because the merge
/// happens on the calling thread after the map returns — never
/// concurrently — the parent's exported JSONL and ops report are
/// byte-identical for any `jobs`, including the inline serial path at
/// `jobs == 1`.
pub fn run_sharded<T, F>(jobs: usize, parent: &Telemetry, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce(&Telemetry, usize) -> T + Send,
{
    let live = parent.is_enabled();
    let sharded: Vec<_> = tasks
        .into_iter()
        .map(|f| {
            move |i: usize| {
                let tele = if live {
                    Telemetry::new()
                } else {
                    Telemetry::disabled()
                };
                let r = f(&tele, i);
                (tele, r)
            }
        })
        .collect();
    osdc_sim::run_indexed(jobs, sharded)
        .into_iter()
        .map(|(tele, r)| {
            parent.absorb(&tele);
            r
        })
        .collect()
}

/// Pre-interned ids for the DES kernel's own metrics.
#[derive(Clone, Copy, Debug)]
pub struct EngineIds {
    pub events: CounterId,
    pub queue_depth: GaugeId,
    pub queue_depth_hist: HistogramId,
    pub virtual_time_secs: GaugeId,
}

impl EngineIds {
    pub fn register(tele: &Telemetry) -> Self {
        EngineIds {
            events: tele.counter("sim.events_dispatched"),
            queue_depth: tele.gauge("sim.queue_depth"),
            queue_depth_hist: tele.histogram("sim.queue_depth"),
            virtual_time_secs: tele.gauge("sim.virtual_time_secs"),
        }
    }
}

impl Telemetry {
    /// One engine dispatch: counter, queue-depth gauge + histogram, and
    /// the virtual-time gauge (events ÷ virtual time = the kernel's
    /// virtual-time rate), all under a single registry lock.
    pub fn engine_tick(&self, ids: &EngineIds, now: SimTime, queue_depth: usize) {
        if let Some(i) = &self.inner {
            let mut m = i.metrics.lock();
            m.add(ids.events, 1);
            m.set(ids.queue_depth, queue_depth as f64);
            m.observe(ids.queue_depth_hist, queue_depth as f64);
            m.set(ids.virtual_time_secs, now.as_secs_f64());
        }
    }

    /// Build a probe for [`osdc_sim::Engine::set_probe`]. Returns `None`
    /// when telemetry is disabled so the uninstrumented kernel keeps its
    /// probe-free hot path — the disabled mode is a true no-op. Only the
    /// `telemetry_overhead` bench and a unit test attach it.
    pub fn engine_probe(&self) -> Option<EngineProbe> {
        if !self.is_enabled() {
            return None;
        }
        let ids = EngineIds::register(self);
        let tele = self.clone();
        Some(Box::new(move |now, depth| {
            tele.engine_tick(&ids, now, depth)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdc_sim::{Engine, Scheduler, SimDuration, Simulation};

    #[test]
    fn counter_ids_are_interned_once() {
        let t = Telemetry::new();
        let a = t.counter("x.events");
        let b = t.counter("x.events");
        assert_eq!(a, b);
        let c = t.counter("y.events");
        assert_ne!(a, c);
        t.add(a, 2);
        t.incr(b);
        assert_eq!(t.counter_value("x.events"), 3);
        assert_eq!(t.counter_value("y.events"), 0);
    }

    #[test]
    fn gauges_and_histograms_record() {
        let t = Telemetry::new();
        let g = t.gauge("load");
        let h = t.histogram("latency_ms");
        t.set_gauge(g, 1.5);
        t.set_gauge(g, 2.5);
        for v in [1.0, 3.0, 100.0] {
            t.observe(h, v);
        }
        assert_eq!(t.gauge_value("load"), Some(2.5));
        let snaps = t.histograms_snapshot();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].count, 3);
        assert!((snaps[0].sum - 104.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_is_a_no_op_everywhere() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let c = t.counter("never");
        let g = t.gauge("never");
        let h = t.histogram("never");
        t.add(c, 10);
        t.set_gauge(g, 1.0);
        t.observe(h, 1.0);
        let span = t.span_start("s", SimTime::ZERO);
        assert_eq!(span, SpanId::NONE);
        t.attr(span, "k", 1u64);
        t.span_end(span, SimTime::ZERO);
        t.point("p", SimTime::ZERO, 1.0);
        assert_eq!(t.counter_value("never"), 0);
        assert_eq!(t.export_jsonl(), "");
        assert_eq!(t.trace_len(), 0);
        assert!(t.gauges_snapshot().is_empty());
        assert!(t.engine_probe().is_none());
    }

    #[test]
    fn spans_nest_through_the_stack() {
        let t = Telemetry::new();
        let root = t.span_start("request", SimTime::ZERO);
        let child = t.span_start("backend", SimTime(5));
        assert_eq!(t.current_span(), Some(child));
        t.attr(child, "cloud", "adler");
        t.span_end(child, SimTime(10));
        assert_eq!(t.current_span(), Some(root));
        t.span_end(root, SimTime(20));
        assert_eq!(t.current_span(), None);
        let jsonl = t.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // meta + 2 starts + 1 attr + 2 ends
        assert_eq!(lines.len(), 6);
        assert!(lines[2].contains("\"parent\":1"), "{}", lines[2]);
        assert!(lines[3].contains("\"value\":\"adler\""));
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let t = Telemetry::with_ring_capacity(4);
        for i in 0..10 {
            t.point("p", SimTime(i), i as f64);
        }
        assert_eq!(t.trace_len(), 4);
        let jsonl = t.export_jsonl();
        assert!(jsonl.contains("\"dropped_events\":6"));
        assert!(!jsonl.contains("\"t_ns\":0,"));
        assert!(jsonl.contains("\"t_ns\":9"));
    }

    #[test]
    fn export_is_deterministic() {
        let run = || {
            let t = Telemetry::new();
            let c = t.counter("events");
            let h = t.histogram("lat");
            let span = t.span_start("s", SimTime(100));
            t.attr(span, "bytes", 42u64);
            t.attr(span, "rate", 1.5f64);
            for v in [1.0, 2.0, 300.0] {
                t.observe(h, v);
            }
            t.add(c, 9);
            t.span_end(span, SimTime(250));
            t.export_jsonl()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn ops_report_mentions_everything() {
        let t = Telemetry::new();
        t.add(t.counter("transfers.completed"), 5);
        t.set_gauge(t.gauge("sim.queue_depth"), 3.0);
        t.observe(t.histogram("tukey.cloud.adler.latency_ms"), 36.0);
        let report = t.ops_report();
        assert!(report.contains("transfers.completed"));
        assert!(report.contains("sim.queue_depth"));
        assert!(report.contains("tukey.cloud.adler.latency_ms"));
        assert!(report.contains("federation ops report"));
        assert!(Telemetry::disabled().ops_report().contains("disabled"));
    }

    /// One synthetic "scenario": spans, attrs, points and metrics keyed by
    /// the scenario index, recorded into `t`.
    fn scenario(t: &Telemetry, i: usize) {
        let c = t.counter("grid.cells");
        let g = t.gauge("grid.last_cell");
        let h = t.histogram("grid.cost");
        let span = t.span_start(&format!("cell{i}"), SimTime(i as u64 * 10));
        t.attr(span, "index", i as u64);
        let child = t.span_start("inner", SimTime(i as u64 * 10 + 1));
        t.span_end(child, SimTime(i as u64 * 10 + 2));
        t.point("cell.sample", SimTime(i as u64 * 10 + 3), i as f64);
        t.span_end(span, SimTime(i as u64 * 10 + 5));
        t.add(c, 1);
        t.set_gauge(g, i as f64);
        t.observe(h, (i * i) as f64);
    }

    #[test]
    fn absorb_in_submission_order_equals_serial_shared_recording() {
        // Serial baseline: one shared collector records all scenarios.
        let shared = Telemetry::new();
        for i in 0..6 {
            scenario(&shared, i);
        }
        // Sharded: private collectors, absorbed in submission order.
        let parent = Telemetry::new();
        for i in 0..6 {
            let t = Telemetry::new();
            scenario(&t, i);
            parent.absorb(&t);
        }
        assert_eq!(parent.export_jsonl(), shared.export_jsonl());
        assert_eq!(parent.ops_report(), shared.ops_report());
    }

    #[test]
    fn run_sharded_is_jobs_invariant() {
        let export = |jobs: usize| {
            let parent = Telemetry::new();
            let tasks: Vec<_> = (0..9)
                .map(|_| |t: &Telemetry, i: usize| scenario(t, i))
                .collect();
            run_sharded(jobs, &parent, tasks);
            parent.export_jsonl()
        };
        let serial = export(1);
        assert!(!serial.is_empty());
        for jobs in [2, 4, 8] {
            assert_eq!(export(jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn run_sharded_disabled_parent_records_nothing() {
        let parent = Telemetry::disabled();
        let out = run_sharded(
            4,
            &parent,
            (0..5)
                .map(|_| {
                    |t: &Telemetry, i: usize| {
                        assert!(!t.is_enabled());
                        scenario(t, i);
                        i * 2
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        assert_eq!(parent.export_jsonl(), "");
    }

    #[test]
    fn absorb_handles_disabled_and_self() {
        let live = Telemetry::new();
        live.add(live.counter("c"), 3);
        let before = live.export_jsonl();
        live.absorb(&Telemetry::disabled());
        assert_eq!(live.export_jsonl(), before, "disabled other is a no-op");
        live.absorb(&live.clone());
        assert_eq!(live.export_jsonl(), before, "self-absorb is a no-op");
        let disabled = Telemetry::disabled();
        disabled.absorb(&live);
        assert_eq!(disabled.export_jsonl(), "", "disabled parent stays empty");
    }

    #[test]
    fn absorb_renumbers_spans_past_existing_ids() {
        let parent = Telemetry::new();
        let s = parent.span_start("first", SimTime(1));
        parent.span_end(s, SimTime(2));
        let child = Telemetry::new();
        let c = child.span_start("second", SimTime(3));
        child.attr(c, "k", 9u64);
        child.span_end(c, SimTime(4));
        parent.absorb(&child);
        let jsonl = parent.export_jsonl();
        // The child's span 1 must have become span 2 in the parent.
        assert!(
            jsonl.contains("\"id\":2,\"kind\":\"span_start\",\"name\":\"second\""),
            "{jsonl}"
        );
        assert!(jsonl.contains("\"span\":2"), "{jsonl}");
        // And a span opened after the merge continues the numbering.
        let s3 = parent.span_start("third", SimTime(5));
        assert_eq!(s3, SpanId(3));
    }

    #[test]
    fn absorb_counts_ring_drops_like_live_recording() {
        let run_live = || {
            let t = Telemetry::with_ring_capacity(4);
            for i in 0..10 {
                t.point("p", SimTime(i), i as f64);
            }
            t.export_jsonl()
        };
        let parent = Telemetry::with_ring_capacity(4);
        for chunk in [(0..5), (5..10)] {
            let t = Telemetry::new();
            for i in chunk {
                t.point("p", SimTime(i), i as f64);
            }
            parent.absorb(&t);
        }
        assert_eq!(parent.export_jsonl(), run_live());
    }

    struct Relay(u32);
    enum Ev {
        Tick,
    }
    impl Simulation for Relay {
        type Event = Ev;
        fn handle(&mut self, _now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
            if self.0 > 0 {
                self.0 -= 1;
                sched.after(SimDuration::from_micros(10), Ev::Tick);
            }
        }
    }

    #[test]
    fn engine_probe_feeds_kernel_metrics() {
        let t = Telemetry::new();
        let mut engine = Engine::new();
        engine.set_probe(t.engine_probe());
        engine.schedule(SimTime::ZERO, Ev::Tick);
        let mut world = Relay(99);
        engine.run_to_completion(&mut world);
        assert_eq!(t.counter_value("sim.events_dispatched"), 100);
        assert_eq!(t.gauge_value("sim.queue_depth"), Some(0.0));
        let vt = t.gauge_value("sim.virtual_time_secs").expect("gauge");
        assert!((vt - 99.0 * 10e-6).abs() < 1e-12, "{vt}");
    }
}
