//! The closed-loop measuring protocol shared by every workload.
//!
//! One process runs passes back to back; a pass is one complete user
//! job. Pass 0 starts an untimed warm-up, and its output becomes the
//! reference every later pass must reproduce. Checks run between passes,
//! outside the timed region.
//!
//! * An untraced run (`--trace 0`) sets up several times (reporting the
//!   median), measures peak live heap over pass 0, then times passes for
//!   the requested seconds and reports the end-to-end metrics. It runs
//!   the calibration job between set-ups and between passes, and reports
//!   every time scaled to the reference host's speed (see
//!   [`crate::calibrate`]).
//! * A traced run (`--trace 1`) alternates untraced and traced passes
//!   for the requested seconds and reduces the traced passes' spans to
//!   per-layer self times, plus the overhead tracing itself adds.

use std::collections::BTreeMap;
use std::time::Instant;

use counting_alloc::measure_peak;
use serde_json::{Map, Number, Value};

use crate::calibrate::{self, Calibration, CALIBRATION_MS};
use crate::metrics::{per_layer, END_TO_END};
use crate::stats::{median, tail};
use crate::trace::{self_ms_by_name, top_level_ms, Tracer};

/// An untraced run sets up this many times and reports the median as
/// `setup_s`. Every repeat's inputs stay alive until all are built, so
/// each set-up builds into fresh memory, as the one set-up of a real job
/// does. Freed and reused memory made repeated set-ups 2–5× faster by an
/// amount that changed from process to process with the heap's layout.
const SETUP_REPEATS: usize = 5;
/// Untimed passes, pass 0 included, run for at least this long.
const WARM_UP_SECONDS: f64 = 1.0;

/// Input size: the full workload, or the reduced one the smoke tests
/// run in a debug build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Pass/fail tallies of the output checks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the run's diagnostics.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Count one check; `what` names it if it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }
}

/// One benchmark workload: its inputs, its pass, and its checks.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Every timed pass runs on one worker. A workload whose cells can
    /// run on the scenario runner sets this above 1, and its traced run
    /// also times untraced passes on that many workers to report the
    /// runner's speed-up. (On a host whose cores contend, a multi-worker
    /// pass time measures the host's scheduling more than the program,
    /// so it is not an end-to-end metric.)
    const RUNNER_WORKERS: usize = 1;
    type Out;

    /// Generate the inputs from `seed`.
    fn setup(seed: u64, size: Size) -> Self;

    /// One user job on `workers` workers, with a span around each call
    /// into a layer.
    fn pass<'n>(&'n self, workers: usize, tr: &mut Tracer<'n>) -> Self::Out;

    /// Check a pass's output; `reference` is pass 0's output, absent
    /// while pass 0 itself is checked.
    fn check(&self, out: &Self::Out, reference: Option<&Self::Out>, checks: &mut Checks);

    /// The user-visible work one pass does, with its unit (for the
    /// summary only).
    fn work(&self, out: &Self::Out) -> (f64, &'static str);

    /// Traced runs only: re-drive the layers below the pass's entry
    /// points on the same inputs, returning the byte counts read off
    /// their results.
    fn replay<'n>(
        &'n self,
        _out: &Self::Out,
        _tr: &mut Tracer<'n>,
        _checks: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Traced runs only: counts read off the reference output and
    /// metrics derived from the per-layer times.
    fn layer_metrics(
        &self,
        reference: &Self::Out,
        layers: &BTreeMap<String, f64>,
    ) -> Vec<(&'static str, f64)>;
}

/// Settings for one run of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub checks: Checks,
    /// (name, value, unit) in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable facts that do not fit a metric (sample counts,
    /// which percentile the tail is, throughput in the workload's unit).
    pub notes: Vec<String>,
    /// Every timed pass (every traced pass, in a traced run), in order,
    /// unscaled.
    pub pass_ms: Vec<f64>,
    /// Untraced runs: the calibration job's times, one before the first
    /// timed pass and one after each.
    pub calibration_ms: Vec<f64>,
    /// The spans of the last traced pass, as JSON.
    pub spans: Vec<Value>,
}

impl RunReport {
    /// The result object the run prints as its last line.
    pub fn result_json(&self) -> Value {
        let mut metrics = Map::new();
        for (name, value, unit) in &self.metrics {
            let mut m = Map::new();
            m.insert("value".into(), Value::Number(Number::Float(*value)));
            m.insert("unit".into(), Value::String((*unit).into()));
            metrics.insert(name.clone(), Value::Object(m));
        }
        let mut result = Map::new();
        result.insert("correct".into(), Value::Bool(self.checks.failed == 0));
        result.insert(
            "attempted".into(),
            Value::Number(Number::PosInt(self.checks.attempted)),
        );
        result.insert(
            "failed".into(),
            Value::Number(Number::PosInt(self.checks.failed)),
        );
        result.insert("metrics".into(), Value::Object(metrics));
        Value::Object(result)
    }
}

/// Run `f`, returning its value and its wall time in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Run pass 0 (measuring its peak live heap) and further untimed passes
/// until [`WARM_UP_SECONDS`] have passed; the first passes also fault in
/// the heap the later ones reuse. Returns the peak and pass 0's output.
fn warm_up<W: Workload>(w: &W, checks: &mut Checks) -> (i64, W::Out) {
    let start = Instant::now();
    let (peak_bytes, reference) = measure_peak(|| w.pass(1, &mut Tracer::off()));
    w.check(&reference, None, checks);
    while start.elapsed().as_secs_f64() < WARM_UP_SECONDS {
        let out = w.pass(1, &mut Tracer::off());
        w.check(&out, Some(&reference), checks);
    }
    (peak_bytes, reference)
}

/// Run `W` once under `opts`.
pub fn run<W: Workload>(opts: &Options) -> RunReport {
    if opts.trace {
        run_traced::<W>(opts)
    } else {
        run_untraced::<W>(opts)
    }
}

fn run_untraced<W: Workload>(opts: &Options) -> RunReport {
    let calibration = Calibration::new();
    let mut setup_ms = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_calibration_ms = vec![calibration.time_ms()];
    let mut inputs = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let (w, t) = timed(|| W::setup(opts.seed, opts.size));
        setup_calibration_ms.push(calibration.time_ms());
        setup_ms.push(t);
        inputs.push(w);
    }
    let w = inputs.pop().expect("set up at least once");
    drop(inputs);

    let mut checks = Checks::default();
    let (peak_bytes, reference) = warm_up(&w, &mut checks);

    let mut pass_ms = Vec::new();
    let mut calibration_ms = vec![calibration.time_ms()];
    let start = Instant::now();
    while pass_ms.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let (out, t) = timed(|| w.pass(1, &mut Tracer::off()));
        calibration_ms.push(calibration.time_ms());
        pass_ms.push(t);
        w.check(&out, Some(&reference), &mut checks);
    }

    let setup_scaled = calibrate::scale(&setup_ms, &setup_calibration_ms);
    let scaled = calibrate::scale(&pass_ms, &calibration_ms);
    let n = scaled.len();
    let total_s: f64 = scaled.iter().sum::<f64>() / 1e3;
    let (tail_ms, rank) = tail(&scaled);
    let (work, unit) = w.work(&reference);
    let values = [
        median(&setup_scaled) / 1e3,
        median(&scaled),
        n as f64 / total_s,
        peak_bytes as f64 / 1e6,
    ];
    let mut report = RunReport {
        workload: W::NAME,
        checks,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect(),
        notes: vec![
            format!("setup_s is the median of {} set-ups", setup_ms.len()),
            format!("{n} timed passes on 1 worker"),
            format!(
                "times are scaled to the reference host: calibration job median {:.3} ms \
                 (reference {CALIBRATION_MS} ms); unscaled pass median {:.3} ms, \
                 unscaled set-up median {:.6} s",
                median(&calibration_ms),
                median(&pass_ms),
                median(&setup_ms) / 1e3
            ),
            format!(
                "tail {tail_ms:.3} ms (ungated): order statistic {rank} of {n}, p{:.0}",
                100.0 * rank as f64 / n as f64
            ),
            format!(
                "throughput {:.4} {unit}/s ({work} {unit} per pass)",
                work * n as f64 / total_s
            ),
        ],
        pass_ms,
        calibration_ms,
        spans: Vec::new(),
    };
    guard_finite(&mut report);
    report
}

/// Per-pass layer times of one traced pass (or replay).
struct Sample {
    layers: BTreeMap<String, f64>,
    top_level_ms: f64,
}

fn run_traced<W: Workload>(opts: &Options) -> RunReport {
    let w = W::setup(opts.seed, opts.size);
    let mut checks = Checks::default();
    let (_, reference) = warm_up(&w, &mut checks);

    let mut serial_ms = Vec::new(); // untraced, 1 worker
    let mut parallel_ms = Vec::new(); // untraced, W::RUNNER_WORKERS workers
    let mut traced_ms = Vec::new();
    let mut passes: Vec<Sample> = Vec::new();
    let mut replays: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut counts: Option<Vec<(&'static str, f64)>> = None;
    let mut last_spans = Vec::new();

    let start = Instant::now();
    while traced_ms.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let (out, t) = timed(|| w.pass(1, &mut Tracer::off()));
        serial_ms.push(t);
        w.check(&out, Some(&reference), &mut checks);
        drop(out);
        if W::RUNNER_WORKERS > 1 {
            let (out, t) = timed(|| w.pass(W::RUNNER_WORKERS, &mut Tracer::off()));
            parallel_ms.push(t);
            w.check(&out, Some(&reference), &mut checks);
        }

        let mut tr = Tracer::new(true);
        let (out, t) = timed(|| w.pass(1, &mut tr));
        traced_ms.push(t);
        w.check(&out, Some(&reference), &mut checks);
        passes.push(Sample {
            layers: self_ms_by_name(tr.spans()),
            top_level_ms: top_level_ms(tr.spans()),
        });
        last_spans = tr.spans().iter().map(span_json).collect();

        let mut tr = Tracer::new(true);
        let replay_counts = w.replay(&out, &mut tr, &mut checks);
        if !tr.spans().is_empty() {
            replays.push(self_ms_by_name(tr.spans()));
        }
        match &counts {
            None => counts = Some(replay_counts),
            Some(first) if !first.is_empty() => checks.expect(*first == replay_counts, || {
                format!("replay counts changed between passes: {first:?} vs {replay_counts:?}")
            }),
            Some(_) => {}
        }
    }

    let mut layers = median_by_name(passes.iter().map(|s| &s.layers));
    layers.extend(median_by_name(replays.iter()));
    let mut values: BTreeMap<String, f64> = layers
        .iter()
        .map(|(name, v)| (format!("{name}.ms"), *v))
        .collect();
    let unattributed: Vec<f64> = passes
        .iter()
        .zip(&traced_ms)
        .map(|(s, t)| 1.0 - s.top_level_ms / t)
        .collect();
    values.insert("unattributed_share".into(), median(&unattributed));
    values.insert(
        "telemetry.trace_overhead".into(),
        median(&traced_ms) / median(&serial_ms) - 1.0,
    );
    if W::RUNNER_WORKERS > 1 {
        let cells: Vec<f64> = passes.iter().map(|s| s.top_level_ms).collect();
        values.insert(
            "runner.speedup_j2".into(),
            median(&serial_ms) / median(&parallel_ms),
        );
        values.insert(
            "runner.idle_share".into(),
            1.0 - median(&cells) / (W::RUNNER_WORKERS as f64 * median(&parallel_ms)),
        );
    }
    let extra = counts
        .unwrap_or_default()
        .into_iter()
        .chain(w.layer_metrics(&reference, &layers));
    for (name, v) in extra {
        values.insert(name.to_string(), v);
    }

    let catalogue = per_layer();
    for name in values.keys() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "{} emits {name}, which the metric catalogue lacks",
            W::NAME
        );
    }
    let mut report = RunReport {
        workload: W::NAME,
        checks,
        metrics: catalogue
            .into_iter()
            .map(|(name, unit)| {
                let v = values.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect(),
        notes: vec![format!(
            "{} traced passes; untraced pass median {:.3} ms at 1 worker",
            traced_ms.len(),
            median(&serial_ms)
        )],
        pass_ms: traced_ms,
        calibration_ms: Vec::new(),
        spans: last_spans,
    };
    guard_finite(&mut report);
    report
}

/// Median per name across samples; a sample without the name counts 0.
fn median_by_name<'a>(
    samples: impl Iterator<Item = &'a BTreeMap<String, f64>> + Clone,
) -> BTreeMap<String, f64> {
    let names: std::collections::BTreeSet<&String> =
        samples.clone().flat_map(|s| s.keys()).collect();
    names
        .into_iter()
        .map(|name| {
            let per_sample: Vec<f64> = samples
                .clone()
                .map(|s| s.get(name).copied().unwrap_or(0.0))
                .collect();
            (name.clone(), median(&per_sample))
        })
        .collect()
}

fn span_json(span: &crate::trace::Span<'_>) -> Value {
    let mut m = Map::new();
    m.insert("name".into(), Value::String(span.name.into()));
    m.insert(
        "start_us".into(),
        Value::Number(Number::Float(span.start_ns as f64 / 1e3)),
    );
    m.insert(
        "end_us".into(),
        Value::Number(Number::Float(span.end_ns as f64 / 1e3)),
    );
    m.insert(
        "parent".into(),
        span.parent
            .map_or(Value::Null, |p| Value::Number(Number::PosInt(p as u64))),
    );
    Value::Object(m)
}

/// A non-finite value would not be valid JSON: zero it and count a
/// failed check.
fn guard_finite(report: &mut RunReport) {
    for (name, value, _) in &mut report.metrics {
        if !value.is_finite() {
            report
                .checks
                .expect(false, || format!("metric {name} is not finite ({value})"));
            *value = 0.0;
        }
    }
}
