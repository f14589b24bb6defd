//! Offline compat shim: the `criterion` API surface this workspace's
//! benches use, backed by a simple wall-clock measurement loop.
//!
//! No statistics beyond median-of-samples and no HTML reports — each bench
//! prints one line: name, per-iteration time, and throughput when
//! configured. Good enough to compare hot paths before/after a change on
//! the same machine, which is all the workspace benches are for.
//!
//! Command line: `--test` runs every selected bench body once and
//! measures nothing; the first argument that does not start with `-` is
//! a name filter, keeping only the rows whose `group/id` contains it.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// A benchmark identifier: `function_id/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_id: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_id.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Things accepted as a benchmark name.
pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            id: self.to_string(),
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { id: self }
    }
}

/// Timing loop handle passed to bench closures.
pub struct Bencher {
    /// Median per-iteration nanoseconds of the last `iter` call.
    pub(crate) last_ns: f64,
    sample_size: usize,
    measure: Duration,
    test_mode: bool,
}

impl Bencher {
    /// Measure `f`, auto-scaling the batch size so one sample takes a
    /// useful amount of wall clock.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            // `--test` smoke mode: run the body once to prove it executes,
            // skip the measurement loop entirely.
            black_box(f());
            self.last_ns = 0.0;
            return;
        }
        // Warm up and estimate the cost of one iteration.
        let mut iters = 1u64;
        let per_iter_estimate = loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt > Duration::from_millis(1) || iters >= 1 << 20 {
                break dt.as_secs_f64() / iters as f64;
            }
            iters *= 2;
        };
        // Pick a batch size so `sample_size` samples fit in the window.
        let budget = self.measure.as_secs_f64() / self.sample_size as f64;
        let batch = ((budget / per_iter_estimate.max(1e-9)) as u64).clamp(1, 1 << 24);
        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(t0.elapsed().as_secs_f64() / batch as f64 * 1e9);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        self.last_ns = samples[samples.len() / 2];
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// A named group of benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Whether the name filter keeps row `id` of this group.
    fn selected(&self, id: &str) -> bool {
        self.criterion
            .filter
            .as_deref()
            .is_none_or(|f| format!("{}/{id}", self.name).contains(f))
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_benchmark_id();
        if !self.selected(&id.id) {
            return self;
        }
        let mut b = Bencher {
            last_ns: 0.0,
            sample_size: self.criterion.sample_size,
            measure: self.criterion.measurement_time,
            test_mode: self.criterion.test_mode,
        };
        f(&mut b);
        self.report(&id.id, b.last_ns);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into_benchmark_id();
        if !self.selected(&id.id) {
            return self;
        }
        let mut b = Bencher {
            last_ns: 0.0,
            sample_size: self.criterion.sample_size,
            measure: self.criterion.measurement_time,
            test_mode: self.criterion.test_mode,
        };
        f(&mut b, input);
        self.report(&id.id, b.last_ns);
        self
    }

    fn report(&mut self, id: &str, ns: f64) {
        if self.criterion.test_mode {
            println!("Testing {}/{id}: ok", self.name);
            self.criterion
                .results
                .push((format!("{}/{id}", self.name), ns));
            return;
        }
        let tp = match self.throughput {
            Some(Throughput::Bytes(n)) => {
                format!("  ({:.1} MiB/s)", n as f64 / (ns / 1e9) / (1 << 20) as f64)
            }
            Some(Throughput::Elements(n)) => {
                format!("  ({:.2} Melem/s)", n as f64 / (ns / 1e9) / 1e6)
            }
            None => String::new(),
        };
        let line = format!("{}/{:<40} {:>12}{}", self.name, id, format_ns(ns), tp);
        println!("{line}");
        self.criterion
            .results
            .push((format!("{}/{id}", self.name), ns));
    }

    pub fn finish(&mut self) {}
}

/// The harness entry point.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    /// `--test` smoke mode: run every bench body once, measure nothing.
    test_mode: bool,
    /// The bench-name filter ([`name_filter`]); `None` runs every row.
    filter: Option<String>,
    /// `(full id, median ns/iter)` for every bench run so far; exposed so
    /// a hand-written bench `main` can compare entries after running.
    pub results: Vec<(String, f64)>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Honor `cargo bench -- --test` (criterion's smoke mode) from
        // `default()` rather than only `configure_from_args()`: the
        // workspace benches build their config as
        // `Criterion::default().sample_size(n)` without the latter, and CI
        // leans on `--test` to keep the bench step fast.
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_millis(500),
            test_mode: std::env::args().any(|a| a == "--test"),
            filter: name_filter(std::env::args()),
            results: Vec::new(),
        }
    }
}

/// The bench-name filter in a bench binary's arguments (program name
/// first): the first argument that does not start with `-`. Cargo's own
/// `--bench` and the `--test` flag are not filters.
fn name_filter(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().skip(1).find(|a| !a.starts_with('-'))
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    pub fn warm_up_time(self, _d: Duration) -> Self {
        self
    }

    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_benchmark_id();
        self.benchmark_group("crit").bench_function(id, f);
        self
    }

    pub fn final_summary(&self) {}
}

/// `criterion_group!{name = benches; config = ..; targets = a, b}` or
/// `criterion_group!(benches, a, b)`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
            criterion.final_summary();
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// `criterion_main!(group_a, group_b)` — benches are `harness = false`
/// binaries, so this emits `main`. Of the CLI arguments, `--test` and the
/// first one not starting with `-` (the bench-name filter) are read;
/// cargo's `--bench` flag and the rest are accepted and ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short-sampling harness with no name filter, whatever arguments
    /// the test binary itself was given.
    fn quick() -> Criterion {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(20));
        c.filter = None;
        c
    }

    #[test]
    fn bench_reports_positive_time() {
        let mut c = quick();
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(100));
        group.bench_function("sum", |b| {
            b.iter(|| (0..100u64).map(black_box).sum::<u64>())
        });
        group.finish();
        assert_eq!(c.results.len(), 1);
        assert!(c.results[0].1 > 0.0, "measured {} ns", c.results[0].1);
    }

    #[test]
    fn name_filter_is_the_first_argument_not_starting_with_a_dash() {
        let filter = |args: &[&str]| name_filter(args.iter().map(|a| a.to_string()));
        assert_eq!(
            filter(&["fluid_solver"]),
            None,
            "the program name is skipped"
        );
        assert_eq!(filter(&["fluid_solver", "--bench"]), None);
        assert_eq!(filter(&["fluid_solver", "--test"]), None);
        assert_eq!(
            filter(&["fluid_solver", "--bench", "link_flap"]),
            Some("link_flap".to_string())
        );
        assert_eq!(
            filter(&["fluid_solver", "link_flap", "--bench", "other"]),
            Some("link_flap".to_string())
        );
    }

    #[test]
    fn filter_keeps_only_rows_whose_full_id_contains_it() {
        let mut c = quick();
        c.test_mode = true;
        c.filter = Some("g/b".to_string());
        let mut ran = Vec::new();
        let mut group = c.benchmark_group("g");
        for id in ["a", "b", "bb", "ab"] {
            group.bench_function(id, |b| {
                ran.push(id);
                b.iter(|| 1)
            });
        }
        group.bench_with_input(BenchmarkId::new("b", 2), &2, |b, &n| {
            ran.push("b/2");
            b.iter(|| n)
        });
        group.finish();
        c.bench_function("b", |b| {
            ran.push("crit/b");
            b.iter(|| 1)
        });
        assert_eq!(ran, ["b", "bb", "b/2"]);
        let rows: Vec<&str> = c.results.iter().map(|(row, _)| row.as_str()).collect();
        assert_eq!(rows, ["g/b", "g/bb", "g/b/2"]);
    }

    #[test]
    fn ids_compose() {
        assert_eq!(BenchmarkId::new("f", "1MiB").id, "f/1MiB");
    }
}
