//! `compare <a> <b>`: two sets of runs, metric by metric and workload by
//! workload, judged against the bounds in `BENCHMARK.json`.
//!
//! Each input is the JSON-lines file `--out` appends to: one record per
//! run, holding the workload, whether it was traced, and the printed
//! result. For every end-to-end metric the verdict is
//!
//! * `unresolved` when either side's quartile spread, as a share of its
//!   median, is wider than the bound — unless every run of `b` reads
//!   better than every run of `a`, which is `improved`;
//! * `regressed` / `improved` when `b`'s median is worse / better than
//!   `a`'s by more than the bound;
//! * `unchanged` otherwise.
//!
//! Per-layer metrics have no bound and are printed for reading only.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use serde_json::Value;

use crate::stats::{median, quartiles};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartile distance as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Judge `b` against `a` for one metric with relative `bound`.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&vb| a.iter().all(|&va| better(vb, va)));
    if spread(a) > bound || spread(b) > bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// A metric's declared direction and, for end-to-end metrics, bound.
struct Declared {
    lower_is_better: bool,
    bound: Option<f64>,
}

fn read_json(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn declared(spec: &Value) -> Result<BTreeMap<String, Declared>, String> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        let list = spec
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json lacks {key}"))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            out.insert(
                name.to_string(),
                Declared {
                    lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// (workload, metric) → values across runs, plus failed/attempted checks.
#[derive(Default)]
struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: u64,
    attempted: u64,
}

fn load_runs(path: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (i, line) in read_json(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: Value =
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{}:{}: no workload", path.display(), i + 1))?;
        let result =
            record
                .get("result")
                .ok_or(format!("{}:{}: no result", path.display(), i + 1))?;
        set.failed += result.get("failed").and_then(Value::as_u64).unwrap_or(1);
        set.attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("{}:{}: no metrics", path.display(), i + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                set.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

fn summary(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!("{:.5e} [{:.4e}, {:.4e}]", median(values), q1, q3)
}

/// Print the comparison table; true when no gated metric regressed or
/// is unresolved and neither side failed a check.
pub fn compare(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let spec: Value =
        serde_json::from_str(&read_json(spec)?).map_err(|e| format!("{}: {e}", spec.display()))?;
    let declared = declared(&spec)?;
    let (a, b) = (load_runs(a)?, load_runs(b)?);
    let keys: BTreeSet<&(String, String)> = a.values.keys().chain(b.values.keys()).collect();

    println!(
        "{:<16} {:<28} {:>34} {:>34} {:>9}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "change"
    );
    let mut ok = true;
    for key in keys {
        let (workload, metric) = key;
        let (Some(va), Some(vb)) = (a.values.get(key), b.values.get(key)) else {
            println!("{workload:<16} {metric:<28} present on one side only");
            ok = false;
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let change = if ma == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.2}%", 100.0 * (mb - ma) / ma.abs())
        };
        let judged = declared.get(metric).and_then(|d| {
            d.bound
                .map(|bound| verdict(va, vb, d.lower_is_better, bound))
        });
        if matches!(judged, Some(Verdict::Regressed | Verdict::Unresolved)) {
            ok = false;
        }
        println!(
            "{workload:<16} {metric:<28} {:>34} {:>34} {change:>9}  {}",
            summary(va),
            summary(vb),
            judged.map_or("-", Verdict::label)
        );
    }
    for (side, set) in [("a", &a), ("b", &b)] {
        println!("{side}: {} of {} checks failed", set.failed, set.attempted);
        ok &= set.failed == 0;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let same = [100.2, 99.8, 100.1, 100.0, 99.9];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let faster = [80.0, 81.0, 79.0, 80.0, 80.5];
        assert_eq!(verdict(&a, &same, true, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&a, &slower, true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&a, &faster, true, 0.1), Verdict::Improved);
        // Higher-is-better flips the reading of the same numbers.
        assert_eq!(verdict(&a, &slower, false, 0.1), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let a = [100.0, 60.0, 140.0, 100.0];
        let b = [101.0, 59.0, 141.0, 100.0];
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Unresolved);
        let all_faster = [40.0, 30.0, 50.0, 45.0];
        assert_eq!(verdict(&a, &all_faster, true, 0.1), Verdict::Improved);
    }
}
