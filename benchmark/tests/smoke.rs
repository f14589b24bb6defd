//! Every workload runs one reduced pass cleanly, and each run prints
//! exactly the metrics `BENCHMARK.json` declares, with the same units.

use std::collections::BTreeSet;
use std::path::Path;

use osdc_benchmark::measure::{Options, Size};
use osdc_benchmark::{workloads, REPO_ROOT};
use serde_json::Value;

fn spec() -> Value {
    let path = Path::new(REPO_ROOT).join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(spec: &Value, key: &str) -> BTreeSet<(String, String)> {
    spec[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn declared_workloads_are_the_ones_the_benchmark_runs() {
    let spec = spec();
    let names: Vec<&str> = spec["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    assert_eq!(names, workloads::NAMES);
}

#[test]
fn every_workload_runs_clean_and_emits_the_declared_metrics() {
    let spec = spec();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    for name in workloads::NAMES {
        for trace in [false, true] {
            let opts = Options {
                seed: 1,
                seconds: 1e-3,
                trace,
                size: Size::Smoke,
            };
            let report = workloads::run(name, &opts).expect("known workload");
            assert!(report.checks.attempted > 0, "{name}: nothing checked");
            assert_eq!(
                report.checks.failed, 0,
                "{name} (trace {trace}): {:?}",
                report.checks.first_failure
            );
            let emitted: BTreeSet<(String, String)> = report
                .metrics
                .iter()
                .map(|(metric, _, unit)| (metric.clone(), unit.to_string()))
                .collect();
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&emitted, want, "{name} (trace {trace})");
            if !trace {
                for (metric, value, _) in &report.metrics {
                    assert!(*value > 0.0, "{name}: {metric} = {value}");
                }
            }
        }
    }
}
