//! The invariant of the parallel map: **`--jobs N` is unobservable**.
//! For every harness whose cells run on `run_indexed`, stdout and the
//! `--trace` JSONL artifact must be byte-identical for any worker count —
//! not merely equivalent, identical.
//!
//! The heavyweight checks spawn the real `exp` binary (Cargo exports its
//! path as `CARGO_BIN_EXE_exp` to integration tests) across
//! jobs ∈ {1, 2, 8} and byte-compare everything; the in-process checks
//! pin the telemetry shard-merge algebra the binary relies on.

use std::path::PathBuf;
use std::process::Command;

use osdc_telemetry::{run_sharded, Telemetry};

struct HarnessRun {
    stdout: Vec<u8>,
    trace: Vec<u8>,
}

/// Run `exp <harness>` with `--jobs <jobs> --trace <tmp>` plus `extra`
/// args, capturing stdout and the trace artifact. The trace path is
/// identical across runs (it appears in stdout).
fn run_harness(harness: &str, extra: &[&str], jobs: usize, trace: &PathBuf) -> HarnessRun {
    let output = Command::new(env!("CARGO_BIN_EXE_exp"))
        .arg(harness)
        .args(extra)
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--trace")
        .arg(trace)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn exp {harness}: {e}"));
    assert!(
        output.status.success(),
        "exp {harness} --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let artifact = std::fs::read(trace).expect("harness wrote the trace artifact");
    HarnessRun {
        stdout: output.stdout,
        trace: artifact,
    }
}

/// The tests run concurrently, so each names its trace file after its
/// harness.
fn assert_jobs_invariant(harness: &str, extra: &[&str]) {
    let trace = std::env::temp_dir().join(format!("osdc_runner_determinism_{harness}.jsonl"));
    let baseline = run_harness(harness, extra, 1, &trace);
    assert!(
        !baseline.trace.is_empty(),
        "{harness}: empty trace artifact"
    );
    for jobs in [2usize, 8] {
        let run = run_harness(harness, extra, jobs, &trace);
        assert_eq!(
            run.stdout, baseline.stdout,
            "{harness}: stdout differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            run.trace, baseline.trace,
            "{harness}: trace artifact differs between --jobs 1 and --jobs {jobs}"
        );
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn table3_artifacts_are_jobs_invariant() {
    assert_jobs_invariant("table3_udr", &[]);
}

#[test]
fn resilience_quick_artifacts_are_jobs_invariant() {
    assert_jobs_invariant("exp_resilience", &["--quick"]);
}

#[test]
fn sharing_quick_artifacts_are_jobs_invariant() {
    assert_jobs_invariant("exp_sharing", &["--quick"]);
}

/// One synthetic scenario shard: spans, points and all three metric
/// kinds, parameterized by the scenario index.
fn scenario(tele: &Telemetry, i: usize) -> usize {
    use osdc_sim::SimTime;
    let span = tele.span_start(&format!("scenario{i}"), SimTime(i as u64));
    tele.attr(span, "index", i as u64);
    tele.point("scenario.progress", SimTime(i as u64 + 1), i as f64);
    tele.span_end(span, SimTime(i as u64 + 2));
    tele.add(tele.counter("scenario.count"), 1);
    tele.set_gauge(tele.gauge("scenario.last"), i as f64);
    tele.observe(tele.histogram("scenario.cost"), (i * 7) as f64);
    i
}

#[test]
fn run_sharded_exports_are_jobs_invariant() {
    let export = |jobs: usize| {
        let parent = Telemetry::new();
        let tasks: Vec<_> = (0..12)
            .map(|_| |t: &Telemetry, i: usize| scenario(t, i))
            .collect();
        let results = run_sharded(jobs, &parent, tasks);
        assert_eq!(results, (0..12).collect::<Vec<_>>());
        (parent.export_jsonl(), parent.ops_report())
    };
    let (serial_jsonl, serial_report) = export(1);
    assert!(!serial_jsonl.is_empty());
    for jobs in [2usize, 4, 8] {
        let (jsonl, report) = export(jobs);
        assert_eq!(jsonl, serial_jsonl, "jobs={jobs}");
        assert_eq!(report, serial_report, "jobs={jobs}");
    }
}
