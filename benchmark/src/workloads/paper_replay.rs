//! `paper_replay`: reproduce the paper. One pass runs every registered
//! harness in-process at its CI-quick configuration on one worker and
//! diffs every pin against the checked-in manifest under
//! `data/manifests/`, as a reader re-running the experiments would.
//!
//! It touches every layer a little (the Table 3 fluid solver most), so a
//! gain in one layer that costs another shows up here. The seed is
//! unused: each manifest pins its experiment's seed.

use std::collections::BTreeMap;
use std::path::Path;

use osdc_bench::harness::{self, CapturedRun, Failure, HarnessSpec};
use osdc_bench::manifest::{diff_artifact, ArtifactVerdict, Manifest};

use crate::measure::{Checks, Size, Workload};
use crate::trace::Tracer;

/// Cheap harnesses the debug-build smoke test replays.
const SMOKE: [&str; 3] = ["table1_csp", "table2_resources", "exp_cost_crossover"];

struct Replay {
    spec: &'static HarnessSpec,
    span: String,
    args: Vec<String>,
    manifest: Manifest,
}

pub struct PaperReplay {
    replays: Vec<Replay>,
}

/// The harness's quick arguments on one worker.
fn single_worker(args: &[&str]) -> Vec<String> {
    args.iter()
        .map(|a| {
            if a.starts_with("--jobs") {
                "--jobs=1".to_string()
            } else {
                a.to_string()
            }
        })
        .collect()
}

/// Tally every pin of `manifest` against the replayed run: the run must
/// succeed, the seed/solver/fault-plan fields must agree, each declared
/// artifact must match, and no undeclared artifact may appear.
fn diff(manifest: &Manifest, run: &CapturedRun, checks: &mut Checks) {
    let name = &manifest.experiment;
    let failure = run.outcome.as_ref().err().map(|Failure(why)| why.as_str());
    checks.expect(failure.is_none(), || {
        format!("{name}: harness failed: {}", failure.unwrap_or_default())
    });
    checks.expect(run.manifest.seed == manifest.seed, || {
        format!("{name}: seed diverged")
    });
    checks.expect(run.manifest.solver == manifest.solver, || {
        format!("{name}: solver diverged")
    });
    checks.expect(
        run.manifest.fault_plan_sha256 == manifest.fault_plan_sha256,
        || format!("{name}: fault plan diverged"),
    );
    for pin in &manifest.artifacts {
        let verdict = match run.raw.iter().find(|(n, _)| *n == pin.name) {
            Some((_, content)) => diff_artifact(pin, content),
            None => ArtifactVerdict::Missing,
        };
        checks.expect(verdict == ArtifactVerdict::Match, || {
            format!("{name}/{}: {verdict:?}", pin.name)
        });
    }
    for (artifact, _) in &run.raw {
        checks.expect(manifest.artifact(artifact).is_some(), || {
            format!("{name}/{artifact}: undeclared artifact")
        });
    }
}

impl Workload for PaperReplay {
    const NAME: &'static str = "paper_replay";
    type Out = Checks;

    fn setup(_seed: u64, size: Size) -> Self {
        let dir = Path::new(crate::REPO_ROOT).join("data/manifests");
        let replays = harness::REGISTRY
            .iter()
            .filter(|spec| size == Size::Full || SMOKE.contains(&spec.name))
            .map(|spec| {
                let path = dir.join(format!("{}.json", spec.name));
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
                let manifest = Manifest::from_json(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                Replay {
                    spec,
                    span: format!("harness.{}", spec.name),
                    args: single_worker(spec.quick_args),
                    manifest,
                }
            })
            .collect();
        PaperReplay { replays }
    }

    fn pass<'n>(&'n self, _workers: usize, tr: &mut Tracer<'n>) -> Checks {
        let mut checks = Checks::default();
        for r in &self.replays {
            let run = tr.span(&r.span, |_| {
                harness::run_captured(r.spec, r.args.clone(), Some(1))
            });
            tr.span("manifest.diff", |_| diff(&r.manifest, &run, &mut checks));
        }
        checks
    }

    fn check(&self, out: &Checks, _reference: Option<&Checks>, checks: &mut Checks) {
        checks.absorb(out);
    }

    fn work(&self, _out: &Checks) -> (f64, &'static str) {
        (self.replays.len() as f64, "experiments")
    }

    fn layer_metrics(
        &self,
        _reference: &Checks,
        _layers: &BTreeMap<String, f64>,
    ) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_flag_is_pinned_to_one_worker() {
        assert_eq!(
            single_worker(&["--quick", "--jobs=2", "--trace=trace.jsonl"]),
            ["--quick", "--jobs=1", "--trace=trace.jsonl"]
        );
    }

    #[test]
    fn replay_is_clean_and_a_corrupted_pin_is_caught() {
        let mut w = PaperReplay::setup(0, Size::Smoke);
        let clean = w.pass(1, &mut Tracer::off());
        assert_eq!(clean.failed, 0, "{:?}", clean.first_failure);
        assert!(clean.attempted > 0);

        w.replays[0].manifest.artifacts[0].sha256 = "0".repeat(64);
        let trapped = w.pass(1, &mut Tracer::off());
        assert_eq!(trapped.attempted, clean.attempted);
        assert_eq!(trapped.failed, 1, "{:?}", trapped.first_failure);
    }
}
