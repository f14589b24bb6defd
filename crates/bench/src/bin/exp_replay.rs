//! Replay recorded experiment manifests and diff every pinned artifact.
//!
//! A manifest (written by any harness via `--manifest <path>`, or
//! recorded wholesale with `--record`) pins the SHA-256 of a harness
//! run's stdout and file artifacts plus the knobs that produced them
//! (seed, `--jobs`, fault-plan digest, CLI flags). This
//! binary re-runs the named harness **in-process** with output captured
//! and reports, per artifact, match or the first diverging line — which
//! turns the whole suite into a determinism regression trap: any change
//! that silently perturbs an experiment's output fails replay by name.
//!
//! Usage:
//!
//! ```text
//! exp_replay <manifest.json>...      verify the named manifests
//! exp_replay --all <dir>             verify every *.json under <dir>
//! exp_replay --record <dir>          re-record <dir>/<name>.json for
//!                                    every registered harness, using
//!                                    its quick configuration
//! ```
//!
//! `OSDC_UPDATE_SNAPSHOTS=1` rewrites diverging manifests in place
//! instead of failing (the replay analogue of snapshot regeneration).
//! Exit status: 0 when every manifest matches, 1 otherwise.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use osdc_bench::harness::{self, CapturedRun, HarnessSpec};
use osdc_bench::manifest::{diff_artifact, ArtifactPin, ArtifactVerdict, Manifest};

fn usage() -> ! {
    eprintln!(
        "usage: exp_replay <manifest.json>... | --all <dir> | --record <dir>\n\
         \n\
         OSDC_UPDATE_SNAPSHOTS=1 rewrites diverging manifests instead of failing"
    );
    std::process::exit(2);
}

fn update_snapshots() -> bool {
    std::env::var("OSDC_UPDATE_SNAPSHOTS").is_ok_and(|v| v == "1")
}

/// Every `*.json` under `dir`, sorted by file name so output and exit
/// behavior are directory-order independent.
fn manifests_in(dir: &Path) -> Vec<PathBuf> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no manifests (*.json) under {}", dir.display());
        std::process::exit(2);
    }
    paths
}

/// Re-run the manifest's harness in-process. The manifest's own args are
/// replayed verbatim; its recorded worker count backstops harnesses
/// whose args leave `--jobs` to the host default.
fn rerun(spec: &HarnessSpec, manifest: &Manifest) -> CapturedRun {
    harness::run_captured(
        spec,
        manifest.args.clone(),
        Some(manifest.jobs.max(1) as usize),
    )
}

/// Compare a recorded manifest against its replay, printing one line per
/// artifact. Returns the names of diverging artifacts (empty = clean).
fn divergences(expected: &Manifest, replay: &CapturedRun) -> Vec<String> {
    let mut bad = Vec::new();
    if let Err(harness::Failure(message)) = &replay.outcome {
        println!("  run: FAILED — {message}");
        bad.push("(run)".to_string());
    }
    for (field, want, got) in [
        (
            "seed",
            fmt_opt(&expected.seed),
            fmt_opt(&replay.manifest.seed),
        ),
        (
            "solver",
            fmt_opt(&expected.solver),
            fmt_opt(&replay.manifest.solver),
        ),
        (
            "fault plan",
            fmt_opt(&expected.fault_plan_sha256),
            fmt_opt(&replay.manifest.fault_plan_sha256),
        ),
    ] {
        if want != got {
            println!("  {field}: DIVERGED — recorded {want}, replayed {got}");
            bad.push(format!("({field})"));
        }
    }
    for pin in &expected.artifacts {
        let replayed = replay
            .raw
            .iter()
            .find(|(name, _)| *name == pin.name)
            .map(|(_, content)| content);
        match replayed {
            None => {
                println!("  {}: MISSING — replay never produced it", pin.name);
                bad.push(pin.name.clone());
            }
            Some(content) => match verdict(pin, replay, content) {
                ArtifactVerdict::Match => {
                    println!("  {}: match ({} lines)", pin.name, pin.lines);
                }
                ArtifactVerdict::Diverged { detail } => {
                    println!("  {}: DIVERGED — {detail}", pin.name);
                    bad.push(pin.name.clone());
                }
                ArtifactVerdict::Missing => unreachable!("content was present"),
            },
        }
    }
    for (name, _) in &replay.raw {
        if expected.artifact(name).is_none() {
            println!("  {name}: UNDECLARED — replay emitted an artifact the manifest never pinned");
            bad.push(name.clone());
        }
    }
    bad
}

/// How the replayed `content` of `pin` compares with it. The replay
/// pinned those very bytes with `ArtifactPin::of`, so equal digests are a
/// match without hashing them again; only a mismatch is diffed, to name
/// its first diverging line.
fn verdict(pin: &ArtifactPin, replay: &CapturedRun, content: &[u8]) -> ArtifactVerdict {
    match replay.manifest.artifact(&pin.name) {
        Some(own) if own.sha256 == pin.sha256 => ArtifactVerdict::Match,
        _ => diff_artifact(pin, content),
    }
}

fn fmt_opt<T: std::fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "(unset)".to_string(),
    }
}

/// Verify one manifest file; true when it matched (or was rewritten
/// under `OSDC_UPDATE_SNAPSHOTS=1`).
fn verify(path: &Path) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            println!("{}: cannot read: {e}", path.display());
            return false;
        }
    };
    let expected = match Manifest::from_json(&text) {
        Ok(m) => m,
        Err(e) => {
            println!("{}: {e}", path.display());
            return false;
        }
    };
    let Some(spec) = harness::find(&expected.experiment) else {
        println!(
            "{}: experiment {:?} is not a registered harness",
            path.display(),
            expected.experiment
        );
        return false;
    };
    println!(
        "replaying {} ({}, args: {:?}, jobs {})",
        expected.experiment,
        path.display(),
        expected.args,
        expected.jobs
    );
    let replay = rerun(spec, &expected);
    let bad = divergences(&expected, &replay);
    if bad.is_empty() {
        println!("  ok\n");
        return true;
    }
    if update_snapshots() && replay.outcome.is_ok() {
        match std::fs::write(path, replay.manifest.to_json()) {
            Ok(()) => {
                println!("  updated {} (OSDC_UPDATE_SNAPSHOTS=1)\n", path.display());
                return true;
            }
            Err(e) => println!("  cannot update {}: {e}", path.display()),
        }
    }
    println!(
        "  FAIL: {} diverged on {}\n",
        expected.experiment,
        bad.join(", ")
    );
    false
}

/// Record `<dir>/<name>.json` for every registered harness under its
/// quick configuration.
fn record_all(dir: &Path) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut failed = 0usize;
    for spec in harness::REGISTRY {
        let args: Vec<String> = spec.quick_args.iter().map(|s| s.to_string()).collect();
        let run = harness::run_captured(spec, args, Some(2));
        if let Err(harness::Failure(message)) = &run.outcome {
            println!("{}: FAILED — {message} (not recorded)", spec.name);
            failed += 1;
            continue;
        }
        let path = dir.join(format!("{}.json", spec.name));
        match std::fs::write(&path, run.manifest.to_json()) {
            Ok(()) => println!(
                "{}: recorded {} artifact(s) to {}",
                spec.name,
                run.manifest.artifacts.len(),
                path.display()
            ),
            Err(e) => {
                println!("{}: cannot write {}: {e}", spec.name, path.display());
                failed += 1;
            }
        }
    }
    if failed > 0 {
        println!("\nFAIL: {failed} harness(es) did not record");
        return ExitCode::FAILURE;
    }
    println!("\nrecorded {} manifest(s)", harness::REGISTRY.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<PathBuf> = match argv.split_first() {
        Some((flag, [dir])) if flag == "--record" => return record_all(Path::new(dir)),
        Some((flag, [dir])) if flag == "--all" => manifests_in(Path::new(dir)),
        Some(_) if argv.iter().all(|a| !a.starts_with('-')) => {
            argv.iter().map(PathBuf::from).collect()
        }
        _ => usage(),
    };
    let mut diverged: Vec<String> = Vec::new();
    for path in &paths {
        if !verify(path) {
            diverged.push(path.display().to_string());
        }
    }
    if diverged.is_empty() {
        println!("replay clean: {} manifest(s) matched", paths.len());
        ExitCode::SUCCESS
    } else {
        println!(
            "replay FAILED: {}/{} manifest(s) diverged: {}",
            diverged.len(),
            paths.len(),
            diverged.join(", ")
        );
        ExitCode::FAILURE
    }
}
