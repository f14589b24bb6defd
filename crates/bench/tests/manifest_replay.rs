//! Manifest round-trip properties and the end-to-end replay gate.
//!
//! The round-trip property pins the serde compat shims: any manifest the
//! recorder can produce must survive `to_json` → `from_json` exactly,
//! or checked-in manifests would silently drift. The loader fuzz feeds
//! hostile text to `Manifest::from_json` and to the compat JSON parser
//! alone; neither may panic. The process tests drive
//! the real `exp_replay` binary: a faithful manifest must replay clean,
//! a tampered hash must fail naming the diverging artifact, a malformed
//! `--jobs` or a manifest nested past the JSON parser's depth limit must
//! fail on its own without stopping the rest, and
//! `OSDC_UPDATE_SNAPSHOTS=1` must rewrite instead of fail. They also drive
//! the real `exp` binary: a live run records the checked-in manifest, a
//! missing or unknown harness name, a malformed `--jobs` or an
//! unwritable `--trace` path is a usage error, and a closed stdout ends
//! the run without a panic.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::OnceLock;

use osdc_bench::harness::{find, run_captured, REGISTRY};
use osdc_bench::manifest::{ArtifactPin, Manifest};
use proptest::prelude::*;
use proptest::TestRng;

// ------------------------------------------------------------- round-trip

/// A manifest assembled from drawn values: optional fields both ways,
/// args with flag-looking shapes, artifacts over newline-bearing
/// content (including an empty and an unterminated-final-line case).
fn arb_manifest(rng: &mut TestRng) -> Manifest {
    let artifacts = (0..rng.below(4) + 1)
        .map(|i| {
            let len = rng.below(400) as usize;
            let content: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.below(8) == 0 {
                        b'\n'
                    } else {
                        (0x20 + rng.below(0x5f)) as u8
                    }
                })
                .collect();
            ArtifactPin::of(&format!("artifact{i}.out"), &content)
        })
        .collect();
    Manifest {
        experiment: format!("exp_{}", rng.below(1000)),
        seed: (rng.below(2) == 0).then(|| rng.next_u64()),
        solver: (rng.below(2) == 0).then(|| format!("solver-{}", rng.below(100))),
        jobs: rng.below(64),
        args: (0..rng.below(4))
            .map(|i| format!("--flag{i}={}", rng.below(100)))
            .collect(),
        fault_plan_sha256: (rng.below(2) == 0).then(|| format!("{:064x}", rng.next_u64())),
        artifacts,
    }
}

proptest! {
    #[test]
    fn manifest_roundtrips_through_json(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let manifest = arb_manifest(&mut rng);
        let json = manifest.to_json();
        let back = Manifest::from_json(&json).expect("recorded manifests parse");
        prop_assert_eq!(&back, &manifest);
        // Stability: a second serialization is byte-identical, so
        // re-recorded manifests diff cleanly in review.
        prop_assert_eq!(back.to_json(), json);
    }
}

// ------------------------------------------------------------ loader fuzz

/// Every checked-in manifest under `data/manifests/`, read once.
fn checked_in_manifests() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data/manifests");
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("data/manifests exists")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("readable manifest"))
            .collect()
    })
}

/// Apply byte edits to `valid`: (op, position, byte) with op 0 =
/// overwrite, 1 = insert, 2 = delete, anything else = truncate.
fn mutate(valid: &str, edits: &[(u8, u16, u8)]) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    for &(op, at, byte) in edits {
        let at = at as usize % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Manifest::from_json` answers `Ok` or `Err` and never panics or
    /// hangs, on arbitrary bytes and on byte-edited copies of every
    /// checked-in manifest, in the style of
    /// `tukey_properties.rs::cloud_mapping_loader_never_panics`. Whatever
    /// it accepts serializes and parses back to itself.
    #[test]
    fn manifest_loader_never_panics(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        pick in 0usize..64,
        edits in prop::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..6),
    ) {
        let texts = checked_in_manifests();
        let mutated = mutate(&texts[pick % texts.len()], &edits);
        for input in [String::from_utf8_lossy(&noise).into_owned(), mutated] {
            if let Ok(manifest) = Manifest::from_json(&input) {
                prop_assert_eq!(Manifest::from_json(&manifest.to_json()).ok(), Some(manifest));
            }
        }
    }

    /// The compat `serde_json::from_str` on its own, parsing `Value`:
    /// arbitrary bytes, byte-edited copies of every checked-in manifest,
    /// and numbers in every JSON form across the whole `f64` exponent
    /// range. It never panics, and whatever it accepts round-trips.
    #[test]
    fn json_parser_never_panics(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        pick in 0usize..64,
        edits in prop::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..6),
        mantissa in any::<i64>(),
        exponent in -340i32..340,
    ) {
        let texts = checked_in_manifests();
        let (m, e) = (mantissa, exponent);
        for input in [
            String::from_utf8_lossy(&noise).into_owned(),
            mutate(&texts[pick % texts.len()], &edits),
            format!("[{m}, {m}.5, {m}e{e}, {m}.25E{e}]"),
        ] {
            json_round_trips(&input);
        }
    }
}

/// Parse `text` as a `Value`; if it parses, it must serialize and parse
/// back to an equal `Value`.
fn json_round_trips(text: &str) {
    if let Ok(value) = serde_json::from_str::<serde_json::Value>(text) {
        let json = serde_json::to_string(&value).expect("serializing a Value cannot fail");
        assert_eq!(
            serde_json::from_str::<serde_json::Value>(&json).ok(),
            Some(value),
            "{text:?} serialized as {json:?}"
        );
    }
}

/// Arrays and objects nested 127, 128 and 129 levels deep, around the
/// parser's 128-level cap: the first two parse and round-trip, the last
/// is refused, and none panics.
#[test]
fn json_nesting_at_the_cap() {
    for depth in [127, 128, 129] {
        let arrays = "[".repeat(depth) + &"]".repeat(depth);
        let objects = "{\"k\":".repeat(depth - 1) + "{}" + &"}".repeat(depth - 1);
        for text in [arrays, objects] {
            let parsed = serde_json::from_str::<serde_json::Value>(&text);
            assert_eq!(parsed.is_ok(), depth <= 128, "{depth} levels");
            json_round_trips(&text);
        }
    }
}

// ------------------------------------------------------ the replay gate

/// A fresh quick-config manifest for the fastest registered harness.
fn recorded_manifest() -> Manifest {
    let spec = find("table1_csp").expect("registered");
    let run = run_captured(spec, vec![], None);
    run.outcome.as_ref().expect("table1_csp passes");
    run.manifest
}

fn write_temp(tag: &str, manifest: &Manifest) -> PathBuf {
    let path = std::env::temp_dir().join(format!("osdc_replay_{tag}_{}.json", std::process::id()));
    std::fs::write(&path, manifest.to_json()).expect("temp manifest writes");
    path
}

fn exp_replay() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_replay"));
    cmd.env_remove("OSDC_UPDATE_SNAPSHOTS");
    cmd
}

#[test]
fn faithful_manifest_replays_clean() {
    let path = write_temp("clean", &recorded_manifest());
    let out = exp_replay().arg(&path).output().expect("exp_replay runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean replay must pass:\n{stdout}");
    assert!(stdout.contains("stdout: match"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn tampered_hash_fails_naming_the_artifact() {
    let mut manifest = recorded_manifest();
    let pin = &mut manifest.artifacts[0];
    assert_eq!(pin.name, "stdout");
    pin.sha256 = "0".repeat(64);
    pin.line_hashes[3] = "deadbeef".to_string();
    let path = write_temp("tampered", &manifest);
    let out = exp_replay().arg(&path).output().expect("exp_replay runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "tampered replay must fail:\n{stdout}"
    );
    assert!(
        stdout.contains("table1_csp diverged on stdout"),
        "failure must name the diverging artifact:\n{stdout}"
    );
    assert!(
        stdout.contains("first divergence at line 4"),
        "failure must name the first diverging line:\n{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn update_snapshots_rewrites_a_diverged_manifest() {
    let pristine = recorded_manifest();
    let mut tampered = pristine.clone();
    tampered.artifacts[0].sha256 = "f".repeat(64);
    let path = write_temp("update", &tampered);
    let out = exp_replay()
        .env("OSDC_UPDATE_SNAPSHOTS", "1")
        .arg(&path)
        .output()
        .expect("exp_replay runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "update mode must pass:\n{stdout}");
    assert!(stdout.contains("updated"), "{stdout}");
    let rewritten = Manifest::from_json(&std::fs::read_to_string(&path).expect("rewritten"))
        .expect("rewritten manifest parses");
    assert_eq!(rewritten, pristine, "rewrite restores the true pins");
    std::fs::remove_file(path).ok();
}

#[test]
fn unknown_experiment_is_rejected() {
    let mut manifest = recorded_manifest();
    manifest.experiment = "exp_nonexistent".to_string();
    let path = write_temp("unknown", &manifest);
    let out = exp_replay().arg(&path).output().expect("exp_replay runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("not a registered harness"),
        "must name the unknown experiment"
    );
    std::fs::remove_file(path).ok();
}

fn checked_in(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../data/manifests")
        .join(format!("{name}.json"))
}

#[test]
fn malformed_jobs_flag_fails_only_its_manifest() {
    let text = std::fs::read_to_string(checked_in("exp_gluster_mirroring")).expect("readable");
    let mut bad = Manifest::from_json(&text).expect("checked-in manifest parses");
    bad.args = vec!["--jobs".to_string(), "x".to_string()];
    let bad_path = write_temp("bad_jobs", &bad);
    let out = exp_replay()
        .arg(&bad_path)
        .arg(checked_in("table1_csp"))
        .output()
        .expect("exp_replay runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("run: FAILED — --jobs requires a positive integer, got \"x\""),
        "the bad manifest must fail naming --jobs:\n{stdout}"
    );
    assert!(
        stdout.contains("replaying table1_csp") && stdout.contains("  ok\n"),
        "the clean manifest after it must still replay:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!(
            "replay FAILED: 1/2 manifest(s) diverged: {}",
            bad_path.display()
        )),
        "the summary must name only the bad manifest:\n{stdout}"
    );
    std::fs::remove_file(bad_path).ok();
}

#[test]
fn deeply_nested_manifest_fails_alone() {
    let deep = std::env::temp_dir().join(format!("osdc_replay_deep_{}.json", std::process::id()));
    std::fs::write(&deep, "[".repeat(300_000)).expect("temp manifest writes");
    let out = exp_replay()
        .arg(&deep)
        .arg(checked_in("table1_csp"))
        .output()
        .expect("exp_replay runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!(
            "{}: malformed manifest: recursion limit exceeded",
            deep.display()
        )),
        "the nested manifest must fail naming itself:\n{stdout}"
    );
    assert!(
        stdout.contains("replaying table1_csp") && stdout.contains("  ok\n"),
        "the clean manifest after it must still replay:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!(
            "replay FAILED: 1/2 manifest(s) diverged: {}",
            deep.display()
        )),
        "the summary must name only the nested manifest:\n{stdout}"
    );
    std::fs::remove_file(deep).ok();
}

// ------------------------------------------------------------ exp <name>

fn exp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exp"))
}

#[test]
fn live_run_records_the_checked_in_manifest() {
    let path = std::env::temp_dir().join(format!("osdc_exp_live_{}.json", std::process::id()));
    let out = exp()
        .args(["table1_csp", "--manifest"])
        .arg(&path)
        .output()
        .expect("exp runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let live = std::fs::read_to_string(&path).expect("exp wrote the manifest");
    let pinned = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../data/manifests/table1_csp.json"
    ))
    .expect("checked-in manifest");
    assert_eq!(live, pinned, "live run must record the checked-in pins");
    std::fs::remove_file(path).ok();
}

/// A usage error: exit status 2 and every registered harness listed
/// with its title on stderr.
fn assert_lists_registry(args: &[&str]) -> String {
    let out = exp().args(args).output().expect("exp runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "exp {args:?}:\n{stderr}");
    assert!(out.stdout.is_empty(), "usage goes to stderr");
    for spec in REGISTRY {
        assert!(
            stderr.contains(spec.name) && stderr.contains(spec.title),
            "exp {args:?} must list {}:\n{stderr}",
            spec.name
        );
    }
    stderr
}

#[test]
fn missing_harness_name_lists_the_registry() {
    assert_lists_registry(&[]);
}

#[test]
fn unknown_harness_name_lists_the_registry() {
    let stderr = assert_lists_registry(&["table9_nonexistent", "--quick"]);
    assert!(stderr.contains("\"table9_nonexistent\""), "{stderr}");
}

/// `exp <args>` must exit 2 with `problem` on stderr before the harness
/// prints anything.
fn assert_usage_error_before_the_run(args: &[&str], problem: &str) {
    let out = exp().args(args).output().expect("exp runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "exp {args:?}:\n{stderr}");
    assert!(stderr.contains(problem), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "nothing runs before the check:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn malformed_jobs_flag_is_a_live_usage_error() {
    for args in [&["--jobs", "x"][..], &["--jobs"][..]] {
        let args = [&["exp_gluster_mirroring"][..], args].concat();
        assert_usage_error_before_the_run(&args, "--jobs requires");
    }
}

#[test]
fn trailing_trace_flag_is_a_live_usage_error() {
    assert_usage_error_before_the_run(
        &["table3_udr", "--trace"],
        "--trace requires a path argument",
    );
}

#[test]
fn unwritable_trace_path_is_a_live_usage_error() {
    // A path under a regular file cannot be created, whoever runs this.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/trace.jsonl");
    assert_usage_error_before_the_run(&["figure1_tukey", "--trace", path], "cannot write trace to");
}

#[test]
fn a_run_that_writes_no_trace_leaves_the_old_one() {
    let path = std::env::temp_dir().join(format!("osdc_exp_trace_{}.jsonl", std::process::id()));
    std::fs::write(&path, "earlier trace\n").expect("temp dir is writable");
    let trace = path.to_str().expect("utf-8 temp path");
    assert_usage_error_before_the_run(
        &["figure1_tukey", "--trace", trace, "--jobs", "x"],
        "--jobs requires",
    );
    // `table1_csp` takes `--trace` like every harness but records none.
    let out = exp()
        .args(["table1_csp", "--trace", trace])
        .output()
        .expect("exp runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let kept = std::fs::read_to_string(&path).expect("trace still there");
    std::fs::remove_file(&path).ok();
    assert_eq!(kept, "earlier trace\n");
}

#[test]
fn trailing_manifest_flag_is_a_live_usage_error() {
    assert_usage_error_before_the_run(
        &["table3_udr", "--quick", "--manifest"],
        "--manifest requires a path argument",
    );
}

#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = exp()
        .arg("table1_csp")
        .stdout(Stdio::from(writer))
        .output()
        .expect("exp runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
}
