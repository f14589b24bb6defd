//! Reproducibility manifests — the machine-checkable record of one
//! harness run (ROADMAP item 5).
//!
//! A [`Manifest`] pins everything a stranger needs to re-run an
//! experiment and verify they got bit-for-bit the same answer: the
//! experiment id, its seed, the worker count, the CLI flags, a digest of any chaos fault plan, and the expected SHA-256 of
//! every artifact the run produced — always `stdout`, plus any files
//! the harness emitted (telemetry traces, rasters). Manifests are plain
//! JSON through the serde compat shims, so they diff cleanly in review
//! and round-trip exactly.
//!
//! Emission is one code path for all eighteen harnesses: every harness
//! routes its output through a [`crate::harness::HarnessCtx`], whose
//! embedded [`ManifestRecorder`] accumulates the pins as the run prints
//! and writes artifacts. Passing `--manifest <path>` to
//! `exp <name>` writes the manifest; the
//! `exp_replay` binary loads manifests back, re-runs the named
//! experiment in-process and diffs every declared hash.
//!
//! Artifacts additionally carry short per-line hashes (capped at
//! [`MAX_LINE_HASHES`] lines) so a replay mismatch can name the first
//! diverging line, not just "the bytes differ".

use serde::{Deserialize, Serialize};

use osdc_crypto::sha256_hex;

/// Per-line context hashes are stored for artifacts up to this many
/// lines; larger artifacts fall back to whole-artifact divergence
/// reporting. Keeps checked-in manifests reviewable.
pub const MAX_LINE_HASHES: usize = 4096;

/// One pinned artifact: `stdout` or a named file the harness emitted.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactPin {
    /// Stable artifact name (`stdout`, `trace.jsonl`, ...), never a
    /// filesystem path — replays must not depend on where a recording
    /// run happened to put its files.
    pub name: String,
    pub bytes: u64,
    pub lines: u64,
    /// SHA-256 of the exact artifact bytes, lowercase hex.
    pub sha256: String,
    /// Truncated (8 hex chars) SHA-256 of each line, for first-divergence
    /// reporting. Empty when the artifact exceeds [`MAX_LINE_HASHES`].
    #[serde(default)]
    pub line_hashes: Vec<String>,
}

impl ArtifactPin {
    /// Pin `content` under `name`, hashing the whole artifact and (when
    /// small enough) each line. A larger artifact's lines are counted in
    /// place.
    pub fn of(name: &str, content: &[u8]) -> ArtifactPin {
        let lines = line_count(content);
        let line_hashes = if lines <= MAX_LINE_HASHES {
            split_lines(content).iter().map(|l| line_hash(l)).collect()
        } else {
            Vec::new()
        };
        ArtifactPin {
            name: name.to_string(),
            bytes: content.len() as u64,
            lines: lines as u64,
            sha256: sha256_hex(content),
            line_hashes,
        }
    }
}

/// Truncated per-line hash: the first 8 hex chars of the line's SHA-256.
pub fn line_hash(line: &[u8]) -> String {
    sha256_hex(line)[..8].to_string()
}

/// How many lines [`split_lines`] finds in `content`, counted without
/// collecting them: one per `\n`, plus a final unterminated fragment.
fn line_count(content: &[u8]) -> usize {
    let newlines = content.iter().filter(|&&b| b == b'\n').count();
    newlines + usize::from(content.last().is_some_and(|&b| b != b'\n'))
}

/// Split artifact bytes into lines without the trailing `\n`. A final
/// unterminated fragment counts as a line; empty content is zero lines.
pub fn split_lines(content: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = content.split(|&b| b == b'\n').collect();
    if lines.last() == Some(&&b""[..]) {
        lines.pop();
    }
    lines
}

/// The replayable record of one harness run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Harness name — the key into `exp_replay`'s registry of in-process
    /// entry points (`table3_udr`, `exp_resilience`, ...).
    pub experiment: String,
    /// The harness's base RNG seed, when it has one.
    pub seed: Option<u64>,
    /// Always `None`: the fluid solver has one mode. Kept because
    /// checked-in manifests and `benchmark/`'s replay workload carry and
    /// compare the field.
    pub solver: Option<String>,
    /// Worker count of the deterministic parallel map. Artifacts are
    /// byte-identical for any value; recorded for fidelity.
    pub jobs: u64,
    /// The CLI flags the run was invoked with (minus `--manifest` itself).
    /// A replay re-runs the harness with exactly these.
    pub args: Vec<String>,
    /// SHA-256 over the serialized chaos fault plan(s) driving the run,
    /// for harnesses that inject faults.
    pub fault_plan_sha256: Option<String>,
    /// Every artifact the run produced, `stdout` first.
    pub artifacts: Vec<ArtifactPin>,
}

impl Manifest {
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("manifest serializes");
        s.push('\n');
        s
    }

    pub fn from_json(text: &str) -> Result<Manifest, String> {
        serde_json::from_str(text).map_err(|e| format!("malformed manifest: {e}"))
    }

    pub fn artifact(&self, name: &str) -> Option<&ArtifactPin> {
        self.artifacts.iter().find(|a| a.name == name)
    }
}

/// Accumulates manifest fields while a harness runs. Owned by
/// [`crate::harness::HarnessCtx`]; harness code never touches it
/// directly — the ctx records seed and jobs as the harness parses its
/// flags, and pins artifacts as they are emitted.
#[derive(Clone, Debug)]
pub struct ManifestRecorder {
    experiment: String,
    args: Vec<String>,
    seed: Option<u64>,
    jobs: u64,
    fault_plan_sha256: Option<String>,
    artifacts: Vec<ArtifactPin>,
}

impl ManifestRecorder {
    pub fn new(experiment: &str, args: Vec<String>) -> ManifestRecorder {
        ManifestRecorder {
            experiment: experiment.to_string(),
            args,
            seed: None,
            jobs: 1,
            fault_plan_sha256: None,
            artifacts: Vec::new(),
        }
    }

    pub fn set_seed(&mut self, seed: u64) {
        self.seed = Some(seed);
    }

    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs as u64;
    }

    /// Record the digest of the run's chaos fault plan(s). Harnesses
    /// pass whatever serializable plan set drives the run; repeated
    /// calls fold into one digest in call order.
    pub fn record_fault_plan<T: Serialize>(&mut self, plan: &T) {
        let json = serde_json::to_string(plan).expect("fault plan serializes");
        let combined = match &self.fault_plan_sha256 {
            Some(prev) => sha256_hex(format!("{prev}\n{json}").as_bytes()),
            None => sha256_hex(json.as_bytes()),
        };
        self.fault_plan_sha256 = Some(combined);
    }

    /// Pin a named artifact's bytes, returning the pin.
    pub fn record_artifact(&mut self, name: &str, content: &[u8]) -> &ArtifactPin {
        let i = self.artifacts.len();
        self.artifacts.push(ArtifactPin::of(name, content));
        &self.artifacts[i]
    }

    /// Finish into a [`Manifest`], pinning the captured stdout first.
    pub fn finish(self, stdout: &[u8]) -> Manifest {
        let mut artifacts = vec![ArtifactPin::of("stdout", stdout)];
        artifacts.extend(self.artifacts);
        Manifest {
            experiment: self.experiment,
            seed: self.seed,
            solver: None,
            jobs: self.jobs,
            args: self.args,
            fault_plan_sha256: self.fault_plan_sha256,
            artifacts,
        }
    }
}

/// The result of diffing one replayed artifact against its pin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactVerdict {
    Match,
    /// Hashes differ; when both sides carry line hashes the first
    /// diverging line is named, with the replayed content for context.
    Diverged {
        detail: String,
    },
    /// Declared in the manifest but the replay never produced it.
    Missing,
}

/// Diff a replayed artifact against its manifest pin, locating the first
/// diverging line when per-line hashes are available on both sides.
pub fn diff_artifact(expected: &ArtifactPin, replayed: &[u8]) -> ArtifactVerdict {
    if sha256_hex(replayed) == expected.sha256 {
        return ArtifactVerdict::Match;
    }
    let lines = split_lines(replayed);
    if expected.line_hashes.is_empty() {
        return ArtifactVerdict::Diverged {
            detail: format!(
                "content differs ({} vs {} declared bytes; artifact too large for line context)",
                replayed.len(),
                expected.bytes
            ),
        };
    }
    for (i, line) in lines.iter().enumerate() {
        match expected.line_hashes.get(i) {
            None => {
                return ArtifactVerdict::Diverged {
                    detail: format!(
                        "replay has {} extra line(s) past the declared {}; first extra: {:?}",
                        lines.len() - expected.line_hashes.len(),
                        expected.line_hashes.len(),
                        String::from_utf8_lossy(line),
                    ),
                }
            }
            Some(want) if *want != line_hash(line) => {
                return ArtifactVerdict::Diverged {
                    detail: format!(
                        "first divergence at line {} (expected line hash {}); replayed: {:?}",
                        i + 1,
                        want,
                        String::from_utf8_lossy(line),
                    ),
                };
            }
            Some(_) => {}
        }
    }
    if lines.len() < expected.line_hashes.len() {
        return ArtifactVerdict::Diverged {
            detail: format!(
                "replay is truncated: {} line(s), manifest declares {}",
                lines.len(),
                expected.line_hashes.len()
            ),
        };
    }
    // Same lines, different whole-artifact hash: line endings or content
    // past the final newline.
    ArtifactVerdict::Diverged {
        detail: "content differs outside line boundaries (trailing bytes or line endings)"
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_counts_lines_and_hashes() {
        let pin = ArtifactPin::of("stdout", b"alpha\nbeta\n");
        assert_eq!(pin.lines, 2);
        assert_eq!(pin.bytes, 11);
        assert_eq!(pin.line_hashes.len(), 2);
        assert_eq!(pin.line_hashes[0], line_hash(b"alpha"));
        // A final unterminated fragment still counts as a line.
        assert_eq!(ArtifactPin::of("x", b"a\nb").lines, 2);
        assert_eq!(ArtifactPin::of("x", b"").lines, 0);
        for content in [&b"\n"[..], b"\n\n", b"a\n\nb", b"a\n\nb\n"] {
            assert_eq!(line_count(content), split_lines(content).len());
        }
        // Past the cap the lines are counted, not hashed.
        let big = format!("{}tail", "line\n".repeat(MAX_LINE_HASHES));
        let pin = ArtifactPin::of("big", big.as_bytes());
        assert_eq!(pin.lines, MAX_LINE_HASHES as u64 + 1);
        assert!(pin.line_hashes.is_empty());
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let mut rec = ManifestRecorder::new("table3_udr", vec!["--jobs=2".into()]);
        rec.set_seed(2012);
        rec.set_jobs(2);
        rec.record_fault_plan(&vec![1u64, 2, 3]);
        rec.record_artifact("trace.jsonl", b"{\"a\":1}\n");
        let m = rec.finish(b"hello\nworld\n");
        let back = Manifest::from_json(&m.to_json()).expect("parses");
        assert_eq!(m, back);
        assert_eq!(back.artifacts[0].name, "stdout");
        assert_eq!(back.artifact("trace.jsonl").unwrap().lines, 1);
    }

    #[test]
    fn diff_locates_first_divergence() {
        let pin = ArtifactPin::of("stdout", b"one\ntwo\nthree\n");
        assert_eq!(
            diff_artifact(&pin, b"one\ntwo\nthree\n"),
            ArtifactVerdict::Match
        );
        match diff_artifact(&pin, b"one\nTWO\nthree\n") {
            ArtifactVerdict::Diverged { detail } => {
                assert!(detail.contains("line 2"), "{detail}");
                assert!(detail.contains("TWO"), "{detail}");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        match diff_artifact(&pin, b"one\ntwo\n") {
            ArtifactVerdict::Diverged { detail } => {
                assert!(detail.contains("truncated"), "{detail}");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        match diff_artifact(&pin, b"one\ntwo\nthree\nfour\n") {
            ArtifactVerdict::Diverged { detail } => {
                assert!(detail.contains("extra"), "{detail}");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn fault_plan_digest_folds_in_order() {
        let mut a = ManifestRecorder::new("x", vec![]);
        a.record_fault_plan(&1u64);
        a.record_fault_plan(&2u64);
        let mut b = ManifestRecorder::new("x", vec![]);
        b.record_fault_plan(&2u64);
        b.record_fault_plan(&1u64);
        let (a, b) = (a.finish(b""), b.finish(b""));
        assert_ne!(a.fault_plan_sha256, b.fault_plan_sha256);
        assert!(a.fault_plan_sha256.is_some());
    }
}
