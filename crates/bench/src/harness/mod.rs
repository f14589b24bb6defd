//! In-process harness entry points and the shared emission path.
//!
//! Every experiment is a module here, run by name through the `exp`
//! binary (`exp table3_udr --jobs 2`): its body takes a [`HarnessCtx`]
//! and routes *all* output through it — stdout via the [`out!`](crate::out)/[`outln!`](crate::outln)
//! macros, file artifacts via
//! [`HarnessCtx::emit_artifact`]/[`HarnessCtx::finish_trace`]. That single
//! code path is what makes every harness replayable:
//!
//! * **live** (`exp <name>`): output tees to the real stdout,
//!   artifacts land on disk, and `--manifest <path>` writes a
//!   [`Manifest`] pinning the SHA-256 of everything emitted;
//! * **captured** (`exp_replay`): the same body runs in-process with
//!   output buffered, and the resulting pins are diffed against a
//!   previously recorded manifest, naming the first diverging line.
//!
//! [`REGISTRY`] lists every harness with the `--quick` configuration its
//! checked-in manifest under `data/manifests/` records.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;

use osdc_telemetry::Telemetry;

use crate::manifest::{Manifest, ManifestRecorder};
use crate::{jobs_from, trace_path_from};

pub mod exp_audit;
pub mod exp_billing_behavior;
pub mod exp_cost_crossover;
pub mod exp_gluster_mirroring;
pub mod exp_occ_y_fairshare;
pub mod exp_providers;
pub mod exp_provisioning;
pub mod exp_resilience;
pub mod exp_scale;
pub mod exp_sharing;
pub mod exp_sustainability;
pub mod exp_udt_ablation;
pub mod figure1_tukey;
pub mod figure2_matsu;
pub mod figure3_topology;
pub mod table1_csp;
pub mod table2_resources;
pub mod table3_udr;

/// A harness run that must exit nonzero (acceptance bar violated).
#[derive(Debug)]
pub struct Failure(pub String);

pub type RunResult = Result<(), Failure>;

/// Shorthand for the harnesses' failure exits.
pub fn fail(message: impl Into<String>) -> RunResult {
    Err(Failure(message.into()))
}

/// Turns a harness step's `Err` or `None` into the run's [`Failure`],
/// named by `step`: a step that cannot fail on its harness's fixed inputs
/// still ends the run with exit 1, not a panic, if it ever does.
pub(crate) trait OrFail<T> {
    fn or_fail(self, step: &str) -> Result<T, Failure>;
}

impl<T, E: fmt::Debug> OrFail<T> for Result<T, E> {
    fn or_fail(self, step: &str) -> Result<T, Failure> {
        self.map_err(|e| Failure(format!("{step}: {e:?}")))
    }
}

impl<T> OrFail<T> for Option<T> {
    fn or_fail(self, step: &str) -> Result<T, Failure> {
        self.ok_or_else(|| Failure(format!("{step}: nothing returned")))
    }
}

/// The execution context threaded through every harness body.
pub struct HarnessCtx {
    args: Vec<String>,
    live: bool,
    captured: Vec<u8>,
    recorder: ManifestRecorder,
    /// `--jobs`, parsed once when the ctx is built: `Ok(None)` when
    /// absent, the usage error when malformed (see
    /// [`HarnessCtx::usage_error`]).
    jobs_flag: Result<Option<usize>, String>,
    /// `--trace`, parsed once beside `--jobs`, the same way.
    trace_flag: Result<Option<PathBuf>, String>,
    /// Live runs only: the `--trace` file, opened before the run.
    trace_file: Option<File>,
    /// Replay-only: the recorded worker count, used when the manifest's
    /// args don't pin `--jobs` (output is jobs-invariant; this keeps the
    /// re-recorded manifest field faithful on any host).
    jobs_fallback: Option<usize>,
    /// Captured runs keep the raw bytes of every emitted artifact so
    /// `exp_replay` can name the first diverging line, not just report a
    /// hash mismatch. Live runs skip this (the bytes are on disk).
    raw_artifacts: Vec<(String, Vec<u8>)>,
}

impl HarnessCtx {
    /// Context for a live `exp` run: output tees to stdout, artifacts
    /// land on disk. Once the other flags parse, the `--trace` file is
    /// opened here, so a path that cannot be written is a usage error
    /// before the run, not a failure after it. It is not truncated until
    /// [`HarnessCtx::finish_trace`] writes it: a run that fails, or a
    /// harness that records no trace, leaves an earlier trace as it was.
    pub fn live(experiment: &str, args: Vec<String>) -> HarnessCtx {
        let mut ctx = HarnessCtx::captured(experiment, args, None);
        ctx.live = true;
        if let (Ok(_), Ok(Some(path))) = (&ctx.jobs_flag, &ctx.trace_flag) {
            match OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)
            {
                Ok(file) => ctx.trace_file = Some(file),
                Err(e) => {
                    ctx.trace_flag = Err(format!("cannot write trace to {}: {e}", path.display()))
                }
            }
        }
        ctx
    }

    /// Context for an in-process captured run (`exp_replay`): output is
    /// buffered only, nothing touches the filesystem.
    pub fn captured(
        experiment: &str,
        args: Vec<String>,
        jobs_fallback: Option<usize>,
    ) -> HarnessCtx {
        HarnessCtx {
            recorder: ManifestRecorder::new(experiment, args.clone()),
            jobs_flag: jobs_from(&args),
            trace_flag: trace_path_from(&args),
            trace_file: None,
            args,
            live: false,
            captured: Vec::new(),
            jobs_fallback,
            raw_artifacts: Vec::new(),
        }
    }

    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// A malformed shared flag (`--jobs x`, a trailing `--jobs` or
    /// `--trace`), or on a live run a `--trace` path that cannot be
    /// created. Checked before the harness body runs: `exp` exits 2 on
    /// it, a captured run reports it as the run's [`Failure`].
    pub fn usage_error(&self) -> Option<&str> {
        let trace = self.trace_flag.as_ref().err();
        self.jobs_flag.as_ref().err().or(trace).map(String::as_str)
    }

    pub fn has_flag(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The shared `--quick` CI-smoke flag.
    pub fn quick(&self) -> bool {
        self.has_flag("--quick")
    }

    /// Print the harness banner.
    pub fn banner(&mut self, artifact: &str, description: &str) {
        crate::outln!(self, "{}", "=".repeat(78));
        crate::outln!(self, "{artifact} — {description}");
        crate::outln!(self, "{}", "=".repeat(78));
    }

    /// Print the replay-seed line and record the seed in the manifest.
    pub fn seed_line(&mut self, seed: u64) {
        self.recorder.set_seed(seed);
        crate::outln!(self, "(deterministic run, seed = {seed})\n");
    }

    /// The shared `--jobs <N>` worker count (recording the value used):
    /// the flag, else the replay fallback, else 1.
    pub fn jobs(&mut self) -> usize {
        let flag = *self.jobs_flag.as_ref().unwrap_or(&None);
        let jobs = flag.or(self.jobs_fallback).unwrap_or(1).max(1);
        self.recorder.set_jobs(jobs);
        jobs
    }

    /// Whether this run wants the telemetry JSONL artifact (`--trace`).
    pub fn trace_enabled(&self) -> bool {
        matches!(self.trace_flag, Ok(Some(_)))
    }

    /// Record the digest of the run's chaos fault plan(s).
    pub fn record_fault_plan<T: serde::Serialize>(&mut self, plan: &T) {
        self.recorder.record_fault_plan(plan);
    }

    /// Pin a named artifact and, on live runs, write it next to the
    /// system temp dir. Printed context stays path-free so recorded and
    /// replayed stdout match byte for byte.
    pub fn emit_artifact(&mut self, name: &str, content: &[u8]) {
        self.recorder.record_artifact(name, content);
        if !self.live {
            self.raw_artifacts
                .push((name.to_string(), content.to_vec()));
        }
        if self.live {
            let path = std::env::temp_dir().join(name);
            match std::fs::write(&path, content) {
                Ok(()) => self.note(&format!("artifact {name} written to {}", path.display())),
                Err(e) => self.note(&format!("(could not write artifact {name}: {e})")),
            }
        }
    }

    /// The shared tail of every `--trace`-capable harness: pin the
    /// telemetry JSONL as the `trace.jsonl` artifact and print the ops
    /// report. A live run then writes the JSONL into the `--trace` file
    /// (a failed write fails the run); a captured run keeps it, moved
    /// rather than copied, among its raw artifacts.
    pub fn finish_trace(&mut self, tele: &Telemetry) -> RunResult {
        let jsonl = tele.export_jsonl();
        let pin = self
            .recorder
            .record_artifact("trace.jsonl", jsonl.as_bytes());
        let (lines, sha16) = (pin.lines, pin.sha256[..16].to_string());
        crate::outln!(self);
        crate::out!(self, "{}", tele.ops_report());
        crate::outln!(
            self,
            "trace artifact trace.jsonl recorded ({lines} lines, sha256 {sha16})"
        );
        if !self.live {
            self.raw_artifacts
                .push(("trace.jsonl".to_string(), jsonl.into_bytes()));
        } else if let (Some(mut file), Ok(Some(path))) = (self.trace_file.take(), &self.trace_flag)
        {
            if let Err(e) = file
                .set_len(0)
                .and_then(|()| file.write_all(jsonl.as_bytes()))
            {
                return fail(format!("cannot write trace to {}: {e}", path.display()));
            }
            self.note(&format!("trace written to {}", path.display()));
        }
        Ok(())
    }

    /// A live-only informational line (real filesystem paths and other
    /// host-dependent chatter). Never captured, never hashed.
    pub fn note(&self, message: &str) {
        if self.live {
            write_stdout(format!("{message}\n").as_bytes());
        }
    }

    /// Everything printed so far (the bytes `stdout`'s pin covers).
    pub fn captured_bytes(&self) -> &[u8] {
        &self.captured
    }

    #[doc(hidden)]
    pub fn write_fmt_out(&mut self, args: fmt::Arguments<'_>) {
        let s = fmt::format(args);
        self.captured.extend_from_slice(s.as_bytes());
        if self.live {
            write_stdout(s.as_bytes());
        }
    }

    /// Finish the run into its manifest.
    pub fn finish(self) -> Manifest {
        self.recorder.finish(&self.captured)
    }

    /// Finish a captured run into its manifest plus the raw bytes of
    /// everything it emitted (stdout first), for line-level diffing.
    pub fn finish_with_raw(self) -> (Manifest, Vec<(String, Vec<u8>)>) {
        let mut raw = vec![("stdout".to_string(), self.captured.clone())];
        raw.extend(self.raw_artifacts);
        (self.recorder.finish(&self.captured), raw)
    }
}

/// Write live output to the real stdout. A closed stdout (the reader of
/// `exp table1_csp | head -1` has gone away) ends the run with status 1
/// instead of a panic: nobody reads the rest, and a run cut short has not
/// passed.
fn write_stdout(bytes: &[u8]) {
    if let Err(e) = std::io::stdout().lock().write_all(bytes) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("cannot write to stdout: {e}");
        }
        std::process::exit(1);
    }
}

/// Print a line through a [`HarnessCtx`] (the harness replacement for
/// `println!`).
#[macro_export]
macro_rules! outln {
    ($ctx:expr) => { $ctx.write_fmt_out(format_args!("\n")) };
    ($ctx:expr, $($arg:tt)*) => {{
        $ctx.write_fmt_out(format_args!($($arg)*));
        $ctx.write_fmt_out(format_args!("\n"));
    }};
}

/// Print through a [`HarnessCtx`] without a trailing newline.
#[macro_export]
macro_rules! out {
    ($ctx:expr, $($arg:tt)*) => { $ctx.write_fmt_out(format_args!($($arg)*)) };
}

/// One registered harness: name, quick configuration, entry point.
pub struct HarnessSpec {
    pub name: &'static str,
    pub title: &'static str,
    /// The arguments the checked-in `data/manifests/<name>.json` records
    /// (each harness's CI-quick configuration).
    pub quick_args: &'static [&'static str],
    pub run: fn(&mut HarnessCtx) -> RunResult,
}

/// Every harness: what `exp <name>` runs and `exp_replay` replays.
pub static REGISTRY: &[HarnessSpec] = &[
    HarnessSpec {
        name: "table1_csp",
        title: "commercial CSP vs science CSP, measured",
        quick_args: &[],
        run: table1_csp::run,
    },
    HarnessSpec {
        name: "table2_resources",
        title: "summary of resources operated by the OCC",
        quick_args: &[],
        run: table2_resources::run,
    },
    HarnessSpec {
        name: "table3_udr",
        title: "UDR vs rsync transfer grid, Chicago ↔ LVOC",
        quick_args: &["--jobs=2", "--trace=trace.jsonl"],
        run: table3_udr::run,
    },
    HarnessSpec {
        name: "figure1_tukey",
        title: "Tukey console + middleware end to end",
        quick_args: &["--trace=trace.jsonl"],
        run: figure1_tukey::run,
    },
    HarnessSpec {
        name: "figure2_matsu",
        title: "EO-1 flood detection on the Matsu cloud",
        quick_args: &[],
        run: figure2_matsu::run,
    },
    HarnessSpec {
        name: "figure3_topology",
        title: "OSDC clusters, WAN paths, Tukey connectivity",
        quick_args: &[],
        run: figure3_topology::run,
    },
    HarnessSpec {
        name: "exp_provisioning",
        title: "rack provisioning: manual vs automated",
        quick_args: &[],
        run: exp_provisioning::run,
    },
    HarnessSpec {
        name: "exp_cost_crossover",
        title: "OSDC rack vs AWS cost crossover",
        quick_args: &[],
        run: exp_cost_crossover::run,
    },
    HarnessSpec {
        name: "exp_billing_behavior",
        title: "billing as a behavioral control",
        quick_args: &[],
        run: exp_billing_behavior::run,
    },
    HarnessSpec {
        name: "exp_gluster_mirroring",
        title: "GlusterFS 3.1 mirroring bug vs 3.3",
        quick_args: &["--jobs=2"],
        run: exp_gluster_mirroring::run,
    },
    HarnessSpec {
        name: "exp_udt_ablation",
        title: "transport ablations behind Table 3",
        quick_args: &["--jobs=2"],
        run: exp_udt_ablation::run,
    },
    HarnessSpec {
        name: "exp_sustainability",
        title: "the sustainability model over eight years",
        quick_args: &[],
        run: exp_sustainability::run,
    },
    HarnessSpec {
        name: "exp_occ_y_fairshare",
        title: "OCC-Y fair-share scheduling",
        quick_args: &[],
        run: exp_occ_y_fairshare::run,
    },
    HarnessSpec {
        name: "exp_resilience",
        title: "chaos campaigns: storage era × retry policy",
        quick_args: &["--quick", "--jobs=2", "--trace=trace.jsonl"],
        run: exp_resilience::run,
    },
    HarnessSpec {
        name: "exp_audit",
        title: "differential audit sweep",
        quick_args: &["--quick"],
        run: exp_audit::run,
    },
    HarnessSpec {
        name: "exp_sharing",
        title: "capability sharing under churn and partitions",
        quick_args: &["--quick", "--jobs=2", "--trace=trace.jsonl"],
        run: exp_sharing::run,
    },
    HarnessSpec {
        name: "exp_providers",
        title: "provider mix × fault schedule failover",
        quick_args: &["--quick", "--jobs=2", "--trace=trace.jsonl"],
        run: exp_providers::run,
    },
    HarnessSpec {
        name: "exp_scale",
        title: "tenant scale grid: incremental vs sweep",
        quick_args: &["--quick", "--jobs=2"],
        run: exp_scale::run,
    },
];

pub fn find(name: &str) -> Option<&'static HarnessSpec> {
    REGISTRY.iter().find(|spec| spec.name == name)
}

/// Extract `--manifest <path>` / `--manifest=<path>` from an argument
/// list, returning the remaining args and the path, or the usage error
/// when the path is missing.
pub fn split_manifest_flag(args: &[String]) -> Result<(Vec<String>, Option<PathBuf>), String> {
    let mut rest = Vec::new();
    let mut path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--manifest" {
            let p = it.next().ok_or("--manifest requires a path argument")?;
            path = Some(PathBuf::from(p));
        } else if let Some(p) = a.strip_prefix("--manifest=") {
            path = Some(PathBuf::from(p));
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, path))
}

/// The outcome of one in-process captured run.
pub struct CapturedRun {
    pub manifest: Manifest,
    /// Raw bytes of everything emitted, stdout first, in emission order.
    pub raw: Vec<(String, Vec<u8>)>,
    pub outcome: RunResult,
}

/// Run a harness in-process with output captured, producing the manifest
/// its pins would record. A malformed shared flag fails the run before
/// the body starts; panics inside the harness (acceptance assertions)
/// are caught and surfaced as failures. The process-global
/// audit-violation registry is reset first so sequential replays stay
/// independent.
pub fn run_captured(
    spec: &HarnessSpec,
    args: Vec<String>,
    jobs_fallback: Option<usize>,
) -> CapturedRun {
    osdc_telemetry::audit::reset();
    let mut ctx = HarnessCtx::captured(spec.name, args, jobs_fallback);
    let outcome = match ctx.usage_error().map(str::to_string) {
        Some(problem) => Err(Failure(problem)),
        None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (spec.run)(&mut ctx)))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                Err(Failure(format!("harness panicked: {msg}")))
            }),
    };
    let (manifest, raw) = ctx.finish_with_raw();
    CapturedRun {
        manifest,
        raw,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for spec in REGISTRY {
            assert!(std::ptr::eq(find(spec.name).unwrap(), spec));
        }
        let mut names: Vec<_> = REGISTRY.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn manifest_flag_splits_out() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            split_manifest_flag(&args(&["--quick", "--manifest", "m.json"])),
            Ok((args(&["--quick"]), Some(PathBuf::from("m.json"))))
        );
        assert_eq!(
            split_manifest_flag(&args(&["--manifest=x.json", "--jobs=2"])),
            Ok((args(&["--jobs=2"]), Some(PathBuf::from("x.json"))))
        );
        assert_eq!(
            split_manifest_flag(&args(&["--quick"])),
            Ok((args(&["--quick"]), None))
        );
        assert_eq!(
            split_manifest_flag(&args(&["--quick", "--manifest"])),
            Err("--manifest requires a path argument".to_string()),
            "a trailing flag is an error, not an exit"
        );
    }

    #[test]
    fn captured_ctx_buffers_without_stdout() {
        let mut ctx = HarnessCtx::captured("x", vec![], None);
        outln!(ctx, "hello {}", 42);
        out!(ctx, "tail");
        assert_eq!(ctx.captured_bytes(), b"hello 42\ntail");
    }

    #[test]
    fn jobs_fallback_applies_only_without_flag() {
        let mut ctx = HarnessCtx::captured("x", vec!["--jobs=3".into()], Some(7));
        assert_eq!(ctx.jobs(), 3);
        let mut ctx = HarnessCtx::captured("x", vec![], Some(7));
        assert_eq!(ctx.jobs(), 7);
        let mut ctx = HarnessCtx::captured("x", vec![], None);
        assert_eq!(ctx.jobs(), 1);
    }
}
