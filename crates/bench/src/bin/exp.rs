//! Run one of the paper's experiment harnesses by name.
//!
//! Every table, figure and claim this repository reproduces is a module
//! under `osdc_bench::harness`, listed in `harness::REGISTRY`. This binary
//! runs one of them live: stdout goes to the terminal, artifacts land on
//! disk, and `--manifest <path>` writes the manifest `exp_replay` verifies.
//!
//! Usage:
//!
//! ```text
//! exp <harness> [flags...]                     run the named harness
//! exp <harness> [flags...] --manifest <path>   and record its manifest
//! ```
//!
//! The flags after the name are the harness's own (`--quick`, `--jobs N`,
//! `--trace <path>`). With no name, or a name that is not registered,
//! `exp` lists every registered harness with its title.
//!
//! Run: `cargo run --release -p osdc-bench --bin exp -- table3_udr --jobs 2`
//!
//! Exit status: 0 on success, 1 when the harness fails its acceptance bar
//! or stdout closes before the run ends, 2 on a usage error.

use std::io::Write as _;
use std::process::ExitCode;

use osdc_bench::harness::{self, Failure, HarnessCtx};

/// Print `problem` and the registry on stderr; exit status 2.
fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\nusage: exp <harness> [flags...] [--manifest <path>]\n\nharnesses:");
    let width = harness::REGISTRY
        .iter()
        .map(|spec| spec.name.len())
        .max()
        .unwrap_or(0);
    for spec in harness::REGISTRY {
        eprintln!("  {:<width$}  {}", spec.name, spec.title);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        return usage("exp: no harness named");
    };
    let Some(spec) = harness::find(name) else {
        return usage(&format!("exp: {name:?} is not a registered harness"));
    };
    let (args, manifest_path) = match harness::split_manifest_flag(rest) {
        Ok(split) => split,
        Err(problem) => {
            eprintln!("{problem}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = HarnessCtx::live(spec.name, args);
    if let Some(problem) = ctx.usage_error() {
        eprintln!("{problem}");
        return ExitCode::from(2);
    }
    let outcome = (spec.run)(&mut ctx);
    let manifest = ctx.finish();
    if let Err(Failure(message)) = outcome {
        eprintln!("\nFAIL: {message}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = manifest_path {
        if let Err(e) = std::fs::write(&path, manifest.to_json()) {
            eprintln!("cannot write manifest to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        // The manifest is on disk; a reader that has gone away by now
        // misses only this line.
        let _ = writeln!(std::io::stdout(), "manifest written to {}", path.display());
    }
    ExitCode::SUCCESS
}
