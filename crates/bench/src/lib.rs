//! The paper's experiment harnesses and the helpers they share.
//!
//! Every [`harness`] module regenerates one table, figure or claim of the
//! paper and prints it in the same rows/columns the paper uses, plus the
//! paper's published values for side-by-side comparison; `exp <name>`
//! runs one, and [`manifest`] pins what it printed so `exp_replay` can
//! verify it. The helpers here keep that output and the shared flags
//! consistent.
//!
//! [`scale`] holds the shared tenant-scale workload driven by both
//! `exp_scale` (correctness + determinism) and the repository's
//! `benchmark/` crate (wall clock + peak memory).

pub mod harness;
pub mod manifest;
pub mod scale;

/// Render one row of a fixed-width table.
pub fn row(cells: &[&str], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Parse `--trace <path>` out of an argument list (the harnesses' shared
/// flag for emitting a telemetry JSONL artifact).
pub fn trace_path_from(args: &[String]) -> Option<std::path::PathBuf> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--trace" {
            return Some(std::path::PathBuf::from(it.next().unwrap_or_else(|| {
                eprintln!("--trace requires a path argument");
                std::process::exit(2);
            })));
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(std::path::PathBuf::from(p));
        }
    }
    None
}

/// Parse the harnesses' shared `--jobs <N>` flag out of an argument list.
///
/// `N` is the worker count for the deterministic scenario runner
/// (`osdc_sim::Runner`); artifacts are byte-identical for any value.
/// Absent the flag, harnesses default to the host's parallelism
/// ([`osdc_sim::available_jobs`]).
pub fn jobs_from(args: &[String], default: usize) -> usize {
    let parse = |s: &str| -> usize {
        s.parse().unwrap_or_else(|_| {
            eprintln!("--jobs requires a positive integer, got {s:?}");
            std::process::exit(2);
        })
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            return parse(it.next().unwrap_or_else(|| {
                eprintln!("--jobs requires a worker count argument");
                std::process::exit(2);
            }))
            .max(1);
        }
        if let Some(n) = a.strip_prefix("--jobs=") {
            return parse(n).max(1);
        }
    }
    default.max(1)
}

/// Parse the harnesses' shared fluid-solver flag out of an argument list:
/// `--tick-compat` selects the epoch solver pinned to byte-identical
/// pre-epoch output, and its absence the default epoch mode.
pub fn solver_mode_from(args: &[String]) -> osdc_net::SolverMode {
    if args.iter().any(|a| a == "--tick-compat") {
        osdc_net::SolverMode::TICK_COMPAT
    } else {
        osdc_net::SolverMode::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_alignment() {
        let r = row(&["a", "bb"], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn jobs_flag_parses() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(jobs_from(&args(&["--jobs", "4"]), 1), 4);
        assert_eq!(jobs_from(&args(&["--jobs=8"]), 1), 8);
        assert_eq!(
            jobs_from(&args(&["--jobs", "0"]), 7),
            1,
            "clamped, not defaulted"
        );
        assert_eq!(jobs_from(&args(&["--quick"]), 3), 3, "default when absent");
        assert_eq!(jobs_from(&[], 0), 1, "default itself is clamped");
    }

    #[test]
    fn trace_flag_parses() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            trace_path_from(&args(&["--trace", "/tmp/t.jsonl"])),
            Some(std::path::PathBuf::from("/tmp/t.jsonl"))
        );
        assert_eq!(
            trace_path_from(&args(&["--trace=/tmp/t.jsonl"])),
            Some(std::path::PathBuf::from("/tmp/t.jsonl"))
        );
        assert_eq!(trace_path_from(&args(&["--other"])), None);
        assert_eq!(trace_path_from(&[]), None);
    }
}
