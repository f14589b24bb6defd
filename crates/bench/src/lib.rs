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

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

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
/// flag for emitting a telemetry JSONL artifact): `Ok(None)` when absent,
/// `Ok(Some(path))` when given, and the usage error when the path is
/// missing.
pub fn trace_path_from(args: &[String]) -> Result<Option<std::path::PathBuf>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--trace" {
            let p = it.next().ok_or("--trace requires a path argument")?;
            return Ok(Some(std::path::PathBuf::from(p)));
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Ok(Some(std::path::PathBuf::from(p)));
        }
    }
    Ok(None)
}

/// Parse the harnesses' shared `--jobs <N>` flag out of an argument list:
/// `Ok(None)` when absent, `Ok(Some(N))` (clamped to at least 1) when
/// given, and the usage error when the value is missing or malformed.
///
/// `N` is the worker count for the deterministic parallel map
/// ([`osdc_sim::run_indexed`]); artifacts are byte-identical for any
/// value. Absent the flag, a harness runs one worker (a replay, the
/// count its manifest recorded).
pub fn jobs_from(args: &[String]) -> Result<Option<usize>, String> {
    let parse = |s: &str| {
        s.parse::<usize>()
            .map(|n| Some(n.max(1)))
            .map_err(|_| format!("--jobs requires a positive integer, got {s:?}"))
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            return match it.next() {
                Some(n) => parse(n),
                None => Err("--jobs requires a worker count argument".to_string()),
            };
        }
        if let Some(n) = a.strip_prefix("--jobs=") {
            return parse(n);
        }
    }
    Ok(None)
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
        assert_eq!(jobs_from(&args(&["--jobs", "4"])), Ok(Some(4)));
        assert_eq!(jobs_from(&args(&["--jobs=8"])), Ok(Some(8)));
        assert_eq!(
            jobs_from(&args(&["--jobs", "0"])),
            Ok(Some(1)),
            "clamped, not defaulted"
        );
        assert_eq!(jobs_from(&args(&["--quick"])), Ok(None), "absent");
        assert_eq!(
            jobs_from(&args(&["--jobs", "x"])),
            Err("--jobs requires a positive integer, got \"x\"".to_string())
        );
        assert_eq!(
            jobs_from(&args(&["--quick", "--jobs"])),
            Err("--jobs requires a worker count argument".to_string())
        );
    }

    #[test]
    fn trace_flag_parses() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            trace_path_from(&args(&["--trace", "/tmp/t.jsonl"])),
            Ok(Some(std::path::PathBuf::from("/tmp/t.jsonl")))
        );
        assert_eq!(
            trace_path_from(&args(&["--trace=/tmp/t.jsonl"])),
            Ok(Some(std::path::PathBuf::from("/tmp/t.jsonl")))
        );
        assert_eq!(trace_path_from(&args(&["--other"])), Ok(None));
        assert_eq!(trace_path_from(&[]), Ok(None));
        assert_eq!(
            trace_path_from(&args(&["--quick", "--trace"])),
            Err("--trace requires a path argument".to_string()),
            "a trailing flag is an error, not an exit"
        );
    }
}
