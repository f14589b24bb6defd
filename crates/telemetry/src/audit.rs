//! Runtime invariant checking — the "always-on assertions" half of the
//! audit subsystem (the differential-oracle half lives in `osdc-audit`).
//!
//! Subsystems state structural invariants inline with [`check!`]:
//!
//! ```ignore
//! use osdc_telemetry::audit;
//! audit::check!(
//!     used <= capacity,
//!     "storage.brick_used_le_capacity",
//!     "brick {} used {} > capacity {}", idx, used, capacity
//! );
//! ```
//!
//! Unless the `audit` cargo feature of *this* crate is enabled the macro
//! expands to a branch on [`enabled()`], a `const fn` returning `false`:
//! the condition and message are never evaluated and the optimizer strips
//! the whole thing — instrumented hot paths cost nothing in production
//! builds. With `--features audit` every violated check is recorded in a
//! process-global registry (named by its site string), which
//! [`violations`] and [`assert_clean`] read. Violations do not panic at
//! the check site — a campaign runs to completion and then calls
//! [`assert_clean`], so one run surfaces every broken invariant instead
//! of the first.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// `true` iff this build carries live invariant checks (the `audit`
/// feature of `osdc-telemetry`). `const`, so the `check!` branch folds
/// away entirely in production builds.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "audit")
}

/// Total violations recorded since process start (or the last [`reset`]).
static TOTAL: AtomicU64 = AtomicU64::new(0);

/// site → (count, first detail message seen).
static REGISTRY: Mutex<BTreeMap<String, (u64, String)>> = Mutex::new(BTreeMap::new());

/// Record one violation. Called by the [`check!`] macro — use the macro,
/// not this, so disabled builds pay nothing.
pub fn record_violation(site: &str, detail: &str) {
    TOTAL.fetch_add(1, Ordering::Relaxed);
    REGISTRY
        .lock()
        .entry(site.to_string())
        .or_insert_with(|| (0, detail.to_string()))
        .0 += 1;
}

/// Violations recorded so far (monotone until [`reset`]).
pub fn violation_total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Snapshot of `(site, count, first detail)` rows, sorted by site.
pub fn violations() -> Vec<(String, u64, String)> {
    REGISTRY
        .lock()
        .iter()
        .map(|(site, (n, detail))| (site.clone(), *n, detail.clone()))
        .collect()
}

/// Clear the registry and total; returns the total that was cleared.
/// Tests isolate themselves with this (checks are process-global).
pub fn reset() -> u64 {
    REGISTRY.lock().clear();
    TOTAL.swap(0, Ordering::Relaxed)
}

/// Panic (listing every violated site) if any violation was recorded.
/// No-op in builds without the `audit` feature.
///
/// Panicking is this function's contract: harnesses and tests call it
/// last, and a panic is how an audit build fails them.
#[allow(clippy::panic)]
pub fn assert_clean(context: &str) {
    if !enabled() {
        return;
    }
    let total = violation_total();
    if total == 0 {
        return;
    }
    let mut lines = String::new();
    for (site, n, detail) in violations() {
        lines.push_str(&format!("  {site} ×{n} — first: {detail}\n"));
    }
    panic!("{context}: {total} audit invariant violation(s)\n{lines}");
}

/// Assert a structural invariant. See the module docs for semantics; the
/// first argument is the condition, the second the stable site name the
/// violation is registered under, the rest an optional detail format.
#[macro_export]
macro_rules! check {
    ($cond:expr, $site:expr $(,)?) => {
        $crate::check!($cond, $site, "invariant violated")
    };
    ($cond:expr, $site:expr, $($detail:tt)+) => {
        if $crate::audit::enabled() && !($cond) {
            $crate::audit::record_violation($site, &format!($($detail)+));
        }
    };
}

pub use crate::check;

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global and the test harness runs tests
    /// on parallel threads: every test that records or resets holds
    /// this lock, so one test's forced violation never lands in
    /// another's assertion.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn enabled_matches_feature() {
        assert_eq!(enabled(), cfg!(feature = "audit"));
    }

    #[test]
    fn check_records_only_when_enabled() {
        let _serial = SERIAL.lock();
        reset();
        check!(1 + 1 == 2, "audit.test.true");
        check!(false, "audit.test.false", "forced failure {}", 42);
        if enabled() {
            assert_eq!(violation_total(), 1);
            let rows = violations();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].0, "audit.test.false");
            assert_eq!(rows[0].1, 1);
            assert!(rows[0].2.contains("42"));
        } else {
            assert_eq!(violation_total(), 0);
            assert!(violations().is_empty());
        }
        reset();
        assert_eq!(violation_total(), 0);
    }

    #[test]
    fn assert_clean_passes_when_clean() {
        let _serial = SERIAL.lock();
        reset();
        assert_clean("test context");
    }
}
