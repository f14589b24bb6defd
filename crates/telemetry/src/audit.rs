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
//! process-global registry (named by its site string) and mirrored into
//! an `audit.violations` counter on any [`Telemetry`] handle installed
//! via [`install_telemetry`]. Violations do not panic at the check site —
//! a campaign runs to completion and then calls [`assert_clean`], so one
//! run surfaces every broken invariant instead of the first.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::Telemetry;

/// `true` iff this build carries live invariant checks (the `audit`
/// feature of `osdc-telemetry`). `const`, so the `check!` branch folds
/// away entirely in production builds.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "audit")
}

/// Total violations recorded since process start (or the last [`reset`]).
static TOTAL: AtomicU64 = AtomicU64::new(0);

struct Registry {
    /// site → (count, first detail message seen).
    by_site: BTreeMap<String, (u64, String)>,
    /// Optional mirror: every violation bumps `audit.violations` here.
    tele: Option<(Telemetry, crate::CounterId)>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock();
    let reg = guard.get_or_insert_with(|| Registry {
        by_site: BTreeMap::new(),
        tele: None,
    });
    f(reg)
}

/// Mirror future violations into `audit.violations` on this handle (in
/// addition to the global registry). Campaign harnesses install their
/// run's collector so invariant failures land in exported artifacts.
pub fn install_telemetry(tele: &Telemetry) {
    let id = tele.counter("audit.violations");
    with_registry(|reg| reg.tele = Some((tele.clone(), id)));
}

/// Record one violation. Called by the [`check!`] macro — use the macro,
/// not this, so disabled builds pay nothing.
pub fn record_violation(site: &str, detail: &str) {
    TOTAL.fetch_add(1, Ordering::Relaxed);
    with_registry(|reg| {
        let entry = reg
            .by_site
            .entry(site.to_string())
            .or_insert_with(|| (0, detail.to_string()));
        entry.0 += 1;
        if let Some((tele, id)) = &reg.tele {
            tele.incr(*id);
        }
    });
}

/// Violations recorded so far (monotone until [`reset`]).
pub fn violation_total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Snapshot of `(site, count, first detail)` rows, sorted by site.
pub fn violations() -> Vec<(String, u64, String)> {
    with_registry(|reg| {
        reg.by_site
            .iter()
            .map(|(site, (n, detail))| (site.clone(), *n, detail.clone()))
            .collect()
    })
}

/// Clear the registry and total; returns the total that was cleared.
/// Tests isolate themselves with this (checks are process-global).
pub fn reset() -> u64 {
    with_registry(|reg| reg.by_site.clear());
    TOTAL.swap(0, Ordering::Relaxed)
}

/// Panic (listing every violated site) if any violation was recorded.
/// No-op in builds without the `audit` feature.
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
    fn telemetry_mirror_counts() {
        if !enabled() {
            return;
        }
        let _serial = SERIAL.lock();
        reset();
        let tele = Telemetry::new();
        install_telemetry(&tele);
        check!(false, "audit.test.mirrored");
        check!(false, "audit.test.mirrored");
        assert_eq!(tele.counter_value("audit.violations"), 2);
        // Detach so later tests don't keep bumping this handle.
        with_registry(|reg| reg.tele = None);
        reset();
    }

    #[test]
    fn assert_clean_passes_when_clean() {
        let _serial = SERIAL.lock();
        reset();
        assert_clean("test context");
    }
}
