//! Differential proptest for event-driven billing: random instance
//! start/stop/resize and PUT/DELETE delta schedules with arbitrary
//! month-close instants, billed three ways —
//!
//! 1. the paper's literal cadence (per-minute polls + daily sweeps), as
//!    `osdc-audit`'s reference [`replay`] expands the event log,
//! 2. the same log through the [`BillingOracle`], which forwards every
//!    op to a live service and re-bills the log after each one,
//! 3. the service's O(deltas) id API (`record_cores_id` /
//!    `record_stored_id` / `close_month_at`).
//!
//! Every invoice batch must be **byte-identical** across all three:
//! `Invoice` comparison is exact `f64` equality, so even a one-ulp
//! rounding divergence in the fold fails the property.

use osdc_audit::billing_oracle::replay;
use osdc_audit::{drive, BillingOp, BillingOracle};
use osdc_sim::{SimTime, TenantId};
use osdc_tukey::billing::{BillingService, Invoice, Rates};
use proptest::prelude::*;

const NANOS_PER_MIN: u64 = 60_000_000_000;

#[derive(Clone, Debug)]
enum Delta {
    /// Instance start/stop/resize: the user's held cores change.
    Cores(u32),
    /// Object PUT/DELETE settling: the user's stored bytes change.
    Bytes(u64),
}

/// A randomized tenant-activity schedule: deltas and month closes at
/// arbitrary instants (not just poll boundaries), over `horizon_min`
/// simulated minutes.
#[derive(Clone, Debug)]
struct Schedule {
    users: Vec<String>,
    /// (nanos, user index, delta), sorted by time (stable).
    deltas: Vec<(u64, usize, Delta)>,
    /// Close instants in nanos, sorted.
    closes: Vec<u64>,
    horizon_min: u64,
}

impl Schedule {
    /// The close instants in order, ending with one just past the
    /// horizon so the poll at the final minute is billed too.
    fn cuts(&self) -> impl Iterator<Item = u64> + '_ {
        let end = self.horizon_min * NANOS_PER_MIN;
        self.closes.iter().copied().chain([end + 1])
    }
}

/// The schedule as an event log in delivery order: each close follows
/// every delta at or before its instant.
fn event_ops(s: &Schedule) -> Vec<BillingOp> {
    let mut ops = Vec::new();
    let mut deltas = s.deltas.iter().peekable();
    for ct in s.cuts() {
        while let Some((at, u, d)) = deltas.next_if(|d| d.0 <= ct) {
            let (user, at) = (s.users[*u].clone(), SimTime(*at));
            ops.push(match *d {
                Delta::Cores(cores) => BillingOp::Cores { user, cores, at },
                Delta::Bytes(bytes) => BillingOp::Stored { user, bytes, at },
            });
        }
        ops.push(BillingOp::Close { at: SimTime(ct) });
    }
    ops
}

/// The reference invoices: the log expanded into per-minute polls and
/// daily sweeps.
fn reference_invoices(s: &Schedule, rates: Rates) -> Vec<Vec<Invoice>> {
    replay(&rates, event_ops(s)).closes
}

/// The same schedule through the service's id API: O(deltas + closes)
/// calls instead of O(tenant-minutes).
fn incremental_invoices(s: &Schedule, rates: Rates) -> Vec<Vec<Invoice>> {
    let mut svc = BillingService::new(rates);
    let ids: Vec<TenantId> = s.users.iter().map(|u| svc.user_id(u)).collect();
    let mut deltas = s.deltas.iter().peekable();
    let mut batches = Vec::new();
    for ct in s.cuts() {
        while let Some((at, u, d)) = deltas.next_if(|d| d.0 <= ct) {
            match *d {
                Delta::Cores(c) => svc.record_cores_id(ids[*u], c, SimTime(*at)),
                Delta::Bytes(b) => svc.record_stored_id(ids[*u], b, SimTime(*at)),
            }
        }
        batches.push(svc.close_month_at(SimTime(ct)));
    }
    batches
}

/// Delta/close instants mix exact poll boundaries (the coincidence
/// cases where ordering matters) with arbitrary mid-minute nanos.
fn instant_strategy(horizon_min: u64) -> impl Strategy<Value = u64> {
    (
        0..=horizon_min,
        prop_oneof![
            2 => Just(0u64),
            3 => 0u64..60_000_000_000,
        ],
    )
        .prop_map(|(m, off)| (m * NANOS_PER_MIN).saturating_add(off))
}

fn schedule_strategy(
    horizon_min: u64,
    max_users: usize,
    max_deltas: usize,
    max_closes: usize,
) -> impl Strategy<Value = Schedule> {
    let delta = prop_oneof![
        3 => (0u32..12).prop_map(Delta::Cores),
        2 => (0u64..4_000_000_000_000u64).prop_map(Delta::Bytes),
    ];
    (
        1..=max_users,
        prop::collection::vec((instant_strategy(horizon_min), delta), 0..max_deltas + 1),
        prop::collection::vec(instant_strategy(horizon_min), 0..max_closes + 1),
        0usize..1000,
    )
        .prop_map(move |(n_users, raw_deltas, mut closes, salt)| {
            let users: Vec<String> = (0..n_users).map(|u| format!("user{u}")).collect();
            let mut deltas: Vec<(u64, usize, Delta)> = raw_deltas
                .into_iter()
                .enumerate()
                .map(|(i, (t, d))| (t.min(horizon_min * NANOS_PER_MIN), (i + salt) % n_users, d))
                .collect();
            deltas.sort_by_key(|&(t, _, _)| t); // stable: same-instant deltas keep order
            closes.sort_unstable();
            Schedule {
                users,
                deltas,
                closes,
                horizon_min,
            }
        })
}

fn rates(idx: usize) -> Rates {
    match idx {
        0 => Rates::default(),
        1 => Rates {
            per_core_hour: 0.10,
            per_tb_day: 0.05,
            free_core_hours: 0.0,
            free_tb_days: 0.0,
        },
        _ => Rates {
            per_core_hour: 0.05,
            per_tb_day: 0.08,
            free_core_hours: 5.0,
            free_tb_days: 0.5,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multi-day schedules: the id API reproduces the poll/sweep
    /// invoices byte for byte, including non-integer TB-day rounding.
    #[test]
    fn incremental_matches_sweep_baseline(
        s in schedule_strategy(2 * 24 * 60, 4, 40, 5),
        rate_idx in 0usize..3,
    ) {
        let r = rates(rate_idx);
        let sweep = reference_invoices(&s, r);
        let inc = incremental_invoices(&s, r);
        prop_assert_eq!(sweep, inc, "id API diverged from poll cadence");
        osdc_telemetry::audit::assert_clean("billing incremental differential");
    }

    /// Shorter schedules with the full oracle in the loop: the log is
    /// re-billed from scratch after every op, and the id API must match
    /// the oracle-shadowed service.
    #[test]
    fn incremental_matches_oracle_rebill(
        s in schedule_strategy(150, 3, 12, 3),
        rate_idx in 0usize..3,
    ) {
        let r = rates(rate_idx);
        let ops = event_ops(&s);
        let (mut service, mut oracle) = BillingOracle::paired(r);
        let report = drive(&mut oracle, &mut service, &ops);
        prop_assert!(report.is_clean(), "{}", report.summary());
        let sweep = reference_invoices(&s, r);
        let inc = incremental_invoices(&s, r);
        prop_assert_eq!(sweep, inc, "id API diverged from oracle-checked baseline");
        osdc_telemetry::audit::assert_clean("billing incremental oracle differential");
    }
}

/// The ordering corner cases, pinned deterministically: delta exactly on
/// a poll instant, close exactly on a poll instant, delta and close at
/// the same instant, and a mid-month tenant birth.
#[test]
fn boundary_coincidences_agree() {
    let s = Schedule {
        users: vec!["alice".into(), "bob".into()],
        deltas: vec![
            (0, 0, Delta::Cores(8)),
            (5 * NANOS_PER_MIN, 0, Delta::Cores(2)), // exactly on a poll
            (7 * NANOS_PER_MIN + 13, 1, Delta::Cores(5)), // mid-minute birth
            (60 * NANOS_PER_MIN, 0, Delta::Cores(3)), // same instant as a close
            (90 * NANOS_PER_MIN, 1, Delta::Bytes(1_234_567_890_123)),
        ],
        closes: vec![60 * NANOS_PER_MIN, 100 * NANOS_PER_MIN + 1],
        horizon_min: 24 * 60 + 30,
    };
    for idx in 0..3 {
        let r = rates(idx);
        assert_eq!(reference_invoices(&s, r), incremental_invoices(&s, r));
    }
    osdc_telemetry::audit::assert_clean("billing boundary coincidences");
}
