//! Differential driver for billing (§6.4): the live service against a
//! from-scratch re-bill of the event log, plus the two policy
//! invariants the paper's pricing rules imply — cadence independence
//! (where a delta lands between two polls must not change the bill) and
//! free-tier monotonicity (raising the allowance never raises a bill).

use osdc_audit::billing_oracle::replay;
use osdc_audit::{drive, BillingOp, BillingOracle};
use osdc_sim::{SimDuration, SimTime};
use osdc_tukey::billing::{Invoice, Rates};
use proptest::prelude::*;

fn at(mins: u64, secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(mins) + SimDuration::from_secs(secs)
}

/// `user`'s invoices in close order, read from the from-scratch re-bill
/// of `ops`: the batches the service has just been matched against.
fn rebilled(rates: &Rates, ops: &[BillingOp], user: &str) -> Vec<Invoice> {
    replay(rates, ops)
        .closes
        .into_iter()
        .flatten()
        .filter(|inv| inv.user == user)
        .collect()
}

fn user(u: usize) -> String {
    format!("user{}", u % 3)
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

fn op_strategy() -> impl Strategy<Value = BillingOp> {
    prop_oneof![
        6 => (0usize..3, 0u32..6, 0u64..600, 0u64..60)
            .prop_map(|(u, cores, mins, secs)| BillingOp::Cores {
                user: user(u),
                cores,
                at: at(mins, secs),
            }),
        3 => (0usize..3, 0u64..4_000_000_000_000u64, 0u64..10, 0u64..86_400)
            .prop_map(|(u, bytes, day, secs)| BillingOp::Stored {
                user: user(u),
                bytes,
                at: at(day * 24 * 60, secs),
            }),
        1 => (0u64..600, 0u64..60).prop_map(|(mins, secs)| BillingOp::Close {
            at: at(mins, secs),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn service_agrees_with_event_log_rebill(
        rate_idx in 0usize..3,
        mut ops in prop::collection::vec(op_strategy(), 0..120),
    ) {
        // Delivery order is arbitrary: duplicates and deltas earlier than
        // their user's billed-through point are part of the contract
        // being checked. The final close lands past every instant drawn.
        ops.push(BillingOp::Close { at: at(10 * 24 * 60, 0) });
        let (mut service, mut oracle) = BillingOracle::paired(rates(rate_idx));
        let report = drive(&mut oracle, &mut service, &ops);
        prop_assert!(report.is_clean(), "{}", report.summary());
        osdc_telemetry::audit::assert_clean("billing differential property");
    }

    #[test]
    fn billing_is_cadence_independent(
        spans in prop::collection::vec((0u64..5000, 0u32..9), 1..80),
        offset_a in 1u64..60,
        offset_b in 1u64..60,
    ) {
        // The same resizes, landing at second `offset_a` vs `offset_b` of
        // their minute, take effect at the same next poll and must price
        // identically.
        let mut spans = spans;
        spans.sort_by_key(|&(m, _)| m);
        let end = spans.last().map_or(0, |&(m, _)| m) + 60;
        let bill = |offset: u64| {
            let rates = Rates::default();
            let (mut service, mut oracle) = BillingOracle::paired(rates);
            let ops: Vec<BillingOp> = spans
                .iter()
                .map(|&(m, cores)| BillingOp::Cores {
                    user: "alice".into(),
                    cores,
                    at: at(m, offset),
                })
                .chain(std::iter::once(BillingOp::Close { at: at(end, 0) }))
                .collect();
            let report = drive(&mut oracle, &mut service, &ops);
            prop_assert!(report.is_clean(), "{}", report.summary());
            rebilled(&rates, &ops, "alice").last().map_or(0.0, |inv| inv.total_usd)
        };
        prop_assert_eq!(bill(offset_a), bill(offset_b));
    }

    #[test]
    fn free_tier_is_monotone(
        spans in prop::collection::vec((0u64..2000, 1u32..9), 1..60),
        tiers in prop::collection::vec(0.0f64..50.0, 2..5),
    ) {
        // A larger free allowance can only lower (never raise) the bill.
        let mut spans = spans;
        spans.sort_by_key(|&(m, _)| m);
        let mut tiers = tiers;
        tiers.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut last_total = f64::INFINITY;
        for &free in tiers.iter().rev() {
            let rates = Rates {
                per_core_hour: 0.05,
                per_tb_day: 0.0,
                free_core_hours: free,
                free_tb_days: 0.0,
            };
            let (mut service, mut oracle) = BillingOracle::paired(rates);
            let ops: Vec<BillingOp> = spans
                .iter()
                .map(|&(m, cores)| BillingOp::Cores {
                    user: "alice".into(),
                    cores,
                    at: at(m, 0),
                })
                .chain(std::iter::once(BillingOp::Close { at: at(2000, 0) }))
                .collect();
            let report = drive(&mut oracle, &mut service, &ops);
            prop_assert!(report.is_clean(), "{}", report.summary());
            let total = rebilled(&rates, &ops, "alice")
                .last()
                .map_or(0.0, |inv| inv.total_usd);
            // Iterating tiers from largest to smallest: totals must be
            // non-decreasing as the allowance shrinks.
            prop_assert!(
                total >= last_total || last_total == f64::INFINITY,
                "free tier {free} bills ${total}, but a larger tier billed ${last_total}"
            );
            last_total = total;
        }
        osdc_telemetry::audit::assert_clean("free-tier monotonicity property");
    }
}

/// Duplicate deliveries, late deltas across a close, a double storage
/// report in one day and a zero-usage user, pinned as a deterministic
/// sequence.
#[test]
fn duplicate_and_late_deltas_agree() {
    let (mut service, mut oracle) = BillingOracle::paired(rates(1));
    let tb = 1_000_000_000_000u64;
    let cores = |user: &str, cores: u32, at: SimTime| BillingOp::Cores {
        user: user.into(),
        cores,
        at,
    };
    let stored = |user: &str, bytes: u64, at: SimTime| BillingOp::Stored {
        user: user.into(),
        bytes,
        at,
    };
    let ops = vec![
        cores("alice", 4, at(100, 0)),
        // The same delta delivered twice: a no-op.
        cores("alice", 4, at(100, 0)),
        // Two storage reports in one day: one TB-day per day, not two.
        stored("bob", tb, at(0, 0)),
        stored("bob", tb, at(6 * 60, 0)),
        // Idle users never enter the cycle.
        cores("ghost", 0, at(100, 0)),
        BillingOp::Close { at: at(120, 0) },
        // A delta from before the close arrives after it: it takes effect
        // at minute 120, and minutes [100, 120) are not billed again.
        cores("alice", 8, at(110, 30)),
        cores("alice", 0, at(150, 0)),
        BillingOp::Close {
            at: at(2 * 24 * 60, 0),
        },
    ];
    let report = drive(&mut oracle, &mut service, &ops);
    assert!(report.is_clean(), "{}", report.summary());
    let alice = rebilled(&rates(1), &ops, "alice");
    assert_eq!(alice[0].core_hours * 60.0, 4.0 * 20.0);
    assert_eq!(alice[1].core_hours * 60.0, 8.0 * 30.0);
    let bob = rebilled(&rates(1), &ops, "bob");
    assert_eq!(bob.iter().map(|inv| inv.tb_days).sum::<f64>(), 2.0);
    assert!(rebilled(&rates(1), &ops, "ghost").is_empty());
    osdc_telemetry::audit::assert_clean("billing duplicate/late differential");
}
