//! Property-based resilience invariants:
//!
//! * **Self-heal converges** — whatever mix of brick crashes, partitions
//!   and silent corruption hits a v3.3 volume, one heal pass reaches a
//!   fixpoint: a second pass finds nothing left to repair, and every
//!   file with at least one clean surviving replica is intact.
//! * **Fault plans round-trip** — arbitrary plans survive the JSON
//!   encode/decode cycle intact, and their timelines stay sorted.
//! * **The plan loader never panics** — `FaultPlan::from_json` answers
//!   `Ok` or `Err` on arbitrary bytes and on byte-edited copies of a
//!   serialized campaign plan, and every plan it accepts replays its
//!   link faults on the WAN and its storage faults on the campaign's
//!   volume without panicking.

use osdc_chaos::{FaultEvent, FaultKind, FaultPlan, InjectError, Injector, Phase};
use osdc_net::{osdc_wan, FluidNet};
use osdc_storage::{BrickId, FileData, GlusterVersion, Volume};
use proptest::prelude::*;

const KINDS: [FaultKind; 13] = [
    FaultKind::ApiOutage,
    FaultKind::LinkDown,
    FaultKind::LinkFlap,
    FaultKind::LossSpike,
    FaultKind::RttInflate,
    FaultKind::BrickCrash,
    FaultKind::ServerOutage,
    FaultKind::SilentCorruption,
    FaultKind::HostFailure,
    FaultKind::InstanceKill,
    FaultKind::ApiTimeout,
    FaultKind::ApiError,
    FaultKind::ChefFailure,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Heal is idempotent and loses nothing recoverable: after arbitrary
    /// damage, `heal(); heal()` repairs zero on the second pass, and no
    /// file with a clean surviving replica audits as lost or corrupt.
    #[test]
    fn self_heal_converges(
        seed in any::<u64>(),
        crashes in proptest::collection::vec(0usize..8, 0..4),
        corruptions in proptest::collection::vec((0u64..40, 0usize..2), 0..6),
    ) {
        let mut vol = Volume::new("v", GlusterVersion::V3_3, 8, 2, 1 << 30, seed);
        let paths: Vec<String> = (0..40)
            .map(|i| {
                let p = format!("/d/f{i}");
                vol.write(&p, FileData::synthetic(1 << 16, i), "u").expect("write");
                p
            })
            .collect();
        // Damage: crash some bricks (then replace the hardware), rot some
        // replicas.
        for &b in &crashes {
            vol.fail_brick(BrickId(b));
        }
        for &(file, rank) in &corruptions {
            vol.corrupt_replica(&format!("/d/f{file}"), rank);
        }
        for &b in &crashes {
            vol.replace_brick(BrickId(b));
        }
        let first = vol.heal();
        let second = vol.heal();
        prop_assert_eq!(second.repaired, 0, "second heal repairs nothing");
        prop_assert_eq!(second.reconciled, 0);
        // `lost` is a report of standing damage, not a delta: it must
        // have stabilized, not grown.
        prop_assert_eq!(second.lost, first.lost);
        // When the damage never compounded — no replica set lost both
        // bricks, and corruption never met a crash or a partner-rank
        // corruption — every file still had a clean source and the heal
        // must have recovered everything.
        let any_double_crash =
            (0..4).any(|s| crashes.contains(&(2 * s)) && crashes.contains(&(2 * s + 1)));
        let any_double_rot = corruptions
            .iter()
            .any(|&(f, r)| corruptions.iter().any(|&(f2, r2)| f2 == f && r2 != r));
        if crashes.is_empty() && !any_double_rot {
            prop_assert_eq!(first.lost, 0, "all rot was repairable");
            prop_assert!(vol.audit_lost(&paths).is_empty());
            prop_assert!(vol.audit_corrupt(&paths).is_empty());
        } else if corruptions.is_empty() && !any_double_crash {
            prop_assert_eq!(first.lost, 0, "a replica survived every crash");
            prop_assert!(vol.audit_lost(&paths).is_empty());
            prop_assert!(vol.audit_corrupt(&paths).is_empty());
        }
    }

    /// Plans survive JSON round-trips field-for-field, and timelines are
    /// monotonically sorted however events are ordered.
    #[test]
    fn plans_round_trip_and_timelines_sort(
        seed in any::<u64>(),
        raw in proptest::collection::vec(
            (0usize..12, 0.0f64..10_000.0, 0.0f64..600.0, 0.0f64..1.0),
            0..12,
        ),
    ) {
        let mut plan = FaultPlan::new("prop", seed);
        for &(k, at, dur, unit) in &raw {
            // Magnitudes in [0, 4), but within what the loader accepts: a
            // loss spike is a probability, an RTT factor is positive.
            let magnitude = match KINDS[k] {
                FaultKind::LossSpike => unit,
                FaultKind::RttInflate => 0.01 + 3.99 * unit,
                _ => 4.0 * unit,
            };
            plan.push(FaultEvent {
                at_secs: at,
                kind: KINDS[k],
                target: format!("t{k}"),
                magnitude,
                duration_secs: dur,
            });
        }
        let back = FaultPlan::from_json(&plan.to_json()).expect("round trip");
        prop_assert_eq!(&back, &plan);
        let timeline = plan.timeline();
        prop_assert!(timeline.windows(2).all(|w| w[0].at <= w[1].at));
        // Every non-flap event contributes exactly one inject.
        let injects = timeline
            .iter()
            .filter(|a| a.phase == osdc_chaos::Phase::Inject)
            .count();
        let expected: usize = plan
            .events
            .iter()
            .map(|ev| {
                if ev.kind == FaultKind::LinkFlap {
                    (ev.magnitude.max(1.0)) as usize
                } else {
                    1
                }
            })
            .sum();
        prop_assert_eq!(injects, expected);
    }
}

/// Replay every step of `plan`'s timeline that `injector` handles. A
/// target that names nothing there (no link, brick, server or replica)
/// is an `Err`, never a panic.
fn replay_faults(injector: &mut dyn Injector, plan: &FaultPlan) {
    for step in plan.timeline() {
        let ev = &plan.events[step.event];
        if !injector.handles(ev.kind) {
            continue;
        }
        let applied = match step.phase {
            Phase::Inject => injector.inject(ev, step.at),
            Phase::Restore => injector.restore(ev, step.at),
        };
        if let Err(e) = applied {
            assert!(matches!(e, InjectError::UnknownTarget(_)), "{e}");
        }
    }
}

/// The chaos campaign's volume: 8 bricks, replica-2, holding its corpus
/// `/corpus/f0` to `/corpus/f319`.
fn campaign_volume(seed: u64) -> Volume {
    let mut vol = Volume::new("adler", GlusterVersion::V3_3, 8, 2, 1 << 34, seed);
    for i in 0..320 {
        vol.write(
            &format!("/corpus/f{i}"),
            FileData::synthetic(1 << 20, i),
            "lab",
        )
        .expect("corpus fits");
    }
    vol
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

    /// `FaultPlan::from_json` answers `Ok` or `Err` and never panics or
    /// hangs, on arbitrary bytes and on a serialized campaign plan under
    /// random byte edits, in the style of
    /// `tukey_properties.rs::cloud_mapping_loader_never_panics`. Whatever
    /// it accepts serializes and parses back to itself, and its link and
    /// storage faults inject and restore on the WAN and the campaign's
    /// volume without panicking.
    #[test]
    fn fault_plan_loader_never_panics(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        seed in any::<u64>(),
        edits in prop::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..6),
    ) {
        let plan = FaultPlan::osdc_campaign(seed, 24 * 60, 1.0).to_json();
        let mutated = mutate(&plan, &edits);
        for input in [String::from_utf8_lossy(&noise).into_owned(), mutated] {
            if let Ok(plan) = FaultPlan::from_json(&input) {
                replay_faults(&mut FluidNet::new(osdc_wan(1.2e-7).topology, plan.seed), &plan);
                replay_faults(&mut campaign_volume(plan.seed), &plan);
                prop_assert_eq!(FaultPlan::from_json(&plan.to_json()).ok(), Some(plan));
            }
        }
    }
}
