//! Differential driver: randomized op sequences (including chaos fault
//! schedules) through `Volume` and `FlatStore` in lockstep.
//!
//! Shapes span replica-1 through replica-3, both Gluster eras (§7.1),
//! ample and starved capacity; faults cover brick crashes, server
//! outages and silent corruption, with restore-time self-heals whose
//! reports both sides must match.

use osdc_audit::{drive, StorageOp, StorageOracle};
use osdc_chaos::{FaultEvent, FaultKind, FaultPlan, Phase};
use osdc_storage::{FileData, GlusterVersion};
use proptest::prelude::*;

const SHAPES: [(usize, usize); 6] = [(1, 1), (2, 1), (2, 2), (4, 2), (6, 3), (8, 2)];

fn version(idx: usize) -> GlusterVersion {
    match idx {
        0 => GlusterVersion::V3_3,
        1 => GlusterVersion::V3_1 {
            replica_drop_prob: 0.0,
        },
        2 => GlusterVersion::V3_1 {
            replica_drop_prob: 0.3,
        },
        _ => GlusterVersion::V3_1 {
            replica_drop_prob: 1.0,
        },
    }
}

fn path(p: usize) -> String {
    format!("/corpus/f{}", p % 8)
}

fn fault(kind: FaultKind, target: String, magnitude: f64) -> FaultEvent {
    FaultEvent {
        at_secs: 0.0,
        kind,
        target,
        magnitude,
        duration_secs: 0.0,
    }
}

/// Generator-friendly op description; indices are folded into the
/// volume shape when the op sequence is materialized.
#[derive(Clone, Debug)]
enum Spec {
    Write {
        p: usize,
        size: u64,
        tag: u64,
        owner: usize,
    },
    Read {
        p: usize,
    },
    Delete {
        p: usize,
    },
    Heal,
    List,
    Usage,
    Crash {
        b: usize,
    },
    FixBrick {
        b: usize,
    },
    Outage {
        s: usize,
    },
    FixServer {
        s: usize,
    },
    Corrupt {
        p: usize,
        rank: usize,
    },
    Scrub {
        p: usize,
    },
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        5 => (0usize..8, 1u64..120, any::<u64>(), 0usize..3)
            .prop_map(|(p, size, tag, owner)| Spec::Write { p, size, tag, owner }),
        3 => (0usize..8).prop_map(|p| Spec::Read { p }),
        1 => (0usize..8).prop_map(|p| Spec::Delete { p }),
        1 => Just(Spec::Heal),
        1 => Just(Spec::List),
        1 => Just(Spec::Usage),
        1 => (0usize..8).prop_map(|b| Spec::Crash { b }),
        1 => (0usize..8).prop_map(|b| Spec::FixBrick { b }),
        1 => (0usize..4).prop_map(|s| Spec::Outage { s }),
        1 => (0usize..4).prop_map(|s| Spec::FixServer { s }),
        1 => (0usize..8, 0usize..4).prop_map(|(p, rank)| Spec::Corrupt { p, rank }),
        1 => (0usize..8).prop_map(|p| Spec::Scrub { p }),
    ]
}

fn materialize(spec: &Spec, bricks: usize, replicas: usize) -> StorageOp {
    let sets = bricks / replicas;
    match spec {
        Spec::Write {
            p,
            size,
            tag,
            owner,
        } => StorageOp::Write {
            path: path(*p),
            data: FileData::synthetic(*size, *tag),
            owner: format!("user{owner}"),
        },
        Spec::Read { p } => StorageOp::Read { path: path(*p) },
        Spec::Delete { p } => StorageOp::Delete { path: path(*p) },
        Spec::Heal => StorageOp::Heal,
        Spec::List => StorageOp::List,
        Spec::Usage => StorageOp::Usage,
        Spec::Crash { b } => StorageOp::Inject(fault(
            FaultKind::BrickCrash,
            format!("brick{}", b % bricks),
            0.0,
        )),
        Spec::FixBrick { b } => StorageOp::Restore(fault(
            FaultKind::BrickCrash,
            format!("brick{}", b % bricks),
            0.0,
        )),
        Spec::Outage { s } => StorageOp::Inject(fault(
            FaultKind::ServerOutage,
            format!("server{}", s % sets),
            0.0,
        )),
        Spec::FixServer { s } => StorageOp::Restore(fault(
            FaultKind::ServerOutage,
            format!("server{}", s % sets),
            0.0,
        )),
        Spec::Corrupt { p, rank } => StorageOp::Inject(fault(
            FaultKind::SilentCorruption,
            path(*p),
            // One rank past the set: both sides must refuse it alike.
            (rank % (replicas + 1)) as f64,
        )),
        Spec::Scrub { p } => StorageOp::Restore(fault(FaultKind::SilentCorruption, path(*p), 0.0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn volume_agrees_with_flat_store_under_chaos(
        shape_idx in 0usize..6,
        version_idx in 0usize..4,
        starved in any::<bool>(),
        seed in 0u64..1_000_000,
        specs in prop::collection::vec(spec_strategy(), 1..90),
    ) {
        let (bricks, replicas) = SHAPES[shape_idx];
        // Starved bricks make NoSpace paths and partial heals reachable.
        let capacity = if starved { 300 } else { 1 << 30 };
        let (mut vol, mut oracle) =
            StorageOracle::paired(version(version_idx), bricks, replicas, capacity, seed)
                .expect("valid shape");
        let ops: Vec<StorageOp> = specs
            .iter()
            .map(|s| materialize(s, bricks, replicas))
            .collect();
        let report = drive(&mut oracle, &mut vol, &ops);
        prop_assert!(report.is_clean(), "{}", report.summary());
        osdc_telemetry::audit::assert_clean("storage differential property");
    }
}

/// The standard chaos campaign's storage slice, replayed through the
/// oracle with a write/read workload between fault actions.
#[test]
fn osdc_campaign_storage_slice_agrees() {
    let plan = FaultPlan::osdc_campaign(2012, 240, 2.0);
    let storage_kinds = [
        FaultKind::BrickCrash,
        FaultKind::ServerOutage,
        FaultKind::SilentCorruption,
    ];
    let (mut vol, mut oracle) =
        StorageOracle::paired(GlusterVersion::V3_3, 4, 2, 1 << 30, 7).expect("valid shape");

    let mut ops = Vec::new();
    for p in 0..8 {
        ops.push(StorageOp::Write {
            path: path(p),
            data: FileData::synthetic(1 << 12, p as u64),
            owner: "heath".into(),
        });
    }
    for action in plan.timeline() {
        let ev = plan.events[action.event].clone();
        if !storage_kinds.contains(&ev.kind) {
            continue;
        }
        ops.push(match action.phase {
            Phase::Inject => StorageOp::Inject(ev),
            Phase::Restore => StorageOp::Restore(ev),
        });
        // Exercise the degraded volume between fault actions.
        for p in 0..8 {
            ops.push(StorageOp::Read { path: path(p) });
        }
        ops.push(StorageOp::Usage);
    }
    ops.push(StorageOp::Heal);
    ops.push(StorageOp::List);

    let report = drive(&mut oracle, &mut vol, &ops);
    assert!(report.is_clean(), "{}", report.summary());
    osdc_telemetry::audit::assert_clean("storage campaign differential");
}

/// RNG-lockstep regression: with every non-primary write dropping at
/// p=0.5, both sides must draw identically and agree on every loss.
#[test]
fn v31_silent_drops_stay_in_lockstep() {
    let (mut vol, mut oracle) = StorageOracle::paired(
        GlusterVersion::V3_1 {
            replica_drop_prob: 0.5,
        },
        4,
        2,
        1 << 30,
        2012,
    )
    .expect("valid shape");
    let mut ops = Vec::new();
    for i in 0..60u64 {
        ops.push(StorageOp::Write {
            path: path(i as usize),
            data: FileData::synthetic(100 + i, i),
            owner: "u".into(),
        });
    }
    // Kill the primaries: survivors are exactly the non-dropped mirrors.
    ops.push(StorageOp::Inject(fault(
        FaultKind::BrickCrash,
        "brick0".into(),
        0.0,
    )));
    ops.push(StorageOp::Inject(fault(
        FaultKind::BrickCrash,
        "brick2".into(),
        0.0,
    )));
    for p in 0..8 {
        ops.push(StorageOp::Read { path: path(p) });
    }
    ops.push(StorageOp::Heal); // v3.1: a no-op on both sides
    ops.push(StorageOp::Usage);
    let report = drive(&mut oracle, &mut vol, &ops);
    assert!(report.is_clean(), "{}", report.summary());
    assert!(vol.silent_drops > 0, "the defect should have fired");
    osdc_telemetry::audit::assert_clean("v3.1 lockstep differential");
}

/// Capacity starvation: NoSpace classification and partial-heal
/// outcomes must match on near-full bricks.
#[test]
fn starved_bricks_agree_on_no_space() {
    let (mut vol, mut oracle) =
        StorageOracle::paired(GlusterVersion::V3_3, 2, 2, 150, 5).expect("valid shape");
    let mut ops = Vec::new();
    for i in 0..12u64 {
        ops.push(StorageOp::Write {
            path: path(i as usize),
            data: FileData::synthetic(40, i),
            owner: "u".into(),
        });
        ops.push(StorageOp::Usage);
    }
    // Overwrites shrink and grow in place (delta capacity accounting).
    ops.push(StorageOp::Write {
        path: path(0),
        data: FileData::synthetic(10, 99),
        owner: "u".into(),
    });
    ops.push(StorageOp::Write {
        path: path(0),
        data: FileData::synthetic(120, 100),
        owner: "u".into(),
    });
    ops.push(StorageOp::Usage);
    let report = drive(&mut oracle, &mut vol, &ops);
    assert!(report.is_clean(), "{}", report.summary());
    osdc_telemetry::audit::assert_clean("starved-brick differential");
}
