//! Experiment A1 — the differential audit sweep.
//!
//! §7.1's lesson ("a bug in mirroring that caused some data loss" that
//! nothing cross-checked) applied as a harness: every subsystem with a
//! reference model in `osdc-audit` is driven through seeded randomized
//! operation sequences — including chaos fault schedules — in lockstep
//! with its model, and every observable outcome is compared. The sweep
//! passes only if zero disagreements surface across all oracles; when
//! the workspace is built with the `audit` feature the run also proves
//! every `audit::check!` invariant stayed clean.
//!
//! `--quick` is the CI smoke: the same sweep at reduced case counts.

use osdc_audit::{churn_ops, drive, AuditReport, SharingOracle};
use osdc_audit::{router_ops, FailoverOracle};
use osdc_audit::{BillingOp, BillingOracle, DeltaCase, DeltaOracle, StorageOp, StorageOracle};
use osdc_chaos::{FaultEvent, FaultKind};
use osdc_sim::{SimDuration, SimRng, SimTime};
use osdc_storage::{FileData, GlusterVersion};
use osdc_tukey::billing::Rates;

use crate::harness::{fail, HarnessCtx, RunResult};
use crate::{outln, row};

const SEED: u64 = 2012;

struct SweepStats {
    cases: usize,
    ops: usize,
    disagreements: usize,
    details: Vec<String>,
}

impl SweepStats {
    fn new() -> Self {
        SweepStats {
            cases: 0,
            ops: 0,
            disagreements: 0,
            details: Vec::new(),
        }
    }

    fn absorb(&mut self, report: &AuditReport) {
        self.cases += 1;
        self.ops += report.steps;
        self.disagreements += report.disagreements.len();
        if !report.is_clean() {
            self.details.push(report.summary());
        }
    }
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

/// Seeded storage op sequences over every shape × era combination.
fn storage_sweep(cases: usize, ops_per_case: usize) -> SweepStats {
    let shapes = [(1usize, 1usize), (2, 1), (2, 2), (4, 2), (6, 3), (8, 2)];
    let versions = [
        GlusterVersion::V3_3,
        GlusterVersion::V3_1 {
            replica_drop_prob: 0.3,
        },
        GlusterVersion::V3_1 {
            replica_drop_prob: 1.0,
        },
    ];
    let mut stats = SweepStats::new();
    for case in 0..cases {
        let mut rng = SimRng::new(SEED ^ case as u64);
        let (bricks, replicas) = shapes[case % shapes.len()];
        let version = versions[(case / shapes.len()) % versions.len()];
        let capacity = if case % 4 == 3 { 300 } else { 1 << 30 };
        let sets = bricks / replicas;
        let path = |p: u64| format!("/corpus/f{}", p % 8);
        let (mut vol, mut oracle) =
            StorageOracle::paired(version, bricks, replicas, capacity, SEED + case as u64)
                .expect("valid shape");
        let ops: Vec<StorageOp> = (0..ops_per_case)
            .map(|_| match rng.below(18) {
                0..=5 => StorageOp::Write {
                    path: path(rng.below(8)),
                    data: FileData::synthetic(rng.range_inclusive(1, 120), rng.next_u64()),
                    owner: format!("user{}", rng.below(3)),
                },
                6..=8 => StorageOp::Read {
                    path: path(rng.below(8)),
                },
                9 => StorageOp::Delete {
                    path: path(rng.below(8)),
                },
                10 => StorageOp::Heal,
                11 => StorageOp::List,
                12 => StorageOp::Usage,
                13 => StorageOp::Inject(fault(
                    FaultKind::BrickCrash,
                    format!("brick{}", rng.below(bricks as u64)),
                    0.0,
                )),
                14 => StorageOp::Restore(fault(
                    FaultKind::BrickCrash,
                    format!("brick{}", rng.below(bricks as u64)),
                    0.0,
                )),
                15 => StorageOp::Inject(fault(
                    FaultKind::ServerOutage,
                    format!("server{}", rng.below(sets as u64)),
                    0.0,
                )),
                16 => StorageOp::Restore(fault(
                    FaultKind::ServerOutage,
                    format!("server{}", rng.below(sets as u64)),
                    0.0,
                )),
                _ => StorageOp::Inject(fault(
                    FaultKind::SilentCorruption,
                    path(rng.below(8)),
                    rng.below(replicas as u64) as f64,
                )),
            })
            .collect();
        stats.absorb(&drive(&mut oracle, &mut vol, &ops));
    }
    stats
}

/// Random-edit delta cases: basis plus a handful of point edits.
fn delta_sweep(cases: usize) -> SweepStats {
    let mut stats = SweepStats::new();
    let mut oracle = DeltaOracle;
    let mut rng = SimRng::new(SEED ^ 0xde17a);
    let batch: Vec<DeltaCase> = (0..cases)
        .map(|_| {
            let len = rng.below(1500) as usize;
            let basis: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut target = basis.clone();
            for _ in 0..rng.below(8) {
                let pos = rng.below(target.len() as u64 + 1) as usize;
                match rng.below(3) {
                    0 => target.insert(pos, rng.next_u64() as u8),
                    1 => {
                        if pos < target.len() {
                            target.remove(pos);
                        }
                    }
                    _ => {
                        if pos < target.len() {
                            target[pos] ^= (rng.next_u64() as u8) | 1;
                        }
                    }
                }
            }
            DeltaCase {
                basis,
                target,
                block_size: rng.range_inclusive(1, 80) as usize,
            }
        })
        .collect();
    stats.absorb(&drive(&mut oracle, &mut (), &batch));
    stats.cases = cases; // one case per (basis, target) pair, driven as a batch
    stats
}

/// Seeded billing logs: core and storage deltas and month closes,
/// delivered out of time order, with duplicates and late deltas.
fn billing_sweep(cases: usize, ops_per_case: usize) -> SweepStats {
    let mut stats = SweepStats::new();
    for case in 0..cases {
        let mut rng = SimRng::new(SEED ^ 0xb111 ^ case as u64);
        let rates = match case % 3 {
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
        };
        let (mut service, mut oracle) = BillingOracle::paired(rates);
        let at = |mins: u64, secs: u64| {
            SimTime::ZERO + SimDuration::from_mins(mins) + SimDuration::from_secs(secs)
        };
        let mut ops: Vec<BillingOp> = (0..ops_per_case)
            .map(|_| match rng.below(10) {
                0..=5 => BillingOp::Cores {
                    user: format!("user{}", rng.below(3)),
                    cores: rng.below(6) as u32,
                    at: at(rng.below(600), rng.below(60)),
                },
                6..=8 => BillingOp::Stored {
                    user: format!("user{}", rng.below(3)),
                    bytes: rng.below(4_000_000_000_000),
                    at: at(rng.below(10) * 24 * 60, rng.below(86_400)),
                },
                _ => BillingOp::Close {
                    at: at(rng.below(600), rng.below(60)),
                },
            })
            .collect();
        // The last close lands after every drawn instant.
        ops.push(BillingOp::Close {
            at: at(10 * 24 * 60, 0),
        });
        stats.absorb(&drive(&mut oracle, &mut service, &ops));
    }
    stats
}

/// Seeded sharing churn — grants, lends, revocations and chaos
/// partitions — against the flat who-can-do-what model.
fn sharing_sweep(cases: usize, blocks: usize, ops_per_block: usize) -> SweepStats {
    let mut stats = SweepStats::new();
    for case in 0..cases {
        let seed = SEED ^ 0x51a2 ^ (case as u64) << 8;
        let mut sim = osdc_sharing::SharingSim::new(osdc_sharing::SharingConfig::new(seed));
        let mut oracle = SharingOracle::new();
        let ops = churn_ops(seed, blocks, ops_per_block);
        stats.absorb(&drive(&mut oracle, &mut sim, &ops));
    }
    stats
}

/// Seeded failover-router churn — launches, terminates and API-fault
/// windows over rotating provider mixes — against the flat safety
/// model (no unexplained instances, no double-assignment, exact
/// per-minute accrual, drained orphan books on healed providers).
fn provider_sweep(cases: usize, minutes: usize) -> SweepStats {
    let mixes: [&[&str]; 4] = [
        &["adler", "sullivan"],
        &["spotmart", "lagoon", "pagely"],
        &["adler", "sullivan", "spotmart", "lagoon", "pagely"],
        &["lagoon", "sullivan"],
    ];
    let mut stats = SweepStats::new();
    for case in 0..cases {
        let seed = SEED ^ 0xf417 ^ (case as u64) << 8;
        let mix = mixes[case % mixes.len()];
        let mut router = osdc_providers::FailoverRouter::new(osdc_providers::osdc_fleet(
            mix,
            osdc_telemetry::Telemetry::disabled(),
            seed,
        ));
        let mut oracle = FailoverOracle::new();
        let ops = router_ops(seed, mix, minutes);
        stats.absorb(&drive(&mut oracle, &mut router, &ops));
    }
    stats
}

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    let quick = ctx.quick();
    ctx.banner(
        "Experiment A1 (§7.1)",
        "differential audit: every subsystem vs its reference model, op by op",
    );
    ctx.seed_line(SEED);
    outln!(
        ctx,
        "mode: {}\n",
        if quick {
            "--quick (CI smoke)"
        } else {
            "full sweep"
        }
    );

    let (sc, so, dc, bc, bo, hc, hb, ho, pc, pm) = if quick {
        (12, 60, 80, 8, 80, 3, 2, 8, 4, 12)
    } else {
        (54, 150, 400, 48, 200, 12, 4, 12, 16, 45)
    };
    let sweeps = [
        ("storage.flat-store", storage_sweep(sc, so)),
        ("transfer.direct-copy", delta_sweep(dc)),
        ("tukey.re-bill", billing_sweep(bc, bo)),
        ("sharing.flat-acl", sharing_sweep(hc, hb, ho)),
        ("providers.flat-router", provider_sweep(pc, pm)),
    ];

    let widths = [26usize, 10, 12, 15];
    outln!(
        ctx,
        "{}",
        row(&["oracle", "cases", "ops", "disagreements"], &widths)
    );
    outln!(ctx, "{}", "-".repeat(67));
    let mut total_disagreements = 0;
    for (name, stats) in &sweeps {
        outln!(
            ctx,
            "{}",
            row(
                &[
                    name,
                    &stats.cases.to_string(),
                    &stats.ops.to_string(),
                    &stats.disagreements.to_string(),
                ],
                &widths
            )
        );
        total_disagreements += stats.disagreements;
    }

    for (_, stats) in &sweeps {
        for detail in &stats.details {
            eprintln!("\n{detail}");
        }
    }

    // A run built with --features audit also gates on the runtime
    // invariant registry; without the feature this is a no-op.
    osdc_telemetry::audit::assert_clean("exp_audit");

    if total_disagreements > 0 {
        return fail(format!(
            "{total_disagreements} model/system disagreement(s)"
        ));
    }
    outln!(
        ctx,
        "\nall oracles agree{} — the §7.1 class of silent divergence is absent at these seeds",
        if osdc_telemetry::audit::enabled() {
            " and all runtime invariants held"
        } else {
            ""
        }
    );
    Ok(())
}
