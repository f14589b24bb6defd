//! Experiment P1 — cross-provider failover under API fault schedules.
//!
//! §3 of the paper describes the OSDC as a federation of heterogeneous
//! clouds behind one console; this harness measures what the pluggable
//! provider runtime makes of that claim when provider APIs misbehave. A
//! grid crosses **provider mixes** (the two classic dialects; the three
//! deliberately weird providers — spot preemption, eventual consistency,
//! paginated listings; all five) with **fault schedules** (calm, a
//! rolling outage wave, a timeout storm breeding lost responses, flaky
//! injected errors) and drives seeded launch/terminate churn through the
//! failover router, one simulated minute per tick.
//!
//! Per cell the scorecard reports placements, reroutes and failover
//! latency, translation-fidelity checks, orphan bookkeeping and the
//! double-launch near-misses reconcile cleaned up, plus accrued dollars.
//! Every op is simultaneously replayed against the flat
//! `providers.flat-router` audit oracle; the acceptance bar is **zero
//! audit disagreements and zero fidelity failures** across the grid —
//! any violation exits 1.
//!
//! Every cell runs on the deterministic parallel map with a sharded
//! telemetry registry, so stdout and the `--trace` JSONL artifact are
//! byte-identical for any `--jobs`.

use osdc_audit::{drive, FailoverOracle, RouterOp};
use osdc_chaos::{FaultEvent, FaultKind};
use osdc_providers::{osdc_fleet, FailoverRouter};
use osdc_sim::{derive_seed, SimRng};
use osdc_telemetry::{run_sharded, Telemetry};

use crate::harness::{fail, HarnessCtx, RunResult};
use crate::{outln, row};

const SEED: u64 = 2012;

const USERS: [&str; 3] = ["alice", "bob", "carol"];
const FLAVORS: [&str; 4] = ["small", "medium", "large", "xlarge"];

fn mixes() -> Vec<(&'static str, &'static [&'static str])> {
    vec![
        ("classic", &["adler", "sullivan"] as &[&str]),
        ("weird", &["spotmart", "lagoon", "pagely"]),
        (
            "all",
            &["adler", "sullivan", "spotmart", "lagoon", "pagely"],
        ),
    ]
}

/// One scheduled fault window, in whole minutes of the cell clock.
#[derive(Clone)]
struct Window {
    start_min: usize,
    end_min: usize,
    kind: FaultKind,
    target: &'static str,
    magnitude: f64,
}

/// Named fault schedules, parameterized over the cell's provider mix so
/// every target actually exists.
fn schedules(mix: &[&'static str]) -> Vec<(&'static str, Vec<Window>)> {
    let window = |start_min, end_min, kind, target, magnitude| Window {
        start_min,
        end_min,
        kind,
        target,
        magnitude,
    };
    // A rolling outage: each provider in turn goes fully dark.
    let wave = mix
        .iter()
        .enumerate()
        .map(|(i, p)| window(2 + 3 * i, 2 + 3 * i + 2, FaultKind::ApiOutage, *p, 0.0))
        .collect();
    // A timeout storm on the two cheapest-registered providers: calls
    // hang, and half the lost responses executed anyway (orphan food).
    let storm = mix
        .iter()
        .take(2)
        .map(|p| window(3, 8, FaultKind::ApiTimeout, *p, 0.8))
        .collect();
    // Flaky: every provider throws clean errors in staggered windows.
    let flaky = mix
        .iter()
        .enumerate()
        .map(|(i, p)| window(2 + 2 * i, 2 + 2 * i + 2, FaultKind::ApiError, *p, 0.5))
        .collect();
    vec![
        ("calm", Vec::new()),
        ("outage-wave", wave),
        ("timeout-storm", storm),
        ("flaky", flaky),
    ]
}

fn fault_event(w: &Window) -> FaultEvent {
    FaultEvent {
        at_secs: w.start_min as f64 * 60.0,
        kind: w.kind,
        target: w.target.to_string(),
        magnitude: w.magnitude,
        duration_secs: ((w.end_min - w.start_min) as f64) * 60.0,
    }
}

/// The cell's op stream: scheduled fault windows interleaved with seeded
/// launch/terminate churn, one `AdvanceMinute` heartbeat per minute,
/// closed by a heal-everything quiesce so the books must drain.
fn cell_ops(seed: u64, windows: &[Window], minutes: usize) -> Vec<RouterOp> {
    let mut rng = SimRng::new(derive_seed(seed, 0x9047));
    let mut ops = Vec::new();
    for minute in 0..minutes {
        for w in windows.iter().filter(|w| w.start_min == minute) {
            ops.push(RouterOp::Inject(fault_event(w)));
        }
        for w in windows.iter().filter(|w| w.end_min == minute) {
            ops.push(RouterOp::Restore(fault_event(w)));
        }
        for _ in 0..rng.range_inclusive(1, 3) {
            match rng.below(10) {
                0..=6 => ops.push(RouterOp::Launch {
                    user: USERS[rng.below(3) as usize].to_string(),
                    token: format!("vm{}", rng.below(10)),
                    flavor: FLAVORS[rng.below(4) as usize],
                    image: "ubuntu-base",
                }),
                7..=8 => ops.push(RouterOp::Terminate {
                    user: USERS[rng.below(3) as usize].to_string(),
                    token: format!("vm{}", rng.below(10)),
                }),
                _ => {}
            }
        }
        ops.push(RouterOp::AdvanceMinute);
    }
    // Quiesce: close any window still open past the horizon, then give
    // reconcile enough heartbeats to drain the orphan book.
    for w in windows.iter().filter(|w| w.end_min >= minutes) {
        ops.push(RouterOp::Restore(fault_event(w)));
    }
    for _ in 0..4 {
        ops.push(RouterOp::AdvanceMinute);
    }
    ops
}

struct CellResult {
    mix: &'static str,
    schedule: &'static str,
    seed: u64,
    placed: u64,
    failed: u64,
    reroutes: u64,
    failover_ms_mean: f64,
    fidelity_checks: u64,
    fidelity_failures: u64,
    orphans_recorded: u64,
    orphans_cleaned: u64,
    double_prevented: u64,
    preempt_relaunches: u64,
    usd: f64,
    disagreements: usize,
    detail: Vec<String>,
}

fn run_cell(
    tele: &Telemetry,
    mix_name: &'static str,
    mix: &'static [&'static str],
    schedule_name: &'static str,
    windows: &[Window],
    minutes: usize,
    seed: u64,
) -> CellResult {
    let mut router = FailoverRouter::new(osdc_fleet(mix, tele.clone(), seed));
    let mut oracle = FailoverOracle::new();
    let ops = cell_ops(seed, windows, minutes);
    let report = drive(&mut oracle, &mut router, &ops);
    let card = &router.scorecard;
    CellResult {
        mix: mix_name,
        schedule: schedule_name,
        seed,
        placed: card.launches_placed,
        failed: card.launches_failed,
        reroutes: card.reroutes,
        failover_ms_mean: if card.failover_latency_ms.count() > 0 {
            card.failover_latency_ms.mean()
        } else {
            0.0
        },
        fidelity_checks: card.fidelity_checks,
        fidelity_failures: card.fidelity_failures,
        orphans_recorded: card.orphans_recorded,
        orphans_cleaned: card.orphans_cleaned,
        double_prevented: card.double_launches_prevented,
        preempt_relaunches: card.preemption_relaunches,
        usd: router.registry.ledger().total_usd(),
        disagreements: report.disagreements.len(),
        detail: if report.is_clean() {
            Vec::new()
        } else {
            vec![report.summary()]
        },
    }
}

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    let quick = ctx.quick();
    let jobs = ctx.jobs();

    ctx.banner(
        "Experiment P1 (§3)",
        "provider mix × fault schedule: failover, fidelity, orphan hygiene, audit",
    );
    ctx.seed_line(SEED);
    outln!(
        ctx,
        "mode: {}\n",
        if quick {
            "--quick (CI smoke)"
        } else {
            "full grid"
        }
    );

    let (minutes, seeds_per_cell) = if quick { (10, 1u64) } else { (30, 3u64) };

    // Flat grid: mix × schedule × seed.
    struct Cell {
        mix_name: &'static str,
        mix: &'static [&'static str],
        schedule: &'static str,
        windows: Vec<Window>,
        seed: u64,
    }
    let mut cells: Vec<Cell> = Vec::new();
    for (mix_name, mix) in mixes() {
        for (schedule, windows) in schedules(mix) {
            for k in 0..seeds_per_cell {
                let seed = derive_seed(SEED, cells.len() as u64 ^ (k << 32));
                cells.push(Cell {
                    mix_name,
                    mix,
                    schedule,
                    windows: windows.clone(),
                    seed,
                });
            }
        }
    }
    // The manifest pins the exact fault windows driving every cell.
    for cell in &cells {
        ctx.record_fault_plan(&cell.windows.iter().map(fault_event).collect::<Vec<_>>());
    }

    let tele = if ctx.trace_enabled() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let results = run_sharded(
        jobs,
        &tele,
        cells
            .into_iter()
            .map(|c| {
                move |t: &Telemetry, _i: usize| {
                    run_cell(
                        t, c.mix_name, c.mix, c.schedule, &c.windows, minutes, c.seed,
                    )
                }
            })
            .collect(),
    );

    let widths = [8usize, 13, 8, 7, 6, 8, 8, 7, 7, 8, 8, 8, 9, 6];
    outln!(
        ctx,
        "{}",
        row(
            &[
                "mix", "schedule", "seed", "placed", "failed", "reroutes", "fo_ms", "fidel",
                "f_bad", "orph", "cleaned", "dbl_fix", "usd", "audit",
            ],
            &widths
        )
    );
    outln!(ctx, "{}", "-".repeat(126));
    let mut total_disagreements = 0usize;
    let mut total_fidelity_failures = 0u64;
    let (mut placed, mut reroutes, mut orphans, mut cleaned, mut prevented, mut preempts) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for r in &results {
        outln!(
            ctx,
            "{}",
            row(
                &[
                    r.mix,
                    r.schedule,
                    &format!("{:x}", r.seed & 0xffff_ffff),
                    &r.placed.to_string(),
                    &r.failed.to_string(),
                    &r.reroutes.to_string(),
                    &format!("{:.1}", r.failover_ms_mean),
                    &r.fidelity_checks.to_string(),
                    &r.fidelity_failures.to_string(),
                    &r.orphans_recorded.to_string(),
                    &r.orphans_cleaned.to_string(),
                    &r.double_prevented.to_string(),
                    &format!("{:.4}", r.usd),
                    if r.disagreements == 0 { "yes" } else { "NO" },
                ],
                &widths
            )
        );
        total_disagreements += r.disagreements;
        total_fidelity_failures += r.fidelity_failures;
        placed += r.placed;
        reroutes += r.reroutes;
        orphans += r.orphans_recorded;
        cleaned += r.orphans_cleaned;
        prevented += r.double_prevented;
        preempts += r.preempt_relaunches;
    }

    outln!(
        ctx,
        "\ntotals: {placed} placed, {reroutes} reroutes, {preempts} preemption relaunches, \
         {orphans} orphans booked / {cleaned} cleaned, {prevented} double-launches prevented"
    );

    for r in &results {
        for d in &r.detail {
            eprintln!("\n{d}");
        }
    }

    if ctx.trace_enabled() {
        ctx.finish_trace(&tele)?;
    }

    osdc_telemetry::audit::assert_clean("exp_providers");

    if total_disagreements > 0 || total_fidelity_failures > 0 {
        return fail(format!(
            "{total_disagreements} audit disagreement(s), \
             {total_fidelity_failures} fidelity failure(s)"
        ));
    }
    outln!(
        ctx,
        "\nall cells clean: every live instance explained, every minute billed once, \
         every dialect round-trip exact"
    );
    Ok(())
}
