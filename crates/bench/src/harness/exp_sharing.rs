//! Experiment S1 — capability sharing under churn and partitions.
//!
//! The paper's data scientists "share these with their collaborators"
//! across four data centers; this harness measures what that costs and
//! proves what it guarantees. A grid of federation runs crosses
//! grant/lend/revoke **churn profiles** with WAN **partition schedules**
//! (calm, one long cut, rolling site-by-site cuts, nested flaps on one
//! spoke) and reports, per cell:
//!
//! * **convergence latency** — how long a freshly minted record takes to
//!   reach all four registries (p50 / max over the cell's records), and
//! * the **revocation-safety scorecard** — revoked-or-expired
//!   capabilities observed granting anywhere, sampled during churn *and*
//!   after quiesce. The acceptance bar is zero, everywhere, always; any
//!   violation exits 1.
//!
//! Copy materializations that lose the race against a revocation or a
//! partition return the typed `ShareError` and are counted as failed
//! materializations on the scorecard instead of panicking the harness.
//!
//! Every cell runs on the deterministic parallel map with a sharded
//! telemetry registry, so stdout and the `--trace` JSONL artifact are
//! byte-identical for any `--jobs`.

use osdc_net::wan::OsdcSite;
use osdc_sharing::{Action, DcId, PartitionEvent, SharingConfig, SharingSim, TrustLevel};
use osdc_sim::{derive_seed, SimDuration, SimRng, SimTime};
use osdc_telemetry::{run_sharded, Telemetry};

use crate::harness::{fail, HarnessCtx, RunResult};
use crate::{outln, row};

const SEED: u64 = 2012;

const USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];
const PATHS: [&str; 4] = [
    "/projects/genomics",
    "/public/1000genomes",
    "/data/climate",
    "/archive/modencode",
];

/// A named partition schedule, built fresh per cell.
fn schedules() -> Vec<(&'static str, Vec<PartitionEvent>)> {
    let cut = |site, at_secs: f64, duration_secs: f64| PartitionEvent {
        at_secs,
        duration_secs,
        site,
    };
    vec![
        ("calm", vec![]),
        ("one-cut", vec![cut(OsdcSite::Lvoc, 120.0, 600.0)]),
        (
            "rolling",
            vec![
                cut(OsdcSite::ChicagoKenwood, 60.0, 240.0),
                cut(OsdcSite::ChicagoLakeshore, 360.0, 240.0),
                cut(OsdcSite::Lvoc, 660.0, 240.0),
                cut(OsdcSite::AmpathMiami, 960.0, 240.0),
            ],
        ),
        (
            "flappy",
            vec![
                cut(OsdcSite::AmpathMiami, 90.0, 400.0),
                // Nested window on the same spoke: heal only counts when
                // the outer window closes too.
                cut(OsdcSite::AmpathMiami, 150.0, 120.0),
                cut(OsdcSite::Lvoc, 300.0, 200.0),
            ],
        ),
    ]
}

struct CellResult {
    schedule: &'static str,
    churn: &'static str,
    seed: u64,
    grants: u64,
    revokes: u64,
    delivered: u64,
    buffered: u64,
    conv_p50: f64,
    conv_max: f64,
    copies: u64,
    copies_failed: u64,
    bytes_copied: u64,
    converged: bool,
    violations: u64,
}

/// One federation run: seeded churn against a partition schedule, then a
/// deterministic copy leg, then quiesce and scorecard.
fn run_cell(
    tele: &Telemetry,
    schedule_name: &'static str,
    schedule: &[PartitionEvent],
    churn_name: &'static str,
    ops: u32,
    seed: u64,
) -> CellResult {
    let mut sim = SharingSim::new(SharingConfig::new(seed));
    sim.set_telemetry(tele.clone());
    sim.apply_partitions(schedule);

    let mut rng = SimRng::new(derive_seed(seed, 0x5a1e));
    let mut minted = Vec::new();
    let mut violations = 0u64;
    for i in 0..ops {
        sim.run_for(SimDuration::from_secs(rng.range_inclusive(5, 60)));
        let dc = DcId(rng.below(4) as u8);
        match rng.below(10) {
            0..=4 => {
                let level = match rng.below(4) {
                    0 => TrustLevel::View,
                    1 => TrustLevel::LendUntil {
                        expires: sim.now() + SimDuration::from_secs(rng.range_inclusive(30, 600)),
                    },
                    2 => TrustLevel::Copy,
                    _ => TrustLevel::Transfer,
                };
                let user = USERS[rng.below(4) as usize];
                let path = PATHS[rng.below(4) as usize];
                minted.push(sim.grant(dc, user, path, level));
            }
            5..=7 if !minted.is_empty() => {
                let id = minted[rng.below(minted.len() as u64) as usize];
                sim.revoke(dc, id);
            }
            _ => {
                let user = USERS[rng.below(4) as usize];
                let path = PATHS[rng.below(4) as usize];
                sim.check(dc, user, path, Action::Read);
            }
        }
        // Safety is sampled *during* churn, partitions open or not.
        if i % 4 == 0 {
            violations += sim.safety_violations();
        }
    }

    // Run past the last partition window, then gossip to convergence.
    let horizon = schedule
        .iter()
        .map(|p| p.until())
        .max()
        .unwrap_or(SimTime::ZERO);
    sim.run_until_time(horizon + SimDuration::from_secs(1));
    let quiesced = sim.quiesce(64);

    // The byte-movement leg: a Copy-level capability minted at dc0,
    // gossiped everywhere, then materialized at dc2 over a UDR session.
    // A failure here is a counted scorecard event (the revocation-vs-heal
    // race returns the typed error), never a panic.
    sim.grant(DcId(0), "mover", "/projects/genomics", TrustLevel::Copy);
    let quiesced = sim.quiesce(16) && quiesced;
    let _ = sim.copy_to(DcId(2), "mover", "/projects/genomics", 2_000_000_000);

    violations += sim.safety_violations();
    let r = sim.report();
    CellResult {
        schedule: schedule_name,
        churn: churn_name,
        seed,
        grants: r.grants,
        revokes: r.revokes,
        delivered: r.messages_delivered,
        buffered: r.messages_buffered,
        conv_p50: r.convergence_p50_secs,
        conv_max: r.convergence_max_secs,
        copies: r.copies,
        copies_failed: r.copies_failed,
        bytes_copied: r.bytes_copied,
        converged: quiesced && r.converged,
        violations: violations + r.safety_violations,
    }
}

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    let quick = ctx.quick();
    let jobs = ctx.jobs();

    ctx.banner(
        "Experiment S1",
        "capability sharing: convergence latency and revocation safety under partitions",
    );
    ctx.seed_line(SEED);
    // The worker count never appears in the output: stdout and the
    // trace artifact are byte-identical for any --jobs.
    outln!(
        ctx,
        "mode: {}\n",
        if quick {
            "--quick (CI smoke)"
        } else {
            "full grid"
        }
    );

    let churns: &[(&'static str, u32)] = if quick {
        &[("light", 16)]
    } else {
        &[("light", 16), ("heavy", 48)]
    };
    let seeds_per_cell: u64 = if quick { 1 } else { 3 };

    // Build the flat grid: schedule × churn × seed.
    let mut cells: Vec<(&'static str, Vec<PartitionEvent>, &'static str, u32, u64)> = Vec::new();
    for (sched_name, sched) in schedules() {
        for &(churn_name, ops) in churns {
            for k in 0..seeds_per_cell {
                let seed = derive_seed(SEED, cells.len() as u64 ^ (k << 32));
                cells.push((sched_name, sched.clone(), churn_name, ops, seed));
            }
        }
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
            .map(|(sname, sched, cname, ops, seed)| {
                move |t: &Telemetry, _i: usize| run_cell(t, sname, &sched, cname, ops, seed)
            })
            .collect(),
    );

    let widths = [8usize, 6, 12, 7, 8, 10, 9, 10, 10, 6, 5];
    outln!(
        ctx,
        "{}",
        row(
            &[
                "schedule",
                "churn",
                "seed",
                "grants",
                "revokes",
                "delivered",
                "buffered",
                "conv_p50",
                "conv_max",
                "conv",
                "safe"
            ],
            &widths
        )
    );
    outln!(ctx, "{}", "-".repeat(104));
    let mut total_violations = 0u64;
    let mut all_converged = true;
    let (mut grants, mut revokes, mut copies, mut copies_failed, mut bytes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut worst_conv: f64 = 0.0;
    for r in &results {
        outln!(
            ctx,
            "{}",
            row(
                &[
                    r.schedule,
                    r.churn,
                    &format!("{:x}", r.seed & 0xffff_ffff),
                    &r.grants.to_string(),
                    &r.revokes.to_string(),
                    &r.delivered.to_string(),
                    &r.buffered.to_string(),
                    &format!("{:.1}s", r.conv_p50),
                    &format!("{:.1}s", r.conv_max),
                    if r.converged { "yes" } else { "NO" },
                    if r.violations == 0 { "yes" } else { "NO" },
                ],
                &widths
            )
        );
        total_violations += r.violations;
        all_converged &= r.converged;
        grants += r.grants;
        revokes += r.revokes;
        copies += r.copies;
        copies_failed += r.copies_failed;
        bytes += r.bytes_copied;
        worst_conv = worst_conv.max(r.conv_max);
    }

    outln!(ctx, "\nrevocation-safety scorecard");
    outln!(
        ctx,
        "  cells: {}   grants: {grants}   revokes: {revokes}   copy sessions: {copies} ({:.1} GB), failed materializations: {copies_failed}",
        results.len(),
        bytes as f64 / 1e9,
    );
    outln!(
        ctx,
        "  worst convergence latency: {worst_conv:.1}s (gossip round 30s, 4 sites)"
    );
    outln!(
        ctx,
        "  revoked/expired capabilities observed granting: {total_violations} (bar: 0)"
    );

    if ctx.trace_enabled() {
        ctx.finish_trace(&tele)?;
    }

    // A build with --features audit also gates on the runtime invariant
    // registry (registry merges, causal delivery, lend expiry checks).
    osdc_telemetry::audit::assert_clean("exp_sharing");

    if total_violations > 0 || !all_converged {
        return fail(format!(
            "{total_violations} safety violation(s), all converged: {all_converged}"
        ));
    }
    outln!(
        ctx,
        "\nevery cell converged after heal and no dead capability ever granted"
    );
    Ok(())
}
