//! Experiment S2 — the million-tenant scale pass, end to end.
//!
//! §2 and §9 of the paper size the OSDC by community, not by machine: a
//! community cloud wins when adding the *next thousand researchers*
//! costs roughly nothing. This harness drives the per-tenant slab state
//! and the event-driven sweeps through a grid of tenant counts —
//! 10³, 10⁴ and 10⁵ — against a fixed 10³-host fleet spread over 4 data
//! centers, with sustained storage ingest, Tukey API compute churn and
//! a monthly close, plus a Nagios fleet ticking every 15 simulated seconds.
//!
//! Correctness legs per cell:
//!
//! * **sweep comparison** (10³ and 10⁴ cells): the identical delta
//!   schedule billed at the paper's literal cadence — per-minute polls
//!   and daily sweeps for *every* tenant, by `osdc-audit`'s reference
//!   expansion — must produce invoice batches byte-identical
//!   (`f64`-exact) to the O(deltas) id API. The 10⁵ cell skips the
//!   O(tenant-minutes) replay and is pinned by digest instead.
//! * **oracle leg** (all cells): a sampled tenants' share of the
//!   schedule, closes included, is driven through the [`BillingOracle`]
//!   from-scratch re-bill; zero disagreements required.
//! * **digests**: the invoice stream and the Nagios notification stream
//!   are SHA-256'd; stdout carries counts and digests only (no wall
//!   times), so output is byte-identical for any `--jobs` and any run
//!   can be pinned against a prior one.

use std::collections::BTreeMap;

use osdc_audit::{drive, BillingOracle};
use osdc_crypto::sha256::{to_hex, Sha256};
use osdc_monitor::check::CheckStatus;
use osdc_monitor::nagios::NagiosMaster;
use osdc_monitor::nrpe::HostAgent;
use osdc_sim::{derive_seed, SimRng, SimTime};
use osdc_telemetry::{run_sharded, Telemetry};
use osdc_tukey::billing::Rates;

use crate::harness::{fail, HarnessCtx, RunResult};
use crate::scale::{
    build_schedule, incremental_invoices, invoice_sha, monitor_fleet, schedule_ops, sweep_invoices,
    Schedule,
};
use crate::{outln, row};

const SEED: u64 = 2013;
/// Cells at or below this tenant count also run the O(tenant-minutes)
/// sweep replay for the byte-identity check; above it the cost of the
/// baseline itself is the thing being retired, so the cell is pinned by
/// digest only.
const SWEEP_COMPARE_MAX: usize = 10_000;
/// Tenants sampled into the oracle re-bill leg.
const ORACLE_TENANTS: usize = 8;

/// Oracle leg: the first [`ORACLE_TENANTS`] tenants' deltas and every
/// close, replayed op by op against the from-scratch re-bill.
fn oracle_report(s: &Schedule, rates: Rates) -> Result<(), String> {
    let ops: Vec<_> = schedule_ops(s, ORACLE_TENANTS).collect();
    let (mut service, mut oracle) = BillingOracle::paired(rates);
    let report = drive(&mut oracle, &mut service, &ops);
    if report.is_clean() {
        Ok(())
    } else {
        Err(report.summary())
    }
}

struct MonitorOutcome {
    notifications: usize,
    not_ok: usize,
    sha: String,
}

/// The monitoring leg: a 4-DC fleet with metric drift and host flaps,
/// ticked every 15 simulated seconds.
fn run_monitor(hosts: usize, window_secs: u64, seed: u64) -> MonitorOutcome {
    let mut rng = SimRng::new(derive_seed(seed, 0x4A6));
    let (agents, defs) = monitor_fleet(hosts, 4, 60);
    let agent_map: BTreeMap<String, &HostAgent> =
        agents.iter().map(|a| (a.hostname.clone(), a)).collect();
    let mut master = NagiosMaster::new();
    for def in defs {
        master.add_service(def);
    }
    let mut down: Vec<usize> = Vec::new();
    for s in (0..=window_secs).step_by(15) {
        // Drift a few metrics toward and across thresholds.
        for _ in 0..(hosts / 50).max(1) {
            let h = rng.below(hosts as u64) as usize;
            match rng.below(4) {
                0 => agents[h]
                    .metrics
                    .set("disk_used_pct", 30.0 + rng.below(70) as f64),
                1 => agents[h].metrics.set("load1", rng.below(20) as f64),
                2 => agents[h]
                    .metrics
                    .set("free_mb", 500.0 + rng.below(120_000) as f64),
                _ => agents[h].metrics.set("net_errs", rng.below(300) as f64),
            }
        }
        // Occasional host flap; downed hosts return a few ticks later.
        if rng.chance(0.05) {
            let h = rng.below(hosts as u64) as usize;
            if agents[h].is_reachable() {
                agents[h].set_reachable(false);
                down.push(h);
            }
        }
        if !down.is_empty() && rng.chance(0.3) {
            let h = down.remove(0);
            agents[h].set_reachable(true);
        }
        master.tick(SimTime(s * 1_000_000_000), &agent_map);
    }
    let mut h = Sha256::new();
    for n in &master.notifications {
        h.update(&n.at.as_nanos().to_le_bytes());
        h.update(n.host.as_bytes());
        h.update(n.service.as_bytes());
        h.update(n.message.as_bytes());
        h.update(format!("{:?}", n.status).as_bytes());
        h.update(&[u8::from(n.problem)]);
    }
    let summary = master.console_summary();
    let not_ok = summary.values().filter(|s| **s != CheckStatus::Ok).count();
    MonitorOutcome {
        notifications: master.notifications.len(),
        not_ok,
        sha: to_hex(&h.finalize()),
    }
}

struct CellResult {
    tenants: usize,
    deltas: usize,
    invoices: usize,
    invoice_sha: String,
    sweep: &'static str,
    oracle: String,
    notifications: usize,
    not_ok: usize,
    notif_sha: String,
    failed: bool,
}

fn run_cell(
    tenants: usize,
    hosts: usize,
    horizon_min: u64,
    monitor_secs: u64,
    seed: u64,
) -> CellResult {
    let rates = Rates::default();
    let s = build_schedule(tenants, horizon_min, seed);
    let inc = incremental_invoices(&s, rates);
    let invoices: usize = inc.iter().map(Vec::len).sum();
    let mut failed = false;

    let sweep = if tenants <= SWEEP_COMPARE_MAX {
        if sweep_invoices(&s, rates) == inc {
            "match"
        } else {
            failed = true;
            "MISMATCH"
        }
    } else {
        "digest-pinned"
    };

    let oracle = match oracle_report(&s, rates) {
        Ok(()) => "clean".to_string(),
        Err(why) => {
            failed = true;
            format!("DIRTY: {why}")
        }
    };

    let mon = run_monitor(hosts, monitor_secs, seed);

    CellResult {
        tenants,
        deltas: s.deltas.len(),
        invoices,
        invoice_sha: invoice_sha(&inc),
        sweep,
        oracle,
        notifications: mon.notifications,
        not_ok: mon.not_ok,
        notif_sha: mon.sha,
        failed,
    }
}

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    let quick = ctx.quick();
    let jobs = ctx.jobs();

    ctx.banner(
        "Experiment S2 (§2, §9)",
        "tenant scale grid: incremental billing + wheel monitoring vs sweep baselines",
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

    // Grid knobs. The horizon crosses two day boundaries so storage
    // billing exercises the per-day rounding path; quick mode crosses
    // one.
    let (tenant_grid, hosts, horizon_min, monitor_secs): (&[usize], usize, u64, u64) = if quick {
        (&[1_000, 10_000], 250, 24 * 60 + 30, 30 * 60)
    } else {
        (
            &[1_000, 10_000, 100_000],
            1_000,
            2 * 24 * 60 + 360,
            2 * 3600,
        )
    };

    let tele = Telemetry::disabled();
    let results: Vec<CellResult> = run_sharded(
        jobs,
        &tele,
        tenant_grid
            .iter()
            .map(|&tenants| {
                move |_t: &Telemetry, _i: usize| {
                    run_cell(
                        tenants,
                        hosts,
                        horizon_min,
                        monitor_secs,
                        derive_seed(SEED, tenants as u64),
                    )
                }
            })
            .collect(),
    );

    let widths = [8usize, 8, 9, 14, 8, 7, 6, 16];
    outln!(
        ctx,
        "{}",
        row(
            &[
                "tenants",
                "deltas",
                "invoices",
                "sweep",
                "oracle",
                "notifs",
                "notok",
                "invoice_sha16",
            ],
            &widths
        )
    );
    outln!(ctx, "{}", "-".repeat(92));
    let mut any_failed = false;
    for r in &results {
        outln!(
            ctx,
            "{}",
            row(
                &[
                    &r.tenants.to_string(),
                    &r.deltas.to_string(),
                    &r.invoices.to_string(),
                    r.sweep,
                    &r.oracle,
                    &r.notifications.to_string(),
                    &r.not_ok.to_string(),
                    &r.invoice_sha[..16],
                ],
                &widths
            )
        );
    }
    outln!(ctx);
    for r in &results {
        outln!(
            ctx,
            "tenants={:<6}  invoice_sha256={}  notif_sha256={}",
            r.tenants,
            r.invoice_sha,
            r.notif_sha
        );
        any_failed |= r.failed;
    }

    osdc_telemetry::audit::assert_clean("exp_scale");

    if any_failed {
        return fail("a sweep comparison or oracle leg diverged (see table)");
    }
    outln!(
        ctx,
        "\nall cells clean: increment mode matches the per-tenant sweep cadence exactly, \
         the oracle re-bill agrees, and both streams are digest-pinned"
    );
    Ok(())
}
