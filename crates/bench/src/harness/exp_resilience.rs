//! Experiment X9 (§4.1, §7.1, §7.4) — resilience campaign sweep.
//!
//! The paper's operational story is about surviving failure: the
//! GlusterFS 3.1 mirroring bug that silently lost data (§7.1), the
//! modENCODE double-disaster recovery (§4.1), and the Nagios + Collectl
//! monitoring stack that pages operators when hardware dies (§7.4).
//! This harness replays the same deterministic fault schedule — link
//! outages, brick crashes, silent corruption, host failures, flaky cloud
//! APIs, Chef converge errors — against a live mini-federation under a
//! sweep of (storage era × retry policy) cells and scores each on MTTR,
//! data loss, and fault→alert latency.
//!
//! The headline contrast: GlusterFS 3.3 with exponential backoff rides
//! out every fault with zero data loss; GlusterFS 3.1 with no retries
//! loses data, exactly as the paper experienced.
//!
//! Flags: `--quick` (shorter campaign, used by CI), `--trace <path>`
//! (emit the telemetry JSONL artifact for the canonical cell),
//! `--jobs <N>` (run the sweep cells on N workers of the deterministic
//! parallel map — output is byte-identical for any N; default: host
//! parallelism).

use osdc_chaos::{run_campaigns, CampaignConfig, RetryPolicy};
use osdc_storage::GlusterVersion;
use osdc_telemetry::Telemetry;

use crate::harness::{fail, HarnessCtx, RunResult};
use crate::{outln, row};

const SEED: u64 = 2012;
const EXTRA_FAULTS_PER_HOUR: f64 = 2.0;

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    let quick = ctx.quick();
    let duration_mins: u64 = if quick { 120 } else { 240 };

    ctx.banner(
        "Experiment X9 (§4.1, §7.1, §7.4)",
        "chaos campaigns over the federation: storage era × retry policy",
    );
    ctx.seed_line(SEED);
    outln!(
        ctx,
        "{duration_mins}-minute campaigns, identical fault schedule per cell \
         ({EXTRA_FAULTS_PER_HOUR} extra API faults/hour){}\n",
        if quick { "  [--quick]" } else { "" }
    );

    let jobs = ctx.jobs(osdc_sim::available_jobs());
    let v31 = GlusterVersion::V3_1 {
        replica_drop_prob: 0.15,
    };
    let cells: Vec<CampaignConfig> = vec![
        CampaignConfig::osdc(
            v31,
            RetryPolicy::None,
            SEED,
            duration_mins,
            EXTRA_FAULTS_PER_HOUR,
        ),
        CampaignConfig::osdc(
            v31,
            RetryPolicy::exponential(12),
            SEED,
            duration_mins,
            EXTRA_FAULTS_PER_HOUR,
        ),
        CampaignConfig::osdc(
            GlusterVersion::V3_3,
            RetryPolicy::fixed_30s(4),
            SEED,
            duration_mins,
            EXTRA_FAULTS_PER_HOUR,
        ),
        CampaignConfig::osdc(
            GlusterVersion::V3_3,
            RetryPolicy::exponential(12),
            SEED,
            duration_mins,
            EXTRA_FAULTS_PER_HOUR,
        ),
    ];
    // The manifest pins the exact fault schedule driving every cell.
    for cell in &cells {
        ctx.record_fault_plan(&cell.plan);
    }

    let widths = [26usize, 8, 8, 10, 10, 12, 12];
    outln!(
        ctx,
        "{}",
        row(
            &[
                "configuration",
                "faults",
                "MTTR",
                "data loss",
                "healed",
                "alert lat.",
                "xfer MB",
            ],
            &widths
        )
    );
    outln!(ctx, "{}", "-".repeat(96));

    // The four sweep cells are independent campaigns: run them on the
    // parallel map, then print the scorecards in submission order.
    let cards = run_campaigns(&cells, jobs, &Telemetry::disabled());
    for card in &cards {
        outln!(
            ctx,
            "{}",
            row(
                &[
                    &card.config,
                    &card.faults_injected.to_string(),
                    &format!("{:.0}s", card.mttr_secs()),
                    &card.data_loss_incidents().to_string(),
                    &card.heal_repaired.to_string(),
                    &format!("{:.0}s", card.alert_latency_secs()),
                    &(card.transfer_bytes_done / 1_000_000).to_string(),
                ],
                &widths
            )
        );
    }

    let worst = &cards[0]; // gluster-3.1 + no-retry
    let best = cards.last().expect("sweep is non-empty"); // gluster-3.3 + exp-backoff
    outln!(ctx, "\ncanonical cell — {}:", best.config);
    for line in best.render().lines().skip(1) {
        outln!(ctx, "{line}");
    }
    outln!(
        ctx,
        "\npaper's experience reproduced: {} suffers {} data-loss incidents; \
         {} suffers {}.",
        worst.config,
        worst.data_loss_incidents(),
        best.config,
        best.data_loss_incidents()
    );
    if best.data_loss_incidents() != 0 {
        return fail("gluster-3.3 + exp-backoff must lose nothing");
    }
    if worst.data_loss_incidents() == 0 {
        return fail("gluster-3.1 + no-retry must lose data");
    }

    if ctx.trace_enabled() {
        // Re-run the canonical cell with telemetry enabled so the JSONL
        // artifact carries the full span/metric stream plus the verdict.
        // A single cell runs inline whatever `--jobs` says, and the
        // sharded merge keeps the artifact byte-identical either way.
        let tele = Telemetry::new();
        let canonical = cells.last().cloned().expect("sweep is non-empty");
        let _ = run_campaigns(&[canonical], jobs, &tele);
        ctx.finish_trace(&tele);
    }

    // A build with --features audit also gates on the runtime invariant
    // registry (brick usage within capacity, replica-set geometry).
    osdc_telemetry::audit::assert_clean("exp_resilience");
    Ok(())
}
