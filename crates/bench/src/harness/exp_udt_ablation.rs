//! Experiment X5 — transport ablations behind Table 3.
//!
//! Three sweeps that expose *why* UDR wins, and how sensitive the result
//! is to the design choices the UDT protocol (Gu & Grossman) made:
//!
//! 1. **RTT sweep** — single-stream TCP collapses with distance (the
//!    rwnd/RTT ceiling plus slow loss recovery); UDT holds the pipeline
//!    bound. The 104 ms column is the paper's path.
//! 2. **Loss sweep** — TCP is exquisitely loss-sensitive on the LFN; UDT
//!    degrades gently until loss dominates its SYN accounting.
//! 3. **Decrease-factor ablation** — UDT's ×8/9 multiplicative decrease
//!    vs TCP-style ×1/2 grafted onto the same rate-based scaffold: the
//!    gentle decrease is most of UDT's advantage at high
//!    bandwidth-delay products.
//!
//! `--jobs <N>` runs each sweep's cells on N workers of the deterministic
//! parallel map (default: 1); every cell is seeded by its grid position,
//! so the tables are byte-identical for any N.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use osdc_net::cc::UdtState;
use osdc_net::{CongestionControl, FlowSpec, FluidNet, Topology, MSS_BYTES};
use osdc_sim::{run_indexed, SimDuration, SimRng, SimTime};

use crate::harness::{Failure, HarnessCtx, RunResult};
use crate::{outln, row};

const SEED: u64 = 2012;
/// Receiver pipeline cap from the Table 3 model, bits/s.
const APP_CAP: f64 = 750e6;

/// Average goodput of a 60 GB transfer under the given CC, mbit/s, over
/// a 10G path with `one_way_ms` delay and per-link `loss`.
fn goodput(cc: CongestionControl, one_way_ms: u64, loss: f64) -> Result<f64, Failure> {
    let kind = match cc {
        CongestionControl::Reno(_) => "rsync/TCP",
        CongestionControl::Udt(_) => "UDR/UDT",
        CongestionControl::Constant { .. } => "constant",
    };
    let cell = format!("X5 cell {kind}, RTT {} ms, loss {loss:e}", 2 * one_way_ms);
    let mut t = Topology::new();
    let a = t.add_node("src");
    let b = t.add_node("dst");
    t.add_duplex_link(a, b, 10e9, SimDuration::from_millis(one_way_ms), loss);
    let mut net = FluidNet::new(t, SEED);
    let f = net
        .start_flow(FlowSpec {
            src: a,
            dst: b,
            bytes: 60_000_000_000,
            cc,
            app_limit_bps: APP_CAP,
        })
        .map_err(|e| Failure(format!("{cell}: {e}")))?;
    let done = net
        .run_flow_to_completion(f, SimTime::ZERO + SimDuration::from_hours(12))
        .ok_or_else(|| Failure(format!("{cell}: unfinished after 12 h")))?;
    Ok(60_000_000_000.0 * 8.0 / done.as_secs_f64() / 1e6)
}

/// A rate-based controller like UDT but with a configurable decrease
/// factor, driven step-by-step (the ablation cannot use the stock enum)
/// against the two-link path's loss process.
fn rate_based_goodput(decrease: f64, loss: f64) -> f64 {
    let mut state = UdtState::new(1e9); // estimate near the app cap: growth is modest
    let mut rng = SimRng::new(SEED ^ 0xabcdef);
    let dt = 0.01;
    let mut sent_bits = 0.0f64;
    let mut elapsed = 0.0f64;
    let path_loss = 1.0 - (1.0 - loss).powi(2);
    while sent_bits < 60_000_000_000.0 * 8.0 {
        let rate = state.desired_rate_bps().min(APP_CAP);
        sent_bits += rate * dt;
        elapsed += dt;
        let pkts = rate * dt / (MSS_BYTES * 8.0);
        if path_loss > 0.0 && rng.chance(1.0 - (1.0 - path_loss).powf(pkts)) {
            // The ablated decrease.
            state.rate_pps *= decrease;
            state.rate_pps = state.rate_pps.max(1.0);
        }
        state.on_tick(dt);
    }
    sent_bits / elapsed / 1e6
}

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    ctx.banner("Experiment X5", "transport ablations: why UDR wins Table 3");
    ctx.seed_line(SEED);
    // Every cell of each sweep is an independent simulation whose inputs
    // are fixed by its grid position: run the cells on the parallel map,
    // then print the table rows in submission order.
    let jobs = ctx.jobs();

    // ---- 1. RTT sweep -------------------------------------------------------
    outln!(ctx, "RTT sweep (loss 0.9e-7, app cap 750 mbit/s):");
    let widths = [14usize, 16, 16, 10];
    outln!(
        ctx,
        "{}",
        row(&["RTT", "rsync/TCP", "UDR/UDT", "UDT gain"], &widths)
    );
    const ONE_WAYS: [u64; 4] = [5, 25, 52, 100];
    let rtt_cells = run_indexed(
        jobs,
        ONE_WAYS
            .into_iter()
            .flat_map(|one_way| {
                let rtt = 2.0 * one_way as f64 / 1000.0;
                [CongestionControl::reno(rtt), CongestionControl::udt(10e9)]
                    .map(|cc| move |_i: usize| goodput(cc, one_way, 0.45e-7))
            })
            .collect(),
    )
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    for (k, one_way) in ONE_WAYS.into_iter().enumerate() {
        let (tcp, udt) = (rtt_cells[k * 2], rtt_cells[k * 2 + 1]);
        outln!(
            ctx,
            "{}",
            row(
                &[
                    &format!("{} ms", 2 * one_way),
                    &format!("{tcp:.0} mbit/s"),
                    &format!("{udt:.0} mbit/s"),
                    &format!("{:.1}x", udt / tcp),
                ],
                &widths
            )
        );
    }
    outln!(
        ctx,
        "  → the paper's 104 ms path sits where TCP has already collapsed\n"
    );

    // ---- 2. Loss sweep ------------------------------------------------------
    outln!(ctx, "loss sweep at 104 ms RTT:");
    outln!(
        ctx,
        "{}",
        row(&["pkt loss", "rsync/TCP", "UDR/UDT", "UDT gain"], &widths)
    );
    const LOSSES: [f64; 5] = [0.0, 1e-8, 1e-7, 1e-6, 1e-5];
    let loss_cells = run_indexed(
        jobs,
        LOSSES
            .into_iter()
            .flat_map(|loss| {
                [CongestionControl::reno(0.104), CongestionControl::udt(10e9)]
                    .map(|cc| move |_i: usize| goodput(cc, 52, loss / 2.0))
            })
            .collect(),
    )
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    for (k, loss) in LOSSES.into_iter().enumerate() {
        let (tcp, udt) = (loss_cells[k * 2], loss_cells[k * 2 + 1]);
        outln!(
            ctx,
            "{}",
            row(
                &[
                    &format!("{loss:.0e}"),
                    &format!("{tcp:.0} mbit/s"),
                    &format!("{udt:.0} mbit/s"),
                    &format!("{:.1}x", udt / tcp),
                ],
                &widths
            )
        );
    }
    outln!(ctx);

    // ---- 3. decrease-factor ablation ----------------------------------------
    outln!(
        ctx,
        "UDT decrease-factor ablation (104 ms, loss 4e-5 — loss-dominated regime):"
    );
    outln!(
        ctx,
        "{}",
        row(&["decrease", "goodput", "note"], &[12, 16, 34])
    );
    let factors = [
        (8.0 / 9.0, "UDT's choice (x8/9)"),
        (0.75, "intermediate"),
        (0.5, "TCP-style halving"),
    ];
    let ablation_cells = run_indexed(
        jobs,
        factors
            .iter()
            .map(|&(factor, _)| move |_i: usize| rate_based_goodput(factor, 2e-5))
            .collect(),
    );
    for ((factor, note), g) in factors.into_iter().zip(ablation_cells) {
        outln!(
            ctx,
            "{}",
            row(
                &[&format!("x{factor:.2}"), &format!("{g:.0} mbit/s"), note],
                &[12, 16, 34]
            )
        );
    }
    outln!(
        ctx,
        "  → the gentle multiplicative decrease is most of UDT's edge on lossy LFNs"
    );
    osdc_telemetry::audit::assert_clean("exp_udt_ablation");
    Ok(())
}
