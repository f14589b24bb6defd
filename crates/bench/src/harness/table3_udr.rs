//! Table 3 — UDR vs rsync transfer speeds, Chicago ↔ LVOC, 104 ms RTT.
//!
//! Reproduces the paper's exact grid: {UDR, rsync} × {no encryption,
//! blowfish, 3des (rsync only)} × {108 GB, 1.1 TB}, reporting mbit/s and
//! the long-distance-to-local ratio LLR = speed / min(source read 3072,
//! target write 1136) = speed / 1136. Also prints the §7.2 headline
//! speedups (87 % unencrypted, 41 % encrypted).
//!
//! With `--trace <path>`, every transfer additionally emits per-stage
//! spans (disk read → delta → cipher → wire → disk write) and per-flow
//! throughput traces into a telemetry JSONL artifact, plus a federation
//! ops report on stdout. Same-seed runs produce byte-identical artifacts.
//!
//! `--jobs <N>` runs the ten grid cells on N workers of the deterministic
//! parallel map (default: host parallelism, `--jobs 1` = the serial
//! path). Every cell's seed is fixed by its grid position, and telemetry
//! shards are merged in submission order, so stdout and the `--trace`
//! artifact are byte-identical for any N.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use osdc_crypto::CipherKind;
use osdc_net::{osdc_wan, FluidNet, OsdcSite};
use osdc_sim::SimDuration;
use osdc_telemetry::Telemetry;
use osdc_transfer::{Protocol, TransferEngine, TransferError, TransferReport, TransferSpec};

use crate::harness::{Failure, HarnessCtx, RunResult};
use crate::{outln, row};

/// The WAN residual-loss calibration of DESIGN.md §5.
const LONG_HAUL_LOSS: f64 = 0.9e-7;
const SEED: u64 = 2012;

fn transfer(
    protocol: Protocol,
    cipher: CipherKind,
    bytes: u64,
    seed: u64,
    tele: &Telemetry,
) -> Result<TransferReport, TransferError> {
    let wan = osdc_wan(LONG_HAUL_LOSS);
    let src = wan.node(OsdcSite::ChicagoKenwood);
    let dst = wan.node(OsdcSite::Lvoc);
    let mut engine = TransferEngine::new(FluidNet::new(wan.topology, seed));
    engine.set_telemetry(tele.clone());
    engine.try_run(
        &TransferSpec {
            protocol,
            cipher,
            bytes,
            files: 1,
            src,
            dst,
        },
        SimDuration::from_days(2),
    )
}

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    ctx.banner(
        "Table 3",
        "overall transfer speeds (mbit/s) and LLR, Chicago ↔ Livermore, RTT 104 ms",
    );
    ctx.seed_line(SEED);
    let jobs = ctx.jobs(osdc_sim::available_jobs());
    let tele = if ctx.trace_enabled() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };

    let gb108: u64 = 108_000_000_000;
    let tb1_1: u64 = 1_100_000_000_000;

    // (label, protocol, cipher, paper [mbit/s; LLR] for 108 GB and 1.1 TB).
    type Row = (&'static str, Protocol, CipherKind, [f64; 2], [f64; 2]);
    let rows: [Row; 5] = [
        (
            "UDR (no encryption)",
            Protocol::Udr,
            CipherKind::None,
            [752.0, 738.0],
            [0.66, 0.64],
        ),
        (
            "rsync (no encryption)",
            Protocol::Rsync,
            CipherKind::None,
            [401.0, 405.0],
            [0.35, 0.36],
        ),
        (
            "UDR (blowfish)",
            Protocol::Udr,
            CipherKind::Blowfish,
            [394.0, 396.0],
            [0.35, 0.35],
        ),
        (
            "rsync (blowfish)",
            Protocol::Rsync,
            CipherKind::Blowfish,
            [280.0, 281.0],
            [0.25, 0.25],
        ),
        (
            "rsync (3des)",
            Protocol::Rsync,
            CipherKind::TripleDes,
            [284.0, 285.0],
            [0.25, 0.25],
        ),
    ];

    let widths = [22usize, 10, 6, 14, 14, 10, 6, 14, 14];
    outln!(
        ctx,
        "{}",
        row(
            &["", "108 GB", "", "(paper)", "", "1.1 TB", "", "(paper)", ""],
            &widths
        )
    );
    outln!(
        ctx,
        "{}",
        row(
            &[
                "protocol (cipher)",
                "mbit/s",
                "LLR",
                "mbit/s",
                "LLR",
                "mbit/s",
                "LLR",
                "mbit/s",
                "LLR"
            ],
            &widths
        )
    );
    outln!(ctx, "{}", "-".repeat(112));

    // The ten grid cells (5 rows × 2 sizes) are independent seeded runs:
    // execute them on the parallel map, then print in submission order.
    // Seeds keep the published convention (SEED for 108 GB, SEED+1 for
    // 1.1 TB) and depend only on the cell, never on the worker.
    let tasks: Vec<_> = rows
        .iter()
        .flat_map(|&(label, protocol, cipher, _, _)| {
            [(gb108, "108 GB", SEED), (tb1_1, "1.1 TB", SEED + 1)].map(|(bytes, size, seed)| {
                move |cell_tele: &Telemetry, _i: usize| {
                    transfer(protocol, cipher, bytes, seed, cell_tele)
                        .map_err(|e| Failure(format!("Table 3 cell {label}, {size}: {e}")))
                }
            })
        })
        .collect();
    let reports = osdc_telemetry::run_sharded(jobs, &tele, tasks)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    for (k, (label, _, _, paper_mbps, paper_llr)) in rows.into_iter().enumerate() {
        let small = &reports[k * 2];
        let large = &reports[k * 2 + 1];
        outln!(
            ctx,
            "{}",
            row(
                &[
                    label,
                    &format!("{:.0}", small.mbps),
                    &format!("{:.2}", small.llr),
                    &format!("{:.0}", paper_mbps[0]),
                    &format!("{:.2}", paper_llr[0]),
                    &format!("{:.0}", large.mbps),
                    &format!("{:.2}", large.llr),
                    &format!("{:.0}", paper_mbps[1]),
                    &format!("{:.2}", paper_llr[1]),
                ],
                &widths
            )
        );
    }

    // §7.2's headline: "UDR achieves 87% and 41% faster speeds in the
    // unencrypted and encrypted cases, respectively, than standard rsync".
    // Rows 0–3 are UDR plain, rsync plain, UDR blowfish, rsync blowfish;
    // each row's speed is the mean of its two sizes.
    let speed = |row: usize| (reports[row * 2].mbps + reports[row * 2 + 1].mbps) / 2.0;
    let plain = speed(0) / speed(1) - 1.0;
    let enc = speed(2) / speed(3) - 1.0;
    outln!(ctx);
    outln!(
        ctx,
        "headline: UDR is {:.0}% faster unencrypted (paper: 87%), {:.0}% faster encrypted (paper: 41%)",
        plain * 100.0,
        enc * 100.0
    );
    outln!(
        ctx,
        "LLR denominator: min(source read 3072, target write 1136) = 1136 mbit/s, as in §7.2"
    );
    if ctx.trace_enabled() {
        ctx.finish_trace(&tele);
    }
    osdc_telemetry::audit::assert_clean("table3_udr");
    Ok(())
}
