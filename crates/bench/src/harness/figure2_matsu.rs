//! Figure 2 — EO-1 Hyperion tiles over Namibia: flood detection.
//!
//! Regenerates the figure's content: a tiled scene with a flood, the
//! NDWI detection map rendered as ASCII (the figure's tile mosaic), and
//! the detection quality numbers. The analytics run as a MapReduce job
//! on the OCC-Matsu-like substrate, with task locality reported. The
//! raster itself is emitted as the `figure2_namibia.pgm` artifact.

use osdc::matsu::{detect_floods, generate_scene, SceneParams};
use osdc_mapreduce::{DataNodeId, Hdfs, TaskScheduler, BLOCK_SIZE};

use crate::harness::{HarnessCtx, OrFail, RunResult};
use crate::outln;

const SEED: u64 = 2012;

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    ctx.banner(
        "Figure 2",
        "EO-1 Hyperion tiles over Namibia — flood (and fire) detection on the Matsu cloud",
    );
    ctx.seed_line(SEED);

    // The tile archive lands on the Matsu Hadoop cluster (30 TB over
    // three years, §4.2); here one scene of 8×8 tiles.
    let params = SceneParams::default();
    let tiles = generate_scene(&params, SEED);
    let n = params.tiles_per_side as usize;
    outln!(
        ctx,
        "scene: {}×{} tiles of {}×{} px, flood injected at ({:.2}, {:.2}) r={:.2}\n",
        n,
        n,
        params.tile_size,
        params.tile_size,
        params.flood_center.0,
        params.flood_center.1,
        params.flood_radius
    );

    // Stage the scene file on the simulated Matsu HDFS and report how
    // local the map tasks are.
    let mut fs = Hdfs::new(3, 5, SEED);
    // Full Hyperion radiance depth: 242 bands × 2 bytes per pixel.
    let scene_bytes = (tiles.len() * params.tile_size * params.tile_size * 242 * 2) as u64;
    fs.create(
        "/matsu/eo1/namibia.seq",
        scene_bytes.max(BLOCK_SIZE),
        DataNodeId(0),
    )
    .or_fail("stage scene")?;
    let sched = TaskScheduler::new(4);
    let (placements, hist) = sched
        .schedule(&fs, "/matsu/eo1/namibia.seq")
        .or_fail("schedule map tasks")?;
    outln!(
        ctx,
        "map tasks: {} blocks, {:.0}% data-local ({:?})\n",
        placements.len(),
        TaskScheduler::data_local_fraction(&hist) * 100.0,
        hist
    );

    // Run the detection job.
    let report = detect_floods(tiles);

    // Render the mosaic: '≈' flooded tile, '.' dry, '*' fire.
    let mut grid = vec![vec!['.'; n]; n];
    for &(row, col, _) in &report.flooded_tiles {
        grid[row as usize][col as usize] = '≈';
    }
    for &(row, col) in &report.fire_tiles {
        if grid[row as usize][col as usize] == '.' {
            grid[row as usize][col as usize] = '*';
        }
    }
    outln!(ctx, "detection mosaic (≈ flood, * fire, . dry):");
    for r in &grid {
        outln!(ctx, "    {}", r.iter().collect::<String>());
    }

    outln!(
        ctx,
        "\nflooded tiles: {} / {}   fire tiles: {}",
        report.flooded_tiles.len(),
        n * n,
        report.fire_tiles.len()
    );
    outln!(
        ctx,
        "pixel-level water detection: precision {:.3}, recall {:.3}",
        report.water_precision,
        report.water_recall
    );
    // Emit the actual image artifact (Figure 2 is a raster, after all).
    let tiles = generate_scene(&params, SEED);
    let pgm = osdc::matsu::render_pgm(&tiles, params.tiles_per_side);
    outln!(
        ctx,
        "\nraster artifact figure2_namibia.pgm recorded ({} KiB)",
        pgm.len() >> 10
    );
    ctx.emit_artifact("figure2_namibia.pgm", &pgm);
    outln!(ctx, "(the paper's figure shows the same artifact: a tile mosaic over Namibia with detected flood areas)");
    Ok(())
}
