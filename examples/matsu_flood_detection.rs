//! Project Matsu: EO-1 flood detection over Namibia (§4.2, Figure 2).
//!
//! ```text
//! cargo run --example matsu_flood_detection
//! ```
//!
//! The earth-science workload end to end: Level-1-like tiles are staged
//! on the Matsu Hadoop cluster, archived go-forward onto OSDC-Root, and
//! the flood/fire analytics run as a locality-scheduled MapReduce job.
//! "Project Matsu is also developing analytics for detecting fire and
//! floods and distributing this information to interested parties."

use osdc::matsu::{detect_floods, generate_scene, SceneParams};
use osdc::storage::FileData;
use osdc::Federation;
use osdc_mapreduce::{DataNodeId, TaskScheduler, BLOCK_SIZE};

fn main() {
    let mut fed = Federation::build(1.2e-7, 11);

    // --- a new EO-1 pass arrives ------------------------------------------
    let params = SceneParams {
        tiles_per_side: 10,
        flood_center: (0.4, 0.55),
        flood_radius: 0.2,
        fires: 8,
        ..Default::default()
    };
    let tiles = generate_scene(&params, 20121015);
    println!(
        "EO-1 pass over Namibia: {} tiles ({} px each)",
        tiles.len(),
        params.tile_size * params.tile_size
    );

    // Stage onto the Matsu HDFS and archive to OSDC-Root (§4.2: "we are
    // also using OSDC-Root to archive data on a go forward basis").
    // Full Hyperion radiance depth: 242 bands × 2 bytes per pixel.
    let scene_bytes = (tiles.len() * params.tile_size * params.tile_size * 242 * 2) as u64;
    fed.matsu
        .create(
            "/eo1/hyperion/2012-10-15/namibia.seq",
            scene_bytes.max(BLOCK_SIZE),
            DataNodeId(3),
        )
        .expect("stage on matsu");
    fed.root
        .write(
            "/archive/eo1/2012-10-15/namibia.seq",
            FileData::synthetic(scene_bytes, 20121015),
            "matsu",
        )
        .expect("archive on root");
    println!(
        "staged on OCC-Matsu, archived on OSDC-Root ({} MB)",
        scene_bytes >> 20
    );

    // --- locality-aware scheduling -----------------------------------------
    let sched = TaskScheduler::new(4);
    let (placements, hist) = sched
        .schedule(&fed.matsu, "/eo1/hyperion/2012-10-15/namibia.seq")
        .expect("schedulable");
    println!(
        "map tasks: {} blocks, {:.0}% data-local",
        placements.len(),
        TaskScheduler::data_local_fraction(&hist) * 100.0
    );

    // --- run the analytics ---------------------------------------------------
    let report = detect_floods(tiles);
    println!(
        "\ndetected {} flooded tiles, {} fire tiles (precision {:.3}, recall {:.3})",
        report.flooded_tiles.len(),
        report.fire_tiles.len(),
        report.water_precision,
        report.water_recall
    );
    // "distributing this information to interested parties":
    let mut alert: Vec<String> = report
        .flooded_tiles
        .iter()
        .map(|(r, c, f)| format!("tile({r},{c}) water={:.0}%", f * 100.0))
        .collect();
    alert.truncate(8);
    println!("flood alert bulletin (first tiles): {}", alert.join("; "));
    assert!(
        report.water_recall > 0.9,
        "the detector must find the flood"
    );
}
