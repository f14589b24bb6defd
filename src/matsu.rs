//! Project Matsu: EO-1 satellite analytics on the Hadoop cloud (Figure 2).
//!
//! "Project Matsu is a joint research project with NASA that is
//! developing cloud based infrastructure for processing satellite image
//! data... Project Matsu is also developing analytics for detecting fire
//! and floods and distributing this information to interested parties."
//! Figure 2 shows Hyperion tiles over Namibia "where OSDC researchers are
//! developing algorithms for quickly detecting floods".
//!
//! We cannot redistribute EO-1 Level-1 scenes, so [`generate_scene`]
//! synthesizes Hyperion-like tiles — green/NIR/SWIR band rasters over a
//! land background, with an injected flood (water raises green, crushes
//! NIR) and fire hotspots (SWIR spikes) plus per-pixel ground truth. The
//! detector is the standard NDWI water index (McFeeters) and a SWIR
//! threshold for fire, run as a real MapReduce job over the tiles on
//! `osdc-mapreduce`, scored pixel-exactly against the injected truth.

use osdc_mapreduce::run_job;
use osdc_sim::SimRng;

/// One synthetic Hyperion-like tile (three bands of a 242-band scene —
/// the ones the flood/fire analytics need).
#[derive(Clone, Debug)]
pub struct Tile {
    pub row: u32,
    pub col: u32,
    pub size: usize,
    /// Reflectances in [0, 1], row-major `size × size`.
    pub green: Vec<f32>,
    pub nir: Vec<f32>,
    pub swir: Vec<f32>,
    /// Injected truth: per-pixel water / fire flags.
    pub truth_water: Vec<bool>,
    pub truth_fire: Vec<bool>,
}

/// Scene generation parameters.
#[derive(Clone, Debug)]
pub struct SceneParams {
    pub tiles_per_side: u32,
    pub tile_size: usize,
    /// Center and radius of the flood ellipse in scene pixel coordinates
    /// (fractions of the scene side in \[0,1\]).
    pub flood_center: (f64, f64),
    pub flood_radius: f64,
    /// Number of fire hotspots scattered on land.
    pub fires: u32,
    pub noise: f32,
}

impl Default for SceneParams {
    fn default() -> Self {
        SceneParams {
            tiles_per_side: 8,
            tile_size: 64,
            flood_center: (0.35, 0.6),
            flood_radius: 0.18,
            fires: 12,
            noise: 0.02,
        }
    }
}

/// Generate the scene as a vector of tiles (row-major).
pub fn generate_scene(params: &SceneParams, seed: u64) -> Vec<Tile> {
    let mut rng = SimRng::new(seed);
    let n = params.tiles_per_side;
    let ts = params.tile_size;
    let scene_px = (n as usize * ts) as f64;
    // Fire hotspot centers in scene pixels.
    let fires: Vec<(f64, f64)> = (0..params.fires)
        .map(|_| (rng.range_f64(0.0, scene_px), rng.range_f64(0.0, scene_px)))
        .collect();
    let (fcx, fcy) = (
        params.flood_center.0 * scene_px,
        params.flood_center.1 * scene_px,
    );
    let frad = params.flood_radius * scene_px;

    let mut tiles = Vec::with_capacity((n * n) as usize);
    for row in 0..n {
        for col in 0..n {
            let mut tile = Tile {
                row,
                col,
                size: ts,
                green: vec![0.0; ts * ts],
                nir: vec![0.0; ts * ts],
                swir: vec![0.0; ts * ts],
                truth_water: vec![false; ts * ts],
                truth_fire: vec![false; ts * ts],
            };
            for y in 0..ts {
                for x in 0..ts {
                    let sx = col as f64 * ts as f64 + x as f64;
                    let sy = row as f64 * ts as f64 + y as f64;
                    let i = y * ts + x;
                    let noise = || params.noise * 2.0;
                    // Land baseline: vegetation-ish — NIR bright.
                    let mut green = 0.18f32;
                    let mut nir = 0.42f32;
                    let mut swir = 0.20f32;
                    // Flood ellipse: water — green up a touch, NIR crushed.
                    let d = ((sx - fcx).powi(2) + (sy - fcy).powi(2)).sqrt();
                    if d < frad {
                        green = 0.24;
                        nir = 0.06;
                        swir = 0.04;
                        tile.truth_water[i] = true;
                    }
                    // Fire hotspots: small SWIR-saturated disks on land.
                    if !tile.truth_water[i]
                        && fires
                            .iter()
                            .any(|&(fx, fy)| (sx - fx).powi(2) + (sy - fy).powi(2) < 9.0)
                    {
                        swir = 0.95;
                        nir = 0.30;
                        tile.truth_fire[i] = true;
                    }
                    let mut jitter =
                        |v: f32| (v + (rng.f64() as f32 - 0.5) * noise()).clamp(0.0, 1.0);
                    tile.green[i] = jitter(green);
                    tile.nir[i] = jitter(nir);
                    tile.swir[i] = jitter(swir);
                }
            }
            tiles.push(tile);
        }
    }
    tiles
}

/// Per-tile detection output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TileDetection {
    pub water_pixels: u32,
    pub fire_pixels: u32,
    /// Pixel-level confusion counts vs. the injected truth.
    pub water_tp: u32,
    pub water_fp: u32,
    pub water_fn: u32,
}

/// NDWI water threshold (McFeeters 1996: NDWI > 0 is water; a small
/// positive margin rejects noisy land pixels).
pub const NDWI_THRESHOLD: f32 = 0.15;
/// SWIR reflectance above which a pixel is a thermal anomaly.
pub const FIRE_SWIR_THRESHOLD: f32 = 0.80;

/// Classify one tile.
pub fn detect_tile(tile: &Tile) -> TileDetection {
    let mut out = TileDetection::default();
    for i in 0..tile.size * tile.size {
        let g = tile.green[i];
        let n = tile.nir[i];
        let ndwi = if g + n > 0.0 { (g - n) / (g + n) } else { 0.0 };
        let water = ndwi > NDWI_THRESHOLD;
        let fire = tile.swir[i] > FIRE_SWIR_THRESHOLD;
        if water {
            out.water_pixels += 1;
        }
        if fire {
            out.fire_pixels += 1;
        }
        match (water, tile.truth_water[i]) {
            (true, true) => out.water_tp += 1,
            (true, false) => out.water_fp += 1,
            (false, true) => out.water_fn += 1,
            (false, false) => {}
        }
    }
    out
}

/// Scene-level result of the MapReduce detection job.
#[derive(Clone, Debug)]
pub struct FloodReport {
    /// `(row, col, water fraction)` for tiles flagged as flooded.
    pub flooded_tiles: Vec<(u32, u32, f64)>,
    pub water_precision: f64,
    pub water_recall: f64,
    pub fire_tiles: Vec<(u32, u32)>,
}

/// Tiles whose detected water fraction exceeds this are "flooded".
pub const FLOOD_TILE_FRACTION: f64 = 0.05;

/// Run the flood/fire analytics over a scene as a MapReduce job.
pub fn detect_floods(tiles: Vec<Tile>) -> FloodReport {
    let result = run_job(
        tiles,
        |tile, emit| {
            let size = (tile.size * tile.size) as f64;
            let det = detect_tile(&tile);
            emit((tile.row, tile.col), (det, size));
        },
        |_key, mut vs| vs.pop(),
    );
    let mut report = FloodReport {
        flooded_tiles: Vec::new(),
        water_precision: 0.0,
        water_recall: 0.0,
        fire_tiles: Vec::new(),
    };
    let (mut tp, mut fp, mut fneg) = (0u64, 0u64, 0u64);
    // Each tile emits one detection under its own key, so every reduce
    // has a value to return.
    for ((row, col), found) in result.output {
        let Some((det, size)) = found else { continue };
        let frac = det.water_pixels as f64 / size;
        if frac > FLOOD_TILE_FRACTION {
            report.flooded_tiles.push((row, col, frac));
        }
        if det.fire_pixels > 0 {
            report.fire_tiles.push((row, col));
        }
        tp += det.water_tp as u64;
        fp += det.water_fp as u64;
        fneg += det.water_fn as u64;
    }
    report.water_precision = if tp + fp == 0 {
        1.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    report.water_recall = if tp + fneg == 0 {
        1.0
    } else {
        tp as f64 / (tp + fneg) as f64
    };
    report
}

/// Render the scene + detection overlay as a binary PGM (P5) image — the
/// actual artifact Figure 2 shows (a tile mosaic with detected flood
/// areas). NIR reflectance forms the base layer; detected water is pulled
/// to black, detected fire to white.
pub fn render_pgm(tiles: &[Tile], tiles_per_side: u32) -> Vec<u8> {
    assert!(!tiles.is_empty());
    let ts = tiles[0].size;
    let side = tiles_per_side as usize * ts;
    let mut pixels = vec![0u8; side * side];
    for tile in tiles {
        let det_base_y = tile.row as usize * ts;
        let det_base_x = tile.col as usize * ts;
        for y in 0..ts {
            for x in 0..ts {
                let i = y * ts + x;
                let g = tile.green[i];
                let n = tile.nir[i];
                let ndwi = if g + n > 0.0 { (g - n) / (g + n) } else { 0.0 };
                let v = if tile.swir[i] > FIRE_SWIR_THRESHOLD {
                    255 // fire: white
                } else if ndwi > NDWI_THRESHOLD {
                    0 // water: black
                } else {
                    (tile.nir[i] * 420.0).clamp(40.0, 220.0) as u8
                };
                pixels[(det_base_y + y) * side + det_base_x + x] = v;
            }
        }
    }
    let mut out = format!("P5\n{side} {side}\n255\n").into_bytes();
    out.extend_from_slice(&pixels);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_renders_scene_with_flood_contrast() {
        let params = SceneParams::default();
        let tiles = generate_scene(&params, 42);
        let pgm = render_pgm(&tiles, params.tiles_per_side);
        let side = params.tiles_per_side as usize * params.tile_size;
        let header = format!("P5\n{side} {side}\n255\n");
        assert!(pgm.starts_with(header.as_bytes()));
        assert_eq!(pgm.len(), header.len() + side * side);
        let pixels = &pgm[header.len()..];
        // Water pixels are black and present; land is mid-grey.
        let black = pixels.iter().filter(|&&p| p == 0).count();
        let land = pixels.iter().filter(|&&p| (40..=220).contains(&p)).count();
        assert!(black > 1000, "flood renders black: {black}");
        assert!(land > black, "land dominates the scene");
    }

    #[test]
    fn detector_is_near_exact_on_clean_synthetic_water() {
        let tiles = generate_scene(&SceneParams::default(), 42);
        let report = detect_floods(tiles);
        assert!(
            report.water_precision > 0.98,
            "precision {}",
            report.water_precision
        );
        assert!(report.water_recall > 0.98, "recall {}", report.water_recall);
    }

    #[test]
    fn flooded_tiles_cluster_around_the_injected_center() {
        let params = SceneParams::default();
        let tiles = generate_scene(&params, 7);
        let report = detect_floods(tiles);
        assert!(!report.flooded_tiles.is_empty());
        // The flood center in tile coordinates.
        let n = params.tiles_per_side as f64;
        let (cx, cy) = (params.flood_center.0 * n, params.flood_center.1 * n);
        for &(row, col, frac) in &report.flooded_tiles {
            let d = ((col as f64 + 0.5 - cx).powi(2) + (row as f64 + 0.5 - cy).powi(2)).sqrt();
            assert!(
                d < params.flood_radius * n + 1.5,
                "tile ({row},{col}) frac {frac:.2} too far from flood center"
            );
        }
    }

    #[test]
    fn dry_scene_has_no_flood() {
        let params = SceneParams {
            flood_radius: 0.0,
            fires: 0,
            ..Default::default()
        };
        let tiles = generate_scene(&params, 3);
        let report = detect_floods(tiles);
        assert!(report.flooded_tiles.is_empty());
        assert!(report.fire_tiles.is_empty());
        assert_eq!(report.water_recall, 1.0, "vacuous recall on no water");
    }

    #[test]
    fn fires_are_detected_on_land() {
        let params = SceneParams {
            fires: 20,
            ..Default::default()
        };
        let tiles = generate_scene(&params, 11);
        let report = detect_floods(tiles);
        assert!(!report.fire_tiles.is_empty(), "hotspots must be seen");
    }

    #[test]
    fn scene_is_deterministic_per_seed() {
        let a = generate_scene(&SceneParams::default(), 9);
        let b = generate_scene(&SceneParams::default(), 9);
        assert_eq!(a[0].green, b[0].green);
        let c = generate_scene(&SceneParams::default(), 10);
        assert_ne!(a[0].green, c[0].green);
    }

    #[test]
    fn truth_masks_are_consistent() {
        let tiles = generate_scene(&SceneParams::default(), 13);
        for t in &tiles {
            for i in 0..t.size * t.size {
                assert!(
                    !(t.truth_water[i] && t.truth_fire[i]),
                    "a pixel cannot be both water and fire"
                );
            }
        }
    }
}
