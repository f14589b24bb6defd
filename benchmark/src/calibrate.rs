//! The calibration job: a fixed piece of work, timed between passes, that
//! measures how fast the host runs at that moment.
//!
//! On a shared host the speed of one core changes by a third or more,
//! for seconds to minutes at a time, with the load of its neighbours,
//! and the same pass then takes a third longer. Every end-to-end time is
//! therefore scaled to the reference host's speed: divided by the mean
//! time of the calibration jobs just before and just after it, and
//! multiplied by [`CALIBRATION_MS`]. The job is code of this benchmark
//! only, so it does the same work on every commit measured.
//!
//! It does what the workloads spend most of their time on: it fills and
//! probes a hash map, sorts a vector and builds an ordered map keyed by
//! formatted strings, over about 2 MB. Such a job slowed down with the
//! host as the workloads did. Jobs of pure arithmetic, or of pointer
//! chasing through 8 MiB, did not (see `README.md`).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The calibration job's time on the reference host, in milliseconds.
/// A scaled time reads as the time the reference host would have taken
/// while the calibration job took this long.
pub const CALIBRATION_MS: f64 = 15.0;

const KEYS: usize = 100_000;
const MAP_SLOTS: u64 = 60_000;
const STRING_KEYS: usize = 20_000;
/// Untimed runs of the job before the first timed one, so that its heap
/// is in place.
const WARM_UP_RUNS: usize = 3;

/// Fixed inputs of the calibration job.
pub struct Calibration {
    keys: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Build the inputs (the same on every run and seed) and warm the job
    /// up.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..KEYS)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let calibration = Calibration { keys };
        for _ in 0..WARM_UP_RUNS {
            calibration.job();
        }
        calibration
    }

    /// Run the job once and return its wall time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        let start = Instant::now();
        self.job();
        start.elapsed().as_secs_f64() * 1e3
    }

    fn job(&self) {
        // A fixed hasher, so the table's layout is the same in every
        // process.
        let mut map: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for (i, k) in self.keys.iter().enumerate() {
            map.insert(k % MAP_SLOTS, i);
        }
        let hits = (0..MAP_SLOTS).filter(|k| map.contains_key(k)).count();
        black_box(hits);
        drop(map);

        let mut sorted = self.keys.clone();
        sorted.sort_unstable();
        black_box(&sorted);
        drop(sorted);

        let tree: BTreeMap<String, u64> = self.keys[..STRING_KEYS]
            .iter()
            .map(|k| (format!("{k:x}"), k & 0xff))
            .collect();
        black_box(tree.len());
    }
}

/// Scale timed intervals to the reference host's speed. Interval
/// `times[i]` ran between calibration jobs `calibrations[i]` and
/// `calibrations[i + 1]`, so there is one more calibration than
/// intervals.
pub fn scale(times: &[f64], calibrations: &[f64]) -> Vec<f64> {
    assert_eq!(
        calibrations.len(),
        times.len() + 1,
        "one calibration before each interval and one after the last"
    );
    times
        .iter()
        .zip(calibrations.windows(2))
        .map(|(t, c)| t * CALIBRATION_MS / ((c[0] + c[1]) / 2.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_slowing_down_evenly_leaves_scaled_times_unchanged() {
        let fast = scale(&[100.0, 200.0], &[15.0, 15.0, 15.0]);
        assert_eq!(fast, vec![100.0, 200.0]);
        // The second interval ran while the host took twice as long.
        let slowed = scale(&[100.0, 400.0], &[15.0, 30.0, 30.0]);
        assert_eq!(slowed, vec![100.0 / 1.5, 200.0]);
    }

    #[test]
    #[should_panic(expected = "one calibration before each interval")]
    fn every_interval_needs_calibrations_on_both_sides() {
        scale(&[100.0, 200.0], &[15.0, 15.0]);
    }
}
