//! Property tests for the deterministic parallel map.
//!
//! `run_indexed`'s contract is that *nothing observable depends on the
//! worker count*: results come back in submission order, every task runs
//! exactly once, and index-derived seeds are a pure function of
//! `(base, index)`.
//! These properties drive randomized task counts, per-task workloads and
//! job counts through the map and compare against the serial answer.

use std::sync::atomic::{AtomicUsize, Ordering};

use osdc_sim::{derive_seed, run_indexed};
use proptest::prelude::*;

/// The per-task payload: a seeded spin whose result depends on the
/// submission index and the declared weight, never on scheduling.
fn work(index: usize, weight: u64) -> u64 {
    let mut acc = derive_seed(0xC0FFEE, index as u64);
    for j in 0..weight {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(j);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn results_are_in_submission_order_for_any_jobs(
        weights in proptest::collection::vec(0u64..5_000, 0..40),
        jobs in 1usize..12,
    ) {
        let expected: Vec<u64> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| work(i, w))
            .collect();
        let tasks: Vec<_> = weights
            .iter()
            .map(|&w| move |i: usize| work(i, w))
            .collect();
        prop_assert_eq!(run_indexed(jobs, tasks), expected);
    }

    #[test]
    fn every_task_runs_exactly_once(
        n in 0usize..64,
        jobs in 1usize..12,
    ) {
        let ran = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..n)
            .map(|_| {
                |i: usize| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let out = run_indexed(jobs, tasks);
        prop_assert_eq!(ran.load(Ordering::Relaxed), n);
        prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial(
        weights in proptest::collection::vec(0u64..3_000, 1..24),
        jobs in 2usize..9,
    ) {
        let mk = |ws: &[u64]| -> Vec<_> {
            ws.iter().map(|&w| move |i: usize| work(i, w)).collect()
        };
        let serial = run_indexed(1, mk(&weights));
        let parallel = run_indexed(jobs, mk(&weights));
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn derive_seed_is_pure_and_injective_enough(
        base in any::<u64>(),
        index in 0u64..100_000,
    ) {
        prop_assert_eq!(derive_seed(base, index), derive_seed(base, index));
        // Neighbouring indices must decorrelate, not increment.
        let diff = derive_seed(base, index) ^ derive_seed(base, index + 1);
        prop_assert!(diff.count_ones() > 4, "{diff:064b}");
    }
}
