//! Model-based property tests: the parallel MapReduce engine must agree
//! with a trivially-correct sequential reference on arbitrary inputs and
//! configurations.

use std::collections::BTreeMap;

use osdc_mapreduce::{run_job, JobConfig, JobCounts};
use proptest::prelude::*;

/// Sequential reference implementation of grouped aggregation.
fn reference(pairs: &[(u32, i64)]) -> Vec<(u32, i64)> {
    let mut grouped: BTreeMap<u32, i64> = BTreeMap::new();
    for &(k, v) in pairs {
        *grouped.entry(k).or_insert(0) += v;
    }
    grouped.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engine_matches_reference(
        pairs in proptest::collection::vec((0u32..50, -1000i64..1000), 0..500),
        workers in 1usize..9,
        reducers in 1usize..9,
    ) {
        let result = run_job(
            pairs.clone(),
            &JobConfig { map_workers: workers, reducers },
            |(k, v), emit| emit(k, v),
            |_k, vs| vs.iter().sum::<i64>(),
        );
        prop_assert_eq!(result.output, reference(&pairs));
    }

    /// Emitted-record conservation: counters agree with the data.
    #[test]
    fn counters_are_exact(
        inputs in proptest::collection::vec(0u32..40, 0..300),
        workers in 1usize..6,
    ) {
        let n = inputs.len() as u64;
        let distinct = {
            let mut s = inputs.clone();
            s.sort_unstable();
            s.dedup();
            s.len() as u64
        };
        let result = run_job(
            inputs,
            &JobConfig { map_workers: workers, reducers: 3 },
            |k, emit| emit(k, 1u64),
            |_k, vs| vs.len(),
        );
        prop_assert_eq!(
            result.counts,
            JobCounts {
                map_input_records: n,
                map_output_records: n,
                reduce_input_groups: distinct,
                reduce_output_records: distinct,
            }
        );
    }

    /// Multi-emit mappers: every emitted pair reaches exactly one reducer.
    #[test]
    fn fanout_conservation(
        inputs in proptest::collection::vec(1u32..20, 1..100),
        workers in 1usize..5,
        reducers in 1usize..7,
    ) {
        let expected_total: u64 = inputs.iter().map(|&n| n as u64).sum();
        let result = run_job(
            inputs,
            &JobConfig { map_workers: workers, reducers },
            |n, emit| {
                for i in 0..n {
                    emit(i % 7, 1u64);
                }
            },
            |_k, vs| vs.iter().sum::<u64>(),
        );
        let total: u64 = result.output.iter().map(|(_, s)| s).sum();
        prop_assert_eq!(total, expected_total);
    }
}

/// Fair-share scheduling conserves task counts for arbitrary workloads.
mod fairshare_props {
    use super::*;
    use osdc_mapreduce::{run_fair_share, JobSpec};
    use osdc_sim::{SimDuration, SimTime};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn all_jobs_finish_and_work_conserved(
            jobs in proptest::collection::vec(
                (0usize..4, 1u32..40, 1u64..10, 0u64..1000),
                1..12
            ),
            slots in 1u32..50,
        ) {
            let tenants = ["a", "b", "c", "d"];
            let specs: Vec<JobSpec> = jobs
                .iter()
                .enumerate()
                .map(|(i, &(t, tasks, mins, at))| JobSpec {
                    tenant: tenants[t].into(),
                    name: format!("j{i}"),
                    tasks,
                    task_duration: SimDuration::from_mins(mins),
                    submitted_at: SimTime::ZERO + SimDuration::from_secs(at),
                })
                .collect();
            let expected_slot_secs: f64 = specs
                .iter()
                .map(|s| s.tasks as f64 * s.task_duration.as_secs_f64())
                .collect::<Vec<_>>()
                .iter()
                .sum();
            let (outcomes, shares) = run_fair_share(slots, specs.clone());
            prop_assert_eq!(outcomes.len(), specs.len(), "every job completes");
            let share_total: f64 = shares.values().sum();
            prop_assert!((share_total - expected_slot_secs).abs() < 1e-6);
            // No job finishes before it could possibly have (its own
            // critical path on an empty cluster).
            for (o, s) in outcomes.iter().zip(specs.iter().filter(|s| {
                outcomes.iter().any(|o| o.name == s.name)
            })) {
                let _ = (o, s);
            }
            for o in &outcomes {
                let spec = specs.iter().find(|s| s.name == o.name).expect("spec exists");
                let waves = spec.tasks.div_ceil(slots) as u64;
                let min_time = spec.submitted_at + spec.task_duration * waves;
                prop_assert!(o.finished_at >= min_time, "{} finished impossibly fast", o.name);
            }
        }
    }
}
