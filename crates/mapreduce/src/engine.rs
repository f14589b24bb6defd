//! A real MapReduce engine on the workspace's parallel map
//! ([`osdc_sim::run_indexed`]).
//!
//! Generic over mapper and reducer functions; the dataflow is the Hadoop
//! classic: split → parallel map (one task per input chunk) →
//! hash-partition shuffle → per-partition sort → parallel reduce (one
//! task per partition) → merged output. Reducers see each key's values
//! grouped; output order is made deterministic by sorting keys, so runs
//! are reproducible regardless of thread interleaving. Each task returns
//! its record counts, and the job sums them into [`JobCounts`].

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Tuning for one job.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Parallel map workers.
    pub map_workers: usize,
    /// Reduce partitions (each is one reduce task).
    pub reducers: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            map_workers: osdc_sim::available_jobs(),
            reducers: 4,
        }
    }
}

/// Record counts of a completed job, in the Hadoop counters' terms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobCounts {
    pub map_input_records: u64,
    pub map_output_records: u64,
    pub reduce_input_groups: u64,
    pub reduce_output_records: u64,
}

/// Output of a completed job.
#[derive(Debug)]
pub struct JobResult<K2, O> {
    /// `(key, reduced value)` pairs, sorted by key.
    pub output: Vec<(K2, O)>,
    pub counts: JobCounts,
}

fn partition_of<K: Hash>(key: &K, reducers: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % reducers as u64) as usize
}

/// Run a MapReduce job over `inputs`.
///
/// * `mapper(input, emit)` — called once per input record, in parallel;
///   emits intermediate `(K2, V2)` pairs through `emit`.
/// * `reducer(key, values)` — called once per distinct key with all its
///   values (sorted by arrival partition then map order), in parallel
///   across partitions.
///
/// The job records no telemetry: its account is [`JobCounts`], which the
/// calling thread sums from the counts each map and reduce task returns.
///
/// ```
/// use osdc_mapreduce::{run_job, JobConfig};
///
/// // Word count, the canonical job.
/// let docs = vec!["big data big cloud", "cloud cloud"];
/// let result = run_job(
///     docs,
///     &JobConfig::default(),
///     |doc, emit| {
///         for word in doc.split_whitespace() {
///             emit(word.to_string(), 1u64);
///         }
///     },
///     |_word, counts| counts.iter().sum::<u64>(),
/// );
/// assert_eq!(
///     result.output,
///     vec![("big".into(), 2), ("cloud".into(), 3), ("data".into(), 1)],
/// );
/// ```
pub fn run_job<I, K2, V2, O, M, R>(
    inputs: Vec<I>,
    config: &JobConfig,
    mapper: M,
    reducer: R,
) -> JobResult<K2, O>
where
    I: Send,
    K2: Ord + Hash + Send + Clone,
    V2: Send,
    O: Send,
    M: Fn(I, &mut dyn FnMut(K2, V2)) + Sync,
    R: Fn(&K2, Vec<V2>) -> O + Sync,
{
    assert!(config.map_workers >= 1 && config.reducers >= 1);
    let reducers = config.reducers;

    // ---- Map phase -------------------------------------------------------
    // Chunk inputs across workers; each worker produces per-partition
    // buffers so the shuffle is a cheap concatenation.
    let n_inputs = inputs.len();
    let chunk_size = n_inputs.div_ceil(config.map_workers).max(1);
    let mut chunks: Vec<Vec<I>> = Vec::new();
    {
        let mut it = inputs.into_iter();
        loop {
            let chunk: Vec<I> = it.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
    }
    let mapper = &mapper;
    let map_tasks = chunks
        .into_iter()
        .map(|chunk| {
            move |_: usize| {
                let mut partitions: Vec<Vec<(K2, V2)>> =
                    (0..reducers).map(|_| Vec::new()).collect();
                let mut emitted = 0u64;
                for input in chunk {
                    mapper(input, &mut |k, v| {
                        emitted += 1;
                        let p = partition_of(&k, reducers);
                        partitions[p].push((k, v));
                    });
                }
                (partitions, emitted)
            }
        })
        .collect::<Vec<_>>();
    let mapped = osdc_sim::run_indexed(map_tasks.len(), map_tasks);
    let map_output_records = mapped.iter().map(|(_, emitted)| emitted).sum();

    // ---- Shuffle ----------------------------------------------------------
    // Group each partition's pairs by key (BTreeMap gives sorted keys, so
    // the reduce phase is deterministic).
    let mut partitions: Vec<BTreeMap<K2, Vec<V2>>> =
        (0..reducers).map(|_| BTreeMap::new()).collect();
    for (worker, _) in mapped {
        for (p, pairs) in worker.into_iter().enumerate() {
            for (k, v) in pairs {
                partitions[p].entry(k).or_default().push(v);
            }
        }
    }

    // ---- Reduce phase ------------------------------------------------------
    // One output pair per key group, so a task's output length is its
    // group count.
    let reducer = &reducer;
    let reduce_tasks = partitions
        .into_iter()
        .map(|partition| {
            move |_: usize| {
                partition
                    .into_iter()
                    .map(|(k, vs)| {
                        let o = reducer(&k, vs);
                        (k, o)
                    })
                    .collect::<Vec<_>>()
            }
        })
        .collect::<Vec<_>>();
    let reduced = osdc_sim::run_indexed(reduce_tasks.len(), reduce_tasks);
    let reduce_input_groups = reduced.iter().map(|part| part.len() as u64).sum();

    let mut output: Vec<(K2, O)> = reduced.into_iter().flatten().collect();
    output.sort_by(|a, b| a.0.cmp(&b.0));
    let counts = JobCounts {
        map_input_records: n_inputs as u64,
        map_output_records,
        reduce_input_groups,
        reduce_output_records: output.len() as u64,
    };
    JobResult { output, counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wordcount(texts: Vec<&str>, config: &JobConfig) -> Vec<(String, u64)> {
        run_job(
            texts,
            config,
            |text, emit| {
                for w in text.split_whitespace() {
                    emit(w.to_string(), 1u64);
                }
            },
            |_k, vs| vs.iter().sum::<u64>(),
        )
        .output
    }

    #[test]
    fn wordcount_basics() {
        let out = wordcount(
            vec!["big data big cloud", "cloud cloud"],
            &JobConfig::default(),
        );
        assert_eq!(
            out,
            vec![
                ("big".to_string(), 2),
                ("cloud".to_string(), 3),
                ("data".to_string(), 1),
            ]
        );
    }

    #[test]
    fn output_independent_of_parallelism() {
        let texts: Vec<String> = (0..200)
            .map(|i| format!("w{} w{} shared", i % 17, i % 5))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let baseline = wordcount(
            refs.clone(),
            &JobConfig {
                map_workers: 1,
                reducers: 1,
            },
        );
        for (workers, reducers) in [(2, 3), (4, 4), (8, 2), (3, 7)] {
            let out = wordcount(
                refs.clone(),
                &JobConfig {
                    map_workers: workers,
                    reducers,
                },
            );
            assert_eq!(out, baseline, "workers={workers} reducers={reducers}");
        }
    }

    #[test]
    fn empty_input() {
        let out = wordcount(vec![], &JobConfig::default());
        assert!(out.is_empty());
    }

    #[test]
    fn counters_account_for_records() {
        let result = run_job(
            vec![1u32, 2, 3, 4, 5],
            &JobConfig {
                map_workers: 2,
                reducers: 2,
            },
            |n, emit| {
                emit(n % 2, n as u64); // parity buckets
            },
            |_k, vs| vs.len(),
        );
        assert_eq!(
            result.counts,
            JobCounts {
                map_input_records: 5,
                map_output_records: 5,
                reduce_input_groups: 2,
                reduce_output_records: 2,
            }
        );
        assert_eq!(result.output, vec![(0u32, 2usize), (1, 3)]);
    }

    #[test]
    fn mapper_can_emit_nothing_or_many() {
        let result = run_job(
            vec![0u32, 1, 2, 3],
            &JobConfig {
                map_workers: 2,
                reducers: 3,
            },
            |n, emit| {
                for i in 0..n {
                    emit("k", i);
                }
            },
            |_k, vs| vs.len(),
        );
        assert_eq!(result.output, vec![("k", 6)]);
    }

    #[test]
    fn reduce_values_complete() {
        // Sum of all emitted values survives the shuffle intact.
        let result = run_job(
            (0..1000u64).collect::<Vec<_>>(),
            &JobConfig {
                map_workers: 4,
                reducers: 5,
            },
            |n, emit| emit(n % 10, n),
            |_k, vs| vs.iter().sum::<u64>(),
        );
        let total: u64 = result.output.iter().map(|(_, s)| s).sum();
        assert_eq!(total, 499_500);
        assert_eq!(result.output.len(), 10);
    }

    #[test]
    fn keys_are_sorted_in_output() {
        let result = run_job(
            vec!["c", "a", "b", "a"],
            &JobConfig {
                map_workers: 2,
                reducers: 2,
            },
            |s, emit| emit(s.to_string(), 1u32),
            |_k, vs| vs.len(),
        );
        let keys: Vec<&str> = result.output.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }
}
