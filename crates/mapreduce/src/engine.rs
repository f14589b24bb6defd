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

use osdc_sim::SimTime;
use osdc_telemetry::Telemetry;

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
    run_job_traced(
        inputs,
        config,
        &Telemetry::disabled(),
        "job",
        SimTime::ZERO,
        mapper,
        reducer,
    )
}

/// [`run_job`] with telemetry: task/job spans plus engine counters.
///
/// The engine runs on real threads but is *instantaneous* on the sim
/// clock, so every span starts and ends at the caller-supplied `at` —
/// honest zero-duration markers that carry structure (job → map tasks →
/// reduce tasks) and attributes (records, emitted pairs, groups), not
/// wall-clock timings that would break same-seed reproducibility. Each
/// map and reduce task returns its counts; they are recorded into
/// telemetry on the calling thread once the parallel map returns, so no
/// worker touches the registry.
pub fn run_job_traced<I, K2, V2, O, M, R>(
    inputs: Vec<I>,
    config: &JobConfig,
    tele: &Telemetry,
    job: &str,
    at: SimTime,
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
    let job_span = tele.span_start(&format!("mapreduce/{job}"), at);
    let map_records_id = tele.counter("mapreduce.map.records");
    let map_emitted_id = tele.counter("mapreduce.map.emitted");
    let reduce_groups_id = tele.counter("mapreduce.reduce.groups");
    tele.incr(tele.counter("mapreduce.jobs"));

    // ---- Map phase -------------------------------------------------------
    // Chunk inputs across workers; each worker produces per-partition
    // buffers so the shuffle is a cheap concatenation.
    let n_inputs = inputs.len();
    let mut counts = JobCounts {
        map_input_records: n_inputs as u64,
        ..JobCounts::default()
    };
    tele.add(map_records_id, n_inputs as u64);
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
    for (i, (_, emitted)) in mapped.iter().enumerate() {
        counts.map_output_records += emitted;
        tele.add(map_emitted_id, *emitted);
        let span = tele.span_start(&format!("map/task{i}"), at);
        tele.attr(span, "emitted", *emitted);
        tele.span_end(span, at);
    }

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
    for (i, part) in reduced.iter().enumerate() {
        let groups = part.len() as u64;
        counts.reduce_input_groups += groups;
        tele.add(reduce_groups_id, groups);
        let span = tele.span_start(&format!("reduce/task{i}"), at);
        tele.attr(span, "groups", groups);
        tele.span_end(span, at);
    }

    let mut output: Vec<(K2, O)> = reduced.into_iter().flatten().collect();
    output.sort_by(|a, b| a.0.cmp(&b.0));
    counts.reduce_output_records = output.len() as u64;
    tele.attr(job_span, "output_records", output.len());
    tele.span_end(job_span, at);
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
    fn traced_job_fills_shards_and_spans() {
        let tele = Telemetry::new();
        let result = run_job_traced(
            vec!["big data big cloud", "cloud cloud"],
            &JobConfig {
                map_workers: 2,
                reducers: 2,
            },
            &tele,
            "wordcount",
            SimTime(5_000_000_000),
            |text, emit| {
                for w in text.split_whitespace() {
                    emit(w.to_string(), 1u64);
                }
            },
            |_k, vs| vs.iter().sum::<u64>(),
        );
        assert_eq!(result.output.len(), 3);
        // Telemetry counters agree with the job's own counts.
        assert_eq!(tele.counter_value("mapreduce.jobs"), 1);
        assert_eq!(tele.counter_value("mapreduce.map.records"), 2);
        assert_eq!(
            tele.counter_value("mapreduce.map.emitted"),
            result.counts.map_output_records
        );
        assert_eq!(
            tele.counter_value("mapreduce.reduce.groups"),
            result.counts.reduce_input_groups
        );
        let jsonl = tele.export_jsonl();
        assert!(jsonl.contains("mapreduce/wordcount"));
        assert!(jsonl.contains("map/task0"));
        assert!(jsonl.contains("reduce/task0"));
        // All spans sit at the caller's virtual instant — no wall time.
        assert!(jsonl.contains("\"t_ns\":5000000000"));
    }

    #[test]
    fn traced_job_matches_untraced_output() {
        let texts = vec!["a b a", "c b", "a"];
        let untraced = wordcount(
            texts.clone(),
            &JobConfig {
                map_workers: 3,
                reducers: 2,
            },
        );
        let traced = run_job_traced(
            texts,
            &JobConfig {
                map_workers: 3,
                reducers: 2,
            },
            &Telemetry::new(),
            "wc",
            SimTime::ZERO,
            |text, emit| {
                for w in text.split_whitespace() {
                    emit(w.to_string(), 1u64);
                }
            },
            |_k, vs| vs.iter().sum::<u64>(),
        )
        .output;
        assert_eq!(untraced, traced);
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
