//! A MapReduce engine that runs on the caller.
//!
//! Generic over mapper and reducer functions; the dataflow is the Hadoop
//! classic — map → shuffle → reduce — run inline: every input is mapped,
//! in input order, into one `BTreeMap` from each intermediate key to its
//! values (the shuffle), and each key is then reduced in key order. The
//! cluster's parallelism is modelled by HDFS placement and
//! [`TaskScheduler`](crate::TaskScheduler) slots, not by OS threads, so a
//! job's output and [`JobCounts`] are a function of its inputs alone.

use std::collections::BTreeMap;

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

/// Run a MapReduce job over `inputs`.
///
/// * `mapper(input, emit)` — called once per input record, in input
///   order; emits intermediate `(K2, V2)` pairs through `emit`.
/// * `reducer(key, values)` — called once per distinct key, in key
///   order, with that key's values in input order, then emit order.
///
/// The job records no telemetry: its account is [`JobCounts`].
///
/// ```
/// use osdc_mapreduce::run_job;
///
/// // Word count, the canonical job.
/// let docs = vec!["big data big cloud", "cloud cloud"];
/// let result = run_job(
///     docs,
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
pub fn run_job<I, K2, V2, O, M, R>(inputs: Vec<I>, mapper: M, reducer: R) -> JobResult<K2, O>
where
    K2: Ord,
    M: Fn(I, &mut dyn FnMut(K2, V2)),
    R: Fn(&K2, Vec<V2>) -> O,
{
    let map_input_records = inputs.len() as u64;
    let mut map_output_records = 0u64;
    let mut groups: BTreeMap<K2, Vec<V2>> = BTreeMap::new();
    for input in inputs {
        mapper(input, &mut |k, v| {
            map_output_records += 1;
            groups.entry(k).or_default().push(v);
        });
    }
    // One output pair per key group.
    let output: Vec<(K2, O)> = groups
        .into_iter()
        .map(|(k, vs)| {
            let o = reducer(&k, vs);
            (k, o)
        })
        .collect();
    let reduced = output.len() as u64;
    JobResult {
        output,
        counts: JobCounts {
            map_input_records,
            map_output_records,
            reduce_input_groups: reduced,
            reduce_output_records: reduced,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wordcount(texts: Vec<&str>) -> Vec<(String, u64)> {
        run_job(
            texts,
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
        let out = wordcount(vec!["big data big cloud", "cloud cloud"]);
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
    fn empty_input() {
        let out = wordcount(vec![]);
        assert!(out.is_empty());
    }

    #[test]
    fn counters_account_for_records() {
        let result = run_job(
            vec![1u32, 2, 3, 4, 5],
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
            |s, emit| emit(s.to_string(), 1u32),
            |_k, vs| vs.len(),
        );
        let keys: Vec<&str> = result.output.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }
}
