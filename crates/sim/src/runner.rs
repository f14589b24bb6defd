//! The one parallel map of the workspace: [`run_indexed`].
//!
//! Every experiment harness in this workspace is a grid of *independent*
//! seeded runs — Table 3 is a cipher×tool×size grid, the resilience sweep
//! is storage-era×retry-policy, the GlusterFS campaign is trials×versions
//! — and the data-parallel kernels (rsync block signatures, the MapReduce
//! map and reduce phases) are batches of independent chunks. Each task
//! owns its inputs, seed and metric shard, so what must **not** change
//! with the worker count is any observable artifact: stdout tables, JSONL
//! traces, scorecards.
//!
//! [`run_indexed`] executes a `Vec` of closures on `std::thread::scope`
//! workers sharing one queue and returns the results **in submission
//! order**, which is the whole determinism story:
//!
//! * Workers pull `(index, task)` pairs from a single mutex-guarded
//!   iterator; the lock covers only the pull, never a task.
//! * Results are placed by submission index; which worker computed a
//!   result is unobservable.
//! * Nothing in the map consults the wall clock, a global RNG, or thread
//!   ids. Per-scenario randomness must come from seeds derived from the
//!   scenario *index* (see [`derive_seed`]), so a scenario's stream is
//!   identical whichever worker runs it.
//! * A panicking task re-raises its own payload on the caller, at any
//!   worker count, just as the serial loop would.
//!
//! `jobs <= 1` never spawns a thread: tasks run inline on the caller, in
//! submission order.

use std::sync::{Mutex, PoisonError};

/// Number of workers the host offers, the default for `--jobs`.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derive the seed for scenario `index` from a harness base seed.
///
/// One SplitMix64 step over a golden-ratio stride: indices 0, 1, 2, …
/// yield decorrelated 64-bit seeds, and the mapping depends on nothing
/// but `(base, index)` — never on which worker runs the scenario. Grids
/// that predate the runner keep their published `SEED + k` conventions;
/// new grids should use this.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run every task on up to `jobs` workers and return the results in
/// **submission order**. Each closure receives its submission index (the
/// input for [`derive_seed`]).
///
/// With `jobs <= 1`, or at most one task, the tasks run inline on the
/// calling thread, in order — no threads, no locks. Otherwise
/// `min(jobs, tasks.len())` scoped workers pull tasks from one shared
/// queue until it drains. A panicking task stops its worker; once every
/// worker has stopped, a panicking task's own payload is re-raised on the
/// caller.
pub fn run_indexed<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce(usize) -> T + Send,
{
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        return tasks.into_iter().enumerate().map(|(i, f)| f(i)).collect();
    }
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let joined = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The guard is a temporary: it drops before the
                        // task runs. Only `next()` runs under the lock, so
                        // the queue is valid even if the lock is poisoned.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, f)) = next else { break };
                        done.push((i, f(i)));
                    }
                    done
                })
            })
            .collect();
        // Join every handle ourselves: a panic left for the scope to find
        // would be replaced by a generic "a scoped thread panicked".
        let mut results = Vec::with_capacity(n);
        let mut panic = None;
        for worker in workers {
            match worker.join() {
                Ok(done) => results.extend(done),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        panic.map_or(Ok(results), Err)
    });
    match joined {
        Ok(mut results) => {
            results.sort_unstable_by_key(|&(i, _)| i);
            results.into_iter().map(|(_, r)| r).collect()
        }
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        for jobs in [1usize, 2, 3, 8, 17] {
            let tasks: Vec<_> = (0..50u64)
                .map(|k| move |i: usize| (i as u64, k * 3))
                .collect();
            let out = run_indexed(jobs, tasks);
            for (i, (idx, v)) in out.iter().enumerate() {
                assert_eq!(*idx, i as u64, "jobs={jobs}");
                assert_eq!(*v, i as u64 * 3, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn serial_path_runs_inline_in_order() {
        // jobs=1 must execute on the calling thread, strictly in order.
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let tasks: Vec<_> = (0..10usize)
            .map(|_| {
                |i: usize| {
                    assert_eq!(std::thread::current().id(), caller);
                    seen.lock().expect("seen").push(i);
                    i
                }
            })
            .collect();
        let out = run_indexed(1, tasks);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(*seen.lock().expect("seen"), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..97usize)
            .map(|_| {
                |i: usize| {
                    count.fetch_add(1, Ordering::Relaxed);
                    i * i
                }
            })
            .collect();
        let out = run_indexed(8, tasks);
        assert_eq!(count.load(Ordering::Relaxed), 97);
        assert_eq!(out, (0..97).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_workloads_still_order() {
        // Heavy tasks clump on low indices; the shared queue spreads them
        // without disturbing result order.
        let tasks: Vec<_> = (0..24usize)
            .map(|k| {
                move |i: usize| {
                    let spin = if k < 4 { 200_000u64 } else { 200 };
                    let mut acc = i as u64;
                    for j in 0..spin {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(j);
                    }
                    (i, acc)
                }
            })
            .collect();
        let out = run_indexed(4, tasks);
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
        }
    }

    #[test]
    fn more_jobs_than_tasks_is_fine() {
        let out = run_indexed(64, (0..3usize).map(|_| |i: usize| i).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let out: Vec<u32> = run_indexed(4, Vec::<fn(usize) -> u32>::new());
        assert!(out.is_empty());
    }

    fn failing_cells() -> Vec<impl FnOnce(usize) -> usize + Send> {
        (0..6usize)
            .map(|_| {
                |i: usize| {
                    assert!(i != 3, "cell {i} failed");
                    i
                }
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "cell 3 failed")]
    fn serial_panic_keeps_its_message() {
        run_indexed(1, failing_cells());
    }

    #[test]
    #[should_panic(expected = "cell 3 failed")]
    fn parallel_panic_keeps_its_message() {
        run_indexed(2, failing_cells());
    }

    #[test]
    fn derive_seed_is_pure_and_spread() {
        assert_eq!(derive_seed(2012, 0), derive_seed(2012, 0));
        assert_ne!(derive_seed(2012, 0), derive_seed(2012, 1));
        assert_ne!(derive_seed(2012, 0), derive_seed(2013, 0));
        // Neighbouring indices should differ in many bits, not one.
        let d = derive_seed(7, 3) ^ derive_seed(7, 4);
        assert!(d.count_ones() > 8, "{d:b}");
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        // Zero workers means the inline serial path, not an empty crew.
        let caller = std::thread::current().id();
        let out = run_indexed(
            0,
            (0..4usize)
                .map(|_| {
                    |i: usize| {
                        assert_eq!(std::thread::current().id(), caller);
                        i
                    }
                })
                .collect(),
        );
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(available_jobs() >= 1);
    }
}
