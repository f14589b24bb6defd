//! Parallel-map microbenches: dispatch overhead of `run_indexed`'s
//! shared-queue workers against the inline serial path, on task batches
//! shaped like the experiment grids (tens of cells, uneven weights).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use osdc_sim::{derive_seed, run_indexed};
use std::hint::black_box;

/// A seeded spin standing in for one grid cell: enough work that the
/// queue's locking is amortized, little enough that overhead would show.
fn cell(seed: u64, spins: u64) -> u64 {
    let mut acc = seed;
    for j in 0..spins {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(j);
    }
    acc
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("runner_dispatch");
    for tasks in [10usize, 60] {
        group.throughput(Throughput::Elements(tasks as u64));
        for jobs in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("jobs{jobs}"), format!("{tasks}tasks")),
                &tasks,
                |b, &n| {
                    b.iter(|| {
                        let batch: Vec<_> = (0..n)
                            .map(|_| {
                                |i: usize| cell(derive_seed(2012, i as u64), black_box(20_000))
                            })
                            .collect();
                        black_box(run_indexed(jobs, batch))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_uneven(c: &mut Criterion) {
    // Heavy cells clumped on low indices — the worst case for a static
    // split, and the shape of the Table 3 grid (1.1 TB transfers dwarf the
    // 108 GB ones).
    let mut group = c.benchmark_group("runner_uneven");
    for jobs in [1usize, 4] {
        group.bench_function(format!("clumped_24tasks_jobs{jobs}"), |b| {
            b.iter(|| {
                let batch: Vec<_> = (0..24usize)
                    .map(|k| {
                        move |i: usize| {
                            let spins = if k < 4 { 200_000 } else { 2_000 };
                            cell(derive_seed(7, i as u64), black_box(spins))
                        }
                    })
                    .collect();
                black_box(run_indexed(jobs, batch))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dispatch, bench_uneven
}
criterion_main!(benches);
