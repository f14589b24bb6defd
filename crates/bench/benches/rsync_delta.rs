//! rsync algorithm microbenches: rolling checksum scan, signature
//! computation at 1 and 4 MiB, delta generation on identical / edited /
//! disjoint inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use osdc_transfer::{compute_signatures, generate_delta, weak_checksum, RollingChecksum};
use std::hint::black_box;

fn pseudo_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

fn bench_rolling(c: &mut Criterion) {
    let data = pseudo_bytes(1 << 20, 1);
    let mut group = c.benchmark_group("rolling_checksum");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("roll_1MiB", |b| {
        b.iter(|| {
            let window = 2048;
            let mut rc = RollingChecksum::new(&data[..window]);
            let mut acc = 0u64;
            for i in 0..data.len() - window {
                rc.roll(data[i], data[i + window]);
                acc = acc.wrapping_add(rc.value() as u64);
            }
            black_box(acc)
        })
    });
    group.bench_function("direct_blocks_1MiB", |b| {
        b.iter(|| {
            data.chunks(2048)
                .map(|c| weak_checksum(c) as u64)
                .sum::<u64>()
        })
    });
    // The production prefix-sum initialization against the textbook
    // (l − i)·x multiply form it replaced, over the same 1 MiB of blocks.
    group.bench_function("weak_init_prefix_sum_1MiB", |b| {
        b.iter(|| {
            data.chunks(2048)
                .map(|c| RollingChecksum::new(black_box(c)).value() as u64)
                .sum::<u64>()
        })
    });
    group.bench_function("weak_init_multiply_reference_1MiB", |b| {
        b.iter(|| {
            data.chunks(2048)
                .map(|c| {
                    let c = black_box(c);
                    let mut a: u32 = 0;
                    let mut bb: u32 = 0;
                    let l = c.len() as u32;
                    for (i, &x) in c.iter().enumerate() {
                        a = a.wrapping_add(x as u32);
                        bb = bb.wrapping_add((l - i as u32).wrapping_mul(x as u32));
                    }
                    ((a & 0xFFFF) | (bb << 16)) as u64
                })
                .sum::<u64>()
        })
    });
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let mut group = c.benchmark_group("signatures");
    for mib in [1usize, 4] {
        let data = pseudo_bytes(mib << 20, 2);
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("compute", format!("{mib}MiB")),
            &data,
            |b, d| b.iter(|| compute_signatures(black_box(d), 2048)),
        );
    }
    group.finish();
}

fn bench_delta(c: &mut Criterion) {
    let basis = pseudo_bytes(1 << 20, 3);
    let sigs = compute_signatures(&basis, 2048);
    let identical = basis.clone();
    let mut edited = basis.clone();
    for b in &mut edited[500_000..500_100] {
        *b ^= 0xFF;
    }
    let disjoint = pseudo_bytes(1 << 20, 4);

    let mut group = c.benchmark_group("delta_generation");
    group.throughput(Throughput::Bytes(basis.len() as u64));
    for (label, new) in [
        ("identical", &identical),
        ("small_edit", &edited),
        ("disjoint", &disjoint),
    ] {
        group.bench_with_input(BenchmarkId::new("generate", label), new, |b, n| {
            b.iter(|| generate_delta(black_box(&sigs), black_box(n)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_rolling, bench_signatures, bench_delta
}
criterion_main!(benches);
