//! MapReduce engine: one row per job — a word count over a synthetic
//! corpus and Matsu's flood detection over one default scene.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use osdc_mapreduce::run_job;

fn corpus(docs: usize) -> Vec<String> {
    (0..docs)
        .map(|i| {
            (0..200)
                .map(|j| format!("w{}", (i * 31 + j * 7) % 997))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn bench_wordcount(c: &mut Criterion) {
    let docs = corpus(400);
    let bytes: usize = docs.iter().map(String::len).sum();
    let mut group = c.benchmark_group("mapreduce_wordcount");
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("400_docs", |b| {
        b.iter(|| {
            run_job(
                docs.clone(),
                |doc: String, emit| {
                    for w in doc.split_whitespace() {
                        emit(w.to_string(), 1u64);
                    }
                },
                |_k, vs| vs.iter().sum::<u64>(),
            )
            .output
            .len()
        })
    });
    group.finish();
}

fn bench_matsu_detection(c: &mut Criterion) {
    use osdc::matsu::{detect_floods, generate_scene, SceneParams};
    let tiles = generate_scene(&SceneParams::default(), 7);
    let mut group = c.benchmark_group("matsu_flood_detection");
    group.throughput(Throughput::Elements(tiles.len() as u64));
    group.bench_function("default_scene", |b| {
        b.iter(|| detect_floods(tiles.clone()).flooded_tiles.len())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_wordcount, bench_matsu_detection
}
criterion_main!(benches);
