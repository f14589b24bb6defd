//! Cipher throughput microbenches.
//!
//! Table 3's encrypted rows are cipher-bound; `osdc-transfer` models the
//! era's single-core ceilings (Blowfish ≈ 397 mbit/s, 3DES ≈ 291 mbit/s
//! — see `CipherModel`). These benches measure *this* workspace's real
//! implementations so the model constants can be sanity-checked against
//! modern hardware (expect today's cores to be several times faster).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use osdc_crypto::modes::CtrStream;
use osdc_crypto::{ecb_encrypt, md5::md5, BlockCipher64, Blowfish, TripleDes};
use std::hint::black_box;

const MB: usize = 1 << 20;

fn bench_block_ciphers(c: &mut Criterion) {
    let mut group = c.benchmark_group("cipher_block");
    group.throughput(Throughput::Bytes(8));
    let bf = Blowfish::new(b"table3 benchmark key");
    group.bench_function("blowfish_encrypt_block", |b| {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        b.iter(|| {
            x = bf.encrypt_block_u64(black_box(x));
            x
        })
    });
    let tdes = TripleDes::from_single(*b"rsync3ds");
    group.bench_function("3des_encrypt_block", |b| {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        b.iter(|| {
            x = tdes.encrypt_block_u64(black_box(x));
            x
        })
    });
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    // The multi-block kernels behind `ecb_*`, CTR slab refill, and batched
    // CBC decrypt (4-lane interleaved Blowfish / table-driven DES sweeps).
    // `crates/crypto/tests/batched_equivalence.rs` pins them to the
    // per-block path; this leg times them and keeps them under
    // `cargo bench -- --test` smoke coverage.
    let mut group = c.benchmark_group("cipher_batched");
    let data = vec![0x5Au8; MB];
    group.throughput(Throughput::Bytes(MB as u64));
    let bf = Blowfish::new(b"table3 benchmark key");
    group.bench_function(BenchmarkId::new("blowfish_ecb", "1MiB"), |b| {
        b.iter(|| {
            let mut buf = data.clone();
            ecb_encrypt(&bf, &mut buf);
            buf
        })
    });
    let tdes = TripleDes::from_single(*b"rsync3ds");
    group.bench_function(BenchmarkId::new("3des_ecb", "1MiB"), |b| {
        b.iter(|| {
            let mut buf = data.clone();
            ecb_encrypt(&tdes, &mut buf);
            buf
        })
    });
    group.finish();
}

fn bench_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("cipher_stream");
    let data = vec![0xA5u8; MB];
    group.throughput(Throughput::Bytes(MB as u64));
    let bf = Blowfish::new(b"udr stream key");
    group.bench_function(BenchmarkId::new("blowfish_ctr", "1MiB"), |b| {
        b.iter(|| {
            let mut buf = data.clone();
            CtrStream::new(&bf, 42).apply(&mut buf);
            buf
        })
    });
    let tdes = TripleDes::from_single(*b"sshkey!!");
    group.bench_function(BenchmarkId::new("3des_ctr", "1MiB"), |b| {
        b.iter(|| {
            let mut buf = data.clone();
            CtrStream::new(&tdes, 42).apply(&mut buf);
            buf
        })
    });
    group.bench_function(BenchmarkId::new("md5", "1MiB"), |b| {
        b.iter(|| md5(black_box(&data)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_block_ciphers, bench_batched, bench_stream
}
criterion_main!(benches);
