//! Cipher throughput microbenches.
//!
//! Table 3's encrypted rows are cipher-bound; `osdc-transfer` models the
//! era's single-core ceilings (Blowfish ≈ 397 mbit/s, 3DES ≈ 291 mbit/s
//! — see `BLOWFISH_MBPS` and `TRIPLE_DES_MBPS` in its `session` module).
//! These benches measure *this* workspace's real implementations so the
//! model constants can be sanity-checked against modern hardware (expect
//! today's cores to be several times faster).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use osdc_crypto::md5::{md5, md5_many};
use osdc_crypto::modes::CtrStream;
use osdc_crypto::{BlockCipher64, Blowfish, TripleDes};
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
    // The multi-block kernels behind the CTR slab refill (Blowfish's
    // AVX-512 and 4-lane kernels / table-driven DES sweeps), called
    // directly on blocks. `crates/crypto/tests/batched_equivalence.rs`
    // pins them to the per-block path; this leg times them and keeps them
    // under `cargo bench -- --test` smoke coverage.
    let mut group = c.benchmark_group("cipher_batched");
    let blocks = vec![0x5A5A_5A5A_5A5A_5A5Au64; MB / 8];
    group.throughput(Throughput::Bytes(MB as u64));
    let bf = Blowfish::new(b"table3 benchmark key");
    group.bench_function(BenchmarkId::new("blowfish_blocks", "1MiB"), |b| {
        b.iter(|| {
            let mut buf = blocks.clone();
            bf.encrypt_blocks_u64(&mut buf);
            buf
        })
    });
    let tdes = TripleDes::from_single(*b"rsync3ds");
    group.bench_function(BenchmarkId::new("3des_blocks", "1MiB"), |b| {
        b.iter(|| {
            let mut buf = blocks.clone();
            tdes.encrypt_blocks_u64(&mut buf);
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

fn bench_file_digests(c: &mut Criterion) {
    // A checksum-mode file list of `wan_sync`'s shape: 64 files of
    // 256 KiB, hashed one file at a time and four files at a time.
    let mut group = c.benchmark_group("file_digests");
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let files: Vec<Vec<u8>> = (0..64)
        .map(|_| {
            (0..256 << 10)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 24) as u8
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = files.iter().map(Vec::as_slice).collect();
    group.throughput(Throughput::Bytes(16 * MB as u64));
    group.bench_function(BenchmarkId::new("md5", "64x256KiB"), |b| {
        b.iter(|| {
            refs.iter()
                .map(|file| md5(black_box(file)))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function(BenchmarkId::new("md5_many", "64x256KiB"), |b| {
        b.iter(|| md5_many(black_box(&refs)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_block_ciphers, bench_batched, bench_stream, bench_file_digests
}
criterion_main!(benches);
