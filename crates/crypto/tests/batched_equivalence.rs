//! Batched-kernel equivalence: the multi-block entry points (the
//! `encrypt_blocks_u64` overrides and the slab-refilled CTR keystream)
//! must produce byte-identical results to a strict one-block-at-a-time
//! reference for Blowfish, DES, and 3DES, at every message length from
//! empty through two 64-block CTR batches plus a ragged tail — covering
//! the 4-lane interleave remainder (0..4 blocks), Blowfish's 64-block
//! AVX-512 runs (where the CPU has AVX-512F) with and without a
//! remainder, and every partial-block CTR tail 0..2×block.

use osdc_crypto::{BlockCipher64, Blowfish, CtrStream, Des, TripleDes};

/// Wrapper that forbids batching: every call funnels through the
/// single-block method, i.e. the pre-batching behaviour.
struct PerBlock<'c, C: BlockCipher64>(&'c C);

impl<C: BlockCipher64> BlockCipher64 for PerBlock<'_, C> {
    fn encrypt_block_u64(&self, block: u64) -> u64 {
        self.0.encrypt_block_u64(block)
    }
    fn encrypt_blocks_u64(&self, blocks: &mut [u64]) {
        for b in blocks {
            *b = self.0.encrypt_block_u64(*b);
        }
    }
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect()
}

/// Block counts that exercise the interleave remainder and run
/// boundaries: 0..=9 blocks, then around 32 blocks and one and two
/// 64-block runs.
fn block_counts() -> impl Iterator<Item = usize> {
    (0..=9).chain([31, 32, 33, 63, 64, 65, 127, 128, 129])
}

/// Byte lengths for the CTR stream: every tail 0..2×block around each
/// block-count boundary.
fn byte_lengths() -> Vec<usize> {
    let mut lens: Vec<usize> = (0..=16).collect();
    for base in [8 * 31, 8 * 32, 8 * 64, 8 * 127, 8 * 128] {
        lens.extend((0..=16).map(|t| base + t));
    }
    lens
}

fn check_cipher<C: BlockCipher64>(cipher: &C, name: &str) {
    let reference = PerBlock(cipher);

    // Raw block batches: override == per-block loop.
    for nblocks in block_counts() {
        let blocks: Vec<u64> = (0..nblocks as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5bd1_e995)
            .collect();
        let mut batched = blocks.clone();
        let mut looped = blocks;
        cipher.encrypt_blocks_u64(&mut batched);
        reference.encrypt_blocks_u64(&mut looped);
        assert_eq!(batched, looped, "{name}: encrypt batch of {nblocks}");
    }

    // CTR: slab-refilled keystream == per-block keystream at every tail
    // length and under ragged chunking.
    for &len in &byte_lengths() {
        let pt = payload(len);
        let mut fast = pt.clone();
        CtrStream::new(cipher, 0xA5A5).apply(&mut fast);
        let mut slow = pt.clone();
        CtrStream::new(&reference, 0xA5A5).apply(&mut slow);
        assert_eq!(fast, slow, "{name}: CTR len {len}");
        let mut chunked = pt.clone();
        let mut s = CtrStream::new(cipher, 0xA5A5);
        for chunk in chunked.chunks_mut(5) {
            s.apply(chunk);
        }
        assert_eq!(chunked, slow, "{name}: CTR len {len} chunked");
    }
}

#[test]
fn blowfish_batched_equivalence() {
    check_cipher(&Blowfish::new(b"table3-udr-blowfish"), "blowfish");
}

#[test]
fn des_batched_equivalence() {
    check_cipher(&Des::new(*b"OSDCkey!"), "des");
}

#[test]
fn triple_des_batched_equivalence() {
    let mut key = [0u8; 24];
    for (i, b) in key.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(37).wrapping_add(11);
    }
    check_cipher(&TripleDes::new(key), "3des");
}
