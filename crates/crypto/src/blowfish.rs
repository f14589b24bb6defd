//! Blowfish (Schneier, 1993) — the cipher UDR shipped with (§7.2).
//!
//! 64-bit block, 16 Feistel rounds, key-dependent S-boxes. The initial
//! P-array/S-box constants are π's hex digits, embedded as tables; the
//! [`crate::bbp`] digit extractor recomputes them in a test. Correctness
//! is pinned by the published Eric Young test vectors below.
//!
//! Only encryption is implemented: the CTR keystream is the one mode,
//! and it never decrypts a block. Batched encryption sends each whole run
//! of 64 blocks through an AVX-512 kernel where the running CPU has
//! AVX-512F (checked at run time): 16 blocks per register, their S-box
//! lookups done by 16-lane gathers. The rest, and everything on other
//! CPUs, runs four blocks at a time, then one. Every path gives the
//! one-block bytes.

use crate::modes::BlockCipher64;
use crate::pi_tables::{PI_P, PI_S};

const ROUNDS: usize = 16;

/// A keyed Blowfish instance.
#[derive(Clone)]
pub struct Blowfish {
    p: [u32; ROUNDS + 2],
    s: [[u32; 256]; 4],
}

impl Blowfish {
    /// Key length must be 1..=56 bytes (448 bits), per the specification.
    pub fn new(key: &[u8]) -> Self {
        assert!(
            !key.is_empty() && key.len() <= 56,
            "Blowfish key must be 1..=56 bytes, got {}",
            key.len()
        );
        let mut bf = Blowfish { p: PI_P, s: PI_S };
        // XOR the key cyclically into the P-array.
        let mut key_pos = 0;
        for p in bf.p.iter_mut() {
            let mut word = 0u32;
            for _ in 0..4 {
                word = (word << 8) | key[key_pos] as u32;
                key_pos = (key_pos + 1) % key.len();
            }
            *p ^= word;
        }
        // Replace P and S entries by repeatedly encrypting the zero block.
        let mut block = (0u32, 0u32);
        for i in (0..ROUNDS + 2).step_by(2) {
            block = bf.encrypt_words(block.0, block.1);
            bf.p[i] = block.0;
            bf.p[i + 1] = block.1;
        }
        for sbox in 0..4 {
            for i in (0..256).step_by(2) {
                block = bf.encrypt_words(block.0, block.1);
                bf.s[sbox][i] = block.0;
                bf.s[sbox][i + 1] = block.1;
            }
        }
        bf
    }

    #[inline]
    fn feistel(&self, x: u32) -> u32 {
        let a = (x >> 24) as usize;
        let b = (x >> 16 & 0xFF) as usize;
        let c = (x >> 8 & 0xFF) as usize;
        let d = (x & 0xFF) as usize;
        (self.s[0][a].wrapping_add(self.s[1][b]) ^ self.s[2][c]).wrapping_add(self.s[3][d])
    }

    /// Encrypt one block given as two big-endian words.
    #[inline]
    pub fn encrypt_words(&self, mut l: u32, mut r: u32) -> (u32, u32) {
        for i in 0..ROUNDS {
            l ^= self.p[i];
            r ^= self.feistel(l);
            std::mem::swap(&mut l, &mut r);
        }
        std::mem::swap(&mut l, &mut r);
        r ^= self.p[ROUNDS];
        l ^= self.p[ROUNDS + 1];
        (l, r)
    }

    /// Run four independent blocks through the 16 rounds at once, the
    /// rounds' subkeys given two at a time, then whiten the output halves
    /// with `out_hi` and `out_lo`. Each Feistel round's four table lookups
    /// are data-dependent on the previous round, so a single block
    /// serializes on memory latency; four lanes give the core independent
    /// loads to overlap.
    ///
    /// Every lane's halves are locals of their own, and one iteration runs
    /// two rounds, so the halves trade roles without a swap: lanes held in
    /// `[u32; 4]` arrays and swapped every round may be packed two to a
    /// 64-bit register, which costs shifts to pack and unpack every round.
    #[inline(always)]
    fn rounds4(
        &self,
        quad: &mut [u64; 4],
        pairs: impl Iterator<Item = (u32, u32)>,
        out_hi: u32,
        out_lo: u32,
    ) {
        let [mut l0, mut l1, mut l2, mut l3] = quad.map(|b| (b >> 32) as u32);
        let [mut r0, mut r1, mut r2, mut r3] = quad.map(|b| b as u32);
        for (first, second) in pairs {
            l0 ^= first;
            l1 ^= first;
            l2 ^= first;
            l3 ^= first;
            r0 ^= self.feistel(l0);
            r1 ^= self.feistel(l1);
            r2 ^= self.feistel(l2);
            r3 ^= self.feistel(l3);
            r0 ^= second;
            r1 ^= second;
            r2 ^= second;
            r3 ^= second;
            l0 ^= self.feistel(r0);
            l1 ^= self.feistel(r1);
            l2 ^= self.feistel(r2);
            l3 ^= self.feistel(r3);
        }
        // The last round's swap is undone, so `r` leaves as the high half.
        let join = |r: u32, l: u32| (((r ^ out_hi) as u64) << 32) | (l ^ out_lo) as u64;
        *quad = [join(r0, l0), join(r1, l1), join(r2, l2), join(r3, l3)];
    }

    /// Four-lane encryption; bytes are identical to four `encrypt_words`
    /// calls.
    #[inline]
    fn encrypt4(&self, quad: &mut [u64; 4]) {
        let pairs = self.p[..ROUNDS].as_chunks::<2>().0.iter();
        let (hi, lo) = (self.p[ROUNDS + 1], self.p[ROUNDS]);
        self.rounds4(quad, pairs.map(|&[a, b]| (a, b)), hi, lo);
    }

    /// Encrypt every whole run of [`WIDE_BLOCKS`] blocks at the front of
    /// `blocks` on the AVX-512 kernel, if the running CPU has AVX-512F,
    /// and return the blocks it left.
    fn encrypt_wide<'b>(&self, blocks: &'b mut [u64]) -> &'b mut [u64] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            let (runs, rest) = blocks.as_chunks_mut::<WIDE_BLOCKS>();
            for run in runs {
                // SAFETY: `encrypt64_avx512` requires only that the CPU
                // has AVX-512F, which `is_x86_feature_detected!` has just
                // reported.
                unsafe { self.encrypt64_avx512(run) }
            }
            return rest;
        }
        blocks
    }

    /// Sixty-four blocks at once: four chains of sixteen blocks, one block
    /// per 32-bit lane, with a chain's two halves in two registers. Each
    /// round reads the S-boxes with one 16-lane gather per box, and the
    /// four chains' rounds are interleaved so that one chain's gathers
    /// wait on memory while another's issue. Bytes are identical to
    /// sixty-four `encrypt_words` calls.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn encrypt64_avx512(&self, run: &mut [u64; WIDE_BLOCKS]) {
        use std::arch::x86_64::{
            __m512i, _mm512_add_epi32, _mm512_and_si512, _mm512_i32gather_epi32,
            _mm512_loadu_si512, _mm512_permutex2var_epi32, _mm512_set1_epi32, _mm512_setr_epi32,
            _mm512_srli_epi32, _mm512_storeu_si512, _mm512_xor_si512,
        };

        // A register of eight blocks holds each block's low word in an
        // even lane and its high word in the next, odd lane.
        let high = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
        let low = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        let join_first = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
        let join_second =
            _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
        let byte = _mm512_set1_epi32(0xff);
        let sbox = self.s.each_ref().map(|s| s.as_ptr());
        let subkey = |word: u32| _mm512_set1_epi32(word.cast_signed());
        let feistel = |x: __m512i| -> __m512i {
            let a = _mm512_srli_epi32::<24>(x);
            let b = _mm512_and_si512(_mm512_srli_epi32::<16>(x), byte);
            let c = _mm512_and_si512(_mm512_srli_epi32::<8>(x), byte);
            let d = _mm512_and_si512(x, byte);
            // SAFETY: each gather reads sixteen 4-byte words at
            // `sbox[k] + 4 * index`. Every index is one byte of `x`
            // (`x >> 24`, or a shift masked with 0xff), so it is below
            // 256, and each `sbox[k]` points at a `[u32; 256]` S-box that
            // `self` holds for the call: every read lies inside it.
            let [sa, sb, sc, sd] = unsafe {
                [
                    _mm512_i32gather_epi32::<4>(a, sbox[0].cast()),
                    _mm512_i32gather_epi32::<4>(b, sbox[1].cast()),
                    _mm512_i32gather_epi32::<4>(c, sbox[2].cast()),
                    _mm512_i32gather_epi32::<4>(d, sbox[3].cast()),
                ]
            };
            _mm512_add_epi32(_mm512_xor_si512(_mm512_add_epi32(sa, sb), sc), sd)
        };

        // Chain `k` is the eight-block runs `2k` and `2k + 1`.
        let (eights, _) = run.as_chunks_mut::<8>();
        // SAFETY: each load reads 64 bytes from the start of one
        // `[u64; 8]` of `run`, which the caller holds.
        let loaded: [__m512i; 8] =
            std::array::from_fn(|i| unsafe { _mm512_loadu_si512(eights[i].as_ptr().cast()) });
        let mut l: [__m512i; 4] = std::array::from_fn(|k| {
            _mm512_permutex2var_epi32(loaded[2 * k], high, loaded[2 * k + 1])
        });
        let mut r: [__m512i; 4] = std::array::from_fn(|k| {
            _mm512_permutex2var_epi32(loaded[2 * k], low, loaded[2 * k + 1])
        });
        for &[first, second] in self.p[..ROUNDS].as_chunks::<2>().0 {
            let (first, second) = (subkey(first), subkey(second));
            for x in &mut l {
                *x = _mm512_xor_si512(*x, first);
            }
            for k in 0..4 {
                r[k] = _mm512_xor_si512(r[k], feistel(l[k]));
            }
            for x in &mut r {
                *x = _mm512_xor_si512(*x, second);
            }
            for k in 0..4 {
                l[k] = _mm512_xor_si512(l[k], feistel(r[k]));
            }
        }
        // As in `rounds4`, `r` leaves as the high half.
        let (out_hi, out_lo) = (subkey(self.p[ROUNDS + 1]), subkey(self.p[ROUNDS]));
        for (pair, (l, r)) in eights
            .as_chunks_mut::<2>()
            .0
            .iter_mut()
            .zip(l.into_iter().zip(r))
        {
            let (lo, hi) = (_mm512_xor_si512(l, out_lo), _mm512_xor_si512(r, out_hi));
            let joined = [
                _mm512_permutex2var_epi32(lo, join_first, hi),
                _mm512_permutex2var_epi32(lo, join_second, hi),
            ];
            for (eight, x) in pair.iter_mut().zip(joined) {
                // SAFETY: the store writes 64 bytes from the start of one
                // `[u64; 8]` of `run`, which the caller holds mutably.
                unsafe { _mm512_storeu_si512(eight.as_mut_ptr().cast(), x) }
            }
        }
    }
}

/// Blocks per call of the AVX-512 kernel: four chains of sixteen lanes.
#[cfg(target_arch = "x86_64")]
const WIDE_BLOCKS: usize = 64;

impl BlockCipher64 for Blowfish {
    fn encrypt_block_u64(&self, block: u64) -> u64 {
        let (l, r) = self.encrypt_words((block >> 32) as u32, block as u32);
        (l as u64) << 32 | r as u64
    }

    fn encrypt_blocks_u64(&self, blocks: &mut [u64]) {
        let (quads, rest) = self.encrypt_wide(blocks).as_chunks_mut::<4>();
        for quad in quads {
            self.encrypt4(quad);
        }
        for b in rest {
            *b = self.encrypt_block_u64(*b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::BlockCipher64;
    use proptest::prelude::*;

    fn hex_u64(s: &str) -> u64 {
        u64::from_str_radix(s, 16).unwrap()
    }

    fn key_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Published Blowfish test vectors (Eric Young's set, as distributed
    /// with the reference implementation).
    const VECTORS: &[(&str, &str, &str)] = &[
        ("0000000000000000", "0000000000000000", "4EF997456198DD78"),
        ("FFFFFFFFFFFFFFFF", "FFFFFFFFFFFFFFFF", "51866FD5B85ECB8A"),
        ("3000000000000000", "1000000000000001", "7D856F9A613063F2"),
        ("1111111111111111", "1111111111111111", "2466DD878B963C9D"),
        ("0123456789ABCDEF", "1111111111111111", "61F9C3802281B096"),
        ("1111111111111111", "0123456789ABCDEF", "7D0CC630AFDA1EC7"),
        ("FEDCBA9876543210", "0123456789ABCDEF", "0ACEAB0FC6A0A28D"),
        ("7CA110454A1A6E57", "01A1D6D039776742", "59C68245EB05282B"),
        ("0131D9619DC1376E", "5CD54CA83DEF57DA", "B1B8CC0B250F09A0"),
        ("07A1133E4A0B2686", "0248D43806F67172", "1730E5778BEA1DA4"),
    ];

    #[test]
    fn published_vectors_encrypt() {
        for (key, pt, ct) in VECTORS {
            let bf = Blowfish::new(&key_bytes(key));
            assert_eq!(
                bf.encrypt_block_u64(hex_u64(pt)),
                hex_u64(ct),
                "key={key} pt={pt}"
            );
        }
    }

    #[test]
    fn variable_key_lengths() {
        // The key is XORed into the P-array cyclically, so a key of one
        // repeated byte keys the same cipher at every accepted length.
        let want = Blowfish::new(&[0xAB]).encrypt_block_u64(42);
        for len in [8usize, 16, 24, 56] {
            let bf = Blowfish::new(&vec![0xABu8; len]);
            assert_eq!(bf.encrypt_block_u64(42), want, "key length {len}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_key_rejected() {
        Blowfish::new(&[]);
    }

    #[test]
    #[should_panic]
    fn oversized_key_rejected() {
        Blowfish::new(&[0u8; 57]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The batched kernels (the AVX-512 one on whole runs of 64
        /// blocks where the CPU has it, then four lanes, then one) equal
        /// the one-block reference.
        #[test]
        fn batched_blocks_equal_per_block(
            key in prop::collection::vec(any::<u8>(), 1..57),
            blocks in prop::collection::vec(any::<u64>(), 0..201),
        ) {
            let bf = Blowfish::new(&key);
            let want: Vec<u64> = blocks.iter().map(|&b| bf.encrypt_block_u64(b)).collect();
            let mut got = blocks;
            bf.encrypt_blocks_u64(&mut got);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Blowfish::new(b"key-a");
        let b = Blowfish::new(b"key-b");
        assert_ne!(a.encrypt_block_u64(0), b.encrypt_block_u64(0));
    }
}
