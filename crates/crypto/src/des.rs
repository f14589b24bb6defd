//! DES (FIPS 46-3) and Triple-DES (EDE3).
//!
//! §7.2 notes that "the standard encryption used by the current version of
//! rsync is 3des" — i.e. rsync-over-ssh with the `3des-cbc` transport — so
//! the Table 3 reproduction needs a real 3DES. This is the straightforward
//! table-driven implementation: bit positions follow the FIPS convention
//! (bit 1 = most significant bit of the 64-bit block).

use crate::modes::BlockCipher64;

// ---- FIPS 46-3 tables -----------------------------------------------------

#[rustfmt::skip]
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10,  2, 60, 52, 44, 36, 28, 20, 12,  4,
    62, 54, 46, 38, 30, 22, 14,  6, 64, 56, 48, 40, 32, 24, 16,  8,
    57, 49, 41, 33, 25, 17,  9,  1, 59, 51, 43, 35, 27, 19, 11,  3,
    61, 53, 45, 37, 29, 21, 13,  5, 63, 55, 47, 39, 31, 23, 15,  7,
];

#[rustfmt::skip]
const FP: [u8; 64] = [
    40,  8, 48, 16, 56, 24, 64, 32, 39,  7, 47, 15, 55, 23, 63, 31,
    38,  6, 46, 14, 54, 22, 62, 30, 37,  5, 45, 13, 53, 21, 61, 29,
    36,  4, 44, 12, 52, 20, 60, 28, 35,  3, 43, 11, 51, 19, 59, 27,
    34,  2, 42, 10, 50, 18, 58, 26, 33,  1, 41,  9, 49, 17, 57, 25,
];

#[rustfmt::skip]
const E: [u8; 48] = [
    32,  1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
     8,  9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32,  1,
];

#[rustfmt::skip]
const P: [u8; 32] = [
    16,  7, 20, 21, 29, 12, 28, 17,  1, 15, 23, 26,  5, 18, 31, 10,
     2,  8, 24, 14, 32, 27,  3,  9, 19, 13, 30,  6, 22, 11,  4, 25,
];

#[rustfmt::skip]
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17,  9,  1, 58, 50, 42, 34, 26, 18,
    10,  2, 59, 51, 43, 35, 27, 19, 11,  3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,  7, 62, 54, 46, 38, 30, 22,
    14,  6, 61, 53, 45, 37, 29, 21, 13,  5, 28, 20, 12,  4,
];

#[rustfmt::skip]
const PC2: [u8; 48] = [
    14, 17, 11, 24,  1,  5,  3, 28, 15,  6, 21, 10,
    23, 19, 12,  4, 26,  8, 16,  7, 27, 20, 13,  2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

#[rustfmt::skip]
const SBOX: [[u8; 64]; 8] = [
    [
        14,  4, 13,  1,  2, 15, 11,  8,  3, 10,  6, 12,  5,  9,  0,  7,
         0, 15,  7,  4, 14,  2, 13,  1, 10,  6, 12, 11,  9,  5,  3,  8,
         4,  1, 14,  8, 13,  6,  2, 11, 15, 12,  9,  7,  3, 10,  5,  0,
        15, 12,  8,  2,  4,  9,  1,  7,  5, 11,  3, 14, 10,  0,  6, 13,
    ],
    [
        15,  1,  8, 14,  6, 11,  3,  4,  9,  7,  2, 13, 12,  0,  5, 10,
         3, 13,  4,  7, 15,  2,  8, 14, 12,  0,  1, 10,  6,  9, 11,  5,
         0, 14,  7, 11, 10,  4, 13,  1,  5,  8, 12,  6,  9,  3,  2, 15,
        13,  8, 10,  1,  3, 15,  4,  2, 11,  6,  7, 12,  0,  5, 14,  9,
    ],
    [
        10,  0,  9, 14,  6,  3, 15,  5,  1, 13, 12,  7, 11,  4,  2,  8,
        13,  7,  0,  9,  3,  4,  6, 10,  2,  8,  5, 14, 12, 11, 15,  1,
        13,  6,  4,  9,  8, 15,  3,  0, 11,  1,  2, 12,  5, 10, 14,  7,
         1, 10, 13,  0,  6,  9,  8,  7,  4, 15, 14,  3, 11,  5,  2, 12,
    ],
    [
         7, 13, 14,  3,  0,  6,  9, 10,  1,  2,  8,  5, 11, 12,  4, 15,
        13,  8, 11,  5,  6, 15,  0,  3,  4,  7,  2, 12,  1, 10, 14,  9,
        10,  6,  9,  0, 12, 11,  7, 13, 15,  1,  3, 14,  5,  2,  8,  4,
         3, 15,  0,  6, 10,  1, 13,  8,  9,  4,  5, 11, 12,  7,  2, 14,
    ],
    [
         2, 12,  4,  1,  7, 10, 11,  6,  8,  5,  3, 15, 13,  0, 14,  9,
        14, 11,  2, 12,  4,  7, 13,  1,  5,  0, 15, 10,  3,  9,  8,  6,
         4,  2,  1, 11, 10, 13,  7,  8, 15,  9, 12,  5,  6,  3,  0, 14,
        11,  8, 12,  7,  1, 14,  2, 13,  6, 15,  0,  9, 10,  4,  5,  3,
    ],
    [
        12,  1, 10, 15,  9,  2,  6,  8,  0, 13,  3,  4, 14,  7,  5, 11,
        10, 15,  4,  2,  7, 12,  9,  5,  6,  1, 13, 14,  0, 11,  3,  8,
         9, 14, 15,  5,  2,  8, 12,  3,  7,  0,  4, 10,  1, 13, 11,  6,
         4,  3,  2, 12,  9,  5, 15, 10, 11, 14,  1,  7,  6,  0,  8, 13,
    ],
    [
         4, 11,  2, 14, 15,  0,  8, 13,  3, 12,  9,  7,  5, 10,  6,  1,
        13,  0, 11,  7,  4,  9,  1, 10, 14,  3,  5, 12,  2, 15,  8,  6,
         1,  4, 11, 13, 12,  3,  7, 14, 10, 15,  6,  8,  0,  5,  9,  2,
         6, 11, 13,  8,  1,  4, 10,  7,  9,  5,  0, 15, 14,  2,  3, 12,
    ],
    [
        13,  2,  8,  4,  6, 15, 11,  1, 10,  9,  3, 14,  5,  0, 12,  7,
         1, 15, 13,  8, 10,  3,  7,  4, 12,  5,  6, 11,  0, 14,  9,  2,
         7, 11,  4,  1,  9, 12, 14,  2,  0,  6, 10, 13, 15,  3,  5,  8,
         2,  1, 14,  7,  4, 10,  8, 13, 15, 12,  9,  0,  3,  5,  6, 11,
    ],
];

/// Permute `input` (of width `in_bits`, FIPS bit-1 = MSB) through `table`,
/// producing `table.len()` output bits.
#[inline]
fn permute(input: u64, in_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    for &src in table {
        out = (out << 1) | (input >> (in_bits - src as u32)) & 1;
    }
    out
}

/// `permute`, const-evaluable, for building the lookup tables below.
const fn permute_const<const N: usize>(input: u64, in_bits: u32, table: &[u8; N]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < N {
        out = (out << 1) | (input >> (in_bits - table[i] as u32)) & 1;
        i += 1;
    }
    out
}

// ---- Precomputed hot-path tables ------------------------------------------
//
// A bit permutation is linear over OR of disjoint inputs, so any 64→64
// permutation splits into eight per-input-byte tables whose ORed outputs
// reconstruct the full permutation — one table lookup per byte instead of
// one shift-and-mask per output *bit*. The same trick covers the 32→48 E
// expansion (four tables), and the S-box + P stage collapses into eight
// "SPE" tables mapping each 6-bit S-box input straight to its P-permuted
// 32-bit contribution. All tables are const-evaluated from the FIPS
// tables above, so the ciphertext is bit-identical to the reference
// `permute` path (pinned by the vectors below and by
// `tests/batched_equivalence.rs`).

/// Per-byte split of a 64→64 permutation.
const fn build_perm64(table: &[u8; 64]) -> [[u64; 256]; 8] {
    let mut out = [[0u64; 256]; 8];
    let mut byte = 0;
    while byte < 8 {
        let mut v = 0usize;
        while v < 256 {
            out[byte][v] = permute_const((v as u64) << (56 - 8 * byte), 64, table);
            v += 1;
        }
        byte += 1;
    }
    out
}

/// Per-byte split of the 32→48 E expansion.
const fn build_e_tab() -> [[u64; 256]; 4] {
    let mut out = [[0u64; 256]; 4];
    let mut byte = 0;
    while byte < 4 {
        let mut v = 0usize;
        while v < 256 {
            out[byte][v] = permute_const((v as u64) << (24 - 8 * byte), 32, &E);
            v += 1;
        }
        byte += 1;
    }
    out
}

/// S-box output pre-permuted through P: `SPE[i][six]` is the 32-bit
/// contribution of S-box `i` fed the 6-bit value `six`.
const fn build_spe() -> [[u32; 64]; 8] {
    let mut out = [[0u32; 64]; 8];
    let mut i = 0;
    while i < 8 {
        let mut six = 0usize;
        while six < 64 {
            let s = six as u8;
            let row = ((s & 0x20) >> 4) | (s & 1);
            let col = (s >> 1) & 0x0F;
            let val = SBOX[i][(row * 16 + col) as usize] as u64;
            let placed = val << (4 * (7 - i)); // nibble position i of the 32-bit word
            out[i][six] = permute_const(placed, 32, &P) as u32;
            six += 1;
        }
        i += 1;
    }
    out
}

static IP_TAB: [[u64; 256]; 8] = build_perm64(&IP);
static FP_TAB: [[u64; 256]; 8] = build_perm64(&FP);
static E_TAB: [[u64; 256]; 4] = build_e_tab();
static SPE: [[u32; 64]; 8] = build_spe();

/// Apply a per-byte-split 64→64 permutation.
#[inline]
fn apply_perm64(tab: &[[u64; 256]; 8], x: u64) -> u64 {
    tab[0][(x >> 56) as usize]
        | tab[1][(x >> 48 & 0xFF) as usize]
        | tab[2][(x >> 40 & 0xFF) as usize]
        | tab[3][(x >> 32 & 0xFF) as usize]
        | tab[4][(x >> 24 & 0xFF) as usize]
        | tab[5][(x >> 16 & 0xFF) as usize]
        | tab[6][(x >> 8 & 0xFF) as usize]
        | tab[7][(x & 0xFF) as usize]
}

/// Single-key DES.
#[derive(Clone)]
pub struct Des {
    /// 16 round subkeys, each 48 bits.
    subkeys: [u64; 16],
}

impl Des {
    /// Build from an 8-byte key. Parity bits (LSB of each byte) are ignored,
    /// as in FIPS 46-3.
    pub fn new(key: [u8; 8]) -> Self {
        let key64 = u64::from_be_bytes(key);
        let cd = permute(key64, 64, &PC1); // 56 bits
        let mut c = (cd >> 28) as u32 & 0x0FFF_FFFF;
        let mut d = cd as u32 & 0x0FFF_FFFF;
        let mut subkeys = [0u64; 16];
        for (round, &shift) in SHIFTS.iter().enumerate() {
            c = ((c << shift) | (c >> (28 - shift as u32))) & 0x0FFF_FFFF;
            d = ((d << shift) | (d >> (28 - shift as u32))) & 0x0FFF_FFFF;
            let combined = (c as u64) << 28 | d as u64;
            subkeys[round] = permute(combined, 56, &PC2);
        }
        Des { subkeys }
    }

    /// Decrypt one block (the rounds with the subkeys in reverse): EDE3's
    /// middle stage.
    pub fn decrypt_block_u64(&self, block: u64) -> u64 {
        self.crypt(block, true)
    }

    /// The round function over the precomputed E/SPE tables: four lookups
    /// expand R, eight lookups fold S-boxes and P together.
    #[inline]
    fn f(r: u32, subkey: u64) -> u32 {
        let expanded = (E_TAB[0][(r >> 24) as usize]
            | E_TAB[1][(r >> 16 & 0xFF) as usize]
            | E_TAB[2][(r >> 8 & 0xFF) as usize]
            | E_TAB[3][(r & 0xFF) as usize])
            ^ subkey;
        SPE[0][(expanded >> 42 & 0x3F) as usize]
            ^ SPE[1][(expanded >> 36 & 0x3F) as usize]
            ^ SPE[2][(expanded >> 30 & 0x3F) as usize]
            ^ SPE[3][(expanded >> 24 & 0x3F) as usize]
            ^ SPE[4][(expanded >> 18 & 0x3F) as usize]
            ^ SPE[5][(expanded >> 12 & 0x3F) as usize]
            ^ SPE[6][(expanded >> 6 & 0x3F) as usize]
            ^ SPE[7][(expanded & 0x3F) as usize]
    }

    fn crypt(&self, block: u64, decrypt: bool) -> u64 {
        let ip = apply_perm64(&IP_TAB, block);
        let mut l = (ip >> 32) as u32;
        let mut r = ip as u32;
        for round in 0..16 {
            let subkey = if decrypt {
                self.subkeys[15 - round]
            } else {
                self.subkeys[round]
            };
            let next_r = l ^ Self::f(r, subkey);
            l = r;
            r = next_r;
        }
        // Note the final swap: output is (R16, L16).
        let preoutput = (r as u64) << 32 | l as u64;
        apply_perm64(&FP_TAB, preoutput)
    }

    /// Four blocks with the rounds interleaved: each round's E/SPE
    /// lookups serialize within a block, so independent lanes let the
    /// core overlap the loads. Bytes identical to four `crypt` calls.
    #[inline]
    fn crypt4(&self, blocks: &mut [u64], decrypt: bool) {
        let mut l = [0u32; 4];
        let mut r = [0u32; 4];
        for lane in 0..4 {
            let ip = apply_perm64(&IP_TAB, blocks[lane]);
            l[lane] = (ip >> 32) as u32;
            r[lane] = ip as u32;
        }
        for round in 0..16 {
            let subkey = if decrypt {
                self.subkeys[15 - round]
            } else {
                self.subkeys[round]
            };
            for lane in 0..4 {
                let next_r = l[lane] ^ Self::f(r[lane], subkey);
                l[lane] = r[lane];
                r[lane] = next_r;
            }
        }
        for lane in 0..4 {
            let preoutput = (r[lane] as u64) << 32 | l[lane] as u64;
            blocks[lane] = apply_perm64(&FP_TAB, preoutput);
        }
    }

    fn crypt_blocks(&self, blocks: &mut [u64], decrypt: bool) {
        let mut chunks = blocks.chunks_exact_mut(4);
        for quad in &mut chunks {
            self.crypt4(quad, decrypt);
        }
        for b in chunks.into_remainder() {
            *b = self.crypt(*b, decrypt);
        }
    }
}

impl BlockCipher64 for Des {
    fn encrypt_block_u64(&self, block: u64) -> u64 {
        self.crypt(block, false)
    }
    fn encrypt_blocks_u64(&self, blocks: &mut [u64]) {
        self.crypt_blocks(blocks, false);
    }
}

/// Triple-DES in EDE3 configuration: `C = E_{k3}(D_{k2}(E_{k1}(P)))`.
#[derive(Clone)]
pub struct TripleDes {
    k1: Des,
    k2: Des,
    k3: Des,
}

impl TripleDes {
    /// Build from a 24-byte key bundle (three independent DES keys).
    pub fn new(key: [u8; 24]) -> Self {
        let mut k = [[0u8; 8]; 3];
        for (i, chunk) in key.chunks_exact(8).enumerate() {
            k[i].copy_from_slice(chunk);
        }
        TripleDes {
            k1: Des::new(k[0]),
            k2: Des::new(k[1]),
            k3: Des::new(k[2]),
        }
    }

    /// Keying option 3 (K1 = K2 = K3) degenerates to single DES; used for
    /// backwards-compat checks.
    pub fn from_single(key: [u8; 8]) -> Self {
        let mut bundle = [0u8; 24];
        for chunk in bundle.chunks_exact_mut(8) {
            chunk.copy_from_slice(&key);
        }
        Self::new(bundle)
    }
}

impl BlockCipher64 for TripleDes {
    fn encrypt_block_u64(&self, block: u64) -> u64 {
        self.k3
            .encrypt_block_u64(self.k2.decrypt_block_u64(self.k1.encrypt_block_u64(block)))
    }

    /// Three interleaved sweeps instead of three serial DES calls per
    /// block — the EDE3 stages batch independently.
    fn encrypt_blocks_u64(&self, blocks: &mut [u64]) {
        self.k1.crypt_blocks(blocks, false);
        self.k2.crypt_blocks(blocks, true);
        self.k3.crypt_blocks(blocks, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_fips_vector() {
        // The worked example from the FIPS validation literature.
        let des = Des::new(0x1334_5779_9BBC_DFF1u64.to_be_bytes());
        assert_eq!(
            des.encrypt_block_u64(0x0123_4567_89AB_CDEF),
            0x85E8_1354_0F0A_B405
        );
        assert_eq!(
            des.decrypt_block_u64(0x85E8_1354_0F0A_B405),
            0x0123_4567_89AB_CDEF
        );
    }

    #[test]
    fn handbook_vector() {
        // "Now is t" under key 0123456789ABCDEF.
        let des = Des::new(0x0123_4567_89AB_CDEFu64.to_be_bytes());
        let pt = u64::from_be_bytes(*b"Now is t");
        assert_eq!(des.encrypt_block_u64(pt), 0x3FA4_0E8A_984D_4815);
    }

    #[test]
    fn roundtrip_random_blocks() {
        let des = Des::new(*b"OSDCkey!");
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        for _ in 0..500 {
            assert_eq!(des.decrypt_block_u64(des.encrypt_block_u64(x)), x);
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
        }
    }

    #[test]
    fn parity_bits_are_ignored() {
        // Flipping the LSB (parity bit) of each key byte must not change the
        // schedule.
        let base = 0x1334_5779_9BBC_DFF1u64;
        let flipped = base ^ 0x0101_0101_0101_0101;
        let a = Des::new(base.to_be_bytes());
        let b = Des::new(flipped.to_be_bytes());
        assert_eq!(a.encrypt_block_u64(12345), b.encrypt_block_u64(12345));
    }

    #[test]
    fn ede3_with_equal_keys_is_des() {
        let key = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        let des = Des::new(key);
        let tdes = TripleDes::from_single(key);
        for block in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(tdes.encrypt_block_u64(block), des.encrypt_block_u64(block));
        }
    }

    #[test]
    fn ede3_known_answer_with_distinct_keys() {
        // NIST SP 800-67 Rev. 1, Appendix B: "The quick brown fox jump"
        // under three distinct keys, one block at a time and batched.
        let mut key = [0u8; 24];
        for (chunk, k) in key.chunks_exact_mut(8).zip([
            0x0123_4567_89AB_CDEFu64,
            0x2345_6789_ABCD_EF01,
            0x4567_89AB_CDEF_0123,
        ]) {
            chunk.copy_from_slice(&k.to_be_bytes());
        }
        let tdes = TripleDes::new(key);
        let vectors = [
            (0x5468_6520_7175_6663, 0xA826_FD8C_E53B_855F),
            (0x6B20_6272_6F77_6E20, 0xCCE2_1C81_1225_6FE6),
            (0x666F_7820_6A75_6D70, 0x68D5_C05D_D9B6_B900),
        ];
        for (pt, ct) in vectors {
            assert_eq!(tdes.encrypt_block_u64(pt), ct, "{pt:016X}");
        }
        let mut batch = vectors.map(|(pt, _)| pt);
        tdes.encrypt_blocks_u64(&mut batch);
        assert_eq!(batch, vectors.map(|(_, ct)| ct));
    }

    #[test]
    fn ede3_differs_from_single_des_with_distinct_keys() {
        let mut key = [0u8; 24];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8 + 1;
        }
        let tdes = TripleDes::new(key);
        let des = Des::new(key[..8].try_into().unwrap());
        assert_ne!(tdes.encrypt_block_u64(7), des.encrypt_block_u64(7));
    }

    #[test]
    fn permute_identity_check() {
        // IP followed by FP is the identity.
        for x in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(permute(permute(x, 64, &IP), 64, &FP), x);
        }
    }
}
