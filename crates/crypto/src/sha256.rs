//! SHA-256 (FIPS 180-4) — the digest pinning experiment artifacts.
//!
//! The scale harness (`exp_scale`) proves determinism by hashing its
//! invoice and notification streams and printing the digest, and every
//! reproducibility manifest pins its artifacts (a traced Table 3 run's
//! is 4.7 MB) and their lines with it; MD5 already serves the rsync
//! strong checksum, but artifact pinning wants a digest nobody can
//! collide by accident. Streaming API: [`Sha256::update`] then
//! [`Sha256::finalize`], or the one-shot [`sha256`] / [`sha256_hex`].
//!
//! Whole blocks go through one private block function. On an x86-64 CPU
//! that reports `sha`, `ssse3` and `sse4.1` at run time it compresses on
//! the SHA extensions, two rounds per `SHA256RNDS2`; everywhere else it
//! runs the scalar compression, which is also the reference the
//! extension kernel is tested against. The digest does not depend on the
//! path, and no flag or feature picks one.

/// `K[i]` — first 32 bits of the fractional parts of the cube roots of
/// the first 64 primes, hardcoded per the standard.
#[rustfmt::skip]
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09_e667,
                0xbb67_ae85,
                0x3c6e_f372,
                0xa54f_f53a,
                0x510e_527f,
                0x9b05_688c,
                0x1f83_d9ab,
                0x5be0_cd19,
            ],
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                // Partial block still pending; don't fall through to the
                // remainder copy, which would clobber the buffered count.
                return;
            }
            compress_blocks(&mut self.state, &[self.buffer]);
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        compress_blocks(&mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, then the bit length big-endian in the
        // last 8 bytes, spilling into a second block when fewer than 9
        // bytes are free.
        let bit_len = self.length_bytes.wrapping_mul(8);
        let used = self.buffered;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= 56 {
            compress_blocks(&mut self.state, &[self.buffer]);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &[self.buffer]);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compress whole blocks into `state`: on the SHA extensions when the
/// CPU has them, else on the scalar [`compress`]. The digest does not
/// depend on the choice.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if sha_extensions() {
        // SAFETY: `compress_blocks_shani`'s only requirement is that the
        // CPU has the `sha`, `ssse3` and `sse4.1` features it is compiled
        // for, and `sha_extensions()` has just checked all three with
        // `is_x86_feature_detected!`.
        unsafe { compress_blocks_shani(state, blocks) };
        return;
    }
    for block in blocks {
        compress(state, block);
    }
}

/// Whether this CPU has every feature [`compress_blocks_shani`] is
/// compiled for. `is_x86_feature_detected!` caches its CPUID probe, so a
/// call costs a load and a bit test.
#[cfg(target_arch = "x86_64")]
fn sha_extensions() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The scalar compression function of FIPS 180-4 §6.2.2: the only path
/// off x86-64, and the reference the extension kernel is tested against.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The SHA-extension kernel behind [`compress_blocks`]. The state lives
/// in two registers as `SHA256RNDS2` takes it, `abef` and `cdgh` (first
/// letter in the highest lane). Each `SHA256RNDS2` runs two rounds, and
/// `SHA256MSG1`/`SHA256MSG2` extend the message schedule four words at a
/// time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress_blocks_shani(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    // Reverses the bytes of each 32-bit lane: message words are
    // big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // Message words `4q..4q + 4` of `block`, word `4q` in the lowest lane.
    let words = |block: &[u8; 64], q: usize| -> __m128i {
        let quad = u128::from_le_bytes(block.as_chunks::<16>().0[q]);
        let (hi, lo) = ((quad >> 64) as u64, quad as u64);
        _mm_shuffle_epi8(_mm_set_epi64x(hi.cast_signed(), lo.cast_signed()), bswap)
    };
    // The four lanes of `x`, lowest first.
    let lanes = |x: __m128i| {
        [
            _mm_extract_epi32::<0>(x),
            _mm_extract_epi32::<1>(x),
            _mm_extract_epi32::<2>(x),
            _mm_extract_epi32::<3>(x),
        ]
        .map(i32::cast_unsigned)
    };

    let [a, b, c, d, e, f, g, h] = state.map(u32::cast_signed);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    // Rounds `4q..4q + 4` on message quad `w`.
    macro_rules! rounds4 {
        ($w:expr, $q:expr) => {{
            let q = $q;
            let k = _mm_set_epi32(
                K[4 * q + 3].cast_signed(),
                K[4 * q + 2].cast_signed(),
                K[4 * q + 1].cast_signed(),
                K[4 * q].cast_signed(),
            );
            let wk = _mm_add_epi32($w, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        }};
    }
    for block in blocks {
        let (abef0, cdgh0) = (abef, cdgh);
        let mut w = [0, 1, 2, 3].map(|q| words(block, q));
        for (q, quad) in w.into_iter().enumerate() {
            rounds4!(quad, q);
        }
        for q in 4..16 {
            // W[t] for the quad's four t: W[t - 16] + σ0(W[t - 15])
            // (MSG1), plus W[t - 7] (the middle of the two latest quads),
            // plus σ1(W[t - 2]) (MSG2).
            let [w0, w1, w2, w3] = w;
            let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
            let w4 = _mm_sha256msg2_epu32(sum, w3);
            rounds4!(w4, q);
            w = [w1, w2, w3, w4];
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }
    let [f, e, b, a] = lanes(abef);
    let [h, g, d, c] = lanes(cdgh);
    *state = [a, b, c, d, e, f, g, h];
}

/// One-shot digest.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot digest as lowercase hex — the form the harnesses print.
pub fn sha256_hex(data: &[u8]) -> String {
    to_hex(&sha256(data))
}

/// Lowercase hex of a digest.
pub fn to_hex(digest: &[u8; 32]) -> String {
    crate::lower_hex(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `data`'s digest from the scalar [`compress`] alone: the message
    /// padded per FIPS 180-4 §5.1.1, then compressed block by block.
    fn scalar_sha256(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = Sha256::new().state;
        for block in msg.as_chunks::<64>().0 {
            compress(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(31) >> 1) as u8)
            .collect();
        let whole = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streaming_digest_equals_scalar_compress(
            data in prop::collection::vec(any::<u8>(), 0..4201),
            cuts in prop::collection::vec(any::<u16>(), 0..5),
        ) {
            let mut cuts: Vec<usize> =
                cuts.iter().map(|&c| usize::from(c) % (data.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(data.len());
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(h.finalize(), scalar_sha256(&data));
        }

        #[cfg(target_arch = "x86_64")]
        #[test]
        fn extension_kernel_equals_scalar_compress(
            state in prop::collection::vec(any::<u32>(), 8..9),
            bytes in prop::collection::vec(any::<u8>(), 0..321),
        ) {
            if sha_extensions() {
                let blocks = bytes.as_chunks::<64>().0;
                let mut want: [u32; 8] = state.try_into().unwrap();
                let mut got = want;
                for block in blocks {
                    compress(&mut want, block);
                }
                compress_blocks(&mut got, blocks);
                prop_assert_eq!(got, want);
            }
        }
    }
}
