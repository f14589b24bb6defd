//! MD5 (RFC 1321) — the strong block checksum for the rsync delta engine.
//!
//! rsync pairs a cheap rolling checksum with a strong digest per block;
//! `osdc-transfer` uses this MD5 for the strong half and for checksum-mode
//! file lists (and `osdc-storage` uses it for content addressing). Every
//! caller holds its whole message, so there is no streaming API:
//!
//! * [`md5`] hashes one message: its whole 64-byte blocks, then the one
//!   or two padded tail blocks, built directly.
//! * [`md5_many`] hashes many independent messages and returns their
//!   digests in input order. MD5 is one dependent chain per message, so
//!   it runs messages side by side, one per 32-bit lane: sixteen at once
//!   in 512-bit registers where the running CPU has AVX-512F (checked at
//!   run time), then four at once on SSE2 (part of the x86_64 baseline).
//!   On other targets it maps [`md5`] over the messages.
//!
//! All three kernels expand one schedule of the 64 steps, written out
//! with each step's constant, rotate and message index, so none branches
//! inside a compression.

/// The initial chaining value `(A, B, C, D)`.
const IV: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

/// The 64 steps of one compression, in order. Each expands to
/// `$step!(round, a, b, c, d, word, rotate, K)`, meaning
/// `a = b + ((a + round(b, c, d) + M[word] + K) <<< rotate)`; the four
/// registers shift one place per step. `K` is `floor(2^32 * |sin(i + 1)|)`
/// for step `i`, written out because libm `sin` is not guaranteed
/// bit-identical across platforms and the digest must be.
macro_rules! md5_steps {
    ($step:ident, $a:ident, $b:ident, $c:ident, $d:ident) => {
        // Round 1: word i.
        $step!(f, $a, $b, $c, $d, 0, 7, 0xd76a_a478);
        $step!(f, $d, $a, $b, $c, 1, 12, 0xe8c7_b756);
        $step!(f, $c, $d, $a, $b, 2, 17, 0x2420_70db);
        $step!(f, $b, $c, $d, $a, 3, 22, 0xc1bd_ceee);
        $step!(f, $a, $b, $c, $d, 4, 7, 0xf57c_0faf);
        $step!(f, $d, $a, $b, $c, 5, 12, 0x4787_c62a);
        $step!(f, $c, $d, $a, $b, 6, 17, 0xa830_4613);
        $step!(f, $b, $c, $d, $a, 7, 22, 0xfd46_9501);
        $step!(f, $a, $b, $c, $d, 8, 7, 0x6980_98d8);
        $step!(f, $d, $a, $b, $c, 9, 12, 0x8b44_f7af);
        $step!(f, $c, $d, $a, $b, 10, 17, 0xffff_5bb1);
        $step!(f, $b, $c, $d, $a, 11, 22, 0x895c_d7be);
        $step!(f, $a, $b, $c, $d, 12, 7, 0x6b90_1122);
        $step!(f, $d, $a, $b, $c, 13, 12, 0xfd98_7193);
        $step!(f, $c, $d, $a, $b, 14, 17, 0xa679_438e);
        $step!(f, $b, $c, $d, $a, 15, 22, 0x49b4_0821);
        // Round 2: word (5i + 1) mod 16.
        $step!(g, $a, $b, $c, $d, 1, 5, 0xf61e_2562);
        $step!(g, $d, $a, $b, $c, 6, 9, 0xc040_b340);
        $step!(g, $c, $d, $a, $b, 11, 14, 0x265e_5a51);
        $step!(g, $b, $c, $d, $a, 0, 20, 0xe9b6_c7aa);
        $step!(g, $a, $b, $c, $d, 5, 5, 0xd62f_105d);
        $step!(g, $d, $a, $b, $c, 10, 9, 0x0244_1453);
        $step!(g, $c, $d, $a, $b, 15, 14, 0xd8a1_e681);
        $step!(g, $b, $c, $d, $a, 4, 20, 0xe7d3_fbc8);
        $step!(g, $a, $b, $c, $d, 9, 5, 0x21e1_cde6);
        $step!(g, $d, $a, $b, $c, 14, 9, 0xc337_07d6);
        $step!(g, $c, $d, $a, $b, 3, 14, 0xf4d5_0d87);
        $step!(g, $b, $c, $d, $a, 8, 20, 0x455a_14ed);
        $step!(g, $a, $b, $c, $d, 13, 5, 0xa9e3_e905);
        $step!(g, $d, $a, $b, $c, 2, 9, 0xfcef_a3f8);
        $step!(g, $c, $d, $a, $b, 7, 14, 0x676f_02d9);
        $step!(g, $b, $c, $d, $a, 12, 20, 0x8d2a_4c8a);
        // Round 3: word (3i + 5) mod 16.
        $step!(h, $a, $b, $c, $d, 5, 4, 0xfffa_3942);
        $step!(h, $d, $a, $b, $c, 8, 11, 0x8771_f681);
        $step!(h, $c, $d, $a, $b, 11, 16, 0x6d9d_6122);
        $step!(h, $b, $c, $d, $a, 14, 23, 0xfde5_380c);
        $step!(h, $a, $b, $c, $d, 1, 4, 0xa4be_ea44);
        $step!(h, $d, $a, $b, $c, 4, 11, 0x4bde_cfa9);
        $step!(h, $c, $d, $a, $b, 7, 16, 0xf6bb_4b60);
        $step!(h, $b, $c, $d, $a, 10, 23, 0xbebf_bc70);
        $step!(h, $a, $b, $c, $d, 13, 4, 0x289b_7ec6);
        $step!(h, $d, $a, $b, $c, 0, 11, 0xeaa1_27fa);
        $step!(h, $c, $d, $a, $b, 3, 16, 0xd4ef_3085);
        $step!(h, $b, $c, $d, $a, 6, 23, 0x0488_1d05);
        $step!(h, $a, $b, $c, $d, 9, 4, 0xd9d4_d039);
        $step!(h, $d, $a, $b, $c, 12, 11, 0xe6db_99e5);
        $step!(h, $c, $d, $a, $b, 15, 16, 0x1fa2_7cf8);
        $step!(h, $b, $c, $d, $a, 2, 23, 0xc4ac_5665);
        // Round 4: word 7i mod 16.
        $step!(i, $a, $b, $c, $d, 0, 6, 0xf429_2244);
        $step!(i, $d, $a, $b, $c, 7, 10, 0x432a_ff97);
        $step!(i, $c, $d, $a, $b, 14, 15, 0xab94_23a7);
        $step!(i, $b, $c, $d, $a, 5, 21, 0xfc93_a039);
        $step!(i, $a, $b, $c, $d, 12, 6, 0x655b_59c3);
        $step!(i, $d, $a, $b, $c, 3, 10, 0x8f0c_cc92);
        $step!(i, $c, $d, $a, $b, 10, 15, 0xffef_f47d);
        $step!(i, $b, $c, $d, $a, 1, 21, 0x8584_5dd1);
        $step!(i, $a, $b, $c, $d, 8, 6, 0x6fa8_7e4f);
        $step!(i, $d, $a, $b, $c, 15, 10, 0xfe2c_e6e0);
        $step!(i, $c, $d, $a, $b, 6, 15, 0xa301_4314);
        $step!(i, $b, $c, $d, $a, 13, 21, 0x4e08_11a1);
        $step!(i, $a, $b, $c, $d, 4, 6, 0xf753_7e82);
        $step!(i, $d, $a, $b, $c, 11, 10, 0xbd3a_f235);
        $step!(i, $c, $d, $a, $b, 2, 15, 0x2ad7_d2bb);
        $step!(i, $b, $c, $d, $a, 9, 21, 0xeb86_d391);
    };
}

// The four round functions of RFC 1321 (F, G, H, I), in forms with one
// fewer operation where an identity allows it.
#[inline(always)]
fn f(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn g(b: u32, c: u32, d: u32) -> u32 {
    c ^ (d & (b ^ c))
}

#[inline(always)]
fn h(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn i(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// One compression of `block` into `state`: the 64 steps, unrolled.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_le_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d] = *state;
    macro_rules! step {
        ($round:ident, $a:ident, $b:ident, $c:ident, $d:ident, $w:literal, $s:literal, $k:literal) => {
            $a = $b.wrapping_add(
                $a.wrapping_add($round($b, $c, $d))
                    .wrapping_add(m[$w])
                    .wrapping_add($k)
                    .rotate_left($s),
            );
        };
    }
    md5_steps!(step, a, b, c, d);
    for (s, x) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(x);
    }
}

/// The padded tail of a `len`-byte message whose last `rest.len() < 64`
/// bytes are `rest`: those bytes, `0x80`, zeros and the length in bits,
/// little-endian. That is one block, or two when the first has fewer than
/// nine bytes free. Returns the buffer and the bytes of it in use (64 or
/// 128).
fn padded_tail(rest: &[u8], len: usize) -> ([u8; 128], usize) {
    debug_assert!(rest.len() < 64, "a tail is shorter than a block");
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let used = if rest.len() < 56 { 64 } else { 128 };
    let bits = (len as u64).wrapping_mul(8);
    tail[used - 8..used].copy_from_slice(&bits.to_le_bytes());
    (tail, used)
}

/// Run `state` over `rest`, the last bytes of a `len`-byte message: its
/// whole blocks, then its padded tail.
fn finish(mut state: [u32; 4], rest: &[u8], len: usize) -> [u32; 4] {
    let (blocks, last) = rest.as_chunks::<64>();
    for block in blocks {
        compress(&mut state, block);
    }
    let (tail, used) = padded_tail(last, len);
    for block in tail[..used].as_chunks::<64>().0 {
        compress(&mut state, block);
    }
    state
}

/// The digest bytes of a final state.
fn digest(state: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
        *bytes = word.to_le_bytes();
    }
    out
}

/// One-shot digest.
pub fn md5(data: &[u8]) -> [u8; 16] {
    digest(finish(IV, data, data.len()))
}

/// The digests of independent messages, in input order; each equals
/// [`md5`] of its message.
///
/// On a CPU with AVX-512F the messages go through in groups of sixteen,
/// then the rest in groups of four on SSE2, then the last one to three
/// alone on the scalar path. A group runs its lane compression while
/// every lane has a whole block left. If all its lanes have the same
/// length, as block signatures do, their padded tails run in lanes too;
/// otherwise each lane finishes on the scalar compression from its lane
/// state.
pub fn md5_many(msgs: &[&[u8]]) -> Vec<[u8; 16]> {
    let mut out = Vec::with_capacity(msgs.len());
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    let msgs = {
        let mut rest = msgs;
        if std::arch::is_x86_feature_detected!("avx512f") {
            let (groups, after) = msgs.as_chunks::<16>();
            for group in groups {
                // SAFETY: `compress16_avx512` requires only that the CPU
                // has AVX-512F, which `is_x86_feature_detected!` has just
                // reported.
                out.extend(md5_lanes(*group, |states, runs| unsafe {
                    compress16_avx512(states, runs)
                }));
            }
            rest = after;
        }
        let (groups, after) = rest.as_chunks::<4>();
        for group in groups {
            out.extend(md5_lanes(*group, compress4));
        }
        after
    };
    out.extend(msgs.iter().map(|msg| md5(msg)));
    out
}

/// `N` messages at once on `compress`, an `N`-lane compression; see
/// [`md5_many`].
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn md5_lanes<const N: usize>(
    msgs: [&[u8]; N],
    compress: impl Fn(&mut [[u32; 4]; N], [&[u8]; N]),
) -> [[u8; 16]; N] {
    let lens = msgs.map(<[u8]>::len);
    let whole = lens.into_iter().min().unwrap_or(0) / 64 * 64;
    let mut states = [IV; N];
    compress(&mut states, msgs.map(|msg| &msg[..whole]));
    if lens.iter().all(|&len| len == lens[0]) {
        let tails = msgs.map(|msg| padded_tail(&msg[whole..], msg.len()));
        let used = tails[0].1;
        compress(&mut states, tails.each_ref().map(|(tail, _)| &tail[..used]));
        states.map(digest)
    } else {
        std::array::from_fn(|lane| {
            let msg = msgs[lane];
            digest(finish(states[lane], &msg[whole..], msg.len()))
        })
    }
}

/// Run lane `l` of the four-lane compression over `runs[l]`'s blocks,
/// from and into `states[l]`. The runs have one length, a multiple of 64.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn compress4(states: &mut [[u32; 4]; 4], runs: [&[u8]; 4]) {
    // SAFETY: `compress4_sse2`'s only requirement is that the CPU has
    // SSE2. This call is compiled only under
    // `cfg(all(target_arch = "x86_64", target_feature = "sse2"))`, so the
    // target it is built for guarantees SSE2 on every CPU that runs it.
    unsafe { compress4_sse2(states, runs) }
}

/// The four-lane kernel behind [`compress4`]: lane `l` of each register
/// holds message `l`'s chaining or message word. Rotates use immediate
/// shift counts, because a variable count makes the compiler spill
/// registers.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "sse2")]
fn compress4_sse2(states: &mut [[u32; 4]; 4], runs: [&[u8]; 4]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_and_si128, _mm_cvtsi128_si32, _mm_or_si128, _mm_set1_epi32,
        _mm_set_epi32, _mm_setzero_si128, _mm_shuffle_epi32, _mm_slli_epi32, _mm_srli_epi32,
        _mm_xor_si128,
    };

    /// Little-endian word `j` of a block.
    #[inline(always)]
    fn word(block: &[u8; 64], j: usize) -> i32 {
        let at = 4 * j;
        i32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
    }

    let ones = _mm_set1_epi32(-1);
    // The round functions, as in the scalar `f`, `g`, `h` and `i`.
    macro_rules! round {
        (f, $b:ident, $c:ident, $d:ident) => {
            _mm_xor_si128($d, _mm_and_si128($b, _mm_xor_si128($c, $d)))
        };
        (g, $b:ident, $c:ident, $d:ident) => {
            _mm_xor_si128($c, _mm_and_si128($d, _mm_xor_si128($b, $c)))
        };
        (h, $b:ident, $c:ident, $d:ident) => {
            _mm_xor_si128(_mm_xor_si128($b, $c), $d)
        };
        (i, $b:ident, $c:ident, $d:ident) => {
            _mm_xor_si128($c, _mm_or_si128($b, _mm_xor_si128($d, ones)))
        };
    }

    let [r0, r1, r2, r3] = runs.map(|run| run.as_chunks::<64>().0);
    let [s0, s1, s2, s3] = *states;
    let [mut a, mut b, mut c, mut d]: [__m128i; 4] = std::array::from_fn(|r| {
        _mm_set_epi32(
            s3[r].cast_signed(),
            s2[r].cast_signed(),
            s1[r].cast_signed(),
            s0[r].cast_signed(),
        )
    });
    for (((x0, x1), x2), x3) in r0.iter().zip(r1).zip(r2).zip(r3) {
        let mut w = [_mm_setzero_si128(); 16];
        for (j, lanes) in w.iter_mut().enumerate() {
            *lanes = _mm_set_epi32(word(x3, j), word(x2, j), word(x1, j), word(x0, j));
        }
        let (a0, b0, c0, d0) = (a, b, c, d);
        macro_rules! step {
            ($round:ident, $a:ident, $b:ident, $c:ident, $d:ident, $w:literal, $s:literal, $k:literal) => {
                let sum = _mm_add_epi32(
                    _mm_add_epi32($a, round!($round, $b, $c, $d)),
                    _mm_add_epi32(w[$w], _mm_set1_epi32(u32::cast_signed($k))),
                );
                $a = _mm_add_epi32(
                    $b,
                    _mm_or_si128(
                        _mm_slli_epi32::<$s>(sum),
                        _mm_srli_epi32::<{ 32 - $s }>(sum),
                    ),
                );
            };
        }
        md5_steps!(step, a, b, c, d);
        a = _mm_add_epi32(a, a0);
        b = _mm_add_epi32(b, b0);
        c = _mm_add_epi32(c, c0);
        d = _mm_add_epi32(d, d0);
    }
    let lanes = |x: __m128i| -> [u32; 4] {
        [
            _mm_cvtsi128_si32(x).cast_unsigned(),
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<1>(x)).cast_unsigned(),
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<2>(x)).cast_unsigned(),
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<3>(x)).cast_unsigned(),
        ]
    };
    let [a, b, c, d] = [lanes(a), lanes(b), lanes(c), lanes(d)];
    *states = std::array::from_fn(|lane| [a[lane], b[lane], c[lane], d[lane]]);
}

/// The sixteen-lane kernel: lane `l` of each register holds message
/// `l`'s chaining or message word. A block arrives as sixteen rows, one
/// message's sixteen words each, and four butterfly stages of
/// `_mm512_permutex2var_epi32` turn them into word columns. Each round
/// function is one `_mm512_ternarylogic_epi32`, whose immediate is the
/// function's truth table indexed by `4b + 2c + d`, and each rotate is
/// one `_mm512_rol_epi32`. The runs have one length, a multiple of 64.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "avx512f")]
fn compress16_avx512(states: &mut [[u32; 4]; 16], runs: [&[u8]; 16]) {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_mask_blend_epi32,
        _mm512_mask_xor_epi32, _mm512_permutex2var_epi32, _mm512_rol_epi32, _mm512_set1_epi32,
        _mm512_setr_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32, _mm512_xor_si512,
    };

    macro_rules! round {
        (f, $b:ident, $c:ident, $d:ident) => {
            _mm512_ternarylogic_epi32::<0xCA>($b, $c, $d)
        };
        (g, $b:ident, $c:ident, $d:ident) => {
            _mm512_ternarylogic_epi32::<0xE4>($b, $c, $d)
        };
        (h, $b:ident, $c:ident, $d:ident) => {
            _mm512_ternarylogic_epi32::<0x96>($b, $c, $d)
        };
        (i, $b:ident, $c:ident, $d:ident) => {
            _mm512_ternarylogic_epi32::<0x39>($b, $c, $d)
        };
    }

    // The butterfly stage over index bit `bit` pairs each row `i` without
    // that bit with row `i | bit`, and swaps the bit between row and lane
    // index: row `i` keeps its lanes without the bit and takes row
    // `i | bit`'s lanes without it; row `i | bit` takes the rest. `set`
    // marks the lanes whose index has the bit. After the stages over all
    // four bits, lane `j` of row `i` has moved to lane `i` of row `j`.
    let iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let butterfly = |w: &mut [__m512i; 16], bit: usize, set: u16| {
        let k = |x: usize| _mm512_set1_epi32(x as i32);
        let to_low_row = _mm512_mask_xor_epi32(iota, set, iota, k(16 | bit));
        let to_high_row = _mm512_xor_si512(iota, _mm512_mask_blend_epi32(set, k(bit), k(16)));
        for j in 0..8 {
            // The `j`th row index without `bit`: `j` with a zero bit
            // inserted there.
            let i = (j & !(bit - 1)) << 1 | (j & (bit - 1));
            let (x, y) = (w[i], w[i | bit]);
            w[i] = _mm512_permutex2var_epi32(x, to_low_row, y);
            w[i | bit] = _mm512_permutex2var_epi32(x, to_high_row, y);
        }
    };

    let column = |r: usize| {
        let words = states.map(|state| state[r]);
        // SAFETY: the load reads the 64 bytes of the local `words`.
        unsafe { _mm512_loadu_si512(words.as_ptr().cast()) }
    };
    let [mut a, mut b, mut c, mut d] = [0, 1, 2, 3].map(column);
    for at in (0..runs[0].len()).step_by(64) {
        let mut w: [__m512i; 16] = std::array::from_fn(|lane| {
            let block = &runs[lane][at..at + 64];
            // SAFETY: the load reads the 64 bytes of `block`, a block of
            // a run the caller holds.
            unsafe { _mm512_loadu_si512(block.as_ptr().cast()) }
        });
        butterfly(&mut w, 8, 0xff00);
        butterfly(&mut w, 4, 0xf0f0);
        butterfly(&mut w, 2, 0xcccc);
        butterfly(&mut w, 1, 0xaaaa);
        let (a0, b0, c0, d0) = (a, b, c, d);
        macro_rules! step {
            ($round:ident, $a:ident, $b:ident, $c:ident, $d:ident, $w:literal, $s:literal, $k:literal) => {
                let sum = _mm512_add_epi32(
                    _mm512_add_epi32($a, round!($round, $b, $c, $d)),
                    _mm512_add_epi32(w[$w], _mm512_set1_epi32(u32::cast_signed($k))),
                );
                $a = _mm512_add_epi32($b, _mm512_rol_epi32::<$s>(sum));
            };
        }
        md5_steps!(step, a, b, c, d);
        a = _mm512_add_epi32(a, a0);
        b = _mm512_add_epi32(b, b0);
        c = _mm512_add_epi32(c, c0);
        d = _mm512_add_epi32(d, d0);
    }
    let columns = [a, b, c, d].map(|x| {
        let mut words = [0u32; 16];
        // SAFETY: the store writes 64 bytes into the local `words`, which
        // is 64 bytes long.
        unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), x) };
        words
    });
    *states = std::array::from_fn(|lane| columns.map(|column| column[lane]));
}

/// Render a digest as lowercase hex (for catalog metadata and tests).
pub fn hex_digest(digest: &[u8; 16]) -> String {
    crate::lower_hex(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(data: &[u8]) -> String {
        hex_digest(&md5(data))
    }

    /// The RFC 1321 test suite (appendix A.5).
    const RFC1321: [(&str, &str); 7] = [
        ("", "d41d8cd98f00b204e9800998ecf8427e"),
        ("a", "0cc175b9c0f1b6a831c399e269772661"),
        ("abc", "900150983cd24fb0d6963f7d28e17f72"),
        ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
        (
            "abcdefghijklmnopqrstuvwxyz",
            "c3fcd3d76192e4007dfb496cca67e13b",
        ),
        (
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "d174ab98d277d9f5a5611c2c9f419d9f",
        ),
        (
            "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
            "57edf4a22be3c955ac49da2e2107b67a",
        ),
    ];

    #[test]
    fn rfc1321_test_suite() {
        for (msg, want) in RFC1321 {
            assert_eq!(hex(msg.as_bytes()), want, "{msg:?}");
        }
    }

    #[test]
    fn rfc1321_vectors_in_every_lane() {
        let n = RFC1321.len();
        for width in [4, 16] {
            for k in 0..n {
                for lane in 0..width {
                    // Vector k in `lane`, the vectors after it in the others.
                    let picks: Vec<usize> =
                        (0..width).map(|l| (k + l + width * n - lane) % n).collect();
                    let group: Vec<&[u8]> =
                        picks.iter().map(|&p| RFC1321[p].0.as_bytes()).collect();
                    let digests = md5_many(&group);
                    assert_eq!(digests.len(), width, "one digest per message");
                    for (&p, got) in picks.iter().zip(digests) {
                        assert_eq!(
                            hex_digest(&got),
                            RFC1321[p].1,
                            "vector {p} in a group of {width} with vector {k} in lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_lengths() {
        // Padding edge cases: `[0x5A; n]` around 56 bytes, where the tail
        // needs a second block, and around the second block's own
        // boundary. Digests from Python's `hashlib.md5`.
        const TABLE: [(usize, &str); 16] = [
            (54, "24829c04cbef98b17e819383ba3b0abd"),
            (55, "20917b2e6cdbb175c6108fa89594943b"),
            (56, "c2fc41ad4ba11395c51fc2b02023108c"),
            (57, "98fcb8f86d8f61a9236a281e5ebc6101"),
            (58, "7ad2f939f0c2f46401c564a9d01a1ea5"),
            (59, "b70874a64243f4187cce94c31b73eca9"),
            (60, "9d82a87f2d9e8616bd5811cb2e395487"),
            (61, "fdfd39fd026d8eac41890d4c55f438db"),
            (62, "16c71437a4ed80bb8699c61386256904"),
            (63, "397f74f8f0b695d13a0f1911390fa677"),
            (64, "ce7b785b1be7ad4f72773217db8c5d3e"),
            (65, "c878211428b719b9ce802a0359044247"),
            (66, "e41c9dae660c070279f7a6f9315b97c0"),
            (119, "e112bbda2b3f9e225228f7088843223f"),
            (120, "6946fb02e778e4c8780a866a86a27f5c"),
            (121, "b3a9f8d02d0e1061195b9ed2ef169bc7"),
        ];
        let messages: Vec<Vec<u8>> = TABLE.iter().map(|&(n, _)| vec![0x5A; n]).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        for (&(n, want), &msg) in TABLE.iter().zip(&refs) {
            assert_eq!(hex(msg), want, "md5 of {n} bytes");
            // Lanes of one length: the padded tails run in lanes.
            for got in md5_many(&[msg; 4]) {
                assert_eq!(hex_digest(&got), want, "md5_many of 4 x {n} bytes");
            }
            for got in md5_many(&[msg; 16]) {
                assert_eq!(hex_digest(&got), want, "md5_many of 16 x {n} bytes");
            }
        }
        // The whole table at once: lanes of mixed lengths finish alone.
        for (&(n, want), got) in TABLE.iter().zip(md5_many(&refs)) {
            assert_eq!(
                hex_digest(&got),
                want,
                "md5_many of {n} bytes beside others"
            );
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(md5(b"hello"), md5(b"hellp"));
    }

    /// Message sets for `md5_many`: 0 to 39 messages of 0 to 300 bytes
    /// each, or 0 to 39 messages of one length at a padding boundary or a
    /// signature block's 700 bytes. One set can fill a sixteen-lane
    /// group, four-lane groups and scalar leftovers.
    fn message_sets() -> impl Strategy<Value = Vec<Vec<u8>>> {
        let equal = prop_oneof![
            Just(55usize),
            Just(56),
            Just(63),
            Just(64),
            Just(119),
            Just(120),
            Just(700),
        ]
        .prop_flat_map(|len| {
            prop::collection::vec(prop::collection::vec(any::<u8>(), len..len + 1), 0..40)
        });
        prop_oneof![
            prop::collection::vec(prop::collection::vec(any::<u8>(), 0..301), 0..40),
            equal,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn md5_many_equals_md5_per_message(msgs in message_sets()) {
            let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            let want: Vec<[u8; 16]> = refs.iter().map(|msg| md5(msg)).collect();
            prop_assert_eq!(md5_many(&refs), want);
        }
    }
}
