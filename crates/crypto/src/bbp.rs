//! Bailey–Borwein–Plouffe hexadecimal digit extraction for π.
//!
//! Blowfish initializes its P-array and S-boxes with the first 8336
//! fractional hexadecimal digits of π. The cipher reads them from the
//! embedded tables in `pi_tables.rs`; this module computes them from
//! scratch, so a test can check every embedded word. The BBP formula
//!
//! ```text
//! π = Σ_{k≥0} 16^{-k} ( 4/(8k+1) − 2/(8k+4) − 1/(8k+5) − 1/(8k+6) )
//! ```
//!
//! lets us evaluate the fractional part of `16^n · π` directly with modular
//! exponentiation, yielding a window of hex digits starting at position `n`
//! without computing any earlier digit.
//!
//! Floating-point BBP implementations are only *probably* correct in their
//! trailing digits, so we take 4 digits per evaluation and verify a 4-digit
//! overlap between consecutive windows; any disagreement panics (and the
//! Blowfish test vectors would catch a miscomputed table regardless).

/// `16^exp mod m` by square-and-multiply. `m` stays below ~2^17 for the
/// table sizes we need, so intermediate products fit comfortably in `u64`.
fn pow16_mod(mut exp: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    if m == 1 {
        return 0;
    }
    let mut base = 16 % m;
    let mut acc = 1 % m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % m;
        }
        base = base * base % m;
        exp >>= 1;
    }
    acc
}

/// Fractional part of `Σ_k 16^{n−k} / (8k + j)`.
fn series_sum(n: u64, j: u64) -> f64 {
    let mut sum = 0.0f64;
    // Terms with non-negative exponent: exact via modular arithmetic.
    for k in 0..=n {
        let m = 8 * k + j;
        sum += pow16_mod(n - k, m) as f64 / m as f64;
        sum -= sum.floor(); // keep only the fractional part, bounding error
    }
    // Tail with negative exponents: converges in a few terms.
    let mut t = 1.0 / 16.0;
    let mut k = n + 1;
    while t > 1e-17 {
        sum += t / (8 * k + j) as f64;
        t /= 16.0;
        k += 1;
    }
    sum - sum.floor()
}

/// Fractional part of `16^n · π` as an `f64` in `[0, 1)`.
fn pi_frac_at(n: u64) -> f64 {
    let x = 4.0 * series_sum(n, 1) - 2.0 * series_sum(n, 4) - series_sum(n, 5) - series_sum(n, 6);
    let f = x - x.floor();
    debug_assert!((0.0..1.0).contains(&f));
    f
}

/// First 8 hex digits (most significant first) of the fractional part of
/// `16^n · π`, i.e. digits `n+1 ..= n+8` of π's hexadecimal expansion.
fn hex_window(n: u64) -> [u8; 8] {
    let mut f = pi_frac_at(n);
    let mut out = [0u8; 8];
    for d in &mut out {
        f *= 16.0;
        let digit = f.floor();
        *d = digit as u8;
        f -= digit;
    }
    out
}

/// Compute the first `count` fractional hexadecimal digits of π, verifying a
/// 4-digit overlap between consecutive BBP windows.
///
/// # Panics
/// If two overlapping windows disagree, which would indicate the f64
/// evaluation lost too much precision (does not happen for the sizes
/// Blowfish needs; the check is a safety net).
pub fn pi_hex_digits(count: usize) -> Vec<u8> {
    let mut digits = Vec::with_capacity(count + 8);
    let mut pos = 0u64;
    while digits.len() < count {
        let w = hex_window(pos);
        if pos == 0 {
            digits.extend_from_slice(&w);
        } else {
            // The first 4 digits of this window overlap the last 4 taken.
            let tail = &digits[digits.len() - 4..];
            assert_eq!(
                tail,
                &w[..4],
                "BBP overlap mismatch at hex position {pos}: precision exhausted"
            );
            digits.extend_from_slice(&w[4..]);
        }
        pos += 4;
    }
    digits.truncate(count);
    digits
}

/// Pack hex digits into big-endian `u32` words (8 digits per word).
pub fn pi_hex_words(words: usize) -> Vec<u32> {
    let digits = pi_hex_digits(words * 8);
    digits
        .chunks_exact(8)
        .map(|c| c.iter().fold(0u32, |acc, &d| (acc << 4) | d as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_digits_match_reference() {
        // π = 3.243F6A8885A308D313198A2E03707344A4093822299F31D008...
        let d = pi_hex_digits(48);
        let expected: Vec<u8> = "243F6A8885A308D313198A2E03707344A4093822299F31D0"
            .chars()
            .map(|c| c.to_digit(16).unwrap() as u8)
            .collect();
        assert_eq!(d, expected);
    }

    #[test]
    fn first_words_are_blowfish_p_array_head() {
        // The canonical Blowfish P-array begins with these words.
        let w = pi_hex_words(4);
        assert_eq!(w, vec![0x243F_6A88, 0x85A3_08D3, 0x1319_8A2E, 0x0370_7344]);
    }

    #[test]
    fn deep_window_is_consistent() {
        // Digit 1000 onward, cross-checked between a direct window and the
        // sequential scan (the overlap assertions inside pi_hex_digits also
        // exercise this continuously).
        let all = pi_hex_digits(1008);
        let w = hex_window(1000);
        assert_eq!(&all[1000..1008], &w[..]);
    }

    #[test]
    fn embedded_tables_match_bbp() {
        // The full 1042-word derivation is done once, in release mode, by
        // the generator that produced `pi_tables.rs` (see that file's
        // header). Here we re-derive a prefix spanning the whole P-array and
        // the head of S-box 1 and check it against the embedded constants;
        // the Blowfish test vectors pin the remainder (any wrong S-box word
        // fails them).
        let w = pi_hex_words(22);
        assert_eq!(&w[..18], &crate::pi_tables::PI_P[..]);
        assert_eq!(&w[18..22], &crate::pi_tables::PI_S[0][..4]);
        // Published spot values: S1[0] and P[17].
        assert_eq!(w[18], 0xD131_0BA6);
        assert_eq!(w[17], 0x8979_FB1B);
    }

    #[test]
    fn pow16_mod_edges() {
        assert_eq!(pow16_mod(0, 7), 1);
        assert_eq!(pow16_mod(5, 1), 0);
        assert_eq!(pow16_mod(3, 9), 4096 % 9);
    }
}
