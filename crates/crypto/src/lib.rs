//! # osdc-crypto — the ciphers and digests behind Table 3
//!
//! The paper's quantitative evaluation (Table 3) compares UDR and rsync with
//! *no encryption*, *Blowfish*, and *3DES* over a 104 ms WAN path. The
//! encrypted rows are cipher-throughput-bound, so this crate implements the
//! actual ciphers from scratch:
//!
//! * [`blowfish::Blowfish`] — Schneier's Blowfish. The P-array and S-boxes
//!   are the hexadecimal digits of π; instead of pasting 1042 magic words we
//!   derive them at first use with the Bailey–Borwein–Plouffe digit-extraction
//!   algorithm ([`bbp`]) and pin correctness with the published test vectors.
//! * [`des::Des`] / [`des::TripleDes`] — FIPS 46-3 DES and EDE3 3DES (the
//!   default cipher of the era's rsync-over-ssh, per §7.2).
//! * [`md5`] — one-shot [`md5::md5`] and the batched [`md5::md5_many`]
//!   (sixteen lanes on AVX-512F, four on SSE2), used by the rsync delta
//!   algorithm in `osdc-transfer` as its strong block checksum and for
//!   checksum-mode file lists (real rsync used MD4/MD5 depending on
//!   version).
//! * [`modes`] — ECB/CBC/CTR modes over any 64-bit block cipher, and PKCS#7
//!   padding, so transfer sessions can encrypt realistic byte streams.
//! * [`sha256::Sha256`] — FIPS 180-4 SHA-256; the scale harnesses pin
//!   their invoice and notification streams with it so `--jobs`
//!   byte-identity is checkable from a single printed digest, and every
//!   reproducibility manifest pins its artifacts with it. On x86-64 CPUs
//!   with the SHA extensions it compresses on them.
//! * [`sign`] — HMAC-MD5 (RFC 2104) keyed signatures and the federation
//!   [`Keyring`], used by `osdc-sharing` to mint and verify revocable
//!   capabilities (symmetric trust, as the era's federations exchanged).
//!
//! Everything here is Rust with no dependencies. Its `unsafe` blocks are
//! calls into `#[target_feature]` kernels and the memory operations of
//! the AVX-512 kernels:
//!
//! * `md5_many`'s SSE2 kernel, sound because the call is compiled only
//!   for targets with SSE2;
//! * SHA-256's extension kernel (`SHA256RNDS2`, `SHA256MSG1`,
//!   `SHA256MSG2`), sound because the call runs only after
//!   `is_x86_feature_detected!` has reported `sha`, `ssse3` and `sse4.1`
//!   on the running CPU; elsewhere the scalar compression runs;
//! * Blowfish's 64-block and `md5_many`'s sixteen-lane AVX-512 kernels,
//!   sound because each call runs only after `is_x86_feature_detected!`
//!   has reported `avx512f`; elsewhere the four-lane kernels run;
//! * inside those two kernels, the S-box gathers, sound because every
//!   index is one byte of a word, below 256, so each read lies inside
//!   its 256-word S-box; and the 64-byte loads and stores, sound because
//!   each covers one whole block, or one local array, that the kernel
//!   holds.
//!
//! The hot paths (round functions, compression functions) are
//! branch-free and allocation-free per the workspace performance
//! guidelines.
//!
//! **Scope note:** these implementations exist to make the reproduction
//! *executable and measurable*, not to be a vetted cryptography library. Do
//! not use them to protect real data.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bbp;
pub mod blowfish;
pub mod des;
pub mod md5;
pub mod modes;
mod pi_tables;
pub mod sha256;
pub mod sign;

pub use blowfish::Blowfish;
pub use des::{Des, TripleDes};
pub use modes::{ecb_decrypt, ecb_encrypt, BlockCipher64, CbcEncryptor, CtrStream, Pkcs7};
pub use sha256::{sha256, sha256_hex, Sha256};
pub use sign::{KeyId, Keyring, Signature, SignatureError, SigningKey};

/// Lowercase hex of `bytes`, two digits a byte, from a nibble table.
fn lower_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    bytes
        .iter()
        .flat_map(|b| [HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]])
        .map(char::from)
        .collect()
}

/// Ciphers named in the paper's Table 3 rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CipherKind {
    /// No transport encryption.
    None,
    /// Blowfish (the only cipher UDR implemented at publication time).
    Blowfish,
    /// Triple-DES (the era's default for `rsync` over ssh).
    TripleDes,
}

impl CipherKind {
    pub fn label(self) -> &'static str {
        match self {
            CipherKind::None => "no encryption",
            CipherKind::Blowfish => "blowfish",
            CipherKind::TripleDes => "3des",
        }
    }
}

impl std::fmt::Display for CipherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
