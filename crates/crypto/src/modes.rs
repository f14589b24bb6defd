//! Block-cipher modes of operation over 64-bit block ciphers.
//!
//! The transfer simulations encrypt realistic byte streams: rsync-over-ssh
//! used CBC with PKCS#7-style padding, while UDR's Blowfish ran in a
//! counter-style stream configuration. Both are provided, over any
//! [`BlockCipher64`].

/// A cipher with a 64-bit block, keyed at construction.
pub trait BlockCipher64 {
    fn encrypt_block_u64(&self, block: u64) -> u64;
    fn decrypt_block_u64(&self, block: u64) -> u64;

    /// Encrypt many *independent* blocks in place (ECB/CTR building
    /// block). The default loops one block at a time; ciphers override it
    /// with interleaved multi-block kernels that produce identical bytes
    /// (pinned by `tests/batched_equivalence.rs`).
    fn encrypt_blocks_u64(&self, blocks: &mut [u64]) {
        for b in blocks {
            *b = self.encrypt_block_u64(*b);
        }
    }

    /// Decrypt many independent blocks in place; see
    /// [`BlockCipher64::encrypt_blocks_u64`].
    fn decrypt_blocks_u64(&self, blocks: &mut [u64]) {
        for b in blocks {
            *b = self.decrypt_block_u64(*b);
        }
    }

    /// Encrypt an 8-byte block in place (big-endian convention).
    fn encrypt_block(&self, block: &mut [u8; 8]) {
        *block = self
            .encrypt_block_u64(u64::from_be_bytes(*block))
            .to_be_bytes();
    }

    /// Decrypt an 8-byte block in place.
    fn decrypt_block(&self, block: &mut [u8; 8]) {
        *block = self
            .decrypt_block_u64(u64::from_be_bytes(*block))
            .to_be_bytes();
    }
}

/// Blocks per stack slab in the batched ECB/CBC kernels.
const ECB_SLAB_BLOCKS: usize = 32;

/// ECB encryption over a block-aligned byte buffer, `ECB_SLAB_BLOCKS`
/// blocks per cipher call (big-endian block convention, identical bytes
/// to a per-block loop). Panics if `data.len()` is not a multiple of 8.
pub fn ecb_encrypt<C: BlockCipher64>(cipher: &C, data: &mut [u8]) {
    ecb_apply(data, |slab| cipher.encrypt_blocks_u64(slab));
}

/// ECB decryption; the inverse of [`ecb_encrypt`].
pub fn ecb_decrypt<C: BlockCipher64>(cipher: &C, data: &mut [u8]) {
    ecb_apply(data, |slab| cipher.decrypt_blocks_u64(slab));
}

fn ecb_apply(data: &mut [u8], mut kernel: impl FnMut(&mut [u64])) {
    assert!(
        data.len().is_multiple_of(8),
        "ECB needs block-aligned data, got {} bytes",
        data.len()
    );
    let mut slab = [0u64; ECB_SLAB_BLOCKS];
    for chunk in data.as_chunks_mut::<8>().0.chunks_mut(ECB_SLAB_BLOCKS) {
        let n = chunk.len();
        for (s, b) in slab[..n].iter_mut().zip(chunk.iter()) {
            *s = u64::from_be_bytes(*b);
        }
        kernel(&mut slab[..n]);
        for (s, b) in slab[..n].iter().zip(chunk.iter_mut()) {
            *b = s.to_be_bytes();
        }
    }
}

/// PKCS#7 padding for 8-byte blocks.
pub struct Pkcs7;

impl Pkcs7 {
    /// Pad `data` to a multiple of 8 bytes; always appends 1..=8 bytes.
    pub fn pad(data: &mut Vec<u8>) {
        let pad = 8 - data.len() % 8;
        data.resize(data.len() + pad, pad as u8);
    }

    /// Strip and validate padding. Returns `None` on malformed padding.
    pub fn unpad(data: &mut Vec<u8>) -> Option<()> {
        let &last = data.last()?;
        let pad = last as usize;
        if pad == 0 || pad > 8 || pad > data.len() {
            return None;
        }
        if !data[data.len() - pad..].iter().all(|&b| b == last) {
            return None;
        }
        data.truncate(data.len() - pad);
        Some(())
    }
}

/// CBC encryption/decryption with PKCS#7 padding.
pub struct CbcEncryptor<'c, C: BlockCipher64> {
    cipher: &'c C,
    iv: u64,
}

impl<'c, C: BlockCipher64> CbcEncryptor<'c, C> {
    pub fn new(cipher: &'c C, iv: u64) -> Self {
        CbcEncryptor { cipher, iv }
    }

    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut data = plaintext.to_vec();
        Pkcs7::pad(&mut data);
        let mut prev = self.iv;
        for chunk in data.as_chunks_mut::<8>().0 {
            let block = u64::from_be_bytes(*chunk);
            prev = self.cipher.encrypt_block_u64(block ^ prev);
            *chunk = prev.to_be_bytes();
        }
        data
    }

    /// Returns `None` if the ciphertext length is not block-aligned or the
    /// padding is invalid (i.e. wrong key/IV or corruption).
    ///
    /// Unlike encryption (inherently serial: each block's input chains on
    /// the previous ciphertext), CBC decryption runs the cipher over
    /// independent ciphertext blocks, so it batches through
    /// [`BlockCipher64::decrypt_blocks_u64`] with the XOR chain applied
    /// afterwards.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Option<Vec<u8>> {
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(8) {
            return None;
        }
        let mut data = ciphertext.to_vec();
        let mut prev = self.iv;
        for chunk in data.as_chunks_mut::<8>().0.chunks_mut(ECB_SLAB_BLOCKS) {
            let n = chunk.len();
            let mut ct = [0u64; ECB_SLAB_BLOCKS];
            for (c, b) in ct[..n].iter_mut().zip(chunk.iter()) {
                *c = u64::from_be_bytes(*b);
            }
            let mut slab = ct;
            self.cipher.decrypt_blocks_u64(&mut slab[..n]);
            for (i, b) in chunk.iter_mut().enumerate() {
                *b = (slab[i] ^ prev).to_be_bytes();
                prev = ct[i];
            }
        }
        Pkcs7::unpad(&mut data)?;
        Some(data)
    }
}

/// Counter-mode keystream: encryption and decryption are the same XOR, so
/// one type serves both directions. Suitable for UDR's packetized stream.
///
/// Keystream is generated in batches of up to [`CTR_BATCH_BLOCKS`]
/// blocks into a fixed buffer (refills are sized to the bytes actually
/// needed, so short messages never pay for a full batch), and the XOR
/// runs over word-sized chunks. A full batch of 64 blocks is one call of
/// Blowfish's AVX-512 kernel. The byte stream — counter sequence,
/// big-endian block serialization, resumption mid-block across `apply`
/// calls — is identical to applying one block at a time.
pub struct CtrStream<'c, C: BlockCipher64> {
    cipher: &'c C,
    nonce: u64,
    counter: u64,
    keystream: [u8; CTR_BATCH_BLOCKS * 8],
    /// Valid bytes in `keystream` (a multiple of the block size).
    filled: usize,
    /// Bytes of `keystream[..filled]` already consumed.
    used: usize,
}

/// Blocks generated per [`CtrStream`] keystream refill.
pub const CTR_BATCH_BLOCKS: usize = 64;

impl<'c, C: BlockCipher64> CtrStream<'c, C> {
    /// Blocks generated per keystream refill.
    pub const BATCH_BLOCKS: usize = CTR_BATCH_BLOCKS;

    pub fn new(cipher: &'c C, nonce: u64) -> Self {
        CtrStream {
            cipher,
            nonce,
            counter: 0,
            keystream: [0u8; CTR_BATCH_BLOCKS * 8],
            filled: 0,
            used: 0,
        }
    }

    /// Generate enough blocks for `need` more bytes, capped at one batch.
    /// The counter blocks are laid out in a slab and encrypted through one
    /// [`BlockCipher64::encrypt_blocks_u64`] call.
    fn refill(&mut self, need: usize) {
        let blocks = need.div_ceil(8).clamp(1, CTR_BATCH_BLOCKS);
        let mut slab = [0u64; CTR_BATCH_BLOCKS];
        for s in slab.iter_mut().take(blocks) {
            *s = self.nonce ^ self.counter;
            self.counter = self.counter.wrapping_add(1);
        }
        self.cipher.encrypt_blocks_u64(&mut slab[..blocks]);
        for (out, s) in self.keystream.chunks_exact_mut(8).zip(&slab[..blocks]) {
            out.copy_from_slice(&s.to_be_bytes());
        }
        self.filled = blocks * 8;
        self.used = 0;
    }

    /// XOR the keystream into `data` in place.
    pub fn apply(&mut self, data: &mut [u8]) {
        let mut i = 0;
        while i < data.len() {
            if self.used == self.filled {
                self.refill(data.len() - i);
            }
            let n = (self.filled - self.used).min(data.len() - i);
            let (dst, dst_tail) = data[i..i + n].as_chunks_mut::<8>();
            let (ks, ks_tail) = self.keystream[self.used..self.used + n].as_chunks::<8>();
            for (d, k) in dst.iter_mut().zip(ks) {
                *d = (u64::from_ne_bytes(*d) ^ u64::from_ne_bytes(*k)).to_ne_bytes();
            }
            for (d, k) in dst_tail.iter_mut().zip(ks_tail) {
                *d ^= k;
            }
            self.used += n;
            i += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blowfish::Blowfish;
    use crate::des::TripleDes;

    #[test]
    fn pkcs7_roundtrip_all_lengths() {
        for len in 0..=32usize {
            let mut v: Vec<u8> = (0..len as u8).collect();
            let orig = v.clone();
            Pkcs7::pad(&mut v);
            assert_eq!(v.len() % 8, 0);
            assert!(v.len() > orig.len(), "padding always adds bytes");
            Pkcs7::unpad(&mut v).expect("valid padding");
            assert_eq!(v, orig);
        }
    }

    #[test]
    fn pkcs7_rejects_malformed() {
        assert!(Pkcs7::unpad(&mut vec![]).is_none());
        assert!(Pkcs7::unpad(&mut vec![0u8]).is_none()); // pad byte 0
        assert!(Pkcs7::unpad(&mut vec![9u8]).is_none()); // pad byte > 8
        assert!(Pkcs7::unpad(&mut vec![1, 2, 3, 3, 2]).is_none()); // inconsistent
    }

    #[test]
    fn cbc_roundtrip_blowfish() {
        let bf = Blowfish::new(b"session-key");
        let cbc = CbcEncryptor::new(&bf, 0x0123_4567_89AB_CDEF);
        for len in [0usize, 1, 7, 8, 9, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let ct = cbc.encrypt(&pt);
            assert_ne!(ct, pt, "ciphertext must differ (len {len})");
            assert_eq!(cbc.decrypt(&ct).expect("roundtrip"), pt);
        }
    }

    #[test]
    fn cbc_roundtrip_3des() {
        let mut key = [0u8; 24];
        for (i, b) in key.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(11).wrapping_add(3);
        }
        let tdes = TripleDes::new(key);
        let cbc = CbcEncryptor::new(&tdes, 42);
        let pt = b"The Design of a Community Science Cloud".to_vec();
        let ct = cbc.encrypt(&pt);
        assert_eq!(cbc.decrypt(&ct).expect("roundtrip"), pt);
    }

    #[test]
    fn cbc_detects_wrong_iv_or_truncation() {
        let bf = Blowfish::new(b"k");
        let cbc = CbcEncryptor::new(&bf, 1);
        let ct = cbc.encrypt(b"hello world, osdc");
        assert!(cbc.decrypt(&ct[..ct.len() - 1]).is_none(), "unaligned");
        // Wrong IV corrupts only the first block, which usually breaks
        // padding only probabilistically; corrupt the final block instead.
        let mut bad = ct.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        // Either padding fails (None) or the plaintext differs.
        if let Some(pt) = CbcEncryptor::new(&bf, 1).decrypt(&bad) {
            assert_ne!(pt, b"hello world, osdc");
        }
    }

    #[test]
    fn cbc_identical_blocks_produce_distinct_ciphertext() {
        let bf = Blowfish::new(b"k2");
        let cbc = CbcEncryptor::new(&bf, 7);
        let pt = vec![0u8; 32]; // four identical blocks
        let ct = cbc.encrypt(&pt);
        assert_ne!(&ct[0..8], &ct[8..16], "CBC must not leak block equality");
    }

    #[test]
    fn ctr_is_symmetric() {
        let bf = Blowfish::new(b"udr-stream");
        let mut data: Vec<u8> = (0..1000).map(|i| (i % 256) as u8).collect();
        let orig = data.clone();
        CtrStream::new(&bf, 99).apply(&mut data);
        assert_ne!(data, orig);
        CtrStream::new(&bf, 99).apply(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_chunked_equals_whole() {
        let bf = Blowfish::new(b"udr-stream");
        let mut whole: Vec<u8> = (0..500).map(|i| (i * 3 % 256) as u8).collect();
        let mut chunked = whole.clone();
        CtrStream::new(&bf, 5).apply(&mut whole);
        let mut s = CtrStream::new(&bf, 5);
        for chunk in chunked.chunks_mut(13) {
            s.apply(chunk);
        }
        assert_eq!(whole, chunked);
    }

    #[test]
    fn ctr_batched_matches_per_block_reference() {
        // The pre-batching implementation: one block of keystream at a
        // time, XORed bytewise. The batched stream must be bit-identical,
        // whatever the chunking.
        struct Reference<'c, C: BlockCipher64> {
            cipher: &'c C,
            nonce: u64,
            counter: u64,
            keystream: [u8; 8],
            used: usize,
        }
        impl<C: BlockCipher64> Reference<'_, C> {
            fn apply(&mut self, data: &mut [u8]) {
                for byte in data {
                    if self.used == 8 {
                        let block = self.nonce ^ self.counter;
                        self.counter = self.counter.wrapping_add(1);
                        self.keystream = self.cipher.encrypt_block_u64(block).to_be_bytes();
                        self.used = 0;
                    }
                    *byte ^= self.keystream[self.used];
                    self.used += 1;
                }
            }
        }
        let bf = Blowfish::new(b"udr-stream");
        for chunk_size in [1usize, 3, 7, 8, 9, 63, 64, 65, 200] {
            let mut batched: Vec<u8> = (0..731).map(|i| (i * 5 % 256) as u8).collect();
            let mut reference = batched.clone();
            let mut s = CtrStream::new(&bf, 77);
            for chunk in batched.chunks_mut(chunk_size) {
                s.apply(chunk);
            }
            let mut r = Reference {
                cipher: &bf,
                nonce: 77,
                counter: 0,
                keystream: [0u8; 8],
                used: 8,
            };
            for chunk in reference.chunks_mut(chunk_size) {
                r.apply(chunk);
            }
            assert_eq!(batched, reference, "chunk_size={chunk_size}");
        }
    }

    #[test]
    fn ctr_nonces_differ() {
        let bf = Blowfish::new(b"udr-stream");
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        CtrStream::new(&bf, 1).apply(&mut a);
        CtrStream::new(&bf, 2).apply(&mut b);
        assert_ne!(a, b);
    }
}
