//! Counter mode over 64-bit block ciphers.
//!
//! Table 3's encrypted rows are UDR's Blowfish and rsync-over-ssh's 3DES.
//! The model encrypts both the same way, by XORing a counter-mode
//! keystream ([`CtrStream`]) over any [`BlockCipher64`]: ssh's `3des-cbc`
//! chained its blocks, but counter mode runs the same block cipher per
//! 8 bytes and keeps every payload's length. Decrypting is applying the
//! same keystream again, so only the block ciphers' *encryption* runs.

/// A cipher with a 64-bit block, keyed at construction.
pub trait BlockCipher64 {
    fn encrypt_block_u64(&self, block: u64) -> u64;

    /// Encrypt many *independent* blocks in place (the CTR keystream's
    /// building block), with bytes identical to one
    /// [`BlockCipher64::encrypt_block_u64`] call per block (pinned by
    /// `tests/batched_equivalence.rs`).
    fn encrypt_blocks_u64(&self, blocks: &mut [u64]);
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
