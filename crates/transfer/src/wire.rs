//! Real encryption of sync payloads over the simulated WAN.
//!
//! The analytic [`crate::session::TransferEngine`] prices cipher *time*
//! from calibration constants; this module makes the encrypted rows of
//! Table 3 do the actual work as well: every payload a sync session moves
//! (whole new files, delta literal runs) passes through the batched CTR
//! kernels in `osdc-crypto` on the "sender" side and back through them on
//! the "receiver" side. CTR is length-preserving, so wire accounting —
//! and therefore every recorded artifact — is unchanged by turning a
//! cipher on.

use osdc_crypto::md5::md5;
use osdc_crypto::{Blowfish, CipherKind, CtrStream, TripleDes};

enum Keyed {
    None,
    Blowfish(Box<Blowfish>),
    TripleDes(Box<TripleDes>),
}

/// A session-scoped wire cipher: one key schedule, one nonce per payload.
pub struct WireCipher {
    keyed: Keyed,
}

impl WireCipher {
    /// Key a cipher of `kind` from arbitrary session-key material. Key
    /// bytes are expanded via MD5 (16 bytes per round) to the width each
    /// cipher wants — deterministic, so both "endpoints" agree.
    pub fn new(kind: CipherKind, key_material: &[u8]) -> Self {
        let keyed = match kind {
            CipherKind::None => Keyed::None,
            CipherKind::Blowfish => {
                Keyed::Blowfish(Box::new(Blowfish::new(&expand_key::<16>(key_material))))
            }
            CipherKind::TripleDes => {
                Keyed::TripleDes(Box::new(TripleDes::new(expand_key::<24>(key_material))))
            }
        };
        WireCipher { keyed }
    }

    /// Encrypt — or, CTR being symmetric, decrypt — one payload in place.
    /// Each payload must use a distinct `nonce`.
    pub fn apply(&self, nonce: u64, data: &mut [u8]) {
        match &self.keyed {
            Keyed::None => {}
            Keyed::Blowfish(bf) => CtrStream::new(bf.as_ref(), nonce).apply(data),
            Keyed::TripleDes(td) => CtrStream::new(td.as_ref(), nonce).apply(data),
        }
    }
}

/// MD5-chain key expansion to exactly `N` bytes.
fn expand_key<const N: usize>(material: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    let mut digest = md5(material);
    let mut filled = 0;
    while filled < N {
        let n = (N - filled).min(16);
        out[filled..filled + n].copy_from_slice(&digest[..n]);
        filled += n;
        digest = md5(&digest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let wc = WireCipher::new(CipherKind::None, b"k");
        let mut data = b"payload".to_vec();
        wc.apply(7, &mut data);
        assert_eq!(data, b"payload");
    }

    #[test]
    fn real_ciphers_roundtrip_and_transform() {
        for kind in [CipherKind::Blowfish, CipherKind::TripleDes] {
            let wc = WireCipher::new(kind, b"session key material");
            let orig: Vec<u8> = (0..1013).map(|i| (i % 251) as u8).collect();
            let mut data = orig.clone();
            wc.apply(3, &mut data);
            assert_ne!(data, orig, "{kind}: must actually encrypt");
            assert_eq!(data.len(), orig.len(), "{kind}: CTR preserves length");
            wc.apply(3, &mut data);
            assert_eq!(data, orig, "{kind}: roundtrip");
        }
    }

    #[test]
    fn nonces_give_distinct_streams() {
        let wc = WireCipher::new(CipherKind::Blowfish, b"k");
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        wc.apply(1, &mut a);
        wc.apply(2, &mut b);
        assert_ne!(a, b);
    }
}
