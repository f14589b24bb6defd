//! Keyed signatures for the sharing layer's capabilities.
//!
//! The 2012-era OSDC federation exchanged *symmetric* trust material out
//! of band — Shibboleth federation metadata, shared NRPE secrets, cloud
//! API keypairs — so capability signatures here are HMAC-MD5 (RFC 2104)
//! under per-principal secrets registered in a federation [`Keyring`],
//! not public-key signatures. The flow being reproduced is "only a
//! holder of the grantor's key could have minted this capability, and
//! any data center holding the federation keyring can check it"; the
//! same scope note as the rest of this crate applies — fidelity to the
//! protocol, not vetted cryptography.
//!
//! Wire format of a [`Signature`]: 8 bytes of little-endian [`KeyId`]
//! followed by the 16-byte MAC — 24 bytes total, so truncation is a
//! typed decode error ([`SignatureError::Truncated`]) rather than a
//! silent misverify.

use std::collections::BTreeMap;

use crate::md5::md5;

/// HMAC block size for MD5 (RFC 2104).
const BLOCK: usize = 64;

/// RFC 2104 HMAC-MD5 over `payload` with an arbitrary-length key.
pub fn hmac_md5(key: &[u8], payload: &[u8]) -> [u8; 16] {
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..16].copy_from_slice(&md5(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Vec::with_capacity(BLOCK + payload.len());
    inner.extend(k.iter().map(|b| b ^ 0x36));
    inner.extend_from_slice(payload);
    let inner_digest = md5(&inner);
    let mut outer = Vec::with_capacity(BLOCK + 16);
    outer.extend(k.iter().map(|b| b ^ 0x5c));
    outer.extend_from_slice(&inner_digest);
    md5(&outer)
}

/// Stable identifier of a signing key: the first 8 bytes of
/// `MD5("osdc-keyid" ‖ secret)`, little-endian. Deriving the id from the
/// secret keeps it collision-spread without a registry round-trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(pub u64);

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "key:{:016x}", self.0)
    }
}

/// A per-principal signing secret.
#[derive(Clone)]
pub struct SigningKey {
    secret: [u8; 16],
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never render the secret.
        write!(f, "SigningKey({})", self.id())
    }
}

impl SigningKey {
    /// Derive a key from a 64-bit seed (experiment harnesses).
    pub fn from_seed(seed: u64) -> Self {
        let mut buf = *b"osdc-signing-key........";
        buf[16..].copy_from_slice(&seed.to_le_bytes());
        SigningKey { secret: md5(&buf) }
    }

    /// Derive a key from a passphrase (operator-facing flows).
    pub fn from_passphrase(passphrase: &str) -> Self {
        SigningKey {
            secret: md5(passphrase.as_bytes()),
        }
    }

    pub fn id(&self) -> KeyId {
        let mut buf = Vec::with_capacity(10 + 16);
        buf.extend_from_slice(b"osdc-keyid");
        buf.extend_from_slice(&self.secret);
        let mut id = [0u8; 8];
        id.copy_from_slice(&md5(&buf)[..8]);
        KeyId(u64::from_le_bytes(id))
    }

    /// Sign `payload`, binding the signature to this key's id.
    pub fn sign(&self, payload: &[u8]) -> Signature {
        Signature {
            key: self.id(),
            mac: hmac_md5(&self.secret, payload),
        }
    }
}

/// A detached signature: which key, and the MAC it produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Signature {
    pub key: KeyId,
    pub mac: [u8; 16],
}

impl Signature {
    pub const WIRE_LEN: usize = 24;

    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..8].copy_from_slice(&self.key.0.to_le_bytes());
        out[8..].copy_from_slice(&self.mac);
        out
    }

    /// Decode a wire signature. Anything but exactly
    /// [`Signature::WIRE_LEN`] bytes is a typed error — a truncated
    /// signature must fail *decoding*, never verify against a prefix.
    pub fn from_bytes(bytes: &[u8]) -> Result<Signature, SignatureError> {
        if bytes.len() != Self::WIRE_LEN {
            return Err(SignatureError::Truncated { got: bytes.len() });
        }
        let mut key = [0u8; 8];
        key.copy_from_slice(&bytes[..8]);
        let mut mac = [0u8; 16];
        mac.copy_from_slice(&bytes[8..]);
        Ok(Signature {
            key: KeyId(u64::from_le_bytes(key)),
            mac,
        })
    }
}

/// Why a signature failed to decode or verify.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignatureError {
    /// Wire bytes were not exactly [`Signature::WIRE_LEN`] long.
    Truncated { got: usize },
    /// The signing key is not registered in the verifying keyring.
    UnknownKey(KeyId),
    /// The MAC does not match the payload under the named key.
    BadMac(KeyId),
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::Truncated { got } => write!(
                f,
                "signature truncated: {got} byte(s), expected {}",
                Signature::WIRE_LEN
            ),
            SignatureError::UnknownKey(k) => write!(f, "unknown signing {k}"),
            SignatureError::BadMac(k) => write!(f, "bad MAC under {k}"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// The federation keyring: every signing secret the verifier trusts,
/// keyed by [`KeyId`] (the symmetric analogue of federation metadata).
#[derive(Clone, Debug, Default)]
pub struct Keyring {
    keys: BTreeMap<KeyId, [u8; 16]>,
}

impl Keyring {
    pub fn new() -> Self {
        Self::default()
    }

    /// Trust a key. Idempotent; returns the key's id for convenience.
    pub fn register(&mut self, key: &SigningKey) -> KeyId {
        let id = key.id();
        self.keys.insert(id, key.secret);
        id
    }

    pub fn contains(&self, id: KeyId) -> bool {
        self.keys.contains_key(&id)
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verify `sig` over `payload`: the key must be registered and the
    /// MAC must match (compared in full — both 16-byte arrays).
    pub fn verify(&self, payload: &[u8], sig: &Signature) -> Result<(), SignatureError> {
        let secret = self
            .keys
            .get(&sig.key)
            .ok_or(SignatureError::UnknownKey(sig.key))?;
        if hmac_md5(secret, payload) == sig.mac {
            Ok(())
        } else {
            Err(SignatureError::BadMac(sig.key))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 §2 — HMAC-MD5 test vectors. These pin the primitive the
    // whole capability trust chain hangs off.
    #[test]
    fn rfc2202_vector_1() {
        let key = [0x0bu8; 16];
        assert_eq!(
            hex(&hmac_md5(&key, b"Hi There")),
            "9294727a3638bb1c13f48ef8158bfc9d"
        );
    }

    #[test]
    fn rfc2202_vector_2() {
        assert_eq!(
            hex(&hmac_md5(b"Jefe", b"what do ya want for nothing?")),
            "750c783e6ab0b503eaa86e310a5db738"
        );
    }

    #[test]
    fn rfc2202_vector_6_key_longer_than_block() {
        let key = [0xaau8; 80];
        assert_eq!(
            hex(&hmac_md5(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd"
        );
    }

    #[test]
    fn sign_verify_round_trip() {
        let key = SigningKey::from_seed(2012);
        let mut ring = Keyring::new();
        ring.register(&key);
        let sig = key.sign(b"grant alice /public/1000genomes view");
        assert!(ring
            .verify(b"grant alice /public/1000genomes view", &sig)
            .is_ok());
        assert_eq!(
            ring.verify(b"grant alice /public/1000genomes COPY", &sig),
            Err(SignatureError::BadMac(key.id()))
        );
    }

    #[test]
    fn key_ids_are_stable_and_spread() {
        let a = SigningKey::from_seed(1);
        let b = SigningKey::from_seed(2);
        assert_eq!(a.id(), SigningKey::from_seed(1).id());
        assert_ne!(a.id(), b.id());
        assert_ne!(
            SigningKey::from_passphrase("pw").id(),
            SigningKey::from_passphrase("pw2").id()
        );
    }

    #[test]
    fn wire_round_trip() {
        let sig = SigningKey::from_seed(7).sign(b"payload");
        let decoded = Signature::from_bytes(&sig.to_bytes()).expect("full wire");
        assert_eq!(decoded, sig);
    }
}
