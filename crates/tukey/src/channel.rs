//! Encrypted inter-component channels (§5.1).
//!
//! "Since all components of the application communicate through sockets,
//! they can be moved to separate servers and use encrypted channels on
//! our private network." The console ↔ middleware ↔ proxy hops are
//! therefore modelled as an authenticated-encryption message channel:
//! Blowfish-CTR confidentiality plus an HMAC-MD5 tag over the sequence
//! number and ciphertext (encrypt-then-MAC), with a monotone sequence
//! number to stop replays.
//! Era-appropriate primitives from `osdc-crypto` — the *protocol shape*
//! is what is being reproduced, not modern AEAD.

use osdc_crypto::modes::CtrStream;
use osdc_crypto::sign::hmac_md5;
use osdc_crypto::Blowfish;

/// A sealed message on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedMessage {
    pub seq: u64,
    pub ciphertext: Vec<u8>,
    pub mac: [u8; 16],
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChannelError {
    /// MAC mismatch: tampered or wrong key.
    AuthenticationFailed,
    /// Sequence number not strictly increasing: replay or reordering.
    Replayed { got: u64, expected_above: u64 },
}

/// One direction of a component-to-component channel.
pub struct SecureChannel {
    cipher: Blowfish,
    mac_key: [u8; 16],
    send_seq: u64,
    recv_seq: u64,
}

impl SecureChannel {
    /// Derive cipher and MAC keys from a shared secret (both ends build
    /// the same pair from the same secret).
    pub fn new(shared_secret: &[u8]) -> Self {
        let mut enc_key = shared_secret.to_vec();
        enc_key.push(0x01);
        let mut mac_key = shared_secret.to_vec();
        mac_key.push(0x02);
        SecureChannel {
            cipher: Blowfish::new(&osdc_crypto::md5::md5(&enc_key)),
            mac_key: osdc_crypto::md5::md5(&mac_key),
            send_seq: 0,
            recv_seq: 0,
        }
    }

    /// HMAC-MD5 over `seq` (big-endian) ‖ `ciphertext`.
    fn mac(&self, seq: u64, ciphertext: &[u8]) -> [u8; 16] {
        let mut payload = Vec::with_capacity(8 + ciphertext.len());
        payload.extend_from_slice(&seq.to_be_bytes());
        payload.extend_from_slice(ciphertext);
        hmac_md5(&self.mac_key, &payload)
    }

    /// Seal a plaintext for the peer.
    pub fn seal(&mut self, plaintext: &[u8]) -> SealedMessage {
        self.send_seq += 1;
        let seq = self.send_seq;
        let mut ciphertext = plaintext.to_vec();
        CtrStream::new(&self.cipher, seq).apply(&mut ciphertext);
        let mac = self.mac(seq, &ciphertext);
        SealedMessage {
            seq,
            ciphertext,
            mac,
        }
    }

    /// Open a message from the peer, enforcing authenticity and ordering.
    pub fn open(&mut self, msg: &SealedMessage) -> Result<Vec<u8>, ChannelError> {
        if self.mac(msg.seq, &msg.ciphertext) != msg.mac {
            return Err(ChannelError::AuthenticationFailed);
        }
        if msg.seq <= self.recv_seq {
            return Err(ChannelError::Replayed {
                got: msg.seq,
                expected_above: self.recv_seq,
            });
        }
        self.recv_seq = msg.seq;
        let mut plaintext = msg.ciphertext.clone();
        CtrStream::new(&self.cipher, msg.seq).apply(&mut plaintext);
        Ok(plaintext)
    }
}

/// A console↔middleware socket pair sharing one secret.
pub fn channel_pair(shared_secret: &[u8]) -> (SecureChannel, SecureChannel) {
    (
        SecureChannel::new(shared_secret),
        SecureChannel::new(shared_secret),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let (mut console, mut middleware) = channel_pair(b"private-network-secret");
        let msg = console.seal(b"POST /servers {\"server\": {...}}");
        assert_ne!(
            msg.ciphertext,
            b"POST /servers {\"server\": {...}}".to_vec()
        );
        let opened = middleware.open(&msg).expect("authentic");
        assert_eq!(opened, b"POST /servers {\"server\": {...}}");
    }

    #[test]
    fn sequence_of_messages() {
        let (mut a, mut b) = channel_pair(b"s");
        for i in 0..20u32 {
            let body = format!("request {i}");
            let sealed = a.seal(body.as_bytes());
            assert_eq!(b.open(&sealed).expect("authentic"), body.as_bytes());
        }
    }

    #[test]
    fn tampering_detected() {
        let (mut a, mut b) = channel_pair(b"s");
        let mut msg = a.seal(b"terminate instance 7");
        msg.ciphertext[5] ^= 0x01;
        assert_eq!(
            b.open(&msg).unwrap_err(),
            ChannelError::AuthenticationFailed
        );
        // Tampering with the sequence number also breaks the MAC.
        let mut msg2 = a.seal(b"x");
        msg2.seq += 1;
        assert_eq!(
            b.open(&msg2).unwrap_err(),
            ChannelError::AuthenticationFailed
        );
    }

    #[test]
    fn replay_rejected() {
        let (mut a, mut b) = channel_pair(b"s");
        let msg1 = a.seal(b"bill user 100 core-hours");
        b.open(&msg1).expect("first delivery");
        assert!(matches!(
            b.open(&msg1).unwrap_err(),
            ChannelError::Replayed { .. }
        ));
    }

    #[test]
    fn wrong_secret_fails_auth() {
        let mut a = SecureChannel::new(b"secret-a");
        let mut b = SecureChannel::new(b"secret-b");
        let msg = a.seal(b"hello");
        assert_eq!(
            b.open(&msg).unwrap_err(),
            ChannelError::AuthenticationFailed
        );
    }

    #[test]
    fn identical_plaintexts_produce_distinct_wire_bytes() {
        let (mut a, _) = channel_pair(b"s");
        let m1 = a.seal(b"poll");
        let m2 = a.seal(b"poll");
        assert_ne!(
            m1.ciphertext, m2.ciphertext,
            "per-message nonce (seq) varies the stream"
        );
    }

    #[test]
    fn empty_message_roundtrips() {
        let (mut a, mut b) = channel_pair(b"s");
        let msg = a.seal(b"");
        assert_eq!(b.open(&msg).expect("authentic"), Vec::<u8>::new());
    }
}
