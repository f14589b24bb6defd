//! The epidemic protocol: push–pull anti-entropy digests.
//!
//! Each gossip round a data center samples one peer (seeded, uniform
//! over the other three) and sends its [`VersionVector`] as a digest.
//! The peer answers with every record the digest proves the caller
//! lacks *and* its own digest; the caller integrates, then pushes back
//! the records the peer lacks. One round therefore fully reconciles a
//! pair — the classic push–pull variant, which converges in O(log n)
//! rounds and, on this 4-node federation, typically one or two.
//!
//! Messages are plain values delivered by `crate::federation` over the
//! simulated WAN; when a partition makes a peer unreachable the message
//! parks in a delay-tolerant queue instead (see [`crate::federation`]).

use osdc_sim::SimRng;

use crate::capability::DcId;
use crate::registry::{VersionVector, WireRecord};

/// A gossip datagram between data centers.
#[derive(Clone, Debug)]
pub enum GossipMessage {
    /// Round opener: "here is what I know; send me the rest."
    SyncRequest { from: DcId, digest: VersionVector },
    /// Answer: missing records plus the responder's own digest, so the
    /// requester can push back in turn.
    SyncResponse {
        from: DcId,
        digest: VersionVector,
        records: Vec<WireRecord>,
    },
    /// The push half: records the responder was missing.
    SyncPush {
        from: DcId,
        records: Vec<WireRecord>,
    },
}

impl GossipMessage {
    pub fn label(&self) -> &'static str {
        match self {
            GossipMessage::SyncRequest { .. } => "sync-request",
            GossipMessage::SyncResponse { .. } => "sync-response",
            GossipMessage::SyncPush { .. } => "sync-push",
        }
    }
}

/// Seeded uniform peer sampling: any data center but `me`.
pub fn sample_peer(rng: &mut SimRng, me: DcId) -> DcId {
    let pick = rng.below(DcId::COUNT as u64 - 1) as u8;
    if pick >= me.0 {
        DcId(pick + 1)
    } else {
        DcId(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_peer_never_picks_self_and_covers_all() {
        for me in DcId::ALL {
            let mut rng = SimRng::new(7 + me.0 as u64);
            let mut seen = [false; DcId::COUNT];
            for _ in 0..200 {
                let p = sample_peer(&mut rng, me);
                assert_ne!(p, me);
                seen[p.index()] = true;
            }
            let others = seen.iter().filter(|&&s| s).count();
            assert_eq!(others, DcId::COUNT - 1, "all peers reachable from {me}");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(11);
        for _ in 0..50 {
            assert_eq!(sample_peer(&mut a, DcId(2)), sample_peer(&mut b, DcId(2)));
        }
    }
}
