//! # osdc-sharing — trust-spectrum capabilities over epidemic gossip
//!
//! The paper lists *file sharing* as a first-class OSDC subsystem: "Data
//! scientists ... share these with their collaborators" across the
//! federation's four data centers. This crate grows that line into a
//! working metadata plane:
//!
//! * [`capability`] — shares are signed, revocable **capabilities** on a
//!   trust spectrum `View < LendUntil(t) < Copy < Transfer`, minted
//!   against `osdc-storage` volume paths and signed with HMAC-MD5
//!   federation keys from `osdc-crypto`.
//! * [`registry`] — each data center keeps per-origin **append-only
//!   record logs**; the version vector of log lengths summarizes its
//!   knowledge, so anti-entropy is log-suffix exchange and merge is a
//!   commutative, idempotent append. Revocation is a new record; lend
//!   expiry needs no record at all, only the DES clock.
//! * [`gossip`] — deterministic push–pull epidemic rounds with seeded
//!   peer sampling.
//! * [`federation`] — [`SharingSim`] runs the four registries over the
//!   simulated OSDC WAN with **delay-tolerant delivery queues**: when a
//!   chaos partition cuts a site off, messages park and re-disseminate
//!   on heal. `Copy`/`Transfer` materialization rides `osdc-transfer`
//!   UDR sessions.
//! * [`enforce`] — the storage boundary: a live capability authorizes
//!   reads through the Samba export gate without a per-DC account.
//!
//! The differential oracle asserting that revocation really revokes and
//! lends really expire under arbitrary fault schedules lives in
//! `osdc-audit` (`sharing_oracle`); the experiment harness is
//! `exp_sharing` in `osdc-bench`.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod capability;
pub mod enforce;
pub mod federation;
pub mod gossip;
pub mod registry;

pub use capability::{Action, Capability, CapabilityId, DcId, Record, RecordBody, TrustLevel};
pub use enforce::{read_with_capability, EnforceError};
pub use federation::{
    Event, PartitionEvent, ShareError, SharingConfig, SharingReport, SharingSim, SITES,
};
pub use gossip::{sample_peer, GossipMessage};
pub use registry::{IntegrateOutcome, Registry, VersionVector, WireRecord};
