//! Per-data-center capability registries: append-only record logs, a
//! version vector over them, and the who-can-do-what check.
//!
//! Every data center keeps one log per *origin* (including itself). A
//! log only ever grows, so the federation-wide state is a CRDT: the
//! [`VersionVector`] of log lengths summarizes exactly what a replica
//! knows, anti-entropy is "send me your suffixes past my vector", and
//! merging is appending verified records in order. Revocations and
//! grants commute across origins — the derived capability index is a
//! pure function of the union of records plus the clock.

use std::collections::BTreeSet;

use osdc_crypto::Keyring;
use osdc_sim::{SimTime, TenantInterner, TenantStore};
use osdc_telemetry::audit;

use crate::capability::{Action, Capability, CapabilityId, DcId, Record, RecordBody, TrustLevel};

/// Lengths of the four per-origin logs, as known by one replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct VersionVector(pub [u32; DcId::COUNT]);

impl VersionVector {
    /// `self` dominates `other` when it knows at least as much from
    /// every origin.
    pub fn dominates(&self, other: &VersionVector) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a >= b)
    }

    /// Total number of records known.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|&n| n as u64).sum()
    }
}

impl std::fmt::Display for VersionVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} {} {} {}]",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// A record plus its log coordinates, as shipped by gossip.
#[derive(Clone, Debug, PartialEq)]
pub struct WireRecord {
    pub origin: DcId,
    pub seq: u32,
    pub record: Record,
}

/// What [`Registry::integrate`] did with a batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrateOutcome {
    /// Records appended (new knowledge).
    pub applied: u32,
    /// Records already known (idempotent skip).
    pub duplicates: u32,
    /// Records refused: bad signature, wrong coordinates, or a gap.
    pub rejected: u32,
}

/// One data center's view of every share in the federation.
#[derive(Clone, Debug)]
pub struct Registry {
    /// Which data center this replica lives at.
    dc: DcId,
    /// Append-only record logs, indexed by origin. They are also the
    /// grant index: a grant's id is its log coordinates, so
    /// [`Registry::capability`] reads `logs[origin][seq]`.
    logs: [Vec<Record>; DcId::COUNT],
    /// Derived index: ids with a known revocation.
    revoked: BTreeSet<CapabilityId>,
    /// Interned grantee names backing `by_grantee`.
    grantees: TenantInterner,
    /// Derived index: grantee → ids of every grant naming them, so
    /// [`Registry::check`] scans one tenant's capabilities instead of
    /// the whole federation's.
    by_grantee: TenantStore<Vec<CapabilityId>>,
}

impl Registry {
    pub fn new(dc: DcId) -> Self {
        Registry {
            dc,
            logs: Default::default(),
            revoked: BTreeSet::new(),
            grantees: TenantInterner::new(),
            by_grantee: TenantStore::new(),
        }
    }

    /// Index a freshly-learned grant under its grantee.
    fn index_grant(&mut self, cap: &Capability) {
        let id = self.grantees.intern(&cap.grantee);
        self.by_grantee
            .get_or_insert_with(id, Vec::new)
            .push(cap.id);
    }

    pub fn dc(&self) -> DcId {
        self.dc
    }

    pub fn version(&self) -> VersionVector {
        let mut v = [0u32; DcId::COUNT];
        for (i, log) in self.logs.iter().enumerate() {
            v[i] = log.len() as u32;
        }
        VersionVector(v)
    }

    /// Mint a grant in this replica's own log. The id is the log
    /// position; the record is signed with the local federation key.
    pub fn grant(
        &mut self,
        grantee: &str,
        path: &str,
        level: TrustLevel,
        now: SimTime,
        key: &osdc_crypto::SigningKey,
    ) -> CapabilityId {
        let id = CapabilityId {
            origin: self.dc,
            seq: self.logs[self.dc.index()].len() as u32,
        };
        let cap = Capability {
            id,
            grantee: grantee.to_string(),
            path: path.to_string(),
            level,
            granted_at: now,
        };
        self.index_grant(&cap);
        let record = Record::sign(RecordBody::Grant(cap), key);
        self.logs[self.dc.index()].push(record);
        id
    }

    /// Issue a revocation of `id` from this replica. Returns false when
    /// the capability is unknown here (nothing to revoke yet — the
    /// caller may retry after gossip catches up).
    pub fn revoke(
        &mut self,
        id: CapabilityId,
        now: SimTime,
        key: &osdc_crypto::SigningKey,
    ) -> bool {
        if self.capability(id).is_none() {
            return false;
        }
        if self.revoked.contains(&id) {
            return false; // already dead; don't spam the log
        }
        let record = Record::sign(RecordBody::Revoke { id, at: now }, key);
        self.logs[self.dc.index()].push(record);
        self.revoked.insert(id);
        true
    }

    /// Records the remote replica (summarized by `remote`) has not seen:
    /// the suffix of every log past the remote's watermark.
    pub fn missing_for(&self, remote: &VersionVector) -> Vec<WireRecord> {
        let mut out = Vec::new();
        for (i, log) in self.logs.iter().enumerate() {
            let from = remote.0[i] as usize;
            for (seq, record) in log.iter().enumerate().skip(from) {
                out.push(WireRecord {
                    origin: DcId(i as u8),
                    seq: seq as u32,
                    record: record.clone(),
                });
            }
        }
        out
    }

    /// Merge gossiped records. Signature-verified, idempotent, and
    /// append-only: a record is applied only at the next free position
    /// of its origin log, duplicates are skipped, gaps and forgeries are
    /// rejected (counted, never applied).
    pub fn integrate(&mut self, batch: &[WireRecord], ring: &Keyring) -> IntegrateOutcome {
        let before = self.version();
        let mut outcome = IntegrateOutcome::default();
        // Within a batch, apply each origin's records in sequence order
        // regardless of arrival interleaving.
        let mut sorted: Vec<&WireRecord> = batch.iter().collect();
        sorted.sort_by_key(|w| (w.origin, w.seq));
        for wire in sorted {
            let log = &mut self.logs[wire.origin.index()];
            let next = log.len() as u32;
            if wire.seq < next {
                outcome.duplicates += 1;
                continue;
            }
            if wire.seq > next || wire.record.verify(ring).is_err() {
                outcome.rejected += 1;
                continue;
            }
            // A grant's id must match its log coordinates, or the index
            // would lie about who minted it.
            if let RecordBody::Grant(cap) = &wire.record.body {
                if cap.id.origin != wire.origin || cap.id.seq != wire.seq {
                    outcome.rejected += 1;
                    continue;
                }
            }
            log.push(wire.record.clone());
            match &wire.record.body {
                RecordBody::Grant(cap) => self.index_grant(cap),
                RecordBody::Revoke { id, .. } => {
                    self.revoked.insert(*id);
                }
            }
            outcome.applied += 1;
        }
        audit::check!(
            self.version().dominates(&before),
            "sharing.version_monotone",
            "{}: integrate moved the version vector backwards ({} -> {})",
            self.dc,
            before,
            self.version()
        );
        outcome
    }

    /// `check`'s per-candidate filter: `cap`'s level allows `action` at
    /// `now`, it covers `path`, and this replica knows no revocation of
    /// it. A revoked or expired capability never passes, whatever the
    /// path or action.
    pub(crate) fn admits(
        &self,
        cap: &Capability,
        path: &str,
        action: Action,
        now: SimTime,
    ) -> bool {
        cap.level.allows(action, now) && cap.covers(path) && !self.revoked.contains(&cap.id)
    }

    /// The who-can-do-what check: the highest-ranked live capability
    /// covering `path` that permits `action` for `grantee` at `now`,
    /// under *this replica's* current knowledge.
    ///
    /// Scans only `grantee`'s own grants via the per-grantee index —
    /// O(this tenant's shares), not O(every share in the federation).
    /// The winner is the max by `(rank, id)`, which is order-independent,
    /// so the narrowed scan returns exactly what the full scan did.
    ///
    /// Every candidate goes through `Registry::admits`, so `Some(id)`
    /// always names a capability `admits` accepts for this path, action
    /// and instant. The safety scan
    /// ([`crate::federation::SharingSim::safety_violations`]) relies on
    /// that: it calls `check` only where `admits` accepts a dead
    /// capability, which never happens, so it walks no grantee's grants.
    pub fn check(
        &self,
        grantee: &str,
        path: &str,
        action: Action,
        now: SimTime,
    ) -> Option<CapabilityId> {
        let ids = self
            .grantees
            .get(grantee)
            .and_then(|gid| self.by_grantee.get(gid))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let mut best: Option<&Capability> = None;
        for cap in ids.iter().filter_map(|&id| self.capability(id)) {
            debug_assert_eq!(cap.grantee, grantee, "grantee index out of sync");
            if !self.admits(cap, path, action, now) {
                continue;
            }
            if best.is_none_or(|b| (cap.level.rank(), cap.id) > (b.level.rank(), b.id)) {
                best = Some(cap);
            }
        }
        if let Some(cap) = best {
            audit::check!(
                !self.revoked.contains(&cap.id),
                "sharing.check_never_returns_revoked",
                "{}: check({grantee}, {path}, {}) returned revoked {}",
                self.dc,
                action.label(),
                cap.id
            );
            audit::check!(
                !cap.level.expired(now),
                "sharing.check_never_returns_expired",
                "{}: check({grantee}, {path}, {}) returned expired {}",
                self.dc,
                action.label(),
                cap.id
            );
        }
        best.map(|c| c.id)
    }

    /// Look up a capability by id (any origin), if known here: the
    /// grant record at the id's log coordinates.
    pub fn capability(&self, id: CapabilityId) -> Option<&Capability> {
        let log = self.logs.get(id.origin.index())?;
        match &log.get(id.seq as usize)?.body {
            RecordBody::Grant(cap) => Some(cap),
            RecordBody::Revoke { .. } => None,
        }
    }

    pub fn is_revoked(&self, id: CapabilityId) -> bool {
        self.revoked.contains(&id)
    }

    /// All capabilities known to this replica (live or not), in id
    /// order: origin by origin, each log in sequence order.
    pub fn capabilities(&self) -> impl Iterator<Item = &Capability> {
        self.logs.iter().flatten().filter_map(|r| match &r.body {
            RecordBody::Grant(cap) => Some(cap),
            RecordBody::Revoke { .. } => None,
        })
    }

    pub fn records_known(&self) -> u64 {
        self.version().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdc_crypto::SigningKey;
    use osdc_sim::SimDuration;

    fn ring_for(keys: &[&SigningKey]) -> Keyring {
        let mut ring = Keyring::new();
        for k in keys {
            ring.register(k);
        }
        ring
    }

    #[test]
    fn grant_then_sync_then_check_at_remote() {
        let ka = SigningKey::from_seed(0);
        let ring = ring_for(&[&ka]);
        let mut a = Registry::new(DcId(0));
        let mut b = Registry::new(DcId(1));
        let id = a.grant(
            "alice",
            "/projects/genomics",
            TrustLevel::View,
            SimTime::ZERO,
            &ka,
        );
        assert_eq!(
            b.check("alice", "/projects/genomics/f", Action::Read, SimTime::ZERO),
            None,
            "b has not heard yet"
        );
        let outcome = b.integrate(&a.missing_for(&b.version()), &ring);
        assert_eq!(outcome.applied, 1);
        assert_eq!(
            b.check("alice", "/projects/genomics/f", Action::Read, SimTime::ZERO),
            Some(id)
        );
        assert_eq!(a.version(), b.version());
    }

    #[test]
    fn integrate_is_idempotent() {
        let ka = SigningKey::from_seed(0);
        let ring = ring_for(&[&ka]);
        let mut a = Registry::new(DcId(0));
        let mut b = Registry::new(DcId(1));
        a.grant("u", "/d", TrustLevel::Copy, SimTime::ZERO, &ka);
        let batch = a.missing_for(&VersionVector::default());
        assert_eq!(b.integrate(&batch, &ring).applied, 1);
        let again = b.integrate(&batch, &ring);
        assert_eq!(again.applied, 0);
        assert_eq!(again.duplicates, 1);
        assert_eq!(b.records_known(), 1);
    }

    #[test]
    fn forged_records_are_rejected() {
        let ka = SigningKey::from_seed(0);
        let mallory = SigningKey::from_seed(99); // not in the ring
        let ring = ring_for(&[&ka]);
        let mut a = Registry::new(DcId(0));
        let mut b = Registry::new(DcId(1));
        a.grant("u", "/d", TrustLevel::View, SimTime::ZERO, &ka);
        let mut batch = a.missing_for(&b.version());
        // Re-sign with an untrusted key.
        batch[0].record = Record::sign(batch[0].record.body.clone(), &mallory);
        let outcome = b.integrate(&batch, &ring);
        assert_eq!(outcome.applied, 0);
        assert_eq!(outcome.rejected, 1);
        assert_eq!(b.records_known(), 0);
    }

    #[test]
    fn grant_with_mismatched_coordinates_is_rejected() {
        let ka = SigningKey::from_seed(0);
        let ring = ring_for(&[&ka]);
        let mut a = Registry::new(DcId(0));
        let mut b = Registry::new(DcId(1));
        a.grant("u", "/d", TrustLevel::View, SimTime::ZERO, &ka);
        let mut batch = a.missing_for(&b.version());
        // Replay a's record as if it came from origin 2's log.
        batch[0].origin = DcId(2);
        assert_eq!(b.integrate(&batch, &ring).rejected, 1);
    }

    #[test]
    fn gaps_are_rejected_not_buffered() {
        let ka = SigningKey::from_seed(0);
        let ring = ring_for(&[&ka]);
        let mut a = Registry::new(DcId(0));
        let mut b = Registry::new(DcId(1));
        a.grant("u", "/d1", TrustLevel::View, SimTime::ZERO, &ka);
        a.grant("u", "/d2", TrustLevel::View, SimTime::ZERO, &ka);
        let batch = a.missing_for(&b.version());
        // Deliver only the second record: seq 1 with nothing at seq 0.
        assert_eq!(b.integrate(&batch[1..], &ring).rejected, 1);
        // Full suffix heals it.
        assert_eq!(b.integrate(&batch, &ring).applied, 2);
    }

    #[test]
    fn revocation_travels_in_the_revoker_log() {
        let keys: Vec<SigningKey> = (0..2).map(SigningKey::from_seed).collect();
        let ring = ring_for(&[&keys[0], &keys[1]]);
        let mut a = Registry::new(DcId(0));
        let mut b = Registry::new(DcId(1));
        let id = a.grant("alice", "/p", TrustLevel::Transfer, SimTime::ZERO, &keys[0]);
        b.integrate(&a.missing_for(&b.version()), &ring);
        // B (not the origin!) revokes; the record sits in B's log.
        assert!(b.revoke(id, SimTime(5), &keys[1]));
        assert_eq!(b.check("alice", "/p", Action::Read, SimTime(6)), None);
        // A learns of the revocation from B's log suffix.
        a.integrate(&b.missing_for(&a.version()), &ring);
        assert_eq!(a.check("alice", "/p", Action::Read, SimTime(6)), None);
        assert!(a.is_revoked(id));
        // Double-revoke is refused.
        assert!(!a.revoke(id, SimTime(7), &keys[0]));
    }

    #[test]
    fn lend_expires_without_any_record() {
        let ka = SigningKey::from_seed(0);
        let mut a = Registry::new(DcId(0));
        let expires = SimTime::ZERO + SimDuration::from_secs(60);
        a.grant(
            "bob",
            "/data",
            TrustLevel::LendUntil { expires },
            SimTime::ZERO,
            &ka,
        );
        assert!(a
            .check("bob", "/data/f", Action::Read, SimTime(1))
            .is_some());
        assert_eq!(a.check("bob", "/data/f", Action::Read, expires), None);
        assert_eq!(a.records_known(), 1, "expiry consumed no log space");
    }

    #[test]
    fn capabilities_are_read_at_their_log_coordinates() {
        let keys: Vec<SigningKey> = (0..3).map(SigningKey::from_seed).collect();
        let ring = ring_for(&[&keys[0], &keys[1], &keys[2]]);
        let (mut a, mut b, mut c) = (
            Registry::new(DcId(0)),
            Registry::new(DcId(1)),
            Registry::new(DcId(2)),
        );
        let a0 = a.grant("amy", "/a0", TrustLevel::View, SimTime::ZERO, &keys[0]);
        let c0 = c.grant("carol", "/c0", TrustLevel::View, SimTime::ZERO, &keys[2]);
        let c1 = c.grant("dave", "/c1", TrustLevel::Copy, SimTime::ZERO, &keys[2]);
        assert!(c.revoke(c0, SimTime(1), &keys[2]));
        let c3 = c.grant("carol", "/c3", TrustLevel::Transfer, SimTime(2), &keys[2]);
        let revoke_record = CapabilityId {
            origin: DcId(2),
            seq: 2,
        };
        // A local grant, then origin 2's log reversed, then origin 0's.
        let b0 = b.grant("bob", "/b0", TrustLevel::View, SimTime::ZERO, &keys[1]);
        let mut from_c = c.missing_for(&b.version());
        from_c.reverse();
        assert_eq!(b.integrate(&from_c, &ring).applied, 4);
        assert_eq!(b.integrate(&a.missing_for(&b.version()), &ring).applied, 1);
        for id in [a0, b0, c0, c1, c3] {
            let cap = b.capability(id).expect("grant found at its coordinates");
            assert_eq!(cap.id, id);
        }
        assert!(b.is_revoked(c0));
        assert!(
            b.capability(revoke_record).is_none(),
            "a revocation is no grant"
        );
        let past_log = CapabilityId {
            origin: DcId(2),
            seq: 4,
        };
        assert!(b.capability(past_log).is_none());
        let foreign = CapabilityId {
            origin: DcId(9),
            seq: 0,
        };
        assert!(b.capability(foreign).is_none(), "no such origin log");
        assert!(!b.revoke(revoke_record, SimTime(3), &keys[1]));
        assert_eq!(b.records_known(), 6, "the refused revoke logged nothing");
        let listed: Vec<CapabilityId> = b.capabilities().map(|cap| cap.id).collect();
        assert_eq!(listed, vec![a0, b0, c0, c1, c3], "CapabilityId order");
    }

    #[test]
    fn admits_refuses_dead_and_uncovered() {
        let ka = SigningKey::from_seed(0);
        let mut a = Registry::new(DcId(0));
        let t = SimTime::ZERO;
        let expires = SimTime(1_000);
        let revoked = a.grant("u", "/d", TrustLevel::Transfer, t, &ka);
        let lend = a.grant("u", "/d", TrustLevel::LendUntil { expires }, t, &ka);
        let view = a.grant("u", "/d", TrustLevel::View, t, &ka);
        let root = a.grant("u", "/", TrustLevel::Transfer, t, &ka);
        assert!(a.revoke(revoked, SimTime(1), &ka));
        let cap = |id| a.capability(id).expect("grant found at its coordinates");

        for action in Action::ALL {
            assert!(
                !a.admits(cap(revoked), "/d/f", action, SimTime(2)),
                "a revoked grant admits {}",
                action.label()
            );
            assert!(
                !a.admits(cap(lend), "/d/f", action, expires),
                "a lend admits {} at its deadline",
                action.label()
            );
        }
        let just_before = SimTime(expires.0 - 1);
        assert!(a.admits(cap(lend), "/d/f", Action::Read, just_before));
        assert!(!a.admits(cap(lend), "/d/f", Action::Copy, just_before));
        assert!(!a.admits(cap(lend), "/d/f", Action::Transfer, just_before));

        assert!(a.admits(cap(view), "/d", Action::Read, t));
        assert!(a.admits(cap(view), "/d/f", Action::Read, t));
        assert!(!a.admits(cap(view), "/d2", Action::Read, t));
        assert!(!a.admits(cap(view), "/d2/f", Action::Read, t));
        for path in ["/", "/d", "/d2", "/any/deep/path"] {
            for action in Action::ALL {
                assert!(a.admits(cap(root), path, action, t), "/ covers {path}");
            }
        }
    }

    #[test]
    fn highest_rank_wins_among_overlapping_grants() {
        let ka = SigningKey::from_seed(0);
        let mut a = Registry::new(DcId(0));
        let view = a.grant("u", "/d", TrustLevel::View, SimTime::ZERO, &ka);
        let copy = a.grant("u", "/d", TrustLevel::Copy, SimTime::ZERO, &ka);
        assert_eq!(
            a.check("u", "/d/f", Action::Read, SimTime::ZERO),
            Some(copy)
        );
        // Revoking the copy grant falls back to the view grant for reads.
        a.revoke(copy, SimTime(1), &ka);
        assert_eq!(a.check("u", "/d/f", Action::Read, SimTime(2)), Some(view));
        assert_eq!(a.check("u", "/d/f", Action::Copy, SimTime(2)), None);
    }
}
