//! The volume: a distribute layer over replicated brick sets.
//!
//! GlusterFS composes "translators": the paper's deployment distributes
//! files across replica sets by path hash, and (when mirroring is on)
//! each replica set writes every file to all of its bricks. §7.1's war
//! story — the v3.1 mirroring bug that *silently* dropped replica writes,
//! versus v3.3's reliable mirroring plus self-heal — is modelled by
//! [`GlusterVersion`].

use std::collections::{BTreeMap, HashMap};

use osdc_sim::{SimRng, TenantInterner};
use osdc_telemetry::audit;

use crate::brick::{Brick, BrickError, BrickHealth, BrickId, Replica};
use crate::file::{FileData, FileMeta};

/// Which era of the mirroring code a volume runs (§7.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GlusterVersion {
    /// 3.1-era: each replica write independently, and non-primary replica
    /// writes are *silently dropped* with the given probability. No
    /// self-heal. ("a bug in mirroring that caused some data loss")
    V3_1 { replica_drop_prob: f64 },
    /// 3.3-era: all-or-nothing replica writes and a working self-heal.
    V3_3,
}

/// Result of a self-heal pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealReport {
    /// Files re-copied to bricks that were missing them.
    pub repaired: u64,
    /// Files where replicas disagreed and the highest version won.
    pub reconciled: u64,
    /// Files present on no online brick of their set — unrecoverable here.
    pub lost: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VolumeError {
    NotFound,
    /// Every replica holding the file is offline or lost it.
    Unavailable,
    NoSpace,
}

/// Why a volume shape is unbuildable. Both rejected shapes used to be
/// runtime hazards: zero replica sets makes the placement hash divide by
/// zero, and a brick count that is not a multiple of the replica count
/// leaves the trailing bricks unreachable by placement while
/// [`Volume::usable_capacity_bytes`] still counts them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VolumeConfigError {
    /// `replica_count` was zero.
    ZeroReplicas,
    /// `brick_count` was zero.
    NoBricks,
    /// Fewer bricks than one full replica set: `replica_sets()` would be
    /// zero and every placement would divide by zero.
    TooFewBricks {
        brick_count: usize,
        replica_count: usize,
    },
    /// Trailing `brick_count % replica_count` bricks would never receive
    /// a file yet still inflate the advertised capacity.
    NotAMultiple {
        brick_count: usize,
        replica_count: usize,
    },
}

impl std::fmt::Display for VolumeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeConfigError::ZeroReplicas => write!(f, "need at least one replica"),
            VolumeConfigError::NoBricks => write!(f, "need at least one brick"),
            VolumeConfigError::TooFewBricks {
                brick_count,
                replica_count,
            } => write!(
                f,
                "{brick_count} brick(s) cannot form a replica-{replica_count} set"
            ),
            VolumeConfigError::NotAMultiple {
                brick_count,
                replica_count,
            } => write!(
                f,
                "brick count {brick_count} must be a multiple of replica count {replica_count} \
                 (trailing bricks would be unreachable)"
            ),
        }
    }
}

impl std::error::Error for VolumeConfigError {}

/// A distributed, optionally replicated volume.
///
/// ```
/// use osdc_storage::{BrickId, FileData, GlusterVersion, Volume};
///
/// // Four bricks, replica-2 (two replica sets), v3.3 semantics.
/// let mut vol = Volume::new("adler", GlusterVersion::V3_3, 4, 2, 1 << 30, 42);
/// vol.write("/genomes/chr1.fa", FileData::bytes(b"ACGT".to_vec()), "alice").unwrap();
///
/// // One brick dies: the replica still serves the file.
/// vol.fail_brick(BrickId(0));
/// let (data, meta) = vol.read("/genomes/chr1.fa").unwrap();
/// assert_eq!(data, FileData::bytes(b"ACGT".to_vec()));
/// assert_eq!(meta.owner, "alice");
///
/// // Replace the hardware and heal; the new brick is repopulated.
/// vol.replace_brick(BrickId(0));
/// vol.heal();
/// ```
#[derive(Debug)]
pub struct Volume {
    pub name: String,
    version: GlusterVersion,
    replica_count: usize,
    /// Bricks, grouped as consecutive replica sets of `replica_count`.
    bricks: Vec<Brick>,
    /// One index per replica set, from each path the set was ever asked
    /// to store to its slot: every brick of the set holds its replica of
    /// the path at that slot. A deleted path keeps its slot, and a slot
    /// never moves to another path.
    index: Vec<HashMap<Box<str>, u32>>,
    /// Every owner that has written, stored once; replicas hold the id.
    owners: TenantInterner,
    rng: SimRng,
    /// Count of replica writes silently dropped by the v3.1 defect.
    pub silent_drops: u64,
    next_version: u64,
}

impl Volume {
    /// Build a volume from equal bricks. `brick_count` must be a multiple
    /// of `replica_count`; replica sets are consecutive groups.
    ///
    /// # Panics
    ///
    /// On an unbuildable shape. Callers pass literal shapes, so a bad one
    /// is a bug in the caller; fallible callers (operator input,
    /// randomized drivers) use [`Volume::try_new`].
    #[allow(clippy::panic)]
    pub fn new(
        name: impl Into<String>,
        version: GlusterVersion,
        brick_count: usize,
        replica_count: usize,
        brick_capacity: u64,
        seed: u64,
    ) -> Self {
        Self::try_new(
            name,
            version,
            brick_count,
            replica_count,
            brick_capacity,
            seed,
        )
        .unwrap_or_else(|e| panic!("invalid volume shape: {e}"))
    }

    /// Shape-validating constructor: every rejected configuration is a
    /// typed [`VolumeConfigError`] instead of a latent panic (mod-by-zero
    /// in the placement hash) or silent capacity lie (unreachable
    /// trailing bricks counted as usable).
    pub fn try_new(
        name: impl Into<String>,
        version: GlusterVersion,
        brick_count: usize,
        replica_count: usize,
        brick_capacity: u64,
        seed: u64,
    ) -> Result<Self, VolumeConfigError> {
        if replica_count == 0 {
            return Err(VolumeConfigError::ZeroReplicas);
        }
        if brick_count == 0 {
            return Err(VolumeConfigError::NoBricks);
        }
        if brick_count < replica_count {
            return Err(VolumeConfigError::TooFewBricks {
                brick_count,
                replica_count,
            });
        }
        if !brick_count.is_multiple_of(replica_count) {
            return Err(VolumeConfigError::NotAMultiple {
                brick_count,
                replica_count,
            });
        }
        let name = name.into();
        let bricks = (0..brick_count)
            .map(|i| {
                Brick::new(
                    BrickId(i),
                    format!(
                        "{name}-server{}:/brick{}",
                        i / replica_count,
                        i % replica_count
                    ),
                    brick_capacity,
                )
            })
            .collect();
        Ok(Volume {
            name,
            version,
            replica_count,
            bricks,
            index: (0..brick_count / replica_count)
                .map(|_| HashMap::new())
                .collect(),
            owners: TenantInterner::new(),
            rng: SimRng::new(seed),
            silent_drops: 0,
            next_version: 1,
        })
    }

    pub fn replica_sets(&self) -> usize {
        self.bricks.len() / self.replica_count
    }

    pub fn total_capacity_bytes(&self) -> u64 {
        self.bricks.iter().map(|b| b.capacity_bytes).sum()
    }

    pub fn used_bytes(&self) -> u64 {
        self.bricks.iter().map(|b| b.used_bytes()).sum()
    }

    /// Usable capacity accounts for replication overhead.
    pub fn usable_capacity_bytes(&self) -> u64 {
        self.total_capacity_bytes() / self.replica_count as u64
    }

    /// FNV-1a placement hash — the distribute translator.
    fn placement(&self, path: &str) -> usize {
        audit::check!(
            self.replica_sets() > 0,
            "storage.placement_nonzero_sets",
            "volume {} has {} bricks for replica-{}: placement would divide by zero",
            self.name,
            self.bricks.len(),
            self.replica_count
        );
        let mut h: u64 = 0xcbf29ce484222325;
        for b in path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % self.replica_sets() as u64) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let range = set * self.replica_count..(set + 1) * self.replica_count;
        audit::check!(
            range.end <= self.bricks.len(),
            "storage.replica_set_in_bounds",
            "set {set} spans bricks {range:?} but volume {} has only {}",
            self.name,
            self.bricks.len()
        );
        range
    }

    /// The slot `path` holds in replica set `set`, if the set has seen it.
    fn slot(&self, set: usize, path: &str) -> Option<usize> {
        self.index[set].get(path).map(|&slot| slot as usize)
    }

    /// Structural invariants re-asserted after every mutation (audit
    /// builds only; free otherwise).
    fn audit_structure(&self) {
        if !audit::enabled() {
            return;
        }
        for b in &self.bricks {
            audit::check!(
                b.used_bytes() <= b.capacity_bytes,
                "storage.brick_used_le_capacity",
                "brick {:?} holds {} bytes over its {}-byte capacity",
                b.id,
                b.used_bytes(),
                b.capacity_bytes
            );
        }
        audit::check!(
            self.bricks.len() == self.replica_sets() * self.replica_count,
            "storage.brick_count_multiple",
            "volume {}: {} bricks not partitioned by replica-{}",
            self.name,
            self.bricks.len(),
            self.replica_count
        );
    }

    /// Write a file. In v3.3 the write succeeds only if *every online*
    /// brick of the set accepts it (transactional); in v3.1 each replica
    /// is written independently and non-primary writes may silently drop.
    pub fn write(&mut self, path: &str, data: FileData, owner: &str) -> Result<(), VolumeError> {
        let version = self.next_version;
        self.next_version += 1;
        let owner = self.owners.intern(owner);
        let digest = data.digest();
        let set = self.placement(path);
        let range = self.set_range(set);
        let slot = match self.slot(set, path) {
            Some(slot) => slot,
            None => {
                let paths = &mut self.index[set];
                // A set holding 2³² paths has no room for another.
                let Ok(slot) = u32::try_from(paths.len()) else {
                    return Err(VolumeError::NoSpace);
                };
                paths.insert(path.into(), slot);
                slot as usize
            }
        };
        let mut wrote_any = false;
        let mut full = false;
        for (rank, idx) in range.enumerate() {
            if self.bricks[idx].health() != BrickHealth::Online {
                continue;
            }
            if let GlusterVersion::V3_1 { replica_drop_prob } = self.version {
                if rank > 0 && self.rng.chance(replica_drop_prob) {
                    self.silent_drops += 1;
                    continue; // the defect: caller never learns
                }
            }
            let replica = Replica {
                data: data.clone(),
                version,
                digest,
                owner,
            };
            match self.bricks[idx].write(slot, replica) {
                Ok(()) => wrote_any = true,
                Err(BrickError::Full { .. }) => full = true,
                Err(_) => {}
            }
        }
        self.audit_structure();
        if wrote_any {
            Ok(())
        } else if full {
            Err(VolumeError::NoSpace)
        } else {
            Err(VolumeError::Unavailable)
        }
    }

    /// The freshest replica of `path` on an online brick of its set,
    /// borrowed where it lies.
    fn locate(&self, path: &str) -> Result<&Replica, VolumeError> {
        let set = self.placement(path);
        let slot = self.slot(set, path);
        let mut best: Option<&Replica> = None;
        let mut any_online = false;
        for brick in &self.bricks[self.set_range(set)] {
            if brick.health() != BrickHealth::Online {
                continue;
            }
            any_online = true;
            let Some(replica) = slot.and_then(|s| brick.read(s).ok()) else {
                continue;
            };
            if best.is_none_or(|b| replica.version > b.version) {
                best = Some(replica);
            }
        }
        match best {
            Some(replica) => Ok(replica),
            None if any_online => Err(VolumeError::NotFound),
            None => Err(VolumeError::Unavailable),
        }
    }

    /// Read a file from the freshest online replica.
    pub fn read(&self, path: &str) -> Result<(FileData, FileMeta), VolumeError> {
        let replica = self.locate(path)?;
        let meta = FileMeta {
            size: replica.data.size(),
            owner: self.owners.name(replica.owner).to_string(),
            version: replica.version,
            digest: replica.digest,
        };
        Ok((replica.data.clone(), meta))
    }

    pub fn delete(&mut self, path: &str) -> Result<(), VolumeError> {
        let set = self.placement(path);
        let range = self.set_range(set);
        let mut deleted = false;
        if let Some(slot) = self.slot(set, path) {
            for brick in &mut self.bricks[range] {
                deleted |= brick.delete(slot).is_ok();
            }
        }
        self.audit_structure();
        if deleted {
            Ok(())
        } else {
            Err(VolumeError::NotFound)
        }
    }

    /// All distinct paths visible on online bricks, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut paths = Vec::new();
        for (set, index) in self.index.iter().enumerate() {
            let bricks = &self.bricks[self.set_range(set)];
            paths.extend(
                index
                    .iter()
                    .filter(|&(_, &slot)| bricks.iter().any(|b| b.read(slot as usize).is_ok()))
                    .map(|(path, _)| path.to_string()),
            );
        }
        paths.sort_unstable();
        paths
    }

    /// Per-owner stored bytes (primary copies only — §6.4's daily storage
    /// accounting bills logical usage, not replication overhead).
    pub fn usage_by_owner(&self) -> BTreeMap<String, u64> {
        let mut by_owner: Vec<Option<u64>> = vec![None; self.owners.len()];
        for (set, index) in self.index.iter().enumerate() {
            let bricks = &self.bricks[self.set_range(set)];
            for slot in 0..index.len() {
                // Each path counts once, from its lowest-ranked online copy.
                if let Some(replica) = bricks.iter().find_map(|b| b.read(slot).ok()) {
                    *by_owner[replica.owner.index()].get_or_insert(0) += replica.data.size();
                }
            }
        }
        self.owners
            .names()
            .zip(by_owner)
            .filter_map(|(owner, bytes)| Some((owner.to_string(), bytes?)))
            .collect()
    }

    /// Fail a brick (hardware loss).
    pub fn fail_brick(&mut self, id: BrickId) {
        self.bricks[id.0].fail();
    }

    /// Replace a failed brick with empty hardware.
    pub fn replace_brick(&mut self, id: BrickId) {
        self.bricks[id.0].replace();
    }

    /// Partition a brick away (contents preserved; see
    /// [`Brick::set_offline`]). Used by fault injection for outage
    /// windows that should not destroy data.
    pub fn offline_brick(&mut self, id: BrickId) {
        self.bricks[id.0].set_offline();
    }

    /// End a partition: the brick returns with its contents.
    pub fn online_brick(&mut self, id: BrickId) {
        self.bricks[id.0].set_online();
    }

    /// Silently corrupt the replica of `path` held by the given rank
    /// (0 = primary) of its replica set. Returns whether a stored copy
    /// was actually touched; a rank past the set touches nothing.
    pub fn corrupt_replica(&mut self, path: &str, rank: usize) -> bool {
        if rank >= self.replica_count {
            return false;
        }
        let set = self.placement(path);
        let Some(slot) = self.slot(set, path) else {
            return false;
        };
        let idx = self.set_range(set).start + rank;
        self.bricks[idx].corrupt(slot)
    }

    /// Paths whose best readable copy fails its digest check — data the
    /// volume still serves, but wrong (the silent-corruption audit).
    pub fn audit_corrupt(&self, expected_paths: &[String]) -> Vec<String> {
        expected_paths
            .iter()
            .filter(|p| self.locate(p).is_ok_and(|replica| !replica.is_clean()))
            .cloned()
            .collect()
    }

    pub fn brick_health(&self, id: BrickId) -> BrickHealth {
        self.bricks[id.0].health()
    }

    pub fn brick_count(&self) -> usize {
        self.bricks.len()
    }

    /// Self-heal pass (v3.3 only — v3.1 had none, which is why the bug
    /// cost data). For every path in every replica set, copy the freshest
    /// replica onto online bricks that lack it or hold an older version.
    ///
    /// Each set's paths are healed in path order. The order is part of
    /// the contract: on near-full bricks an earlier copy can take the
    /// space a later one needed.
    pub fn heal(&mut self) -> HealReport {
        let mut report = HealReport::default();
        if matches!(self.version, GlusterVersion::V3_1 { .. }) {
            return report; // nothing runs; losses stay lost
        }
        // One buffer, sized for the largest set, holds each set's
        // (path, slot) pairs in turn.
        let largest = self.index.iter().map(HashMap::len).max().unwrap_or(0);
        let mut order: Vec<(&str, u32)> = Vec::with_capacity(largest);
        for set in 0..self.index.len() {
            let range = self.set_range(set);
            order.clear();
            order.extend(self.index[set].iter().map(|(path, &slot)| (&**path, slot)));
            order.sort_unstable_by_key(|&(path, _)| path);
            let bricks = &mut self.bricks[range];
            for &(_, slot) in &order {
                heal_slot(bricks, slot as usize, &mut report);
            }
        }
        self.audit_structure();
        report
    }

    /// Paths that can no longer be read (for loss audits after failures).
    pub fn audit_lost(&self, expected_paths: &[String]) -> Vec<String> {
        expected_paths
            .iter()
            .filter(|p| self.locate(p).is_err())
            .cloned()
            .collect()
    }
}

/// Heal one path of a replica set: copy its freshest digest-clean online
/// replica (the first in brick order on a tie) onto every online brick
/// where the path is missing, stale or rotten.
fn heal_slot(bricks: &mut [Brick], slot: usize, report: &mut HealReport) {
    let mut present = false;
    let mut source: Option<(usize, u64)> = None;
    for (i, brick) in bricks.iter().enumerate() {
        let Ok(replica) = brick.read(slot) else {
            continue;
        };
        present = true;
        // A replica whose payload no longer matches its recorded digest
        // is bit-rot, never a heal source.
        if replica.is_clean() && source.is_none_or(|(_, v)| replica.version > v) {
            source = Some((i, replica.version));
        }
    }
    let Some((source, version)) = source else {
        // Every online replica rotted: nothing clean to copy from.
        report.lost += u64::from(present);
        return;
    };
    let (mut repaired, mut reconciled) = (false, false);
    for i in 0..bricks.len() {
        let missing = match bricks[i].read(slot) {
            Ok(r) if r.version == version && r.is_clean() => continue,
            Ok(_) => false,
            Err(BrickError::NotFound) => true,
            Err(_) => continue,
        };
        let Ok(copy) = bricks[source].read(slot).cloned() else {
            continue;
        };
        if bricks[i].write(slot, copy).is_ok() {
            if missing {
                repaired = true;
            } else {
                reconciled = true;
            }
        }
    }
    report.repaired += u64::from(repaired);
    report.reconciled += u64::from(reconciled);
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    fn mk(version: GlusterVersion, bricks: usize, replicas: usize, seed: u64) -> Volume {
        Volume::new("test-vol", version, bricks, replicas, 100 * GB, seed)
    }

    #[test]
    fn write_read_roundtrip() {
        let mut v = mk(GlusterVersion::V3_3, 4, 2, 1);
        v.write("/data/a", FileData::bytes(b"hello".to_vec()), "alice")
            .expect("write ok");
        let (data, meta) = v.read("/data/a").expect("read ok");
        assert_eq!(data, FileData::bytes(b"hello".to_vec()));
        assert_eq!(meta.owner, "alice");
    }

    #[test]
    fn distribute_spreads_files() {
        let mut v = mk(GlusterVersion::V3_3, 8, 1, 2);
        for i in 0..200 {
            v.write(&format!("/f{i}"), FileData::synthetic(1, i), "u")
                .expect("write ok");
        }
        // Every replica set should have received some files.
        let per_brick: Vec<usize> = (0..8).map(|i| v.bricks[i].file_count()).collect();
        assert!(
            per_brick.iter().all(|&c| c > 10),
            "skewed placement: {per_brick:?}"
        );
        assert_eq!(per_brick.iter().sum::<usize>(), 200);
    }

    #[test]
    fn replication_survives_single_brick_failure() {
        let mut v = mk(GlusterVersion::V3_3, 4, 2, 3);
        for i in 0..50 {
            v.write(&format!("/f{i}"), FileData::synthetic(10, i), "u")
                .expect("write ok");
        }
        v.fail_brick(BrickId(0));
        v.fail_brick(BrickId(2)); // one brick from each set
        for i in 0..50 {
            v.read(&format!("/f{i}")).expect("replica survives");
        }
    }

    #[test]
    fn v31_bug_loses_data_after_failure() {
        let mut v = mk(
            GlusterVersion::V3_1 {
                replica_drop_prob: 0.3,
            },
            2,
            2,
            4,
        );
        let paths: Vec<String> = (0..200).map(|i| format!("/f{i}")).collect();
        for (i, p) in paths.iter().enumerate() {
            v.write(p, FileData::synthetic(10, i as u64), "u")
                .expect("write ok");
        }
        assert!(
            v.silent_drops > 30,
            "defect should fire: {}",
            v.silent_drops
        );
        // All reads still fine (primary alive)...
        assert!(v.audit_lost(&paths).is_empty());
        // ...until the primary dies: files whose mirror write was dropped
        // are gone, and v3.1 heal does nothing.
        v.fail_brick(BrickId(0));
        let lost = v.audit_lost(&paths);
        assert!(!lost.is_empty(), "v3.1 defect must cost data");
        v.heal();
        assert_eq!(v.audit_lost(&paths).len(), lost.len(), "v3.1 has no heal");
    }

    #[test]
    fn v33_heal_repopulates_replaced_brick() {
        let mut v = mk(GlusterVersion::V3_3, 2, 2, 5);
        let paths: Vec<String> = (0..100).map(|i| format!("/f{i}")).collect();
        for (i, p) in paths.iter().enumerate() {
            v.write(p, FileData::synthetic(10, i as u64), "u")
                .expect("write ok");
        }
        v.fail_brick(BrickId(1));
        v.replace_brick(BrickId(1));
        let report = v.heal();
        assert_eq!(report.repaired, 100);
        assert_eq!(report.lost, 0);
        // Now the *other* brick can die and nothing is lost.
        v.fail_brick(BrickId(0));
        assert!(v.audit_lost(&paths).is_empty());
    }

    #[test]
    fn heal_reconciles_stale_versions() {
        let mut v = mk(GlusterVersion::V3_3, 2, 2, 6);
        v.write("/f", FileData::bytes(b"v1".to_vec()), "u")
            .expect("write ok");
        // Brick 1 goes down; a new version lands only on brick 0.
        v.fail_brick(BrickId(1));
        v.write("/f", FileData::bytes(b"v2".to_vec()), "u")
            .expect("write ok");
        v.replace_brick(BrickId(1));
        let report = v.heal();
        assert_eq!(report.repaired, 1);
        // Kill brick 0: the healed copy on brick 1 must be v2.
        v.fail_brick(BrickId(0));
        let (data, _) = v.read("/f").expect("read from healed replica");
        assert_eq!(data, FileData::bytes(b"v2".to_vec()));
    }

    #[test]
    fn read_prefers_freshest_replica() {
        let mut v = mk(GlusterVersion::V3_3, 2, 2, 7);
        v.write("/f", FileData::bytes(b"old".to_vec()), "u")
            .expect("write ok");
        v.fail_brick(BrickId(1));
        v.write("/f", FileData::bytes(b"new".to_vec()), "u")
            .expect("write ok");
        v.replace_brick(BrickId(1));
        // Without heal, brick 1 is empty; read must return the v2 copy.
        let (data, _) = v.read("/f").expect("read ok");
        assert_eq!(data, FileData::bytes(b"new".to_vec()));
    }

    #[test]
    fn not_found_vs_unavailable() {
        let mut v = mk(GlusterVersion::V3_3, 2, 2, 8);
        assert_eq!(v.read("/missing").unwrap_err(), VolumeError::NotFound);
        v.write("/f", FileData::bytes(b"x".to_vec()), "u")
            .expect("write ok");
        v.fail_brick(BrickId(0));
        v.fail_brick(BrickId(1));
        assert_eq!(v.read("/f").unwrap_err(), VolumeError::Unavailable);
        assert_eq!(
            v.write("/g", FileData::bytes(b"y".to_vec()), "u")
                .unwrap_err(),
            VolumeError::Unavailable
        );
    }

    #[test]
    fn no_space_reported() {
        let mut v = Volume::new("tiny", GlusterVersion::V3_3, 2, 2, 10, 9);
        let err = v
            .write("/big", FileData::synthetic(100, 0), "u")
            .expect_err("too big");
        assert_eq!(err, VolumeError::NoSpace);
    }

    #[test]
    fn usage_by_owner_counts_logical_bytes() {
        let mut v = mk(GlusterVersion::V3_3, 4, 2, 10);
        v.write("/a", FileData::synthetic(100, 1), "alice")
            .expect("write ok");
        v.write("/b", FileData::synthetic(50, 2), "alice")
            .expect("write ok");
        v.write("/c", FileData::synthetic(25, 3), "bob")
            .expect("write ok");
        let usage = v.usage_by_owner();
        assert_eq!(usage["alice"], 150, "logical, not ×2 replicated");
        assert_eq!(usage["bob"], 25);
        // Physical usage is doubled by replication.
        assert_eq!(v.used_bytes(), 350);
    }

    #[test]
    fn delete_removes_all_replicas() {
        let mut v = mk(GlusterVersion::V3_3, 2, 2, 11);
        v.write("/f", FileData::bytes(b"x".to_vec()), "u")
            .expect("write ok");
        v.delete("/f").expect("delete ok");
        assert_eq!(v.read("/f").unwrap_err(), VolumeError::NotFound);
        assert_eq!(v.used_bytes(), 0);
        assert_eq!(v.delete("/f").unwrap_err(), VolumeError::NotFound);
    }

    #[test]
    fn list_dedups_replicas() {
        let mut v = mk(GlusterVersion::V3_3, 2, 2, 12);
        v.write("/b", FileData::bytes(b"x".to_vec()), "u")
            .expect("write ok");
        v.write("/a", FileData::bytes(b"y".to_vec()), "u")
            .expect("write ok");
        assert_eq!(v.list(), vec!["/a".to_string(), "/b".to_string()]);
    }

    #[test]
    fn offline_brick_preserves_contents() {
        let mut v = mk(GlusterVersion::V3_3, 2, 2, 14);
        let paths: Vec<String> = (0..40).map(|i| format!("/f{i}")).collect();
        for (i, p) in paths.iter().enumerate() {
            v.write(p, FileData::synthetic(10, i as u64), "u")
                .expect("write ok");
        }
        // Partition one brick, then the other: everything unreadable, but
        // nothing destroyed.
        v.offline_brick(BrickId(0));
        assert!(v.audit_lost(&paths).is_empty(), "replica still serves");
        v.offline_brick(BrickId(1));
        assert_eq!(v.audit_lost(&paths).len(), paths.len());
        v.online_brick(BrickId(0));
        v.online_brick(BrickId(1));
        assert!(v.audit_lost(&paths).is_empty(), "partition costs no data");
        assert_eq!(v.heal(), HealReport::default(), "nothing to repair");
    }

    #[test]
    fn online_does_not_resurrect_failed_brick() {
        let mut v = mk(GlusterVersion::V3_3, 2, 2, 15);
        v.fail_brick(BrickId(0));
        v.online_brick(BrickId(0));
        assert_eq!(v.brick_health(BrickId(0)), BrickHealth::Failed);
    }

    #[test]
    fn heal_repairs_silent_corruption_from_clean_replica() {
        let mut v = mk(GlusterVersion::V3_3, 2, 2, 16);
        let paths = vec!["/f".to_string()];
        v.write("/f", FileData::bytes(b"precious".to_vec()), "u")
            .expect("write ok");
        assert!(v.corrupt_replica("/f", 0), "primary copy rots");
        assert_eq!(v.audit_corrupt(&paths), paths, "read serves rot silently");
        let report = v.heal();
        assert_eq!(report.reconciled, 1, "rot overwritten from clean mirror");
        assert_eq!(report.lost, 0);
        assert!(v.audit_corrupt(&paths).is_empty());
        let (data, _) = v.read("/f").expect("read ok");
        assert_eq!(data, FileData::bytes(b"precious".to_vec()));
    }

    #[test]
    fn heal_reports_loss_when_every_replica_rots() {
        let mut v = mk(GlusterVersion::V3_3, 2, 2, 17);
        v.write("/f", FileData::bytes(b"gone".to_vec()), "u")
            .expect("write ok");
        assert!(v.corrupt_replica("/f", 0));
        assert!(v.corrupt_replica("/f", 1));
        let report = v.heal();
        assert_eq!(report.lost, 1, "no clean source remains");
        assert_eq!(report.repaired + report.reconciled, 0);
    }

    #[test]
    fn v31_never_heals_corruption() {
        let mut v = mk(
            GlusterVersion::V3_1 {
                replica_drop_prob: 0.0,
            },
            2,
            2,
            18,
        );
        let paths = vec!["/f".to_string()];
        v.write("/f", FileData::bytes(b"x".to_vec()), "u")
            .expect("write ok");
        assert!(v.corrupt_replica("/f", 0));
        v.heal();
        assert_eq!(v.audit_corrupt(&paths), paths, "3.1 heal is a no-op");
    }

    // Regression: heal walks each set's paths in path order. Brick 1
    // has room for one more byte, so only the first copy the heal pushes
    // lands there; walking slots in first-write order would save `/c`.
    #[test]
    fn heal_copies_in_path_order() {
        let mut v = Volume::new("tiny", GlusterVersion::V3_3, 2, 2, 4, 19);
        for p in ["/c", "/b", "/a"] {
            v.write(p, FileData::synthetic(1, 0), "u")
                .expect("write ok");
        }
        v.fail_brick(BrickId(1));
        v.replace_brick(BrickId(1));
        v.offline_brick(BrickId(0));
        v.write("/big", FileData::synthetic(3, 1), "u")
            .expect("lands on brick 1 alone");
        v.online_brick(BrickId(0));
        let report = v.heal();
        assert_eq!(report.repaired, 1, "{report:?}");
        v.fail_brick(BrickId(0));
        assert!(v.read("/a").is_ok(), "the first path in order was healed");
        assert_eq!(v.read("/c").unwrap_err(), VolumeError::NotFound);
    }

    #[test]
    fn usable_capacity_accounts_for_replication() {
        let v = mk(GlusterVersion::V3_3, 4, 2, 13);
        assert_eq!(v.total_capacity_bytes(), 400 * GB);
        assert_eq!(v.usable_capacity_bytes(), 200 * GB);
    }

    // Regression: fewer bricks than one replica set used to reach a
    // mod-by-zero in `placement` (replica_sets() == 0); now it is a typed
    // constructor error.
    #[test]
    fn too_few_bricks_is_a_typed_error() {
        let err = Volume::try_new("bad", GlusterVersion::V3_3, 1, 2, GB, 0).unwrap_err();
        assert_eq!(
            err,
            VolumeConfigError::TooFewBricks {
                brick_count: 1,
                replica_count: 2
            }
        );
    }

    // Regression: a brick count that is not a multiple of the replica
    // count silently stranded the trailing bricks (placement never chose
    // them) while `usable_capacity_bytes` still advertised them.
    #[test]
    fn non_multiple_brick_count_is_a_typed_error() {
        let err = Volume::try_new("bad", GlusterVersion::V3_3, 3, 2, GB, 0).unwrap_err();
        assert_eq!(
            err,
            VolumeConfigError::NotAMultiple {
                brick_count: 3,
                replica_count: 2
            }
        );
    }

    #[test]
    fn degenerate_counts_are_typed_errors() {
        assert_eq!(
            Volume::try_new("bad", GlusterVersion::V3_3, 4, 0, GB, 0).unwrap_err(),
            VolumeConfigError::ZeroReplicas
        );
        assert_eq!(
            Volume::try_new("bad", GlusterVersion::V3_3, 0, 1, GB, 0).unwrap_err(),
            VolumeConfigError::NoBricks
        );
    }

    #[test]
    fn try_new_accepts_valid_shapes() {
        for (bricks, replicas) in [(1, 1), (2, 1), (2, 2), (6, 3), (8, 2)] {
            let v = Volume::try_new("ok", GlusterVersion::V3_3, bricks, replicas, GB, 1)
                .expect("valid shape");
            assert_eq!(v.brick_count(), bricks);
            assert_eq!(v.replica_sets(), bricks / replicas);
            // Every advertised usable byte is reachable: capacity is the
            // per-set capacity times the number of reachable sets.
            assert_eq!(v.usable_capacity_bytes(), (bricks / replicas) as u64 * GB);
        }
    }

    #[test]
    #[should_panic(expected = "invalid volume shape")]
    fn new_still_panics_with_context() {
        let _ = Volume::new("bad", GlusterVersion::V3_3, 3, 2, GB, 0);
    }
}
