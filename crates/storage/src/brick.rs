//! Bricks: the storage unit a GlusterFS-like volume is built from.
//!
//! A brick is one directory on one server's RAID: it has a capacity, a
//! health state, and its replicas held by slot. Paths live a layer up:
//! the [`crate::volume`] gives each path one slot in its replica set's
//! index, and every brick of that set stores its copy of the path at that
//! slot. Replication and placement live in the volume too.

use osdc_sim::TenantId;

use crate::file::FileData;

/// Identifies a brick within a volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BrickId(pub usize);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrickHealth {
    Online,
    /// Reachable hardware, unreachable server (network partition, daemon
    /// down): contents are preserved and return when the brick comes back.
    Offline,
    /// Server or RAID failure: contents inaccessible (and lost, until the
    /// brick is replaced empty and healed).
    Failed,
}

/// One brick's copy of one file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Replica {
    pub(crate) data: FileData,
    /// The volume-wide write version (heal's freshness arbiter).
    pub(crate) version: u64,
    /// Digest of `data` as written; bit-rot changes `data`, not this.
    pub(crate) digest: [u8; 16],
    /// Owner, interned in the volume's owner table.
    pub(crate) owner: TenantId,
}

impl Replica {
    /// Whether the payload still matches the digest recorded at write.
    pub(crate) fn is_clean(&self) -> bool {
        self.data.digest() == self.digest
    }
}

#[derive(Clone, Debug)]
pub struct Brick {
    pub id: BrickId,
    /// Human-readable location, e.g. `rack3-server12:/data/brick0`.
    pub location: String,
    pub capacity_bytes: u64,
    used_bytes: u64,
    health: BrickHealth,
    /// Replicas by the slot their path holds in the replica set's index.
    replicas: Vec<Option<Replica>>,
}

/// Errors surfaced by direct brick operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BrickError {
    Offline,
    Full { need: u64, free: u64 },
    NotFound,
}

impl Brick {
    pub fn new(id: BrickId, location: impl Into<String>, capacity_bytes: u64) -> Self {
        Brick {
            id,
            location: location.into(),
            capacity_bytes,
            used_bytes: 0,
            health: BrickHealth::Online,
            replicas: Vec::new(),
        }
    }

    pub fn health(&self) -> BrickHealth {
        self.health
    }

    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.used_bytes)
    }

    pub fn file_count(&self) -> usize {
        self.replicas.iter().flatten().count()
    }

    /// Simulate a hardware failure: all contents are gone.
    pub fn fail(&mut self) {
        self.health = BrickHealth::Failed;
        self.replicas.clear();
        self.used_bytes = 0;
    }

    /// Replace the failed hardware with an empty, online brick (heal
    /// repopulates it from surviving replicas).
    pub fn replace(&mut self) {
        self.health = BrickHealth::Online;
        self.replicas.clear();
        self.used_bytes = 0;
    }

    /// Partition the brick away (daemon down, switch port dead): contents
    /// are kept but unreachable until [`Brick::set_online`]. A `Failed`
    /// brick stays failed — its data is already gone.
    pub fn set_offline(&mut self) {
        if self.health == BrickHealth::Online {
            self.health = BrickHealth::Offline;
        }
    }

    /// Bring a partitioned brick back with its contents intact. Does not
    /// resurrect a `Failed` brick (that takes [`Brick::replace`]).
    pub fn set_online(&mut self) {
        if self.health == BrickHealth::Offline {
            self.health = BrickHealth::Online;
        }
    }

    /// Silent bit-rot: the stored payload changes but the recorded digest
    /// does not, so only a digest audit or a digest-aware heal can tell.
    /// Returns whether a replica at `slot` was touched.
    pub(crate) fn corrupt(&mut self, slot: usize) -> bool {
        let Some(Some(replica)) = self.replicas.get_mut(slot) else {
            return false;
        };
        match &mut replica.data {
            FileData::Bytes(b) if !b.is_empty() => b[0] ^= 0xff,
            FileData::Bytes(_) => return false, // nothing to rot
            FileData::Synthetic { seed, .. } => *seed ^= 0xdead_beef,
        }
        true
    }

    /// Store `replica` at `slot`, charging only the size delta against any
    /// replica it replaces.
    pub(crate) fn write(&mut self, slot: usize, replica: Replica) -> Result<(), BrickError> {
        if self.health != BrickHealth::Online {
            return Err(BrickError::Offline);
        }
        let new_size = replica.data.size();
        let old_size = self
            .replicas
            .get(slot)
            .and_then(Option::as_ref)
            .map_or(0, |r| r.data.size());
        let needed = new_size.saturating_sub(old_size);
        if needed > self.free_bytes() {
            return Err(BrickError::Full {
                need: needed,
                free: self.free_bytes(),
            });
        }
        self.used_bytes = self.used_bytes - old_size + new_size;
        if slot >= self.replicas.len() {
            self.replicas.resize_with(slot + 1, || None);
        }
        self.replicas[slot] = Some(replica);
        Ok(())
    }

    pub(crate) fn read(&self, slot: usize) -> Result<&Replica, BrickError> {
        if self.health != BrickHealth::Online {
            return Err(BrickError::Offline);
        }
        self.replicas
            .get(slot)
            .and_then(Option::as_ref)
            .ok_or(BrickError::NotFound)
    }

    pub(crate) fn delete(&mut self, slot: usize) -> Result<(), BrickError> {
        if self.health != BrickHealth::Online {
            return Err(BrickError::Offline);
        }
        match self.replicas.get_mut(slot).and_then(Option::take) {
            Some(replica) => {
                self.used_bytes -= replica.data.size();
                Ok(())
            }
            None => Err(BrickError::NotFound),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(size: u64, version: u64) -> Replica {
        let data = FileData::synthetic(size, 0);
        Replica {
            digest: data.digest(),
            data,
            version,
            owner: TenantId(0),
        }
    }

    fn small(content: &[u8]) -> Replica {
        let data = FileData::bytes(content.to_vec());
        Replica {
            digest: data.digest(),
            data,
            version: 1,
            owner: TenantId(0),
        }
    }

    #[test]
    fn write_read_delete_cycle() {
        let mut b = Brick::new(BrickId(0), "s1:/b0", 1000);
        let r = small(b"hello");
        b.write(3, r.clone()).expect("write ok");
        assert_eq!(b.used_bytes(), 5);
        assert_eq!(b.read(3), Ok(&r));
        assert_eq!(
            b.read(0),
            Err(BrickError::NotFound),
            "slots below stay empty"
        );
        b.delete(3).expect("delete ok");
        assert_eq!(b.used_bytes(), 0);
        assert_eq!(b.read(3), Err(BrickError::NotFound));
        assert_eq!(b.delete(3), Err(BrickError::NotFound));
    }

    #[test]
    fn overwrite_adjusts_usage() {
        let mut b = Brick::new(BrickId(0), "s1:/b0", 1000);
        b.write(0, small(b"12345678")).expect("first write");
        b.write(0, small(b"123")).expect("overwrite");
        assert_eq!(b.used_bytes(), 3);
        assert_eq!(b.file_count(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut b = Brick::new(BrickId(0), "s1:/b0", 10);
        let err = b.write(0, synthetic(11, 1)).expect_err("over capacity");
        assert!(matches!(err, BrickError::Full { need: 11, free: 10 }));
        assert_eq!(
            b.read(0),
            Err(BrickError::NotFound),
            "refused write stores nothing"
        );
        // Exactly-fits is fine.
        b.write(1, synthetic(10, 1)).expect("fits");
        assert_eq!(b.free_bytes(), 0);
    }

    #[test]
    fn overwrite_within_capacity_delta() {
        let mut b = Brick::new(BrickId(0), "s1:/b0", 10);
        b.write(0, synthetic(8, 1)).expect("initial");
        // Growing by 2 fits (delta accounting), though 10 > free=2.
        b.write(0, synthetic(10, 2)).expect("grow in place");
        assert_eq!(b.used_bytes(), 10);
    }

    #[test]
    fn failure_loses_contents() {
        let mut b = Brick::new(BrickId(0), "s1:/b0", 1000);
        b.write(0, small(b"data")).expect("write ok");
        b.fail();
        assert_eq!(b.health(), BrickHealth::Failed);
        assert_eq!(b.read(0), Err(BrickError::Offline));
        assert_eq!(b.write(1, synthetic(1, 1)), Err(BrickError::Offline));
        b.replace();
        assert_eq!(b.health(), BrickHealth::Online);
        assert_eq!(
            b.read(0),
            Err(BrickError::NotFound),
            "replacement starts empty"
        );
        assert_eq!(b.file_count(), 0);
    }

    #[test]
    fn corruption_changes_data_not_digest() {
        let mut b = Brick::new(BrickId(0), "s1:/b0", 1000);
        b.write(0, small(b"precious")).expect("write ok");
        b.write(1, synthetic(4, 1)).expect("write ok");
        b.write(2, small(b"")).expect("write ok");
        b.set_offline();
        assert!(b.corrupt(0), "rot reaches a partitioned brick's disk");
        b.set_online();
        assert!(b.corrupt(1));
        assert!(!b.corrupt(2), "an empty payload has nothing to rot");
        assert!(!b.corrupt(9), "no replica at that slot");
        for slot in 0..2 {
            let r = b.read(slot).expect("still stored");
            assert!(!r.is_clean(), "slot {slot} fails its digest");
        }
        assert!(b.read(2).expect("stored").is_clean());
        assert_eq!(b.used_bytes(), 12, "rot does not change sizes");
    }
}
