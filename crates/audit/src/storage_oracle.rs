//! A flat-store reference model for the replicated volume.
//!
//! [`FlatStore`] re-implements the *contract* of `osdc_storage::Volume`
//! — placement, replication, version arbitration, self-heal, capacity
//! accounting, the v3.1 silent-drop defect — over plain `HashMap`s, with
//! none of the production code's brick/translator layering. Both sides
//! are seeded identically: the only stochastic draw a volume makes is
//! the v3.1 per-replica drop (one `chance(p)` per *online, non-primary*
//! brick of the placed set, in rank order, and only on writes), so the
//! model mirrors exactly those draws and stays in RNG lockstep through
//! arbitrary fault schedules.
//!
//! [`StorageOracle`] then compares every observable of every operation:
//! write/read/delete results, heal reports, listings, per-owner usage,
//! physical bytes, silent-drop counts, and the [`Effect`]s of chaos
//! inject/restore actions (restores run self-heal, as the campaign
//! driver's do).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use osdc_chaos::{Effect, FaultEvent, FaultKind, InjectError, Injector};
use osdc_sim::{SimRng, SimTime};
use osdc_storage::{
    FileData, FileMeta, GlusterVersion, HealReport, Volume, VolumeConfigError, VolumeError,
};

/// One operation the differential driver replays on both sides.
#[derive(Clone, Debug)]
pub enum StorageOp {
    Write {
        path: String,
        data: FileData,
        owner: String,
    },
    Read {
        path: String,
    },
    Delete {
        path: String,
    },
    Heal,
    List,
    Usage,
    /// Apply a chaos fault (brick crash, server outage, silent
    /// corruption) through the `Injector` impl on the volume and the
    /// mirrored semantics on the model.
    Inject(FaultEvent),
    /// End a fault window; storage restores always finish with a
    /// self-heal pass, whose report both sides must agree on.
    Restore(FaultEvent),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ModelHealth {
    Online,
    Offline,
    Failed,
}

#[derive(Clone, Debug)]
struct ModelBrick {
    health: ModelHealth,
    used: u64,
    files: HashMap<String, (FileData, FileMeta)>,
}

/// The reference model: every brick is a flat path → (data, meta) map.
#[derive(Clone, Debug)]
pub struct FlatStore {
    version: GlusterVersion,
    replica_count: usize,
    brick_capacity: u64,
    bricks: Vec<ModelBrick>,
    rng: SimRng,
    /// Mirrors `Volume::silent_drops` draw-for-draw.
    pub silent_drops: u64,
    next_version: u64,
}

impl FlatStore {
    pub fn new(
        version: GlusterVersion,
        brick_count: usize,
        replica_count: usize,
        brick_capacity: u64,
        seed: u64,
    ) -> Self {
        FlatStore {
            version,
            replica_count,
            brick_capacity,
            bricks: (0..brick_count)
                .map(|_| ModelBrick {
                    health: ModelHealth::Online,
                    used: 0,
                    files: HashMap::new(),
                })
                .collect(),
            rng: SimRng::new(seed),
            silent_drops: 0,
            next_version: 1,
        }
    }

    fn replica_sets(&self) -> usize {
        self.bricks.len() / self.replica_count
    }

    /// Same FNV-1a distribute hash as the volume — placement is part of
    /// the contract (it decides which failures affect which paths).
    fn placement(&self, path: &str) -> usize {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % self.replica_sets() as u64) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.replica_count..(set + 1) * self.replica_count
    }

    /// Store on one brick with the volume's capacity rule (delta
    /// accounting against any existing copy). Returns false when full.
    fn put(&mut self, idx: usize, path: &str, data: FileData, meta: FileMeta) -> bool {
        let b = &mut self.bricks[idx];
        let new_size = data.size();
        let old_size = b.files.get(path).map_or(0, |(d, _)| d.size());
        let needed = new_size.saturating_sub(old_size);
        if needed > self.brick_capacity.saturating_sub(b.used) {
            return false;
        }
        b.used = b.used - old_size + new_size;
        b.files.insert(path.to_string(), (data, meta));
        true
    }

    pub fn write(&mut self, path: &str, data: &FileData, owner: &str) -> Result<(), VolumeError> {
        let meta = FileMeta {
            size: data.size(),
            owner: owner.to_string(),
            version: self.next_version,
            digest: data.digest(),
        };
        self.next_version += 1;
        let range = self.set_range(self.placement(path));
        let mut wrote_any = false;
        let mut full = false;
        for (rank, idx) in range.enumerate() {
            if self.bricks[idx].health != ModelHealth::Online {
                continue;
            }
            if let GlusterVersion::V3_1 { replica_drop_prob } = self.version {
                if rank > 0 && self.rng.chance(replica_drop_prob) {
                    self.silent_drops += 1;
                    continue;
                }
            }
            if self.put(idx, path, data.clone(), meta.clone()) {
                wrote_any = true;
            } else {
                full = true;
            }
        }
        if wrote_any {
            Ok(())
        } else if full {
            Err(VolumeError::NoSpace)
        } else {
            Err(VolumeError::Unavailable)
        }
    }

    pub fn read(&self, path: &str) -> Result<(FileData, FileMeta), VolumeError> {
        let mut best: Option<&(FileData, FileMeta)> = None;
        let mut any_online = false;
        for idx in self.set_range(self.placement(path)) {
            if self.bricks[idx].health != ModelHealth::Online {
                continue;
            }
            any_online = true;
            if let Some(entry) = self.bricks[idx].files.get(path) {
                if best.is_none_or(|b| entry.1.version > b.1.version) {
                    best = Some(entry);
                }
            }
        }
        match best {
            Some(e) => Ok(e.clone()),
            None if any_online => Err(VolumeError::NotFound),
            None => Err(VolumeError::Unavailable),
        }
    }

    pub fn delete(&mut self, path: &str) -> Result<(), VolumeError> {
        let mut deleted = false;
        for idx in self.set_range(self.placement(path)) {
            if self.bricks[idx].health != ModelHealth::Online {
                continue;
            }
            if let Some((data, _)) = self.bricks[idx].files.remove(path) {
                self.bricks[idx].used -= data.size();
                deleted = true;
            }
        }
        if deleted {
            Ok(())
        } else {
            Err(VolumeError::NotFound)
        }
    }

    pub fn list(&self) -> Vec<String> {
        let mut paths: Vec<String> = self
            .bricks
            .iter()
            .filter(|b| b.health == ModelHealth::Online)
            .flat_map(|b| b.files.keys().cloned())
            .collect();
        paths.sort_unstable();
        paths.dedup();
        paths
    }

    /// Logical (primary-copy) bytes per owner. The volume counts each
    /// path once, taking the copy on the lowest-indexed online brick.
    pub fn usage_by_owner(&self) -> BTreeMap<String, u64> {
        let mut usage = BTreeMap::new();
        let mut seen = BTreeSet::new();
        for b in &self.bricks {
            if b.health != ModelHealth::Online {
                continue;
            }
            // Brick iteration order within one brick must not matter for
            // the totals: each path appears at most once per brick, and
            // `seen` keys the cross-brick dedup.
            for (path, (data, meta)) in &b.files {
                if seen.insert(path.clone()) {
                    *usage.entry(meta.owner.clone()).or_insert(0) += data.size();
                }
            }
        }
        usage
    }

    pub fn used_bytes(&self) -> u64 {
        self.bricks.iter().map(|b| b.used).sum()
    }

    pub fn heal(&mut self) -> HealReport {
        let mut report = HealReport::default();
        if matches!(self.version, GlusterVersion::V3_1 { .. }) {
            return report; // v3.1 had no self-heal; losses stay lost
        }
        for set in 0..self.replica_sets() {
            let range = self.set_range(set);
            let mut freshest: BTreeMap<String, (FileData, FileMeta)> = BTreeMap::new();
            let mut seen: BTreeSet<String> = BTreeSet::new();
            for idx in range.clone() {
                if self.bricks[idx].health != ModelHealth::Online {
                    continue;
                }
                for (path, (data, meta)) in &self.bricks[idx].files {
                    seen.insert(path.clone());
                    if data.digest() != meta.digest {
                        continue; // bit-rot is never a heal source
                    }
                    let replace = freshest
                        .get(path)
                        .is_none_or(|(_, m)| meta.version > m.version);
                    if replace {
                        freshest.insert(path.clone(), (data.clone(), meta.clone()));
                    }
                }
            }
            report.lost += seen.iter().filter(|p| !freshest.contains_key(*p)).count() as u64;
            // Same path order (sorted) and brick order (ascending) as the
            // volume: near-full bricks make heal outcomes order-sensitive.
            for (path, (data, meta)) in &freshest {
                let mut repaired_here = false;
                let mut reconciled_here = false;
                for idx in range.clone() {
                    if self.bricks[idx].health != ModelHealth::Online {
                        continue;
                    }
                    enum Action {
                        Skip,
                        Reconcile,
                        Repair,
                    }
                    let action = match self.bricks[idx].files.get(path) {
                        Some((d, m)) if m.version == meta.version && d.digest() == m.digest => {
                            Action::Skip
                        }
                        Some(_) => Action::Reconcile,
                        None => Action::Repair,
                    };
                    match action {
                        Action::Skip => {}
                        Action::Reconcile => {
                            if self.put(idx, path, data.clone(), meta.clone()) {
                                reconciled_here = true;
                            }
                        }
                        Action::Repair => {
                            if self.put(idx, path, data.clone(), meta.clone()) {
                                repaired_here = true;
                            }
                        }
                    }
                }
                if repaired_here {
                    report.repaired += 1;
                }
                if reconciled_here {
                    report.reconciled += 1;
                }
            }
        }
        report
    }

    // ---- fault mirroring (the `Injector for Volume` contract) ----------

    fn fail_brick(&mut self, idx: usize) {
        let b = &mut self.bricks[idx];
        b.health = ModelHealth::Failed;
        b.files.clear();
        b.used = 0;
    }

    fn corrupt(&mut self, path: &str, rank: usize) {
        let idx = self.set_range(self.placement(path)).start + rank;
        if let Some((data, _)) = self.bricks[idx].files.get_mut(path) {
            match data {
                FileData::Bytes(b) if !b.is_empty() => b[0] ^= 0xff,
                FileData::Bytes(_) => {}
                FileData::Synthetic { seed, .. } => *seed ^= 0xdead_beef,
            }
        }
    }

    fn parse_index(&self, target: &str, prefix: &str) -> Result<usize, InjectError> {
        target
            .strip_prefix(prefix)
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| InjectError::UnknownTarget(target.to_string()))
    }

    fn server_bricks(&self, server: usize) -> Result<std::ops::Range<usize>, InjectError> {
        if server >= self.replica_sets() {
            return Err(InjectError::UnknownTarget(format!("server{server}")));
        }
        let per_set = self.bricks.len() / self.replica_sets();
        Ok(server * per_set..(server + 1) * per_set)
    }

    pub fn inject_fault(&mut self, ev: &FaultEvent) -> Result<Effect, InjectError> {
        match ev.kind {
            FaultKind::BrickCrash => {
                let idx = self.parse_index(&ev.target, "brick")?;
                if idx >= self.bricks.len() {
                    return Err(InjectError::UnknownTarget(ev.target.clone()));
                }
                self.fail_brick(idx);
                Ok(Effect::default())
            }
            FaultKind::ServerOutage => {
                let server = self.parse_index(&ev.target, "server")?;
                for idx in self.server_bricks(server)? {
                    if self.bricks[idx].health == ModelHealth::Online {
                        self.bricks[idx].health = ModelHealth::Offline;
                    }
                }
                Ok(Effect::default())
            }
            FaultKind::SilentCorruption => {
                // The magnitude is a replica rank; past the set's
                // replicas it names no copy of the path.
                let rank = ev.magnitude as usize;
                if rank >= self.replica_count {
                    return Err(InjectError::UnknownTarget(format!(
                        "{} rank {rank}",
                        ev.target
                    )));
                }
                self.corrupt(&ev.target, rank);
                Ok(Effect::default())
            }
            other => Err(InjectError::Unsupported(other)),
        }
    }

    pub fn restore_fault(&mut self, ev: &FaultEvent) -> Result<Effect, InjectError> {
        match ev.kind {
            FaultKind::BrickCrash => {
                let idx = self.parse_index(&ev.target, "brick")?;
                if idx >= self.bricks.len() {
                    return Err(InjectError::UnknownTarget(ev.target.clone()));
                }
                if self.bricks[idx].health == ModelHealth::Failed {
                    // Replace with empty, online hardware.
                    self.bricks[idx].health = ModelHealth::Online;
                    self.bricks[idx].files.clear();
                    self.bricks[idx].used = 0;
                }
            }
            FaultKind::ServerOutage => {
                let server = self.parse_index(&ev.target, "server")?;
                for idx in self.server_bricks(server)? {
                    if self.bricks[idx].health == ModelHealth::Offline {
                        self.bricks[idx].health = ModelHealth::Online;
                    }
                }
            }
            FaultKind::SilentCorruption => {}
            other => return Err(InjectError::Unsupported(other)),
        }
        // Every storage restore ends with a self-heal pass (a no-op on
        // v3.1, which is the §7.1 lesson).
        let report = self.heal();
        Ok(Effect {
            heal_repaired: report.repaired + report.reconciled,
            heal_lost: report.lost,
            ..Effect::default()
        })
    }
}

/// Drives a [`Volume`] and a [`FlatStore`] in lockstep.
pub struct StorageOracle {
    pub model: FlatStore,
}

impl StorageOracle {
    /// Build the volume and its shadow from one shape + seed, so the
    /// v3.1 drop draws stay aligned. Rejects the same shapes `try_new`
    /// rejects.
    pub fn paired(
        version: GlusterVersion,
        brick_count: usize,
        replica_count: usize,
        brick_capacity: u64,
        seed: u64,
    ) -> Result<(Volume, StorageOracle), VolumeConfigError> {
        let volume = Volume::try_new(
            "audited",
            version,
            brick_count,
            replica_count,
            brick_capacity,
            seed,
        )?;
        Ok((
            volume,
            StorageOracle {
                model: FlatStore::new(version, brick_count, replica_count, brick_capacity, seed),
            },
        ))
    }
}

fn diff<T: std::fmt::Debug + PartialEq>(what: &str, system: &T, model: &T) -> Result<(), String> {
    if system == model {
        Ok(())
    } else {
        Err(format!("{what}: volume {system:?}, model {model:?}"))
    }
}

impl crate::Oracle for StorageOracle {
    type System = Volume;
    type Op = StorageOp;

    fn name(&self) -> &'static str {
        "storage.flat-store"
    }

    fn step(&mut self, vol: &mut Volume, op: &StorageOp) -> Result<(), String> {
        match op {
            StorageOp::Write { path, data, owner } => {
                let got = vol.write(path, data.clone(), owner);
                let want = self.model.write(path, data, owner);
                diff(&format!("write {path}"), &got, &want)?;
            }
            StorageOp::Read { path } => {
                let got = vol.read(path);
                let want = self.model.read(path);
                diff(&format!("read {path}"), &got, &want)?;
            }
            StorageOp::Delete { path } => {
                let got = vol.delete(path);
                let want = self.model.delete(path);
                diff(&format!("delete {path}"), &got, &want)?;
            }
            StorageOp::Heal => {
                let got = vol.heal();
                let want = self.model.heal();
                diff("heal report", &got, &want)?;
            }
            StorageOp::List => {
                diff("listing", &vol.list(), &self.model.list())?;
            }
            StorageOp::Usage => {
                diff(
                    "usage_by_owner",
                    &vol.usage_by_owner(),
                    &self.model.usage_by_owner(),
                )?;
                diff("used_bytes", &vol.used_bytes(), &self.model.used_bytes())?;
            }
            StorageOp::Inject(ev) => {
                let got = vol.inject(ev, SimTime::ZERO);
                let want = self.model.inject_fault(ev);
                diff(&format!("inject {}", ev.kind.label()), &got, &want)?;
            }
            StorageOp::Restore(ev) => {
                let got = vol.restore(ev, SimTime::ZERO);
                let want = self.model.restore_fault(ev);
                diff(&format!("restore {}", ev.kind.label()), &got, &want)?;
            }
        }
        // Every step re-checks the silent-drop counters: a v3.1 RNG
        // desync shows up here immediately instead of ops later.
        diff("silent_drops", &vol.silent_drops, &self.model.silent_drops)
    }
}
