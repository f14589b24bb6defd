//! Tenant-sharded state: interned ids and a sharded slab store.
//!
//! ROADMAP item 1 asks the reproduction to hold 10⁴–10⁶ tenants where
//! the paper ran ~100 users. Every per-tenant subsystem used to key its
//! state by owned `String` in a `BTreeMap` — three pointer-chasing
//! comparisons and a clone per touch, and O(all-tenants) whenever
//! anything swept. This module is the shared fix:
//!
//! * [`TenantId`] — a dense `u32` handle. Interning happens once, at the
//!   tenant's first appearance; every hot-path touch after that is
//!   integer indexing.
//! * [`TenantInterner`] — name ⇄ id, ids handed out in first-seen order
//!   (so id order is deterministic for a deterministic workload).
//! * [`TenantStore<T>`] — per-tenant state in power-of-two shards of
//!   flat slabs: O(1) id→slot, no per-entry heap box, iteration in id
//!   order for deterministic folds (billing closes, report sweeps).
//!
//! The store is deliberately *not* a hash map: ids are dense, so the
//! shard + slot of a tenant is arithmetic on the id. Shards keep slab
//! growth localized — inserting tenant 10⁶ does not reallocate one giant
//! array, only the one shard (1/`SHARDS`th of the population) it lands
//! in — and give a future parallel sweep a natural work partition.
//!
//! Billing cursors/open cycles (`osdc-tukey`), the monitor's host index
//! (`osdc-monitor`), provider per-user cost (`osdc-providers`) and
//! sharing grantee lookups (`osdc-sharing`) all sit on this layer; the
//! `exp_scale` harness drives all four at 10⁵ tenants.

use std::collections::HashMap;

/// Dense interned handle for one tenant (user, host, grantee, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Name ⇄ [`TenantId`], ids dense in first-seen order.
///
/// Lookup by `&str` never allocates; interning an unseen name stores the
/// string twice (map key + id→name table) — once per tenant lifetime,
/// never per operation.
#[derive(Clone, Debug, Default)]
pub struct TenantInterner {
    ids: HashMap<Box<str>, u32>,
    names: Vec<Box<str>>,
}

impl TenantInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Id for `name`, minting one on first sight.
    pub fn intern(&mut self, name: &str) -> TenantId {
        if let Some(&id) = self.ids.get(name) {
            return TenantId(id);
        }
        // Each tenant holds its name twice, so 2³² of them would need far
        // more memory than any host has; no interner reaches the limit.
        #[allow(clippy::expect_used)]
        let id = u32::try_from(self.names.len()).expect("tenant population fits u32");
        self.ids.insert(name.into(), id);
        self.names.push(name.into());
        TenantId(id)
    }

    /// Id for `name` if already interned. Never allocates.
    pub fn get(&self, name: &str) -> Option<TenantId> {
        self.ids.get(name).map(|&id| TenantId(id))
    }

    /// The name behind `id`. Panics on a foreign id — ids only come from
    /// this interner.
    pub fn name(&self, id: TenantId) -> &str {
        &self.names[id.index()]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All names in id order (id 0 first).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|n| n.as_ref())
    }
}

/// Shard count. Power of two so the shard of an id is a mask, not a
/// division; 16 keeps slab growth at 1/16th of the population per
/// reallocation while staying cache-friendly for small stores.
const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;
const SHARD_MASK: u32 = (SHARDS as u32) - 1;

/// Per-tenant state in power-of-two sharded slabs.
///
/// `id & SHARD_MASK` picks the shard, `id >> SHARD_BITS` the slot — both
/// O(1), no hashing. Dense ids stripe round-robin across shards, so all
/// shards grow in lockstep and a slab reallocation only moves
/// 1/16th of the population. Iteration yields entries in ascending id
/// order regardless of insertion order, which is what keeps folds over
/// the store (billing closes, invoice batches) deterministic.
#[derive(Clone, Debug)]
pub struct TenantStore<T> {
    shards: [Vec<Option<T>>; SHARDS],
    len: usize,
    /// 1 + highest id ever occupied (iteration bound).
    high: u32,
}

impl<T> Default for TenantStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TenantStore<T> {
    pub fn new() -> Self {
        TenantStore {
            shards: std::array::from_fn(|_| Vec::new()),
            len: 0,
            high: 0,
        }
    }

    #[inline]
    fn coords(id: TenantId) -> (usize, usize) {
        ((id.0 & SHARD_MASK) as usize, (id.0 >> SHARD_BITS) as usize)
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, id: TenantId) -> Option<&T> {
        let (shard, slot) = Self::coords(id);
        self.shards[shard].get(slot).and_then(|s| s.as_ref())
    }

    pub fn get_mut(&mut self, id: TenantId) -> Option<&mut T> {
        let (shard, slot) = Self::coords(id);
        self.shards[shard].get_mut(slot).and_then(|s| s.as_mut())
    }

    pub fn contains(&self, id: TenantId) -> bool {
        self.get(id).is_some()
    }

    /// Insert `value` at `id`, returning the displaced value if the slot
    /// was occupied.
    pub fn insert(&mut self, id: TenantId, value: T) -> Option<T> {
        let (shard, slot) = Self::coords(id);
        let slab = &mut self.shards[shard];
        if slab.len() <= slot {
            slab.resize_with(slot + 1, || None);
        }
        let old = slab[slot].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        self.high = self.high.max(id.0 + 1);
        old
    }

    /// The slot for `id`, created by `init` on first touch. The hot-path
    /// entry point: after the first touch this is two index operations.
    pub fn get_or_insert_with(&mut self, id: TenantId, init: impl FnOnce() -> T) -> &mut T {
        let (shard, slot) = Self::coords(id);
        let slab = &mut self.shards[shard];
        if slab.len() <= slot {
            slab.resize_with(slot + 1, || None);
        }
        let cell = &mut slab[slot];
        if cell.is_none() {
            self.len += 1;
            self.high = self.high.max(id.0 + 1);
        }
        cell.get_or_insert_with(init)
    }

    pub fn remove(&mut self, id: TenantId) -> Option<T> {
        let (shard, slot) = Self::coords(id);
        let old = self.shards[shard].get_mut(slot).and_then(|s| s.take());
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Occupied entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, &T)> {
        (0..self.high).filter_map(move |raw| {
            let id = TenantId(raw);
            self.get(id).map(|v| (id, v))
        })
    }

    /// Mutable visit of every occupied entry in ascending id order.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(TenantId, &mut T)) {
        for raw in 0..self.high {
            let (shard, slot) = Self::coords(TenantId(raw));
            if let Some(Some(v)) = self.shards[shard].get_mut(slot) {
                f(TenantId(raw), v);
            }
        }
    }

    /// Drop every entry, keeping slab capacity for reuse.
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            for slot in shard.iter_mut() {
                *slot = None;
            }
        }
        self.len = 0;
        self.high = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_round_trips_and_is_dense() {
        let mut i = TenantInterner::new();
        let a = i.intern("alice");
        let b = i.intern("bob");
        assert_eq!(a, TenantId(0));
        assert_eq!(b, TenantId(1));
        assert_eq!(i.intern("alice"), a, "re-intern is stable");
        assert_eq!(i.name(a), "alice");
        assert_eq!(i.get("bob"), Some(b));
        assert_eq!(i.get("carol"), None);
        assert_eq!(i.len(), 2);
        assert_eq!(i.names().collect::<Vec<_>>(), vec!["alice", "bob"]);
    }

    #[test]
    fn store_inserts_and_iterates_in_id_order() {
        let mut s: TenantStore<u64> = TenantStore::new();
        // Insert out of order across several shards.
        for raw in [33u32, 0, 17, 2, 48, 1] {
            s.insert(TenantId(raw), u64::from(raw) * 10);
        }
        assert_eq!(s.len(), 6);
        let ids: Vec<u32> = s.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 17, 33, 48], "ascending id order");
        assert_eq!(s.get(TenantId(17)), Some(&170));
        assert_eq!(s.get(TenantId(18)), None);
    }

    #[test]
    fn store_remove_and_reinsert() {
        let mut s: TenantStore<&'static str> = TenantStore::new();
        s.insert(TenantId(5), "five");
        assert_eq!(s.remove(TenantId(5)), Some("five"));
        assert_eq!(s.remove(TenantId(5)), None);
        assert_eq!(s.len(), 0);
        assert!(!s.contains(TenantId(5)));
        *s.get_or_insert_with(TenantId(5), || "again") = "again2";
        assert_eq!(s.get(TenantId(5)), Some(&"again2"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn get_or_insert_initializes_once() {
        let mut s: TenantStore<u32> = TenantStore::new();
        let mut inits = 0;
        for _ in 0..3 {
            let v = s.get_or_insert_with(TenantId(7), || {
                inits += 1;
                0
            });
            *v += 1;
        }
        assert_eq!(inits, 1);
        assert_eq!(s.get(TenantId(7)), Some(&3));
    }

    #[test]
    fn for_each_mut_visits_in_id_order() {
        let mut s: TenantStore<u32> = TenantStore::new();
        for raw in [9u32, 3, 27] {
            s.insert(TenantId(raw), 0);
        }
        let mut seen = Vec::new();
        s.for_each_mut(|id, v| {
            *v = id.0;
            seen.push(id.0);
        });
        assert_eq!(seen, vec![3, 9, 27]);
        assert_eq!(s.get(TenantId(27)), Some(&27));
    }

    #[test]
    fn clear_retains_nothing_but_reuses_capacity() {
        let mut s: TenantStore<u8> = TenantStore::new();
        for raw in 0..100u32 {
            s.insert(TenantId(raw), raw as u8);
        }
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        s.insert(TenantId(3), 1);
        assert_eq!(s.iter().count(), 1);
    }
}
