//! Per-tenant state: interned ids and a slab store.
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
//! * [`TenantStore<T>`] — per-tenant state in one flat slab: O(1)
//!   id→slot, no per-entry heap box, iteration in id order for
//!   deterministic folds (billing closes, report sweeps).
//!
//! The store is deliberately *not* a hash map: ids are dense, so a
//! tenant's slot is its id.
//!
//! Billing cursors/open cycles (`osdc-tukey`), provider per-user cost
//! (`osdc-providers`) and sharing grantee lookups (`osdc-sharing`) sit
//! on this layer; the `exp_scale` harness drives them at 10⁵ tenants.

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

/// Per-tenant state in one flat slab, indexed by id.
///
/// Slot `id` holds tenant `id`'s state: O(1) to reach, no hashing, no
/// per-entry heap box. Iteration yields entries in ascending id order
/// regardless of insertion order, which is what keeps folds over the
/// store (billing closes, invoice batches) deterministic.
#[derive(Clone, Debug)]
pub struct TenantStore<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for TenantStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TenantStore<T> {
    pub fn new() -> Self {
        TenantStore { slots: Vec::new() }
    }

    pub fn get(&self, id: TenantId) -> Option<&T> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// The slot for `id`, created by `init` on first touch. The hot-path
    /// entry point: after the first touch this is one index operation.
    pub fn get_or_insert_with(&mut self, id: TenantId, init: impl FnOnce() -> T) -> &mut T {
        let slot = id.index();
        if self.slots.len() <= slot {
            // Capacity goes to the next power of two, so it depends only
            // on the highest id touched, not on the order ids arrive in.
            let want = (slot + 1).next_power_of_two();
            self.slots.reserve_exact(want - self.slots.len());
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot].get_or_insert_with(init)
    }

    /// Occupied entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, &T)> {
        self.slots
            .iter()
            .zip(0u32..)
            .filter_map(|(slot, raw)| slot.as_ref().map(|v| (TenantId(raw), v)))
    }

    /// Mutable visit of every occupied entry in ascending id order.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(TenantId, &mut T)) {
        for (slot, raw) in self.slots.iter_mut().zip(0u32..) {
            if let Some(v) = slot {
                f(TenantId(raw), v);
            }
        }
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
        // First touches out of id order.
        for raw in [33u32, 0, 17, 2, 48, 1] {
            *s.get_or_insert_with(TenantId(raw), || 0) = u64::from(raw) * 10;
        }
        let ids: Vec<u32> = s.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 17, 33, 48], "ascending id order");
        assert_eq!(s.get(TenantId(17)), Some(&170));
        assert_eq!(s.get(TenantId(18)), None);
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
            s.get_or_insert_with(TenantId(raw), || 0);
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
    fn capacity_depends_only_on_the_highest_id() {
        let touch = |order: &[u32]| {
            let mut s: TenantStore<u64> = TenantStore::new();
            for &raw in order {
                s.get_or_insert_with(TenantId(raw), || 0);
            }
            s.slots.capacity()
        };
        let ascending: Vec<u32> = (0..1_000).collect();
        let high_first: Vec<u32> = (0..1_000).rev().collect();
        let climbing = [500, 998, 999, 3];
        assert_eq!(touch(&ascending), 1_024);
        assert_eq!(touch(&high_first), 1_024);
        assert_eq!(touch(&climbing), 1_024);
    }
}
