//! Property tests for the tenant layer: the interner is a bijection
//! between names and dense ids, and the slab store agrees with a
//! `BTreeMap` reference model under arbitrary first-touch/update/read
//! interleavings (including id-order iteration).

use std::collections::BTreeMap;

use osdc_sim::{TenantId, TenantInterner, TenantStore};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interner_is_a_dense_bijection(
        names in prop::collection::vec(0u32..200, 1..300),
    ) {
        // Names drawn from a small alphabet so re-interning is common.
        let names: Vec<String> = names.into_iter().map(|n| format!("user{n}")).collect();
        let mut interner = TenantInterner::new();
        let mut model: BTreeMap<String, TenantId> = BTreeMap::new();
        let mut first_seen: Vec<String> = Vec::new();
        for name in &names {
            let id = interner.intern(name);
            match model.get(name) {
                Some(&prev) => prop_assert_eq!(id, prev, "re-intern must be stable"),
                None => {
                    // Fresh names get the next dense id, in first-seen order.
                    prop_assert_eq!(id, TenantId(first_seen.len() as u32));
                    model.insert(name.clone(), id);
                    first_seen.push(name.clone());
                }
            }
            // Round trip, both directions, no collisions.
            prop_assert_eq!(interner.name(id), name.as_str());
            prop_assert_eq!(interner.get(name), Some(id));
        }
        prop_assert_eq!(interner.len(), first_seen.len());
        // Distinct names map to distinct ids (bijection).
        let ids: Vec<TenantId> = first_seen.iter().map(|n| interner.get(n).expect("interned")).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), ids.len(), "id collision");
        // names() iterates in id order.
        let listed: Vec<&str> = interner.names().collect();
        prop_assert_eq!(listed, first_seen.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    }

    #[test]
    fn store_agrees_with_btreemap_model(
        ops in prop::collection::vec((0u32..300, any::<bool>(), 0u64..1000), 1..400),
    ) {
        let mut store: TenantStore<u64> = TenantStore::new();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        for (raw, touch, value) in ops {
            let id = TenantId(raw);
            if touch {
                // get_or_insert_with + mutate
                *store.get_or_insert_with(id, || 7) += value;
                *model.entry(raw).or_insert(7) += value;
            } else {
                // read
                prop_assert_eq!(store.get(id), model.get(&raw));
            }
        }
        // Iteration matches the model's ascending-key order exactly.
        let got: Vec<(u32, u64)> = store.iter().map(|(id, &v)| (id.0, v)).collect();
        let want: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
        // And the mutable sweep visits the same population in the same order.
        let mut visited = Vec::new();
        store.for_each_mut(|id, v| visited.push((id.0, *v)));
        let want: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(visited, want);
    }
}
