//! Counting-allocator proof that the billing hot paths are zero-alloc
//! at steady state. Per-tenant state lives in a `TenantStore` slab keyed
//! by interned ids, so after the tenant population is established:
//!
//! * resolving a known user by *name* (`user_id` / `lookup_user`, what
//!   the console does per request) is a no-alloc interner lookup, and
//!   `usage_at` folds a copy of the slab entry on the stack;
//! * `record_cores_id` / `record_stored_id` folds are pure arithmetic on
//!   the slab entry;
//! * a steady-state `close_month_at` reuses its retained scratch buffer:
//!   a close over folded-to-zero cycles allocates nothing, and a close
//!   that invoices allocates only the returned batch and one user
//!   `String` per invoice.

use counting_alloc::{count_allocations, CountingAlloc};
use osdc_sim::{SimDuration, SimTime};
use osdc_tukey::billing::{BillingService, Rates};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn at_min(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(m)
}

#[test]
fn allocator_probe_is_live() {
    let (stats, v) = count_allocations(|| vec![0u8; 1 << 16]);
    assert!(stats.allocations >= 1);
    drop(v);
}

#[test]
fn name_lookups_and_usage_reads_are_zero_alloc_after_first_touch() {
    let mut b = BillingService::new(Rates::default());
    let users: Vec<String> = (0..256).map(|u| format!("user{u}")).collect();
    // Warm-up: intern every user and establish slab capacity.
    for (m, user) in users.iter().enumerate() {
        let id = b.user_id(user);
        b.record_cores_id(id, 4, at_min(m as u64));
        b.record_stored_id(id, 1_000_000_000_000, at_min(m as u64));
    }
    let (stats, core_minutes) = count_allocations(|| {
        let mut core_minutes = 0.0;
        for m in 300..1300u64 {
            for user in &users {
                let id = b.user_id(user);
                b.record_cores_id(id, 4, at_min(m));
                if let Some(id) = b.lookup_user(user) {
                    core_minutes += b.usage_at(id, at_min(m + 1)).core_minutes;
                }
            }
        }
        core_minutes
    });
    assert!(core_minutes > 0.0, "every read sees the open cycle");
    assert_eq!(
        stats.allocations, 0,
        "name lookups allocated {} times ({} bytes) at steady state",
        stats.allocations, stats.bytes
    );
}

#[test]
fn delta_folds_by_id_are_zero_alloc() {
    let mut b = BillingService::new(Rates::default());
    let ids: Vec<_> = (0..256).map(|u| b.user_id(&format!("user{u}"))).collect();
    // Warm-up: create every slab entry.
    for &id in &ids {
        b.record_cores_id(id, 1, at_min(0));
        b.record_stored_id(id, 1_000_000_000_000, at_min(0));
    }
    let (stats, _) = count_allocations(|| {
        for round in 1..2000u64 {
            for (i, &id) in ids.iter().enumerate() {
                b.record_cores_id(id, (round as u32 + i as u32) % 8, at_min(round * 3));
            }
        }
    });
    assert_eq!(
        stats.allocations, 0,
        "record_cores_id allocated {} times ({} bytes) at steady state",
        stats.allocations, stats.bytes
    );
}

#[test]
fn empty_cycle_close_reuses_scratch() {
    let mut b = BillingService::new(Rates::default());
    for u in 0..64 {
        let id = b.user_id(&format!("user{u}"));
        b.record_cores_id(id, 2, at_min(0));
        b.record_cores_id(id, 0, at_min(10));
    }
    // First close invoices everyone (allocates invoice strings) and
    // sizes the scratch buffer.
    let first = b.close_month_at(at_min(20));
    assert_eq!(first.len(), 64);
    // Later cycles are empty: no usage, no invoices — and no allocation
    // from the sweep-over-tenants fold or the (empty) batch.
    let (stats, batches) = count_allocations(|| {
        let mut n = 0;
        for k in 1..100u64 {
            n += b.close_month_at(at_min(20 + k)).len();
        }
        n
    });
    assert_eq!(batches, 0, "folded-to-zero cycles issue no invoices");
    assert_eq!(
        stats.allocations, 0,
        "empty close allocated {} times ({} bytes)",
        stats.allocations, stats.bytes
    );
}

#[test]
fn invoicing_close_allocates_only_the_batch() {
    let mut b = BillingService::new(Rates::default());
    let ids: Vec<_> = (0..64).map(|u| b.user_id(&format!("user{u}"))).collect();
    for &id in &ids {
        b.record_cores_id(id, 2, at_min(0));
        b.record_stored_id(id, 1_000_000_000_000, at_min(0));
    }
    // Warm-up close: sizes the retained scratch buffer.
    assert_eq!(b.close_month_at(at_min(60)).len(), 64);
    // Held rates carry over, so the next close invoices all 64 again.
    let (stats, batch) = count_allocations(|| b.close_month_at(at_min(120)));
    assert_eq!(batch.len(), 64);
    assert!(
        stats.allocations <= 65,
        "a close of 64 invoices allocated {} times ({} bytes); \
         one user String per invoice plus the batch is 65",
        stats.allocations,
        stats.bytes
    );
}
