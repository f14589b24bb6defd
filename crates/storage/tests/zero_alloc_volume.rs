//! Counting-allocator proofs for the volume's hot paths. Each replica set
//! indexes a path once, bricks hold replicas by slot and owners are
//! interned once per volume, so once a path is known: an overwrite with a
//! synthetic payload allocates nothing, the loss and corruption audits
//! borrow the replica they judge instead of cloning it, and a heal of a
//! healthy volume needs one sort buffer at most per replica set, however
//! many files it walks.

use counting_alloc::{count_allocations, CountingAlloc};
use osdc_storage::{FileData, GlusterVersion, HealReport, Volume};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The chaos campaign's volume shape (8 bricks, replica-2) after
/// `files` synthetic writes, and the paths written.
fn loaded(files: u64) -> (Volume, Vec<String>) {
    let mut vol = Volume::new("adler", GlusterVersion::V3_3, 8, 2, 1 << 34, 7);
    let paths: Vec<String> = (0..files).map(|i| format!("/corpus/f{i}")).collect();
    for (seed, path) in (0..).zip(&paths) {
        vol.write(path, FileData::synthetic(1 << 20, seed), "lab")
            .expect("corpus fits");
    }
    (vol, paths)
}

#[test]
fn allocator_probe_is_live() {
    let (stats, v) = count_allocations(|| vec![0u8; 1 << 16]);
    assert!(stats.allocations >= 1);
    drop(v);
}

#[test]
fn overwrite_of_a_known_path_allocates_nothing() {
    let (mut vol, paths) = loaded(1_000);
    let (stats, ()) = count_allocations(|| {
        for (seed, path) in (5_000..).zip(&paths) {
            vol.write(path, FileData::synthetic(1 << 19, seed), "lab")
                .expect("overwrite fits");
        }
    });
    assert_eq!(stats.allocations, 0, "1,000 overwrites: {stats:?}");
    assert_eq!(vol.used_bytes(), 1_000 * 2 * (1 << 19), "replicas replaced");
}

#[test]
fn audits_of_healthy_paths_allocate_nothing() {
    let (vol, paths) = loaded(1_000);
    let (stats, (lost, rotten)) =
        count_allocations(|| (vol.audit_lost(&paths), vol.audit_corrupt(&paths)));
    assert!(lost.is_empty() && rotten.is_empty());
    assert_eq!(stats.allocations, 0, "{stats:?}");
}

#[test]
fn heal_allocates_at_most_once_per_replica_set() {
    for files in [1, 1_000, 4_000] {
        let (mut vol, _) = loaded(files);
        let (stats, report) = count_allocations(|| vol.heal());
        assert_eq!(report, HealReport::default(), "a healthy volume");
        assert!(
            stats.allocations <= vol.replica_sets() as u64,
            "heal of {files} files: {stats:?}"
        );
    }
}
