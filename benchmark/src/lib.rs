//! End-to-end benchmark of the OSDC reproduction.
//!
//! Four workloads, each a complete user job run back to back in one
//! process: reproducing the paper (`paper_replay`), mirroring a tree over
//! the WAN (`wan_sync`), a month of billing and monitoring for 10⁵
//! tenants (`tenant_month`) and a week of federation operations under
//! failure (`federation_week`). An untraced run times whole passes,
//! scaled to the reference host's speed by a calibration job timed
//! between them; a separate traced run breaks a pass down by layer. See
//! `README.md`.

pub mod calibrate;
pub mod compare;
pub mod measure;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Counts every allocation so `peak_live_mb` and
/// `tenant.bytes_per_tenant` can read the live-heap high-water mark. The
/// count costs the same on every commit measured.
#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc::new();

/// The repository this benchmark builds against (holds `data/` and
/// `BENCHMARK.json`).
pub const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
