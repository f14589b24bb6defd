//! # osdc-sim — deterministic discrete-event simulation kernel
//!
//! Every simulated subsystem of OSDC-in-a-box (the WAN, the GlusterFS-like
//! storage layer, the provisioning pipeline, the Nagios-like monitor, the
//! billing pollers) runs on this kernel. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time, so that
//!   event ordering is exact and runs are bit-reproducible across platforms.
//! * [`Engine`] — a binary-heap event scheduler generic over a user event
//!   type. State lives in the user's `World`; the engine only owns time.
//!   Events at equal timestamps are delivered in FIFO scheduling order (a
//!   monotone sequence number breaks ties), which is what makes runs
//!   deterministic.
//! * [`rng`] — a small, self-contained xoshiro256++ PRNG seeded via
//!   SplitMix64, plus the handful of distributions the simulations need.
//!   All stochastic behaviour in the workspace flows from explicit seeds.
//! * [`stats`] — running summaries and log-bucket histograms used by the
//!   experiment harnesses.
//! * [`resource`] — token buckets and FIFO service queues for modelling
//!   capacity-limited stages (disks, PXE servers, Chef servers, NICs).
//! * [`retry`] — deterministic retry/backoff policies on virtual time,
//!   adopted by the provisioning pipeline and swept by the `osdc-chaos`
//!   campaigns.
//! * [`tenant`] — interned dense [`tenant::TenantId`]s and the slab
//!   [`tenant::TenantStore`] that per-tenant subsystems (billing
//!   cursors, provider cost ledgers, sharing grantees) key their state
//!   by at 10⁵-tenant scale.
//! * [`runner`] — [`run_indexed`], the workspace's one parallel map:
//!   experiment grids of independent seeded runs execute on `--jobs`
//!   workers pulling from one shared queue, yet return results in
//!   submission order, so every artifact is byte-identical for any
//!   worker count.
//!
//! ## Design notes
//!
//! The kernel deliberately avoids boxed closures on the hot path: the event
//! type is a plain user enum and dispatch is a `match` in the user's
//! [`Simulation::handle`]. The queue is a `std::collections::BinaryHeap`
//! ordered by `(SimTime, seq)`. No engine the product builds holds more
//! than 141 pending events, and at that depth a pop is a few comparisons.
//! The pop order is pinned against a naive linear-scan model by a
//! differential proptest, and at steady state insert/pop allocate nothing
//! (the heap's `Vec` capacity is retained; a counting-allocator test
//! enforces this). Per the Rust Performance Book we keep the per-event
//! footprint small (events are moved, never boxed).

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod engine;
pub mod resource;
pub mod retry;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod tenant;
pub mod time;

pub use engine::{Engine, Scheduler, Simulation};
pub use retry::RetryPolicy;
pub use rng::SimRng;
pub use runner::{derive_seed, run_indexed};
pub use tenant::{TenantId, TenantInterner, TenantStore};
pub use time::{SimDuration, SimTime};
