//! # osdc-sim — deterministic discrete-event simulation kernel
//!
//! Every simulated subsystem of OSDC-in-a-box (the WAN, the GlusterFS-like
//! storage layer, the provisioning pipeline, the Nagios-like monitor, the
//! billing pollers) runs on this kernel. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time, so that
//!   event ordering is exact and runs are bit-reproducible across platforms.
//! * [`Engine`] — a bucketed calendar-queue event scheduler generic over a
//!   user event type. State lives in the user's `World`; the engine only owns
//!   time. Events at equal timestamps are delivered in FIFO scheduling order
//!   (a monotone sequence number breaks ties), which is what makes runs
//!   deterministic.
//! * [`rng`] — a small, self-contained xoshiro256++ PRNG seeded via
//!   SplitMix64, plus the handful of distributions the simulations need.
//!   All stochastic behaviour in the workspace flows from explicit seeds.
//! * [`stats`] — counters, time-weighted averages, log-bucket histograms and
//!   time series used by the experiment harnesses.
//! * [`resource`] — token buckets and FIFO service queues for modelling
//!   capacity-limited stages (disks, PXE servers, Chef servers, NICs).
//! * [`retry`] — deterministic retry/backoff policies on virtual time,
//!   shared by the transfer and provisioning layers and swept by the
//!   `osdc-chaos` campaigns.
//! * [`tenant`] — interned dense [`tenant::TenantId`]s and the sharded
//!   slab [`tenant::TenantStore`] that per-tenant subsystems (billing
//!   cursors, monitor host index, provider cost ledgers, sharing
//!   grantees) key their state by at 10⁵-tenant scale.
//! * [`runner`] — a deterministic work-stealing scenario pool: experiment
//!   grids of independent seeded runs execute on `--jobs` workers yet
//!   return results in submission order, so every artifact is
//!   byte-identical for any worker count.
//!
//! ## Design notes
//!
//! The kernel deliberately avoids boxed closures on the hot path: the event
//! type is a plain user enum and dispatch is a `match` in the user's
//! [`Simulation::handle`]. The queue is a calendar queue (Brown 1988): events
//! hash into power-of-two time buckets by `t >> shift`, so insert and pop are
//! O(1) amortized rather than the O(log n) of the original `BinaryHeap`, and
//! the structure resizes itself as the pending-event population grows or
//! shrinks. Pop order is the total order by `(SimTime, seq)` — byte-identical
//! to the old heap, pinned by a differential proptest — and at steady state
//! insert/pop allocate nothing (bucket capacity is retained; a
//! counting-allocator test enforces this). Per the Rust Performance Book we
//! keep the per-event footprint small (events are moved, never boxed).

pub mod engine;
pub mod resource;
pub mod retry;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod tenant;
pub mod time;

pub use engine::{Engine, EngineProbe, Scheduler, Simulation};
pub use retry::RetryPolicy;
pub use rng::SimRng;
pub use runner::{available_jobs, derive_seed, Runner};
pub use tenant::{TenantId, TenantInterner, TenantStore};
pub use time::{SimDuration, SimTime};
