//! # osdc — OSDC-in-a-box
//!
//! An executable reproduction of *The Design of a Community Science
//! Cloud: The Open Science Data Cloud Perspective* (SC Companion 2012).
//! This facade crate assembles the substrate crates into the complete
//! facility the paper describes and hosts the cross-cutting models its
//! evaluation needs:
//!
//! * [`federation`] — the Open Cloud Consortium resource inventory of
//!   Table 2: OSDC-Adler & OSDC-Sullivan (utility clouds under Tukey),
//!   OSDC-Root (the PB-scale storage cloud), OCC-Y and OCC-Matsu (Hadoop
//!   data clouds), wired over the four-site 10G WAN;
//! * [`csp`] — the commercial-vs-science CSP contrast of Table 1, made
//!   measurable: flow-mix workloads on each provider profile, plus the
//!   lock-in (image portability) check;
//! * [`cost`] — §9.1's "why not just use Amazon?" cost model and the
//!   ~80 %-utilization crossover;
//! * [`matsu`] — Project Matsu (Figure 2): a synthetic EO-1/Hyperion tile
//!   generator with injected floods and fires, and the MapReduce
//!   detection analytics;
//! * [`figure3`] — the cluster/Tukey connectivity matrix of Figure 3
//!   (which services are fully operational per cluster — solid vs dashed
//!   arrows).
//!
//! Re-exports put the whole public API under one roof: start from
//! [`federation::Federation::build`] (see `examples/quickstart.rs`).

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bookworm;
pub mod cost;
pub mod csp;
pub mod federation;
pub mod figure3;
pub mod matsu;
pub mod sustainability;

pub use federation::{ClusterSummary, Federation};

// The substrate crates, re-exported for downstream users.
pub use osdc_chaos as chaos;
pub use osdc_compute as compute;
pub use osdc_crypto as crypto;
pub use osdc_mapreduce as mapreduce;
pub use osdc_monitor as monitor;
pub use osdc_net as net;
pub use osdc_provision as provision;
pub use osdc_sharing as sharing;
pub use osdc_sim as sim;
pub use osdc_storage as storage;
pub use osdc_transfer as transfer;
pub use osdc_tukey as tukey;
