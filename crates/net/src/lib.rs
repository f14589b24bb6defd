//! # osdc-net — the OSDC wide-area network, as a flow-level simulator
//!
//! The OSDC is "a distributed facility that spans four data centers
//! connected by 10G networks" (§1). Its headline measurement (Table 3) is
//! the throughput of two transport protocols over the Chicago ↔ LVOC path
//! (104 ms RTT): classic TCP (under rsync/ssh) and **UDT**, the rate-based
//! reliable-UDP protocol UDR is built on.
//!
//! Packet-level simulation of a 1.1 TB transfer is ~800 M packets — far too
//! slow — so this crate implements the standard *fluid* (rate-based) model:
//!
//! * [`Topology`] — sites and duplex links with capacity, propagation delay
//!   and a random-loss process; shortest-path routing.
//! * [`cc`] — per-flow congestion control advanced in discrete ticks:
//!   TCP-Reno-like AIMD (slow start, congestion avoidance, halving on loss)
//!   and UDT's D-AIMD rate control (the published SYN-interval increase
//!   formula, 1/9 multiplicative decrease) as described by Gu & Grossman —
//!   the same Grossman as this paper.
//! * [`FluidNet`] — max-min fair capacity sharing via progressive filling,
//!   stochastic loss sampling, per-flow byte accounting and, while
//!   telemetry is live, per-flow throughput points in the telemetry trace.
//!
//! Application-limited flows (a sender that cannot read its disk faster
//! than 3072 mbit/s, a cipher that caps at ~396 mbit/s) are expressed with
//! [`FlowSpec::app_limit_bps`]; this is how `osdc-transfer` composes the
//! disk → cipher → WAN → cipher → disk pipeline of Table 3.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod cc;
pub mod fluid;
pub mod topology;
pub mod wan;

pub use cc::{CongestionControl, RenoState, UdtState};
pub use fluid::{FlowId, FlowSpec, FlowStatus, FluidNet, NetError, SolverStats};
pub use topology::{LinkId, NodeId, Topology};
pub use wan::{osdc_wan, OsdcSite, OsdcWan};

/// Conventional Ethernet-era maximum segment size in bytes.
pub const MSS_BYTES: f64 = 1460.0;
