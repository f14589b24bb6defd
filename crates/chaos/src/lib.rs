//! # osdc-chaos — deterministic fault injection for the federation
//!
//! The paper's operational sections (§4.1 disaster recovery, §7.1 the
//! GlusterFS 3.1 mirroring bug, §7.4 Nagios monitoring) are stories about
//! things breaking. This crate makes breakage a first-class, replayable
//! input: a declarative [`FaultPlan`] of timed, seeded fault events; an
//! [`Injector`] trait mapping those events onto small hook points each
//! subsystem exposes (link toggles in `osdc-net`, brick health in
//! `osdc-storage`, host power in `osdc-compute`, API health in the
//! `osdc-providers` registry — the one API fault gate, `ApiOutage`
//! included — and the Chef knob in `osdc-provision`); and a campaign
//! driver that replays a plan against a live mini-federation while
//! scoring MTTR, data loss and fault→alert latency on a
//! [`ResilienceScorecard`].
//!
//! Dependency direction matters: `osdc-chaos` depends on the subsystem
//! crates, never the reverse. The reusable remedy — [`RetryPolicy`]
//! (none / fixed / exponential with seeded jitter) — lives in the
//! `osdc-sim` kernel so the provisioning pipeline could adopt it
//! without depending on this crate; it is
//! re-exported here as the chaos toolkit's front door, and the campaign
//! sweeps it as its retry axis.
//!
//! ```
//! use osdc_chaos::{CampaignConfig, run_campaign, RetryPolicy};
//! use osdc_storage::GlusterVersion;
//! use osdc_telemetry::Telemetry;
//!
//! let cfg = CampaignConfig::osdc(
//!     GlusterVersion::V3_3,
//!     RetryPolicy::exponential(12),
//!     2012, // seed
//!     120,  // minutes
//!     2.0,  // extra faults per hour
//! );
//! let card = run_campaign(&cfg, &Telemetry::disabled());
//! assert_eq!(card.data_loss_incidents(), 0);
//! ```

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod campaign;
pub mod inject;
pub mod plan;
pub mod scorecard;

pub use campaign::{run_campaign, run_campaigns, CampaignConfig};
pub use inject::{Effect, InjectError, Injector};
pub use plan::{FaultEvent, FaultKind, FaultPlan, Phase, TimedAction};
pub use scorecard::{ResilienceScorecard, ScoreTracker};

// The remedy, re-exported from the kernel (see crate docs for why it
// lives there).
pub use osdc_sim::RetryPolicy;
