//! # osdc-monitor — the two monitoring systems of §7.4
//!
//! "We perform two types of monitoring to automatically identify issues,
//! provide alerts, and produce reports on the status and health of the
//! systems. The first type of monitoring is cloud usage, such as how many
//! instances each user is running. We have developed an in-house
//! application for this purpose. The high level summary of the cloud
//! status is made public on the OSDC website. The second type of
//! monitoring is system and network status, for which we use the open
//! source Nagios application."
//!
//! * [`check`] — Nagios-plugin-style checks: a sampled metric against
//!   warning/critical thresholds, yielding OK / WARNING / CRITICAL /
//!   UNKNOWN plus perf data;
//! * [`nrpe`] — the agent: each monitored host exposes a metric store the
//!   master queries remotely ("the agent listens via TCP and communicates
//!   back to the master server after running checks");
//! * [`nagios`] — the master: service definitions with check and retry
//!   intervals, max-check-attempts soft→hard state transitions, and
//!   alert notifications to administrators on hard changes & recoveries;
//! * [`usage`] — the in-house cloud-usage monitor with the public
//!   high-level status summary.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod check;
pub mod nagios;
pub mod nrpe;
pub mod usage;

pub use check::{CheckDefinition, CheckResult, CheckStatus, ThresholdDirection};
pub use nagios::{NagiosMaster, Notification, ServiceDefinition, ServiceState};
pub use nrpe::{HostAgent, MetricStore};
pub use usage::{CloudUsageMonitor, PublicStatus};
