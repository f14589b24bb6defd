//! # osdc-provision — bare metal to cloud in "much less than a day" (§7.3)
//!
//! "Our first full rack installation of OpenStack was performed manually
//! and took over a week to complete... we are using Chef, along with PXE
//! booting and IPMI, to fully automate provisioning with the goal of
//! taking a full rack from bare metal to a compute or storage cloud in
//! much less than a day."
//!
//! Two models, one experiment (X1):
//!
//! * [`manual`] — the baseline: a small crew of admins hand-installing 39
//!   servers, serialized by human attention and an 8-hour workday;
//! * [`pipeline`] — the automated flow the paper describes, stage for
//!   stage: IPMI power-on → PXE boot (image pull over a shared boot
//!   server NIC) → preseeded Ubuntu install (package pulls through a
//!   shared repository proxy) → post-install script + reboot → Chef
//!   registration → Chef converge (run-lists, bounded server concurrency)
//!   → cleanup. All 39 servers run concurrently, throttled only by the
//!   shared resources — which is exactly why automation wins by an order
//!   of magnitude. Stage failures retry with bounded attempts.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod manual;
pub mod pipeline;

pub use manual::{manual_rack_install, ManualParams, ManualReport};
pub use pipeline::{provision_rack, PipelineParams, ProvisionReport, Stage};
