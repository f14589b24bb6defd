//! # osdc-compute — the utility-cloud substrate under Tukey
//!
//! The OSDC "operates a PB-scale Eucalyptus, OpenStack, and Hadoop-based
//! infrastructure" (§3.2); OSDC-Adler and OSDC-Sullivan are "OpenStack &
//! Eucalyptus based utility cloud\[s\]" of 1248 cores (Table 2). This
//! crate is the IaaS substrate under those stacks:
//!
//! * [`cloud::CloudController`] — hosts, flavors, images, a least-loaded
//!   first-fit scheduler, instance lifecycle and per-user usage snapshots
//!   (the data the §6.4 billing poller reads every minute);
//! * [`host`], [`image`] and [`instance`] — the hardware, machine-image
//!   and VM records it schedules.
//!
//! It speaks no wire format. The two native dialects Tukey's translation
//! proxies reconcile (§5.2) — Nova-style REST/JSON and EC2-style
//! query/XML — are served over a `CloudController` by `osdc-providers`,
//! which keeps each dialect's spellings in one module. Machine images
//! record their portability (§3.2 rule 6: "mechanisms to both import and
//! export data and the associated computing environment"), which the
//! Table 1 lock-in comparison exercises.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod cloud;
pub mod host;
pub mod image;
pub mod instance;

pub use cloud::{CloudController, SchedulingError, UsageSnapshot};
pub use host::{Host, HostId};
pub use image::{ImageId, MachineImage};
pub use instance::{Instance, InstanceFlavor, InstanceId, InstanceState};
