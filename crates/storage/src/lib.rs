//! # osdc-storage — the OSDC's high-performance distributed storage (§7.1)
//!
//! The paper's storage layer is GlusterFS: "We are using GlusterFS on
//! OSDC-Adler (156 TB), OSDC-Sullivan (38 TB), and OSDC-Root (459 TB) as
//! the primary data stores." Two operational lessons from §7.1 drive this
//! crate's design:
//!
//! 1. *"there was a bug in mirroring \[in 3.1\] that caused some data loss
//!    and forced us to stop using mirroring. However, we now currently use
//!    version 3.3 and have observed improvements in stability"* — so the
//!    replicate translator here carries an injectable v3.1-style silent
//!    replica-write-drop defect and a v3.3-style transactional write path
//!    with a self-heal pass ([`volume`]). Experiment X4 replays the
//!    campaign.
//! 2. *"Since users have root access on their virtual machines we cannot
//!    allow them to mount the GlusterFS shares directly... the GlusterFS
//!    shares are exported to the virtual machine using Samba, which
//!    controls the permissions"* — reproduced by the [`export`] gate,
//!    which authenticates cloud credentials regardless of VM-local uid.
//!
//! Architecture mirrors GlusterFS's translator stack: a [`Volume`] is a
//! *distribute* (consistent-hash) layer over *replica sets*, each replica
//! set mirroring onto [`brick::Brick`]s. File payloads can be real bytes
//! (tests, small data) or synthetic size-only descriptors (the petabyte
//! inventory of Table 2) — see [`file::FileData`].
//!
//! [`backup`] adds the cross-site replication used when "the OSDC was able
//! to recover data for modENCODE after an unusual failure at their Data
//! Coordinating Center and their back up site" (§4.1).

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod backup;
pub mod brick;
pub mod export;
pub mod file;
pub mod volume;

pub use backup::BackupService;
pub use brick::{Brick, BrickHealth, BrickId};
pub use export::{validate_path, validate_prefix, AccessKind, ExportError, PathError, SambaExport};
pub use file::{FileData, FileMeta};
pub use volume::{GlusterVersion, HealReport, Volume, VolumeConfigError, VolumeError};
