//! # osdc-transfer — UDR and rsync: "the familiar interface, the fast pipe"
//!
//! §7.2 of the paper introduces **UDR**, the OSDC's tool that "provides the
//! familiar interface of rsync while utilizing the high performance UDT
//! protocol", and evaluates it against stock rsync in Table 3. This crate
//! reproduces both halves of that story:
//!
//! * the *interface*: a complete working implementation of the rsync
//!   algorithm — [`rolling`] weak checksums, [`delta`] generation/apply
//!   with MD5 strong sums, and [`filelist`] change detection — shared by
//!   both tools, exactly as UDR wraps unmodified rsync;
//! * the *pipe*: [`session`] drives `osdc-net` flows (TCP Reno for rsync,
//!   UDT for UDR) through the paper's disk/cipher pipeline and reports
//!   throughput in mbit/s plus the paper's LLR metric.
//!
//! The Table 3 harness lives in `osdc-bench` (`table3_udr`); the invariant
//! tests (delta round-trip on arbitrary inputs, rolling == direct) live
//! here and in `tests/`.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod delta;
pub mod filelist;
pub mod rolling;
pub mod session;
pub mod sync_session;
pub mod wire;

pub use delta::{
    apply_delta, block_size_for, compute_signatures, generate_delta, generate_delta_with, sync,
    Delta, DeltaOp, DeltaScratch, Signatures,
};
pub use filelist::{plan_sync, CheckMode, FileEntry, FileList, PlanAction};
pub use rolling::{weak_checksum, RollingChecksum};
pub use session::{
    Protocol, TransferEngine, TransferError, TransferReport, TransferSpec, DISK_READ_MBPS,
    DISK_WRITE_MBPS, RECEIVER_EFFICIENCY, SSH_CHANNEL_EFFICIENCY,
};
pub use sync_session::{sync_over_wan, SyncReport, Tree};
pub use wire::WireCipher;
