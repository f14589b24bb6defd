//! Differential oracles: independent reference models replayed in
//! lockstep with the real subsystems.
//!
//! §7.1 of the paper is a war story about exactly the class of bug this
//! crate hunts: GlusterFS 3.1 "had a bug in mirroring that caused some
//! data loss" — the system kept answering, the answers were silently
//! wrong, and nothing cross-checked them until the data was needed. The
//! defense here is a second, deliberately *simpler* implementation of
//! each subsystem's contract — a [`storage_oracle::FlatStore`] behind the
//! replicated volume, a byte-for-byte reconstruction behind the rsync
//! delta codec, a from-the-event-log re-bill behind the invoicing engine,
//! a flat who-can-do-what table ([`sharing_oracle::FlatShareModel`])
//! behind the gossip-replicated capability registries — driven through
//! the same operation sequence and compared after every step. The models share *specifications* with the production code, not
//! code: a divergence means one of the two readings of the spec is wrong.
//!
//! This is the second half of the audit subsystem. The first half — the
//! `audit::check!` runtime invariants compiled into the subsystems
//! themselves — lives in `osdc_telemetry::audit`; the drivers in this
//! crate finish by calling [`osdc_telemetry::audit::assert_clean`] so a
//! differential run also surfaces any invariant tripped along the way
//! (trivially clean unless built with `--features audit`).
//!
//! ```
//! use osdc_audit::delta_oracle::{DeltaCase, DeltaOracle};
//! use osdc_audit::{drive, Oracle};
//!
//! let mut oracle = DeltaOracle;
//! let cases = vec![DeltaCase {
//!     basis: b"hello scientific world".to_vec(),
//!     target: b"hello community science world".to_vec(),
//!     block_size: 4,
//! }];
//! let report = drive(&mut oracle, &mut (), &cases);
//! assert!(report.is_clean(), "{}", report.summary());
//! ```

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod billing_oracle;
pub mod delta_oracle;
pub mod provider_oracle;
pub mod sharing_oracle;
pub mod storage_oracle;

pub use billing_oracle::{BillingOp, BillingOracle};
pub use delta_oracle::{DeltaCase, DeltaOracle};
pub use provider_oracle::{router_ops, FailoverOracle, RouterOp};
pub use sharing_oracle::{churn_ops, FlatShareModel, LevelSpec, ShareOp, SharingOracle};
pub use storage_oracle::{FlatStore, StorageOp, StorageOracle};

/// A reference model that can shadow a subsystem operation-by-operation.
///
/// `step` applies one operation to *both* the system under test and the
/// model, then compares every observable outcome (return values, derived
/// state). `Err` carries a human-readable description of the divergence;
/// the driver keeps going so one run reports every disagreement, not
/// just the first — the same run-to-completion policy as
/// `osdc_telemetry::audit`.
pub trait Oracle {
    /// The production subsystem being shadowed.
    type System;
    /// One operation of the subsystem's interface.
    type Op: std::fmt::Debug;

    /// Stable name for reports ("storage.flat-store", ...).
    fn name(&self) -> &'static str;

    /// Apply `op` to system and model in lockstep; `Err(why)` on any
    /// observable disagreement.
    fn step(&mut self, system: &mut Self::System, op: &Self::Op) -> Result<(), String>;
}

/// One model/system divergence found by [`drive`].
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// Index of the operation in the driven sequence.
    pub step: usize,
    /// `Debug` rendering of the operation.
    pub op: String,
    /// What differed.
    pub detail: String,
}

/// The outcome of driving one operation sequence through an oracle.
#[derive(Clone, Debug)]
pub struct AuditReport {
    pub oracle: &'static str,
    pub steps: usize,
    pub disagreements: Vec<Disagreement>,
}

impl AuditReport {
    pub fn is_clean(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// One-line verdict plus one line per divergence.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}: {} op(s), {} disagreement(s)",
            self.oracle,
            self.steps,
            self.disagreements.len()
        );
        for d in &self.disagreements {
            s.push_str(&format!("\n  step {} {}: {}", d.step, d.op, d.detail));
        }
        s
    }
}

/// Replay `ops` through `oracle` against `system`, collecting every
/// disagreement (the sequence always runs to completion).
pub fn drive<O: Oracle>(oracle: &mut O, system: &mut O::System, ops: &[O::Op]) -> AuditReport {
    let mut disagreements = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if let Err(detail) = oracle.step(system, op) {
            disagreements.push(Disagreement {
                step: i,
                op: format!("{op:?}"),
                detail,
            });
        }
    }
    AuditReport {
        oracle: oracle.name(),
        steps: ops.len(),
        disagreements,
    }
}
