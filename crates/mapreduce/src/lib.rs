//! # osdc-mapreduce — the Hadoop data clouds (OCC-Y, OCC-Matsu)
//!
//! Table 2 lists two "Hadoop data cloud\[s\]": OCC-Y (928 cores, 1 PB,
//! donated by Yahoo! for the former M45 departments) and OCC-Matsu
//! (~120 cores, 100 TB, the NASA EO-1 project of §4.2). This crate builds
//! that substrate from scratch:
//!
//! * [`hdfs`] — a name-node/data-node block store with 64 MB chunks and
//!   rack-aware replica placement (first replica on the writer's node,
//!   second in the same rack, third in another rack — the classic Hadoop
//!   policy);
//! * [`engine`] — a *real* MapReduce execution engine, run on the
//!   caller: the mapper runs over every input, a sorted shuffle groups
//!   intermediate values by key, and the reducer runs once per key in key
//!   order. Project Matsu's flood detector and Bookworm's ngram build (in
//!   the `osdc` facade) run on it unchanged;
//! * [`scheduler`] — locality-aware task placement over the HDFS block
//!   map, reporting the data-local/rack-local/remote split that makes
//!   "move computation to data" measurable.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod engine;
pub mod fairshare;
pub mod hdfs;
pub mod scheduler;

pub use engine::{run_job, JobCounts, JobResult};
pub use fairshare::{run_fair_share, run_fifo, JobOutcome, JobSpec, M45_DEPARTMENTS};
pub use hdfs::{BlockId, DataNodeId, Hdfs, HdfsError, BLOCK_SIZE};
pub use scheduler::{Locality, TaskPlacement, TaskScheduler};
