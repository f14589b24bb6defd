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
//! * [`engine`] — a *real* MapReduce execution engine: map tasks fan out
//!   on the workspace's parallel map (`osdc_sim::run_indexed`), a hash
//!   shuffle partitions intermediate keys, reducers run in parallel, and
//!   results come back merged. Project
//!   Matsu's flood detector (in the `osdc` facade) runs on it unchanged;
//! * [`scheduler`] — locality-aware task placement over the HDFS block
//!   map, reporting the data-local/rack-local/remote split that makes
//!   "move computation to data" measurable.

pub mod engine;
pub mod fairshare;
pub mod hdfs;
pub mod scheduler;

pub use engine::{run_job, run_job_traced, JobConfig, JobCounts, JobResult};
pub use fairshare::{run_fair_share, run_fifo, JobOutcome, JobSpec, M45_DEPARTMENTS};
pub use hdfs::{BlockId, DataNodeId, Hdfs, HdfsError, BLOCK_SIZE};
pub use scheduler::{Locality, TaskPlacement, TaskScheduler};
