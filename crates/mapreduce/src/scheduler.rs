//! Locality-aware map-task placement over the HDFS block map.
//!
//! Hadoop's scheduling premise — move computation to the data — is what
//! made the OCC's "Hadoop data clouds" suitable for workloads like
//! Project Matsu's tile processing. The scheduler assigns one map task per
//! block, preferring a node that stores a replica (data-local), then any
//! node in a replica's rack (rack-local), else any node (remote), subject
//! to per-node task slots.

use std::collections::BTreeMap;

use crate::hdfs::{BlockId, DataNodeId, Hdfs, HdfsError};

/// How close a task landed to its data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Locality {
    DataLocal,
    RackLocal,
    Remote,
}

#[derive(Clone, Debug)]
pub struct TaskPlacement {
    pub block: BlockId,
    pub node: DataNodeId,
    pub locality: Locality,
}

/// Greedy slot-constrained scheduler.
pub struct TaskScheduler {
    /// Map-task slots per node (Hadoop default: ~2 per core; configured by
    /// the caller).
    pub slots_per_node: usize,
}

impl TaskScheduler {
    pub fn new(slots_per_node: usize) -> Self {
        assert!(slots_per_node >= 1);
        TaskScheduler { slots_per_node }
    }

    /// Place one map task per block of `path`. Returns placements plus a
    /// locality histogram.
    pub fn schedule(
        &self,
        fs: &Hdfs,
        path: &str,
    ) -> Result<(Vec<TaskPlacement>, BTreeMap<Locality, usize>), HdfsError> {
        let blocks = fs.blocks_of(path)?;
        let mut load: BTreeMap<DataNodeId, usize> = BTreeMap::new();
        let mut placements = Vec::with_capacity(blocks.len());
        let mut histogram: BTreeMap<Locality, usize> = BTreeMap::new();
        for info in blocks {
            let replicas = fs.live_replicas(info.id);
            let mut choice: Option<(DataNodeId, Locality)> = None;
            // 1. Data-local: a replica holder with a free slot.
            for &r in &replicas {
                if *load.get(&r).unwrap_or(&0) < self.slots_per_node {
                    choice = Some((r, Locality::DataLocal));
                    break;
                }
            }
            // 2. Rack-local: any node sharing a rack with a replica.
            if choice.is_none() {
                let replica_racks: Vec<usize> = replicas.iter().map(|&r| fs.rack_of(r)).collect();
                'outer: for n in 0..fs.node_count() {
                    let node = DataNodeId(n);
                    if replica_racks.contains(&fs.rack_of(node))
                        && *load.get(&node).unwrap_or(&0) < self.slots_per_node
                    {
                        choice = Some((node, Locality::RackLocal));
                        break 'outer;
                    }
                }
            }
            // 3. Remote: least-loaded node anywhere (even if over slots —
            //    the job must run; Hadoop queues, we overcommit and record).
            let (node, locality) = match choice {
                Some(choice) => choice,
                None => {
                    let node = (0..fs.node_count())
                        .map(DataNodeId)
                        .min_by_key(|n| *load.get(n).unwrap_or(&0))
                        .ok_or(HdfsError::InsufficientNodes)?;
                    (node, Locality::Remote)
                }
            };
            *load.entry(node).or_insert(0) += 1;
            *histogram.entry(locality).or_insert(0) += 1;
            placements.push(TaskPlacement {
                block: info.id,
                node,
                locality,
            });
        }
        Ok((placements, histogram))
    }

    /// Fraction of tasks that were data-local.
    pub fn data_local_fraction(histogram: &BTreeMap<Locality, usize>) -> f64 {
        let total: usize = histogram.values().sum();
        if total == 0 {
            return 1.0;
        }
        *histogram.get(&Locality::DataLocal).unwrap_or(&0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdfs::BLOCK_SIZE;

    #[test]
    fn small_job_is_fully_data_local() {
        let mut fs = Hdfs::new(3, 4, 1);
        fs.create("/tiles", 10 * BLOCK_SIZE, DataNodeId(0))
            .expect("create ok");
        let sched = TaskScheduler::new(4);
        let (placements, hist) = sched.schedule(&fs, "/tiles").expect("schedules");
        assert_eq!(placements.len(), 10);
        assert_eq!(TaskScheduler::data_local_fraction(&hist), 1.0);
        // Every chosen node actually holds the block.
        for p in &placements {
            assert!(fs.live_replicas(p.block).contains(&p.node));
        }
    }

    #[test]
    fn slot_pressure_degrades_locality_gracefully() {
        let mut fs = Hdfs::new(2, 2, 2);
        fs.set_replication(2);
        // Write everything from one node: its slots exhaust quickly.
        fs.create("/big", 40 * BLOCK_SIZE, DataNodeId(0))
            .expect("create ok");
        let sched = TaskScheduler::new(2);
        let (placements, hist) = sched.schedule(&fs, "/big").expect("schedules");
        assert_eq!(placements.len(), 40);
        let local = *hist.get(&Locality::DataLocal).unwrap_or(&0);
        assert!(local >= 4, "some tasks are data-local: {hist:?}");
        let total: usize = hist.values().sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn dead_replicas_push_tasks_off_node() {
        let mut fs = Hdfs::new(2, 3, 3);
        fs.create("/f", 5 * BLOCK_SIZE, DataNodeId(0))
            .expect("create ok");
        // Kill every node that holds a replica.
        let holders: Vec<DataNodeId> = fs
            .blocks_of("/f")
            .expect("exists")
            .iter()
            .flat_map(|b| b.replicas.clone())
            .collect();
        for h in &holders {
            fs.fail_node(*h);
        }
        let sched = TaskScheduler::new(2);
        let (placements, hist) = sched.schedule(&fs, "/f").expect("schedules");
        assert_eq!(placements.len(), 5);
        assert_eq!(*hist.get(&Locality::DataLocal).unwrap_or(&0), 0);
    }

    #[test]
    fn unknown_path_errors() {
        let fs = Hdfs::new(2, 2, 4);
        let sched = TaskScheduler::new(2);
        assert!(sched.schedule(&fs, "/nope").is_err());
    }

    #[test]
    fn empty_histogram_fraction_is_one() {
        assert_eq!(TaskScheduler::data_local_fraction(&BTreeMap::new()), 1.0);
    }
}
