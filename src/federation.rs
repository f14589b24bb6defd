//! The OCC resource federation — Table 2, assembled and runnable.
//!
//! | Resource               | Type                                   | Size                        |
//! |------------------------|----------------------------------------|-----------------------------|
//! | OSDC-Adler & Sullivan  | OpenStack & Eucalyptus utility cloud   | 1248 cores, 1.2 PB disk     |
//! | OSDC-Root              | Storage cloud                          | ~1 PB of disk               |
//! | OCC-Y                  | Hadoop data cloud                      | 928 cores, 1.0 PB disk      |
//! | OCC-Matsu              | Hadoop data cloud                      | ~120 cores, 100 TB          |
//!
//! [`Federation::build`] constructs all of it: the utility clouds behind
//! one Tukey console, the GlusterFS-style volumes of §7.1 (Adler 156 TB,
//! Sullivan 38 TB, Root 459 TB usable shares), the two Hadoop clusters,
//! the four-site WAN, and a Nagios master watching brick hosts.

use osdc_mapreduce::Hdfs;
use osdc_monitor::{CheckDefinition, NagiosMaster, ServiceDefinition, ThresholdDirection};
use osdc_net::wan::{osdc_wan, OsdcWan};
use osdc_sim::SimDuration;
use osdc_storage::{GlusterVersion, SambaExport, Volume};
use osdc_tukey::auth::AuthProxy;
use osdc_tukey::translation::osdc_proxy;
use osdc_tukey::TukeyConsole;

const TB: u64 = 1_000_000_000_000;

/// One row of the Table 2 inventory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterSummary {
    pub resource: String,
    pub kind: String,
    pub cores: u32,
    pub disk_tb: u64,
}

/// The assembled OSDC.
pub struct Federation {
    /// Tukey console fronting OSDC-Adler (OpenStack) and OSDC-Sullivan
    /// (Eucalyptus) — 2 racks each, 1248 cores total.
    pub console: TukeyConsole,
    /// The §7.1 GlusterFS shares, behind their Samba permission gates.
    pub adler_share: SambaExport,
    pub sullivan_share: SambaExport,
    /// OSDC-Root: the PB-scale storage cloud (459 TB usable share).
    pub root: Volume,
    /// OCC-Y: 928 cores / 116 nodes of Hadoop.
    pub occ_y: Hdfs,
    /// OCC-Matsu: ~120 cores / 15 nodes of Hadoop.
    pub matsu: Hdfs,
    /// The four-site 10G WAN.
    pub wan: OsdcWan,
    /// Nagios watching the storage bricks.
    pub nagios: NagiosMaster,
}

impl Federation {
    /// Build the whole facility with the paper's sizes.
    ///
    /// `long_haul_loss` is the Table 3 WAN calibration knob (1.2e-7 is
    /// the documented default); `seed` drives every stochastic component.
    pub fn build(long_haul_loss: f64, seed: u64) -> Federation {
        let auth = AuthProxy::new();
        // 2 racks each → 624 + 624 = 1248 cores (Table 2 row 1).
        let console = TukeyConsole::new(auth, osdc_proxy(2));

        // §7.1: primary data stores, replica-2 over standard bricks.
        let mk_volume = |name: &str, usable_tb: u64, brick_tb: u64, s: u64| {
            let bricks = ((usable_tb * 2) / brick_tb).max(2) as usize;
            let bricks = bricks + bricks % 2; // replica-2 needs pairs
            Volume::new(
                name,
                GlusterVersion::V3_3,
                bricks,
                2,
                brick_tb * TB,
                seed ^ s,
            )
        };
        let adler_share = SambaExport::new(mk_volume("osdc-adler", 156, 8, 1));
        let sullivan_share = SambaExport::new(mk_volume("osdc-sullivan", 38, 8, 2));
        let root = mk_volume("osdc-root", 459, 8, 3);

        // OCC-Y: 928 cores / 8 = 116 nodes, 4 racks of 29.
        let occ_y = Hdfs::new(4, 29, seed ^ 4);
        // OCC-Matsu: ~120 cores → 15 nodes over 3 racks of 5.
        let matsu = Hdfs::new(3, 5, seed ^ 5);

        // Nagios: disk and load checks on a representative brick host per
        // volume (the full deployment wires one per server).
        let mut nagios = NagiosMaster::new();
        for host in ["adler-brick0", "sullivan-brick0", "root-brick0"] {
            nagios.add_service(ServiceDefinition {
                host: host.to_string(),
                check: CheckDefinition::new(
                    "check_disk",
                    "disk_used_pct",
                    80.0,
                    95.0,
                    ThresholdDirection::HighIsBad,
                ),
                check_interval: SimDuration::from_mins(5),
                retry_interval: SimDuration::from_mins(1),
                max_check_attempts: 3,
            });
        }

        Federation {
            console,
            adler_share,
            sullivan_share,
            root,
            occ_y,
            matsu,
            wan: osdc_wan(long_haul_loss),
            nagios,
        }
    }

    /// The Table 2 inventory rows, computed from the live objects.
    pub fn inventory(&self) -> Vec<ClusterSummary> {
        // `build` gives the console both utility clouds.
        let utility = ["adler", "sullivan"].map(|name| self.console.proxy.controller(name));
        let utility_cores = utility.iter().flatten().map(|c| c.total_cores()).sum();
        let utility_disk_tb = utility
            .iter()
            .flatten()
            .map(|c| c.total_disk_gb())
            .sum::<u64>()
            / 1000;
        vec![
            ClusterSummary {
                resource: "OSDC-Adler & Sullivan".into(),
                kind: "OpenStack & Eucalyptus based utility cloud".into(),
                cores: utility_cores,
                disk_tb: utility_disk_tb,
            },
            ClusterSummary {
                resource: "OSDC-Root".into(),
                kind: "Storage cloud".into(),
                cores: 0,
                disk_tb: self.root.total_capacity_bytes() / TB,
            },
            ClusterSummary {
                resource: "OCC-Y".into(),
                kind: "Hadoop data cloud".into(),
                cores: self.occ_y.node_count() as u32 * 8,
                disk_tb: self.occ_y.node_count() as u64 * 8, // 8 TB/server
            },
            ClusterSummary {
                resource: "OCC-Matsu".into(),
                kind: "Hadoop data cloud".into(),
                cores: self.matsu.node_count() as u32 * 8,
                disk_tb: self.matsu.node_count() as u64 * 8,
            },
        ]
    }

    /// Facility totals for the abstract's "more than 2000 cores and 2 PB"
    /// headline.
    pub fn total_cores(&self) -> u32 {
        self.inventory().iter().map(|c| c.cores).sum()
    }

    pub fn total_disk_tb(&self) -> u64 {
        self.inventory().iter().map(|c| c.disk_tb).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_matches_table2() {
        let fed = Federation::build(1.2e-7, 42);
        let inv = fed.inventory();
        assert_eq!(inv.len(), 4);
        // Row 1: 1248 cores (Table 2), ~1.2 PB.
        assert_eq!(inv[0].cores, 1248);
        assert!(
            (1100..=1300).contains(&inv[0].disk_tb),
            "{}",
            inv[0].disk_tb
        );
        // Row 2: approximately 1 PB of disk (459 TB usable ×2 replicas).
        assert!((900..=1100).contains(&inv[1].disk_tb), "{}", inv[1].disk_tb);
        // Row 3: 928 cores and 1.0 PB.
        assert_eq!(inv[2].cores, 928);
        assert!((900..=1000).contains(&inv[2].disk_tb), "{}", inv[2].disk_tb);
        // Row 4: approximately 120 cores and 100 TB.
        assert_eq!(inv[3].cores, 120);
        assert!((100..=130).contains(&inv[3].disk_tb), "{}", inv[3].disk_tb);
    }

    #[test]
    fn abstract_headline_holds() {
        // "more than 2000 cores and 2 PB of storage distributed across
        // four data centers connected by 10G networks".
        let fed = Federation::build(1.2e-7, 42);
        assert!(fed.total_cores() > 2000, "{}", fed.total_cores());
        assert!(fed.total_disk_tb() > 2000, "{} TB", fed.total_disk_tb());
        assert_eq!(fed.wan.topology.node_count(), 5); // 4 DCs + StarLight
    }

    #[test]
    fn gluster_shares_match_section_7_1() {
        let fed = Federation::build(1.2e-7, 1);
        // §7.1 usable sizes: Adler 156 TB, Sullivan 38 TB, Root 459 TB.
        fed.adler_share.with_volume(|v| {
            assert!((150..=170).contains(&(v.usable_capacity_bytes() / TB)));
        });
        fed.sullivan_share.with_volume(|v| {
            assert!((36..=44).contains(&(v.usable_capacity_bytes() / TB)));
        });
        assert!((450..=470).contains(&(fed.root.usable_capacity_bytes() / TB)));
    }

    #[test]
    fn console_reaches_both_clouds() {
        let fed = Federation::build(1.2e-7, 7);
        let names = fed.console.proxy.cloud_names();
        assert_eq!(names, vec!["adler", "sullivan"]);
    }

    #[test]
    fn federation_is_deterministic() {
        let a = Federation::build(1.2e-7, 9);
        let b = Federation::build(1.2e-7, 9);
        assert_eq!(a.inventory(), b.inventory());
    }
}
