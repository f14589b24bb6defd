//! Table 1, made measurable: commercial CSP vs. science CSP.
//!
//! The paper's contrast:
//!
//! * *Computing and storage* — commercial clouds optimize scale-out web
//!   serving and object storage; science clouds "also support data
//!   intensive computing and high performance storage".
//! * *Flows* — commercial traffic is "lots of small web flows"; science
//!   traffic is "also large incoming and outgoing data flows".
//! * *Lock in* — "lock in is good" commercially; science clouds make it
//!   "important to support moving data and computation between CSPs".
//!
//! [`CspProfile`] encodes the infrastructure differences that produce
//! those rows: per-instance NIC caps and oversubscribed egress on the
//! commercial side, 10G end-to-end paths with high-performance storage on
//! the science side, and image exportability. [`run_flow_mix`] then runs
//! the two workload shapes on either profile and reports what each was
//! built for.

use osdc_net::{CongestionControl, FlowSpec, FluidNet, Topology};
use osdc_sim::stats::Summary;
use osdc_sim::{SimDuration, SimTime};

/// Infrastructure parameters distinguishing the two provider kinds.
#[derive(Clone, Debug)]
pub struct CspProfile {
    pub name: String,
    /// Per-flow ceiling (instance NIC / throttled object store), bits/s.
    pub per_flow_cap_bps: f64,
    /// Shared egress capacity, bits/s.
    pub egress_bps: f64,
    /// Competing tenant flows on the shared egress.
    pub background_flows: usize,
    /// Rate of each background flow, bits/s.
    pub background_rate_bps: f64,
    /// One-way edge latency.
    pub edge_delay: SimDuration,
    /// Whether machine images can be exported to another CSP (Table 1's
    /// lock-in row).
    pub images_exportable: bool,
}

impl CspProfile {
    /// A 2012 commercial cloud: ~300 mbit/s instance NICs, heavily shared
    /// egress, image lock-in.
    pub fn commercial() -> CspProfile {
        CspProfile {
            name: "commercial".into(),
            per_flow_cap_bps: 300e6,
            egress_bps: 10e9,
            background_flows: 24,
            background_rate_bps: 350e6,
            edge_delay: SimDuration::from_millis(10),
            images_exportable: false,
        }
    }

    /// A science cloud per §9.1: "they connect to high performance 10G
    /// and 100G networks, they support high performance storage".
    pub fn science() -> CspProfile {
        CspProfile {
            name: "science".into(),
            per_flow_cap_bps: 1136e6, // the high-performance storage path
            egress_bps: 10e9,
            background_flows: 2,
            background_rate_bps: 350e6,
            edge_delay: SimDuration::from_millis(10),
            images_exportable: true,
        }
    }
}

/// The two traffic shapes of Table 1's "Flows" row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowMix {
    /// "lots of small web flows": many ~100 KB transfers.
    SmallWeb { flows: usize },
    /// "large incoming and outgoing data flows": a few multi-GB bulk
    /// transfers (downscaled from multi-TB to keep runs quick; steady
    /// state is identical).
    Elephant { flows: usize, gb_each: u64 },
}

/// What each workload cares about.
#[derive(Clone, Debug)]
pub struct FlowMixReport {
    pub profile: String,
    /// Mean completion time of small flows, milliseconds.
    pub small_flow_ms: Option<f64>,
    /// Aggregate goodput of elephant flows, mbit/s.
    pub elephant_mbps: Option<f64>,
}

/// Run the network until every listed flow completes or `deadline`
/// passes, on the net's own run loop (background flows are unbounded, so
/// running until the net drains would pin the simulation to its deadline).
fn run_until_done(net: &mut FluidNet, flows: &[osdc_net::FlowId], deadline: SimTime) {
    for &f in flows {
        net.run_flow_to_completion(f, deadline);
    }
}

/// Run one flow mix on one provider profile.
// The net is the three-node line built here, so its `datacenter` →
// `internet` flows always have a route and the pair always has an RTT:
// the `expect`s below cannot fire.
#[allow(clippy::expect_used)]
pub fn run_flow_mix(profile: &CspProfile, mix: FlowMix, seed: u64) -> FlowMixReport {
    // Customer ↔ edge ↔ internet: the shared egress is the middle link.
    let mut topo = Topology::new();
    let dc = topo.add_node("datacenter");
    let edge = topo.add_node("edge");
    let inet = topo.add_node("internet");
    topo.add_duplex_link(dc, edge, profile.egress_bps, profile.edge_delay, 0.0);
    topo.add_duplex_link(edge, inet, 100e9, SimDuration::from_millis(20), 0.0);
    let mut net = FluidNet::new(topo, seed);
    // Tenant background load on the shared egress.
    for _ in 0..profile.background_flows {
        net.start_flow(FlowSpec {
            src: dc,
            dst: inet,
            bytes: u64::MAX,
            cc: CongestionControl::Constant {
                rate_bps: profile.background_rate_bps,
            },
            app_limit_bps: profile.per_flow_cap_bps,
        })
        .expect("route");
    }
    let rtt = net
        .topology()
        .rtt(dc, inet)
        .expect("connected")
        .as_secs_f64();
    match mix {
        FlowMix::SmallWeb { flows } => {
            let ids: Vec<_> = (0..flows)
                .map(|_| {
                    net.start_flow(FlowSpec {
                        src: dc,
                        dst: inet,
                        bytes: 100_000,
                        cc: CongestionControl::reno(rtt),
                        app_limit_bps: profile.per_flow_cap_bps,
                    })
                    .expect("route")
                })
                .collect();
            let deadline = SimTime::ZERO + SimDuration::from_mins(10);
            run_until_done(&mut net, &ids, deadline);
            let mut s = Summary::new();
            for id in ids {
                if let osdc_net::FlowStatus::Done { at } = net.status(id) {
                    // Add the request round trip a web fetch pays.
                    s.record(at.as_secs_f64() * 1e3 + rtt * 1e3);
                }
            }
            FlowMixReport {
                profile: profile.name.clone(),
                small_flow_ms: Some(s.mean()),
                elephant_mbps: None,
            }
        }
        FlowMix::Elephant { flows, gb_each } => {
            let ids: Vec<_> = (0..flows)
                .map(|_| {
                    net.start_flow(FlowSpec {
                        src: dc,
                        dst: inet,
                        bytes: gb_each * 1_000_000_000,
                        cc: CongestionControl::udt(profile.egress_bps),
                        app_limit_bps: profile.per_flow_cap_bps,
                    })
                    .expect("route")
                })
                .collect();
            let deadline = SimTime::ZERO + SimDuration::from_hours(12);
            run_until_done(&mut net, &ids, deadline);
            let total_mbps: f64 = ids
                .iter()
                .filter_map(|&id| net.average_throughput_bps(id))
                .map(|bps| bps / 1e6)
                .sum();
            FlowMixReport {
                profile: profile.name.clone(),
                small_flow_ms: None,
                elephant_mbps: Some(total_mbps),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_serve_small_web_flows_fine() {
        // The commercial profile is *built* for this; the science profile
        // must not be worse in any meaningful way.
        let c = run_flow_mix(
            &CspProfile::commercial(),
            FlowMix::SmallWeb { flows: 50 },
            1,
        );
        let s = run_flow_mix(&CspProfile::science(), FlowMix::SmallWeb { flows: 50 }, 1);
        let (cm, sm) = (c.small_flow_ms.expect("ms"), s.small_flow_ms.expect("ms"));
        assert!(cm < 2000.0, "commercial small flows complete quickly: {cm}");
        assert!(
            sm < 2.0 * cm,
            "science is comparable on small flows: {sm} vs {cm}"
        );
    }

    #[test]
    fn science_wins_decisively_on_elephants() {
        let mix = FlowMix::Elephant {
            flows: 3,
            gb_each: 20,
        };
        let c = run_flow_mix(&CspProfile::commercial(), mix, 2);
        let s = run_flow_mix(&CspProfile::science(), mix, 2);
        let (ce, se) = (
            c.elephant_mbps.expect("mbps"),
            s.elephant_mbps.expect("mbps"),
        );
        assert!(
            se > 2.0 * ce,
            "science elephants ({se:.0} mbit/s) ≫ commercial ({ce:.0} mbit/s)"
        );
    }

    #[test]
    fn per_flow_cap_binds_commercial_elephants() {
        let c = run_flow_mix(
            &CspProfile::commercial(),
            FlowMix::Elephant {
                flows: 1,
                gb_each: 10,
            },
            3,
        );
        let mbps = c.elephant_mbps.expect("mbps");
        assert!(
            (200.0..=310.0).contains(&mbps),
            "one commercial elephant is NIC-capped: {mbps:.0}"
        );
    }

    #[test]
    fn lock_in_row() {
        assert!(!CspProfile::commercial().images_exportable);
        assert!(CspProfile::science().images_exportable);
    }

    #[test]
    fn deterministic() {
        let mix = FlowMix::Elephant {
            flows: 2,
            gb_each: 5,
        };
        let a = run_flow_mix(&CspProfile::science(), mix, 9);
        let b = run_flow_mix(&CspProfile::science(), mix, 9);
        assert_eq!(a.elephant_mbps, b.elephant_mbps);
    }
}
