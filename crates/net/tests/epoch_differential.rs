//! Differential property test: the epoch solver against the per-tick
//! referee, over randomized topologies, flow sets, and a link toggled
//! down and back up mid-run.
//!
//! The referee is no separate solver: it is the same `FluidNet` with
//! `topology_mut()` called before every `step()`, which drops the cached
//! allocation so every tick runs a full progressive-filling solve. It
//! applies link toggles through the global `topology_mut` +
//! `refresh_paths` recompute; the epoch side uses the targeted mutators.
//! Runs are loss-free, so the two sides draw no random numbers and may
//! differ only by the epoch solver's desire tolerance: bytes moved agree
//! within 1e-6 plus twice that tolerance, completions agree exactly.
//! Every solve on both sides also runs the `audit` feature's `net.*`
//! invariants, `net.max_min_fair` included, and the test ends by asserting
//! none was violated.

use osdc_net::{CongestionControl, FlowId, FlowSpec, FluidNet, LinkId, NodeId, Topology};
use osdc_sim::SimDuration;
use proptest::prelude::*;

/// A connected random topology: a line backbone over `n` nodes (so every
/// pair routes) plus `extra` chords, with capacities from `caps`.
fn random_topology(n: usize, extra: &[(usize, usize)], caps: &[f64]) -> Topology {
    let mut t = Topology::new();
    let nodes: Vec<_> = (0..n).map(|i| t.add_node(format!("n{i}"))).collect();
    for (i, w) in nodes.windows(2).enumerate() {
        let cap = caps[i % caps.len()];
        t.add_duplex_link(w[0], w[1], cap, SimDuration::from_millis(5 + i as u64), 0.0);
    }
    for &(a, b) in extra {
        let (a, b) = (a % n, b % n);
        if a != b {
            let cap = caps[(a + b) % caps.len()];
            t.add_duplex_link(nodes[a], nodes[b], cap, SimDuration::from_millis(3), 0.0);
        }
    }
    t
}

#[derive(Clone, Debug)]
struct FlowPlan {
    src: usize,
    dst: usize,
    bytes: u64,
    cc_kind: u8,
    rate: f64,
    app_limit: f64,
}

fn cc_from(plan: &FlowPlan) -> CongestionControl {
    match plan.cc_kind % 3 {
        0 => CongestionControl::Constant {
            rate_bps: plan.rate,
        },
        1 => CongestionControl::reno(0.05),
        _ => CongestionControl::udt(plan.rate),
    }
}

fn start_all(net: &mut FluidNet, n_nodes: usize, plans: &[FlowPlan]) -> Vec<FlowId> {
    plans
        .iter()
        .map(|p| {
            let src = p.src % n_nodes;
            let mut dst = p.dst % n_nodes;
            if dst == src {
                dst = (src + 1) % n_nodes;
            }
            net.start_flow(FlowSpec {
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: p.bytes,
                cc: cc_from(p),
                app_limit_bps: p.app_limit,
            })
            .expect("line backbone routes every pair")
        })
        .collect()
}

/// Drive `net` for `ticks`, toggling backbone link `toggle_link` down at
/// 1/3 of the run and up at 2/3. The epoch side uses the targeted
/// mutator; the referee uses the global recompute and drops the cached
/// allocation before every tick.
fn drive(net: &mut FluidNet, ticks: u64, toggle_link: LinkId, referee: bool) {
    let (down_at, up_at) = (ticks / 3, 2 * ticks / 3);
    for i in 0..ticks {
        if i == down_at || i == up_at {
            let up = i == up_at;
            if referee {
                net.topology_mut().set_link_up(toggle_link, up);
                net.refresh_paths();
            } else {
                net.set_link_up(toggle_link, up);
            }
        }
        if referee {
            net.topology_mut();
        }
        net.step();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The epoch solver tracks the per-tick referee on random lines plus
    /// chords with a mid-run link toggle: bytes moved agree within 1e-6
    /// plus twice the 5e-3 desire tolerance, and completions agree exactly.
    #[test]
    fn default_epoch_tracks_reference_closely(
        n in 3usize..7,
        extra in proptest::collection::vec((0usize..8, 0usize..8), 0..3),
        plans in proptest::collection::vec(
            (0usize..8, 0usize..8, 1u64<<22..1u64<<28, 0u8..3, 0.5e9f64..8e9, 1e9f64..20e9),
            1..5,
        ),
        toggle in 0usize..5,
        ticks in 50u64..400,
    ) {
        let plans: Vec<FlowPlan> = plans
            .into_iter()
            .map(|(src, dst, bytes, cc_kind, rate, app_limit)| FlowPlan {
                src, dst, bytes, cc_kind, rate, app_limit,
            })
            .collect();
        let caps = [1e9, 4e9, 10e9];
        let topo = random_topology(n, &extra, &caps);
        // Toggle one backbone link (the first 2(n-1) links are the line).
        let toggle_link = LinkId((toggle % (n - 1)) * 2);

        let mut referee = FluidNet::new(topo.clone(), 7);
        let mut epoch = FluidNet::new(topo, 7);
        let fr = start_all(&mut referee, n, &plans);
        let fe = start_all(&mut epoch, n, &plans);

        drive(&mut referee, ticks, toggle_link, true);
        drive(&mut epoch, ticks, toggle_link, false);

        for (&r, &e) in fr.iter().zip(&fe) {
            let (rb, eb) = (referee.bytes_done(r) as f64, epoch.bytes_done(e) as f64);
            let denom = rb.max(1.0);
            prop_assert!(
                ((rb - eb) / denom).abs() < 1e-6 + 5e-3 * 2.0,
                "bytes diverged: referee {rb} vs epoch {eb}"
            );
            prop_assert_eq!(
                referee.status(r),
                epoch.status(e),
                "completion diverged"
            );
        }
        osdc_telemetry::audit::assert_clean("epoch vs per-tick referee");
    }
}
