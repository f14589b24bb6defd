//! Property-based checks on the fluid model's max-min fair allocator:
//! conservation (no link over capacity), demand-boundedness and fairness,
//! over randomized topologies and flow sets. Each ends by asserting that
//! no `net.*` audit invariant fired (a no-op without the `audit` feature).

use osdc_net::{CongestionControl, FlowSpec, FluidNet, Topology};
use osdc_sim::SimDuration;
use proptest::prelude::*;

/// Build a star topology: `n` leaves through one shared hub link.
fn star(n_leaves: usize, hub_capacity: f64) -> (Topology, Vec<osdc_net::NodeId>, osdc_net::NodeId) {
    let mut t = Topology::new();
    let hub = t.add_node("hub");
    let sink = t.add_node("sink");
    t.add_duplex_link(hub, sink, hub_capacity, SimDuration::from_millis(5), 0.0);
    let leaves: Vec<_> = (0..n_leaves)
        .map(|i| {
            let leaf = t.add_node(format!("leaf{i}"));
            t.add_duplex_link(leaf, hub, 100e9, SimDuration::from_millis(1), 0.0);
            leaf
        })
        .collect();
    (t, leaves, sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// However demands are drawn, one tick never moves more bytes through
    /// the shared link than its capacity allows, and no flow exceeds its
    /// own demand.
    #[test]
    fn conservation_and_demand_bounds(
        demands in proptest::collection::vec(1.0e6f64..5e9, 1..12),
        cap_gbps in 1.0f64..20.0,
    ) {
        let cap = cap_gbps * 1e9;
        let (topo, leaves, sink) = star(demands.len(), cap);
        let mut net = FluidNet::new(topo, 7);
        let flows: Vec<_> = demands
            .iter()
            .zip(&leaves)
            .map(|(&d, &leaf)| {
                net.start_flow(FlowSpec {
                    src: leaf,
                    dst: sink,
                    bytes: u64::MAX,
                    cc: CongestionControl::Constant { rate_bps: d },
                    app_limit_bps: f64::INFINITY,
                }).expect("route")
            })
            .collect();
        let steps = 100u64;
        for _ in 0..steps {
            net.step();
        }
        let elapsed = net.now().as_secs_f64();
        let mut total_bits = 0.0;
        for (f, &d) in flows.iter().zip(&demands) {
            let bits = net.bytes_done(*f) as f64 * 8.0;
            total_bits += bits;
            prop_assert!(
                bits <= d * elapsed * 1.0001,
                "flow exceeded its demand: {} > {}", bits, d * elapsed
            );
        }
        prop_assert!(
            total_bits <= cap * elapsed * 1.0001,
            "link overdriven: {} > {}", total_bits, cap * elapsed
        );
        osdc_telemetry::audit::assert_clean("conservation_and_demand_bounds");
    }

    /// Equal demands through a shared bottleneck get equal shares.
    #[test]
    fn equal_demands_equal_shares(n in 2usize..10, demand in 1.0e9f64..20e9) {
        let (topo, leaves, sink) = star(n, 5e9);
        let mut net = FluidNet::new(topo, 11);
        let flows: Vec<_> = leaves
            .iter()
            .map(|&leaf| {
                net.start_flow(FlowSpec {
                    src: leaf,
                    dst: sink,
                    bytes: u64::MAX,
                    cc: CongestionControl::Constant { rate_bps: demand },
                    app_limit_bps: f64::INFINITY,
                }).expect("route")
            })
            .collect();
        for _ in 0..50 {
            net.step();
        }
        let bytes: Vec<f64> = flows.iter().map(|&f| net.bytes_done(f) as f64).collect();
        let min = bytes.iter().cloned().fold(f64::INFINITY, f64::min);
        let max: f64 = bytes.iter().cloned().fold(0.0, f64::max);
        prop_assert!(max > 0.0);
        prop_assert!((max - min) / max < 0.01, "unfair shares: {bytes:?}");
        osdc_telemetry::audit::assert_clean("equal_demands_equal_shares");
    }

    /// A small demand is never throttled below its ask while bigger flows
    /// still get the rest (max-min property).
    #[test]
    fn small_demand_is_satisfied(big in 2.0e9f64..20e9) {
        let (topo, leaves, sink) = star(2, 1e9);
        let mut net = FluidNet::new(topo, 13);
        let small = net.start_flow(FlowSpec {
            src: leaves[0],
            dst: sink,
            bytes: u64::MAX,
            cc: CongestionControl::Constant { rate_bps: 50e6 },
            app_limit_bps: f64::INFINITY,
        }).expect("route");
        let large = net.start_flow(FlowSpec {
            src: leaves[1],
            dst: sink,
            bytes: u64::MAX,
            cc: CongestionControl::Constant { rate_bps: big },
            app_limit_bps: f64::INFINITY,
        }).expect("route");
        for _ in 0..100 {
            net.step();
        }
        let t = net.now().as_secs_f64();
        let small_rate = net.bytes_done(small) as f64 * 8.0 / t;
        let large_rate = net.bytes_done(large) as f64 * 8.0 / t;
        prop_assert!((small_rate / 50e6 - 1.0).abs() < 0.02, "small flow got {small_rate}");
        // The big flow takes (almost) all the remainder of the 1G hub.
        prop_assert!(large_rate > 0.90e9 - 50e6, "large flow got {large_rate}");
        osdc_telemetry::audit::assert_clean("small_demand_is_satisfied");
    }
}
