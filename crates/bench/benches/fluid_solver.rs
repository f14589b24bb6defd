//! Fluid-solver microbenches on the scenarios the paper's harnesses
//! actually run, one row per shape:
//!
//! * `mixed_cc_4000_ticks` — Reno + UDT + constant flows stepping through
//!   loss, the Table 3 pipeline shape; the solver skips solves while
//!   desires hold within tolerance.
//! * `constant_run_until` — one long-lived constant-rate bulk flow driven
//!   by `run_until`, the resilience-campaign shape; the solver jumps
//!   analytically between allocation-changing events.
//! * `link_flap_partial` — chaos-style link flaps on a background flow
//!   set; the solver re-solves only flows crossing the dirtied link.
//!
//! End to end, the `benchmark/` crate times the same solver through the
//! `harness.table3_udr` and `chaos.campaign` per-layer metrics.

use criterion::{criterion_group, criterion_main, Criterion};
use osdc_net::{
    osdc_wan, CongestionControl, FlowSpec, FluidNet, LinkId, NodeId, OsdcSite, Topology,
};
use osdc_sim::{SimDuration, SimTime};

/// Chicago → LVOC mixed-CC flow set over the real WAN, mirroring the
/// Table 3 pipeline: a Reno flow, a UDT flow, and an app-limited constant.
fn mixed_net() -> FluidNet {
    let wan = osdc_wan(1e-7);
    let src = wan.node(OsdcSite::ChicagoKenwood);
    let dst = wan.node(OsdcSite::Lvoc);
    let mut net = FluidNet::new(wan.topology, 42);
    for cc in [
        CongestionControl::reno(0.104),
        CongestionControl::udt(10e9),
        CongestionControl::Constant { rate_bps: 1.5e9 },
    ] {
        net.start_flow(FlowSpec {
            src,
            dst,
            bytes: u64::MAX / 4,
            cc,
            app_limit_bps: 3e9,
        })
        .expect("route");
    }
    net
}

fn bench_mixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_solver");
    group.bench_function("mixed_cc_4000_ticks", |b| {
        b.iter(|| {
            let mut net = mixed_net();
            for _ in 0..4000 {
                net.step();
            }
            net.solver_stats().solves
        })
    });
    group.finish();
}

fn bench_run_until(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_solver");
    group.bench_function("constant_run_until", |b| {
        let wan = osdc_wan(1.2e-7);
        let src = wan.node(OsdcSite::ChicagoKenwood);
        let dst = wan.node(OsdcSite::Lvoc);
        let topo = wan.topology;
        b.iter(|| {
            let mut net = FluidNet::new(topo.clone(), 7);
            net.start_flow(FlowSpec {
                src,
                dst,
                bytes: u64::MAX / 4,
                cc: CongestionControl::Constant { rate_bps: 4e9 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
            net.run_until(SimTime::ZERO + SimDuration::from_mins(90));
            net.solver_stats().ticks
        })
    });
    group.finish();
}

/// A 6-node line + star topology with one hot link the flap targets.
fn flap_topology() -> (Topology, Vec<(usize, usize)>, LinkId) {
    let mut topo = Topology::new();
    let nodes: Vec<_> = (0..6).map(|i| topo.add_node(format!("n{i}"))).collect();
    let mut first = None;
    for w in nodes.windows(2) {
        let (a, b) = topo.add_duplex_link(w[0], w[1], 10e9, SimDuration::from_millis(10), 0.0);
        first.get_or_insert(a);
        let _ = b;
    }
    let pairs = vec![(0usize, 5usize), (1, 4), (2, 5), (0, 3)];
    (topo, pairs, first.expect("line has links"))
}

fn bench_flap(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_solver");
    group.bench_function("link_flap_partial", |b| {
        let (topo, pairs, hot) = flap_topology();
        b.iter(|| {
            let mut net = FluidNet::new(topo.clone(), 11);
            for &(s, d) in &pairs {
                net.start_flow(FlowSpec {
                    src: NodeId(s),
                    dst: NodeId(d),
                    bytes: u64::MAX / 8,
                    cc: CongestionControl::Constant { rate_bps: 2e9 },
                    app_limit_bps: f64::INFINITY,
                })
                .expect("route");
            }
            for i in 0..200 {
                net.set_link_up(hot, i % 2 == 1);
                for _ in 0..20 {
                    net.step();
                }
            }
            net.solver_stats().solves
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mixed, bench_run_until, bench_flap
}
criterion_main!(benches);
