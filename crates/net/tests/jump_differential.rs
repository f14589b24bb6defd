//! Differential test: the jump path of `FluidNet::run_until` /
//! `run_flow_to_completion` against the per-tick referee.
//!
//! The referee is the same `FluidNet` with `topology_mut()` called before
//! every `step()`, so every tick re-solves and draws its own Bernoulli
//! loss. The jump path covers the ticks between events in closed form and
//! draws losses as geometric gaps, so the two sides consume their random
//! streams differently and the gate is statistical: over 32 seeds per
//! shape, each flow's mean throughput agrees within 1 %, and its mean
//! loss count within 4 standard errors of the difference. Each shape also
//! asserts that the referee's standard error is below a third of the 1 %
//! tolerance, so the gate has the power to fail, and that the jump side
//! needs fewer than half as many advances as it covers ticks.
//!
//! On loss-free links neither side draws, and the two must agree as
//! closely as the epoch solver agrees with the referee: bytes within
//! 1e-6 + 2 × 5e-3, completions within one tick.
//!
//! Every advance on both sides runs the `audit` feature's `net.*`
//! invariants (the jump's `net.cc_state_in_bounds` included), and each
//! test ends by asserting none was violated.

use osdc_net::{
    CongestionControl, FlowId, FlowSpec, FlowStatus, FluidNet, LinkId, NodeId, RenoState, Topology,
};
use osdc_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const SEEDS: u64 = 32;
const TICK: SimDuration = SimDuration::from_millis(10);

/// Drive the referee: a solve and a Bernoulli draw every tick.
fn run_referee(net: &mut FluidNet, ticks: u64) {
    for _ in 0..ticks {
        net.topology_mut();
        net.step();
    }
}

fn at_tick(ticks: u64) -> SimTime {
    SimTime(TICK.0 * ticks)
}

/// A two-node path `a → b` of `cap_bps` with `one_way_ms` delay and a
/// per-packet `loss` on the forward link.
fn line(cap_bps: f64, one_way_ms: u64, loss: f64) -> (Topology, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_node("a");
    let b = t.add_node("b");
    t.add_duplex_link(a, b, cap_bps, SimDuration::from_millis(one_way_ms), loss);
    (t, a, b)
}

fn unbounded(src: NodeId, dst: NodeId, cc: CongestionControl, app_limit_bps: f64) -> FlowSpec {
    FlowSpec {
        src,
        dst,
        bytes: u64::MAX,
        cc,
        app_limit_bps,
    }
}

/// One shape: a network builder for a seed, and how long to run it.
struct Shape {
    name: &'static str,
    build: fn(u64) -> (FluidNet, Vec<FlowId>),
    ticks: u64,
}

/// Per-flow sample mean and standard error of the mean.
fn mean_se(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

fn check_shape(shape: &Shape) {
    let secs = shape.ticks as f64 * TICK.as_secs_f64();
    // [side][flow] → per-seed throughput (bit/s) and loss counts.
    let mut tput: [Vec<Vec<f64>>; 2] = Default::default();
    let mut losses: [Vec<Vec<f64>>; 2] = Default::default();
    let mut jump_advances = 0;
    for seed in 0..SEEDS {
        for (side, jump) in [false, true].into_iter().enumerate() {
            let (mut net, flows) = (shape.build)(seed);
            if jump {
                net.run_until(at_tick(shape.ticks));
                jump_advances += net.solver_stats().advances;
            } else {
                run_referee(&mut net, shape.ticks);
            }
            assert_eq!(net.solver_stats().ticks, shape.ticks);
            tput[side].resize(flows.len(), Vec::new());
            losses[side].resize(flows.len(), Vec::new());
            for (k, &f) in flows.iter().enumerate() {
                tput[side][k].push(net.bytes_done(f) as f64 * 8.0 / secs);
                losses[side][k].push(net.loss_events(f) as f64);
            }
        }
    }
    assert!(
        jump_advances * 2 < SEEDS * shape.ticks,
        "{}: the jump path made {jump_advances} advances for {} ticks",
        shape.name,
        SEEDS * shape.ticks
    );
    for k in 0..tput[0].len() {
        let (r_mean, r_se) = mean_se(&tput[0][k]);
        let (j_mean, _) = mean_se(&tput[1][k]);
        assert!(
            r_se < r_mean * 0.01 / 3.0,
            "{} flow {k}: referee standard error {r_se:.0} of {r_mean:.0} bit/s leaves the 1% gate no power",
            shape.name
        );
        assert!(
            (j_mean - r_mean).abs() <= r_mean * 0.01,
            "{} flow {k}: jump {j_mean:.0} vs referee {r_mean:.0} bit/s",
            shape.name
        );
        let (rl, rl_se) = mean_se(&losses[0][k]);
        let (jl, jl_se) = mean_se(&losses[1][k]);
        let se = (rl_se * rl_se + jl_se * jl_se).sqrt();
        assert!(
            (jl - rl).abs() <= 4.0 * se,
            "{} flow {k}: jump {jl:.2} vs referee {rl:.2} losses (se of the difference {se:.2})",
            shape.name
        );
    }
    osdc_telemetry::audit::assert_clean(shape.name);
}

/// A Reno flow that fills its 500-packet receive window (292 mbit/s at
/// 20 ms), loses, halves and climbs back in congestion avoidance, about
/// seventy times a run.
fn reno_sawtooth(seed: u64) -> (FluidNet, Vec<FlowId>) {
    let (t, a, b) = line(10e9, 10, 4e-6);
    let mut net = FluidNet::new(t, seed);
    let cc = CongestionControl::Reno(RenoState::with_rwnd(0.02, 500.0 * 1460.0));
    let f = net
        .start_flow(unbounded(a, b, cc, f64::INFINITY))
        .expect("route");
    (net, vec![f])
}

/// A UDT flow held at its app cap through about 75 losses a run; each
/// cuts its rate, rarely below the cap.
fn udt_capped(seed: u64) -> (FluidNet, Vec<FlowId>) {
    let (t, a, b) = line(10e9, 52, 3e-6);
    let mut net = FluidNet::new(t, seed);
    let f = net
        .start_flow(unbounded(a, b, CongestionControl::udt(10e9), 750e6))
        .expect("route");
    (net, vec![f])
}

/// An uncapped UDT flow that estimates 800 mbit/s on a 1 Gbit/s link: it
/// creeps up on its estimate, every ×8/9 loss drops its desire materially,
/// and the link never saturates (so the tolerance's lag on congestion-loss
/// onset, which the epoch solver shares, stays out of the comparison).
fn udt_uncapped(seed: u64) -> (FluidNet, Vec<FlowId>) {
    let (t, a, b) = line(1e9, 10, 3e-6);
    let mut net = FluidNet::new(t, seed);
    let f = net
        .start_flow(unbounded(
            a,
            b,
            CongestionControl::udt(800e6),
            f64::INFINITY,
        ))
        .expect("route");
    (net, vec![f])
}

/// Reno, app-capped UDT and a constant-rate flow on one 1 Gbit/s
/// bottleneck their desires overfill: the saturated link's congestion
/// loss closes both loops.
fn shared_bottleneck(seed: u64) -> (FluidNet, Vec<FlowId>) {
    let (t, a, b) = line(1e9, 10, 1e-7);
    let mut net = FluidNet::new(t, seed);
    let flows = [
        (
            CongestionControl::Reno(RenoState::with_rwnd(0.02, 500.0 * 1460.0)),
            f64::INFINITY,
        ),
        (CongestionControl::udt(1e9), 450e6),
        (
            CongestionControl::Constant { rate_bps: 300e6 },
            f64::INFINITY,
        ),
    ]
    .into_iter()
    .map(|(cc, cap)| net.start_flow(unbounded(a, b, cc, cap)).expect("route"))
    .collect();
    (net, flows)
}

#[test]
fn reno_sawtooth_matches_referee() {
    check_shape(&Shape {
        name: "reno_sawtooth",
        build: reno_sawtooth,
        ticks: 80_000,
    });
}

#[test]
fn capped_udt_matches_referee() {
    check_shape(&Shape {
        name: "udt_capped",
        build: udt_capped,
        ticks: 40_000,
    });
}

#[test]
fn uncapped_udt_matches_referee() {
    check_shape(&Shape {
        name: "udt_uncapped",
        build: udt_uncapped,
        ticks: 40_000,
    });
}

#[test]
fn shared_bottleneck_matches_referee() {
    check_shape(&Shape {
        name: "shared_bottleneck",
        build: shared_bottleneck,
        ticks: 40_000,
    });
}

/// A connected random topology on loss-free links: a line backbone over
/// `n` nodes plus `extra` chords.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On loss-free links, with app limits that keep every link below
    /// saturation (so no congestion loss either), the jump path and the
    /// per-tick referee draw nothing and agree: bytes within 1e-6 + 2 ×
    /// 5e-3, completions within one tick, across a mid-run link toggle.
    #[test]
    fn loss_free_jump_tracks_referee(
        n in 3usize..7,
        extra in proptest::collection::vec((0usize..8, 0usize..8), 0..3),
        plans in proptest::collection::vec(
            (0usize..8, 0usize..8, 1u64<<22..1u64<<29, 0u8..3, 0.5e9f64..8e9, 20e6f64..240e6),
            1..5,
        ),
        toggle in 0usize..5,
        ticks in 100u64..2_000,
    ) {
        let topo = random_topology(n, &extra, &[1e9, 4e9, 10e9]);
        let toggle_link = LinkId((toggle % (n - 1)) * 2);
        let start = |net: &mut FluidNet| -> Vec<FlowId> {
            plans
                .iter()
                .map(|&(src, dst, bytes, kind, rate, app_limit)| {
                    let src = src % n;
                    let mut dst = dst % n;
                    if dst == src {
                        dst = (src + 1) % n;
                    }
                    let cc = match kind {
                        0 => CongestionControl::Constant { rate_bps: rate },
                        1 => CongestionControl::reno(0.05),
                        _ => CongestionControl::udt(rate),
                    };
                    net.start_flow(FlowSpec {
                        src: NodeId(src),
                        dst: NodeId(dst),
                        bytes,
                        cc,
                        app_limit_bps: app_limit,
                    })
                    .expect("line backbone routes every pair")
                })
                .collect()
        };
        let (down_at, up_at) = (ticks / 3, 2 * ticks / 3);
        let end = at_tick(ticks);

        let mut referee = FluidNet::new(topo.clone(), 7);
        let fr = start(&mut referee);
        run_referee(&mut referee, down_at);
        referee.set_link_up(toggle_link, false);
        run_referee(&mut referee, up_at - down_at);
        referee.set_link_up(toggle_link, true);
        run_referee(&mut referee, ticks - up_at);

        let mut jump = FluidNet::new(topo, 7);
        let fj = start(&mut jump);
        jump.run_until(at_tick(down_at));
        jump.set_link_up(toggle_link, false);
        jump.run_until(at_tick(up_at));
        jump.set_link_up(toggle_link, true);
        jump.run_until(at_tick(ticks));

        for (&r, &j) in fr.iter().zip(&fj) {
            prop_assert_eq!(referee.loss_events(r) + jump.loss_events(j), 0);
            let (rb, jb) = (referee.bytes_done(r) as f64, jump.bytes_done(j) as f64);
            prop_assert!(
                ((rb - jb) / rb.max(1.0)).abs() < 1e-6 + 5e-3 * 2.0,
                "bytes diverged: referee {rb} vs jump {jb}"
            );
            // Completion within one tick; a flow done on one side only
            // must have finished in the run's last tick.
            let done_at = |s| match s {
                FlowStatus::Done { at } => at,
                FlowStatus::Active => end,
            };
            let (a, b) = (done_at(referee.status(r)), done_at(jump.status(j)));
            prop_assert!(
                a.0.abs_diff(b.0) <= TICK.0,
                "completion diverged: referee {a:?} vs jump {b:?}"
            );
        }
        prop_assert!(jump.solver_stats().advances <= referee.solver_stats().advances);
        osdc_telemetry::audit::assert_clean("jump vs per-tick referee, loss-free");
    }
}
