//! The Nagios master's tick at the `tenant_month` fleet shape: 1,000
//! hosts × 4 services (`scale::monitor_fleet`), ticked every 15 s for one
//! simulated hour (241 ticks) under a fixed script of metric drift and
//! host flaps, drawn the way `exp_scale`'s monitoring leg draws them.
//!
//! The fleet and its agent map are built once. Each iteration resets the
//! agents to their healthy gauges, registers the 4,000 services with a
//! fresh master and runs the 241 ticks, so the row includes that
//! registration.

use std::collections::BTreeMap;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use osdc_bench::scale::monitor_fleet;
use osdc_monitor::{HostAgent, NagiosMaster};
use osdc_sim::{SimRng, SimTime};

const HOSTS: usize = 1_000;
const TICKS: u64 = 241;
const TICK_S: u64 = 15;
/// The gauges `monitor_fleet` publishes, which the drift moves.
const METRICS: [&str; 4] = ["disk_used_pct", "load1", "free_mb", "net_errs"];

/// One scripted change to the fleet before a tick.
enum Drift {
    Metric(usize, &'static str, f64),
    Down(usize),
    Up(usize),
}

/// Per tick: a few metrics drift toward and across their thresholds,
/// and now and then a host goes down, to return a few ticks later.
fn drift_script(seed: u64) -> Vec<Vec<Drift>> {
    let mut rng = SimRng::new(seed);
    let mut up = vec![true; HOSTS];
    let mut down: Vec<usize> = Vec::new();
    (0..TICKS)
        .map(|_| {
            let mut tick = Vec::new();
            for _ in 0..HOSTS / 50 {
                let host = rng.below(HOSTS as u64) as usize;
                let m = rng.below(4) as usize;
                let value = match m {
                    0 => 30.0 + rng.below(70) as f64,
                    1 => rng.below(20) as f64,
                    2 => 500.0 + rng.below(120_000) as f64,
                    _ => rng.below(300) as f64,
                };
                tick.push(Drift::Metric(host, METRICS[m], value));
            }
            if rng.chance(0.05) {
                let host = rng.below(HOSTS as u64) as usize;
                if up[host] {
                    up[host] = false;
                    down.push(host);
                    tick.push(Drift::Down(host));
                }
            }
            if !down.is_empty() && rng.chance(0.3) {
                let host = down.remove(0);
                up[host] = true;
                tick.push(Drift::Up(host));
            }
            tick
        })
        .collect()
}

fn bench_tick(c: &mut Criterion) {
    let (agents, defs) = monitor_fleet(HOSTS, 4, 60);
    let healthy: Vec<(&str, f64)> = METRICS
        .iter()
        .filter_map(|&m| agents[0].metrics.get(m).map(|v| (m, v)))
        .collect();
    let by_name: BTreeMap<String, &HostAgent> =
        agents.iter().map(|a| (a.hostname.clone(), a)).collect();
    let script = drift_script(2012);

    let mut group = c.benchmark_group("monitor_tick");
    group.bench_function("fleet_1000x4_1h", |b| {
        b.iter(|| {
            for agent in &agents {
                agent.set_reachable(true);
                for &(metric, value) in &healthy {
                    agent.metrics.set(metric, value);
                }
            }
            let mut master = NagiosMaster::new();
            for def in &defs {
                master.add_service(def.clone());
            }
            for (k, changes) in script.iter().enumerate() {
                for change in changes {
                    match *change {
                        Drift::Metric(host, metric, value) => {
                            agents[host].metrics.set(metric, value)
                        }
                        Drift::Down(host) => agents[host].set_reachable(false),
                        Drift::Up(host) => agents[host].set_reachable(true),
                    }
                }
                let now = SimTime(k as u64 * TICK_S * 1_000_000_000);
                master.tick(now, black_box(&by_name));
            }
            master.notifications.len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tick
}
criterion_main!(benches);
