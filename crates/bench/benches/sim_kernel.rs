//! Discrete-event kernel throughput: how many events per second the
//! engine dispatches (everything in the workspace sits on this).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use osdc_sim::{Engine, Scheduler, SimDuration, SimTime, Simulation};

struct Relay {
    remaining: u64,
}

enum Ev {
    Tick,
}

impl Simulation for Relay {
    type Event = Ev;
    fn handle(&mut self, _now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.after(SimDuration::from_micros(10), Ev::Tick);
        }
    }
}

struct Hold;

impl Simulation for Hold {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        sched.at(SimTime(now.as_nanos() + 9973), ev);
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_kernel");
    const EVENTS: u64 = 100_000;
    group.throughput(Throughput::Elements(EVENTS));
    group.bench_function("serial_relay_100k", |b| {
        b.iter(|| {
            let mut engine = Engine::new();
            engine.schedule(SimTime::ZERO, Ev::Tick);
            let mut world = Relay { remaining: EVENTS };
            engine.run_to_completion(&mut world);
            engine.events_processed()
        })
    });
    // Constant queue depth: every delivery re-schedules itself 9973 ns
    // later. Depth 64 is what the sharing gossip reaches in
    // `federation_week`; no engine the product builds holds more than 141
    // pending events. Depth 10k is the heap's worst case here: each pop
    // sifts through log2(10k) ≈ 13 levels.
    for (name, depth) in [
        ("hold_steady_depth_64", 64u64),
        ("hold_steady_depth_10k", 10_000),
    ] {
        group.bench_function(name, |b| {
            let mut engine = Engine::new();
            for i in 0..depth {
                engine.schedule(SimTime(7 * i + 1), Ev::Tick);
            }
            let mut world = Hold;
            b.iter(|| {
                for _ in 0..EVENTS {
                    engine.step(&mut world).expect("hold model never drains");
                }
                engine.events_processed()
            })
        });
    }
    group.bench_function("preloaded_100k", |b| {
        b.iter(|| {
            let mut engine = Engine::new();
            for i in 0..EVENTS {
                engine.schedule(SimTime(i * 7 % 1_000_000), Ev::Tick);
            }
            let mut world = Relay { remaining: 0 };
            engine.run_to_completion(&mut world);
            engine.events_processed()
        })
    });
    group.finish();
}

fn bench_fluid_step(c: &mut Criterion) {
    use osdc_net::{osdc_wan, CongestionControl, FlowSpec, FluidNet, OsdcSite};
    let mut group = c.benchmark_group("fluid_net");
    group.bench_function("step_10_flows", |b| {
        let wan = osdc_wan(1e-7);
        let src = wan.node(OsdcSite::ChicagoKenwood);
        let dst = wan.node(OsdcSite::Lvoc);
        let mut net = FluidNet::new(wan.topology, 42);
        for _ in 0..10 {
            net.start_flow(FlowSpec {
                src,
                dst,
                bytes: u64::MAX,
                cc: CongestionControl::udt(10e9),
                app_limit_bps: 1e9,
            })
            .expect("route");
        }
        b.iter(|| net.step());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_engine, bench_fluid_step
}
criterion_main!(benches);
