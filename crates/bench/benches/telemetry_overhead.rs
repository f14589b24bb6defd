//! Telemetry overhead on the fluid net's per-tick `step()`, the hottest
//! path that still holds a `Telemetry` field.
//!
//! Three rows over the three-flow Chicago → LVOC mix the `fluid_solver`
//! bench builds (Reno + UDT + constant), stepped `TICKS` times:
//!
//! * `no_handle` — `FluidNet::new` and nothing else;
//! * `disabled` — a `Telemetry::disabled()` handle attached the way
//!   production call sites attach theirs;
//! * `live` — a live collector: flow counters and gauges, plus two trace
//!   points per flow every 5 simulated seconds.
//!
//! `live` over `disabled` is what recording costs. The disabled path is
//! not measured here: `FluidNet::new` already holds a disabled handle, so
//! `no_handle` and `disabled` step the same state through the same code,
//! and any gap between them is the host's noise. What a disabled handle
//! costs is fixed by construction: the tick tests a `None` where a live
//! handle would record, once per active flow and once per completion or
//! loss.
//!
//! Run: `cargo bench -p osdc-bench --bench telemetry_overhead`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use osdc_net::{osdc_wan, CongestionControl, FlowSpec, FluidNet, OsdcSite};
use osdc_telemetry::Telemetry;

const TICKS: u64 = 50_000;

/// The `fluid_solver` bench's mixed-CC flow set, with `tele` (if any)
/// attached before the flows start.
fn mixed_net(tele: Option<&Telemetry>) -> FluidNet {
    let wan = osdc_wan(1e-7);
    let src = wan.node(OsdcSite::ChicagoKenwood);
    let dst = wan.node(OsdcSite::Lvoc);
    let mut net = FluidNet::new(wan.topology, 42);
    if let Some(tele) = tele {
        net.set_telemetry(tele.clone());
    }
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

/// Out of line, so every row runs the same machine code.
#[inline(never)]
fn run_ticks(tele: Option<&Telemetry>) -> u64 {
    let mut net = mixed_net(tele);
    for _ in 0..TICKS {
        net.step();
    }
    net.solver_stats().ticks
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.throughput(Throughput::Elements(TICKS));
    group.bench_function("no_handle", |b| b.iter(|| run_ticks(None)));
    let disabled = Telemetry::disabled();
    group.bench_function("disabled", |b| b.iter(|| run_ticks(Some(&disabled))));
    group.bench_function("live", |b| b.iter(|| run_ticks(Some(&Telemetry::new()))));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_overhead
}
criterion_main!(benches);
