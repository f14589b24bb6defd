//! Counting-allocator proof that a long-running flow costs no memory per
//! simulated minute. The chaos rig keeps one bulk flow Chicago → LVOC in
//! flight for a whole campaign week and advances the net a minute at a
//! time; with telemetry off the flow keeps no per-point state, so once
//! the solver's scratch buffers are warm the week allocates (almost)
//! nothing.

use counting_alloc::{count_allocations, CountingAlloc};
use osdc_net::{osdc_wan, CongestionControl, FlowSpec, FlowStatus, FluidNet, OsdcSite};
use osdc_sim::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const WEEK_MINS: u64 = 7 * 24 * 60;

fn minute(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(m)
}

#[test]
fn bulk_flow_week_allocates_under_64_kib() {
    let wan = osdc_wan(1.2e-7);
    let src = wan.node(OsdcSite::ChicagoKenwood);
    let dst = wan.node(OsdcSite::Lvoc);
    let mut net = FluidNet::new(wan.topology, 11 ^ 0x01);
    let flow = net
        .start_flow(FlowSpec {
            src,
            dst,
            bytes: u64::MAX / 4,
            cc: CongestionControl::Constant { rate_bps: 4e9 },
            app_limit_bps: f64::INFINITY,
        })
        .expect("the healthy WAN routes Chicago → LVOC");

    // Warm-up hour: the first solve and the loss scratch's first growth.
    for m in 0..=60 {
        net.run_until(minute(m));
    }
    let (stats, _) = count_allocations(|| {
        for m in 61..=60 + WEEK_MINS {
            net.run_until(minute(m));
        }
    });
    assert!(
        stats.bytes < 64 * 1024,
        "a week of minutes allocated {} times ({} bytes)",
        stats.allocations,
        stats.bytes
    );
    assert_eq!(net.now(), minute(60 + WEEK_MINS));
    assert_eq!(net.status(flow), FlowStatus::Active);
    assert!(net.loss_events(flow) > 0, "the week's losses were drawn");
}
