//! Counting-allocator proof for the trace export. Each trace event
//! prints straight into one output buffer, reserved once from the line
//! count before the first line, so exporting a ring costs the same
//! allocations at any size: the buffer plus the few meta and metric
//! lines, none per event.

use counting_alloc::{count_allocations, CountingAlloc};
use osdc_sim::{SimDuration, SimTime};
use osdc_telemetry::Telemetry;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A live handle whose ring holds `events` events (a multiple of 5) in
/// `table3_udr`'s mix: transfer stage spans with attributes, and flow
/// points. The metrics are the same at every size.
fn recorded(events: u64) -> Telemetry {
    let tele = Telemetry::new();
    let bytes = tele.counter("transfer.bytes");
    let rtt = tele.histogram("net.rtt_ms");
    for i in 0..events / 5 {
        let t = SimTime::ZERO + SimDuration::from_millis(10 * i);
        let span = tele.span_start("stage/disk_read", t);
        tele.attr(span, "bytes", 1_u64 << 30);
        tele.attr(span, "rate_mbps", 812.5 + i as f64 / 7.0);
        tele.point("net.flow3.mbps", t, 640.0 + i as f64 / 3.0);
        tele.span_end(span, t + SimDuration::from_millis(5));
        tele.add(bytes, 1 << 20);
        tele.observe(rtt, 104.0);
    }
    assert_eq!(tele.trace_len() as u64, events);
    tele
}

#[test]
fn allocator_probe_is_live() {
    let (stats, v) = count_allocations(|| vec![0u8; 1 << 16]);
    assert!(stats.allocations >= 1);
    drop(v);
}

#[test]
fn export_allocations_do_not_grow_with_the_ring() {
    let (small, large) = (recorded(5_000), recorded(50_000));
    let (small_stats, small_jsonl) = count_allocations(|| small.export_jsonl());
    let (large_stats, large_jsonl) = count_allocations(|| large.export_jsonl());
    assert_eq!(small_jsonl.lines().count(), 1 + 5_000 + 2);
    assert_eq!(large_jsonl.lines().count(), 1 + 50_000 + 2);
    assert_eq!(
        small_stats.allocations, large_stats.allocations,
        "5,000 events: {small_stats:?}; 50,000 events: {large_stats:?}"
    );
}
