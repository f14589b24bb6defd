//! Counting-allocator proofs for the Nagios tick. Once the host index,
//! wheel buckets and scratch buffers are warm, a tick that finds nothing
//! due (and sees no host transition) performs only bucket scans and
//! reachability reads, and allocates nothing. A tick that runs checks
//! compares numbers and formats no message unless it notifies, so its
//! allocations (the per-tick host table and wheel-bucket growth) do not
//! grow with the number of checks.

use std::collections::BTreeMap;

use counting_alloc::{count_allocations, CountingAlloc};
use osdc_monitor::check::{CheckDefinition, ThresholdDirection};
use osdc_monitor::nagios::{NagiosMaster, ServiceDefinition};
use osdc_monitor::nrpe::HostAgent;
use osdc_sim::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn allocator_probe_is_live() {
    let (stats, v) = count_allocations(|| vec![0u8; 1 << 16]);
    assert!(stats.allocations >= 1);
    drop(v);
}

/// `hosts` healthy agents named `host00`, `host01`, … and their map.
fn healthy_agents(hosts: usize) -> Vec<HostAgent> {
    (0..hosts)
        .map(|h| {
            let a = HostAgent::new(format!("host{h:02}"));
            a.metrics.set("disk_used_pct", 40.0);
            a
        })
        .collect()
}

/// A master with `services` disk checks spread over `hosts` hosts, all
/// on a 5-minute cadence.
fn master_for(services: usize, hosts: usize) -> NagiosMaster {
    let mut master = NagiosMaster::new();
    for s in 0..services {
        master.add_service(ServiceDefinition {
            host: format!("host{:02}", s % hosts),
            check: CheckDefinition::new(
                format!("check_{s}"),
                "disk_used_pct",
                80.0,
                95.0,
                ThresholdDirection::HighIsBad,
            ),
            check_interval: SimDuration::from_mins(5),
            retry_interval: SimDuration::from_mins(1),
            max_check_attempts: 3,
        });
    }
    master
}

#[test]
fn no_due_ticks_are_zero_alloc() {
    let agents = healthy_agents(32);
    let agent_map: BTreeMap<String, &HostAgent> =
        agents.iter().map(|a| (a.hostname.clone(), a)).collect();
    let mut master = master_for(512, 32);

    // Warm-up: everything checks at t=0 (healthy), re-arming the whole
    // fleet for t=5min and sizing every bucket and scratch buffer.
    let t0 = SimTime::ZERO;
    master.tick(t0, &agent_map);
    assert!(master.notifications.is_empty());

    // Steady state: one tick per second across the idle window before
    // the next due instant. No checks run, no transitions fire — and
    // nothing allocates.
    let (stats, _) = count_allocations(|| {
        for s in 1..280u64 {
            master.tick(t0 + SimDuration::from_secs(s), &agent_map);
        }
    });
    assert_eq!(
        stats.allocations, 0,
        "no-due ticks allocated {} times ({} bytes)",
        stats.allocations, stats.bytes
    );

    // The fleet still checks on schedule afterwards.
    master.tick(t0 + SimDuration::from_mins(5), &agent_map);
    let state = master
        .service_state("host00", "check_0")
        .expect("service exists");
    assert_eq!(state.next_check_at, t0 + SimDuration::from_mins(10));
}

/// A warm tick that runs `n` healthy checks makes a small, fixed number
/// of allocations: the host table, plus the growth of the one wheel
/// bucket the checks re-arm into. No check formats a message unless it
/// notifies.
#[test]
fn due_ticks_allocate_a_fixed_handful() {
    const BOUND: u64 = 16;
    for n in [64, 512] {
        let agents = healthy_agents(32);
        let agent_map: BTreeMap<String, &HostAgent> =
            agents.iter().map(|a| (a.hostname.clone(), a)).collect();
        let mut master = master_for(n, 32);
        let t0 = SimTime::ZERO;
        master.tick(t0, &agent_map);

        let due = t0 + SimDuration::from_mins(5);
        let (stats, _) = count_allocations(|| master.tick(due, &agent_map));
        assert!(
            stats.allocations < BOUND,
            "a tick of {n} due checks allocated {} times ({} bytes)",
            stats.allocations,
            stats.bytes
        );
        assert!(master.notifications.is_empty());
        let state = master
            .service_state("host00", "check_0")
            .expect("service exists");
        assert_eq!(state.next_check_at, due + SimDuration::from_mins(5));
        assert_eq!(state.last_value, Some(40.0));
    }
}
