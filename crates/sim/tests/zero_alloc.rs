//! Counting-allocator proof that the engine's queue is zero-alloc at
//! steady state: once a warm-up lap has grown the heap's backing `Vec` to
//! the working depth, a sustained schedule/step workload allocates
//! nothing — a push writes into retained capacity and a pop only moves
//! entries within it.
//!
//! The workloads are hold models (every delivery schedules its successor),
//! so the queue depth is constant and the warm-up lap reaches it.

use counting_alloc::{count_allocations, CountingAlloc};
use osdc_sim::{Engine, Scheduler, SimTime, Simulation};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Hold model with a constant delay: every delivery schedules its
/// successor `delay` ns later, keeping queue depth constant forever.
struct Hold {
    delay: u64,
    delivered: u64,
}

impl Simulation for Hold {
    type Event = u32;
    fn handle(&mut self, now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
        self.delivered += 1;
        sched.at(SimTime(now.as_nanos() + self.delay), event);
    }
}

#[test]
fn allocator_probe_is_live() {
    let (stats, v) = count_allocations(|| vec![0u8; 1 << 16]);
    assert!(stats.allocations >= 1);
    drop(v);
}

#[test]
fn steady_state_insert_pop_is_zero_alloc() {
    let mut eng: Engine<u32> = Engine::new();
    let mut world = Hold {
        delay: 9973,
        delivered: 0,
    };
    // Staggered seeds: depth 1000 at distinct times.
    for i in 0..1000u32 {
        eng.schedule(SimTime(7 * i as u64 + 1), i);
    }
    // Warm-up laps grow the queue to its working depth.
    for _ in 0..50_000 {
        eng.step(&mut world).expect("hold model never drains");
    }
    assert_eq!(eng.pending(), 1000, "hold model keeps depth constant");

    // Steady state: 20k insert/pop pairs, zero allocations.
    let (stats, _) = count_allocations(|| {
        for _ in 0..20_000 {
            eng.step(&mut world).expect("hold model never drains");
        }
    });
    assert_eq!(eng.pending(), 1000);
    assert_eq!(
        stats.allocations, 0,
        "engine queue allocated {} times ({} bytes) at steady state",
        stats.allocations, stats.bytes
    );
}

#[test]
fn same_time_ties_are_zero_alloc_at_steady_state() {
    let mut eng: Engine<u32> = Engine::new();
    let mut world = Hold {
        delay: 4096,
        delivered: 0,
    };
    // Four events per timestamp: every step pops from a same-time batch,
    // and the constant delay re-creates the identical tie pattern every
    // generation.
    for i in 0..512u32 {
        eng.schedule(SimTime(64 * (i as u64 / 4) + 1), i);
    }
    for _ in 0..20_000 {
        eng.step(&mut world).expect("non-empty");
    }
    let (stats, _) = count_allocations(|| {
        for _ in 0..20_000 {
            eng.step(&mut world).expect("non-empty");
        }
    });
    assert_eq!(eng.pending(), 512);
    assert_eq!(
        stats.allocations, 0,
        "same-time steps allocated {} times at steady state",
        stats.allocations
    );
}
