//! Differential proptest: the engine's pop order against a naive
//! reference queue that shares no code with it — a plain `Vec` whose
//! minimum `(time, seq)` is found by a linear scan. The claim is that
//! delivery is time-ascending and FIFO among equal timestamps under any
//! interleaving of inserts and steps, including handler-scheduled
//! follow-ups.

use osdc_sim::{Engine, Scheduler, SimTime, Simulation};
use proptest::prelude::*;

/// Reference scheduler: monotone clock, past times clamped to `now`, FIFO
/// tie-break via a sequence number, minimum by exhaustive search.
#[derive(Default)]
struct ReferenceQueue {
    now: u64,
    seq: u64,
    /// `(at, seq, id)` in insertion order.
    pending: Vec<(u64, u64, u32)>,
}

impl ReferenceQueue {
    fn schedule(&mut self, at: u64, id: u32) {
        let at = at.max(self.now);
        self.pending.push((at, self.seq, id));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let (best, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))?;
        let (at, _, id) = self.pending.remove(best);
        self.now = at;
        Some((at, id))
    }
}

/// World that records every delivered event id and time.
#[derive(Default)]
struct Log {
    seen: Vec<(u64, u32)>,
    /// `(delay, id)` follow-ups; one is drained (from the back) per
    /// delivered event and scheduled at `now + delay`.
    followups: Vec<(u64, u32)>,
}

impl Simulation for Log {
    type Event = u32;
    fn handle(&mut self, now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
        self.seen.push((now.as_nanos(), event));
        if let Some((delay, id)) = self.followups.pop() {
            sched.at(SimTime(now.as_nanos().saturating_add(delay)), id);
        }
    }
}

/// One scripted operation against both queues.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `now + offset` (offset 0 exercises same-time ties).
    Insert { offset: u64 },
    /// Step one event (no-op when empty).
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Small offsets collide constantly; zero forces exact ties.
        (0u64..50).prop_map(|offset| Op::Insert { offset }),
        (0u64..4).prop_map(|o| Op::Insert { offset: o * 10 }),
        Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of inserts and steps yields the reference's exact
    /// delivery order and pending count.
    #[test]
    fn pop_order_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut eng: Engine<u32> = Engine::new();
        let mut reference = ReferenceQueue::default();
        let mut world = Log::default();
        let mut next_id = 0u32;
        let mut ref_seen: Vec<(u64, u32)> = Vec::new();

        for op in &ops {
            match op {
                Op::Insert { offset } => {
                    let at = eng.now().as_nanos().saturating_add(*offset);
                    eng.schedule(SimTime(at), next_id);
                    reference.schedule(reference.now.saturating_add(*offset), next_id);
                    next_id += 1;
                }
                Op::Pop => {
                    let got = eng.step(&mut world).map(|t| t.as_nanos());
                    let want = reference.pop();
                    prop_assert_eq!(got, want.map(|(t, _)| t));
                    if let Some(r) = want {
                        ref_seen.push(r);
                    }
                }
            }
            prop_assert_eq!(eng.pending(), reference.pending.len());
        }
        // Drain the rest: full delivered sequences must agree id-for-id.
        while let Some(r) = reference.pop() {
            ref_seen.push(r);
            prop_assert!(eng.step(&mut world).is_some());
        }
        prop_assert!(eng.step(&mut world).is_none());
        prop_assert_eq!(&world.seen, &ref_seen);
    }

    /// Handler-scheduled follow-ups (including same-timestamp ones) keep
    /// the engine and the reference in lockstep. The reference models the
    /// follow-up injection outside its queue, interleaved with pops the
    /// way the engine's run loop interleaves `handle` with them.
    #[test]
    fn followups_stay_in_lockstep(
        seeds in proptest::collection::vec((0u64..100, 0u32..1000), 1..40),
        followups in proptest::collection::vec((0u64..30, 1000u32..2000), 0..40),
    ) {
        let mut eng: Engine<u32> = Engine::new();
        let mut reference = ReferenceQueue::default();
        for (at, id) in &seeds {
            eng.schedule(SimTime(*at), *id);
            reference.schedule(*at, *id);
        }
        let mut world = Log {
            followups: followups.clone(),
            ..Default::default()
        };
        let mut ref_followups = followups;
        let mut ref_seen = Vec::new();
        while let Some((at, id)) = reference.pop() {
            ref_seen.push((at, id));
            if let Some((delay, fid)) = ref_followups.pop() {
                reference.schedule(at.saturating_add(delay), fid);
            }
        }
        eng.run_to_completion(&mut world);
        prop_assert_eq!(&world.seen, &ref_seen);
    }

    /// Monotone delivery and exact FIFO rank among equal timestamps, over
    /// bursts big enough to regrow the queue several times.
    #[test]
    fn bursts_of_ties_deliver_fifo(
        groups in proptest::collection::vec((0u64..20, 1usize..30), 1..30),
    ) {
        let mut eng: Engine<u32> = Engine::new();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut id = 0u32;
        for (at, count) in &groups {
            for _ in 0..*count {
                eng.schedule(SimTime(*at), id);
                expected.push((*at, id));
                id += 1;
            }
        }
        // Sort by (time, scheduling order): scheduling order == id here.
        expected.sort_by_key(|&(at, id)| (at, id));
        let mut world = Log::default();
        eng.run_to_completion(&mut world);
        prop_assert_eq!(&world.seen, &expected);
    }
}
