//! Capacity-limited stage models.
//!
//! Two shapes recur across OSDC-in-a-box: a *rate limit* (a disk that reads
//! at 3072 mbit/s, a PXE server NIC) and a *server pool* (a Chef server that
//! converges at most N clients at once, an install crew of one human). The
//! [`TokenBucket`] models the former analytically; [`ServicePool`] models the
//! latter as earliest-available-slot assignment. Both are pure functions of
//! virtual time — they do not own events — which keeps them composable with
//! any engine event type.

use crate::time::{SimDuration, SimTime};

/// A fluid-model rate limiter: work arrives as "amounts" (bytes, jobs) and
/// the bucket answers *when* that amount completes if started now, given a
/// sustained rate and what is already queued.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    /// Sustained service rate in units/second.
    rate_per_sec: f64,
    /// Time at which previously accepted work finishes draining.
    busy_until: SimTime,
    /// Total units accepted (for utilization reporting).
    accepted: f64,
}

impl TokenBucket {
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        TokenBucket {
            rate_per_sec,
            busy_until: SimTime::ZERO,
            accepted: 0.0,
        }
    }

    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// Accept `amount` units at `now`; returns the completion time. Work is
    /// served FIFO behind whatever was previously accepted.
    pub fn accept(&mut self, now: SimTime, amount: f64) -> SimTime {
        debug_assert!(amount >= 0.0);
        let start = self.busy_until.max(now);
        let service = SimDuration::from_secs_f64(amount / self.rate_per_sec);
        self.busy_until = start + service;
        self.accepted += amount;
        self.busy_until
    }

    /// Queueing delay a new arrival at `now` would experience before service.
    pub fn backlog_delay(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    pub fn is_idle(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Utilization over `[0, now]`: fraction of time the bucket was busy.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let busy_secs = self.accepted / self.rate_per_sec;
        (busy_secs / now.as_secs_f64()).min(1.0)
    }
}

/// A pool of `n` identical servers with FIFO earliest-slot assignment.
/// `schedule` answers "if this job arrives at `now` and takes `service`,
/// when does it start and finish?" — the classic M/G/n table of
/// next-free times, kept as a sorted-free-time vector.
#[derive(Clone, Debug)]
pub struct ServicePool {
    free_at: Vec<SimTime>,
    completed: u64,
}

impl ServicePool {
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "pool needs at least one server");
        ServicePool {
            free_at: vec![SimTime::ZERO; servers],
            completed: 0,
        }
    }

    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Assign a job arriving at `now` with the given service time to the
    /// earliest-free server. Returns `(start, finish)`.
    pub fn schedule(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        // Find the server that frees earliest. Pools are small (tens of
        // slots), so a linear scan beats maintaining a heap. `new` asserts
        // at least one server and nothing removes one, so there is a
        // minimum.
        #[allow(clippy::expect_used)]
        let idx = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("non-empty pool");
        let start = self.free_at[idx].max(now);
        let finish = start + service;
        self.free_at[idx] = finish;
        self.completed += 1;
        (start, finish)
    }

    /// Time when all currently scheduled work completes.
    pub fn drained_at(&self) -> SimTime {
        self.free_at.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    pub fn jobs_scheduled(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: u64 = 1_000_000_000;

    #[test]
    fn bucket_serves_at_rate() {
        let mut b = TokenBucket::new(100.0); // 100 units/s
        let done = b.accept(SimTime::ZERO, 250.0);
        assert_eq!(done, SimTime::ZERO + SimDuration::from_millis(2500));
    }

    #[test]
    fn bucket_queues_fifo() {
        let mut b = TokenBucket::new(100.0);
        let d1 = b.accept(SimTime::ZERO, 100.0); // done at 1s
        let d2 = b.accept(SimTime::ZERO, 100.0); // queued, done at 2s
        assert_eq!(d1, SimTime(NS));
        assert_eq!(d2, SimTime(2 * NS));
        assert_eq!(b.backlog_delay(SimTime::ZERO), SimDuration::from_secs(2));
        assert!(!b.is_idle(SimTime::ZERO));
        assert!(b.is_idle(SimTime(2 * NS)));
    }

    #[test]
    fn bucket_idles_between_bursts() {
        let mut b = TokenBucket::new(100.0);
        b.accept(SimTime::ZERO, 100.0); // busy until 1s
        let d = b.accept(SimTime(5 * NS), 100.0); // starts fresh at 5s
        assert_eq!(d, SimTime(6 * NS));
        // 2 busy seconds over 6 → utilization 1/3
        assert!((b.utilization(SimTime(6 * NS)) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_zero_amount_is_instant() {
        let mut b = TokenBucket::new(10.0);
        assert_eq!(b.accept(SimTime(42), 0.0), SimTime(42));
    }

    #[test]
    fn pool_parallelism() {
        let mut p = ServicePool::new(2);
        let (s1, f1) = p.schedule(SimTime::ZERO, SimDuration::from_secs(10));
        let (s2, f2) = p.schedule(SimTime::ZERO, SimDuration::from_secs(10));
        let (s3, f3) = p.schedule(SimTime::ZERO, SimDuration::from_secs(10));
        assert_eq!((s1, s2), (SimTime::ZERO, SimTime::ZERO));
        assert_eq!((f1, f2), (SimTime(10 * NS), SimTime(10 * NS)));
        assert_eq!(s3, SimTime(10 * NS)); // third job waits for a slot
        assert_eq!(f3, SimTime(20 * NS));
        assert_eq!(p.drained_at(), SimTime(20 * NS));
        assert_eq!(p.jobs_scheduled(), 3);
    }

    #[test]
    fn pool_respects_arrival_time() {
        let mut p = ServicePool::new(1);
        p.schedule(SimTime::ZERO, SimDuration::from_secs(1));
        let (start, _) = p.schedule(SimTime(100 * NS), SimDuration::from_secs(1));
        assert_eq!(start, SimTime(100 * NS));
    }

    #[test]
    #[should_panic]
    fn empty_pool_panics() {
        ServicePool::new(0);
    }
}
