//! Retry/backoff policies on virtual time.
//!
//! §7 of the paper is a catalog of transient failures — WAN loss spikes,
//! brick outages, flaky provisioning stages, backend API timeouts — and
//! every subsystem that survives them does so by retrying. These policies
//! live here in the kernel (rather than in `osdc-chaos`, which drives the
//! faults) so that the provisioning pipeline can adopt them without
//! depending on the chaos crate; `osdc-chaos` re-exports them.
//!
//! Everything is deterministic: exponential jitter draws from the
//! caller's [`SimRng`], so two same-seed runs back off identically.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// How a caller spaces retries after a transient failure.
#[derive(Clone, Debug, PartialEq)]
pub enum RetryPolicy {
    /// Fail fast: the first error is final.
    None,
    /// Up to `max_retries` retries, each after the same `delay`.
    Fixed {
        max_retries: u32,
        delay: SimDuration,
    },
    /// Up to `max_retries` retries with delay `base × factor^attempt`,
    /// capped at `cap`, plus `±jitter` fractional seeded jitter (the
    /// decorrelation that keeps a rack of Chef clients from thundering
    /// back in lockstep).
    Exponential {
        max_retries: u32,
        base: SimDuration,
        factor: f64,
        cap: SimDuration,
        jitter: f64,
    },
}

impl RetryPolicy {
    /// The fixed 30 s spacing the provisioning pipeline historically used.
    pub fn fixed_30s(max_retries: u32) -> Self {
        RetryPolicy::Fixed {
            max_retries,
            delay: SimDuration::from_secs(30),
        }
    }

    /// A conventional exponential policy: 2 s base, doubling, 60 s cap,
    /// ±25 % jitter.
    pub fn exponential(max_retries: u32) -> Self {
        RetryPolicy::Exponential {
            max_retries,
            base: SimDuration::from_secs(2),
            factor: 2.0,
            cap: SimDuration::from_secs(60),
            jitter: 0.25,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            RetryPolicy::None => "no-retry",
            RetryPolicy::Fixed { .. } => "fixed",
            RetryPolicy::Exponential { .. } => "exp-backoff",
        }
    }

    pub fn max_retries(&self) -> u32 {
        match self {
            RetryPolicy::None => 0,
            RetryPolicy::Fixed { max_retries, .. }
            | RetryPolicy::Exponential { max_retries, .. } => *max_retries,
        }
    }

    /// Delay before retry number `attempt` (0-based: the delay after the
    /// first failure is `delay(0, ..)`), or `None` once the policy is
    /// exhausted and the error should be surfaced.
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> Option<SimDuration> {
        match self {
            RetryPolicy::None => None,
            RetryPolicy::Fixed { max_retries, delay } => (attempt < *max_retries).then_some(*delay),
            RetryPolicy::Exponential {
                max_retries,
                base,
                factor,
                cap,
                jitter,
            } => {
                if attempt >= *max_retries {
                    return None;
                }
                let raw = base.as_secs_f64() * factor.powi(attempt as i32);
                let capped = raw.min(cap.as_secs_f64());
                // Symmetric jitter in [-j, +j]; the draw happens even when
                // jitter is 0 so policy variants consume the same RNG
                // stream shape.
                let u = rng.f64() * 2.0 - 1.0;
                let jittered = (capped * (1.0 + jitter * u)).max(0.0);
                Some(SimDuration::from_secs_f64(jittered))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_retries() {
        let mut rng = SimRng::new(1);
        assert_eq!(RetryPolicy::None.delay(0, &mut rng), None);
    }

    #[test]
    fn fixed_spacing_is_constant_and_bounded() {
        let p = RetryPolicy::fixed_30s(3);
        let mut rng = SimRng::new(1);
        for a in 0..3 {
            assert_eq!(p.delay(a, &mut rng), Some(SimDuration::from_secs(30)));
        }
        assert_eq!(p.delay(3, &mut rng), None);
    }

    #[test]
    fn exponential_grows_to_cap_within_jitter() {
        let p = RetryPolicy::exponential(8);
        let mut rng = SimRng::new(7);
        let mut prev_nominal = 0.0;
        for a in 0..8 {
            let d = p.delay(a, &mut rng).expect("within budget").as_secs_f64();
            let nominal = (2.0 * 2f64.powi(a as i32)).min(60.0);
            assert!(
                (d - nominal).abs() <= nominal * 0.25 + 1e-9,
                "attempt {a}: {d} vs nominal {nominal}"
            );
            assert!(nominal >= prev_nominal);
            prev_nominal = nominal;
        }
        assert_eq!(p.delay(8, &mut rng), None);
    }

    #[test]
    fn exponential_jitter_is_seed_deterministic() {
        let p = RetryPolicy::exponential(4);
        let seq = |seed| {
            let mut rng = SimRng::new(seed);
            (0..4).map(|a| p.delay(a, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43));
    }
}
