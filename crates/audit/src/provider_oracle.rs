//! Differential oracle for the cross-provider failover router: a **flat
//! re-derivation of the router's safety contract** against backend
//! ground truth.
//!
//! The production side juggles suspicion cooldowns, orphan books, spot
//! preemption relaunches and per-dialect wire quirks. The reference
//! model here ignores all of that machinery and re-checks only what
//! must hold regardless of it, from first principles, after every op:
//!
//! * **Every live instance is explained.** Walk every provider's ground
//!   truth (the omniscient backend view — deliberately *not* the wire,
//!   which lies on `lagoon` and is tokenless on `sullivan`): each
//!   running instance must be either the router's current assignment
//!   for its token or a booked orphan. An unexplained instance is a
//!   double-launch in the making — billing has no record of it.
//! * **No token is double-assigned.** At most one *assigned* live
//!   instance per (user, token) across the whole federation; extras
//!   beyond the assignment must sit in the orphan book (the tracked
//!   near-misses reconcile hunts down).
//! * **Money matches the books.** Each simulated minute, the ledger's
//!   compute delta must equal the flat re-computation
//!   `Σ vcpus × effective_rate / 60` over the router's assignments —
//!   nothing more (no double-billed orphans), nothing less.
//! * **Reconcile finishes its job.** After a reconcile pass, no orphan
//!   may remain booked against a provider whose API health is clear —
//!   a healed provider with leftovers means the router believes a
//!   failure that is over.
//!
//! Chaos faults enter the op alphabet as [`FaultEvent`]s, applied to the
//! router's registry through its [`osdc_chaos::Injector`] impl
//! (`ApiOutage` / `ApiTimeout` / `ApiError` onto `ApiHealth`) — the
//! same hook the chaos campaign drives.

use std::collections::BTreeMap;

use osdc_chaos::{FaultEvent, Injector};
use osdc_providers::FailoverRouter;
use osdc_sim::{SimDuration, SimTime};

use crate::Oracle;

/// One operation of the router's interface.
#[derive(Clone, Debug)]
pub enum RouterOp {
    /// Place (or idempotently re-request) a launch.
    Launch {
        user: String,
        token: String,
        flavor: &'static str,
        image: &'static str,
    },
    /// Tear a token down wherever the router believes it runs. A token
    /// that is not assigned is a tolerated no-op (churn schedules fire
    /// blind).
    Terminate { user: String, token: String },
    /// Inject a chaos fault into the router's registry.
    Inject(FaultEvent),
    /// Restore a chaos fault.
    Restore(FaultEvent),
    /// Advance one simulated minute: tick providers, poll billing,
    /// reconcile orphans — then re-check every invariant.
    AdvanceMinute,
}

/// The flat safety model: re-derives the router's contract from ground
/// truth and the ledger, sharing no decision code with the router.
#[derive(Debug, Default)]
pub struct FailoverOracle {
    now: SimTime,
    /// Ledger compute-dollar total after the previous minute.
    billed_usd: f64,
    /// Double-launch violations seen (unexplained live instances).
    pub double_launch_violations: u64,
}

impl FailoverOracle {
    pub fn new() -> Self {
        FailoverOracle::default()
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The always-on safety bar: every ground-truth-live instance is
    /// explained, and no token holds two live instances outside the
    /// orphan book.
    fn safety_probe(&mut self, router: &FailoverRouter) -> Result<(), String> {
        // (user, token) → live placements, split into explained and not.
        let mut live: BTreeMap<(String, String), Vec<(String, bool)>> = BTreeMap::new();
        for provider in router.registry.names() {
            for (user, rec) in router.registry.ground_truth(&provider) {
                let assigned = router
                    .assignment(&user, &rec.name)
                    .is_some_and(|a| a.provider == provider && a.instance == rec.id);
                let orphaned = router
                    .orphan_book()
                    .any(|((p, u, t), _)| p == &provider && u == &user && t == &rec.name);
                live.entry((user, rec.name))
                    .or_default()
                    .push((provider.clone(), assigned || orphaned));
            }
        }
        for ((user, token), placements) in &live {
            if let Some((provider, _)) = placements.iter().find(|(_, explained)| !explained) {
                self.double_launch_violations += 1;
                return Err(format!(
                    "unexplained live instance for {user}/{token} on {provider}: \
                     neither assigned nor orphan-booked"
                ));
            }
            let assigned = placements
                .iter()
                .filter(|(provider, _)| {
                    router
                        .assignment(user, token)
                        .is_some_and(|a| &a.provider == provider)
                })
                .count();
            if assigned > 1 {
                self.double_launch_violations += 1;
                return Err(format!(
                    "{user}/{token} assigned live on {assigned} providers at once"
                ));
            }
        }
        Ok(())
    }

    /// Flat money check: the minute's ledger delta must equal the
    /// re-derived accrual over the router's post-poll assignments.
    fn billing_probe(&mut self, router: &FailoverRouter) -> Result<(), String> {
        let expected: f64 = router
            .assignments()
            .filter_map(|a| {
                let rate = router
                    .registry
                    .catalog(&a.provider)?
                    .effective_rate(&a.flavor, router.registry.spot_price(&a.provider))?;
                Some(a.vcpus as f64 * rate / 60.0)
            })
            .sum();
        let total: f64 = router
            .registry
            .names()
            .iter()
            .map(|n| router.registry.ledger().provider(n).compute_usd)
            .sum();
        let delta = total - self.billed_usd;
        self.billed_usd = total;
        if (delta - expected).abs() > 1e-9 {
            return Err(format!(
                "minute accrued ${delta:.9}, flat model says ${expected:.9}"
            ));
        }
        Ok(())
    }

    /// Post-reconcile: a clear provider may hold no orphans.
    fn reconcile_probe(&self, router: &FailoverRouter) -> Result<(), String> {
        for ((provider, user, token), _) in router.orphan_book() {
            let clear = router
                .registry
                .health(provider)
                .is_some_and(|h| h.is_clear());
            if clear {
                return Err(format!(
                    "orphan {user}/{token} still booked on healed provider {provider}"
                ));
            }
        }
        Ok(())
    }
}

impl Oracle for FailoverOracle {
    type System = FailoverRouter;
    type Op = RouterOp;

    fn name(&self) -> &'static str {
        "providers.flat-router"
    }

    fn step(&mut self, router: &mut FailoverRouter, op: &RouterOp) -> Result<(), String> {
        match op {
            RouterOp::Launch {
                user,
                token,
                flavor,
                image,
            } => {
                // Failures are legitimate (every provider down, spot
                // refusing); what must never happen is a placement the
                // safety probe cannot explain.
                let _ = router.launch(user, token, flavor, image, self.now);
            }
            RouterOp::Terminate { user, token } => {
                let _ = router.terminate(user, token, self.now);
                if router.assignment(user, token).is_some() {
                    return Err(format!("{user}/{token} still assigned after terminate"));
                }
            }
            RouterOp::Inject(ev) => {
                router
                    .registry
                    .inject(ev, self.now)
                    .map_err(|e| format!("inject {:?} failed: {e}", ev.kind))?;
            }
            RouterOp::Restore(ev) => {
                router
                    .registry
                    .restore(ev, self.now)
                    .map_err(|e| format!("restore {:?} failed: {e}", ev.kind))?;
            }
            RouterOp::AdvanceMinute => {
                self.now += SimDuration::from_mins(1);
                router.poll_minute(self.now);
                router.reconcile(self.now);
                self.billing_probe(router)?;
                self.reconcile_probe(router)?;
            }
        }
        self.safety_probe(router)
    }
}

/// Deterministic randomized router churn: launches, terminates and
/// API-fault windows over the given fleet vocabulary, one
/// `AdvanceMinute` heartbeat between bursts, closed by a heal-everything
/// quiesce so the final book state is fully checkable.
pub fn router_ops(seed: u64, providers: &[&str], minutes: usize) -> Vec<RouterOp> {
    use osdc_chaos::FaultKind;

    let mut rng = osdc_sim::SimRng::new(seed ^ 0x90f7_a11b_02c4_d688);
    let users = ["alice", "bob", "carol"];
    let flavors = ["small", "medium", "large", "xlarge"];
    let mut ops = Vec::new();
    let mut faulted: Vec<FaultEvent> = Vec::new();
    for minute in 0..minutes {
        for _ in 0..rng.range_inclusive(1, 4) {
            match rng.below(10) {
                0..=5 => ops.push(RouterOp::Launch {
                    user: users[rng.below(3) as usize].to_string(),
                    token: format!("vm{}", rng.below(12)),
                    flavor: flavors[rng.below(4) as usize],
                    image: "ubuntu-base",
                }),
                6..=7 => ops.push(RouterOp::Terminate {
                    user: users[rng.below(3) as usize].to_string(),
                    token: format!("vm{}", rng.below(12)),
                }),
                8 => {
                    let kind = match rng.below(3) {
                        0 => FaultKind::ApiOutage,
                        1 => FaultKind::ApiTimeout,
                        _ => FaultKind::ApiError,
                    };
                    let magnitude = if kind == FaultKind::ApiOutage {
                        0.0
                    } else {
                        0.25 + rng.below(70) as f64 / 100.0
                    };
                    let ev = FaultEvent {
                        at_secs: minute as f64 * 60.0,
                        kind,
                        target: providers[rng.below(providers.len() as u64) as usize].to_string(),
                        magnitude,
                        duration_secs: 120.0,
                    };
                    ops.push(RouterOp::Inject(ev.clone()));
                    faulted.push(ev);
                }
                _ => {
                    if let Some(ev) = faulted.pop() {
                        ops.push(RouterOp::Restore(ev));
                    }
                }
            }
        }
        ops.push(RouterOp::AdvanceMinute);
    }
    // Quiesce: heal every outstanding fault, then run enough minutes for
    // suspicion cooldowns to lapse and reconcile to drain the books.
    for ev in faulted.into_iter().rev() {
        ops.push(RouterOp::Restore(ev));
    }
    for _ in 0..4 {
        ops.push(RouterOp::AdvanceMinute);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive;
    use osdc_chaos::FaultKind;
    use osdc_providers::osdc_fleet;
    use osdc_telemetry::Telemetry;

    fn router(mix: &[&str], seed: u64) -> FailoverRouter {
        FailoverRouter::new(osdc_fleet(mix, Telemetry::disabled(), seed))
    }

    fn launch(user: &str, token: &str) -> RouterOp {
        RouterOp::Launch {
            user: user.to_string(),
            token: token.to_string(),
            flavor: "small",
            image: "ubuntu-base",
        }
    }

    #[test]
    fn calm_churn_is_clean() {
        let mut r = router(&["adler", "sullivan"], 11);
        let mut oracle = FailoverOracle::new();
        let ops = vec![
            launch("alice", "vm1"),
            launch("bob", "vm2"),
            RouterOp::AdvanceMinute,
            RouterOp::Terminate {
                user: "alice".into(),
                token: "vm1".into(),
            },
            RouterOp::AdvanceMinute,
        ];
        let report = drive(&mut oracle, &mut r, &ops);
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(oracle.double_launch_violations, 0);
    }

    #[test]
    fn outage_window_stays_explained() {
        let mut r = router(&["adler", "sullivan", "lagoon"], 23);
        let mut oracle = FailoverOracle::new();
        let outage = FaultEvent {
            at_secs: 0.0,
            kind: FaultKind::ApiOutage,
            target: "lagoon".to_string(),
            magnitude: 0.0,
            duration_secs: 120.0,
        };
        let ops = vec![
            launch("alice", "vm1"),
            RouterOp::Inject(outage.clone()),
            launch("bob", "vm2"),
            RouterOp::AdvanceMinute,
            RouterOp::Restore(outage),
            RouterOp::AdvanceMinute,
            RouterOp::AdvanceMinute,
            RouterOp::AdvanceMinute,
        ];
        let report = drive(&mut oracle, &mut r, &ops);
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn seeded_churn_over_the_full_fleet_is_clean() {
        let mix = ["adler", "sullivan", "spotmart", "lagoon", "pagely"];
        let mut r = router(&mix, 31);
        let mut oracle = FailoverOracle::new();
        let ops = router_ops(31, &mix, 20);
        let report = drive(&mut oracle, &mut r, &ops);
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(oracle.double_launch_violations, 0);
    }

    #[test]
    fn router_ops_are_deterministic() {
        let a = router_ops(5, &["adler", "sullivan"], 6);
        let b = router_ops(5, &["adler", "sullivan"], 6);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.iter().any(|op| matches!(op, RouterOp::AdvanceMinute)));
    }
}
