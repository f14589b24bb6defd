//! The cross-provider failover router.
//!
//! The router is the federation's front door: a launch request names a
//! unified flavor and image, and the router walks the capable providers
//! in effective-price order, failing over past outages, timeouts and
//! refusals. It keeps three books that the audit oracle checks against
//! backend ground truth:
//!
//! * **assignments** — token → exactly one (provider, instance). Billing
//!   accrues from this book only, so a token can never be double-billed.
//! * **orphans** — (provider, user, token) pairs where a *mutating* call
//!   timed out: the backend may have executed it. Reconcile hunts these
//!   down once the provider heals and terminates whatever it finds.
//! * **suspects** — providers cooling down after an outage/timeout; the
//!   router skips them while the suspicion lasts unless nobody else can
//!   take the work.

use std::collections::BTreeMap;

use osdc_sim::stats::Summary;
use osdc_sim::{SimDuration, SimTime};

use crate::canonical::{CanonicalRequest, CanonicalResponse, ProviderError};
use crate::registry::ProviderRegistry;

/// One placed launch: the router's belief about where a token runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    pub provider: String,
    pub instance: u64,
    pub user: String,
    pub token: String,
    /// Unified flavor and image names (for relaunch after preemption).
    pub flavor: String,
    pub image: String,
    pub vcpus: u32,
}

/// What the P1 harness reports per cell.
#[derive(Debug, Default)]
pub struct RouterScorecard {
    pub launches_requested: u64,
    pub launches_placed: u64,
    pub launches_failed: u64,
    /// Extra provider attempts beyond the first, across all launches.
    pub reroutes: u64,
    /// Wall-clock cost of launches that needed more than one attempt, ms.
    pub failover_latency_ms: Summary,
    pub fidelity_checks: u64,
    pub fidelity_failures: u64,
    pub terminates: u64,
    /// Assignments that vanished from ground truth (preempted or killed)
    /// and were relaunched elsewhere.
    pub preemption_relaunches: u64,
    pub orphans_recorded: u64,
    pub orphans_cleaned: u64,
    /// Orphans found actually running while their token was assigned
    /// elsewhere — the double-launch near-misses reconcile cleaned up.
    pub double_launches_prevented: u64,
}

/// How long a provider stays suspect after an outage or a timeout.
const SUSPECT_COOLDOWN: SimDuration = SimDuration::from_secs(120);

fn key(user: &str, token: &str) -> String {
    format!("{user}/{token}")
}

/// Routes launches across the registry and keeps the books.
pub struct FailoverRouter {
    pub registry: ProviderRegistry,
    assignments: BTreeMap<String, Assignment>,
    /// provider → suspicion expiry.
    suspects: BTreeMap<String, SimTime>,
    /// (provider, user, token) → when the orphaning timeout happened.
    orphans: BTreeMap<(String, String, String), SimTime>,
    pub scorecard: RouterScorecard,
}

impl FailoverRouter {
    pub fn new(registry: ProviderRegistry) -> Self {
        FailoverRouter {
            registry,
            assignments: BTreeMap::new(),
            suspects: BTreeMap::new(),
            orphans: BTreeMap::new(),
            scorecard: RouterScorecard::default(),
        }
    }

    pub fn assignments(&self) -> impl Iterator<Item = &Assignment> {
        self.assignments.values()
    }

    pub fn assignment(&self, user: &str, token: &str) -> Option<&Assignment> {
        self.assignments.get(&key(user, token))
    }

    pub fn orphan_book(&self) -> impl Iterator<Item = (&(String, String, String), &SimTime)> {
        self.orphans.iter()
    }

    pub fn is_suspect(&self, provider: &str, now: SimTime) -> bool {
        self.suspects
            .get(provider)
            .is_some_and(|until| *until > now)
    }

    /// Billable cores this user holds across the federation, by the
    /// router's assignment book.
    pub fn user_cores(&self, user: &str) -> u32 {
        self.assignments
            .values()
            .filter(|a| a.user == user)
            .map(|a| a.vcpus)
            .sum()
    }

    /// Providers able to take (flavor, image), each with its native id
    /// for the image, cheapest effective rate first; price ties break on
    /// registration order.
    fn candidates(&self, flavor: &str, image: &str) -> Vec<(String, u64)> {
        let mut ranked: Vec<(f64, usize, (String, u64))> = Vec::new();
        for (idx, name) in self.registry.names().into_iter().enumerate() {
            let Some(catalog) = self.registry.catalog(&name) else {
                continue;
            };
            let Some(image_id) = self
                .registry
                .aliases(&name)
                .and_then(|a| a.native_image(image))
            else {
                continue;
            };
            let Some(rate) = catalog.effective_rate(flavor, self.registry.spot_price(&name)) else {
                continue;
            };
            ranked.push((rate, idx, (name, image_id)));
        }
        // total_cmp, not partial_cmp().expect(): a provider advertising
        // a NaN spot rate must not panic placement. NaN sorts last under
        // the IEEE total order, so such a provider becomes the candidate
        // of last resort; registration order still breaks price ties.
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        ranked
            .into_iter()
            .map(|(_, _, candidate)| candidate)
            .collect()
    }

    fn suspect(&mut self, provider: &str, now: SimTime) {
        self.suspects
            .insert(provider.to_string(), now + SUSPECT_COOLDOWN);
    }

    fn record_orphan(&mut self, provider: &str, user: &str, token: &str, now: SimTime) {
        let k = (provider.to_string(), user.to_string(), token.to_string());
        if self.orphans.insert(k, now).is_none() {
            self.scorecard.orphans_recorded += 1;
        }
    }

    fn score_fidelity(&mut self, provider: &str, req: &CanonicalRequest) {
        if let Some(result) = self.registry.roundtrip_request(provider, req) {
            self.scorecard.fidelity_checks += 1;
            if result.as_ref().ok() != Some(req) {
                self.scorecard.fidelity_failures += 1;
            }
        }
    }

    /// Launch `token` for `user`: try capable providers cheapest-first,
    /// failing over on outage/timeout/refusal.
    pub fn launch(
        &mut self,
        user: &str,
        token: &str,
        flavor: &str,
        image: &str,
        now: SimTime,
    ) -> Result<Assignment, ProviderError> {
        self.scorecard.launches_requested += 1;
        if let Some(existing) = self.assignments.get(&key(user, token)) {
            return Ok(existing.clone());
        }
        let candidates = self.candidates(flavor, image);
        if candidates.is_empty() {
            self.scorecard.launches_failed += 1;
            return Err(ProviderError::Unsupported(format!(
                "no provider can take flavor {flavor:?} image {image:?}"
            )));
        }
        // Prefer non-suspects; fall back to suspects rather than failing
        // outright when everyone is under suspicion.
        let (clear, suspect): (Vec<_>, Vec<_>) = candidates
            .into_iter()
            .partition(|(p, _)| !self.is_suspect(p, now));

        let mut elapsed = SimDuration::ZERO;
        let mut attempts = 0u64;
        let mut last_err = ProviderError::Unsupported("no attempt made".into());
        for (provider, image_id) in clear.into_iter().chain(suspect) {
            let req = CanonicalRequest::LaunchInstance {
                name: token.to_string(),
                flavor: flavor.to_string(),
                image: image_id,
            };
            self.score_fidelity(&provider, &req);
            attempts += 1;
            let result = self.registry.call(&provider, user, &req, now);
            elapsed += self.registry.last_latency();
            match result {
                Ok(CanonicalResponse::Launched(rec)) => {
                    // Book the cores actually running: a client-token hit
                    // returns an instance booted earlier, perhaps at
                    // another flavor. Dialects whose reply omits vCPUs
                    // fall back to ground truth, then to the catalog.
                    let vcpus = rec
                        .vcpus
                        .or_else(|| {
                            self.registry
                                .billable_instance(&provider, user, rec.id)
                                .map(|i| i.flavor.vcpus)
                        })
                        .or_else(|| {
                            self.registry
                                .catalog(&provider)
                                .and_then(|c| c.vcpus(flavor))
                        });
                    let assignment = Assignment {
                        provider: provider.clone(),
                        instance: rec.id,
                        user: user.to_string(),
                        token: token.to_string(),
                        flavor: flavor.to_string(),
                        image: image.to_string(),
                        vcpus: vcpus.unwrap_or(0),
                    };
                    self.assignments
                        .insert(key(user, token), assignment.clone());
                    self.scorecard.launches_placed += 1;
                    if attempts > 1 {
                        self.scorecard.reroutes += attempts - 1;
                        self.scorecard
                            .failover_latency_ms
                            .record(elapsed.as_nanos() as f64 / 1.0e6);
                    }
                    return Ok(assignment);
                }
                Ok(other) => {
                    last_err = ProviderError::Translation(format!(
                        "launch decoded to unexpected response on {provider}: {other:?}"
                    ));
                }
                Err(e @ ProviderError::Timeout { .. }) => {
                    // The backend may have booted it: book the orphan so
                    // reconcile can hunt it down, then reroute.
                    self.suspect(&provider, now);
                    self.record_orphan(&provider, user, token, now);
                    last_err = e;
                }
                Err(e @ ProviderError::Outage { .. }) => {
                    self.suspect(&provider, now);
                    last_err = e;
                }
                Err(e) => {
                    // Deterministic refusal (capacity, spot price above
                    // bid): the provider is healthy, just unwilling.
                    last_err = e;
                }
            }
        }
        self.scorecard.launches_failed += 1;
        Err(last_err)
    }

    /// Terminate a token wherever the router believes it runs. Failures
    /// on the wire degrade to orphan bookkeeping — the assignment is
    /// dropped either way, so billing stops immediately.
    pub fn terminate(
        &mut self,
        user: &str,
        token: &str,
        now: SimTime,
    ) -> Result<(), ProviderError> {
        let Some(assignment) = self.assignments.remove(&key(user, token)) else {
            return Err(ProviderError::Unsupported(format!(
                "token {token:?} is not assigned"
            )));
        };
        self.scorecard.terminates += 1;
        let req = CanonicalRequest::TerminateInstance {
            id: assignment.instance,
        };
        self.score_fidelity(&assignment.provider, &req);
        match self.registry.call(&assignment.provider, user, &req, now) {
            Ok(_) => Ok(()),
            Err(ProviderError::Timeout { .. }) | Err(ProviderError::Outage { .. }) => {
                self.suspect(&assignment.provider, now);
                self.record_orphan(&assignment.provider, user, token, now);
                Ok(())
            }
            // A clean injected error: the backend never saw the kill, so
            // the instance is definitely still running. Book it for
            // reconcile (the fault window blocks an immediate retry).
            Err(ProviderError::Api { .. }) => {
                self.record_orphan(&assignment.provider, user, token, now);
                Ok(())
            }
            // A deterministic backend error on terminate means the
            // instance is already gone; nothing left to clean.
            Err(ProviderError::Backend(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Per-minute housekeeping: advance providers, relaunch assignments
    /// whose instances vanished (spot preemption, chaos kills), accrue
    /// usage/cost for what is actually running, and export cost gauges.
    pub fn poll_minute(&mut self, now: SimTime) {
        self.registry.tick_all(now);

        // Detect assignments whose instance left ground truth.
        let mut vanished: Vec<Assignment> = Vec::new();
        for a in self.assignments.values() {
            let live = self
                .registry
                .billable_instance(&a.provider, &a.user, a.instance)
                .is_some();
            if !live {
                vanished.push(a.clone());
            }
        }
        for a in vanished {
            self.assignments.remove(&key(&a.user, &a.token));
            // Relaunch elsewhere; a spot market still above its bid
            // simply refuses and the next candidate takes it.
            if self
                .launch(&a.user, &a.token, &a.flavor, &a.image, now)
                .is_ok()
            {
                self.scorecard.preemption_relaunches += 1;
            }
        }

        // Accrue one minute of usage per assignment, from the books —
        // one assignment per token means no token double-bills.
        let accruals: Vec<(String, u32, f64)> = self
            .assignments
            .values()
            .filter_map(|a| {
                let rate = self
                    .registry
                    .catalog(&a.provider)?
                    .effective_rate(&a.flavor, self.registry.spot_price(&a.provider))?;
                Some((a.provider.clone(), a.vcpus, rate))
            })
            .collect();
        for (provider, cores, rate) in accruals {
            self.registry
                .ledger_mut()
                .accrue_compute(&provider, cores, rate);
        }

        // Cost flows out through telemetry gauges (billing's feed).
        let mut fleet_usd = 0.0;
        for name in self.registry.names() {
            let usage = self.registry.ledger().provider(&name);
            fleet_usd += usage.total_usd();
            let gauge = self
                .registry
                .tele
                .gauge(&format!("providers.{name}.cost_usd"));
            self.registry.tele.set_gauge(gauge, usage.total_usd());
        }
        let fleet = self.registry.tele.gauge("providers.fleet.cost_usd");
        self.registry.tele.set_gauge(fleet, fleet_usd);
    }

    /// Hunt down orphans on healed providers and terminate anything the
    /// books say should not exist. Detection reads the provider's ground
    /// truth — the same omniscient feed the audit oracle and the billing
    /// verifier use, and the only view that works across every dialect
    /// (EC2-style listings carry no client tokens, and an eventually
    /// consistent read path would hide a fresh stray for its whole lag
    /// window) — while the cleanup terminate still rides the wire.
    /// Expired suspicions are cleared here too.
    pub fn reconcile(&mut self, now: SimTime) {
        self.suspects.retain(|_, until| *until > now);

        let due: Vec<(String, String, String)> = self
            .orphans
            .keys()
            .filter(|(provider, _, _)| {
                // Still faulted: don't waste the call.
                self.registry.health(provider).is_some_and(|h| h.is_clear())
            })
            .cloned()
            .collect();

        for (provider, user, token) in due {
            let stray = self
                .registry
                .ground_truth(&provider)
                .into_iter()
                .find(|(owner, rec)| owner == &user && rec.name == token);
            match stray {
                Some((_, rec)) => {
                    let assigned_elsewhere = self
                        .assignments
                        .get(&key(&user, &token))
                        .is_some_and(|a| a.provider != provider);
                    let kill = CanonicalRequest::TerminateInstance { id: rec.id };
                    match self.registry.call(&provider, &user, &kill, now) {
                        // Ok, or a deterministic "not found": it is gone.
                        Ok(_) | Err(ProviderError::Backend(_)) => {
                            self.orphans
                                .remove(&(provider.clone(), user.clone(), token.clone()));
                            self.scorecard.orphans_cleaned += 1;
                            if assigned_elsewhere {
                                self.scorecard.double_launches_prevented += 1;
                            }
                        }
                        // Flaky again: keep the orphan booked.
                        Err(_) => self.suspect(&provider, now),
                    }
                }
                None => {
                    // Nothing running under that token: the timed-out
                    // call never executed (or already died). Clean book.
                    self.orphans
                        .remove(&(provider.clone(), user.clone(), token.clone()));
                    self.scorecard.orphans_cleaned += 1;
                }
            }
        }
    }

    /// Audit hook: every ground-truth-live instance must be explained by
    /// an assignment or a booked orphan. Returns the unexplained ones as
    /// (provider, user, token).
    pub fn unaccounted(&self) -> Vec<(String, String, String)> {
        let mut bad = Vec::new();
        for provider in self.registry.names() {
            for (user, rec) in self.registry.ground_truth(&provider) {
                let assigned = self
                    .assignments
                    .get(&key(&user, &rec.name))
                    .is_some_and(|a| a.provider == provider && a.instance == rec.id);
                let orphaned =
                    self.orphans
                        .contains_key(&(provider.clone(), user.clone(), rec.name.clone()));
                if !assigned && !orphaned {
                    bad.push((provider.clone(), user, rec.name));
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::AliasTables;
    use crate::pricing::{osdc_default_catalogs, FlavorPrice, PricingCatalog};
    use crate::provider::Provider;
    use osdc_compute::cloud::CloudController;
    use osdc_telemetry::Telemetry;
    use proptest::prelude::*;

    const SEC: u64 = 1_000_000_000;

    fn aliases() -> AliasTables {
        let mut t = AliasTables::default();
        for (u, n) in [
            ("small", "m1.small"),
            ("medium", "m1.medium"),
            ("large", "m1.large"),
            ("xlarge", "m1.xlarge"),
        ] {
            t.flavors.insert(u.into(), n.into());
        }
        t.images.insert("ubuntu-base".into(), 1);
        t
    }

    fn classic_router() -> FailoverRouter {
        let mut reg = ProviderRegistry::new(Telemetry::new(), 0xf41);
        let cats = osdc_default_catalogs();
        reg.register(
            Provider::openstack("adler", CloudController::with_racks("adler", 1), aliases()),
            cats[0].clone(),
        );
        reg.register(
            Provider::eucalyptus(
                "sullivan",
                CloudController::with_racks("sullivan", 1),
                aliases(),
            ),
            cats[1].clone(),
        );
        FailoverRouter::new(reg)
    }

    #[test]
    fn launch_picks_the_cheapest_capable_provider() {
        let mut r = classic_router();
        let a = r
            .launch("alice", "vm1", "small", "ubuntu-base", SimTime::ZERO)
            .expect("places");
        // sullivan (0.075) undercuts adler (0.08).
        assert_eq!(a.provider, "sullivan");
        assert_eq!(a.vcpus, 1);
        assert_eq!(r.user_cores("alice"), 1);
        // Idempotent re-launch returns the same assignment.
        let b = r
            .launch("alice", "vm1", "small", "ubuntu-base", SimTime(SEC))
            .expect("idempotent");
        assert_eq!(a, b);
        assert_eq!(r.scorecard.launches_placed, 1);
    }

    #[test]
    fn outage_reroutes_to_the_next_provider() {
        let mut r = classic_router();
        r.registry.set_health("sullivan", |h| h.outage = true);
        let a = r
            .launch("alice", "vm1", "small", "ubuntu-base", SimTime::ZERO)
            .expect("fails over");
        assert_eq!(a.provider, "adler");
        assert_eq!(r.scorecard.reroutes, 1);
        assert_eq!(r.scorecard.failover_latency_ms.count(), 1);
        assert!(r.is_suspect("sullivan", SimTime(SEC)));
        // While suspect, new launches go straight to adler even after
        // the outage clears.
        r.registry.set_health("sullivan", |h| h.outage = false);
        let b = r
            .launch("alice", "vm2", "small", "ubuntu-base", SimTime(2 * SEC))
            .expect("places");
        assert_eq!(b.provider, "adler");
        assert_eq!(r.scorecard.reroutes, 1, "no second reroute counted");
    }

    #[test]
    fn lost_launch_becomes_orphan_and_reconcile_cleans_it() {
        let mut r = classic_router();
        r.registry.set_health("sullivan", |h| {
            h.timeout_prob = 1.0;
            h.lost_response_prob = 1.0;
        });
        let a = r
            .launch("alice", "vm1", "small", "ubuntu-base", SimTime::ZERO)
            .expect("rerouted to adler");
        assert_eq!(a.provider, "adler");
        assert_eq!(r.scorecard.orphans_recorded, 1);
        // The lost call actually booted on sullivan: ground truth shows
        // it, and the books explain it as an orphan.
        assert_eq!(r.registry.ground_truth("sullivan").len(), 1);
        assert!(r.unaccounted().is_empty(), "orphan is booked");
        // Heal and reconcile: the stray instance is terminated.
        r.registry.set_health("sullivan", |h| h.timeout_prob = 0.0);
        r.reconcile(SimTime(200 * SEC));
        assert_eq!(r.scorecard.orphans_cleaned, 1);
        assert_eq!(r.scorecard.double_launches_prevented, 1);
        assert!(r.registry.ground_truth("sullivan").is_empty());
        assert!(r.unaccounted().is_empty());
        // The real assignment on adler is untouched.
        assert_eq!(r.user_cores("alice"), 1);
    }

    #[test]
    fn accrual_bills_each_token_once() {
        let mut r = classic_router();
        r.launch("alice", "vm1", "large", "ubuntu-base", SimTime::ZERO)
            .expect("places");
        r.poll_minute(SimTime(60 * SEC));
        let ledger = r.registry.ledger();
        // 4 cores × 0.07 $/core-hour / 60 = one minute on sullivan.
        assert!((ledger.provider("sullivan").compute_usd - 4.0 * 0.07 / 60.0).abs() < 1e-12);
        assert_eq!(ledger.provider("adler").compute_usd, 0.0);
    }

    #[test]
    fn terminate_through_an_error_window_books_an_orphan() {
        let mut r = classic_router();
        r.launch("alice", "vm1", "small", "ubuntu-base", SimTime::ZERO)
            .expect("places");
        // A clean injected error: the kill never reached the backend.
        r.registry.set_health("sullivan", |h| h.error_prob = 1.0);
        r.terminate("alice", "vm1", SimTime(SEC)).expect("booked");
        assert_eq!(r.user_cores("alice"), 0);
        assert_eq!(r.scorecard.orphans_recorded, 1);
        assert!(r.unaccounted().is_empty(), "still-running VM is booked");
        r.registry.set_health("sullivan", |h| h.error_prob = 0.0);
        r.reconcile(SimTime(300 * SEC));
        assert!(r.registry.ground_truth("sullivan").is_empty(), "cleaned");
    }

    #[test]
    fn terminate_through_an_outage_books_an_orphan() {
        let mut r = classic_router();
        r.launch("alice", "vm1", "small", "ubuntu-base", SimTime::ZERO)
            .expect("places");
        r.registry.set_health("sullivan", |h| h.outage = true);
        r.terminate("alice", "vm1", SimTime(SEC)).expect("booked");
        assert_eq!(r.user_cores("alice"), 0, "billing stops immediately");
        assert_eq!(r.scorecard.orphans_recorded, 1);
        assert!(r.unaccounted().is_empty(), "still-running VM is booked");
        r.registry.set_health("sullivan", |h| h.outage = false);
        r.reconcile(SimTime(300 * SEC));
        assert!(r.registry.ground_truth("sullivan").is_empty(), "cleaned");
    }

    /// A router over one fleet member; spotmart's standing bid is set
    /// high enough that the market accepts every ask.
    fn lone_member(name: &str) -> FailoverRouter {
        if name != "spotmart" {
            return FailoverRouter::new(crate::fleet::osdc_fleet(&[name], Telemetry::new(), 7));
        }
        let cat = osdc_default_catalogs()
            .into_iter()
            .find(|c| c.provider == name)
            .expect("spotmart is priced");
        let market = Provider::spot(
            name,
            CloudController::with_racks(name, 1),
            crate::fleet::osdc_aliases(),
            7,
            cat.spot_floor_usd,
            cat.spot_ceiling_usd,
            1.0,
        );
        let mut reg = ProviderRegistry::new(Telemetry::new(), 7);
        reg.register(market, cat);
        FailoverRouter::new(reg)
    }

    #[test]
    fn token_hit_books_the_running_instances_vcpus_on_every_provider() {
        for name in ["adler", "sullivan", "spotmart", "lagoon", "pagely"] {
            let mut r = lone_member(name);
            // The first launch times out, but the backend boots vm1 as
            // a 1-vCPU small.
            r.registry.set_health(name, |h| {
                h.timeout_prob = 1.0;
                h.lost_response_prob = 1.0;
            });
            r.launch("alice", "vm1", "small", "ubuntu-base", SimTime::ZERO)
                .expect_err("times out");
            r.registry.set_health(name, |h| h.timeout_prob = 0.0);
            // The retry asks for an xlarge and hits the live token.
            let a = r
                .launch("alice", "vm1", "xlarge", "ubuntu-base", SimTime(SEC))
                .expect("token hit");
            assert_eq!(a.vcpus, 1, "{name} books the running small");
            assert_eq!(r.registry.ground_truth(name).len(), 1, "{name}: no twin");
        }
    }

    /// The rate a provider of kind `k` (registered at index `i`)
    /// advertises for "small" — kinds 0..=2 are the pathological spot
    /// quotes a misbehaving market can emit.
    fn rate_of(k: u8, i: usize, mag: f64) -> f64 {
        match k {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            _ => mag * (i as f64 + 1.0),
        }
    }

    proptest! {
        // Candidate ranking must never panic on non-finite rates, and
        // the order must stay deterministic: IEEE total order on rate
        // (NaN last), registration order on ties.
        #[test]
        fn candidates_tolerate_non_finite_rates(
            kinds in proptest::collection::vec(0u8..5, 2usize..6),
            mag in 0.01f64..10.0,
        ) {
            let mut reg = ProviderRegistry::new(Telemetry::disabled(), 0x9a7);
            for (i, &k) in kinds.iter().enumerate() {
                let name = format!("p{i}");
                let mut flavors = std::collections::BTreeMap::new();
                flavors.insert(
                    "small".to_string(),
                    FlavorPrice {
                        vcpus: 1,
                        per_core_hour_usd: rate_of(k, i, mag),
                    },
                );
                let cat = PricingCatalog {
                    provider: name.clone(),
                    currency: "USD".to_string(),
                    per_call_usd: 0.0001,
                    flavors,
                    spot_floor_usd: 0.0,
                    spot_ceiling_usd: 0.0,
                };
                reg.register(
                    Provider::openstack(&name, CloudController::with_racks(&name, 1), aliases()),
                    cat,
                );
            }
            let r = FailoverRouter::new(reg);
            let order = r.candidates("small", "ubuntu-base");
            prop_assert_eq!(order.len(), kinds.len(), "every provider ranked");
            prop_assert_eq!(&order, &r.candidates("small", "ubuntu-base"));
            let rates: Vec<f64> = order
                .iter()
                .map(|(n, _)| {
                    let i: usize = n[1..].parse().expect("p<i> name");
                    rate_of(kinds[i], i, mag)
                })
                .collect();
            for w in rates.windows(2) {
                prop_assert!(
                    w[0].total_cmp(&w[1]) != std::cmp::Ordering::Greater,
                    "rates out of total order: {} then {}", w[0], w[1]
                );
            }
        }
    }
}
