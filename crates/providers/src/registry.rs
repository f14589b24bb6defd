//! The provider registry: providers, pricing, health gates, metering.
//!
//! Every canonical call enters through [`ProviderRegistry::call`], which
//! meters it once (the per-call fee, the `providers.<name>.*` telemetry
//! counters and latency histogram) and rolls the chaos dice for the
//! target's [`ApiHealth`] before the provider sees it. Injected faults
//! reproduce the ugly parts of real federation outages: an *outage*
//! fails fast, a *timeout* may or may not have executed the request (the
//! lost-response case that breeds orphans), and an *error* is a clean
//! failure.

use std::collections::BTreeMap;

use osdc_compute::instance::Instance;
use osdc_sim::{SimDuration, SimRng, SimTime};
use osdc_telemetry::Telemetry;

use crate::canonical::{AliasTables, CanonicalRequest, CanonicalResponse, ProviderError};
use crate::pricing::PricingCatalog;
use crate::provider::Provider;

/// Injected API-plane health for one provider (driven by osdc-chaos).
#[derive(Clone, Debug, PartialEq)]
pub struct ApiHealth {
    /// Endpoint down: every call fails fast with [`ProviderError::Outage`].
    pub outage: bool,
    /// Probability a call hangs to the client timeout.
    pub timeout_prob: f64,
    /// Given a timeout, probability the backend executed the request
    /// anyway (the response was lost, not the work).
    pub lost_response_prob: f64,
    /// Probability of a clean injected API error.
    pub error_prob: f64,
    /// How long a timed-out call holds the caller.
    pub timeout: SimDuration,
}

impl Default for ApiHealth {
    fn default() -> Self {
        ApiHealth {
            outage: false,
            timeout_prob: 0.0,
            lost_response_prob: 0.5,
            error_prob: 0.0,
            timeout: SimDuration::from_secs(30),
        }
    }
}

impl ApiHealth {
    /// No fault injection active.
    pub fn is_clear(&self) -> bool {
        !self.outage && self.timeout_prob == 0.0 && self.error_prob == 0.0
    }
}

/// Metered dollars for one provider. Its call, error, timeout and
/// lost-response counts are the `providers.<name>.*` telemetry counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProviderUsage {
    pub compute_usd: f64,
    pub api_usd: f64,
}

impl ProviderUsage {
    pub fn total_usd(&self) -> f64 {
        self.compute_usd + self.api_usd
    }
}

/// Cost accounting across the federation, per provider: the feed behind
/// the `providers.*.cost_usd` gauges.
#[derive(Clone, Debug, Default)]
pub struct UsageLedger {
    per_provider: BTreeMap<String, ProviderUsage>,
}

impl UsageLedger {
    pub fn provider(&self, name: &str) -> ProviderUsage {
        self.per_provider.get(name).cloned().unwrap_or_default()
    }

    fn provider_mut(&mut self, name: &str) -> &mut ProviderUsage {
        self.per_provider.entry(name.to_string()).or_default()
    }

    /// Charge one minute of `cores` on `provider` at `rate` $/core-hour.
    pub fn accrue_compute(&mut self, provider: &str, cores: u32, rate: f64) {
        self.provider_mut(provider).compute_usd += cores as f64 * rate / 60.0;
    }

    pub fn total_usd(&self) -> f64 {
        self.per_provider.values().map(|p| p.total_usd()).sum()
    }
}

struct Entry {
    provider: Provider,
    catalog: PricingCatalog,
    health: ApiHealth,
}

/// The pluggable provider runtime's front door.
pub struct ProviderRegistry {
    entries: Vec<Entry>,
    pub tele: Telemetry,
    rng: SimRng,
    ledger: UsageLedger,
    last_latency: SimDuration,
}

impl ProviderRegistry {
    pub fn new(tele: Telemetry, seed: u64) -> Self {
        ProviderRegistry {
            entries: Vec::new(),
            tele,
            rng: SimRng::new(seed),
            ledger: UsageLedger::default(),
            last_latency: SimDuration::ZERO,
        }
    }

    pub fn register(&mut self, provider: Provider, catalog: PricingCatalog) {
        debug_assert_eq!(
            provider.name(),
            catalog.provider,
            "catalog/provider mismatch"
        );
        self.entries.push(Entry {
            provider,
            catalog,
            health: ApiHealth::default(),
        });
    }

    fn entry(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.provider.name() == name)
    }

    fn entry_mut(&mut self, name: &str) -> Option<&mut Entry> {
        self.entries.iter_mut().find(|e| e.provider.name() == name)
    }

    /// Registered provider names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| e.provider.name().to_string())
            .collect()
    }

    pub fn catalog(&self, name: &str) -> Option<&PricingCatalog> {
        self.entry(name).map(|e| &e.catalog)
    }

    pub fn aliases(&self, name: &str) -> Option<&AliasTables> {
        self.entry(name).map(|e| e.provider.aliases())
    }

    pub fn health(&self, name: &str) -> Option<&ApiHealth> {
        self.entry(name).map(|e| &e.health)
    }

    /// Mutate one provider's injected health (the chaos hook).
    pub fn set_health(&mut self, name: &str, f: impl FnOnce(&mut ApiHealth)) -> bool {
        match self.entry_mut(name) {
            Some(e) => {
                f(&mut e.health);
                true
            }
            None => false,
        }
    }

    pub fn spot_price(&self, name: &str) -> Option<f64> {
        self.entry(name).and_then(|e| e.provider.spot_price())
    }

    /// Run one provider's encode→decode fidelity probe.
    pub fn roundtrip_request(
        &self,
        name: &str,
        req: &CanonicalRequest,
    ) -> Option<Result<CanonicalRequest, ProviderError>> {
        self.entry(name).map(|e| e.provider.roundtrip_request(req))
    }

    /// Simulated wall-clock cost of the most recent `call`.
    pub fn last_latency(&self) -> SimDuration {
        self.last_latency
    }

    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    pub fn ledger_mut(&mut self) -> &mut UsageLedger {
        &mut self.ledger
    }

    /// Omniscient backend view of one provider, for audits and accrual.
    pub fn ground_truth(&self, name: &str) -> Vec<(String, crate::canonical::InstanceRecord)> {
        self.entry(name)
            .map(|e| e.provider.ground_truth())
            .unwrap_or_default()
    }

    /// One provider's [`Provider::billable_instance`]; `None` for an
    /// unknown provider.
    pub fn billable_instance(&self, name: &str, user: &str, id: u64) -> Option<&Instance> {
        self.entry(name)?.provider.billable_instance(user, id)
    }

    /// Advance provider-internal processes (spot walks, preemptions).
    pub fn tick_all(&mut self, now: SimTime) {
        for e in &mut self.entries {
            e.provider.tick(now);
        }
    }

    /// Meter, gate, translate, execute one canonical call.
    pub fn call(
        &mut self,
        name: &str,
        user: &str,
        req: &CanonicalRequest,
        now: SimTime,
    ) -> Result<CanonicalResponse, ProviderError> {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.provider.name() == name)
            .ok_or_else(|| ProviderError::UnknownProvider(name.to_string()))?;
        let pname = entry.provider.name().to_string();
        let tele = &self.tele;
        let count = |what: &str| tele.incr(tele.counter(&format!("providers.{pname}.{what}")));

        count("calls");
        self.ledger.provider_mut(&pname).api_usd += entry.catalog.per_call_usd;

        // Chaos gate, in severity order: outage, timeout, clean error.
        if entry.health.outage {
            self.last_latency = SimDuration::ZERO;
            count("errors");
            return Err(ProviderError::Outage { provider: pname });
        }
        if entry.health.timeout_prob > 0.0 && self.rng.chance(entry.health.timeout_prob) {
            if self.rng.chance(entry.health.lost_response_prob) {
                // The backend did the work; only the reply is lost.
                let _ = entry.provider.call(user, req, now);
                count("lost_responses");
            }
            self.last_latency = entry.health.timeout;
            count("timeouts");
            return Err(ProviderError::Timeout { provider: pname });
        }
        if entry.health.error_prob > 0.0 && self.rng.chance(entry.health.error_prob) {
            self.last_latency = entry.provider.api_latency();
            count("errors");
            return Err(ProviderError::Api { provider: pname });
        }

        let result = entry.provider.call(user, req, now);
        self.last_latency = entry.provider.latency(&result);
        let hist = tele.histogram(&format!("providers.{pname}.latency_ms"));
        tele.observe(hist, self.last_latency.as_nanos() as f64 / 1.0e6);
        if result.is_err() {
            count("errors");
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::CanonicalStatus;
    use osdc_compute::cloud::CloudController;

    fn aliases() -> AliasTables {
        let mut t = AliasTables::default();
        t.flavors.insert("small".into(), "m1.small".into());
        t.images.insert("ubuntu-base".into(), 1);
        t
    }

    fn registry() -> ProviderRegistry {
        let mut r = ProviderRegistry::new(Telemetry::new(), 0x9e67);
        let cats = crate::pricing::osdc_default_catalogs();
        r.register(
            Provider::openstack("adler", CloudController::with_racks("adler", 1), aliases()),
            cats[0].clone(),
        );
        r.register(
            Provider::eucalyptus(
                "sullivan",
                CloudController::with_racks("sullivan", 1),
                aliases(),
            ),
            cats[1].clone(),
        );
        r
    }

    fn launch(name: &str) -> CanonicalRequest {
        CanonicalRequest::LaunchInstance {
            name: name.into(),
            flavor: "small".into(),
            image: 1,
        }
    }

    #[test]
    fn call_meters_and_executes() {
        let mut r = registry();
        let resp = r
            .call("adler", "alice", &launch("vm1"), SimTime::ZERO)
            .expect("launches");
        let CanonicalResponse::Launched(rec) = resp else {
            panic!()
        };
        assert_eq!(rec.status, CanonicalStatus::Active);
        assert!(r.ledger().provider("adler").api_usd > 0.0);
        assert_eq!(r.last_latency(), SimDuration::from_millis(35));
        assert_eq!(r.tele.counter_value("providers.adler.calls"), 1);
        assert!(matches!(
            r.call("nimbus9", "alice", &launch("x"), SimTime::ZERO),
            Err(ProviderError::UnknownProvider(_))
        ));
        // One launch and one one-page listing cost each fleet member its
        // dialect's round trip. Spotmart opens mid-band (0.0775) above
        // its 0.06 bid, so its ask is refused, and the refusal is charged
        // too.
        for (name, ms) in [
            ("adler", 35),
            ("sullivan", 55),
            ("spotmart", 25),
            ("lagoon", 45),
            ("pagely", 30),
        ] {
            let mut fleet = crate::fleet::osdc_fleet(&[name], Telemetry::disabled(), 7);
            let launched = fleet.call(name, "alice", &launch("vm1"), SimTime::ZERO);
            assert_eq!(launched.is_ok(), name != "spotmart", "{name}: {launched:?}");
            assert_eq!(fleet.last_latency(), SimDuration::from_millis(ms), "{name}");
            fleet
                .call(name, "alice", &CanonicalRequest::ListInstances, SimTime(1))
                .expect("lists");
            assert_eq!(fleet.last_latency(), SimDuration::from_millis(ms), "{name}");
        }
    }

    #[test]
    fn outage_gate_fails_fast() {
        let mut r = registry();
        assert!(r.set_health("sullivan", |h| h.outage = true));
        let err = r
            .call("sullivan", "alice", &launch("vm1"), SimTime::ZERO)
            .expect_err("down");
        assert!(matches!(err, ProviderError::Outage { .. }));
        assert!(r.ground_truth("sullivan").is_empty(), "nothing executed");
        assert_eq!(r.tele.counter_value("providers.sullivan.errors"), 1);
        r.set_health("sullivan", |h| h.outage = false);
        r.call("sullivan", "alice", &launch("vm1"), SimTime(1))
            .expect("healed");
    }

    #[test]
    fn timeout_can_lose_the_response_but_do_the_work() {
        let mut r = registry();
        r.set_health("adler", |h| {
            h.timeout_prob = 1.0;
            h.lost_response_prob = 1.0;
        });
        let err = r
            .call("adler", "alice", &launch("vm1"), SimTime::ZERO)
            .expect_err("times out");
        assert!(matches!(err, ProviderError::Timeout { .. }));
        assert_eq!(r.last_latency(), SimDuration::from_secs(30));
        // The launch actually happened: a future reconcile must find it.
        assert_eq!(r.ground_truth("adler").len(), 1, "orphan exists");
        for counter in ["timeouts", "lost_responses"] {
            assert_eq!(
                r.tele.counter_value(&format!("providers.adler.{counter}")),
                1
            );
        }
    }

    #[test]
    fn paged_listings_charge_per_page() {
        let mut r = ProviderRegistry::new(Telemetry::new(), 1);
        let mut cat = crate::pricing::osdc_default_catalogs()[4].clone();
        cat.provider = "pagely".into();
        r.register(
            Provider::paged(
                "pagely",
                CloudController::with_racks("pagely", 1),
                aliases(),
                2,
            ),
            cat,
        );
        for i in 0..5 {
            r.call("pagely", "alice", &launch(&format!("vm{i}")), SimTime(i))
                .expect("launches");
        }
        r.call(
            "pagely",
            "alice",
            &CanonicalRequest::ListInstances,
            SimTime(9),
        )
        .expect("lists");
        // 5 instances / page size 2 → 3 pages → 3 × 30ms.
        assert_eq!(r.last_latency(), SimDuration::from_millis(90));
    }
}
