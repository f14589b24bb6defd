//! The Tukey Console: the web application of §5.1, as a request router.
//!
//! "The Tukey Console is a web application based on Django and utilizes
//! the Tukey middleware to provide easy access to cloud services for
//! users... The core functionality of the web application is virtual
//! machine provisioning with usage and billing information. We have also
//! developed optional modules to provide web interfaces to other OSDC
//! capabilities," namely file-sharing management (§6.2) and public
//! dataset management (§6.3).
//!
//! One [`TukeyConsole`] owns the full middleware stack — auth proxy,
//! credential vault, translation proxy, billing, key service, catalog and
//! sharing service — and exposes one method per console page. Sessions
//! are token-based, as in the web app.

use std::collections::BTreeMap;

use osdc_sim::{SimDuration, SimTime};
use osdc_telemetry::Telemetry;
use serde_json::{json, Value};

use crate::ark::ArkService;
use crate::auth::{Assertion, AuthError, AuthProxy, Identity, OpenIdProvider};
use crate::billing::{BillingService, Rates};
use crate::catalog::DatasetCatalog;
use crate::credentials::{CloudCredential, CredentialVault};
use crate::sharing::FileSharingService;
use crate::translation::{ProxyError, TranslationProxy};

/// An authenticated console session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionToken(pub u64);

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsoleError {
    Auth(AuthError),
    InvalidSession,
    Proxy(ProxyError),
}

impl From<AuthError> for ConsoleError {
    fn from(e: AuthError) -> Self {
        ConsoleError::Auth(e)
    }
}
impl From<ProxyError> for ConsoleError {
    fn from(e: ProxyError) -> Self {
        ConsoleError::Proxy(e)
    }
}

/// The assembled OSDC user-facing stack (Figure 1).
pub struct TukeyConsole {
    pub auth: AuthProxy,
    pub vault: CredentialVault,
    pub proxy: TranslationProxy,
    pub billing: BillingService,
    pub arks: ArkService,
    pub catalog: DatasetCatalog,
    pub sharing: FileSharingService,
    sessions: BTreeMap<SessionToken, Identity>,
    next_token: u64,
    tele: Telemetry,
}

/// Modeled session-validation cost per console request (auth proxy hop).
const AUTH_LATENCY: SimDuration = SimDuration::from_millis(2);

impl TukeyConsole {
    pub fn new(auth: AuthProxy, proxy: TranslationProxy) -> Self {
        let arks = ArkService::new("31807", "b2");
        let catalog = DatasetCatalog::osdc_public_datasets(&arks);
        TukeyConsole {
            auth,
            vault: CredentialVault::new(),
            proxy,
            billing: BillingService::new(Rates::default()),
            arks,
            catalog,
            sharing: FileSharingService::new(),
            sessions: BTreeMap::new(),
            next_token: 1,
            tele: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle. Console pages then emit request spans
    /// (console → auth → translation → aggregation) on the sim clock, and
    /// the translation proxy records per-cloud latency histograms.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.proxy.set_telemetry(tele.clone());
        self.tele = tele;
    }

    /// Close out a traced console request: aggregation span, root span end,
    /// request counter and latency histogram.
    fn finish_request(
        &self,
        root: osdc_telemetry::SpanId,
        started: SimTime,
        after_translation: SimTime,
        items: usize,
    ) {
        if !self.tele.is_enabled() {
            return;
        }
        let agg = self.tele.span_start("aggregation", after_translation);
        let end = after_translation + SimDuration::from_millis(items as u64);
        self.tele.span_end(agg, end);
        self.tele.span_end(root, end);
        self.tele.incr(self.tele.counter("tukey.requests"));
        self.tele.observe(
            self.tele.histogram("tukey.request_latency_ms"),
            end.saturating_since(started).as_secs_f64() * 1e3,
        );
    }

    /// Trace the auth hop of a request; on failure also close the root span
    /// and bump the error counter.
    fn traced_identity(
        &self,
        root: osdc_telemetry::SpanId,
        token: SessionToken,
        now: SimTime,
    ) -> Result<Identity, ConsoleError> {
        let auth = self.tele.span_start("auth/session", now);
        self.tele.span_end(auth, now + AUTH_LATENCY);
        match self.identity(token) {
            Ok(id) => Ok(id),
            Err(e) => {
                self.tele.span_end(root, now + AUTH_LATENCY);
                self.tele.incr(self.tele.counter("tukey.errors"));
                Err(e)
            }
        }
    }

    /// Administrative enrollment: bind cloud credentials to an identity.
    pub fn enroll(&mut self, id: &Identity, credential: CloudCredential) {
        self.vault.enroll(id, credential);
    }

    fn open_session(&mut self, id: Identity) -> SessionToken {
        let token = SessionToken(self.next_token.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.next_token += 1;
        self.sessions.insert(token, id);
        token
    }

    /// Log in with a Shibboleth assertion.
    pub fn login_shibboleth(
        &mut self,
        assertion: &Assertion,
    ) -> Result<SessionToken, ConsoleError> {
        let id = self.auth.login_shibboleth(assertion)?;
        self.tele.incr(self.tele.counter("tukey.logins"));
        Ok(self.open_session(id))
    }

    /// Log in with an OpenID identifier.
    pub fn login_openid(
        &mut self,
        provider: &OpenIdProvider,
        identifier_url: &str,
        password: &str,
    ) -> Result<SessionToken, ConsoleError> {
        let id = self.auth.login_openid(provider, identifier_url, password)?;
        self.tele.incr(self.tele.counter("tukey.logins"));
        Ok(self.open_session(id))
    }

    pub fn logout(&mut self, token: SessionToken) {
        self.sessions.remove(&token);
    }

    fn identity(&self, token: SessionToken) -> Result<Identity, ConsoleError> {
        self.sessions
            .get(&token)
            .cloned()
            .ok_or(ConsoleError::InvalidSession)
    }

    pub fn whoami(&self, token: SessionToken) -> Result<String, ConsoleError> {
        Ok(self.identity(token)?.canonical)
    }

    // ---- the instances page ------------------------------------------------

    /// Aggregated VM listing across all enrolled clouds (the landing page).
    pub fn instances_page(
        &mut self,
        token: SessionToken,
        now: SimTime,
    ) -> Result<Value, ConsoleError> {
        let root = self.tele.span_start("console/instances_page", now);
        let id = self.traced_identity(root, token, now)?;
        let page = self
            .proxy
            .list_servers(&self.vault, &id, now + AUTH_LATENCY);
        let after = now + AUTH_LATENCY + self.proxy.last_latency;
        let items = page["servers"].as_array().map(Vec::len).unwrap_or(0);
        self.finish_request(root, now, after, items);
        Ok(page)
    }

    /// Launch a VM named `name` on `cloud` from unified flavor and image
    /// names, billing the identity's cores from `now`.
    ///
    /// `name` is the launch's client token, with the idempotency of
    /// `CanonicalRequest::LaunchInstance` that the cloud's provider
    /// enforces: while this identity's cloud user still has a live
    /// server by that name, the call returns that server instead of
    /// booting a twin, and the bill does not change. Once the server is
    /// terminated, the name boots a new one.
    pub fn launch_instance(
        &mut self,
        token: SessionToken,
        cloud: &str,
        name: &str,
        flavor: &str,
        image: &str,
        now: SimTime,
    ) -> Result<Value, ConsoleError> {
        let root = self.tele.span_start("console/launch_instance", now);
        let id = self.traced_identity(root, token, now)?;
        let result = self.proxy.boot_server(
            &self.vault,
            &id,
            cloud,
            name,
            flavor,
            image,
            now + AUTH_LATENCY,
        );
        match result {
            Ok(v) => {
                self.record_cores(&id, now);
                self.finish_request(root, now, now + AUTH_LATENCY + self.proxy.last_latency, 1);
                Ok(v)
            }
            Err(e) => {
                self.tele.span_end(root, now + AUTH_LATENCY);
                self.tele.incr(self.tele.counter("tukey.errors"));
                Err(e.into())
            }
        }
    }

    pub fn terminate_instance(
        &mut self,
        token: SessionToken,
        cloud: &str,
        server_id: u64,
        now: SimTime,
    ) -> Result<(), ConsoleError> {
        let root = self.tele.span_start("console/terminate_instance", now);
        let id = self.traced_identity(root, token, now)?;
        match self
            .proxy
            .delete_server(&self.vault, &id, cloud, server_id, now + AUTH_LATENCY)
        {
            Ok(()) => {
                self.record_cores(&id, now);
                self.finish_request(root, now, now + AUTH_LATENCY + self.proxy.last_latency, 1);
                Ok(())
            }
            Err(e) => {
                self.tele.span_end(root, now + AUTH_LATENCY);
                self.tele.incr(self.tele.counter("tukey.errors"));
                Err(e.into())
            }
        }
    }

    // ---- usage & billing page ------------------------------------------------

    /// Bill `id`'s cores across every cloud from the request instant
    /// `at` of a launch or terminate that changed them (§6.4's per-minute
    /// poll, delivered as the change itself).
    fn record_cores(&mut self, id: &Identity, at: SimTime) {
        let cores: u32 = self.proxy.usage(&self.vault, id).values().sum();
        let tenant = self.billing.user_id(&id.canonical);
        self.billing.record_cores_id(tenant, cores, at);
    }

    /// "users can check their current usage via the OSDC web interface."
    /// The cycle shown is the open cycle folded up to `now`.
    pub fn usage_page(&self, token: SessionToken, now: SimTime) -> Result<Value, ConsoleError> {
        let id = self.identity(token)?;
        let live = self.proxy.usage(&self.vault, &id);
        let cycle = self
            .billing
            .lookup_user(&id.canonical)
            .map(|tenant| self.billing.usage_at(tenant, now))
            .unwrap_or_default();
        Ok(json!({
            "user": id.canonical,
            "live_cores_by_cloud": live,
            "cycle": {
                "core_hours": cycle.core_minutes / 60.0,
                "tb_days": cycle.tb_days,
                "peak_cores": cycle.peak_cores,
            }
        }))
    }

    /// The storage feed: callers report per-identity stored bytes,
    /// effective `at`, whenever they change (volumes live outside the
    /// console). Reporting an unchanged size again is harmless.
    pub fn record_storage(&mut self, usage: &[(Identity, u64)], at: SimTime) {
        for (id, bytes) in usage {
            let tenant = self.billing.user_id(&id.canonical);
            self.billing.record_stored_id(tenant, *bytes, at);
        }
    }

    // ---- public data page ------------------------------------------------------

    pub fn datasets_page(&self, query: Option<&str>) -> Value {
        let records = match query {
            Some(q) => self.catalog.search(q),
            None => self.catalog.browse(),
        };
        json!({
            "datasets": records.iter().map(|r| json!({
                "ark": r.ark.to_uri(),
                "title": r.title,
                "discipline": r.discipline.label(),
                "size_tb": r.size_bytes as f64 / 1e12,
                "path": r.storage_path,
            })).collect::<Vec<_>>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::ShibbolethIdp;
    use crate::translation::osdc_proxy;

    fn console_with_alice() -> (TukeyConsole, ShibbolethIdp) {
        let mut idp = ShibbolethIdp::new("urn:uchicago", b"key");
        idp.register("alice@uchicago.edu", &[("displayName", "Alice")]);
        let mut auth = AuthProxy::new();
        auth.trust_idp("urn:uchicago", b"key");
        let mut console = TukeyConsole::new(auth, osdc_proxy(1));
        let id = Identity {
            canonical: "shib:alice@uchicago.edu".into(),
        };
        console.enroll(&id, CloudCredential::new("adler", "alice", "K", "S"));
        console.enroll(&id, CloudCredential::new("sullivan", "alice", "K", "S"));
        (console, idp)
    }

    #[test]
    fn full_session_flow() {
        let (mut console, idp) = console_with_alice();
        let assertion = idp.assert("alice@uchicago.edu").expect("assert");
        let token = console.login_shibboleth(&assertion).expect("login");
        assert_eq!(
            console.whoami(token).expect("session valid"),
            "shib:alice@uchicago.edu"
        );
        // Launch on both clouds through one console.
        let t = SimTime::ZERO;
        console
            .launch_instance(token, "adler", "vm1", "m1.large", "bionimbus-genomics", t)
            .expect("launch adler");
        console
            .launch_instance(token, "sullivan", "vm2", "m1.small", "ubuntu-base", t)
            .expect("launch sullivan");
        let page = console.instances_page(token, t).expect("page");
        assert_eq!(page["servers"].as_array().expect("array").len(), 2);
        // Logout invalidates.
        console.logout(token);
        assert_eq!(
            console.whoami(token).unwrap_err(),
            ConsoleError::InvalidSession
        );
    }

    #[test]
    fn invalid_session_rejected_everywhere() {
        let (mut console, _) = console_with_alice();
        let bogus = SessionToken(42);
        assert!(console.instances_page(bogus, SimTime::ZERO).is_err());
        assert!(console.usage_page(bogus, SimTime::ZERO).is_err());
        assert!(console
            .launch_instance(
                bogus,
                "adler",
                "x",
                "m1.small",
                "ubuntu-base",
                SimTime::ZERO
            )
            .is_err());
    }

    #[test]
    fn launch_bills_from_the_request_instant() {
        let (mut console, idp) = console_with_alice();
        let token = console
            .login_shibboleth(&idp.assert("alice@uchicago.edu").expect("assert"))
            .expect("login");
        console
            .launch_instance(
                token,
                "adler",
                "vm",
                "m1.xlarge",
                "ubuntu-base",
                SimTime::ZERO,
            )
            .expect("launch");
        let usage = console
            .usage_page(token, SimTime::ZERO + SimDuration::from_mins(60))
            .expect("usage");
        assert!((usage["cycle"]["core_hours"].as_f64().expect("f64") - 8.0).abs() < 1e-9);
        assert_eq!(usage["live_cores_by_cloud"]["adler"], 8);
    }

    #[test]
    fn relaunching_a_live_name_returns_the_same_server() {
        for cloud in ["adler", "sullivan"] {
            let (mut console, idp) = console_with_alice();
            let token = console
                .login_shibboleth(&idp.assert("alice@uchicago.edu").expect("assert"))
                .expect("login");
            let t = SimTime::ZERO;
            let hour = t + SimDuration::from_mins(60);
            let first = console
                .launch_instance(token, cloud, "vm", "m1.xlarge", "ubuntu-base", t)
                .expect("launch");
            let again = console
                .launch_instance(
                    token,
                    cloud,
                    "vm",
                    "m1.xlarge",
                    "ubuntu-base",
                    t + SimDuration::from_mins(10),
                )
                .expect("relaunch");
            assert_eq!(again["server"]["id"], first["server"]["id"], "{cloud}");
            // One 8-core server, billed once for the hour.
            let usage = console.usage_page(token, hour).expect("usage");
            assert_eq!(usage["live_cores_by_cloud"][cloud], 8, "{cloud}");
            let core_hours = usage["cycle"]["core_hours"].as_f64().expect("f64");
            assert!((core_hours - 8.0).abs() < 1e-9, "{cloud}: {core_hours}");
            // After a terminate the name boots a new server.
            let id = first["server"]["id"].as_u64().expect("id");
            console
                .terminate_instance(token, cloud, id, hour)
                .expect("terminate");
            let fresh = console
                .launch_instance(token, cloud, "vm", "m1.xlarge", "ubuntu-base", hour)
                .expect("launch again");
            assert_ne!(fresh["server"]["id"], first["server"]["id"], "{cloud}");
            let usage = console.usage_page(token, hour).expect("usage");
            assert_eq!(usage["live_cores_by_cloud"][cloud], 8, "{cloud}");
        }
    }

    #[test]
    fn terminate_stops_billing() {
        let (mut console, idp) = console_with_alice();
        let token = console
            .login_shibboleth(&idp.assert("alice@uchicago.edu").expect("assert"))
            .expect("login");
        let resp = console
            .launch_instance(
                token,
                "adler",
                "vm",
                "m1.small",
                "ubuntu-base",
                SimTime::ZERO,
            )
            .expect("launch");
        let id = resp["server"]["id"].as_u64().expect("id");
        console
            .terminate_instance(token, "adler", id, SimTime(60_000_000_000))
            .expect("terminate");
        // The minute at the terminate instant and later are not billed.
        let usage = console
            .usage_page(token, SimTime(600_000_000_000))
            .expect("usage");
        let core_hours = usage["cycle"]["core_hours"].as_f64().expect("f64");
        assert!((core_hours - 1.0 / 60.0).abs() < 1e-9, "{core_hours}");
    }

    #[test]
    fn datasets_page_browses_and_searches() {
        let (console, _) = console_with_alice();
        let all = console.datasets_page(None);
        assert!(all["datasets"].as_array().expect("array").len() >= 12);
        let hits = console.datasets_page(Some("genomes"));
        assert_eq!(hits["datasets"].as_array().expect("array").len(), 1);
        assert!(hits["datasets"][0]["ark"]
            .as_str()
            .expect("ark string")
            .starts_with("ark:/31807/"));
    }

    #[test]
    fn telemetry_traces_request_pipeline() {
        let (mut console, idp) = console_with_alice();
        let tele = Telemetry::new();
        console.set_telemetry(tele.clone());
        let token = console
            .login_shibboleth(&idp.assert("alice@uchicago.edu").expect("assert"))
            .expect("login");
        let t = SimTime::ZERO;
        console
            .launch_instance(token, "adler", "vm1", "m1.large", "bionimbus-genomics", t)
            .expect("launch");
        console
            .launch_instance(token, "sullivan", "vm2", "m1.small", "ubuntu-base", t)
            .expect("launch");
        console.instances_page(token, t).expect("page");
        assert_eq!(tele.counter_value("tukey.logins"), 1);
        assert_eq!(tele.counter_value("tukey.requests"), 3);
        assert_eq!(tele.counter_value("tukey.errors"), 0);
        // Per-cloud latency histograms: adler saw 2 calls (launch + list),
        // sullivan likewise.
        let snaps = tele.histograms_snapshot();
        for cloud in ["adler", "sullivan"] {
            let h = snaps
                .iter()
                .find(|h| h.name == format!("tukey.cloud.{cloud}.latency_ms"))
                .unwrap_or_else(|| panic!("latency histogram for {cloud}"));
            assert_eq!(h.count, 2, "{cloud}");
        }
        // The request pipeline is fully spanned.
        let jsonl = tele.export_jsonl();
        for name in [
            "console/launch_instance",
            "console/instances_page",
            "auth/session",
            "translation/adler",
            "translation/sullivan",
            "aggregation",
        ] {
            assert!(jsonl.contains(name), "missing span {name}");
        }
        // Errors land in the error counter and still close the root span.
        assert!(console.instances_page(SessionToken(9), t).is_err());
        assert_eq!(tele.counter_value("tukey.errors"), 1);
    }

    #[test]
    fn cloud_added_mid_run_records_lazily() {
        use crate::translation::CloudMapping;
        use osdc_compute::CloudController;

        let (mut console, idp) = console_with_alice();
        let tele = Telemetry::new();
        console.set_telemetry(tele.clone());
        let token = console
            .login_shibboleth(&idp.assert("alice@uchicago.edu").expect("assert"))
            .expect("login");
        let t = SimTime::ZERO;
        console.instances_page(token, t).expect("page");

        // A third cloud joins the federation after telemetry is live —
        // the console must keep serving and start recording it.
        let mapping = CloudMapping::from_json(
            r#"{"cloud": "root", "kind": "OpenStack",
                "image_aliases": {"ubuntu-base": 1}}"#,
        )
        .expect("parses");
        console
            .proxy
            .add_backend(mapping, CloudController::with_racks("root", 1))
            .expect("a new cloud name");
        let id = Identity {
            canonical: "shib:alice@uchicago.edu".into(),
        };
        console.enroll(&id, CloudCredential::new("root", "alice", "K", "S"));
        console
            .launch_instance(token, "root", "vm-r", "m1.small", "ubuntu-base", t)
            .expect("launch on the new cloud");
        console.instances_page(token, t).expect("page");

        let snaps = tele.histograms_snapshot();
        let h = snaps
            .iter()
            .find(|h| h.name == "tukey.cloud.root.latency_ms")
            .expect("lazily-registered histogram for the mid-run cloud");
        assert_eq!(h.count, 2, "launch + list both recorded");
    }

    #[test]
    fn storage_feed_reaches_invoices() {
        let (mut console, _) = console_with_alice();
        let id = Identity {
            canonical: "shib:alice@uchicago.edu".into(),
        };
        for d in 0..30 {
            console.record_storage(
                &[(id.clone(), 5_000_000_000_000)],
                SimTime::ZERO + SimDuration::from_days(d),
            );
        }
        let invoices = console
            .billing
            .close_month_at(SimTime::ZERO + SimDuration::from_days(30));
        assert_eq!(invoices.len(), 1);
        assert!((invoices[0].tb_days - 150.0).abs() < 1e-9);
    }
}
