//! API-translation proxies: one console dialect, many cloud stacks (§5.2).
//!
//! "The translation proxies take in requests based on the OpenStack API
//! and then issue commands to each cloud based on mappings outlined in
//! configuration files for each cloud. The result of each request is then
//! transformed according to the rules of the configuration file, tagged
//! with the cloud name and aggregated into a JSON response that matches
//! the format of the OpenStack API."
//!
//! Implemented exactly so: a [`CloudMapping`] is a (serde-loadable)
//! per-cloud configuration naming the stack dialect plus flavor/image
//! alias tables; [`TranslationProxy`] takes OpenStack-shaped requests,
//! speaks each backend's native dialect (JSON to the OpenStack stack,
//! `Action=...` query strings to the Eucalyptus stack — parsing its
//! XML-ish replies back), tags every result with `"cloud": <name>`, and
//! merges everything into one OpenStack-format JSON document.
//!
//! The dialect translation itself (canonical types, per-stack
//! `encode_*`/`decode_*` functions) lives in `osdc-providers`; this
//! module keeps Tukey's own concerns — credentials, fault gates, circuit
//! breakers, retries, the latency model, and the per-cloud aggregation —
//! and routes every request/response through the shared translators.
//! Same-seed `figure1_tukey` artifacts are byte-identical with the
//! pre-runtime proxy; the providers crate pins that as its compat gate.

use std::collections::BTreeMap;

use osdc_compute::{ApiError, CloudController, EucalyptusApi, OpenStackApi};
use osdc_providers::openstack::ResponseKind;
use osdc_providers::{
    eucalyptus as ec2q, openstack as nova, AliasTables, CanonicalRequest, CanonicalResponse,
    WireRequest, WireResponse,
};
use osdc_sim::{CircuitBreaker, RetryPolicy, SimDuration, SimRng, SimTime};
use osdc_telemetry::{CounterId, HistogramId, Telemetry};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use crate::auth::Identity;
use crate::credentials::CredentialVault;

/// Which software stack a cloud runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CloudStackKind {
    OpenStack,
    Eucalyptus,
}

/// Per-cloud mapping configuration — the "configuration files" of §5.2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CloudMapping {
    pub cloud: String,
    pub kind: CloudStackKind,
    /// Unified flavor name → native flavor name.
    #[serde(default)]
    pub flavor_aliases: BTreeMap<String, String>,
    /// Unified image name → native image id.
    #[serde(default)]
    pub image_aliases: BTreeMap<String, u64>,
}

impl CloudMapping {
    /// Load one mapping from its JSON configuration document.
    pub fn from_json(config: &str) -> Result<CloudMapping, String> {
        serde_json::from_str(config).map_err(|e| format!("bad cloud mapping config: {e}"))
    }

    /// The mapping's alias tables in the shared translator's form.
    pub fn alias_tables(&self) -> AliasTables {
        AliasTables {
            flavors: self.flavor_aliases.clone(),
            images: self.image_aliases.clone(),
        }
    }
}

/// Errors surfaced to the console.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProxyError {
    /// The identity has no credential for the target cloud.
    NotEnrolled {
        cloud: String,
    },
    UnknownCloud(String),
    UnknownImage(String),
    Backend(String),
    /// The backend hung past the client timeout (injected fault).
    Timeout {
        cloud: String,
    },
    /// A dialect translator rejected the wire traffic (malformed reply,
    /// unsupported operation). The old proxy dropped these on the floor
    /// (`if let Ok(xml) = ...`); now they surface here and are counted
    /// in telemetry (`tukey.fanout.errors` on the listing fan-out).
    Translation {
        cloud: String,
        detail: String,
    },
}

/// Per-cloud API fault injection (timeouts and 5xx-style errors), set by
/// the chaos layer. Probabilities are drawn from the proxy's seeded RNG,
/// so same-seed campaigns fail identically.
#[derive(Clone, Debug)]
pub struct InjectedApiFault {
    /// Probability a call returns a backend error.
    pub error_prob: f64,
    /// Probability a call hangs until the client timeout fires.
    pub timeout_prob: f64,
    /// Wall-clock (sim) cost of a timed-out call.
    pub timeout: SimDuration,
}

impl Default for InjectedApiFault {
    fn default() -> Self {
        InjectedApiFault {
            error_prob: 0.0,
            timeout_prob: 0.0,
            timeout: SimDuration::from_secs(30),
        }
    }
}

impl InjectedApiFault {
    pub fn is_clear(&self) -> bool {
        self.error_prob == 0.0 && self.timeout_prob == 0.0
    }
}

/// How a gated call failed before (or instead of) reaching the backend.
struct GateFailure {
    error: ProxyError,
    /// Sim-time cost of the failed call (a timeout burns its full window;
    /// a circuit-open rejection is free).
    latency: SimDuration,
    /// Whether the failure counts against the backend's circuit breaker.
    breaker_strike: bool,
}

impl From<ApiError> for ProxyError {
    fn from(e: ApiError) -> Self {
        ProxyError::Backend(format!("{e:?}"))
    }
}

/// The middleware's translation layer: owns the backend clouds.
pub struct TranslationProxy {
    backends: Vec<(CloudMapping, CloudController)>,
    tele: Telemetry,
    /// Per-backend latency histogram ids, parallel to `backends`,
    /// registered lazily on first use so a cloud added mid-run (or after
    /// `set_telemetry`) records like any other.
    latency_hists: Vec<Option<HistogramId>>,
    /// Injected API fault state, parallel to `backends`.
    faults: Vec<InjectedApiFault>,
    /// Optional circuit breaker per backend, parallel to `backends`.
    breakers: Vec<Option<CircuitBreaker>>,
    /// How targeted calls retry transient (injected/timeout) failures.
    retry: RetryPolicy,
    rng: SimRng,
    /// Modeled duration of the most recent proxied request, so callers
    /// (the console) can place their own spans on the sim clock.
    pub last_latency: SimDuration,
    /// Translation/backend failures swallowed by the listing fan-out in
    /// the old proxy, now collected per call for the console to surface.
    fanout_errors: Vec<(String, ProxyError)>,
    /// `tukey.fanout.errors` counter, registered lazily on first error so
    /// clean runs keep their telemetry exports unchanged.
    fanout_err_counter: Option<CounterId>,
}

/// Deterministic per-request backend latencies. There is no measured
/// latency model in `osdc-compute` (calls return instantly), so the proxy
/// charges each stack a fixed, era-plausible API cost plus a small
/// per-item translation cost — enough to make traces and per-cloud
/// histograms meaningful without adding nondeterminism.
fn backend_base_latency(kind: CloudStackKind) -> SimDuration {
    match kind {
        CloudStackKind::OpenStack => SimDuration::from_millis(35),
        CloudStackKind::Eucalyptus => SimDuration::from_millis(55),
    }
}

/// Per-result-item translation/tagging cost.
fn per_item_latency() -> SimDuration {
    SimDuration::from_millis(1)
}

/// Encode one canonical request onto this cloud's native wire via the
/// shared dialect translators.
fn encode_for(
    mapping: &CloudMapping,
    req: &CanonicalRequest,
    tables: &AliasTables,
) -> Result<WireRequest, ProxyError> {
    match mapping.kind {
        CloudStackKind::OpenStack => nova::encode_request(req, tables, Default::default()),
        CloudStackKind::Eucalyptus => ec2q::encode_request(req, tables, Default::default()),
    }
    .map_err(|e| ProxyError::Translation {
        cloud: mapping.cloud.clone(),
        detail: e.to_string(),
    })
}

/// Dispatch one wire request to the matching native backend API. The
/// wire family picks the server: REST goes to the OpenStack API, query
/// strings to the Eucalyptus API.
fn serve_wire(
    controller: &mut CloudController,
    user: &str,
    wire: &WireRequest,
    at: SimTime,
) -> Result<WireResponse, ProxyError> {
    match wire {
        WireRequest::Rest { method, path, body } => OpenStackApi::new(controller)
            .handle(user, method, path, body.as_ref(), at)
            .map(WireResponse::Json)
            .map_err(ProxyError::from),
        WireRequest::Query(q) => EucalyptusApi::new(controller)
            .handle(user, q, at)
            .map(WireResponse::Xml)
            .map_err(ProxyError::from),
    }
}

/// Decode one native wire reply back into canonical form.
fn decode_for(
    mapping: &CloudMapping,
    ctx: &ResponseKind,
    resp: &WireResponse,
) -> Result<CanonicalResponse, ProxyError> {
    match mapping.kind {
        CloudStackKind::OpenStack => nova::decode_response(ctx, resp),
        CloudStackKind::Eucalyptus => ec2q::decode_response(ctx, resp),
    }
    .map_err(|e| ProxyError::Translation {
        cloud: mapping.cloud.clone(),
        detail: e.to_string(),
    })
}

/// One backend's leg of the listing fan-out: encode `ListInstances` for
/// its dialect, serve it natively, decode the reply, and render each
/// record back into OpenStack-format JSON tagged with the cloud name.
fn dialect_list(
    mapping: &CloudMapping,
    controller: &mut CloudController,
    user: &str,
    now: SimTime,
) -> Result<Vec<Value>, ProxyError> {
    let tables = mapping.alias_tables();
    let wire = encode_for(mapping, &CanonicalRequest::ListInstances, &tables)?;
    let resp = serve_wire(controller, user, &wire, now)?;
    match decode_for(mapping, &ResponseKind::Instances, &resp)? {
        CanonicalResponse::Instances(recs) => Ok(recs
            .iter()
            .map(|r| {
                let mut item = nova::render_instance(r);
                item["cloud"] = json!(mapping.cloud);
                item
            })
            .collect()),
        other => Err(ProxyError::Translation {
            cloud: mapping.cloud.clone(),
            detail: format!("listing decoded to unexpected response: {other:?}"),
        }),
    }
}

impl TranslationProxy {
    pub fn new(backends: Vec<(CloudMapping, CloudController)>) -> Self {
        assert!(
            {
                let mut names: Vec<&str> = backends.iter().map(|(m, _)| m.cloud.as_str()).collect();
                names.sort_unstable();
                names.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate cloud names in proxy config"
        );
        let n = backends.len();
        TranslationProxy {
            backends,
            tele: Telemetry::disabled(),
            latency_hists: vec![None; n],
            faults: vec![InjectedApiFault::default(); n],
            breakers: vec![None; n],
            retry: RetryPolicy::None,
            rng: SimRng::new(0x70cb),
            last_latency: SimDuration::ZERO,
            fanout_errors: Vec::new(),
            fanout_err_counter: None,
        }
    }

    /// Attach a telemetry handle: spans per proxied request and (lazily)
    /// one latency histogram per backend cloud.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.latency_hists = vec![None; self.backends.len()];
        self.fanout_err_counter = None;
        self.tele = tele;
    }

    /// Drain the fan-out failures collected since the last call. The old
    /// proxy dropped these silently; the console (or a campaign driver)
    /// now decides how to present a partially-degraded landing page.
    pub fn take_fanout_errors(&mut self) -> Vec<(String, ProxyError)> {
        std::mem::take(&mut self.fanout_errors)
    }

    /// Record one swallowed-by-aggregation failure: kept for
    /// [`Self::take_fanout_errors`] and counted in telemetry.
    fn note_fanout_error(&mut self, cloud: &str, err: ProxyError) {
        if self.tele.is_enabled() {
            let c = match self.fanout_err_counter {
                Some(c) => c,
                None => {
                    let c = self.tele.counter("tukey.fanout.errors");
                    self.fanout_err_counter = Some(c);
                    c
                }
            };
            self.tele.incr(c);
        }
        self.fanout_errors.push((cloud.to_string(), err));
    }

    /// Register a cloud mid-run: the console starts aggregating it on the
    /// next request, and its latency histogram appears on first use.
    pub fn add_backend(&mut self, mapping: CloudMapping, controller: CloudController) {
        assert!(
            self.backends.iter().all(|(m, _)| m.cloud != mapping.cloud),
            "duplicate cloud names in proxy config"
        );
        self.backends.push((mapping, controller));
        self.latency_hists.push(None);
        self.faults.push(InjectedApiFault::default());
        self.breakers.push(None);
    }

    /// How targeted proxy calls (boot/delete/probe) respond to transient
    /// backend failures. Defaults to [`RetryPolicy::None`].
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Guard one backend with a circuit breaker.
    pub fn set_breaker(&mut self, cloud: &str, breaker: CircuitBreaker) -> Result<(), ProxyError> {
        let bi = self.backend_index(cloud)?;
        self.breakers[bi] = Some(breaker);
        Ok(())
    }

    /// Inject (or, with a default fault, clear) API failures on one cloud.
    pub fn inject_api_fault(
        &mut self,
        cloud: &str,
        fault: InjectedApiFault,
    ) -> Result<(), ProxyError> {
        let bi = self.backend_index(cloud)?;
        self.faults[bi] = fault;
        Ok(())
    }

    /// Reseed the fault-draw RNG (campaigns pin this for reproducibility).
    pub fn reseed_faults(&mut self, seed: u64) {
        self.rng = SimRng::new(seed);
    }

    /// The cloud's latency histogram, registered on first use (a backend
    /// added mid-run must not crash or go unrecorded).
    fn latency_hist(&mut self, backend_idx: usize) -> HistogramId {
        if let Some(h) = self.latency_hists[backend_idx] {
            return h;
        }
        let h = self.tele.histogram(&format!(
            "tukey.cloud.{}.latency_ms",
            self.backends[backend_idx].0.cloud
        ));
        self.latency_hists[backend_idx] = Some(h);
        h
    }

    /// Trace one backend call: a `translation/<cloud>` span from `at` for
    /// `latency`, recorded into that cloud's latency histogram.
    fn trace_backend_call(&mut self, backend_idx: usize, at: SimTime, latency: SimDuration) {
        if !self.tele.is_enabled() {
            return;
        }
        let span = self.tele.span_start(
            &format!("translation/{}", self.backends[backend_idx].0.cloud),
            at,
        );
        self.tele.span_end(span, at + latency);
        let h = self.latency_hist(backend_idx);
        self.tele.observe(h, latency.as_secs_f64() * 1e3);
    }

    /// Admission control for one backend call at `at`: the circuit
    /// breaker may reject it, and injected faults may time it out or
    /// error it before it reaches the backend.
    fn fault_gate(&mut self, backend_idx: usize, at: SimTime) -> Result<(), GateFailure> {
        let cloud = &self.backends[backend_idx].0.cloud;
        if let Some(b) = &mut self.breakers[backend_idx] {
            if !b.allow(at) {
                return Err(GateFailure {
                    error: ProxyError::Backend(format!("circuit open: {cloud}")),
                    latency: SimDuration::ZERO,
                    breaker_strike: false,
                });
            }
        }
        let fault = &self.faults[backend_idx];
        if fault.timeout_prob > 0.0 && self.rng.chance(fault.timeout_prob) {
            return Err(GateFailure {
                error: ProxyError::Timeout {
                    cloud: cloud.clone(),
                },
                latency: self.faults[backend_idx].timeout,
                breaker_strike: true,
            });
        }
        if fault.error_prob > 0.0 && self.rng.chance(fault.error_prob) {
            let kind = self.backends[backend_idx].0.kind;
            return Err(GateFailure {
                error: ProxyError::Backend(format!("injected API error: {cloud}")),
                latency: backend_base_latency(kind),
                breaker_strike: true,
            });
        }
        Ok(())
    }

    /// Run one backend operation behind the fault gate, the circuit
    /// breaker and the retry policy. `op` is the real (infallible-latency)
    /// backend dispatch; `latency` is charged per successful attempt.
    /// Transient failures (injected errors/timeouts, open circuits) are
    /// retried per the policy with the backoff added to the modeled
    /// latency; mapping/API errors surface immediately.
    fn guarded_call<T>(
        &mut self,
        backend_idx: usize,
        now: SimTime,
        latency: SimDuration,
        mut op: impl FnMut(&mut (CloudMapping, CloudController), SimTime) -> Result<T, ProxyError>,
    ) -> Result<T, ProxyError> {
        let mut cursor = now;
        let mut failures = 0u32;
        let outcome = loop {
            match self.fault_gate(backend_idx, cursor) {
                Ok(()) => {
                    let result = op(&mut self.backends[backend_idx], cursor);
                    self.trace_backend_call(backend_idx, cursor, latency);
                    cursor += latency;
                    match result {
                        Ok(v) => {
                            if let Some(b) = &mut self.breakers[backend_idx] {
                                b.on_success();
                            }
                            break Ok(v);
                        }
                        // Real API errors are deterministic (bad flavor,
                        // no capacity): retrying cannot help.
                        Err(e) => break Err(e),
                    }
                }
                Err(gate) => {
                    if !gate.latency.is_zero() {
                        self.trace_backend_call(backend_idx, cursor, gate.latency);
                    }
                    cursor += gate.latency;
                    if gate.breaker_strike {
                        if let Some(b) = &mut self.breakers[backend_idx] {
                            b.on_failure(cursor);
                        }
                    }
                    match self.retry.delay(failures, &mut self.rng) {
                        Some(delay) => {
                            failures += 1;
                            cursor += delay;
                        }
                        None => break Err(gate.error),
                    }
                }
            }
        };
        self.last_latency = cursor.saturating_since(now);
        outcome
    }

    pub fn cloud_names(&self) -> Vec<&str> {
        self.backends
            .iter()
            .map(|(m, _)| m.cloud.as_str())
            .collect()
    }

    pub fn controller(&self, cloud: &str) -> Option<&CloudController> {
        self.backends
            .iter()
            .find(|(m, _)| m.cloud == cloud)
            .map(|(_, c)| c)
    }

    fn backend_index(&self, cloud: &str) -> Result<usize, ProxyError> {
        self.backends
            .iter()
            .position(|(m, _)| m.cloud == cloud)
            .ok_or_else(|| ProxyError::UnknownCloud(cloud.to_string()))
    }

    /// Resolve the cloud-local username for this identity on this cloud.
    fn cloud_user(
        vault: &CredentialVault,
        id: &Identity,
        cloud: &str,
    ) -> Result<String, ProxyError> {
        vault
            .lookup(id, cloud)
            .map(|c| c.cloud_user)
            .ok_or_else(|| ProxyError::NotEnrolled {
                cloud: cloud.to_string(),
            })
    }

    /// `GET /servers` across every cloud the identity is enrolled in —
    /// the console's landing page. Each entry carries `"cloud": name`.
    pub fn list_servers(&mut self, vault: &CredentialVault, id: &Identity, now: SimTime) -> Value {
        let mut merged: Vec<Value> = Vec::new();
        // `(backend index, items translated, gate-failure latency)` per
        // cloud actually queried, for the latency model + spans applied
        // after the fan-out.
        let mut calls: Vec<(usize, usize, Option<SimDuration>)> = Vec::new();
        let enrolled: Vec<(usize, String)> = self
            .backends
            .iter()
            .enumerate()
            .filter_map(|(bi, (m, _))| {
                // Not enrolled on a cloud: skip it silently.
                vault.lookup(id, &m.cloud).map(|c| (bi, c.cloud_user))
            })
            .collect();
        for (bi, user) in enrolled {
            // A faulted backend contributes nothing this poll: the landing
            // page degrades to the clouds that answered (no retries on the
            // fan-out path — the next poll is the retry).
            if let Err(gate) = self.fault_gate(bi, now) {
                if gate.breaker_strike {
                    if let Some(b) = &mut self.breakers[bi] {
                        b.on_failure(now + gate.latency);
                    }
                }
                calls.push((bi, 0, Some(gate.latency)));
                continue;
            }
            if let Some(b) = &mut self.breakers[bi] {
                b.on_success();
            }
            let before = merged.len();
            // Both dialects run the same encode → serve → decode path
            // through the shared translators; failures degrade this
            // cloud's leg to zero items but are surfaced and counted,
            // never silently dropped.
            let leg = {
                let (mapping, controller) = &mut self.backends[bi];
                dialect_list(mapping, controller, &user, now)
            };
            match leg {
                Ok(items) => merged.extend(items),
                Err(e) => {
                    let cloud = self.backends[bi].0.cloud.clone();
                    self.note_fanout_error(&cloud, e);
                }
            }
            calls.push((bi, merged.len() - before, None));
        }
        // Sequential fan-out on the sim clock: each backend call starts
        // when the previous one returns, as the single-threaded proxy of
        // §5.2 would behave. Timed-out backends burn their window;
        // circuit-open rejections are free.
        let mut cursor = now;
        for (bi, items, gate_latency) in calls {
            let latency = match gate_latency {
                Some(l) => l,
                None => {
                    backend_base_latency(self.backends[bi].0.kind)
                        + SimDuration::from_millis(items as u64 * per_item_latency().as_millis())
                }
            };
            if !latency.is_zero() {
                self.trace_backend_call(bi, cursor, latency);
            }
            cursor += latency;
        }
        self.last_latency = cursor.saturating_since(now);
        json!({ "servers": merged })
    }

    /// Availability probe against one cloud: a minimal list call through
    /// the fault gate, breaker and retry policy. The campaign driver
    /// polls this to measure time-to-recovery of a faulted API.
    pub fn probe(&mut self, cloud: &str, now: SimTime) -> Result<SimDuration, ProxyError> {
        let bi = self.backend_index(cloud)?;
        let latency = backend_base_latency(self.backends[bi].0.kind);
        self.guarded_call(bi, now, latency, |(mapping, controller), at| {
            match mapping.kind {
                CloudStackKind::OpenStack => {
                    // The probe user owns nothing; an empty listing is a
                    // healthy reply.
                    OpenStackApi::new(controller)
                        .handle("__probe__", "GET", "/servers", None, at)
                        .map(|_| ())
                        .map_err(ProxyError::from)
                }
                CloudStackKind::Eucalyptus => EucalyptusApi::new(controller)
                    .handle("__probe__", "Action=DescribeInstances", at)
                    .map(|_| ())
                    .map_err(ProxyError::from),
            }
        })?;
        Ok(self.last_latency)
    }

    /// `POST /servers` targeted at one cloud, with unified flavor/image
    /// names translated through the mapping config. (The argument list
    /// mirrors the console form's fields one-to-one.)
    #[allow(clippy::too_many_arguments)]
    pub fn boot_server(
        &mut self,
        vault: &CredentialVault,
        id: &Identity,
        cloud: &str,
        name: &str,
        unified_flavor: &str,
        unified_image: &str,
        now: SimTime,
    ) -> Result<Value, ProxyError> {
        let user = Self::cloud_user(vault, id, cloud)?;
        let bi = self.backend_index(cloud)?;
        let mapping = &self.backends[bi].0;
        let kind = mapping.kind;
        let image_id = *mapping
            .image_aliases
            .get(unified_image)
            .ok_or_else(|| ProxyError::UnknownImage(unified_image.to_string()))?;
        let req = CanonicalRequest::LaunchInstance {
            name: name.to_string(),
            flavor: unified_flavor.to_string(),
            image: image_id,
        };
        let ctx = ResponseKind::of(&req);
        let wire = encode_for(mapping, &req, &mapping.alias_tables())?;
        let latency = backend_base_latency(kind) + per_item_latency();
        let mut result = self.guarded_call(bi, now, latency, |(mapping, controller), at| {
            let resp = serve_wire(controller, &user, &wire, at)?;
            match decode_for(mapping, &ctx, &resp)? {
                CanonicalResponse::Launched(rec) => Ok(nova::render_launch(&rec)),
                other => Err(ProxyError::Translation {
                    cloud: mapping.cloud.clone(),
                    detail: format!("boot decoded to unexpected response: {other:?}"),
                }),
            }
        })?;
        result["server"]["cloud"] = json!(cloud);
        Ok(result)
    }

    /// `DELETE /servers/{id}` on one cloud.
    pub fn delete_server(
        &mut self,
        vault: &CredentialVault,
        id: &Identity,
        cloud: &str,
        server_id: u64,
        now: SimTime,
    ) -> Result<(), ProxyError> {
        let user = Self::cloud_user(vault, id, cloud)?;
        let bi = self.backend_index(cloud)?;
        let mapping = &self.backends[bi].0;
        let req = CanonicalRequest::TerminateInstance { id: server_id };
        let ctx = ResponseKind::of(&req);
        let wire = encode_for(mapping, &req, &mapping.alias_tables())?;
        let latency = backend_base_latency(mapping.kind);
        self.guarded_call(bi, now, latency, |(mapping, controller), at| {
            let resp = serve_wire(controller, &user, &wire, at)?;
            decode_for(mapping, &ctx, &resp).map(|_| ())
        })
    }

    /// Aggregate usage across clouds for billing and the usage page
    /// (§6.4): `cloud → active cores`.
    pub fn usage(&self, vault: &CredentialVault, id: &Identity) -> BTreeMap<String, u32> {
        let mut usage = BTreeMap::new();
        for (mapping, controller) in &self.backends {
            if let Some(cred) = vault.lookup(id, &mapping.cloud) {
                let snap = controller.usage(&cred.cloud_user);
                if snap.cores > 0 {
                    usage.insert(mapping.cloud.clone(), snap.cores);
                }
            }
        }
        usage
    }

    /// Every (identity-agnostic) active cloud user, for billing sweeps.
    pub fn active_cloud_users(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (mapping, controller) in &self.backends {
            for user in controller.active_users() {
                out.push((mapping.cloud.clone(), user));
            }
        }
        out
    }
}

/// The standard two-cloud OSDC proxy configuration (OSDC-Adler on
/// OpenStack, OSDC-Sullivan on Eucalyptus), one rack each by default.
pub fn osdc_proxy(racks_each: usize) -> TranslationProxy {
    let adler_cfg = r#"{
        "cloud": "adler",
        "kind": "OpenStack",
        "flavor_aliases": {},
        "image_aliases": {"ubuntu-base": 1, "bionimbus-genomics": 2,
                           "matsu-earth-obs": 3, "bookworm-nlp": 4}
    }"#;
    let sullivan_cfg = r#"{
        "cloud": "sullivan",
        "kind": "Eucalyptus",
        "flavor_aliases": {"m1.small": "m1.small", "m1.medium": "m1.medium",
                            "m1.large": "m1.large", "m1.xlarge": "m1.xlarge"},
        "image_aliases": {"ubuntu-base": 1, "bionimbus-genomics": 2,
                           "matsu-earth-obs": 3, "bookworm-nlp": 4}
    }"#;
    TranslationProxy::new(vec![
        (
            CloudMapping::from_json(adler_cfg).expect("static config parses"),
            CloudController::with_racks("adler", racks_each),
        ),
        (
            CloudMapping::from_json(sullivan_cfg).expect("static config parses"),
            CloudController::with_racks("sullivan", racks_each),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credentials::CloudCredential;

    fn setup() -> (TranslationProxy, CredentialVault, Identity) {
        let proxy = osdc_proxy(1);
        let vault = CredentialVault::new();
        let id = Identity {
            canonical: "shib:alice@uchicago.edu".into(),
        };
        vault.enroll(&id, CloudCredential::new("adler", "alice", "K1", "S1"));
        vault.enroll(&id, CloudCredential::new("sullivan", "alice-s", "K2", "S2"));
        (proxy, vault, id)
    }

    #[test]
    fn config_files_parse() {
        let m = CloudMapping::from_json(
            r#"{"cloud": "x", "kind": "Eucalyptus", "image_aliases": {"img": 7}}"#,
        )
        .expect("parses");
        assert_eq!(m.kind, CloudStackKind::Eucalyptus);
        assert_eq!(m.image_aliases["img"], 7);
        assert!(CloudMapping::from_json("{nope").is_err());
    }

    #[test]
    fn boot_on_both_stacks_and_aggregate() {
        let (mut proxy, vault, id) = setup();
        let t = SimTime::ZERO;
        let a = proxy
            .boot_server(&vault, &id, "adler", "vm-a", "m1.small", "ubuntu-base", t)
            .expect("adler boots");
        assert_eq!(a["server"]["cloud"], "adler");
        let s = proxy
            .boot_server(
                &vault,
                &id,
                "sullivan",
                "vm-s",
                "m1.large",
                "bionimbus-genomics",
                t,
            )
            .expect("sullivan boots");
        assert_eq!(s["server"]["cloud"], "sullivan");

        // The aggregated listing is OpenStack-format JSON with per-cloud tags.
        let listing = proxy.list_servers(&vault, &id, t);
        let servers = listing["servers"].as_array().expect("array");
        assert_eq!(servers.len(), 2);
        let clouds: Vec<&str> = servers
            .iter()
            .map(|s| s["cloud"].as_str().expect("tagged"))
            .collect();
        assert!(clouds.contains(&"adler") && clouds.contains(&"sullivan"));
        // Eucalyptus state was translated into the OpenStack vocabulary.
        assert!(servers.iter().all(|s| s["status"] == "ACTIVE"));
    }

    #[test]
    fn usage_aggregates_cores_per_cloud() {
        let (mut proxy, vault, id) = setup();
        let t = SimTime::ZERO;
        proxy
            .boot_server(&vault, &id, "adler", "a", "m1.xlarge", "ubuntu-base", t)
            .expect("boots");
        proxy
            .boot_server(&vault, &id, "sullivan", "b", "m1.medium", "ubuntu-base", t)
            .expect("boots");
        let usage = proxy.usage(&vault, &id);
        assert_eq!(usage["adler"], 8);
        assert_eq!(usage["sullivan"], 2);
    }

    #[test]
    fn delete_works_through_both_dialects() {
        let (mut proxy, vault, id) = setup();
        let t = SimTime::ZERO;
        let a = proxy
            .boot_server(&vault, &id, "adler", "a", "m1.small", "ubuntu-base", t)
            .expect("boots");
        let s = proxy
            .boot_server(&vault, &id, "sullivan", "s", "m1.small", "ubuntu-base", t)
            .expect("boots");
        proxy
            .delete_server(
                &vault,
                &id,
                "adler",
                a["server"]["id"].as_u64().expect("id"),
                t,
            )
            .expect("deletes");
        proxy
            .delete_server(
                &vault,
                &id,
                "sullivan",
                s["server"]["id"].as_u64().expect("id"),
                t,
            )
            .expect("deletes");
        let listing = proxy.list_servers(&vault, &id, t);
        assert!(listing["servers"].as_array().expect("array").is_empty());
    }

    #[test]
    fn unenrolled_cloud_is_rejected_and_skipped() {
        let (mut proxy, vault, id) = setup();
        let poor = Identity {
            canonical: "openid:https://id.example/poor".into(),
        };
        let err = proxy
            .boot_server(
                &vault,
                &poor,
                "adler",
                "x",
                "m1.small",
                "ubuntu-base",
                SimTime::ZERO,
            )
            .expect_err("not enrolled");
        assert_eq!(
            err,
            ProxyError::NotEnrolled {
                cloud: "adler".into()
            }
        );
        // And the listing for an unenrolled identity is empty, not an error.
        let listing = proxy.list_servers(&vault, &poor, SimTime::ZERO);
        assert!(listing["servers"].as_array().expect("array").is_empty());
        let _ = id;
    }

    #[test]
    fn unknown_cloud_and_image() {
        let (mut proxy, vault, id) = setup();
        assert!(matches!(
            proxy.boot_server(
                &vault,
                &id,
                "nimbus",
                "x",
                "m1.small",
                "ubuntu-base",
                SimTime::ZERO
            ),
            Err(ProxyError::NotEnrolled { .. }) | Err(ProxyError::UnknownCloud(_))
        ));
        assert_eq!(
            proxy
                .boot_server(
                    &vault,
                    &id,
                    "adler",
                    "x",
                    "m1.small",
                    "windows-3.1",
                    SimTime::ZERO
                )
                .unwrap_err(),
            ProxyError::UnknownImage("windows-3.1".into())
        );
    }

    #[test]
    fn fanout_errors_surface_and_count() {
        let (mut proxy, vault, id) = setup();
        let tele = Telemetry::new();
        proxy.set_telemetry(tele.clone());
        // A clean fan-out collects nothing and registers no counter.
        proxy.list_servers(&vault, &id, SimTime::ZERO);
        assert!(proxy.take_fanout_errors().is_empty());
        assert_eq!(tele.counter_value("tukey.fanout.errors"), 0);
        // A translation failure is kept, typed, and counted — the old
        // proxy's `if let Ok(xml)` dropped this class on the floor.
        proxy.note_fanout_error(
            "sullivan",
            ProxyError::Translation {
                cloud: "sullivan".into(),
                detail: "ragged DescribeInstances reply".into(),
            },
        );
        let errs = proxy.take_fanout_errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].0, "sullivan");
        assert!(matches!(errs[0].1, ProxyError::Translation { .. }));
        assert!(proxy.take_fanout_errors().is_empty(), "drained");
        assert_eq!(tele.counter_value("tukey.fanout.errors"), 1);
    }

    #[test]
    fn injected_error_surfaces_and_retry_recovers() {
        let (mut proxy, vault, id) = setup();
        proxy.reseed_faults(11);
        proxy
            .inject_api_fault(
                "adler",
                InjectedApiFault {
                    error_prob: 1.0,
                    ..Default::default()
                },
            )
            .expect("known cloud");
        let err = proxy
            .boot_server(
                &vault,
                &id,
                "adler",
                "x",
                "m1.small",
                "ubuntu-base",
                SimTime::ZERO,
            )
            .expect_err("fault always fires, no retries");
        assert!(matches!(err, ProxyError::Backend(_)), "{err:?}");

        // 50% error rate with generous retries: the call gets through,
        // and the retries show up as added latency.
        proxy
            .inject_api_fault(
                "adler",
                InjectedApiFault {
                    error_prob: 0.5,
                    ..Default::default()
                },
            )
            .expect("known cloud");
        proxy.set_retry_policy(RetryPolicy::exponential(8));
        proxy
            .boot_server(
                &vault,
                &id,
                "adler",
                "x",
                "m1.small",
                "ubuntu-base",
                SimTime::ZERO,
            )
            .expect("retries ride out a 50% error rate (seed 11)");
    }

    #[test]
    fn timeout_burns_its_window() {
        let (mut proxy, vault, id) = setup();
        proxy
            .inject_api_fault(
                "sullivan",
                InjectedApiFault {
                    timeout_prob: 1.0,
                    timeout: SimDuration::from_secs(30),
                    ..Default::default()
                },
            )
            .expect("known cloud");
        let err = proxy
            .boot_server(
                &vault,
                &id,
                "sullivan",
                "x",
                "m1.small",
                "ubuntu-base",
                SimTime::ZERO,
            )
            .expect_err("always times out");
        assert_eq!(
            err,
            ProxyError::Timeout {
                cloud: "sullivan".into()
            }
        );
        assert_eq!(proxy.last_latency, SimDuration::from_secs(30));
        // The landing page degrades to the healthy cloud.
        let listing = proxy.list_servers(&vault, &id, SimTime::ZERO);
        assert!(listing["servers"].as_array().expect("array").is_empty());
    }

    #[test]
    fn breaker_opens_then_probe_closes_it() {
        let (mut proxy, vault, id) = setup();
        proxy
            .set_breaker("adler", CircuitBreaker::new(3, SimDuration::from_secs(60)))
            .expect("known cloud");
        proxy
            .inject_api_fault(
                "adler",
                InjectedApiFault {
                    error_prob: 1.0,
                    ..Default::default()
                },
            )
            .expect("known cloud");
        let t0 = SimTime::ZERO;
        for _ in 0..3 {
            proxy.probe("adler", t0).expect_err("injected failure");
        }
        // Circuit now open: calls fail fast without burning latency.
        let err = proxy.probe("adler", t0).expect_err("circuit open");
        assert_eq!(err, ProxyError::Backend("circuit open: adler".into()));
        assert_eq!(proxy.last_latency, SimDuration::ZERO);
        // Fault heals; after the cool-down the probe call closes the
        // circuit and traffic flows again.
        proxy
            .inject_api_fault("adler", InjectedApiFault::default())
            .expect("known cloud");
        let later = t0 + SimDuration::from_secs(61);
        proxy.probe("adler", later).expect("probe closes circuit");
        proxy
            .boot_server(&vault, &id, "adler", "x", "m1.small", "ubuntu-base", later)
            .expect("circuit closed");
    }

    #[test]
    fn fault_draws_are_seed_deterministic() {
        let run = |seed| {
            let (mut proxy, vault, id) = setup();
            proxy.reseed_faults(seed);
            proxy.set_retry_policy(RetryPolicy::exponential(3));
            proxy
                .inject_api_fault(
                    "adler",
                    InjectedApiFault {
                        error_prob: 0.5,
                        ..Default::default()
                    },
                )
                .expect("known cloud");
            (0..6)
                .map(|i| {
                    let r = proxy.boot_server(
                        &vault,
                        &id,
                        "adler",
                        &format!("vm{i}"),
                        "m1.small",
                        "ubuntu-base",
                        SimTime::ZERO,
                    );
                    (r.is_ok(), proxy.last_latency)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds fail differently");
    }

    #[test]
    #[should_panic(expected = "duplicate cloud names")]
    fn duplicate_clouds_rejected() {
        let m = CloudMapping::from_json(r#"{"cloud": "a", "kind": "OpenStack"}"#).expect("parses");
        TranslationProxy::new(vec![
            (m.clone(), CloudController::with_racks("a", 1)),
            (m, CloudController::with_racks("a2", 1)),
        ]);
    }
}
