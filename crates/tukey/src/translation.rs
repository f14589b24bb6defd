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
//! alias tables, and [`TranslationProxy`] turns each mapping into one
//! `osdc-providers` [`Provider`] — OpenStack JSON or Eucalyptus
//! `Action=...` query strings with XML-ish replies. Every console request
//! becomes a canonical call through [`Provider::call`], the workspace's
//! one encode → serve → decode path; the proxy tags every result with
//! `"cloud": <name>` and merges everything into one OpenStack-format JSON
//! document.
//!
//! The proxy keeps only Tukey's own concerns: credentials, the latency
//! model (each stack's [`Provider::api_latency`] plus 1 ms per tagged
//! item),
//! per-cloud telemetry and the aggregation. API faults enter the
//! federation only through `ProviderRegistry`'s `ApiHealth` gate; the
//! console, whose users pick their cloud, calls its providers directly.

use std::collections::BTreeMap;

use osdc_compute::CloudController;
use osdc_providers::openstack as nova;
use osdc_providers::{AliasTables, CanonicalRequest, CanonicalResponse, Provider, ProviderError};
use osdc_sim::{SimDuration, SimTime};
use osdc_telemetry::Telemetry;
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

    /// This cloud's provider: the mapping's dialect over `controller`.
    fn into_provider(self, controller: CloudController) -> Provider {
        let aliases = self.alias_tables();
        match self.kind {
            CloudStackKind::OpenStack => Provider::openstack(self.cloud, controller, aliases),
            CloudStackKind::Eucalyptus => Provider::eucalyptus(self.cloud, controller, aliases),
        }
    }
}

/// Errors surfaced to the console.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProxyError {
    /// The identity has no credential for the target cloud.
    NotEnrolled { cloud: String },
    /// Two mapping configurations name the same cloud.
    DuplicateCloud(String),
    /// The cloud's provider refused the call: an unknown cloud or image,
    /// a reply the dialect translator rejected, or a backend error.
    Provider(ProviderError),
}

impl From<ProviderError> for ProxyError {
    fn from(e: ProviderError) -> Self {
        ProxyError::Provider(e)
    }
}

/// The middleware's translation layer: one provider per mapped cloud.
pub struct TranslationProxy {
    backends: Vec<Provider>,
    tele: Telemetry,
    /// Modeled duration of the most recent proxied request, so callers
    /// (the console) can place their own spans on the sim clock.
    pub last_latency: SimDuration,
}

impl TranslationProxy {
    /// One provider per mapping, in configuration order. Cloud names
    /// must be unique.
    pub fn new(backends: Vec<(CloudMapping, CloudController)>) -> Result<Self, ProxyError> {
        let mut proxy = TranslationProxy {
            backends: Vec::with_capacity(backends.len()),
            tele: Telemetry::disabled(),
            last_latency: SimDuration::ZERO,
        };
        for (mapping, controller) in backends {
            proxy.add_backend(mapping, controller)?;
        }
        Ok(proxy)
    }

    /// Attach a telemetry handle: spans per proxied request and one
    /// latency histogram per backend cloud, each registered on first use.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// Register a cloud mid-run: the console starts aggregating it on the
    /// next request, and its latency histogram appears on first use.
    pub fn add_backend(
        &mut self,
        mapping: CloudMapping,
        controller: CloudController,
    ) -> Result<(), ProxyError> {
        if self.backend_index(&mapping.cloud).is_ok() {
            return Err(ProxyError::DuplicateCloud(mapping.cloud));
        }
        self.backends.push(mapping.into_provider(controller));
        Ok(())
    }

    /// Count one listing leg that contributed nothing. The counter is
    /// registered on the first error, so clean runs export without it.
    fn note_fanout_error(&self) {
        self.tele.incr(self.tele.counter("tukey.fanout.errors"));
    }

    /// Charge one backend call that started at `at` and returned `items`
    /// tagged results: the stack's API round trip plus 1 ms per item,
    /// traced as a `translation/<cloud>` span and recorded into that
    /// cloud's latency histogram.
    fn charge(&self, backend_idx: usize, at: SimTime, items: usize) -> SimDuration {
        let provider = &self.backends[backend_idx];
        let latency = provider.api_latency() + SimDuration::from_millis(items as u64);
        if self.tele.is_enabled() {
            let cloud = provider.name();
            let span = self.tele.span_start(&format!("translation/{cloud}"), at);
            self.tele.span_end(span, at + latency);
            let h = self
                .tele
                .histogram(&format!("tukey.cloud.{cloud}.latency_ms"));
            self.tele.observe(h, latency.as_secs_f64() * 1e3);
        }
        latency
    }

    pub fn cloud_names(&self) -> Vec<&str> {
        self.backends.iter().map(|p| p.name()).collect()
    }

    pub fn controller(&self, cloud: &str) -> Option<&CloudController> {
        self.backends
            .iter()
            .find(|p| p.name() == cloud)
            .map(|p| &p.cloud)
    }

    fn backend_index(&self, cloud: &str) -> Result<usize, ProxyError> {
        self.backends
            .iter()
            .position(|p| p.name() == cloud)
            .ok_or_else(|| ProviderError::UnknownProvider(cloud.to_string()).into())
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
        // Sequential fan-out on the sim clock: each backend call starts
        // when the previous one returns, as the single-threaded proxy of
        // §5.2 would behave.
        let mut cursor = now;
        for bi in 0..self.backends.len() {
            // Not enrolled on a cloud: skip it silently.
            let Some(cred) = vault.lookup(id, self.backends[bi].name()) else {
                continue;
            };
            let listing =
                self.backends[bi].call(&cred.cloud_user, &CanonicalRequest::ListInstances, now);
            let items = match listing {
                Ok(CanonicalResponse::Instances(recs)) => {
                    let cloud = self.backends[bi].name();
                    merged.extend(recs.iter().map(|r| {
                        let mut item = nova::render_instance(r);
                        item["cloud"] = json!(cloud);
                        item
                    }));
                    recs.len()
                }
                // A leg that fails or decodes to anything but a listing
                // contributes nothing this poll (the next poll is the
                // retry); it is counted, never dropped silently.
                _ => {
                    self.note_fanout_error();
                    0
                }
            };
            cursor += self.charge(bi, cursor, items);
        }
        self.last_latency = cursor.saturating_since(now);
        json!({ "servers": merged })
    }

    /// `POST /servers` targeted at one cloud, with unified flavor/image
    /// names translated through the mapping config. `name` is the
    /// launch's client token: while this cloud user already has a live
    /// server by that name, the call returns it instead of booting a
    /// twin. (The argument list mirrors the console form's fields
    /// one-to-one.)
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
        let image = self.backends[bi]
            .aliases()
            .native_image(unified_image)
            .ok_or_else(|| ProviderError::UnknownImage(unified_image.to_string()))?;
        let req = CanonicalRequest::LaunchInstance {
            name: name.to_string(),
            flavor: unified_flavor.to_string(),
            image,
        };
        let launched = self.backends[bi].call(&user, &req, now);
        self.last_latency = self.charge(bi, now, 1);
        match launched? {
            CanonicalResponse::Launched(rec) => {
                let mut reply = nova::render_launch(&rec);
                reply["server"]["cloud"] = json!(cloud);
                Ok(reply)
            }
            other => Err(ProviderError::Translation(format!(
                "boot decoded to unexpected response: {other:?}"
            ))
            .into()),
        }
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
        let req = CanonicalRequest::TerminateInstance { id: server_id };
        let terminated = self.backends[bi].call(&user, &req, now);
        self.last_latency = self.charge(bi, now, 0);
        terminated.map(|_| ()).map_err(ProxyError::from)
    }

    /// Aggregate usage across clouds for billing and the usage page
    /// (§6.4): `cloud → active cores`.
    pub fn usage(&self, vault: &CredentialVault, id: &Identity) -> BTreeMap<String, u32> {
        let mut usage = BTreeMap::new();
        for provider in &self.backends {
            if let Some(cred) = vault.lookup(id, provider.name()) {
                let snap = provider.cloud.usage(&cred.cloud_user);
                if snap.cores > 0 {
                    usage.insert(provider.name().to_string(), snap.cores);
                }
            }
        }
        usage
    }
}

/// The standard two-cloud OSDC proxy configuration (OSDC-Adler on
/// OpenStack, OSDC-Sullivan on Eucalyptus), one rack each by default.
// Invariant: both configs are well-formed JSON literals naming two
// distinct clouds, so neither the parse nor the uniqueness check can
// fail (every test that builds the standard proxy pins it).
#[allow(clippy::expect_used)]
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
    [adler_cfg, sullivan_cfg]
        .into_iter()
        .map(|cfg| {
            let mapping = CloudMapping::from_json(cfg)?;
            let controller = CloudController::with_racks(mapping.cloud.clone(), racks_each);
            Ok((mapping, controller))
        })
        .collect::<Result<Vec<_>, String>>()
        .and_then(|backends| TranslationProxy::new(backends).map_err(|e| format!("{e:?}")))
        .expect("static proxy configs parse and name distinct clouds")
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
    fn latency_is_api_round_trip_plus_tagged_items() {
        let (mut proxy, vault, id) = setup();
        let t = SimTime::ZERO;
        proxy
            .boot_server(&vault, &id, "sullivan", "s", "m1.small", "ubuntu-base", t)
            .expect("boots");
        assert_eq!(proxy.last_latency, SimDuration::from_millis(55 + 1));
        let a = proxy
            .boot_server(&vault, &id, "adler", "a", "m1.small", "ubuntu-base", t)
            .expect("boots");
        assert_eq!(proxy.last_latency, SimDuration::from_millis(35 + 1));
        // The fan-out is sequential: both round trips plus one item each.
        proxy.list_servers(&vault, &id, t);
        assert_eq!(
            proxy.last_latency,
            SimDuration::from_millis(35 + 1 + 55 + 1)
        );
        let sid = a["server"]["id"].as_u64().expect("id");
        proxy
            .delete_server(&vault, &id, "adler", sid, t)
            .expect("deletes");
        assert_eq!(proxy.last_latency, SimDuration::from_millis(35));
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
        let (mut proxy, vault, _) = setup();
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
    }

    #[test]
    fn unknown_cloud_and_image() {
        let (mut proxy, vault, id) = setup();
        // Enrolled on a cloud the proxy does not front.
        vault.enroll(&id, CloudCredential::new("nimbus", "alice", "K3", "S3"));
        assert_eq!(
            proxy
                .boot_server(
                    &vault,
                    &id,
                    "nimbus",
                    "x",
                    "m1.small",
                    "ubuntu-base",
                    SimTime::ZERO
                )
                .unwrap_err(),
            ProxyError::Provider(ProviderError::UnknownProvider("nimbus".into()))
        );
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
            ProxyError::Provider(ProviderError::UnknownImage("windows-3.1".into()))
        );
        // A backend refusal is typed, and the round trip is still charged.
        let err = proxy
            .boot_server(
                &vault,
                &id,
                "sullivan",
                "x",
                "m9.hyper",
                "ubuntu-base",
                SimTime::ZERO,
            )
            .expect_err("unknown flavor");
        assert!(
            matches!(err, ProxyError::Provider(ProviderError::Backend(_))),
            "{err:?}"
        );
        assert_eq!(proxy.last_latency, SimDuration::from_millis(55 + 1));
    }

    #[test]
    fn fanout_errors_surface_and_count() {
        let (mut proxy, vault, id) = setup();
        let tele = Telemetry::new();
        proxy.set_telemetry(tele.clone());
        proxy.list_servers(&vault, &id, SimTime::ZERO);
        assert_eq!(tele.counter_value("tukey.fanout.errors"), 0);
        assert!(!tele.export_jsonl().contains("tukey.fanout.errors"));
        // A leg that returns nothing usable is counted.
        proxy.note_fanout_error();
        assert_eq!(tele.counter_value("tukey.fanout.errors"), 1);
    }

    #[test]
    fn duplicate_clouds_rejected() {
        let m = CloudMapping::from_json(r#"{"cloud": "a", "kind": "OpenStack"}"#).expect("parses");
        let err = TranslationProxy::new(vec![
            (m.clone(), CloudController::with_racks("a", 1)),
            (m.clone(), CloudController::with_racks("a2", 1)),
        ])
        .err()
        .expect("duplicate name");
        assert_eq!(err, ProxyError::DuplicateCloud("a".into()));
        // Adding a live cloud's name mid-run is refused too, and leaves
        // the proxy as it was.
        let mut proxy = osdc_proxy(1);
        let mut dup = m;
        dup.cloud = "sullivan".into();
        assert_eq!(
            proxy.add_backend(dup, CloudController::with_racks("sullivan", 1)),
            Err(ProxyError::DuplicateCloud("sullivan".into()))
        );
        assert_eq!(proxy.cloud_names(), vec!["adler", "sullivan"]);
    }
}
