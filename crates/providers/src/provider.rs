//! The `Provider` trait and the two classic adapters.
//!
//! A provider owns a backend cloud and translates canonical calls onto
//! its native wire dialect — encode, serve, decode, every call, so
//! translation is exercised on the real path rather than trusted. The
//! classic adapters ([`ClassicProvider`]) drive the `osdc_compute::api`
//! servers and are the clouds behind Tukey's translation proxy; the
//! deliberately weird providers live in [`crate::spot`],
//! [`crate::eventual`] and [`crate::paged`].

use osdc_compute::api::{ApiError, EucalyptusApi, OpenStackApi};
use osdc_compute::cloud::CloudController;
use osdc_compute::instance::{Instance, InstanceState};
use osdc_sim::{SimDuration, SimTime};

use crate::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, InstanceRecord,
    ProviderError,
};
use crate::eucalyptus::{self, EucalyptusCompat};
use crate::openstack::{self, OpenStackCompat, ResponseKind};
use crate::wire::{WireRequest, WireResponse};

/// Which wire family a provider speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFormat {
    /// Nova-style REST + JSON.
    RestJson,
    /// EC2 `Action=` query strings + XML.
    Ec2Query,
    /// JSON split across pages chained by a `next` token.
    PagedJson,
}

impl WireFormat {
    pub fn label(self) -> &'static str {
        match self {
            WireFormat::RestJson => "rest-json",
            WireFormat::Ec2Query => "ec2-query",
            WireFormat::PagedJson => "paged-json",
        }
    }
}

/// How promptly reads reflect writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Consistency {
    /// Reads see every prior write.
    Strong,
    /// List/describe lag mutations by a fixed window.
    Eventual { lag: SimDuration },
}

/// What a provider can do and how it behaves — the registry entry's
/// routing facts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapabilityDescriptor {
    pub wire: WireFormat,
    pub consistency: Consistency,
    /// Prices float and instances can be preempted.
    pub spot: bool,
    /// Whether `ListFlavors` has a wire form in this dialect.
    pub flavor_listing: bool,
    /// Base latency of one native API round trip.
    pub api_latency: SimDuration,
    /// For paged dialects: instances per page (drives per-page latency).
    pub page_size: Option<usize>,
}

/// One pluggable cloud provider.
pub trait Provider {
    fn name(&self) -> &str;
    fn descriptor(&self) -> CapabilityDescriptor;
    /// Unified → native alias tables for this provider.
    fn aliases(&self) -> &AliasTables;
    /// Translate and execute one canonical call as `user`.
    fn call(
        &mut self,
        user: &str,
        req: &CanonicalRequest,
        now: SimTime,
    ) -> Result<CanonicalResponse, ProviderError>;
    /// Advance provider-internal processes (spot price walks, preemption
    /// sweeps). Called once per simulated minute by the registry.
    fn tick(&mut self, _now: SimTime) {}
    /// Current spot price in $/core-hour, for spot markets only.
    fn spot_price(&self) -> Option<f64> {
        None
    }
    /// Omniscient backend view for audit oracles and usage accounting:
    /// every *billable* instance with its owner, bypassing the wire.
    fn ground_truth(&self) -> Vec<(String, InstanceRecord)>;
    /// Translation-fidelity probe: encode `req` onto this dialect's wire
    /// and decode it back. The router scores `roundtrip_request(r) == r`
    /// on every live call.
    fn roundtrip_request(&self, req: &CanonicalRequest) -> Result<CanonicalRequest, ProviderError>;
}

pub(crate) fn status_of(state: InstanceState) -> CanonicalStatus {
    match state {
        InstanceState::Building => CanonicalStatus::Build,
        InstanceState::Active => CanonicalStatus::Active,
        InstanceState::Shutoff => CanonicalStatus::Shutoff,
        InstanceState::Terminated => CanonicalStatus::Terminated,
    }
}

pub(crate) fn record_of(inst: &Instance) -> InstanceRecord {
    InstanceRecord {
        id: inst.id.0,
        name: inst.name.clone(),
        status: status_of(inst.state),
        flavor: inst.flavor.name.clone(),
        vcpus: Some(inst.flavor.vcpus),
        image: Some(inst.image.0),
    }
}

pub(crate) fn billable_ground_truth(cloud: &CloudController) -> Vec<(String, InstanceRecord)> {
    cloud
        .all_instances()
        .filter(|i| i.billable())
        .map(|i| (i.owner.clone(), record_of(i)))
        .collect()
}

/// Find a live instance by client token (name), the idempotency contract
/// of [`CanonicalRequest::LaunchInstance`].
pub(crate) fn live_by_token<'c>(
    cloud: &'c CloudController,
    user: &str,
    token: &str,
) -> Option<&'c Instance> {
    cloud
        .all_instances()
        .find(|i| i.owner == user && i.name == token && i.state != InstanceState::Terminated)
}

fn backend_err(e: ApiError) -> ProviderError {
    ProviderError::Backend(match e {
        ApiError::BadRequest(m) => format!("bad request: {m}"),
        ApiError::NotFound(m) => format!("not found: {m}"),
        ApiError::Compute(m) => format!("compute: {m}"),
    })
}

/// Which classic dialect a [`ClassicProvider`] speaks.
#[derive(Clone, Copy, Debug)]
pub enum ClassicDialect {
    OpenStack(OpenStackCompat),
    Eucalyptus(EucalyptusCompat),
}

/// An OpenStack- or Eucalyptus-dialect provider over a real
/// [`CloudController`] — one per cloud behind Tukey's translation proxy.
pub struct ClassicProvider {
    name: String,
    dialect: ClassicDialect,
    pub cloud: CloudController,
    aliases: AliasTables,
    api_latency: SimDuration,
}

impl ClassicProvider {
    pub fn openstack(
        name: impl Into<String>,
        cloud: CloudController,
        aliases: AliasTables,
    ) -> Self {
        ClassicProvider {
            name: name.into(),
            dialect: ClassicDialect::OpenStack(OpenStackCompat::default()),
            cloud,
            aliases,
            // The same base the original proxy charged OpenStack calls.
            api_latency: SimDuration::from_millis(35),
        }
    }

    pub fn eucalyptus(
        name: impl Into<String>,
        cloud: CloudController,
        aliases: AliasTables,
    ) -> Self {
        ClassicProvider {
            name: name.into(),
            dialect: ClassicDialect::Eucalyptus(EucalyptusCompat::default()),
            cloud,
            aliases,
            api_latency: SimDuration::from_millis(55),
        }
    }

    /// Encode the canonical request onto this dialect's wire.
    pub fn encode(&self, req: &CanonicalRequest) -> Result<WireRequest, ProviderError> {
        match self.dialect {
            ClassicDialect::OpenStack(c) => openstack::encode_request(req, &self.aliases, c),
            ClassicDialect::Eucalyptus(c) => eucalyptus::encode_request(req, &self.aliases, c),
        }
    }

    /// Serve one wire request against the native backend API.
    fn serve(
        &mut self,
        user: &str,
        wire: &WireRequest,
        now: SimTime,
    ) -> Result<WireResponse, ProviderError> {
        match wire {
            WireRequest::Rest { method, path, body } => OpenStackApi::new(&mut self.cloud)
                .handle(user, method, path, body.as_ref(), now)
                .map(WireResponse::Json)
                .map_err(backend_err),
            WireRequest::Query(q) => EucalyptusApi::new(&mut self.cloud)
                .handle(user, q, now)
                .map(WireResponse::Xml)
                .map_err(backend_err),
        }
    }

    fn decode(
        &self,
        kind: &ResponseKind,
        wire: &WireResponse,
    ) -> Result<CanonicalResponse, ProviderError> {
        match self.dialect {
            ClassicDialect::OpenStack(_) => openstack::decode_response(kind, wire),
            ClassicDialect::Eucalyptus(_) => eucalyptus::decode_response(kind, wire),
        }
    }
}

impl Provider for ClassicProvider {
    fn name(&self) -> &str {
        &self.name
    }

    fn descriptor(&self) -> CapabilityDescriptor {
        let (wire, flavor_listing) = match self.dialect {
            ClassicDialect::OpenStack(_) => (WireFormat::RestJson, true),
            ClassicDialect::Eucalyptus(_) => (WireFormat::Ec2Query, false),
        };
        CapabilityDescriptor {
            wire,
            consistency: Consistency::Strong,
            spot: false,
            flavor_listing,
            api_latency: self.api_latency,
            page_size: None,
        }
    }

    fn aliases(&self) -> &AliasTables {
        &self.aliases
    }

    fn call(
        &mut self,
        user: &str,
        req: &CanonicalRequest,
        now: SimTime,
    ) -> Result<CanonicalResponse, ProviderError> {
        // Launch idempotency: an existing live instance under the same
        // client token is returned, not double-booted. (The Eucalyptus
        // dialect carries the token natively; Nova of the era did not,
        // so the adapter enforces it for both.)
        if let CanonicalRequest::LaunchInstance { name, .. } = req {
            if let Some(existing) = live_by_token(&self.cloud, user, name) {
                return Ok(CanonicalResponse::Launched(record_of(existing)));
            }
        }
        let wire = self.encode(req)?;
        let resp = self.serve(user, &wire, now)?;
        self.decode(&ResponseKind::of(req), &resp)
    }

    fn ground_truth(&self) -> Vec<(String, InstanceRecord)> {
        billable_ground_truth(&self.cloud)
    }

    fn roundtrip_request(&self, req: &CanonicalRequest) -> Result<CanonicalRequest, ProviderError> {
        let wire = self.encode(req)?;
        match self.dialect {
            ClassicDialect::OpenStack(_) => openstack::decode_request(&wire, &self.aliases),
            ClassicDialect::Eucalyptus(_) => eucalyptus::decode_request(&wire, &self.aliases),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aliases() -> AliasTables {
        let mut t = AliasTables::default();
        t.flavors.insert("small".into(), "m1.small".into());
        t.images.insert("ubuntu-base".into(), 1);
        t
    }

    fn launch(name: &str) -> CanonicalRequest {
        CanonicalRequest::LaunchInstance {
            name: name.into(),
            flavor: "small".into(),
            image: 1,
        }
    }

    #[test]
    fn classic_lifecycle_both_dialects() {
        for euca in [false, true] {
            let cloud = CloudController::with_racks("cloud-a", 1);
            let mut p = if euca {
                ClassicProvider::eucalyptus("cloud-a", cloud, aliases())
            } else {
                ClassicProvider::openstack("cloud-a", cloud, aliases())
            };
            let resp = p
                .call("alice", &launch("vm1"), SimTime::ZERO)
                .expect("launches");
            let CanonicalResponse::Launched(rec) = resp else {
                panic!()
            };
            assert_eq!(rec.status, CanonicalStatus::Active);
            let listed = p
                .call("alice", &CanonicalRequest::ListInstances, SimTime(1))
                .expect("lists");
            let CanonicalResponse::Instances(recs) = listed else {
                panic!()
            };
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].id, rec.id);
            p.call(
                "alice",
                &CanonicalRequest::TerminateInstance { id: rec.id },
                SimTime(2),
            )
            .expect("terminates");
            assert!(p.ground_truth().is_empty());
        }
    }

    #[test]
    fn launch_is_idempotent_by_token() {
        let mut p = ClassicProvider::openstack(
            "cloud-a",
            CloudController::with_racks("cloud-a", 1),
            aliases(),
        );
        let CanonicalResponse::Launched(a) = p
            .call("alice", &launch("vm1"), SimTime::ZERO)
            .expect("launches")
        else {
            panic!()
        };
        let CanonicalResponse::Launched(b) = p
            .call("alice", &launch("vm1"), SimTime(1))
            .expect("relaunches")
        else {
            panic!()
        };
        assert_eq!(a.id, b.id, "same token returns the same instance");
        assert_eq!(p.ground_truth().len(), 1);
        // A different user's identical token is a different instance.
        let CanonicalResponse::Launched(c) =
            p.call("bob", &launch("vm1"), SimTime(2)).expect("launches")
        else {
            panic!()
        };
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn backend_failures_are_typed() {
        let mut p = ClassicProvider::eucalyptus(
            "cloud-b",
            CloudController::with_racks("cloud-b", 1),
            aliases(),
        );
        let err = p
            .call(
                "alice",
                &CanonicalRequest::LaunchInstance {
                    name: "vm".into(),
                    flavor: "m9.hyper".into(),
                    image: 1,
                },
                SimTime::ZERO,
            )
            .expect_err("unknown flavor");
        assert!(matches!(err, ProviderError::Backend(_)), "{err}");
    }
}
