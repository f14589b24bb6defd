//! The `Provider` trait, the one canonical backend and the classic
//! adapters.
//!
//! A provider owns a backend cloud and translates canonical calls onto
//! its native wire dialect. Every provider's `call` runs one pipeline:
//! its dialect's `encode_request`, the server half's `decode_request`
//! with native (empty) alias tables, `serve`, `encode_response`,
//! `decode_response` — so translation is exercised on the real path
//! rather than trusted. `serve` is the one canonical backend over a
//! [`CloudController`]: client-token idempotency and the owner check
//! live there once. The classic adapters ([`ClassicProvider`]), the
//! clouds behind Tukey's translation proxy, add nothing to it but their
//! codec; the deliberately weird providers in [`crate::spot`],
//! [`crate::eventual`] and [`crate::paged`] each add one quirk.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use osdc_compute::cloud::{CloudController, SchedulingError};
use osdc_compute::image::ImageId;
use osdc_compute::instance::{Instance, InstanceId, InstanceState};
use osdc_sim::{SimDuration, SimTime};

use crate::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, FlavorRecord, ImageRecord,
    InstanceRecord, ProviderError,
};
use crate::eucalyptus;
use crate::openstack::{self, ResponseKind};
use crate::wire::{WireRequest, WireResponse};

/// What a provider costs to talk to — the registry entry's routing facts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapabilityDescriptor {
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

pub(crate) fn record_of(inst: &Instance) -> InstanceRecord {
    InstanceRecord {
        id: inst.id.0,
        name: inst.name.clone(),
        status: match inst.state {
            InstanceState::Building => CanonicalStatus::Build,
            InstanceState::Active => CanonicalStatus::Active,
            InstanceState::Shutoff => CanonicalStatus::Shutoff,
            InstanceState::Terminated => CanonicalStatus::Terminated,
        },
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

/// `user`'s instance `id`, or the backend's "not found" — the owner
/// check every by-id request passes through.
fn owned(cloud: &CloudController, user: &str, id: u64) -> Result<InstanceRecord, ProviderError> {
    cloud
        .instance(InstanceId(id))
        .filter(|i| i.owner == user)
        .map(record_of)
        .ok_or_else(|| ProviderError::Backend(format!("not found: instance {id}")))
}

/// The canonical backend: run one decoded request against `cloud` as
/// `user`. Flavor names arrive native (the server halves decode with
/// empty alias tables) and listings come back in id order.
///
/// A launch whose client token (`name`) matches a live instance of
/// `user` returns that instance instead of booting a twin; terminate and
/// describe reach only `user`'s own instances. Scheduling failures are
/// [`ProviderError::Backend`].
pub(crate) fn serve(
    cloud: &mut CloudController,
    user: &str,
    req: &CanonicalRequest,
    now: SimTime,
) -> Result<CanonicalResponse, ProviderError> {
    let backend = |e: SchedulingError| ProviderError::Backend(format!("{e:?}"));
    Ok(match req {
        CanonicalRequest::ListInstances => CanonicalResponse::Instances(
            cloud
                .instances_of(user)
                .filter(|i| i.state != InstanceState::Terminated)
                .map(record_of)
                .collect(),
        ),
        CanonicalRequest::LaunchInstance {
            name,
            flavor,
            image,
        } => {
            let live = cloud
                .instances_of(user)
                .find(|i| i.name == *name && i.state != InstanceState::Terminated)
                .map(|i| i.id);
            let id = match live {
                Some(id) => id,
                None => cloud
                    .boot(user, name, flavor, ImageId(*image), now)
                    .map_err(backend)?,
            };
            CanonicalResponse::Launched(owned(cloud, user, id.0)?)
        }
        CanonicalRequest::TerminateInstance { id } => {
            owned(cloud, user, *id)?;
            cloud.terminate(InstanceId(*id), now).map_err(backend)?;
            CanonicalResponse::Terminated { id: *id }
        }
        CanonicalRequest::DescribeInstance { id } => {
            CanonicalResponse::Instance(owned(cloud, user, *id)?)
        }
        CanonicalRequest::ListFlavors => CanonicalResponse::Flavors(
            cloud
                .flavors()
                .iter()
                .map(|f| FlavorRecord {
                    name: f.name.clone(),
                    vcpus: f.vcpus,
                    ram_mb: f.ram_mb,
                    disk_gb: f.disk_gb,
                })
                .collect(),
        ),
        CanonicalRequest::ListImages => CanonicalResponse::Images(
            cloud
                .images()
                .map(|i| ImageRecord {
                    id: i.id.0,
                    name: i.name.clone(),
                })
                .collect(),
        ),
    })
}

/// One classic dialect's four translator halves.
#[derive(Clone, Copy)]
struct Codec {
    encode_request: fn(&CanonicalRequest, &AliasTables) -> Result<WireRequest, ProviderError>,
    decode_request: fn(&WireRequest, &AliasTables) -> Result<CanonicalRequest, ProviderError>,
    encode_response: fn(&CanonicalResponse) -> Result<WireResponse, ProviderError>,
    decode_response: fn(&ResponseKind, &WireResponse) -> Result<CanonicalResponse, ProviderError>,
}

const NOVA: Codec = Codec {
    encode_request: openstack::encode_request,
    decode_request: openstack::decode_request,
    encode_response: |resp| Ok(openstack::encode_response(resp)),
    decode_response: openstack::decode_response,
};

const EC2: Codec = Codec {
    encode_request: eucalyptus::encode_request,
    decode_request: eucalyptus::decode_request,
    encode_response: eucalyptus::encode_response,
    decode_response: eucalyptus::decode_response,
};

/// An OpenStack- or Eucalyptus-dialect provider over a real
/// [`CloudController`] — one per cloud behind Tukey's translation proxy.
pub struct ClassicProvider {
    name: String,
    codec: Codec,
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
            codec: NOVA,
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
            codec: EC2,
            cloud,
            aliases,
            api_latency: SimDuration::from_millis(55),
        }
    }
}

impl Provider for ClassicProvider {
    fn name(&self) -> &str {
        &self.name
    }

    fn descriptor(&self) -> CapabilityDescriptor {
        CapabilityDescriptor {
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
        let c = self.codec;
        let wire = (c.encode_request)(req, &self.aliases)?;
        let server_req = (c.decode_request)(&wire, &AliasTables::default())?;
        let resp = serve(&mut self.cloud, user, &server_req, now)?;
        (c.decode_response)(&ResponseKind::of(req), &(c.encode_response)(&resp)?)
    }

    fn ground_truth(&self) -> Vec<(String, InstanceRecord)> {
        billable_ground_truth(&self.cloud)
    }

    fn roundtrip_request(&self, req: &CanonicalRequest) -> Result<CanonicalRequest, ProviderError> {
        let c = self.codec;
        (c.decode_request)(&(c.encode_request)(req, &self.aliases)?, &self.aliases)
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

    fn both_dialects() -> [ClassicProvider; 2] {
        [
            ClassicProvider::openstack("adler", CloudController::with_racks("adler", 1), aliases()),
            ClassicProvider::eucalyptus(
                "sullivan",
                CloudController::with_racks("sullivan", 1),
                aliases(),
            ),
        ]
    }

    fn listing(p: &mut ClassicProvider, user: &str, t: u64) -> Vec<InstanceRecord> {
        let CanonicalResponse::Instances(recs) = p
            .call(user, &CanonicalRequest::ListInstances, SimTime(t))
            .expect("lists")
        else {
            panic!()
        };
        recs
    }

    #[test]
    fn listings_are_per_user() {
        for mut p in both_dialects() {
            p.call("alice", &launch("a"), SimTime::ZERO)
                .expect("launches");
            assert!(listing(&mut p, "bob", 1).is_empty(), "{}", p.name());
            assert_eq!(listing(&mut p, "alice", 2).len(), 1, "{}", p.name());
        }
    }

    /// Alice launches on `p`; mallory's terminate of it is a `Backend`
    /// error and the instance keeps running.
    fn assert_foreign_terminate_refused(mut p: ClassicProvider) {
        let CanonicalResponse::Launched(rec) = p
            .call("alice", &launch("a"), SimTime::ZERO)
            .expect("launches")
        else {
            panic!()
        };
        let err = p
            .call(
                "mallory",
                &CanonicalRequest::TerminateInstance { id: rec.id },
                SimTime(1),
            )
            .expect_err("foreign terminate refused");
        assert!(
            matches!(err, ProviderError::Backend(_)),
            "{}: {err}",
            p.name()
        );
        assert_eq!(p.ground_truth().len(), 1, "{}: still running", p.name());
    }

    #[test]
    fn nova_foreign_terminate_is_refused() {
        let [nova, _] = both_dialects();
        assert_foreign_terminate_refused(nova);
    }

    #[test]
    fn ec2_foreign_terminate_is_refused() {
        let [_, ec2] = both_dialects();
        assert_foreign_terminate_refused(ec2);
    }

    #[test]
    fn malformed_nova_wire_is_a_translation_error() {
        for wire in [
            WireRequest::rest("POST", "/servers", Some(serde_json::json!({}))),
            WireRequest::rest("PATCH", "/servers", None),
            WireRequest::rest("GET", "/servers/notanumber", None),
            WireRequest::rest("GET", "/servers/detail", None),
            WireRequest::Query("Action=DescribeInstances".into()),
        ] {
            assert!(
                matches!(
                    openstack::decode_request(&wire, &AliasTables::default()),
                    Err(ProviderError::Translation(_))
                ),
                "{wire:?}"
            );
        }
    }

    #[test]
    fn malformed_ec2_wire_is_a_translation_error() {
        for q in [
            "Action=RunInstances&InstanceType=m1.small",
            "Action=FlyToTheMoon",
            "NoAction=1",
        ] {
            assert!(
                matches!(
                    eucalyptus::decode_request(
                        &WireRequest::Query(q.into()),
                        &AliasTables::default()
                    ),
                    Err(ProviderError::Translation(_))
                ),
                "{q}"
            );
        }
        // The server half runs on every call: a client token that
        // smuggles a second `Action` into the EC2 query never reaches
        // the backend.
        let [_, mut ec2] = both_dialects();
        let err = ec2
            .call("alice", &launch("vm1&Action=FlyToTheMoon"), SimTime::ZERO)
            .expect_err("smuggled action refused");
        assert!(matches!(err, ProviderError::Translation(_)), "{err}");
        assert!(ec2.ground_truth().is_empty());
    }

    #[test]
    fn flavors_and_images_are_listed() {
        let [mut nova, mut ec2] = both_dialects();
        let CanonicalResponse::Flavors(flavors) = nova
            .call("u", &CanonicalRequest::ListFlavors, SimTime::ZERO)
            .expect("flavors")
        else {
            panic!()
        };
        assert_eq!(flavors.len(), 4);
        let images = nova
            .call("u", &CanonicalRequest::ListImages, SimTime::ZERO)
            .expect("images");
        let CanonicalResponse::Images(imgs) = &images else {
            panic!()
        };
        assert!(imgs.len() >= 4);
        assert_eq!(
            ec2.call("u", &CanonicalRequest::ListImages, SimTime::ZERO)
                .expect("images"),
            images
        );
        assert!(matches!(
            ec2.call("u", &CanonicalRequest::ListFlavors, SimTime::ZERO),
            Err(ProviderError::Unsupported(_))
        ));
    }

    /// Run `req` for alice through one dialect's server half and
    /// [`serve`]: the reply exactly as it goes on the wire.
    fn served(codec: Codec, cloud: &mut CloudController, req: &CanonicalRequest) -> WireResponse {
        let wire = (codec.encode_request)(req, &aliases()).expect("encodes");
        let server_req = (codec.decode_request)(&wire, &AliasTables::default()).expect("decodes");
        let resp = serve(cloud, "alice", &server_req, SimTime::ZERO).expect("serves");
        (codec.encode_response)(&resp).expect("renders")
    }

    #[test]
    fn nova_replies_are_byte_exact() {
        let mut cloud = CloudController::with_racks("adler", 1);
        let mut reply = |req: CanonicalRequest| match served(NOVA, &mut cloud, &req) {
            WireResponse::Json(v) => serde_json::to_string(&v).expect("serializes"),
            other => panic!("{other:?}"),
        };
        assert_eq!(
            reply(launch("vm1")),
            r#"{"server":{"id":1,"name":"vm1","status":"ACTIVE"}}"#
        );
        assert_eq!(
            reply(CanonicalRequest::ListInstances),
            r#"{"servers":[{"flavor":{"name":"m1.small","vcpus":1},"id":1,"image":{"id":1},"name":"vm1","status":"ACTIVE"}]}"#
        );
        assert_eq!(reply(CanonicalRequest::TerminateInstance { id: 1 }), "{}");
        assert_eq!(reply(CanonicalRequest::ListInstances), r#"{"servers":[]}"#);
    }

    #[test]
    fn ec2_replies_are_byte_exact() {
        let mut cloud = CloudController::with_racks("sullivan", 1);
        let mut reply = |req: CanonicalRequest| match served(EC2, &mut cloud, &req) {
            WireResponse::Xml(xml) => xml,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            reply(launch("vm1")),
            "<RunInstancesResponse><instancesSet><item><instanceId>i-00000001</instanceId>\
             <imageId>emi-00000001</imageId><instanceState><name>running</name></instanceState>\
             </item></instancesSet></RunInstancesResponse>"
        );
        assert_eq!(
            reply(CanonicalRequest::ListInstances),
            "<DescribeInstancesResponse><reservationSet><item><instanceId>i-00000001</instanceId>\
             <instanceType>m1.small</instanceType><instanceState><name>running</name>\
             </instanceState></item></reservationSet></DescribeInstancesResponse>"
        );
        assert_eq!(
            reply(CanonicalRequest::TerminateInstance { id: 1 }),
            "<TerminateInstancesResponse><instancesSet><item><instanceId>i-00000001</instanceId>\
             <currentState><name>terminated</name></currentState></item></instancesSet>\
             </TerminateInstancesResponse>"
        );
        assert_eq!(
            reply(CanonicalRequest::ListInstances),
            "<DescribeInstancesResponse><reservationSet></reservationSet></DescribeInstancesResponse>"
        );
    }

    /// A response with the fields EC2 does not carry blanked out.
    fn common_fields(resp: CanonicalResponse) -> CanonicalResponse {
        let blank = |r: InstanceRecord| InstanceRecord {
            name: String::new(),
            vcpus: None,
            image: None,
            ..r
        };
        match resp {
            CanonicalResponse::Instances(recs) => {
                CanonicalResponse::Instances(recs.into_iter().map(blank).collect())
            }
            CanonicalResponse::Launched(r) => CanonicalResponse::Launched(blank(r)),
            other => other,
        }
    }

    #[test]
    fn one_script_gives_the_same_answers_on_both_dialects() {
        let script = [
            launch("vm1"),
            launch("vm2"),
            launch("vm1"),
            CanonicalRequest::ListInstances,
            CanonicalRequest::TerminateInstance { id: 1 },
            CanonicalRequest::ListInstances,
            CanonicalRequest::ListImages,
        ];
        let [mut nova, mut ec2] = both_dialects();
        for (t, req) in script.iter().enumerate() {
            let now = SimTime(t as u64);
            assert_eq!(
                common_fields(nova.call("alice", req, now).expect("nova answers")),
                common_fields(ec2.call("alice", req, now).expect("ec2 answers")),
                "{req:?}"
            );
        }
        // One controller reads the same through either front end.
        let listed = listing(&mut nova, "alice", 10);
        assert_eq!(listed.len(), 1);
        let mut swapped = ClassicProvider::eucalyptus("adler", nova.cloud, aliases());
        assert_eq!(
            common_fields(CanonicalResponse::Instances(listing(
                &mut swapped,
                "alice",
                11
            ))),
            common_fields(CanonicalResponse::Instances(listed))
        );
    }
}
