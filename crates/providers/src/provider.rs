//! The one [`Provider`] type and the one canonical backend.
//!
//! Clouds differ by their wire vocabulary, not by program: §5.2's
//! proxies issue commands "based on mappings outlined in configuration
//! files for each cloud". A provider is a name, a backend
//! [`CloudController`], its alias tables and a private dialect that
//! picks the codec module (one per wire format: [`crate::openstack`],
//! [`crate::eucalyptus`], [`crate::spot`], [`crate::paged`]) and carries
//! the member's one quirk. Every [`Provider::call`] runs one pipeline:
//! the dialect's `encode_request`, the server half's `decode_request`
//! with native (empty) alias tables, `serve`, `encode_response`,
//! `decode_response` — so translation is exercised on the real path
//! rather than trusted. `serve` is the one canonical backend over a
//! [`CloudController`]: client-token idempotency and the owner check
//! live there once. The OpenStack and Eucalyptus dialects, the clouds
//! behind Tukey's translation proxy, add nothing to it but their codec;
//! spotmart adds its market, lagoon its lagged read view and pagely its
//! page chain.

use std::collections::BTreeSet;

use osdc_compute::cloud::{CloudController, SchedulingError};
use osdc_compute::image::ImageId;
use osdc_compute::instance::{Instance, InstanceId, InstanceState};
use osdc_sim::{SimDuration, SimRng, SimTime};

use crate::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, FlavorRecord, ImageRecord,
    InstanceRecord, ProviderError,
};
use crate::openstack::{self, ResponseKind};
use crate::wire::WireRequest;
use crate::{eucalyptus, paged, spot};

/// One cloud provider: a backend cloud behind one wire dialect.
pub struct Provider {
    name: String,
    pub cloud: CloudController,
    aliases: AliasTables,
    dialect: Dialect,
}

/// The wire format a provider speaks, with the member's one quirk.
enum Dialect {
    /// OpenStack Nova REST/JSON.
    Nova,
    /// Eucalyptus EC2 query/XML.
    Ec2,
    /// Spotmart's REST/JSON in front of a spot market.
    Spot(Market),
    /// Nova REST/JSON whose reads see the backend as it stood this long
    /// ago (lagoon).
    Lagged(SimDuration),
    /// Pagely's REST/JSON, listings this many instances a page.
    Paged(usize),
}

/// Spotmart's market. The price walks once per simulated minute between
/// a floor and a ceiling; while it sits above the console's standing
/// bid, asks are refused and running instances are outbid.
struct Market {
    rng: SimRng,
    price: f64,
    floor: f64,
    ceiling: f64,
    bid: f64,
    last_tick_min: u64,
    /// Instances preempted and not yet released: they stay listed as
    /// outbid.
    outbid: BTreeSet<u64>,
}

impl Provider {
    fn new(
        name: impl Into<String>,
        cloud: CloudController,
        aliases: AliasTables,
        dialect: Dialect,
    ) -> Self {
        Provider {
            name: name.into(),
            cloud,
            aliases,
            dialect,
        }
    }

    /// An OpenStack (Nova REST/JSON) cloud.
    pub fn openstack(
        name: impl Into<String>,
        cloud: CloudController,
        aliases: AliasTables,
    ) -> Self {
        Self::new(name, cloud, aliases, Dialect::Nova)
    }

    /// A Eucalyptus (EC2 query/XML) cloud.
    pub fn eucalyptus(
        name: impl Into<String>,
        cloud: CloudController,
        aliases: AliasTables,
    ) -> Self {
        Self::new(name, cloud, aliases, Dialect::Ec2)
    }

    /// A spot market ("spotmart"): the price opens mid-band and walks
    /// in `[floor, ceiling]` on `seed`; `bid` is the console's standing
    /// bid in $/core-hour.
    pub fn spot(
        name: impl Into<String>,
        cloud: CloudController,
        aliases: AliasTables,
        seed: u64,
        floor: f64,
        ceiling: f64,
        bid: f64,
    ) -> Self {
        let market = Market {
            rng: SimRng::new(seed),
            price: (floor + ceiling) / 2.0,
            floor,
            ceiling,
            bid,
            last_tick_min: 0,
            outbid: BTreeSet::new(),
        };
        Self::new(name, cloud, aliases, Dialect::Spot(market))
    }

    /// An eventually consistent Nova cloud ("lagoon"): mutations execute
    /// at once, but list and describe render the backend as it stood
    /// `lag` ago.
    pub fn lagged(
        name: impl Into<String>,
        cloud: CloudController,
        aliases: AliasTables,
        lag: SimDuration,
    ) -> Self {
        Self::new(name, cloud, aliases, Dialect::Lagged(lag))
    }

    /// A paginated cloud ("pagely"): listings come back `page_size`
    /// instances a page, chained by `next` page numbers.
    ///
    /// # Panics
    ///
    /// On a zero `page_size`.
    pub fn paged(
        name: impl Into<String>,
        cloud: CloudController,
        aliases: AliasTables,
        page_size: usize,
    ) -> Self {
        assert!(page_size > 0, "page_size must be positive");
        Self::new(name, cloud, aliases, Dialect::Paged(page_size))
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Unified → native alias tables for this provider.
    pub fn aliases(&self) -> &AliasTables {
        &self.aliases
    }

    /// Base latency of one native API round trip. OpenStack's 35 ms and
    /// Eucalyptus's 55 ms are what the original proxy charged.
    pub fn api_latency(&self) -> SimDuration {
        SimDuration::from_millis(match self.dialect {
            Dialect::Nova => 35,
            Dialect::Ec2 => 55,
            Dialect::Spot(_) => 25,
            Dialect::Lagged(_) => 45,
            Dialect::Paged(_) => 30,
        })
    }

    /// What a call that returned `result` cost: one round trip, or one
    /// per page a paged listing fetched.
    pub(crate) fn latency(&self, result: &Result<CanonicalResponse, ProviderError>) -> SimDuration {
        let pages = match (&self.dialect, result) {
            (Dialect::Paged(size), Ok(CanonicalResponse::Instances(recs))) => {
                recs.len().div_ceil(*size).max(1)
            }
            _ => 1,
        };
        self.api_latency() * pages as u64
    }

    /// The market's current price in $/core-hour; `None` off a spot
    /// market.
    pub fn spot_price(&self) -> Option<f64> {
        match &self.dialect {
            Dialect::Spot(market) => Some(market.price),
            _ => None,
        }
    }

    /// Omniscient backend view for audit oracles and usage accounting:
    /// every *billable* instance with its owner, bypassing the wire.
    pub fn ground_truth(&self) -> Vec<(String, InstanceRecord)> {
        self.cloud
            .all_instances()
            .filter(|i| i.billable())
            .map(|i| (i.owner.clone(), record_of(i)))
            .collect()
    }

    /// Omniscient by-id view: `user`'s instance `id` if the backend holds
    /// it and it is billable, the one entry of [`Provider::ground_truth`]
    /// with that owner and id, read without copying the rest.
    pub fn billable_instance(&self, user: &str, id: u64) -> Option<&Instance> {
        self.cloud
            .instance(InstanceId(id))
            .filter(|i| i.billable() && i.owner == user)
    }

    /// Translation-fidelity probe: encode `req` onto this dialect's wire
    /// and decode it back. The router scores `roundtrip_request(r) == r`
    /// on every live call.
    pub fn roundtrip_request(
        &self,
        req: &CanonicalRequest,
    ) -> Result<CanonicalRequest, ProviderError> {
        let wire = self.dialect.encode_request(req, &self.aliases)?;
        self.dialect.decode_request(&wire, &self.aliases)
    }

    /// Advance provider-internal processes: a spot market walks its
    /// price and preempts once per simulated minute elapsed. The
    /// registry calls it every minute.
    pub fn tick(&mut self, now: SimTime) {
        if let Dialect::Spot(market) = &mut self.dialect {
            market.tick(&mut self.cloud, now);
        }
    }

    /// Translate and execute one canonical call as `user`.
    pub fn call(
        &mut self,
        user: &str,
        req: &CanonicalRequest,
        now: SimTime,
    ) -> Result<CanonicalResponse, ProviderError> {
        let wire = self.dialect.encode_request(req, &self.aliases)?;
        let server_req = self
            .dialect
            .decode_request(&wire, &AliasTables::default())?;
        let resp = match &mut self.dialect {
            Dialect::Spot(market) => market.serve(&mut self.cloud, user, &server_req, now)?,
            Dialect::Lagged(lag) => serve_lagged(&mut self.cloud, *lag, user, &server_req, now)?,
            _ => serve(&mut self.cloud, user, &server_req, now)?,
        };
        self.dialect.reply(&ResponseKind::of(req), &resp)
    }
}

impl Dialect {
    /// The client half: `req` onto this dialect's wire.
    fn encode_request(
        &self,
        req: &CanonicalRequest,
        aliases: &AliasTables,
    ) -> Result<WireRequest, ProviderError> {
        match self {
            Dialect::Nova | Dialect::Lagged(_) => openstack::encode_request(req, aliases),
            Dialect::Ec2 => eucalyptus::encode_request(req, aliases),
            Dialect::Spot(_) => spot::encode_request(req, aliases),
            Dialect::Paged(_) => paged::encode_request(req, aliases),
        }
    }

    /// The server half: a request off this dialect's wire. A pagely
    /// listing's page number is dropped: [`Dialect::reply`] serves the
    /// whole chain.
    fn decode_request(
        &self,
        wire: &WireRequest,
        aliases: &AliasTables,
    ) -> Result<CanonicalRequest, ProviderError> {
        match self {
            Dialect::Nova | Dialect::Lagged(_) => openstack::decode_request(wire, aliases),
            Dialect::Ec2 => eucalyptus::decode_request(wire, aliases),
            Dialect::Spot(_) => spot::decode_request(wire, aliases),
            Dialect::Paged(_) => paged::decode_request(wire, aliases).map(|(req, _page)| req),
        }
    }

    /// `resp` as this dialect's server renders it (spotmart's with the
    /// market price), decoded as its client reads it. A pagely listing is
    /// rendered as its whole page chain, which the client walks by `next`
    /// pointers and stitches back together.
    fn reply(
        &self,
        kind: &ResponseKind,
        resp: &CanonicalResponse,
    ) -> Result<CanonicalResponse, ProviderError> {
        match self {
            Dialect::Nova | Dialect::Lagged(_) => {
                openstack::decode_response(kind, &openstack::encode_response(resp))
            }
            Dialect::Ec2 => eucalyptus::decode_response(kind, &eucalyptus::encode_response(resp)?),
            Dialect::Spot(market) => {
                spot::decode_response(kind, &spot::encode_response(resp, market.price)?)
            }
            Dialect::Paged(page_size) => {
                let CanonicalResponse::Instances(recs) = resp else {
                    return paged::decode_response(kind, &paged::encode_response(resp)?);
                };
                let pages = paged::encode_paged_instances(recs, *page_size);
                let mut fetched = Vec::new();
                let mut cursor = Some(0usize);
                while let Some(p) = cursor {
                    // A real client issues list_page_request(p) here; the
                    // in-process server indexes the pre-rendered chain.
                    let wire = pages.get(p).cloned().ok_or_else(|| {
                        ProviderError::Translation(format!("page {p} past the end"))
                    })?;
                    cursor = paged::next_page(&wire)?;
                    fetched.push(wire);
                }
                paged::decode_paged_instances(&fetched)
            }
        }
    }
}

impl Market {
    /// [`serve`] behind the market: an ask is refused while the price
    /// sits above the bid, and an outbid instance reads as
    /// [`CanonicalStatus::Preempted`] until it is released.
    fn serve(
        &mut self,
        cloud: &mut CloudController,
        user: &str,
        req: &CanonicalRequest,
        now: SimTime,
    ) -> Result<CanonicalResponse, ProviderError> {
        // `tick` outbids every billable instance whenever the price
        // crosses the bid, so no live token exists while it sits above:
        // refusing before `serve` never turns away an idempotent replay.
        if matches!(req, CanonicalRequest::LaunchInstance { .. }) && self.price > self.bid {
            return Err(ProviderError::Backend(format!(
                "ask refused: spot price {:.4} above bid {:.4}",
                self.price, self.bid
            )));
        }
        Ok(match serve(cloud, user, req, now)? {
            CanonicalResponse::Instances(mut recs) => {
                let outbid = self
                    .outbid
                    .iter()
                    .filter_map(|&id| cloud.instance(InstanceId(id)))
                    .filter(|i| i.owner == user);
                recs.extend(outbid.map(|i| InstanceRecord {
                    status: CanonicalStatus::Preempted,
                    ..record_of(i)
                }));
                recs.sort_by_key(|r| r.id);
                CanonicalResponse::Instances(recs)
            }
            CanonicalResponse::Instance(mut rec) => {
                if self.outbid.contains(&rec.id) {
                    rec.status = CanonicalStatus::Preempted;
                }
                CanonicalResponse::Instance(rec)
            }
            CanonicalResponse::Terminated { id } => {
                self.outbid.remove(&id);
                CanonicalResponse::Terminated { id }
            }
            other => other,
        })
    }

    /// Walk the price once for every minute elapsed by `now`. A step
    /// that ends above the bid outbids every running instance.
    fn tick(&mut self, cloud: &mut CloudController, now: SimTime) {
        let minute = now.as_nanos() / (60 * 1_000_000_000);
        while self.last_tick_min < minute {
            self.last_tick_min += 1;
            // Geometric walk, clamped to [floor, ceiling].
            let step = self.rng.range_f64(-0.18, 0.22);
            self.price = (self.price * (1.0 + step)).clamp(self.floor, self.ceiling);
            if self.price > self.bid {
                let doomed: Vec<InstanceId> = cloud
                    .all_instances()
                    .filter(|i| i.billable())
                    .map(|i| i.id)
                    .collect();
                let t = SimTime(self.last_tick_min * 60 * 1_000_000_000);
                for id in doomed {
                    if cloud.terminate(id, t).is_ok() {
                        self.outbid.insert(id.0);
                    }
                }
            }
        }
    }
}

fn record_of(inst: &Instance) -> InstanceRecord {
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

fn not_found(id: u64) -> ProviderError {
    ProviderError::Backend(format!("not found: instance {id}"))
}

/// `user`'s instance `id`, or the backend's "not found" — the owner
/// check every by-id request passes through.
fn owned(cloud: &CloudController, user: &str, id: u64) -> Result<InstanceRecord, ProviderError> {
    cloud
        .instance(InstanceId(id))
        .filter(|i| i.owner == user)
        .map(record_of)
        .ok_or_else(|| not_found(id))
}

/// The canonical backend: run one decoded request against `cloud` as
/// `user`. Flavor names arrive native (the server halves decode with
/// empty alias tables) and listings come back in id order.
///
/// A launch whose client token (`name`) matches a live instance of
/// `user` returns that instance instead of booting a twin; terminate and
/// describe reach only `user`'s own instances. Scheduling failures are
/// [`ProviderError::Backend`].
fn serve(
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

/// Lagoon's backend. Writes, the client-token dedupe included, go to
/// [`serve`] and stay strongly consistent; list and describe render the
/// backend as it stood `lag` ago. A fresh launch is invisible for the
/// window and a terminated instance lingers looking alive, so a router
/// that trusts a listing to dedupe launches double-boots here — what the
/// client-token contract and the audit oracle exist to catch.
fn serve_lagged(
    cloud: &mut CloudController,
    lag: SimDuration,
    user: &str,
    req: &CanonicalRequest,
    now: SimTime,
) -> Result<CanonicalResponse, ProviderError> {
    // A write becomes visible to reads only once `lag` has passed since
    // it happened.
    let as_of = |inst: &Instance| {
        if inst.launched_at + lag > now {
            return None; // launch not yet visible
        }
        match inst.terminated_at {
            // Termination old enough to have propagated: gone from reads.
            Some(t) if t + lag <= now => None,
            // Terminated inside the window: reads still say it is up.
            Some(_) => Some(InstanceRecord {
                status: CanonicalStatus::Active,
                ..record_of(inst)
            }),
            None => Some(record_of(inst)),
        }
    };
    Ok(match *req {
        CanonicalRequest::ListInstances => {
            CanonicalResponse::Instances(cloud.instances_of(user).filter_map(as_of).collect())
        }
        CanonicalRequest::DescribeInstance { id } => CanonicalResponse::Instance(
            cloud
                .instances_of(user)
                .filter_map(as_of)
                .find(|r| r.id == id)
                .ok_or_else(|| not_found(id))?,
        ),
        _ => return serve(cloud, user, req, now),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireResponse;

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
                Provider::eucalyptus("cloud-a", cloud, aliases())
            } else {
                Provider::openstack("cloud-a", cloud, aliases())
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
    fn billable_instance_is_ground_truth_by_id() {
        let mut p = Provider::openstack(
            "cloud-a",
            CloudController::with_racks("cloud-a", 1),
            aliases(),
        );
        let mut launched =
            |user: &str, token: &str, t: u64| match p.call(user, &launch(token), SimTime(t)) {
                Ok(CanonicalResponse::Launched(rec)) => rec.id,
                other => panic!("{other:?}"),
            };
        let a = launched("alice", "vm1", 0);
        let b = launched("bob", "vm2", 1);
        p.call(
            "alice",
            &CanonicalRequest::TerminateInstance { id: a },
            SimTime(2),
        )
        .expect("terminates");
        let truth = p.ground_truth();
        for user in ["alice", "bob"] {
            for id in [a, b, b + 1] {
                let want = truth.iter().find(|(owner, r)| owner == user && r.id == id);
                let got = p.billable_instance(user, id);
                assert_eq!(got.is_some(), want.is_some(), "{user}'s instance {id}");
                if let (Some(got), Some((_, want))) = (got, want) {
                    assert_eq!(Some(got.flavor.vcpus), want.vcpus);
                }
            }
        }
    }

    #[test]
    fn launch_is_idempotent_by_token() {
        let mut p = Provider::openstack(
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
        let mut p = Provider::eucalyptus(
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

    fn both_dialects() -> [Provider; 2] {
        [
            Provider::openstack("adler", CloudController::with_racks("adler", 1), aliases()),
            Provider::eucalyptus(
                "sullivan",
                CloudController::with_racks("sullivan", 1),
                aliases(),
            ),
        ]
    }

    fn listing(p: &mut Provider, user: &str, t: u64) -> Vec<InstanceRecord> {
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
    fn assert_foreign_terminate_refused(mut p: Provider) {
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

    /// Alice's `req`, sent as `wire`, as one dialect's server half
    /// (`decode` with native alias tables) and [`serve`] answer it: the
    /// response that dialect's `encode_response` puts on the wire.
    fn served(
        cloud: &mut CloudController,
        wire: Result<WireRequest, ProviderError>,
        decode: impl Fn(&WireRequest, &AliasTables) -> Result<CanonicalRequest, ProviderError>,
    ) -> CanonicalResponse {
        let server_req = decode(&wire.expect("encodes"), &AliasTables::default()).expect("decodes");
        serve(cloud, "alice", &server_req, SimTime::ZERO).expect("serves")
    }

    fn json_text(wire: WireResponse) -> String {
        match wire {
            WireResponse::Json(v) => serde_json::to_string(&v).expect("serializes"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nova_replies_are_byte_exact() {
        let mut cloud = CloudController::with_racks("adler", 1);
        let mut reply = |req: CanonicalRequest| {
            let wire = openstack::encode_request(&req, &aliases());
            json_text(openstack::encode_response(&served(
                &mut cloud,
                wire,
                openstack::decode_request,
            )))
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
        let mut reply = |req: CanonicalRequest| {
            let wire = eucalyptus::encode_request(&req, &aliases());
            let resp = served(&mut cloud, wire, eucalyptus::decode_request);
            match eucalyptus::encode_response(&resp).expect("renders") {
                WireResponse::Xml(xml) => xml,
                other => panic!("{other:?}"),
            }
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

    #[test]
    fn spot_replies_are_byte_exact() {
        let mut cloud = CloudController::with_racks("spotmart", 1);
        let mut reply = |req: CanonicalRequest| {
            let wire = spot::encode_request(&req, &aliases());
            let resp = served(&mut cloud, wire, spot::decode_request);
            json_text(spot::encode_response(&resp, 0.0775).expect("renders"))
        };
        assert_eq!(
            reply(launch("vm1")),
            r#"{"vm":{"cores":1,"id":1,"image":1,"shape":"m1.small","state":"fulfilled","token":"vm1"}}"#
        );
        assert_eq!(
            reply(CanonicalRequest::ListInstances),
            r#"{"fleet":[{"cores":1,"id":1,"image":1,"shape":"m1.small","state":"fulfilled","token":"vm1"}],"spot_price":0.0775}"#
        );
        assert_eq!(
            reply(CanonicalRequest::TerminateInstance { id: 1 }),
            r#"{"vm":{"id":1,"state":"released"}}"#
        );
        assert_eq!(
            reply(CanonicalRequest::ListInstances),
            r#"{"fleet":[],"spot_price":0.0775}"#
        );
    }

    #[test]
    fn pagely_replies_are_byte_exact() {
        let mut cloud = CloudController::with_racks("pagely", 1);
        let mut reply = |req: CanonicalRequest| {
            let wire = paged::encode_request(&req, &aliases());
            let resp = served(&mut cloud, wire, |w, t| {
                paged::decode_request(w, t).map(|(req, _page)| req)
            });
            let pages = match &resp {
                CanonicalResponse::Instances(recs) => paged::encode_paged_instances(recs, 3),
                other => vec![paged::encode_response(other).expect("renders")],
            };
            pages.into_iter().map(json_text).collect::<Vec<_>>()
        };
        let item = |id: u64| {
            format!(
                r#"{{"cores":1,"image":1,"label":"vm{id}","state":"online","type":"m1.small","uuid":{id}}}"#
            )
        };
        assert_eq!(
            reply(launch("vm1")),
            [format!(r#"{{"instance":{}}}"#, item(1))]
        );
        for name in ["vm2", "vm3", "vm4"] {
            reply(launch(name));
        }
        // Four instances at page size 3: two pages chained by `next`.
        assert_eq!(
            reply(CanonicalRequest::ListInstances),
            [
                format!(
                    r#"{{"instances":[{},{},{}],"next":1,"page":0,"pages":2}}"#,
                    item(1),
                    item(2),
                    item(3)
                ),
                format!(
                    r#"{{"instances":[{}],"next":null,"page":1,"pages":2}}"#,
                    item(4)
                ),
            ]
        );
        assert_eq!(
            reply(CanonicalRequest::TerminateInstance { id: 1 }),
            [r#"{"instance":{"state":"deleted","uuid":1}}"#]
        );
        assert_eq!(
            reply(CanonicalRequest::ListInstances),
            [format!(
                r#"{{"instances":[{},{},{}],"next":null,"page":0,"pages":1}}"#,
                item(2),
                item(3),
                item(4)
            )]
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
        let mut swapped = Provider::eucalyptus("adler", nova.cloud, aliases());
        assert_eq!(
            common_fields(CanonicalResponse::Instances(listing(
                &mut swapped,
                "alice",
                11
            ))),
            common_fields(CanonicalResponse::Instances(listed))
        );
    }

    const SEC: u64 = 1_000_000_000;

    fn market(floor: f64, ceiling: f64, bid: f64) -> Provider {
        Provider::spot(
            "spotmart",
            CloudController::with_racks("spotmart", 1),
            aliases(),
            0x5907,
            floor,
            ceiling,
            bid,
        )
    }

    #[test]
    fn price_above_bid_refuses_and_preempts() {
        // Floor above bid: the first tick pins the market above the bid.
        let mut m = market(0.50, 0.60, 0.10);
        let Dialect::Spot(market) = &mut m.dialect else {
            panic!()
        };
        market.price = 0.05; // launch window before the first tick
        m.call("alice", &launch("vm1"), SimTime::ZERO)
            .expect("launches");
        assert_eq!(m.ground_truth().len(), 1);
        m.tick(SimTime(60 * SEC));
        assert!(m.spot_price().expect("a market") >= 0.50);
        assert!(m.ground_truth().is_empty(), "preempted = not billable");
        // Listing shows the corpse as `outbid` → canonical Preempted.
        assert_eq!(
            listing(&mut m, "alice", 61 * SEC)[0].status,
            CanonicalStatus::Preempted
        );
        // And new asks are refused while the market is above the bid.
        let err = m
            .call("alice", &launch("vm2"), SimTime(62 * SEC))
            .expect_err("refused");
        assert!(matches!(err, ProviderError::Backend(_)), "{err}");
    }

    fn lagoon(lag_secs: u64) -> Provider {
        Provider::lagged(
            "lagoon",
            CloudController::with_racks("lagoon", 1),
            aliases(),
            SimDuration::from_secs(lag_secs),
        )
    }

    #[test]
    fn fresh_launch_is_invisible_until_the_lag_passes() {
        let mut p = lagoon(30);
        p.call("alice", &launch("vm1"), SimTime(10 * SEC))
            .expect("launches");
        assert!(
            listing(&mut p, "alice", 15 * SEC).is_empty(),
            "inside the lag window"
        );
        assert_eq!(listing(&mut p, "alice", 41 * SEC).len(), 1, "window passed");
    }

    #[test]
    fn terminated_instance_lingers_looking_alive() {
        let mut p = lagoon(30);
        let CanonicalResponse::Launched(rec) = p
            .call("alice", &launch("vm1"), SimTime::ZERO)
            .expect("launches")
        else {
            panic!()
        };
        p.call(
            "alice",
            &CanonicalRequest::TerminateInstance { id: rec.id },
            SimTime(100 * SEC),
        )
        .expect("terminates");
        assert!(p.ground_truth().is_empty(), "truth is immediate");
        let ghosts = listing(&mut p, "alice", 110 * SEC);
        assert_eq!(ghosts.len(), 1, "read path still shows it");
        assert_eq!(ghosts[0].status, CanonicalStatus::Active);
        assert!(
            listing(&mut p, "alice", 131 * SEC).is_empty(),
            "lag passed, ghost gone"
        );
    }

    #[test]
    fn writes_stay_strongly_consistent() {
        let mut p = lagoon(3600);
        let CanonicalResponse::Launched(a) = p
            .call("alice", &launch("vm1"), SimTime::ZERO)
            .expect("launches")
        else {
            panic!()
        };
        // Token dedupe works even while the listing shows nothing.
        assert!(listing(&mut p, "alice", 1).is_empty());
        let CanonicalResponse::Launched(b) = p
            .call("alice", &launch("vm1"), SimTime(SEC))
            .expect("relaunches")
        else {
            panic!()
        };
        assert_eq!(a.id, b.id, "no double boot through the fog");
    }
}
