//! "Spotmart" — a deliberately weird provider: spot pricing with
//! preemption.
//!
//! The wire is REST/JSON but with its own nouns (`fleet`, `shape`,
//! `token`) and its own state vocabulary (`fulfilled`, `outbid`, …). The
//! market price walks once per simulated minute between a floor and a
//! ceiling; while it sits above the console's standing bid the market
//! refuses new asks *and preempts running instances*, which is exactly
//! the event the failover router must survive. Everything else is
//! `provider::serve`; the provider adds only the bid refusal,
//! the `outbid` overlay on reads and the price on replies.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::BTreeMap;

use osdc_compute::cloud::CloudController;
use osdc_compute::instance::InstanceId;
use osdc_sim::{SimDuration, SimRng, SimTime};
use serde_json::{json, Value};

use crate::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, FlavorRecord, ImageRecord,
    InstanceRecord, ProviderError,
};
use crate::openstack::ResponseKind;
use crate::provider::{billable_ground_truth, record_of, serve, CapabilityDescriptor, Provider};
use crate::wire::{json_u32, WireRequest, WireResponse};

/// Spotmart's state vocabulary.
fn spot_state(status: CanonicalStatus) -> &'static str {
    match status {
        CanonicalStatus::Build => "bid_pending",
        CanonicalStatus::Active => "fulfilled",
        CanonicalStatus::Shutoff => "parked",
        CanonicalStatus::Terminated => "released",
        CanonicalStatus::Preempted => "outbid",
    }
}

fn parse_spot_state(s: &str) -> Result<CanonicalStatus, ProviderError> {
    Ok(match s {
        "bid_pending" => CanonicalStatus::Build,
        "fulfilled" => CanonicalStatus::Active,
        "parked" => CanonicalStatus::Shutoff,
        "released" => CanonicalStatus::Terminated,
        "outbid" => CanonicalStatus::Preempted,
        other => {
            return Err(ProviderError::Translation(format!(
                "unknown spotmart state {other:?}"
            )))
        }
    })
}

/// Encode a canonical request onto the spotmart wire.
pub fn encode_request(
    req: &CanonicalRequest,
    aliases: &AliasTables,
) -> Result<WireRequest, ProviderError> {
    Ok(match req {
        CanonicalRequest::ListInstances => WireRequest::rest("GET", "/spot/fleet", None),
        CanonicalRequest::LaunchInstance {
            name,
            flavor,
            image,
        } => WireRequest::rest(
            "POST",
            "/spot/fleet",
            Some(json!({"ask": {
                "token": name,
                "shape": aliases.native_flavor(flavor),
                "image": image,
            }})),
        ),
        CanonicalRequest::TerminateInstance { id } => {
            WireRequest::rest("DELETE", format!("/spot/fleet/{id}"), None)
        }
        CanonicalRequest::DescribeInstance { id } => {
            WireRequest::rest("GET", format!("/spot/fleet/{id}"), None)
        }
        CanonicalRequest::ListFlavors => WireRequest::rest("GET", "/spot/shapes", None),
        CanonicalRequest::ListImages => WireRequest::rest("GET", "/spot/images", None),
    })
}

/// Decode a spotmart wire request (the server half).
pub fn decode_request(
    wire: &WireRequest,
    aliases: &AliasTables,
) -> Result<CanonicalRequest, ProviderError> {
    let WireRequest::Rest { method, path, body } = wire else {
        return Err(ProviderError::Translation(
            "spotmart expects REST requests".into(),
        ));
    };
    match (method.as_str(), path.as_str()) {
        ("GET", "/spot/fleet") => Ok(CanonicalRequest::ListInstances),
        ("GET", "/spot/shapes") => Ok(CanonicalRequest::ListFlavors),
        ("GET", "/spot/images") => Ok(CanonicalRequest::ListImages),
        ("POST", "/spot/fleet") => {
            let ask = body
                .as_ref()
                .and_then(|b| b.get("ask"))
                .ok_or_else(|| ProviderError::Translation("missing 'ask' object".into()))?;
            Ok(CanonicalRequest::LaunchInstance {
                name: ask["token"]
                    .as_str()
                    .ok_or_else(|| ProviderError::Translation("missing ask.token".into()))?
                    .to_string(),
                flavor: aliases.unified_flavor(
                    ask["shape"]
                        .as_str()
                        .ok_or_else(|| ProviderError::Translation("missing ask.shape".into()))?,
                ),
                image: ask["image"]
                    .as_u64()
                    .ok_or_else(|| ProviderError::Translation("missing ask.image".into()))?,
            })
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/spot/fleet/") {
                let id: u64 = rest
                    .parse()
                    .map_err(|_| ProviderError::Translation(format!("bad fleet id '{rest}'")))?;
                return match method.as_str() {
                    "GET" => Ok(CanonicalRequest::DescribeInstance { id }),
                    "DELETE" => Ok(CanonicalRequest::TerminateInstance { id }),
                    other => Err(ProviderError::Translation(format!("{other} {path}"))),
                };
            }
            Err(ProviderError::Translation(format!("{method} {path}")))
        }
    }
}

fn render_vm(rec: &InstanceRecord) -> Value {
    let mut vm = json!({
        "id": rec.id,
        "token": rec.name,
        "state": spot_state(rec.status),
        "shape": rec.flavor,
    });
    if let Some(cores) = rec.vcpus {
        vm["cores"] = json!(cores);
    }
    if let Some(image) = rec.image {
        vm["image"] = json!(image);
    }
    vm
}

fn vm_of(item: &Value) -> Result<InstanceRecord, ProviderError> {
    Ok(InstanceRecord {
        id: item["id"]
            .as_u64()
            .ok_or_else(|| ProviderError::Translation("missing vm id".into()))?,
        name: item["token"]
            .as_str()
            .ok_or_else(|| ProviderError::Translation("missing vm token".into()))?
            .to_string(),
        status: parse_spot_state(
            item["state"]
                .as_str()
                .ok_or_else(|| ProviderError::Translation("missing vm state".into()))?,
        )?,
        flavor: item["shape"].as_str().unwrap_or("").to_string(),
        vcpus: json_u32(&item["cores"], "cores")?,
        image: item["image"].as_u64(),
    })
}

/// Encode a canonical response as a spotmart reply; list replies carry
/// the current market price.
pub fn encode_response(
    resp: &CanonicalResponse,
    spot_price: f64,
) -> Result<WireResponse, ProviderError> {
    Ok(WireResponse::Json(match resp {
        CanonicalResponse::Instances(recs) => json!({
            "fleet": recs.iter().map(render_vm).collect::<Vec<_>>(),
            "spot_price": spot_price,
        }),
        CanonicalResponse::Launched(rec) => json!({"vm": render_vm(rec)}),
        CanonicalResponse::Instance(rec) => json!({"vm": render_vm(rec)}),
        CanonicalResponse::Terminated { id } => {
            json!({"vm": {"id": id, "state": "released"}})
        }
        CanonicalResponse::Flavors(fls) => json!({"shapes": fls
            .iter()
            .map(|f| json!({"shape": f.name, "cores": f.vcpus, "ram_mb": f.ram_mb, "disk_gb": f.disk_gb}))
            .collect::<Vec<_>>()}),
        CanonicalResponse::Images(imgs) => json!({"images": imgs
            .iter()
            .map(|i| json!({"id": i.id, "name": i.name}))
            .collect::<Vec<_>>()}),
    }))
}

/// Pull the market price off a spotmart list reply, if present. The
/// registry uses this for cost accounting ("provider-reported cost
/// fields", Stage 18 idiom).
pub fn decode_spot_price(wire: &WireResponse) -> Option<f64> {
    match wire {
        WireResponse::Json(v) => v["spot_price"].as_f64(),
        WireResponse::Xml(_) => None,
    }
}

/// Decode a spotmart reply into canonical form.
pub fn decode_response(
    kind: &ResponseKind,
    wire: &WireResponse,
) -> Result<CanonicalResponse, ProviderError> {
    let WireResponse::Json(v) = wire else {
        return Err(ProviderError::Translation(
            "spotmart expects JSON responses".into(),
        ));
    };
    match kind {
        ResponseKind::Instances => Ok(CanonicalResponse::Instances(
            v["fleet"]
                .as_array()
                .ok_or_else(|| ProviderError::Translation("missing 'fleet' array".into()))?
                .iter()
                .map(vm_of)
                .collect::<Result<_, _>>()?,
        )),
        ResponseKind::Launch { .. } => Ok(CanonicalResponse::Launched(vm_of(&v["vm"])?)),
        ResponseKind::Describe => Ok(CanonicalResponse::Instance(vm_of(&v["vm"])?)),
        ResponseKind::Terminate { .. } => Ok(CanonicalResponse::Terminated {
            id: v["vm"]["id"]
                .as_u64()
                .ok_or_else(|| ProviderError::Translation("missing vm id".into()))?,
        }),
        ResponseKind::Flavors => Ok(CanonicalResponse::Flavors(
            v["shapes"]
                .as_array()
                .ok_or_else(|| ProviderError::Translation("missing 'shapes' array".into()))?
                .iter()
                .map(|f| {
                    Ok(FlavorRecord {
                        name: f["shape"]
                            .as_str()
                            .ok_or_else(|| ProviderError::Translation("missing shape name".into()))?
                            .to_string(),
                        vcpus: json_u32(&f["cores"], "cores")?.unwrap_or(0),
                        ram_mb: f["ram_mb"].as_u64().unwrap_or(0),
                        disk_gb: f["disk_gb"].as_u64().unwrap_or(0),
                    })
                })
                .collect::<Result<_, ProviderError>>()?,
        )),
        ResponseKind::Images => Ok(CanonicalResponse::Images(
            v["images"]
                .as_array()
                .ok_or_else(|| ProviderError::Translation("missing 'images' array".into()))?
                .iter()
                .map(|i| {
                    Ok(ImageRecord {
                        id: i["id"]
                            .as_u64()
                            .ok_or_else(|| ProviderError::Translation("missing image id".into()))?,
                        name: i["name"].as_str().unwrap_or("").to_string(),
                    })
                })
                .collect::<Result<_, ProviderError>>()?,
        )),
    }
}

/// The spotmart provider: market price walk + preemption over a real
/// backend cloud.
pub struct SpotProvider {
    name: String,
    pub cloud: CloudController,
    aliases: AliasTables,
    rng: SimRng,
    price: f64,
    floor: f64,
    ceiling: f64,
    /// The console's standing bid in $/core-hour. While the market sits
    /// above it, new asks are refused and running instances are outbid.
    pub bid: f64,
    last_tick_min: u64,
    /// Instances preempted but not yet reaped from listings: id → token.
    outbid: BTreeMap<u64, String>,
    /// Preemptions since construction (scorecard food).
    pub preemptions: u64,
}

impl SpotProvider {
    pub fn new(
        name: impl Into<String>,
        cloud: CloudController,
        aliases: AliasTables,
        seed: u64,
        floor: f64,
        ceiling: f64,
        bid: f64,
    ) -> Self {
        let mid = (floor + ceiling) / 2.0;
        SpotProvider {
            name: name.into(),
            cloud,
            aliases,
            rng: SimRng::new(seed),
            price: mid,
            floor,
            ceiling,
            bid,
            last_tick_min: 0,
            outbid: BTreeMap::new(),
            preemptions: 0,
        }
    }

    pub fn price(&self) -> f64 {
        self.price
    }
}

impl Provider for SpotProvider {
    fn name(&self) -> &str {
        &self.name
    }

    fn descriptor(&self) -> CapabilityDescriptor {
        CapabilityDescriptor {
            api_latency: SimDuration::from_millis(25),
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
        let wire = encode_request(req, &self.aliases)?;
        let server_req = decode_request(&wire, &AliasTables::default())?;
        // `tick` outbids every billable instance whenever the price
        // crosses the bid, so no live token exists while it sits above:
        // refusing before `serve` never turns away an idempotent replay.
        if matches!(server_req, CanonicalRequest::LaunchInstance { .. }) && self.price > self.bid {
            return Err(ProviderError::Backend(format!(
                "ask refused: spot price {:.4} above bid {:.4}",
                self.price, self.bid
            )));
        }
        let resp = match serve(&mut self.cloud, user, &server_req, now)? {
            // Outbid instances stay listed as `outbid` until released.
            CanonicalResponse::Instances(mut recs) => {
                let outbid = self
                    .outbid
                    .keys()
                    .filter_map(|&id| self.cloud.instance(InstanceId(id)))
                    .filter(|i| i.owner == user);
                recs.extend(outbid.map(|i| InstanceRecord {
                    status: CanonicalStatus::Preempted,
                    ..record_of(i)
                }));
                recs.sort_by_key(|r| r.id);
                CanonicalResponse::Instances(recs)
            }
            CanonicalResponse::Instance(mut rec) => {
                if self.outbid.contains_key(&rec.id) {
                    rec.status = CanonicalStatus::Preempted;
                }
                CanonicalResponse::Instance(rec)
            }
            CanonicalResponse::Terminated { id } => {
                self.outbid.remove(&id);
                CanonicalResponse::Terminated { id }
            }
            other => other,
        };
        decode_response(&ResponseKind::of(req), &encode_response(&resp, self.price)?)
    }

    fn tick(&mut self, now: SimTime) {
        let minute = now.as_nanos() / (60 * 1_000_000_000);
        while self.last_tick_min < minute {
            self.last_tick_min += 1;
            // Geometric walk, clamped to [floor, ceiling].
            let step = self.rng.range_f64(-0.18, 0.22);
            self.price = (self.price * (1.0 + step)).clamp(self.floor, self.ceiling);
            if self.price > self.bid {
                // Market moved above the bid: every running instance is
                // outbid and reclaimed.
                let doomed: Vec<(InstanceId, String)> = self
                    .cloud
                    .all_instances()
                    .filter(|i| i.billable())
                    .map(|i| (i.id, i.name.clone()))
                    .collect();
                let t = SimTime(self.last_tick_min * 60 * 1_000_000_000);
                for (id, token) in doomed {
                    if self.cloud.terminate(id, t).is_ok() {
                        self.outbid.insert(id.0, token);
                        self.preemptions += 1;
                    }
                }
            }
        }
    }

    fn spot_price(&self) -> Option<f64> {
        Some(self.price)
    }

    fn ground_truth(&self) -> Vec<(String, InstanceRecord)> {
        billable_ground_truth(&self.cloud)
    }

    fn roundtrip_request(&self, req: &CanonicalRequest) -> Result<CanonicalRequest, ProviderError> {
        decode_request(&encode_request(req, &self.aliases)?, &self.aliases)
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

    fn market(floor: f64, ceiling: f64, bid: f64) -> SpotProvider {
        SpotProvider::new(
            "spotmart",
            CloudController::with_racks("spotmart", 1),
            aliases(),
            0x5907,
            floor,
            ceiling,
            bid,
        )
    }

    fn launch(name: &str) -> CanonicalRequest {
        CanonicalRequest::LaunchInstance {
            name: name.into(),
            flavor: "small".into(),
            image: 1,
        }
    }

    #[test]
    fn launch_and_list_through_the_weird_wire() {
        let mut m = market(0.01, 0.05, 1.0); // bid far above ceiling: never preempts
        let CanonicalResponse::Launched(rec) = m
            .call("alice", &launch("vm1"), SimTime::ZERO)
            .expect("launches")
        else {
            panic!()
        };
        assert_eq!(rec.name, "vm1");
        let CanonicalResponse::Instances(recs) = m
            .call("alice", &CanonicalRequest::ListInstances, SimTime(1))
            .expect("lists")
        else {
            panic!()
        };
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].status, CanonicalStatus::Active);
    }

    #[test]
    fn price_above_bid_refuses_and_preempts() {
        // Floor above bid: the first tick pins the market above the bid.
        let mut m = market(0.50, 0.60, 0.10);
        m.price = 0.05; // launch window before the first tick
        m.call("alice", &launch("vm1"), SimTime::ZERO)
            .expect("launches");
        assert_eq!(m.ground_truth().len(), 1);
        m.tick(SimTime(60 * 1_000_000_000));
        assert!(m.price >= 0.50);
        assert_eq!(m.preemptions, 1, "running instance outbid");
        assert!(m.ground_truth().is_empty(), "preempted = not billable");
        // Listing shows the corpse as `outbid` → canonical Preempted.
        let CanonicalResponse::Instances(recs) = m
            .call(
                "alice",
                &CanonicalRequest::ListInstances,
                SimTime(61 * 1_000_000_000),
            )
            .expect("lists")
        else {
            panic!()
        };
        assert_eq!(recs[0].status, CanonicalStatus::Preempted);
        // And new asks are refused while the market is above the bid.
        let err = m
            .call("alice", &launch("vm2"), SimTime(62 * 1_000_000_000))
            .expect_err("refused");
        assert!(matches!(err, ProviderError::Backend(_)), "{err}");
    }

    #[test]
    fn spot_price_rides_the_list_reply() {
        let resp = CanonicalResponse::Instances(vec![]);
        let wire = encode_response(&resp, 0.042).expect("encodes");
        assert_eq!(decode_spot_price(&wire), Some(0.042));
        assert_eq!(
            decode_response(&ResponseKind::Instances, &wire).expect("decodes"),
            resp
        );
    }

    #[test]
    fn requests_roundtrip() {
        let t = aliases();
        for req in [
            CanonicalRequest::ListInstances,
            launch("vm1"),
            CanonicalRequest::TerminateInstance { id: 3 },
            CanonicalRequest::DescribeInstance { id: 3 },
            CanonicalRequest::ListFlavors,
            CanonicalRequest::ListImages,
        ] {
            let wire = encode_request(&req, &t).expect("encodes");
            assert_eq!(decode_request(&wire, &t).expect("decodes"), req);
        }
    }
}
