//! "Spotmart" — a deliberately weird provider: spot pricing with
//! preemption. This module is its wire format.
//!
//! The wire is REST/JSON but with its own nouns (`fleet`, `shape`,
//! `token`) and its own state vocabulary (`fulfilled`, `outbid`, …), and
//! every listing reply carries the market price. The market itself —
//! the price walk, the bid refusal and the `outbid` overlay on reads —
//! is the spot dialect of [`crate::provider::Provider`].

use serde_json::{json, Value};

use crate::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, FlavorRecord, ImageRecord,
    InstanceRecord, ProviderError,
};
use crate::openstack::ResponseKind;
use crate::wire::{json_u32, WireRequest, WireResponse};

/// Spotmart's word for each [`CanonicalStatus`], in declaration order.
pub(crate) const STATUS_WORDS: [&str; 5] =
    ["bid_pending", "fulfilled", "parked", "released", "outbid"];

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
        "state": rec.status.word(&STATUS_WORDS),
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
        status: CanonicalStatus::from_word(
            &STATUS_WORDS,
            item["state"]
                .as_str()
                .ok_or_else(|| ProviderError::Translation("missing vm state".into()))?,
            "spotmart state",
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
            json!({"vm": {"id": id, "state": CanonicalStatus::Terminated.word(&STATUS_WORDS)}})
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

/// Pull the market price off a spotmart list reply, if present. Only the
/// codec tests read it: the registry prices from the provider's own
/// [`crate::provider::Provider::spot_price`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::Provider;
    use osdc_compute::cloud::CloudController;
    use osdc_sim::SimTime;

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
    fn launch_and_list_through_the_weird_wire() {
        // Bid far above the ceiling: the market never preempts.
        let mut m = Provider::spot(
            "spotmart",
            CloudController::with_racks("spotmart", 1),
            aliases(),
            0x5907,
            0.01,
            0.05,
            1.0,
        );
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
