//! OpenStack (Nova-style REST/JSON) translator: canonical ⇄ wire.
//!
//! This is the dialect the console itself speaks, so the translation is
//! nearly transparent — which is precisely why it anchors the runtime:
//! `figure1_tukey` must stay byte-identical with Tukey routed through
//! these functions, pinning the canonical types to the pre-runtime
//! behavior.

use serde_json::{json, Value};

use crate::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, FlavorRecord, ImageRecord,
    InstanceRecord, ProviderError,
};
use crate::wire::{json_u32, WireRequest, WireResponse};

/// Nova's word for each [`CanonicalStatus`], in declaration order. No
/// 2012 stack had a word for a preempted instance; OpenStack-format
/// consoles render it `PREEMPTED`.
pub(crate) const STATUS_WORDS: [&str; 5] = ["BUILD", "ACTIVE", "SHUTOFF", "DELETED", "PREEMPTED"];

/// What response shape to expect back, derived from the request that was
/// sent. Wire replies don't always echo enough to decode standalone (a
/// Nova `DELETE` returns `{}`), so the decoder carries this context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseKind {
    Instances,
    Launch { name: String },
    Terminate { id: u64 },
    Describe,
    Flavors,
    Images,
}

impl ResponseKind {
    pub fn of(req: &CanonicalRequest) -> ResponseKind {
        match req {
            CanonicalRequest::ListInstances => ResponseKind::Instances,
            CanonicalRequest::LaunchInstance { name, .. } => {
                ResponseKind::Launch { name: name.clone() }
            }
            CanonicalRequest::TerminateInstance { id } => ResponseKind::Terminate { id: *id },
            CanonicalRequest::DescribeInstance { .. } => ResponseKind::Describe,
            CanonicalRequest::ListFlavors => ResponseKind::Flavors,
            CanonicalRequest::ListImages => ResponseKind::Images,
        }
    }
}

/// Encode a canonical request into the Nova dialect, resolving unified
/// flavor/image names through `aliases`.
pub fn encode_request(
    req: &CanonicalRequest,
    aliases: &AliasTables,
) -> Result<WireRequest, ProviderError> {
    Ok(match req {
        CanonicalRequest::ListInstances => WireRequest::rest("GET", "/servers", None),
        CanonicalRequest::LaunchInstance {
            name,
            flavor,
            image,
        } => WireRequest::rest(
            "POST",
            "/servers",
            Some(json!({"server": {
                "name": name,
                "flavorRef": aliases.native_flavor(flavor),
                "imageRef": image,
            }})),
        ),
        CanonicalRequest::TerminateInstance { id } => {
            WireRequest::rest("DELETE", format!("/servers/{id}"), None)
        }
        CanonicalRequest::DescribeInstance { id } => {
            WireRequest::rest("GET", format!("/servers/{id}"), None)
        }
        CanonicalRequest::ListFlavors => WireRequest::rest("GET", "/flavors", None),
        CanonicalRequest::ListImages => WireRequest::rest("GET", "/images", None),
    })
}

/// Decode a wire request back into canonical form (the server half of
/// the dialect, run on every call in front of `provider::serve`).
pub fn decode_request(
    wire: &WireRequest,
    aliases: &AliasTables,
) -> Result<CanonicalRequest, ProviderError> {
    let WireRequest::Rest { method, path, body } = wire else {
        return Err(ProviderError::Translation(
            "openstack dialect expects REST requests".into(),
        ));
    };
    match (method.as_str(), path.as_str()) {
        ("GET", "/servers") => Ok(CanonicalRequest::ListInstances),
        ("GET", "/flavors") => Ok(CanonicalRequest::ListFlavors),
        ("GET", "/images") => Ok(CanonicalRequest::ListImages),
        ("POST", "/servers") => {
            let server = body
                .as_ref()
                .and_then(|b| b.get("server"))
                .ok_or_else(|| ProviderError::Translation("missing 'server' object".into()))?;
            let name = server
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| ProviderError::Translation("missing server.name".into()))?;
            let flavor = server
                .get("flavorRef")
                .and_then(Value::as_str)
                .ok_or_else(|| ProviderError::Translation("missing server.flavorRef".into()))?;
            let image = server
                .get("imageRef")
                .and_then(Value::as_u64)
                .ok_or_else(|| ProviderError::Translation("missing server.imageRef".into()))?;
            Ok(CanonicalRequest::LaunchInstance {
                name: name.to_string(),
                flavor: aliases.unified_flavor(flavor),
                image,
            })
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/servers/") {
                let id: u64 = rest
                    .parse()
                    .map_err(|_| ProviderError::Translation(format!("bad server id '{rest}'")))?;
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

/// Render one instance as a Nova `GET /servers` item. Fields the record
/// does not carry (`vcpus`, `image`) are omitted — matching what the
/// pre-runtime proxy emitted for records translated from other dialects.
pub fn render_instance(rec: &InstanceRecord) -> Value {
    let mut flavor = json!({"name": rec.flavor});
    if let Some(vcpus) = rec.vcpus {
        flavor["vcpus"] = json!(vcpus);
    }
    let mut item = json!({
        "id": rec.id,
        "name": rec.name,
        "status": rec.status.word(&STATUS_WORDS),
        "flavor": flavor,
    });
    if let Some(image) = rec.image {
        item["image"] = json!({"id": image});
    }
    item
}

/// Render a launch result as the Nova `POST /servers` reply body.
pub fn render_launch(rec: &InstanceRecord) -> Value {
    json!({"server": {
        "id": rec.id,
        "name": rec.name,
        "status": rec.status.word(&STATUS_WORDS),
    }})
}

/// Encode a canonical response as the Nova dialect's reply (the server
/// half).
pub fn encode_response(resp: &CanonicalResponse) -> WireResponse {
    WireResponse::Json(match resp {
        CanonicalResponse::Instances(recs) => {
            json!({"servers": recs.iter().map(render_instance).collect::<Vec<_>>()})
        }
        CanonicalResponse::Launched(rec) => render_launch(rec),
        CanonicalResponse::Terminated { .. } => json!({}),
        CanonicalResponse::Instance(rec) => json!({"server": {
            "id": rec.id,
            "name": rec.name,
            "status": rec.status.word(&STATUS_WORDS),
        }}),
        CanonicalResponse::Flavors(fls) => json!({"flavors": fls
            .iter()
            .map(|f| json!({"name": f.name, "vcpus": f.vcpus, "ram": f.ram_mb, "disk": f.disk_gb}))
            .collect::<Vec<_>>()}),
        CanonicalResponse::Images(imgs) => json!({"images": imgs
            .iter()
            .map(|i| json!({"id": i.id, "name": i.name}))
            .collect::<Vec<_>>()}),
    })
}

fn instance_of(item: &Value) -> Result<InstanceRecord, ProviderError> {
    Ok(InstanceRecord {
        id: item["id"]
            .as_u64()
            .ok_or_else(|| ProviderError::Translation("missing instance id".into()))?,
        name: item["name"]
            .as_str()
            .ok_or_else(|| ProviderError::Translation("missing instance name".into()))?
            .to_string(),
        status: CanonicalStatus::from_word(
            &STATUS_WORDS,
            item["status"]
                .as_str()
                .ok_or_else(|| ProviderError::Translation("missing status".into()))?,
            "openstack status",
        )?,
        flavor: item["flavor"]["name"].as_str().unwrap_or("").to_string(),
        vcpus: json_u32(&item["flavor"]["vcpus"], "vcpus")?,
        image: item["image"]["id"].as_u64(),
    })
}

/// Decode a Nova reply into canonical form (the client half).
pub fn decode_response(
    kind: &ResponseKind,
    wire: &WireResponse,
) -> Result<CanonicalResponse, ProviderError> {
    let WireResponse::Json(v) = wire else {
        return Err(ProviderError::Translation(
            "openstack dialect expects JSON responses".into(),
        ));
    };
    match kind {
        ResponseKind::Instances => {
            let servers = v["servers"]
                .as_array()
                .ok_or_else(|| ProviderError::Translation("missing 'servers' array".into()))?;
            Ok(CanonicalResponse::Instances(
                servers.iter().map(instance_of).collect::<Result<_, _>>()?,
            ))
        }
        ResponseKind::Launch { .. } => Ok(CanonicalResponse::Launched(instance_of(&v["server"])?)),
        ResponseKind::Terminate { id } => Ok(CanonicalResponse::Terminated { id: *id }),
        ResponseKind::Describe => Ok(CanonicalResponse::Instance(instance_of(&v["server"])?)),
        ResponseKind::Flavors => {
            let flavors = v["flavors"]
                .as_array()
                .ok_or_else(|| ProviderError::Translation("missing 'flavors' array".into()))?;
            Ok(CanonicalResponse::Flavors(
                flavors
                    .iter()
                    .map(|f| {
                        Ok(FlavorRecord {
                            name: f["name"]
                                .as_str()
                                .ok_or_else(|| {
                                    ProviderError::Translation("missing flavor name".into())
                                })?
                                .to_string(),
                            vcpus: json_u32(&f["vcpus"], "vcpus")?.unwrap_or(0),
                            ram_mb: f["ram"].as_u64().unwrap_or(0),
                            disk_gb: f["disk"].as_u64().unwrap_or(0),
                        })
                    })
                    .collect::<Result<_, ProviderError>>()?,
            ))
        }
        ResponseKind::Images => {
            let images = v["images"]
                .as_array()
                .ok_or_else(|| ProviderError::Translation("missing 'images' array".into()))?;
            Ok(CanonicalResponse::Images(
                images
                    .iter()
                    .map(|i| {
                        Ok(ImageRecord {
                            id: i["id"].as_u64().ok_or_else(|| {
                                ProviderError::Translation("missing image id".into())
                            })?,
                            name: i["name"].as_str().unwrap_or("").to_string(),
                        })
                    })
                    .collect::<Result<_, ProviderError>>()?,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aliases() -> AliasTables {
        let mut t = AliasTables::default();
        t.flavors.insert("small".into(), "m1.small".into());
        t.images.insert("ubuntu".into(), 3);
        t
    }

    #[test]
    fn launch_encodes_with_alias_resolution() {
        let req = CanonicalRequest::LaunchInstance {
            name: "vm1".into(),
            flavor: "small".into(),
            image: 3,
        };
        let wire = encode_request(&req, &aliases()).expect("encodes");
        let WireRequest::Rest { method, path, body } = &wire else {
            panic!("REST expected");
        };
        assert_eq!((method.as_str(), path.as_str()), ("POST", "/servers"));
        let body = body.as_ref().expect("body");
        assert_eq!(body["server"]["flavorRef"], "m1.small");
        assert_eq!(decode_request(&wire, &aliases()).expect("decodes"), req);
    }

    #[test]
    fn requests_roundtrip() {
        let t = aliases();
        for req in [
            CanonicalRequest::ListInstances,
            CanonicalRequest::TerminateInstance { id: 9 },
            CanonicalRequest::DescribeInstance { id: 4 },
            CanonicalRequest::ListFlavors,
            CanonicalRequest::ListImages,
        ] {
            let wire = encode_request(&req, &t).expect("encodes");
            assert_eq!(decode_request(&wire, &t).expect("decodes"), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resp = CanonicalResponse::Instances(vec![InstanceRecord {
            id: 7,
            name: "vm7".into(),
            status: CanonicalStatus::Active,
            flavor: "m1.large".into(),
            vcpus: Some(4),
            image: Some(2),
        }]);
        let wire = encode_response(&resp);
        assert_eq!(
            decode_response(&ResponseKind::Instances, &wire).expect("decodes"),
            resp
        );
    }

    #[test]
    fn malformed_wire_is_a_typed_error() {
        let bad = WireResponse::Json(json!({"servers": [{"id": "not-a-number"}]}));
        assert!(matches!(
            decode_response(&ResponseKind::Instances, &bad),
            Err(ProviderError::Translation(_))
        ));
        let xml = WireResponse::Xml("<servers/>".into());
        assert!(matches!(
            decode_response(&ResponseKind::Instances, &xml),
            Err(ProviderError::Translation(_))
        ));
    }
}
