//! "Pagely" — a deliberately weird provider: a paginated wire format.
//!
//! Listings come back split into fixed-size pages chained by a `next`
//! page number; the client must walk every page and stitch the fleet
//! back together. Page-boundary arithmetic (empty fleet, exactly one
//! page, one-past-a-boundary) is where hand-rolled pagination code
//! breaks, so the proptests hammer those edges specifically. This module
//! is the wire format; the paged dialect of
//! [`crate::provider::Provider`] serves listings as the whole chain and
//! walks it.

use serde_json::{json, Value};

use crate::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, FlavorRecord, ImageRecord,
    InstanceRecord, ProviderError,
};
use crate::openstack::ResponseKind;
use crate::wire::{json_u32, WireRequest, WireResponse};

/// Pagely's word for each [`CanonicalStatus`], in declaration order.
pub(crate) const STATUS_WORDS: [&str; 5] =
    ["provisioning", "online", "offline", "deleted", "reclaimed"];

/// Encode a canonical request onto the pagely wire. List requests name an
/// explicit page; [`list_page_request`] builds the follow-ups.
pub fn encode_request(
    req: &CanonicalRequest,
    aliases: &AliasTables,
) -> Result<WireRequest, ProviderError> {
    Ok(match req {
        CanonicalRequest::ListInstances => list_page_request(0),
        CanonicalRequest::LaunchInstance {
            name,
            flavor,
            image,
        } => WireRequest::rest(
            "POST",
            "/v2/instances",
            Some(json!({"instance": {
                "label": name,
                "type": aliases.native_flavor(flavor),
                "image": image,
            }})),
        ),
        CanonicalRequest::TerminateInstance { id } => {
            WireRequest::rest("DELETE", format!("/v2/instances/{id}"), None)
        }
        CanonicalRequest::DescribeInstance { id } => {
            WireRequest::rest("GET", format!("/v2/instances/{id}"), None)
        }
        CanonicalRequest::ListFlavors => WireRequest::rest("GET", "/v2/types", None),
        CanonicalRequest::ListImages => WireRequest::rest("GET", "/v2/images", None),
    })
}

/// The wire request for one specific listing page.
pub fn list_page_request(page: usize) -> WireRequest {
    WireRequest::rest("GET", format!("/v2/instances?page={page}"), None)
}

/// Decode a pagely wire request (the server half). Returns the request
/// plus, for listings, which page was asked for.
pub fn decode_request(
    wire: &WireRequest,
    aliases: &AliasTables,
) -> Result<(CanonicalRequest, usize), ProviderError> {
    let WireRequest::Rest { method, path, body } = wire else {
        return Err(ProviderError::Translation(
            "pagely expects REST requests".into(),
        ));
    };
    match (method.as_str(), path.as_str()) {
        ("GET", "/v2/types") => Ok((CanonicalRequest::ListFlavors, 0)),
        ("GET", "/v2/images") => Ok((CanonicalRequest::ListImages, 0)),
        ("POST", "/v2/instances") => {
            let inst = body
                .as_ref()
                .and_then(|b| b.get("instance"))
                .ok_or_else(|| ProviderError::Translation("missing 'instance' object".into()))?;
            Ok((
                CanonicalRequest::LaunchInstance {
                    name: inst["label"]
                        .as_str()
                        .ok_or_else(|| ProviderError::Translation("missing instance.label".into()))?
                        .to_string(),
                    flavor: aliases.unified_flavor(inst["type"].as_str().ok_or_else(|| {
                        ProviderError::Translation("missing instance.type".into())
                    })?),
                    image: inst["image"].as_u64().ok_or_else(|| {
                        ProviderError::Translation("missing instance.image".into())
                    })?,
                },
                0,
            ))
        }
        _ => {
            if let Some(query) = path.strip_prefix("/v2/instances?page=") {
                let page: usize = query
                    .parse()
                    .map_err(|_| ProviderError::Translation(format!("bad page '{query}'")))?;
                if method == "GET" {
                    return Ok((CanonicalRequest::ListInstances, page));
                }
            }
            if let Some(rest) = path.strip_prefix("/v2/instances/") {
                let id: u64 = rest
                    .parse()
                    .map_err(|_| ProviderError::Translation(format!("bad instance id '{rest}'")))?;
                return match method.as_str() {
                    "GET" => Ok((CanonicalRequest::DescribeInstance { id }, 0)),
                    "DELETE" => Ok((CanonicalRequest::TerminateInstance { id }, 0)),
                    other => Err(ProviderError::Translation(format!("{other} {path}"))),
                };
            }
            Err(ProviderError::Translation(format!("{method} {path}")))
        }
    }
}

fn render_item(rec: &InstanceRecord) -> Value {
    let mut item = json!({
        "uuid": rec.id,
        "label": rec.name,
        "state": rec.status.word(&STATUS_WORDS),
        "type": rec.flavor,
    });
    if let Some(cores) = rec.vcpus {
        item["cores"] = json!(cores);
    }
    if let Some(image) = rec.image {
        item["image"] = json!(image);
    }
    item
}

fn item_of(v: &Value) -> Result<InstanceRecord, ProviderError> {
    Ok(InstanceRecord {
        id: v["uuid"]
            .as_u64()
            .ok_or_else(|| ProviderError::Translation("missing uuid".into()))?,
        name: v["label"]
            .as_str()
            .ok_or_else(|| ProviderError::Translation("missing label".into()))?
            .to_string(),
        status: CanonicalStatus::from_word(
            &STATUS_WORDS,
            v["state"]
                .as_str()
                .ok_or_else(|| ProviderError::Translation("missing state".into()))?,
            "pagely state",
        )?,
        flavor: v["type"].as_str().unwrap_or("").to_string(),
        vcpus: json_u32(&v["cores"], "cores")?,
        image: v["image"].as_u64(),
    })
}

/// Split a fleet into page replies. Always at least one page (an empty
/// fleet is one empty page), each carrying its index, the page count,
/// and the next page number or `null` on the last page.
pub fn encode_paged_instances(recs: &[InstanceRecord], page_size: usize) -> Vec<WireResponse> {
    assert!(page_size > 0, "page_size must be positive");
    let pages = recs.len().div_ceil(page_size).max(1);
    (0..pages)
        .map(|p| {
            let chunk: Vec<Value> = recs
                .iter()
                .skip(p * page_size)
                .take(page_size)
                .map(render_item)
                .collect();
            let next = if p + 1 < pages {
                json!(p + 1)
            } else {
                Value::Null
            };
            WireResponse::Json(json!({
                "instances": chunk,
                "page": p,
                "pages": pages,
                "next": next,
            }))
        })
        .collect()
}

/// Which page a listing reply says comes next, if any.
pub fn next_page(wire: &WireResponse) -> Result<Option<usize>, ProviderError> {
    let WireResponse::Json(v) = wire else {
        return Err(ProviderError::Translation(
            "pagely expects JSON responses".into(),
        ));
    };
    match &v["next"] {
        Value::Null => Ok(None),
        other => other
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| ProviderError::Translation("bad 'next' page token".into())),
    }
}

/// Stitch a complete set of listing pages back into one canonical
/// response, validating the page chain (indices in order, consistent
/// page count, final `next` = null).
pub fn decode_paged_instances(pages: &[WireResponse]) -> Result<CanonicalResponse, ProviderError> {
    if pages.is_empty() {
        return Err(ProviderError::Translation("no pages to decode".into()));
    }
    let mut recs = Vec::new();
    for (idx, wire) in pages.iter().enumerate() {
        let WireResponse::Json(v) = wire else {
            return Err(ProviderError::Translation(
                "pagely expects JSON responses".into(),
            ));
        };
        let page = v["page"].as_u64().unwrap_or(u64::MAX) as usize;
        let total = v["pages"].as_u64().unwrap_or(0) as usize;
        if page != idx || total != pages.len() {
            return Err(ProviderError::Translation(format!(
                "broken page chain: got page {page}/{total} at position {idx} of {}",
                pages.len()
            )));
        }
        let expect_next = if idx + 1 < pages.len() {
            Some(idx + 1)
        } else {
            None
        };
        if next_page(wire)? != expect_next {
            return Err(ProviderError::Translation(format!(
                "broken next-pointer on page {idx}"
            )));
        }
        for item in v["instances"]
            .as_array()
            .ok_or_else(|| ProviderError::Translation("missing 'instances' array".into()))?
        {
            recs.push(item_of(item)?);
        }
    }
    Ok(CanonicalResponse::Instances(recs))
}

/// Decode a single non-listing pagely reply.
pub fn decode_response(
    kind: &ResponseKind,
    wire: &WireResponse,
) -> Result<CanonicalResponse, ProviderError> {
    let WireResponse::Json(v) = wire else {
        return Err(ProviderError::Translation(
            "pagely expects JSON responses".into(),
        ));
    };
    match kind {
        ResponseKind::Instances => decode_paged_instances(std::slice::from_ref(wire)),
        ResponseKind::Launch { .. } => Ok(CanonicalResponse::Launched(item_of(&v["instance"])?)),
        ResponseKind::Describe => Ok(CanonicalResponse::Instance(item_of(&v["instance"])?)),
        ResponseKind::Terminate { .. } => Ok(CanonicalResponse::Terminated {
            id: v["instance"]["uuid"]
                .as_u64()
                .ok_or_else(|| ProviderError::Translation("missing uuid".into()))?,
        }),
        ResponseKind::Flavors => Ok(CanonicalResponse::Flavors(
            v["types"]
                .as_array()
                .ok_or_else(|| ProviderError::Translation("missing 'types' array".into()))?
                .iter()
                .map(|f| {
                    Ok(FlavorRecord {
                        name: f["type"]
                            .as_str()
                            .ok_or_else(|| ProviderError::Translation("missing type name".into()))?
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

/// Encode a non-listing canonical response onto the pagely wire.
pub fn encode_response(resp: &CanonicalResponse) -> Result<WireResponse, ProviderError> {
    Ok(WireResponse::Json(match resp {
        CanonicalResponse::Instances(_) => {
            return Err(ProviderError::Translation(
                "listings must go through encode_paged_instances".into(),
            ))
        }
        CanonicalResponse::Launched(rec) | CanonicalResponse::Instance(rec) => {
            json!({"instance": render_item(rec)})
        }
        CanonicalResponse::Terminated { id } => {
            json!({"instance": {"uuid": id, "state": CanonicalStatus::Terminated.word(&STATUS_WORDS)}})
        }
        CanonicalResponse::Flavors(fls) => json!({"types": fls
            .iter()
            .map(|f| json!({"type": f.name, "cores": f.vcpus, "ram_mb": f.ram_mb, "disk_gb": f.disk_gb}))
            .collect::<Vec<_>>()}),
        CanonicalResponse::Images(imgs) => json!({"images": imgs
            .iter()
            .map(|i| json!({"id": i.id, "name": i.name}))
            .collect::<Vec<_>>()}),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::Provider;
    use osdc_compute::cloud::CloudController;
    use osdc_sim::SimTime;

    fn rec(id: u64) -> InstanceRecord {
        InstanceRecord {
            id,
            name: format!("vm{id}"),
            status: CanonicalStatus::Active,
            flavor: "m1.small".into(),
            vcpus: Some(1),
            image: Some(1),
        }
    }

    #[test]
    fn page_boundaries() {
        // 0, size-1, size, size+1, 2×size items across page size 4.
        for n in [0usize, 3, 4, 5, 8] {
            let fleet: Vec<InstanceRecord> = (0..n as u64).map(rec).collect();
            let pages = encode_paged_instances(&fleet, 4);
            let expect_pages = n.div_ceil(4).max(1);
            assert_eq!(pages.len(), expect_pages, "n={n}");
            let CanonicalResponse::Instances(got) =
                decode_paged_instances(&pages).expect("stitches")
            else {
                panic!()
            };
            assert_eq!(got, fleet, "n={n}");
        }
    }

    #[test]
    fn broken_chains_are_typed_errors() {
        let fleet: Vec<InstanceRecord> = (0..8).map(rec).collect();
        let pages = encode_paged_instances(&fleet, 4);
        // Drop the second page: the chain is broken.
        assert!(matches!(
            decode_paged_instances(&pages[..1]),
            Err(ProviderError::Translation(_))
        ));
        // Reorder: the page indices no longer match positions.
        let reordered = vec![pages[1].clone(), pages[0].clone()];
        assert!(matches!(
            decode_paged_instances(&reordered),
            Err(ProviderError::Translation(_))
        ));
    }

    #[test]
    fn provider_walks_every_page() {
        let mut aliases = AliasTables::default();
        aliases.flavors.insert("small".into(), "m1.small".into());
        aliases.images.insert("ubuntu-base".into(), 1);
        let mut p = Provider::paged(
            "pagely",
            CloudController::with_racks("pagely", 1),
            aliases,
            3,
        );
        for i in 0..7 {
            p.call(
                "alice",
                &CanonicalRequest::LaunchInstance {
                    name: format!("vm{i}"),
                    flavor: "small".into(),
                    image: 1,
                },
                SimTime(i),
            )
            .expect("launches");
        }
        let CanonicalResponse::Instances(recs) = p
            .call("alice", &CanonicalRequest::ListInstances, SimTime(100))
            .expect("lists")
        else {
            panic!()
        };
        assert_eq!(recs.len(), 7);
    }
}
