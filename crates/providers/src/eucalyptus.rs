//! Eucalyptus (EC2 query / XML) translator: canonical ⇄ wire.
//!
//! Both halves of the dialect live here. The client half reproduces,
//! byte for byte, the query strings the original Tukey proxy sent
//! (`Action=RunInstances&ImageId=emi-…`) and decodes the XML replies;
//! the server half decodes those query strings and renders the replies
//! that a [`crate::provider::ClassicProvider`] serves, so every EC2
//! spelling (`i-0000002a`, `emi-…`, `running`) lives in this module.
//! Decode failures are *typed* — a malformed instance id or an unknown
//! state word is a [`ProviderError::Translation`], never silently
//! dropped.

use crate::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, ImageRecord, InstanceRecord,
    ProviderError,
};
use crate::openstack::ResponseKind;
use crate::wire::{parse_query, xml_values, WireRequest, WireResponse};

fn parse_ec2_id(s: &str) -> Result<u64, ProviderError> {
    s.strip_prefix("i-")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| ProviderError::Translation(format!("bad ec2 instance id {s:?}")))
}

fn parse_emi(s: &str) -> Result<u64, ProviderError> {
    s.strip_prefix("emi-")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| ProviderError::Translation(format!("bad emi image id {s:?}")))
}

fn parse_state(s: &str) -> Result<CanonicalStatus, ProviderError> {
    CanonicalStatus::from_ec2(s)
        .ok_or_else(|| ProviderError::Translation(format!("unknown ec2 state {s:?}")))
}

/// Encode a canonical request as an EC2 query string, resolving unified
/// names through `aliases`. The launch's client token rides as
/// `ClientToken`. Flavor listings and per-instance describes have no
/// wire form in this dialect ([`ProviderError::Unsupported`]).
pub fn encode_request(
    req: &CanonicalRequest,
    aliases: &AliasTables,
) -> Result<WireRequest, ProviderError> {
    Ok(WireRequest::Query(match req {
        CanonicalRequest::ListInstances => "Action=DescribeInstances".to_string(),
        CanonicalRequest::LaunchInstance {
            name,
            flavor,
            image,
        } => format!(
            "Action=RunInstances&ImageId=emi-{image:08x}&InstanceType={}&ClientToken={name}",
            aliases.native_flavor(flavor)
        ),
        CanonicalRequest::TerminateInstance { id } => {
            format!("Action=TerminateInstances&InstanceId.1=i-{id:08x}")
        }
        CanonicalRequest::DescribeInstance { .. } => {
            return Err(ProviderError::Unsupported(
                "ec2-query dialect has no per-instance describe".into(),
            ))
        }
        CanonicalRequest::ListFlavors => {
            return Err(ProviderError::Unsupported(
                "ec2-query dialect has no flavor listing".into(),
            ))
        }
        CanonicalRequest::ListImages => "Action=DescribeImages".to_string(),
    }))
}

/// Decode an EC2 query string back into canonical form (the server half).
pub fn decode_request(
    wire: &WireRequest,
    aliases: &AliasTables,
) -> Result<CanonicalRequest, ProviderError> {
    let WireRequest::Query(q) = wire else {
        return Err(ProviderError::Translation(
            "ec2-query dialect expects query-string requests".into(),
        ));
    };
    let params = parse_query(q);
    match params.get("Action").copied() {
        Some("DescribeInstances") => Ok(CanonicalRequest::ListInstances),
        Some("DescribeImages") => Ok(CanonicalRequest::ListImages),
        Some("RunInstances") => {
            let image = params
                .get("ImageId")
                .ok_or_else(|| ProviderError::Translation("missing ImageId".into()))
                .and_then(|s| parse_emi(s))?;
            let flavor = params
                .get("InstanceType")
                .ok_or_else(|| ProviderError::Translation("missing InstanceType".into()))?;
            let name = params
                .get("ClientToken")
                .copied()
                .unwrap_or("euca-instance");
            Ok(CanonicalRequest::LaunchInstance {
                name: name.to_string(),
                flavor: aliases.unified_flavor(flavor),
                image,
            })
        }
        Some("TerminateInstances") => {
            let id = params
                .get("InstanceId.1")
                .ok_or_else(|| ProviderError::Translation("missing InstanceId.1".into()))
                .and_then(|s| parse_ec2_id(s))?;
            Ok(CanonicalRequest::TerminateInstance { id })
        }
        Some(other) => Err(ProviderError::Translation(format!(
            "unsupported Action={other}"
        ))),
        None => Err(ProviderError::Translation("missing Action".into())),
    }
}

/// Encode a canonical response as the backend's XML (the server half).
pub fn encode_response(resp: &CanonicalResponse) -> Result<WireResponse, ProviderError> {
    Ok(WireResponse::Xml(match resp {
        CanonicalResponse::Instances(recs) => {
            let items: String = recs
                .iter()
                .map(|r| {
                    format!(
                        "<item><instanceId>i-{:08x}</instanceId><instanceType>{}</instanceType>\
                         <instanceState><name>{}</name></instanceState></item>",
                        r.id,
                        r.flavor,
                        r.status.ec2()
                    )
                })
                .collect();
            format!(
                "<DescribeInstancesResponse><reservationSet>{items}</reservationSet>\
                 </DescribeInstancesResponse>"
            )
        }
        CanonicalResponse::Launched(rec) => format!(
            "<RunInstancesResponse><instancesSet><item><instanceId>i-{:08x}</instanceId>\
             <imageId>emi-{:08x}</imageId><instanceState><name>{}</name></instanceState>\
             </item></instancesSet></RunInstancesResponse>",
            rec.id,
            rec.image.unwrap_or(0),
            rec.status.ec2()
        ),
        CanonicalResponse::Terminated { id } => format!(
            "<TerminateInstancesResponse><instancesSet><item><instanceId>i-{id:08x}</instanceId>\
             <currentState><name>terminated</name></currentState></item></instancesSet>\
             </TerminateInstancesResponse>"
        ),
        CanonicalResponse::Images(imgs) => {
            let items: String = imgs
                .iter()
                .map(|i| {
                    format!(
                        "<item><imageId>emi-{:08x}</imageId><name>{}</name></item>",
                        i.id, i.name
                    )
                })
                .collect();
            format!(
                "<DescribeImagesResponse><imagesSet>{items}</imagesSet></DescribeImagesResponse>"
            )
        }
        CanonicalResponse::Instance(_) | CanonicalResponse::Flavors(_) => {
            return Err(ProviderError::Unsupported(
                "response has no ec2-query wire form".into(),
            ))
        }
    }))
}

/// Decode backend XML into canonical form (the client half). Fields the
/// wire does not carry decode to their empty forms: list records get
/// `name` = the ec2 id string (what the old proxy displayed), launch
/// records get an empty flavor.
pub fn decode_response(
    kind: &ResponseKind,
    wire: &WireResponse,
) -> Result<CanonicalResponse, ProviderError> {
    let WireResponse::Xml(xml) = wire else {
        return Err(ProviderError::Translation(
            "ec2-query dialect expects XML responses".into(),
        ));
    };
    match kind {
        ResponseKind::Instances => {
            let ids = xml_values(xml, "instanceId");
            let types = xml_values(xml, "instanceType");
            let states = xml_values(xml, "name");
            if ids.len() != types.len() || ids.len() != states.len() {
                return Err(ProviderError::Translation(format!(
                    "ragged DescribeInstances reply: {} ids, {} types, {} states",
                    ids.len(),
                    types.len(),
                    states.len()
                )));
            }
            let mut recs = Vec::with_capacity(ids.len());
            for ((iid, ty), st) in ids.iter().zip(&types).zip(&states) {
                recs.push(InstanceRecord {
                    id: parse_ec2_id(iid)?,
                    name: iid.to_string(),
                    status: parse_state(st)?,
                    flavor: ty.to_string(),
                    vcpus: None,
                    image: None,
                });
            }
            Ok(CanonicalResponse::Instances(recs))
        }
        ResponseKind::Launch { name } => {
            let iid = xml_values(xml, "instanceId")
                .first()
                .copied()
                .ok_or_else(|| {
                    ProviderError::Translation("RunInstances reply without instanceId".into())
                })
                .and_then(parse_ec2_id)?;
            let image = match xml_values(xml, "imageId").first() {
                Some(emi) => Some(parse_emi(emi)?),
                None => None,
            };
            let status = xml_values(xml, "name")
                .first()
                .copied()
                .ok_or_else(|| {
                    ProviderError::Translation("RunInstances reply without state".into())
                })
                .and_then(parse_state)?;
            Ok(CanonicalResponse::Launched(InstanceRecord {
                id: iid,
                name: name.clone(),
                status,
                flavor: String::new(),
                vcpus: None,
                image,
            }))
        }
        ResponseKind::Terminate { .. } => {
            let iid = xml_values(xml, "instanceId")
                .first()
                .copied()
                .ok_or_else(|| {
                    ProviderError::Translation("TerminateInstances reply without instanceId".into())
                })
                .and_then(parse_ec2_id)?;
            Ok(CanonicalResponse::Terminated { id: iid })
        }
        ResponseKind::Images => {
            let ids = xml_values(xml, "imageId");
            let names = xml_values(xml, "name");
            if ids.len() != names.len() {
                return Err(ProviderError::Translation(format!(
                    "ragged DescribeImages reply: {} ids, {} names",
                    ids.len(),
                    names.len()
                )));
            }
            let mut imgs = Vec::with_capacity(ids.len());
            for (emi, name) in ids.iter().zip(&names) {
                imgs.push(ImageRecord {
                    id: parse_emi(emi)?,
                    name: name.to_string(),
                });
            }
            Ok(CanonicalResponse::Images(imgs))
        }
        ResponseKind::Describe | ResponseKind::Flavors => Err(ProviderError::Unsupported(
            "ec2-query dialect has no reply form for this request".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_query_matches_the_original_proxy() {
        let mut aliases = AliasTables::default();
        aliases.flavors.insert("small".into(), "m1.small".into());
        let wire = encode_request(
            &CanonicalRequest::LaunchInstance {
                name: "vm1".into(),
                flavor: "small".into(),
                image: 3,
            },
            &aliases,
        )
        .expect("encodes");
        assert_eq!(
            wire,
            WireRequest::Query(
                "Action=RunInstances&ImageId=emi-00000003&InstanceType=m1.small&ClientToken=vm1"
                    .into()
            )
        );
    }

    #[test]
    fn ec2_id_format() {
        // EC2 ids are eight lowercase hex digits, on requests and replies.
        let id = 0xAB;
        assert_eq!(
            encode_request(
                &CanonicalRequest::TerminateInstance { id },
                &AliasTables::default()
            )
            .expect("encodes"),
            WireRequest::Query("Action=TerminateInstances&InstanceId.1=i-000000ab".into())
        );
        let WireResponse::Xml(xml) =
            encode_response(&CanonicalResponse::Terminated { id }).expect("renders")
        else {
            panic!()
        };
        assert!(xml.contains("<instanceId>i-000000ab</instanceId>"), "{xml}");
        assert_eq!(parse_ec2_id("i-000000ab").expect("parses"), id);
    }

    #[test]
    fn requests_roundtrip() {
        let mut aliases = AliasTables::default();
        aliases.flavors.insert("small".into(), "m1.small".into());
        for req in [
            CanonicalRequest::ListInstances,
            CanonicalRequest::ListImages,
            CanonicalRequest::TerminateInstance { id: 0xbeef },
            CanonicalRequest::LaunchInstance {
                name: "vm9".into(),
                flavor: "small".into(),
                image: 7,
            },
        ] {
            let wire = encode_request(&req, &aliases).expect("encodes");
            assert_eq!(decode_request(&wire, &aliases).expect("decodes"), req);
        }
        assert!(matches!(
            encode_request(&CanonicalRequest::ListFlavors, &aliases),
            Err(ProviderError::Unsupported(_))
        ));
    }

    #[test]
    fn describe_roundtrip_and_strict_decode() {
        let resp = CanonicalResponse::Instances(vec![InstanceRecord {
            id: 1,
            name: "i-00000001".into(),
            status: CanonicalStatus::Active,
            flavor: "m1.small".into(),
            vcpus: None,
            image: None,
        }]);
        let wire = encode_response(&resp).expect("encodes");
        assert_eq!(
            decode_response(&ResponseKind::Instances, &wire).expect("decodes"),
            resp
        );
        // Unknown state words are typed errors, not silent passthrough.
        let bad = WireResponse::Xml(
            "<DescribeInstancesResponse><reservationSet><item>\
             <instanceId>i-00000001</instanceId><instanceType>m1.small</instanceType>\
             <instanceState><name>melting</name></instanceState></item>\
             </reservationSet></DescribeInstancesResponse>"
                .into(),
        );
        assert!(matches!(
            decode_response(&ResponseKind::Instances, &bad),
            Err(ProviderError::Translation(_))
        ));
    }

    #[test]
    fn launch_reply_decodes_like_the_backend_emits() {
        // Exactly what the server half renders for a fresh launch.
        let xml = WireResponse::Xml(
            "<RunInstancesResponse><instancesSet><item><instanceId>i-00000002</instanceId>\
             <imageId>emi-00000003</imageId><instanceState><name>running</name></instanceState>\
             </item></instancesSet></RunInstancesResponse>"
                .into(),
        );
        let got =
            decode_response(&ResponseKind::Launch { name: "vm1".into() }, &xml).expect("decodes");
        let CanonicalResponse::Launched(rec) = got else {
            panic!()
        };
        assert_eq!(rec.id, 2);
        assert_eq!(rec.name, "vm1");
        assert_eq!(rec.status, CanonicalStatus::Active);
        assert_eq!(rec.image, Some(3));
    }
}
