//! Decoder fuzzing: every parser on the provider call path returns
//! `Err` or a value on hostile wire, and never panics.
//!
//! Every `Provider::call` runs its dialect's server half
//! (`decode_request`) as well as its client half (`decode_response`), so
//! both read bytes they did not write. Each property feeds the decoders
//! arbitrary input and valid wire with a few byte edits (overwrite,
//! insert, delete, truncate), in the style of
//! `tukey_properties.rs::cloud_mapping_loader_never_panics`. The JSON
//! replies also get structural edits: a random subtree over the
//! dialects' own vocabulary grafted into a valid reply, which reaches
//! the decoders' inner fields far more often than byte noise does. A
//! decoder that refuses its input must say so as a typed
//! `Translation` (or, for a shape the dialect has no words for,
//! `Unsupported`) error; that includes a JSON count too large for `u32`.

use osdc_providers::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, FlavorRecord, ImageRecord,
    InstanceRecord, ProviderError,
};
use osdc_providers::openstack::ResponseKind;
use osdc_providers::wire::{parse_query, xml_values, WireRequest, WireResponse};
use osdc_providers::{eucalyptus, openstack, osdc_aliases, paged, spot};
use proptest::prelude::*;
use proptest::TestRng;
use serde_json::{json, Map, Value};

// ------------------------------------------------------------------ inputs

/// Apply byte edits to `valid`: (op, position, byte) with op 0 =
/// overwrite, 1 = insert, 2 = delete, anything else = truncate.
fn mutate(valid: &str, edits: &[(u8, u16, u8)]) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    for &(op, at, byte) in edits {
        let at = at as usize % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn pick<'a, T>(items: &'a [T], rng: &mut TestRng) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

fn requests() -> Vec<CanonicalRequest> {
    vec![
        CanonicalRequest::ListInstances,
        CanonicalRequest::LaunchInstance {
            name: "vm1".into(),
            flavor: "small".into(),
            image: 1,
        },
        CanonicalRequest::TerminateInstance { id: 42 },
        CanonicalRequest::DescribeInstance { id: 42 },
        CanonicalRequest::ListFlavors,
        CanonicalRequest::ListImages,
    ]
}

/// Every valid request any dialect sends, as the wire carries it.
fn valid_requests() -> Vec<WireRequest> {
    let t = osdc_aliases();
    let mut out = vec![paged::list_page_request(3)];
    for req in requests() {
        out.extend(openstack::encode_request(&req, &t).ok());
        out.extend(eucalyptus::encode_request(&req, &t).ok());
        out.extend(spot::encode_request(&req, &t).ok());
        out.extend(paged::encode_request(&req, &t).ok());
    }
    out
}

/// A REST request as one text: `METHOD PATH`, a newline, the JSON body.
fn rest_text(method: &str, path: &str, body: Option<&Value>) -> String {
    let body = body.map(|b| serde_json::to_string(b).expect("serializes"));
    format!("{method} {path}\n{}", body.unwrap_or_default())
}

/// Read a (possibly mangled) REST text back: the body is `None` when it
/// no longer parses.
fn rest_of(text: &str) -> WireRequest {
    let (head, body) = text.split_once('\n').unwrap_or((text, ""));
    let (method, path) = head.split_once(' ').unwrap_or((head, ""));
    WireRequest::rest(method, path, serde_json::from_str(body).ok())
}

fn record(id: u64) -> InstanceRecord {
    InstanceRecord {
        id,
        name: format!("vm{id}"),
        status: CanonicalStatus::Active,
        flavor: "m1.small".into(),
        vcpus: Some(1),
        image: Some(1),
    }
}

fn responses() -> Vec<CanonicalResponse> {
    vec![
        CanonicalResponse::Instances(vec![record(1), record(2)]),
        CanonicalResponse::Launched(record(3)),
        CanonicalResponse::Terminated { id: 4 },
        CanonicalResponse::Instance(record(5)),
        CanonicalResponse::Flavors(vec![FlavorRecord {
            name: "m1.small".into(),
            vcpus: 1,
            ram_mb: 2048,
            disk_gb: 20,
        }]),
        CanonicalResponse::Images(vec![ImageRecord {
            id: 1,
            name: "ubuntu-base".into(),
        }]),
    ]
}

/// Every valid JSON reply a JSON dialect renders, pagely's page chain
/// included.
fn valid_json_replies() -> Vec<Value> {
    let mut out = Vec::new();
    for resp in responses() {
        out.push(openstack::encode_response(&resp));
        out.extend(spot::encode_response(&resp, 0.042).ok());
        out.extend(paged::encode_response(&resp).ok());
    }
    out.extend(paged::encode_paged_instances(
        &[record(1), record(2), record(3)],
        2,
    ));
    out.into_iter()
        .filter_map(|w| match w {
            WireResponse::Json(v) => Some(v),
            WireResponse::Xml(_) => None,
        })
        .collect()
}

fn valid_xml_replies() -> Vec<String> {
    responses()
        .iter()
        .filter_map(|resp| match eucalyptus::encode_response(resp) {
            Ok(WireResponse::Xml(xml)) => Some(xml),
            _ => None,
        })
        .collect()
}

/// Keys and words the dialects read, so random trees hit real fields.
const KEYS: [&str; 31] = [
    "server",
    "servers",
    "id",
    "name",
    "status",
    "flavor",
    "vcpus",
    "image",
    "flavors",
    "images",
    "ram",
    "disk",
    "fleet",
    "vm",
    "token",
    "state",
    "shape",
    "cores",
    "shapes",
    "ram_mb",
    "disk_gb",
    "spot_price",
    "instance",
    "instances",
    "uuid",
    "label",
    "type",
    "types",
    "page",
    "pages",
    "next",
];
const WORDS: [&str; 10] = [
    "ACTIVE",
    "DELETED",
    "fulfilled",
    "outbid",
    "online",
    "reclaimed",
    "m1.small",
    "",
    "i-0000002a",
    "\u{1F4A5}",
];

/// A number from the edges decoders narrow or cast: zero, the `u32`
/// boundary, the extremes of `u64`/`i64`/`f64`, or a random magnitude.
fn arb_number(rng: &mut TestRng) -> Value {
    let boundary = u64::from(u32::MAX);
    match rng.below(4) {
        0 => json!(*pick(&[0, 1, boundary, boundary + 1, u64::MAX], rng)),
        1 => json!(rng.next_u64() >> rng.below(64)),
        2 => json!(*pick(&[-1, i64::MIN], rng)),
        _ => json!(*pick(&[0.5, -0.5, 1e300, -1e300, f64::MAX], rng)),
    }
}

/// A random JSON tree over the dialects' vocabulary.
fn arb_json(rng: &mut TestRng, depth: u32) -> Value {
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2..=3 => arb_number(rng),
        4..=5 => json!(*pick(&WORDS, rng)),
        6 => Value::Array(
            (0..rng.below(4))
                .map(|_| arb_json(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let mut m = Map::new();
            for _ in 0..rng.below(5) {
                m.insert(pick(&KEYS, rng).to_string(), arb_json(rng, depth - 1));
            }
            Value::Object(m)
        }
    }
}

fn node_count(v: &Value) -> usize {
    1 + match v {
        Value::Object(m) => m.values().map(node_count).sum(),
        Value::Array(a) => a.iter().map(node_count).sum(),
        _ => 0,
    }
}

/// Replace node `k` of `v` (in preorder) with a random tree; false when
/// `v` has no node `k`, with `k` reduced by the nodes passed over.
fn replace_nth(v: &mut Value, k: &mut usize, rng: &mut TestRng) -> bool {
    if *k == 0 {
        *v = arb_json(rng, 2);
        return true;
    }
    *k -= 1;
    match v {
        Value::Object(m) => m.values_mut().any(|c| replace_nth(c, k, rng)),
        Value::Array(a) => a.iter_mut().any(|c| replace_nth(c, k, rng)),
        _ => false,
    }
}

/// Replace 1–3 uniformly chosen subtrees of `valid` with random trees.
fn grafted(valid: &Value, rng: &mut TestRng) -> Value {
    let mut v = valid.clone();
    for _ in 0..1 + rng.below(3) {
        let mut k = rng.below(node_count(&v) as u64) as usize;
        replace_nth(&mut v, &mut k, rng);
    }
    v
}

// --------------------------------------------------------------- decoders

fn kinds() -> [ResponseKind; 6] {
    [
        ResponseKind::Instances,
        ResponseKind::Launch { name: "vm1".into() },
        ResponseKind::Terminate { id: 4 },
        ResponseKind::Describe,
        ResponseKind::Flavors,
        ResponseKind::Images,
    ]
}

/// A refusal must be a typed translation failure.
fn assert_typed<T>(result: Result<T, ProviderError>) {
    if let Err(e) = result {
        assert!(
            matches!(
                e,
                ProviderError::Translation(_) | ProviderError::Unsupported(_)
            ),
            "untyped refusal: {e}"
        );
    }
}

/// Every server half, under the empty tables `call` uses and the fleet
/// tables `roundtrip_request` uses.
fn decode_request_everywhere(wire: &WireRequest) {
    for t in [AliasTables::default(), osdc_aliases()] {
        assert_typed(openstack::decode_request(wire, &t));
        assert_typed(eucalyptus::decode_request(wire, &t));
        assert_typed(spot::decode_request(wire, &t));
        assert_typed(paged::decode_request(wire, &t));
    }
    if let WireRequest::Query(q) = wire {
        let params = parse_query(q);
        assert!(params.len() <= q.split('&').count());
    }
}

/// Every client half, plus pagely's page walk and spotmart's price.
fn decode_response_everywhere(wire: &WireResponse) {
    for kind in kinds() {
        assert_typed(openstack::decode_response(&kind, wire));
        assert_typed(eucalyptus::decode_response(&kind, wire));
        assert_typed(spot::decode_response(&kind, wire));
        assert_typed(paged::decode_response(&kind, wire));
    }
    assert_typed(paged::next_page(wire));
    assert_typed(paged::decode_paged_instances(std::slice::from_ref(wire)));
    assert_typed(paged::decode_paged_instances(&[wire.clone(), wire.clone()]));
    let _ = spot::decode_spot_price(wire);
    if let WireResponse::Xml(xml) = wire {
        for tag in ["instanceId", "name", "imageId", ""] {
            for value in xml_values(xml, tag) {
                assert!(xml.contains(value));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Server halves and the query scanner: arbitrary text, every valid
    /// request of every dialect with byte edits, and every request body
    /// with grafted subtrees.
    #[test]
    fn request_decoders_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        edits in prop::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..6),
        seed: u64,
    ) {
        let rng = &mut TestRng::new(seed);
        let noise = String::from_utf8_lossy(&noise).into_owned();
        decode_request_everywhere(&WireRequest::Query(noise.clone()));
        decode_request_everywhere(&rest_of(&noise));
        for wire in valid_requests() {
            let text = match &wire {
                WireRequest::Rest { method, path, body } => {
                    if let Some(body) = body {
                        decode_request_everywhere(&WireRequest::rest(
                            method,
                            path.clone(),
                            Some(grafted(body, rng)),
                        ));
                    }
                    rest_text(method, path, body.as_ref())
                }
                WireRequest::Query(q) => q.clone(),
            };
            let mutated = mutate(&text, &edits);
            decode_request_everywhere(&WireRequest::Query(mutated.clone()));
            decode_request_everywhere(&rest_of(&mutated));
        }
    }

    /// Client halves on JSON: arbitrary text, byte-edited valid replies
    /// and valid replies with a random subtree grafted in.
    #[test]
    fn json_response_decoders_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        edits in prop::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..6),
        seed: u64,
    ) {
        let rng = &mut TestRng::new(seed);
        if let Ok(v) = serde_json::from_str::<Value>(&String::from_utf8_lossy(&noise)) {
            decode_response_everywhere(&WireResponse::Json(v));
        }
        decode_response_everywhere(&WireResponse::Json(arb_json(rng, 4)));
        for valid in valid_json_replies() {
            let text = serde_json::to_string(&valid).expect("serializes");
            if let Ok(v) = serde_json::from_str::<Value>(&mutate(&text, &edits)) {
                decode_response_everywhere(&WireResponse::Json(v));
            }
            decode_response_everywhere(&WireResponse::Json(grafted(&valid, rng)));
        }
    }

    /// Client halves and the tag scanner on XML: arbitrary text and
    /// byte-edited valid EC2 replies.
    #[test]
    fn xml_response_decoders_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        edits in prop::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..6),
    ) {
        decode_response_everywhere(&WireResponse::Xml(
            String::from_utf8_lossy(&noise).into_owned(),
        ));
        for valid in valid_xml_replies() {
            decode_response_everywhere(&WireResponse::Xml(mutate(&valid, &edits)));
        }
    }
}

/// The unedited samples decode cleanly, so the properties above start
/// from wire each dialect really accepts.
#[test]
fn valid_samples_decode() {
    for wire in valid_requests() {
        let accepted = [
            openstack::decode_request(&wire, &AliasTables::default()).is_ok(),
            eucalyptus::decode_request(&wire, &AliasTables::default()).is_ok(),
            spot::decode_request(&wire, &AliasTables::default()).is_ok(),
            paged::decode_request(&wire, &AliasTables::default()).is_ok(),
        ];
        assert!(accepted.contains(&true), "{wire:?}");
    }
    for v in valid_json_replies() {
        let wire = WireResponse::Json(v);
        let accepted = kinds().iter().any(|kind| {
            openstack::decode_response(kind, &wire).is_ok()
                || spot::decode_response(kind, &wire).is_ok()
                || paged::decode_response(kind, &wire).is_ok()
        });
        assert!(accepted, "{wire:?}");
    }
    for xml in valid_xml_replies() {
        let wire = WireResponse::Xml(xml);
        assert!(
            kinds()
                .iter()
                .any(|kind| eucalyptus::decode_response(kind, &wire).is_ok()),
            "{wire:?}"
        );
    }
}

type Decode = fn(&ResponseKind, &WireResponse) -> Result<CanonicalResponse, ProviderError>;
/// `(label, decoder, reply kind, decoded reply, wire reply, count field)`.
type CountCase<'a> = (
    &'a str,
    Decode,
    ResponseKind,
    &'a CanonicalResponse,
    WireResponse,
    fn(&mut Value) -> &mut Value,
);

/// The JSON dialects carry counts (`vcpus`, `cores`) as JSON integers. A
/// count past `u32::MAX` is refused with a typed `Translation` error
/// instead of wrapping, and `u32::MAX` itself still decodes exactly.
#[test]
fn out_of_range_counts_are_translation_errors() {
    let rec = InstanceRecord {
        vcpus: Some(u32::MAX),
        ..record(1)
    };
    // Nova renders a server's flavor only in listings.
    let listing = CanonicalResponse::Instances(vec![rec.clone()]);
    let instance = CanonicalResponse::Instance(rec);
    let flavors = CanonicalResponse::Flavors(vec![FlavorRecord {
        name: "m1.small".into(),
        vcpus: u32::MAX,
        ram_mb: 2048,
        disk_gb: 20,
    }]);
    let encode_spot = |r: &CanonicalResponse| spot::encode_response(r, 0.042).expect("encodes");
    let encode_paged = |r: &CanonicalResponse| paged::encode_response(r).expect("encodes");
    let cases: [CountCase; 6] = [
        (
            "openstack instance",
            openstack::decode_response,
            ResponseKind::Instances,
            &listing,
            openstack::encode_response(&listing),
            |v| &mut v["servers"][0]["flavor"]["vcpus"],
        ),
        (
            "openstack flavors",
            openstack::decode_response,
            ResponseKind::Flavors,
            &flavors,
            openstack::encode_response(&flavors),
            |v| &mut v["flavors"][0]["vcpus"],
        ),
        (
            "spot instance",
            spot::decode_response,
            ResponseKind::Describe,
            &instance,
            encode_spot(&instance),
            |v| &mut v["vm"]["cores"],
        ),
        (
            "spot flavors",
            spot::decode_response,
            ResponseKind::Flavors,
            &flavors,
            encode_spot(&flavors),
            |v| &mut v["shapes"][0]["cores"],
        ),
        (
            "paged instance",
            paged::decode_response,
            ResponseKind::Describe,
            &instance,
            encode_paged(&instance),
            |v| &mut v["instance"]["cores"],
        ),
        (
            "paged flavors",
            paged::decode_response,
            ResponseKind::Flavors,
            &flavors,
            encode_paged(&flavors),
            |v| &mut v["types"][0]["cores"],
        ),
    ];
    for (name, decode, kind, want, wire, count) in cases {
        assert_eq!(decode(&kind, &wire).as_ref(), Ok(want), "{name}");
        let WireResponse::Json(mut v) = wire else {
            panic!("{name}: JSON reply expected");
        };
        assert_eq!(count(&mut v).as_u64(), Some(u64::from(u32::MAX)), "{name}");
        *count(&mut v) = json!((1u64 << 32) + 1);
        let got = decode(&kind, &WireResponse::Json(v));
        assert!(
            matches!(got, Err(ProviderError::Translation(_))),
            "{name}: {got:?}"
        );
    }
}
