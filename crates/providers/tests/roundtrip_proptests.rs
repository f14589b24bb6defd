//! Dialect round-trip property tests: for every registered provider,
//! `decode(encode(x)) == x` over that dialect's representable subset.
//!
//! Each dialect has a client half (encode requests, decode responses)
//! and a server half (decode requests, encode responses); composing them
//! must be the identity, under *arbitrary injective* alias tables — the
//! per-cloud configuration files of §5.2 are operator-written, so the
//! translators must hold for any consistent table, not just the shipped
//! one. Dialects that cannot express a request (`Unsupported`) or a
//! response field (EC2's tokenless listings) are exercised on exactly
//! the subset their capability descriptors advertise.
//!
//! Pagely's paginated listings get page-boundary-specific fleet sizes on
//! top of the random sweep — empty fleet, one-below/at/one-past a
//! boundary, exactly two pages — plus chain-corruption rejection.

use osdc_providers::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, FlavorRecord, ImageRecord,
    InstanceRecord, ProviderError,
};
use osdc_providers::openstack::ResponseKind;
use osdc_providers::wire::WireResponse;
use osdc_providers::{eucalyptus, openstack, paged, spot};
use proptest::prelude::*;
use proptest::TestRng;

// ----------------------------------------------------------- value builders
//
// The offline proptest shim samples plain values, so the structured
// inputs are built from a handful of drawn integers via `TestRng`.

const STATUSES: [CanonicalStatus; 5] = [
    CanonicalStatus::Build,
    CanonicalStatus::Active,
    CanonicalStatus::Shutoff,
    CanonicalStatus::Terminated,
    CanonicalStatus::Preempted,
];

/// An injective alias table: unified names `u{i}.x{s}` and native names
/// `n{i}.x{s}` live in disjoint namespaces, so the reverse map is exact.
fn alias_tables(rng: &mut TestRng) -> AliasTables {
    let mut t = AliasTables::default();
    for i in 0..rng.below(5) {
        let s = rng.below(1000);
        t.flavors.insert(format!("u{i}.x{s}"), format!("n{i}.x{s}"));
    }
    for i in 0..rng.below(4) {
        t.images.insert(format!("img{i}"), rng.below(1000));
    }
    t
}

/// A launch flavor that survives the unified→native→unified reverse
/// map: a mapped unified name when the table has one and the coin says
/// so, otherwise a fresh name no native spelling can collide with.
fn launch_flavor(t: &AliasTables, rng: &mut TestRng) -> String {
    let mapped: Vec<&String> = t.flavors.keys().collect();
    if !mapped.is_empty() && rng.below(2) == 0 {
        mapped[rng.below(mapped.len() as u64) as usize].clone()
    } else {
        format!("f{}", rng.below(10_000))
    }
}

/// A canonical request every dialect can express (names kept
/// query-string- and XML-safe: the EC2 wire is `&`-separated, the XML
/// wire is `<`-framed).
fn request(t: &AliasTables, rng: &mut TestRng) -> CanonicalRequest {
    match rng.below(4) {
        0 => CanonicalRequest::ListInstances,
        1 => CanonicalRequest::ListImages,
        2 => CanonicalRequest::TerminateInstance {
            id: rng.below(10_000),
        },
        _ => CanonicalRequest::LaunchInstance {
            name: format!("vm{}", rng.below(100_000)),
            flavor: launch_flavor(t, rng),
            image: rng.below(10_000),
        },
    }
}

/// A full instance record, as the JSON dialects can carry it.
fn record(rng: &mut TestRng) -> InstanceRecord {
    InstanceRecord {
        id: rng.below(100_000),
        name: format!("vm{}", rng.below(100_000)),
        status: STATUSES[rng.below(5) as usize],
        flavor: format!("fl{}", rng.below(1000)),
        vcpus: if rng.below(2) == 0 {
            Some(1 + rng.below(63) as u32)
        } else {
            None
        },
        image: if rng.below(2) == 0 {
            Some(rng.below(1000))
        } else {
            None
        },
    }
}

fn records(rng: &mut TestRng, max: u64) -> Vec<InstanceRecord> {
    (0..rng.below(max)).map(|_| record(rng)).collect()
}

fn flavors(rng: &mut TestRng) -> Vec<FlavorRecord> {
    (0..rng.below(5))
        .map(|i| FlavorRecord {
            name: format!("fl{i}.{}", rng.below(100)),
            vcpus: 1 + rng.below(63) as u32,
            ram_mb: rng.below(65_536),
            disk_gb: rng.below(2048),
        })
        .collect()
}

fn images(rng: &mut TestRng) -> Vec<ImageRecord> {
    (0..rng.below(5))
        .map(|_| ImageRecord {
            id: rng.below(1000),
            name: format!("img{}", rng.below(1000)),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------- requests

    /// OpenStack: every canonical request round-trips through the Nova
    /// wire under any injective alias table.
    #[test]
    fn openstack_requests_roundtrip(seed: u64) {
        let rng = &mut TestRng::new(seed);
        let t = alias_tables(rng);
        for _ in 0..4 {
            let req = request(&t, rng);
            let wire = openstack::encode_request(&req, &t).expect("encodes");
            prop_assert_eq!(openstack::decode_request(&wire, &t).expect("decodes"), req);
        }
        // The two requests `request()` skips because EC2 can't say them.
        for req in [
            CanonicalRequest::DescribeInstance { id: rng.below(10_000) },
            CanonicalRequest::ListFlavors,
        ] {
            let wire = openstack::encode_request(&req, &t).expect("encodes");
            prop_assert_eq!(openstack::decode_request(&wire, &t).expect("decodes"), req);
        }
    }

    /// Eucalyptus: the EC2-query subset round-trips; the two requests
    /// the dialect cannot express fail *typed*, never silently.
    #[test]
    fn eucalyptus_requests_roundtrip(seed: u64) {
        let rng = &mut TestRng::new(seed);
        let t = alias_tables(rng);
        for _ in 0..4 {
            let req = request(&t, rng);
            let wire = eucalyptus::encode_request(&req, &t).expect("encodes");
            prop_assert_eq!(eucalyptus::decode_request(&wire, &t).expect("decodes"), req);
        }
        for req in [
            CanonicalRequest::DescribeInstance { id: 7 },
            CanonicalRequest::ListFlavors,
        ] {
            prop_assert!(matches!(
                eucalyptus::encode_request(&req, &t),
                Err(ProviderError::Unsupported(_))
            ));
        }
    }

    /// Spotmart: every canonical request round-trips.
    #[test]
    fn spot_requests_roundtrip(seed: u64) {
        let rng = &mut TestRng::new(seed);
        let t = alias_tables(rng);
        for _ in 0..4 {
            let req = request(&t, rng);
            let wire = spot::encode_request(&req, &t).expect("encodes");
            prop_assert_eq!(spot::decode_request(&wire, &t).expect("decodes"), req);
        }
        for req in [
            CanonicalRequest::DescribeInstance { id: rng.below(10_000) },
            CanonicalRequest::ListFlavors,
        ] {
            let wire = spot::encode_request(&req, &t).expect("encodes");
            prop_assert_eq!(spot::decode_request(&wire, &t).expect("decodes"), req);
        }
    }

    /// Pagely: every canonical request round-trips, a plain listing
    /// lands on page 0, and explicit page follow-ups carry their page
    /// number through.
    #[test]
    fn pagely_requests_roundtrip(seed: u64, page in 0usize..40) {
        let rng = &mut TestRng::new(seed);
        let t = alias_tables(rng);
        for _ in 0..4 {
            let req = request(&t, rng);
            let wire = paged::encode_request(&req, &t).expect("encodes");
            let (decoded, got_page) = paged::decode_request(&wire, &t).expect("decodes");
            let is_listing = matches!(req, CanonicalRequest::ListInstances);
            prop_assert_eq!(decoded, req);
            if is_listing {
                prop_assert_eq!(got_page, 0);
            }
        }
        let wire = paged::list_page_request(page);
        let (decoded, got_page) = paged::decode_request(&wire, &t).expect("decodes");
        prop_assert_eq!(decoded, CanonicalRequest::ListInstances);
        prop_assert_eq!(got_page, page);
    }

    // ------------------------------------------------------------ responses

    /// OpenStack: listings with full records, plus flavors, images and
    /// terminate, round-trip. Launch/describe replies only carry
    /// id/name/status on the Nova wire, so those round-trip on that
    /// slimmed subset.
    #[test]
    fn openstack_responses_roundtrip(seed: u64) {
        let rng = &mut TestRng::new(seed);
        let recs = records(rng, 6);
        let listing = CanonicalResponse::Instances(recs.clone());
        let wire = openstack::encode_response(&listing);
        prop_assert_eq!(
            openstack::decode_response(&ResponseKind::Instances, &wire).expect("decodes"),
            listing
        );

        let fls = flavors(rng);
        let wire = openstack::encode_response(&CanonicalResponse::Flavors(fls.clone()));
        prop_assert_eq!(
            openstack::decode_response(&ResponseKind::Flavors, &wire).expect("decodes"),
            CanonicalResponse::Flavors(fls)
        );
        let imgs = images(rng);
        let wire = openstack::encode_response(&CanonicalResponse::Images(imgs.clone()));
        prop_assert_eq!(
            openstack::decode_response(&ResponseKind::Images, &wire).expect("decodes"),
            CanonicalResponse::Images(imgs)
        );
        let id = rng.below(10_000);
        let wire = openstack::encode_response(&CanonicalResponse::Terminated { id });
        prop_assert_eq!(
            openstack::decode_response(&ResponseKind::Terminate { id }, &wire).expect("decodes"),
            CanonicalResponse::Terminated { id }
        );

        // The slim launch/describe wire: flavor/vcpus/image not carried.
        let slim = InstanceRecord {
            flavor: String::new(),
            vcpus: None,
            image: None,
            ..record(rng)
        };
        let wire = openstack::encode_response(&CanonicalResponse::Launched(slim.clone()));
        prop_assert_eq!(
            openstack::decode_response(&ResponseKind::Launch { name: slim.name.clone() }, &wire)
                .expect("decodes"),
            CanonicalResponse::Launched(slim.clone())
        );
        let wire = openstack::encode_response(&CanonicalResponse::Instance(slim.clone()));
        prop_assert_eq!(
            openstack::decode_response(&ResponseKind::Describe, &wire).expect("decodes"),
            CanonicalResponse::Instance(slim)
        );
    }

    /// Eucalyptus: the XML wire names instances by their EC2 id and
    /// drops vcpus/image from listings — round-trips hold exactly on
    /// that subset, byte-compatible with the simulated backend.
    #[test]
    fn eucalyptus_responses_roundtrip(seed: u64) {
        let rng = &mut TestRng::new(seed);
        let listable: Vec<InstanceRecord> = records(rng, 6)
            .into_iter()
            .map(|r| InstanceRecord {
                name: format!("i-{:08x}", r.id),
                vcpus: None,
                image: None,
                ..r
            })
            .collect();
        let listing = CanonicalResponse::Instances(listable);
        let wire = eucalyptus::encode_response(&listing).expect("encodes");
        prop_assert_eq!(
            eucalyptus::decode_response(&ResponseKind::Instances, &wire).expect("decodes"),
            listing
        );

        let imgs = images(rng);
        let wire =
            eucalyptus::encode_response(&CanonicalResponse::Images(imgs.clone())).expect("encodes");
        prop_assert_eq!(
            eucalyptus::decode_response(&ResponseKind::Images, &wire).expect("decodes"),
            CanonicalResponse::Images(imgs)
        );
        let id = rng.below(10_000);
        let wire =
            eucalyptus::encode_response(&CanonicalResponse::Terminated { id }).expect("encodes");
        prop_assert_eq!(
            eucalyptus::decode_response(&ResponseKind::Terminate { id }, &wire).expect("decodes"),
            CanonicalResponse::Terminated { id }
        );

        // Launch replies carry id/image/state; flavor has no wire form
        // and the canonical name rides in the decoder's ResponseKind.
        let slim = InstanceRecord {
            flavor: String::new(),
            vcpus: None,
            image: Some(rng.below(1000)),
            ..record(rng)
        };
        let wire =
            eucalyptus::encode_response(&CanonicalResponse::Launched(slim.clone())).expect("encodes");
        prop_assert_eq!(
            eucalyptus::decode_response(&ResponseKind::Launch { name: slim.name.clone() }, &wire)
                .expect("decodes"),
            CanonicalResponse::Launched(slim)
        );

        // And the two shapes with no EC2 wire form fail typed.
        prop_assert!(matches!(
            eucalyptus::encode_response(&CanonicalResponse::Flavors(Vec::new())),
            Err(ProviderError::Unsupported(_))
        ));
    }

    /// Spotmart: full records round-trip on every response shape, at
    /// any market price, and the price rides the listing reply.
    #[test]
    fn spot_responses_roundtrip(seed: u64, price in 0.01f64..0.2) {
        let rng = &mut TestRng::new(seed);
        let recs = records(rng, 6);
        let listing = CanonicalResponse::Instances(recs.clone());
        let wire = spot::encode_response(&listing, price).expect("encodes");
        prop_assert_eq!(
            spot::decode_response(&ResponseKind::Instances, &wire).expect("decodes"),
            listing
        );
        prop_assert_eq!(spot::decode_spot_price(&wire), Some(price));

        let fls = flavors(rng);
        let wire =
            spot::encode_response(&CanonicalResponse::Flavors(fls.clone()), price).expect("encodes");
        prop_assert_eq!(
            spot::decode_response(&ResponseKind::Flavors, &wire).expect("decodes"),
            CanonicalResponse::Flavors(fls)
        );
        let id = rng.below(10_000);
        let wire =
            spot::encode_response(&CanonicalResponse::Terminated { id }, price).expect("encodes");
        prop_assert_eq!(
            spot::decode_response(&ResponseKind::Terminate { id }, &wire).expect("decodes"),
            CanonicalResponse::Terminated { id }
        );
        for rec in recs.iter().take(2) {
            let wire = spot::encode_response(&CanonicalResponse::Launched(rec.clone()), price)
                .expect("encodes");
            prop_assert_eq!(
                spot::decode_response(&ResponseKind::Launch { name: rec.name.clone() }, &wire)
                    .expect("decodes"),
                CanonicalResponse::Launched(rec.clone())
            );
            let wire = spot::encode_response(&CanonicalResponse::Instance(rec.clone()), price)
                .expect("encodes");
            prop_assert_eq!(
                spot::decode_response(&ResponseKind::Describe, &wire).expect("decodes"),
                CanonicalResponse::Instance(rec.clone())
            );
        }
    }

    /// Pagely non-listing responses: full records round-trip.
    #[test]
    fn pagely_responses_roundtrip(seed: u64) {
        let rng = &mut TestRng::new(seed);
        for _ in 0..3 {
            let rec = record(rng);
            let wire =
                paged::encode_response(&CanonicalResponse::Launched(rec.clone())).expect("encodes");
            prop_assert_eq!(
                paged::decode_response(&ResponseKind::Launch { name: rec.name.clone() }, &wire)
                    .expect("decodes"),
                CanonicalResponse::Launched(rec)
            );
        }
        let fls = flavors(rng);
        let wire = paged::encode_response(&CanonicalResponse::Flavors(fls.clone())).expect("encodes");
        prop_assert_eq!(
            paged::decode_response(&ResponseKind::Flavors, &wire).expect("decodes"),
            CanonicalResponse::Flavors(fls)
        );
        let imgs = images(rng);
        let wire = paged::encode_response(&CanonicalResponse::Images(imgs.clone())).expect("encodes");
        prop_assert_eq!(
            paged::decode_response(&ResponseKind::Images, &wire).expect("decodes"),
            CanonicalResponse::Images(imgs)
        );
        let id = rng.below(10_000);
        let wire = paged::encode_response(&CanonicalResponse::Terminated { id }).expect("encodes");
        prop_assert_eq!(
            paged::decode_response(&ResponseKind::Terminate { id }, &wire).expect("decodes"),
            CanonicalResponse::Terminated { id }
        );
    }

    /// Pagely listings: any fleet stitches back together through any
    /// page size, with the page-boundary fleet sizes (0, size−1, size,
    /// size+1, 2×size) pinned explicitly on top of the random draw.
    #[test]
    fn pagely_pagination_roundtrips_at_boundaries(seed: u64, page_size in 1usize..6) {
        let rng = &mut TestRng::new(seed);
        let random_n = rng.below(12) as usize;
        for n in [
            0,
            page_size - 1,
            page_size,
            page_size + 1,
            2 * page_size,
            random_n,
        ] {
            // Exactly n records, ids re-keyed so each fleet stays unique.
            let fleet: Vec<InstanceRecord> = (0..n)
                .map(|i| InstanceRecord {
                    id: i as u64,
                    ..record(rng)
                })
                .collect();
            let pages = paged::encode_paged_instances(&fleet, page_size);
            prop_assert_eq!(pages.len(), fleet.len().div_ceil(page_size).max(1));
            prop_assert_eq!(
                paged::decode_paged_instances(&pages).expect("decodes"),
                CanonicalResponse::Instances(fleet)
            );
        }
    }

    /// Pagely chain validation: reordering, truncating, or doctoring the
    /// next-pointer of a multi-page reply is a typed decode error, never
    /// a silently wrong fleet.
    #[test]
    fn pagely_broken_chains_are_rejected(seed: u64, page_size in 1usize..3) {
        let rng = &mut TestRng::new(seed);
        // At least two pages.
        let n = 2 * page_size + rng.below(6) as usize;
        let recs: Vec<InstanceRecord> = (0..n)
            .map(|i| InstanceRecord {
                id: i as u64,
                ..record(rng)
            })
            .collect();
        let pages = paged::encode_paged_instances(&recs, page_size);
        prop_assert!(pages.len() >= 2);

        let mut reordered = pages.clone();
        reordered.swap(0, 1);
        prop_assert!(matches!(
            paged::decode_paged_instances(&reordered),
            Err(ProviderError::Translation(_))
        ));

        let truncated = &pages[..pages.len() - 1];
        prop_assert!(matches!(
            paged::decode_paged_instances(truncated),
            Err(ProviderError::Translation(_))
        ));

        let mut doctored = pages.clone();
        if let WireResponse::Json(v) = &mut doctored[0] {
            v["next"] = serde_json::Value::Null;
        }
        prop_assert!(matches!(
            paged::decode_paged_instances(&doctored),
            Err(ProviderError::Translation(_))
        ));
    }

    /// The alias reverse map is exact for injective tables: every mapped
    /// unified name survives unified → native → unified.
    #[test]
    fn alias_reverse_map_is_exact(seed: u64) {
        let rng = &mut TestRng::new(seed);
        let t = alias_tables(rng);
        for unified in t.flavors.keys() {
            let native = t.native_flavor(unified).to_string();
            prop_assert_eq!(&t.unified_flavor(&native), unified);
        }
    }
}
