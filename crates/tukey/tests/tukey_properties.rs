//! Property tests on Tukey's user-facing invariants: ARK identifiers,
//! billing arithmetic, the secure channel, sharing-permission
//! monotonicity, and a cloud-mapping loader that never panics.

use osdc_compute::CloudController;
use osdc_sim::{SimDuration, SimTime};
use osdc_tukey::ark::{ArkRecord, ArkService};
use osdc_tukey::auth::Identity;
use osdc_tukey::billing::{BillingService, Rates};
use osdc_tukey::channel::channel_pair;
use osdc_tukey::credentials::{CloudCredential, CredentialVault};
use osdc_tukey::sharing::{FileSharingService, Permission};
use osdc_tukey::translation::{CloudMapping, TranslationProxy};
use proptest::prelude::*;

fn record() -> ArkRecord {
    ArkRecord {
        who: "OSDC".into(),
        what: "ds".into(),
        when: "2012".into(),
        where_: "/x".into(),
        commitment: "replicated".into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every minted ARK parses back to itself, resolves, and any
    /// single-character corruption of the name is rejected (check char)
    /// or at worst resolves to nothing — never to the wrong record.
    #[test]
    fn ark_mint_parse_resolve(mint_count in 1usize..60, corrupt_pos_seed: u8) {
        let svc = ArkService::new("31807", "b2");
        let mut uris = Vec::new();
        for _ in 0..mint_count {
            let ark = svc.mint(record());
            let (parsed, _) = ArkService::parse(&ark.to_uri()).expect("own mint parses");
            prop_assert_eq!(parsed.to_uri(), ark.to_uri());
            prop_assert!(svc.resolve(&ark.to_uri()).is_ok());
            uris.push(ark.to_uri());
        }
        // Uniqueness.
        let mut sorted = uris.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), uris.len());
        // Corrupt one betanumeric character of the last URI's name.
        let uri = uris.last().expect("minted at least one").clone();
        let name_start = uri.rfind('/').expect("ark has name") + 1;
        let pos = name_start + (corrupt_pos_seed as usize % (uri.len() - name_start));
        let mut chars: Vec<char> = uri.chars().collect();
        let alphabet = "0123456789bcdfghjkmnpqrstvwxz";
        let original = chars[pos];
        let replacement = alphabet
            .chars()
            .find(|&c| c != original)
            .expect("alphabet has 29 symbols");
        chars[pos] = replacement;
        let corrupted: String = chars.into_iter().collect();
        match ArkService::parse(&corrupted) {
            Err(_) => {} // check character caught it
            Ok((ark, _)) => {
                // Parsed (corruption in the check char itself can yield a
                // *different* valid ARK) — it must not resolve to a record.
                prop_assert!(svc.resolve(&ark.to_uri()).is_err());
            }
        }
    }

    /// Billing: total equals rate × billable units, free tier saturates
    /// at zero, and the cycle resets exactly.
    #[test]
    fn billing_arithmetic(
        per_minute in proptest::collection::vec(0u32..64, 0..200),
        daily_tb in proptest::collection::vec(0u64..20, 0..40),
        free_hours in 0.0f64..50.0,
    ) {
        let rates = Rates {
            per_core_hour: 0.07,
            per_tb_day: 0.11,
            free_core_hours: free_hours,
            free_tb_days: 1.0,
        };
        let mut b = BillingService::new(rates);
        let u = b.user_id("u");
        // One delta per minute / per day; each rate is held for exactly
        // one poll / one sweep, then usage stops.
        let min = |m: usize| SimTime::ZERO + SimDuration::from_mins(m as u64);
        let day = |d: usize| SimTime::ZERO + SimDuration::from_days(d as u64);
        for (m, &c) in per_minute.iter().enumerate() {
            b.record_cores_id(u, c, min(m));
        }
        b.record_cores_id(u, 0, min(per_minute.len()));
        for (d, &tb) in daily_tb.iter().enumerate() {
            b.record_stored_id(u, tb * 1_000_000_000_000, day(d));
        }
        b.record_stored_id(u, 0, day(daily_tb.len()));
        let close = day(daily_tb.len()).max(min(per_minute.len()));
        let core_minutes: f64 = per_minute.iter().map(|&c| c as f64).sum();
        let tb_days: f64 = daily_tb.iter().map(|&t| t as f64).sum();
        let invoices = b.close_month_at(close);
        if core_minutes == 0.0 && tb_days == 0.0 {
            prop_assert!(invoices.is_empty());
        } else {
            let inv = &invoices[0];
            prop_assert!((inv.core_hours - core_minutes / 60.0).abs() < 1e-9);
            prop_assert!((inv.tb_days - tb_days).abs() < 1e-9);
            let expected = (inv.core_hours - free_hours).max(0.0) * 0.07
                + (tb_days - 1.0).max(0.0) * 0.11;
            prop_assert!((inv.total_usd - expected).abs() < 1e-9);
            prop_assert!(inv.total_usd >= 0.0);
        }
        // Cycle reset: a fresh close yields nothing.
        prop_assert!(b.close_month_at(close).is_empty());
    }

    /// The delivery contract of `record_cores_id` / `record_stored_id`:
    /// delivering a delta twice in a row is a no-op, and a delta earlier
    /// than the tenant's fold cursor (set by its earlier deltas and the
    /// closes since its first one) takes effect at the cursor. One
    /// service gets every delta twice at its own, possibly late, instant;
    /// the other gets each once, moved up to the cursor this test
    /// tracks. Their invoices must be identical, and the core-minutes
    /// billed must equal the moved-up timeline's: no folded minute is
    /// ever billed twice.
    #[test]
    fn delta_delivery_contract(
        events in proptest::collection::vec(
            (0u8..4, 0u64..3 * 24 * 60, 0u64..60, 0u64..4_000_000_000_000),
            1..60,
        ),
    ) {
        const MIN: u64 = 60_000_000_000;
        const DAY: u64 = 24 * 60 * MIN;
        let mut dup = BillingService::new(Rates::default());
        let mut moved = BillingService::new(Rates::default());
        let (a, b) = (dup.user_id("u"), moved.user_id("u"));
        // The cursors in poll/sweep indices (closes move them only once
        // the tenant has had a delta), the held rate, and the
        // core-minutes of the moved-up timeline.
        let (mut min_cursor, mut day_cursor, mut held, mut timeline) = (0u64, 0u64, 0u64, 0u64);
        let mut seen = false;
        let (mut dup_bills, mut moved_bills) = (Vec::new(), Vec::new());
        let end = 3 * DAY + 1;
        // Kinds 0–1 are core deltas, 2 storage deltas, 3 closes; a final
        // close lands after every drawn instant.
        let stream = events
            .iter()
            .map(|&(kind, m, s, size)| (kind, m * MIN + s * 1_000_000_000, size))
            .chain([(3, end, 0)]);
        for (kind, t, size) in stream {
            match kind {
                0 | 1 => {
                    seen = true;
                    let cores = (size % 9) as u32;
                    dup.record_cores_id(a, cores, SimTime(t));
                    dup.record_cores_id(a, cores, SimTime(t));
                    let eff = t.max(min_cursor * MIN);
                    moved.record_cores_id(b, cores, SimTime(eff));
                    let bound = eff.div_ceil(MIN);
                    timeline += held * (bound - min_cursor);
                    (min_cursor, held) = (bound, u64::from(cores));
                }
                2 => {
                    seen = true;
                    dup.record_stored_id(a, size, SimTime(t));
                    dup.record_stored_id(a, size, SimTime(t));
                    let eff = t.max(day_cursor * DAY);
                    moved.record_stored_id(b, size, SimTime(eff));
                    day_cursor = eff.div_ceil(DAY);
                }
                _ => {
                    dup_bills.push(dup.close_month_at(SimTime(t)));
                    moved_bills.push(moved.close_month_at(SimTime(t)));
                    if seen {
                        let bound = t.div_ceil(MIN).max(min_cursor);
                        timeline += held * (bound - min_cursor);
                        min_cursor = bound;
                        day_cursor = day_cursor.max(t.div_ceil(DAY));
                    }
                }
            }
        }
        let billed: f64 = dup_bills.iter().flatten().map(|inv| inv.core_hours * 60.0).sum();
        prop_assert_eq!(dup_bills, moved_bills);
        prop_assert!(
            (billed - timeline as f64).abs() <= 1e-9 * timeline.max(1) as f64,
            "billed {} core-minutes, the timeline holds {}", billed, timeline
        );
    }

    /// The secure channel round-trips arbitrary payloads in order and
    /// never accepts a bit-flipped message.
    #[test]
    fn channel_roundtrip_and_integrity(
        messages in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 1..20),
        flip_byte: u8,
    ) {
        let (mut tx, mut rx) = channel_pair(b"prop-secret");
        for m in &messages {
            let sealed = tx.seal(m);
            let opened = rx.open(&sealed).expect("authentic in-order message");
            prop_assert_eq!(&opened, m);
        }
        // Tamper with the next message: flip one ciphertext byte (or the
        // seq for empty payloads); authentication must fail.
        let mut sealed = tx.seal(b"victim");
        let len = sealed.ciphertext.len();
        sealed.ciphertext[flip_byte as usize % len] ^= 0x01;
        prop_assert!(rx.open(&sealed).is_err());
    }

    /// Permission monotonicity: granting never removes access; access
    /// implies access to everything an ancestor grant covered.
    #[test]
    fn sharing_grants_are_monotone(depth in 1usize..6, grant_level in 0usize..6) {
        let mut s = FileSharingService::new();
        let mut chain = vec![s.create_collection("owner", "root", None).expect("create")];
        for i in 1..depth {
            let id = s
                .create_collection("owner", &format!("c{i}"), Some(chain[i - 1]))
                .expect("create");
            chain.push(id);
        }
        let leaf = *chain.last().expect("non-empty");
        let grant_at = chain[grant_level.min(depth - 1)];
        prop_assert!(!s.can_access("bob", leaf, Permission::Read));
        s.grant_user("owner", grant_at, "bob", Permission::Read).expect("grant");
        // Everything at or below the grant is readable.
        for (i, &node) in chain.iter().enumerate() {
            let expected = i >= grant_level.min(depth - 1);
            prop_assert_eq!(
                s.can_access("bob", node, Permission::Read),
                expected,
                "node {} grant at {}", i, grant_level
            );
        }
        // A second grant elsewhere never revokes.
        s.grant_user("owner", chain[0], "bob", Permission::Read).expect("grant");
        prop_assert!(s.can_access("bob", leaf, Permission::Read));
    }
}

/// A valid mapping config: the seed the loader fuzz mutates.
const MAPPING: &str = r#"{"cloud": "sullivan", "kind": "Eucalyptus",
    "flavor_aliases": {"m1.small": "m1.small"},
    "image_aliases": {"ubuntu-base": 1, "bionimbus-genomics": 2}}"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `CloudMapping::from_json` answers `Ok` or `Err` and never panics,
    /// on arbitrary bytes and on a valid config under random byte edits
    /// (overwrite, insert, delete, truncate). Whatever it accepts builds
    /// a one-cloud proxy that serves a boot and a listing.
    #[test]
    fn cloud_mapping_loader_never_panics(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        edits in prop::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..6),
    ) {
        let mut mutated = MAPPING.as_bytes().to_vec();
        for &(op, at, byte) in &edits {
            let at = at as usize % (mutated.len() + 1);
            match op {
                0 if at < mutated.len() => mutated[at] = byte,
                1 => mutated.insert(at, byte),
                2 if at < mutated.len() => {
                    mutated.remove(at);
                }
                _ => mutated.truncate(at),
            }
        }
        for input in [noise, mutated] {
            let Ok(mapping) = CloudMapping::from_json(&String::from_utf8_lossy(&input)) else {
                continue;
            };
            let cloud = mapping.cloud.clone();
            let controller = CloudController::with_racks(cloud.clone(), 1);
            let mut proxy = TranslationProxy::new(vec![(mapping, controller)])
                .expect("a single cloud name is unique");
            let vault = CredentialVault::new();
            let id = Identity {
                canonical: "shib:fuzz@uchicago.edu".into(),
            };
            vault.enroll(&id, CloudCredential::new(cloud.clone(), "fuzz", "K", "S"));
            let booted = proxy.boot_server(
                &vault,
                &id,
                &cloud,
                "vm",
                "m1.small",
                "ubuntu-base",
                SimTime::ZERO,
            );
            let listing = proxy.list_servers(&vault, &id, SimTime::ZERO);
            let listed = listing["servers"].as_array().map(Vec::len);
            prop_assert_eq!(listed, Some(usize::from(booted.is_ok())));
        }
    }
}
