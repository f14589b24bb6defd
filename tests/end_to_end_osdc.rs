//! End-to-end integration: the whole facility, one researcher's month.
//!
//! Exercises the full stack across crates: federation assembly (Table 2),
//! federated login, cross-stack provisioning through Tukey, per-minute
//! billing, daily storage sweeps, the ARK-indexed public catalog, and
//! the monthly invoice — i.e. Figure 1 end to end on top of the Table 2
//! hardware.

use osdc::storage::{AccessKind, FileData};
use osdc::tukey::auth::{Identity, ShibbolethIdp};
use osdc::tukey::credentials::CloudCredential;
use osdc::Federation;
use osdc_sim::{SimDuration, SimTime};

fn researcher() -> Identity {
    Identity {
        canonical: "shib:heath@uchicago.edu".into(),
    }
}

fn logged_in_federation() -> (Federation, osdc::tukey::SessionToken) {
    let mut fed = Federation::build(1.2e-7, 77);
    let mut idp = ShibbolethIdp::new("urn:uchicago", b"k");
    idp.register("heath@uchicago.edu", &[]);
    fed.console.auth.trust_idp("urn:uchicago", b"k");
    let id = researcher();
    fed.console
        .enroll(&id, CloudCredential::new("adler", "heath", "A", "S"));
    fed.console
        .enroll(&id, CloudCredential::new("sullivan", "heath", "A", "S"));
    let token = fed
        .console
        .login_shibboleth(&idp.assert("heath@uchicago.edu").expect("registered"))
        .expect("trusted");
    (fed, token)
}

#[test]
fn a_researchers_month() {
    let (mut fed, token) = logged_in_federation();

    // Provision on both stacks through the single console.
    let t0 = SimTime::ZERO;
    let a = fed
        .console
        .launch_instance(
            token,
            "adler",
            "pipeline",
            "m1.xlarge",
            "bionimbus-genomics",
            t0,
        )
        .expect("adler launch");
    fed.console
        .launch_instance(
            token,
            "sullivan",
            "preprocess",
            "m1.medium",
            "ubuntu-base",
            t0,
        )
        .expect("sullivan launch");
    let page = fed.console.instances_page(token, t0).expect("page");
    assert_eq!(page["servers"].as_array().expect("array").len(), 2);

    // Store data on the share; grant a collaborator read access.
    fed.adler_share.add_account("heath", "pw");
    fed.adler_share.add_account("collab", "pw2");
    fed.adler_share
        .grant("/projects/enc", "heath", AccessKind::Write);
    fed.adler_share
        .grant("/projects/enc", "collab", AccessKind::Read);
    fed.adler_share
        .write(
            "heath",
            "pw",
            "/projects/enc/peaks.bed",
            FileData::bytes(b"chr1\t100\t200".to_vec()),
        )
        .expect("write");
    assert!(fed
        .adler_share
        .read("collab", "pw2", "/projects/enc/peaks.bed")
        .is_ok());

    // A 30-day month: the launches bill their cores from t0, and the
    // share's stored bytes are reported each midnight.
    let id = researcher();
    for day in 0..30u64 {
        let midnight = t0 + SimDuration::from_days(day);
        let stored = fed
            .adler_share
            .with_volume(|v| v.usage_by_owner().get("heath").copied().unwrap_or(0));
        fed.console
            .record_storage(&[(id.clone(), stored)], midnight);
    }
    // Terminate at month end.
    fed.console
        .terminate_instance(
            token,
            "adler",
            a["server"]["id"].as_u64().expect("id"),
            t0 + SimDuration::from_days(30),
        )
        .expect("terminate");

    let invoices = fed
        .console
        .billing
        .close_month_at(t0 + SimDuration::from_days(30));
    assert_eq!(invoices.len(), 1);
    let inv = &invoices[0];
    // 8 + 2 cores for 720 hours = 7200 core-hours.
    assert!((inv.core_hours - 7200.0).abs() < 1.0, "{}", inv.core_hours);
    assert!(inv.total_usd > 0.0, "well beyond the free tier");

    // The catalog resolves its ARKs to storage paths.
    let page = fed.console.datasets_page(Some("EO-1"));
    let ark = page["datasets"][0]["ark"]
        .as_str()
        .expect("ark")
        .to_string();
    let location = fed.console.arks.resolve(&ark).expect("resolves");
    assert!(location.starts_with("/glusterfs/public/"));
}

#[test]
fn unenrolled_user_sees_empty_clouds_but_public_data() {
    let mut fed = Federation::build(1.2e-7, 78);
    let mut idp = ShibbolethIdp::new("urn:uchicago", b"k");
    idp.register("newbie@uchicago.edu", &[]);
    fed.console.auth.trust_idp("urn:uchicago", b"k");
    let token = fed
        .console
        .login_shibboleth(&idp.assert("newbie@uchicago.edu").expect("registered"))
        .expect("trusted");
    // No credentials enrolled → no servers, but the catalog is open.
    let page = fed
        .console
        .instances_page(token, SimTime::ZERO)
        .expect("page");
    assert!(page["servers"].as_array().expect("array").is_empty());
    assert!(!fed.console.datasets_page(None)["datasets"]
        .as_array()
        .expect("array")
        .is_empty());
}

#[test]
fn facility_headline_numbers() {
    let fed = Federation::build(1.2e-7, 79);
    assert!(fed.total_cores() > 2000);
    assert!(fed.total_disk_tb() > 2000);
    let rtt = fed
        .wan
        .topology
        .rtt(
            fed.wan.node(osdc::net::OsdcSite::ChicagoKenwood),
            fed.wan.node(osdc::net::OsdcSite::Lvoc),
        )
        .expect("connected");
    assert_eq!(rtt, SimDuration::from_millis(104));
}
