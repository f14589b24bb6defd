//! The tested invariant behind `--trace`: two same-seed runs produce
//! byte-identical telemetry JSONL artifacts.
//!
//! Everything feeding the exporter is deterministic — sim-clock spans
//! (never wall time), seeded RNG loss sampling, sorted JSON keys, ring
//! ordering — so the artifact must reproduce exactly, not approximately.

use osdc_chaos::{run_campaign, CampaignConfig, RetryPolicy};
use osdc_crypto::CipherKind;
use osdc_net::{osdc_wan, FluidNet, OsdcSite};
use osdc_sim::{SimDuration, SimTime};
use osdc_storage::GlusterVersion;
use osdc_telemetry::Telemetry;
use osdc_transfer::{Protocol, TransferEngine, TransferSpec};
use osdc_tukey::auth::{AuthProxy, Identity, ShibbolethIdp};
use osdc_tukey::credentials::CloudCredential;
use osdc_tukey::translation::osdc_proxy;
use osdc_tukey::TukeyConsole;

/// A miniature Table 3 run: two protocol×cipher rows over the real WAN
/// topology, everything traced.
fn traced_transfer_run_with_loss(seed: u64, loss: f64) -> String {
    let tele = Telemetry::new();
    for (protocol, cipher) in [
        (Protocol::Udr, CipherKind::None),
        (Protocol::Rsync, CipherKind::Blowfish),
    ] {
        let wan = osdc_wan(loss);
        let src = wan.node(OsdcSite::ChicagoKenwood);
        let dst = wan.node(OsdcSite::Lvoc);
        let mut engine = TransferEngine::new(FluidNet::new(wan.topology, seed));
        engine.set_telemetry(tele.clone());
        engine.run(
            &TransferSpec {
                protocol,
                cipher,
                bytes: 2_000_000_000,
                files: 3,
                src,
                dst,
            },
            SimDuration::from_hours(24),
        );
    }
    tele.export_jsonl()
}

fn traced_transfer_run(seed: u64) -> String {
    traced_transfer_run_with_loss(seed, 0.9e-7)
}

/// A miniature Figure 1 session: login, launches on both stacks, listing.
fn traced_console_run() -> String {
    let mut idp = ShibbolethIdp::new("urn:uchicago", b"key");
    idp.register("alice@uchicago.edu", &[("displayName", "Alice")]);
    let mut auth = AuthProxy::new();
    auth.trust_idp("urn:uchicago", b"key");
    let mut console = TukeyConsole::new(auth, osdc_proxy(1));
    let tele = Telemetry::new();
    console.set_telemetry(tele.clone());
    let id = Identity {
        canonical: "shib:alice@uchicago.edu".into(),
    };
    console.enroll(&id, CloudCredential::new("adler", "alice", "K", "S"));
    console.enroll(&id, CloudCredential::new("sullivan", "alice", "K", "S"));
    let token = console
        .login_shibboleth(&idp.assert("alice@uchicago.edu").expect("assert"))
        .expect("login");
    let t = SimTime::ZERO;
    console
        .launch_instance(token, "adler", "vm1", "m1.large", "bionimbus-genomics", t)
        .expect("launch");
    console
        .launch_instance(token, "sullivan", "vm2", "m1.small", "ubuntu-base", t)
        .expect("launch");
    console.instances_page(token, t).expect("page");
    tele.export_jsonl()
}

/// A miniature Experiment X9 run: a short chaos campaign on the
/// canonical cell, everything traced, scorecard exported at the end.
fn traced_resilience_run(seed: u64) -> String {
    let tele = Telemetry::new();
    let cfg = CampaignConfig::osdc(
        GlusterVersion::V3_3,
        RetryPolicy::exponential(12),
        seed,
        90,
        2.0,
    );
    run_campaign(&cfg, &tele);
    tele.export_jsonl()
}

#[test]
fn same_seed_resilience_traces_are_byte_identical() {
    let a = traced_resilience_run(2012);
    let b = traced_resilience_run(2012);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed campaign traces must match byte-for-byte");
    // Injection markers and the exported verdict both reach the artifact.
    for needle in [
        "chaos.inject.",
        "chaos.faults_injected",
        "chaos.recovery_events",
        "chaos.mttr_secs",
        "chaos.alert_latency_secs",
    ] {
        assert!(a.contains(needle), "artifact lacks {needle}");
    }
    // A different fault schedule must actually change the artifact.
    assert_ne!(a, traced_resilience_run(2013));
}

#[test]
fn same_seed_transfer_traces_are_byte_identical() {
    let a = traced_transfer_run(2012);
    let b = traced_transfer_run(2012);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed transfer traces must match byte-for-byte");
    // Every stage of the pipeline shows up in the artifact.
    for needle in [
        "transfer/UDR/no encryption",
        "transfer/rsync/blowfish",
        "stage/disk_read",
        "stage/delta",
        "stage/cipher",
        "stage/wire",
        "stage/disk_write",
        "net.flow0.mbps",
    ] {
        assert!(a.contains(needle), "artifact lacks {needle}");
    }
}

#[test]
fn different_seed_transfer_traces_differ() {
    // The invariant is about determinism, not insensitivity: the seed
    // must actually reach the artifact through the loss process. Use a
    // lossy path so different seeds sample different loss sequences.
    assert_ne!(
        traced_transfer_run_with_loss(2012, 1e-5),
        traced_transfer_run_with_loss(2013, 1e-5)
    );
}

#[test]
fn epoch_mode_traces_are_deterministic() {
    // The epoch solver keeps the determinism invariant on a lossy path
    // too: same seed in, byte-identical artifact out.
    let a = traced_transfer_run_with_loss(77, 1e-5);
    let b = traced_transfer_run_with_loss(77, 1e-5);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed epoch traces must match byte-for-byte");
}

#[test]
fn console_traces_are_byte_identical() {
    let a = traced_console_run();
    let b = traced_console_run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "console traces must match byte-for-byte");
    for needle in [
        "console/launch_instance",
        "console/instances_page",
        "auth/session",
        "translation/adler",
        "translation/sullivan",
        "aggregation",
        "tukey.cloud.adler.latency_ms",
    ] {
        assert!(a.contains(needle), "artifact lacks {needle}");
    }
}
