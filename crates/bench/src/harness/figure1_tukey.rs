//! Figure 1 — "Tukey provides the link between the users and services".
//!
//! The figure is an architecture diagram; its executable form is an
//! end-to-end console session exercising every box: login through both
//! authentication paths, VM provisioning on *both* cloud stacks through
//! the single OpenStack-format interface, the aggregated JSON response
//! tagged by cloud, and the usage/billing page fed by the launches'
//! core deltas.
//!
//! With `--trace <path>`, every console request emits spans (console →
//! auth → translation → aggregation) and per-cloud latency histograms
//! into a telemetry JSONL artifact, plus a federation ops report on
//! stdout. Runs are deterministic: artifacts are byte-identical across
//! invocations.

use osdc_sim::{SimDuration, SimTime};
use osdc_telemetry::Telemetry;
use osdc_tukey::auth::{AuthProxy, Identity, OpenIdProvider, ShibbolethIdp};
use osdc_tukey::credentials::CloudCredential;
use osdc_tukey::translation::osdc_proxy;
use osdc_tukey::TukeyConsole;

use crate::harness::{HarnessCtx, RunResult};
use crate::outln;

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    ctx.banner(
        "Figure 1",
        "Tukey console + middleware: one interface, two cloud stacks",
    );

    // --- the middleware stack -------------------------------------------------
    let mut idp = ShibbolethIdp::new("urn:mace:uchicago.edu:idp", b"campus-signing-key");
    idp.register("grossman@uchicago.edu", &[("displayName", "R. Grossman")]);
    let mut openid = OpenIdProvider::new("https://www.opensciencedatacloud.org/openid/");
    openid.register("https://www.opensciencedatacloud.org/openid/heath", "pw");

    let mut auth = AuthProxy::new();
    auth.trust_idp("urn:mace:uchicago.edu:idp", b"campus-signing-key");
    auth.trust_openid("https://www.opensciencedatacloud.org/openid/");

    let mut console = TukeyConsole::new(auth, osdc_proxy(2));
    let tele = if ctx.trace_enabled() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    console.set_telemetry(tele.clone());
    outln!(
        ctx,
        "middleware up: clouds = {:?}",
        console.proxy.cloud_names()
    );

    // --- enrollment: identifier → per-cloud credentials (§5.2) ---------------
    let shib_id = Identity {
        canonical: "shib:grossman@uchicago.edu".into(),
    };
    console.enroll(
        &shib_id,
        CloudCredential::new("adler", "grossman", "AK1", "SK1"),
    );
    console.enroll(
        &shib_id,
        CloudCredential::new("sullivan", "grossman", "AK2", "SK2"),
    );
    let openid_id = Identity {
        canonical: "openid:https://www.opensciencedatacloud.org/openid/heath".into(),
    };
    console.enroll(
        &openid_id,
        CloudCredential::new("adler", "heath", "AK3", "SK3"),
    );

    // --- login via Shibboleth --------------------------------------------------
    let assertion = idp.assert("grossman@uchicago.edu").expect("campus login");
    let token = console
        .login_shibboleth(&assertion)
        .expect("assertion accepted");
    outln!(
        ctx,
        "shibboleth login ok: {}",
        console.whoami(token).expect("session")
    );

    // --- login via OpenID -------------------------------------------------------
    let token2 = console
        .login_openid(
            &openid,
            "https://www.opensciencedatacloud.org/openid/heath",
            "pw",
        )
        .expect("openid verified");
    outln!(
        ctx,
        "openid login ok:     {}",
        console.whoami(token2).expect("session")
    );

    // --- provision VMs on both stacks through one API --------------------------
    let t0 = SimTime::ZERO;
    let a = console
        .launch_instance(
            token,
            "adler",
            "analysis-0",
            "m1.xlarge",
            "bionimbus-genomics",
            t0,
        )
        .expect("OpenStack-backed launch");
    let s = console
        .launch_instance(
            token,
            "sullivan",
            "preprocess-0",
            "m1.large",
            "matsu-earth-obs",
            t0,
        )
        .expect("Eucalyptus-backed launch");
    outln!(
        ctx,
        "\nlaunched on adler    → {}",
        serde_json::to_string(&a).expect("json")
    );
    outln!(
        ctx,
        "launched on sullivan → {}",
        serde_json::to_string(&s).expect("json")
    );

    // --- the aggregated, cloud-tagged OpenStack-format response ---------------
    let page = console.instances_page(token, t0).expect("listing");
    outln!(
        ctx,
        "\naggregated /servers response (OpenStack format, tagged by cloud):\n{}",
        serde_json::to_string_pretty(&page).expect("json")
    );

    // --- usage & billing: 90 minutes of the launches' cores (§6.4) --------------
    let now = t0 + SimDuration::from_mins(90);
    let usage = console.usage_page(token, now).expect("usage page");
    outln!(
        ctx,
        "usage page after 90 minutes:\n{}",
        serde_json::to_string_pretty(&usage).expect("json")
    );

    // --- public datasets module -----------------------------------------------
    let hits = console.datasets_page(Some("EO-1"));
    outln!(
        ctx,
        "dataset search 'EO-1' → {}",
        serde_json::to_string(&hits).expect("json")
    );

    // --- invoices close the loop -------------------------------------------------
    let invoices = console.billing.close_month_at(now);
    for inv in &invoices {
        outln!(
            ctx,
            "invoice: {} — {:.1} core-hours, billable {:.1}, ${:.2}",
            inv.user,
            inv.core_hours,
            inv.billable_core_hours,
            inv.total_usd
        );
    }
    outln!(ctx, "\nFigure 1 flow exercised end-to-end: console → middleware → {{OpenStack, Eucalyptus}} → aggregated JSON → billing.");
    if ctx.trace_enabled() {
        ctx.finish_trace(&tele);
    }
    Ok(())
}
