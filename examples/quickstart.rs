//! Quickstart: boot the OSDC-in-a-box, log in, compute, get billed.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks the path a new OSDC researcher walked in 2012: federated login
//! through Tukey, browse the public datasets, launch a VM with the
//! community tools image, watch usage accrue, share a dataset with a
//! collaborator at another data center, and read the invoice.

use osdc::sharing::{Action, DcId, SharingConfig, SharingSim, TrustLevel};
use osdc::tukey::auth::{Identity, ShibbolethIdp};
use osdc::tukey::credentials::CloudCredential;
use osdc::Federation;
use osdc_sim::{SimDuration, SimTime};

fn main() {
    // 1. Stand up the whole facility (Table 2's clusters + WAN + Tukey).
    let mut fed = Federation::build(1.2e-7, 42);
    println!(
        "OSDC up: {} cores / {} TB across {} clusters\n",
        fed.total_cores(),
        fed.total_disk_tb(),
        fed.inventory().len()
    );

    // 2. Federated login: your campus IdP vouches for you.
    let mut idp = ShibbolethIdp::new("urn:mace:example.edu:idp", b"campus-key");
    idp.register("you@example.edu", &[("displayName", "New Researcher")]);
    fed.console
        .auth
        .trust_idp("urn:mace:example.edu:idp", b"campus-key");
    let me = Identity {
        canonical: "shib:you@example.edu".into(),
    };
    fed.console
        .enroll(&me, CloudCredential::new("adler", "you", "AK", "SK"));
    let token = fed
        .console
        .login_shibboleth(&idp.assert("you@example.edu").expect("campus account"))
        .expect("trusted IdP");
    println!(
        "logged in as {}",
        fed.console.whoami(token).expect("session")
    );

    // 3. Browse the public data (§6.3) — anyone can.
    let hits = fed.console.datasets_page(Some("genomes"));
    println!(
        "\npublic dataset search 'genomes':\n{}",
        serde_json::to_string_pretty(&hits).expect("json")
    );

    // 4. Launch a VM from the community genomics image (§3.2 rule 5).
    let t0 = SimTime::ZERO;
    let vm = fed
        .console
        .launch_instance(
            token,
            "adler",
            "first-analysis",
            "m1.large",
            "bionimbus-genomics",
            t0,
        )
        .expect("free-tier capacity");
    println!("launched: {}", serde_json::to_string(&vm).expect("json"));

    // 5. Compute for three hours; Tukey bills the cores from the launch
    // on (§6.4).
    let now = t0 + SimDuration::from_mins(3 * 60);
    println!(
        "\nusage page:\n{}",
        serde_json::to_string_pretty(&fed.console.usage_page(token, now).expect("usage"))
            .expect("json")
    );

    // 6. Share your results with a collaborator at another data center
    // (§ file sharing): mint a Copy capability at Chicago-Kenwood, let
    // gossip carry it across the federation, read from Miami, revoke.
    let mut sharing = SharingSim::new(SharingConfig::new(42));
    let cap = sharing.grant(
        DcId(0),
        "collaborator@partner.edu",
        "/projects/first-analysis",
        TrustLevel::Copy,
    );
    sharing.quiesce(16);
    let miami = DcId(3);
    assert_eq!(
        sharing.check(
            miami,
            "collaborator@partner.edu",
            "/projects/first-analysis/results.vcf",
            Action::Read
        ),
        Some(cap),
        "gossip should have carried the grant to every data center"
    );
    let xfer = sharing
        .copy_to(
            miami,
            "collaborator@partner.edu",
            "/projects/first-analysis/results.vcf",
            512 << 20,
        )
        .expect("capability authorizes the copy");
    println!(
        "\nshared /projects/first-analysis with collaborator@partner.edu: \
         512 MB to ampath-miami at {:.0} Mb/s",
        xfer.mbps
    );
    sharing.revoke(DcId(0), cap);
    sharing.quiesce(16);
    assert_eq!(
        sharing.check(
            miami,
            "collaborator@partner.edu",
            "/projects/first-analysis/results.vcf",
            Action::Read
        ),
        None,
        "revocation must reach every replica"
    );
    println!("revoked — no replica honours the capability any more");

    // 7. Terminate, close the month, read the invoice.
    let id = vm["server"]["id"].as_u64().expect("id");
    fed.console
        .terminate_instance(token, "adler", id, now)
        .expect("terminate");
    for invoice in fed.console.billing.close_month_at(now) {
        println!(
            "invoice for {}: {:.1} core-hours → ${:.2} (free tier covers {})",
            invoice.user,
            invoice.core_hours,
            invoice.total_usd,
            if invoice.total_usd == 0.0 {
                "it all"
            } else {
                "part"
            }
        );
    }
    println!("\ndone — see examples/bionimbus_genomics.rs and examples/matsu_flood_detection.rs for the domain workloads.");
}
