//! Bionimbus: collaborative genomics on the OSDC (§4.1, §6.2).
//!
//! ```text
//! cargo run --example bionimbus_genomics
//! ```
//!
//! The paper's genomics story: a consortium (modENCODE/T2D-Genes style)
//! keeps one copy of a large dataset on OSDC storage; member groups
//! analyze it *in place* — "different groups can analyze large biological
//! datasets without the necessity of each group downloading the data" —
//! under the group/collection permission model, with controlled data
//! gated, and an ARK minted for the published result.

use osdc::storage::{AccessKind, FileData};
use osdc::tukey::ark::ArkRecord;
use osdc::tukey::sharing::Permission;
use osdc::Federation;
use osdc_mapreduce::run_job;

fn main() {
    let mut fed = Federation::build(1.2e-7, 7);

    // --- the consortium uploads once -------------------------------------
    // A (toy) set of sequencing reads lands on the Adler share.
    fed.adler_share.add_account("consortium-dcc", "pw-dcc");
    fed.adler_share
        .grant("/projects/t2d", "consortium-dcc", AccessKind::Write);
    let reads: Vec<String> = (0..400)
        .map(|i| {
            // Synthetic reads with an occasional variant motif.
            let motif = if i % 17 == 0 { "GATTACA" } else { "ACGTACG" };
            format!("read{i}:{}{}", motif, "ACGT".repeat(8))
        })
        .collect();
    fed.adler_share
        .write(
            "consortium-dcc",
            "pw-dcc",
            "/projects/t2d/cohort.reads",
            FileData::bytes(reads.join("\n").into_bytes()),
        )
        .expect("upload");
    println!(
        "consortium uploaded cohort.reads ({} reads) — one copy, shared in place",
        reads.len()
    );

    // --- sharing: groups + collections (§6.2) ------------------------------
    let project = fed
        .console
        .sharing
        .create_collection("consortium-dcc", "t2d-genes", None)
        .expect("collection");
    fed.console
        .sharing
        .create_group("consortium-dcc", "t2d-members");
    for member in ["lab-chicago", "lab-edinburgh", "lab-miami"] {
        fed.console
            .sharing
            .add_member("consortium-dcc", "t2d-members", member)
            .expect("membership");
    }
    fed.console
        .sharing
        .grant_group("consortium-dcc", project, "t2d-members", Permission::Read)
        .expect("grant");
    let file_node = fed
        .console
        .sharing
        .register_file(
            "consortium-dcc",
            "cohort.reads",
            "/projects/t2d/cohort.reads",
            Some(project),
        )
        .expect("register");
    println!("collection 't2d-genes' shared with group 't2d-members' (read)");

    // Members can read through the WebDAV gate; outsiders cannot.
    fed.adler_share
        .grant("/projects/t2d", "lab-chicago", AccessKind::Read);
    let ok = fed
        .console
        .sharing
        .can_access("lab-edinburgh", file_node, Permission::Read);
    let outsider = fed
        .console
        .sharing
        .can_access("random-user", file_node, Permission::Read);
    println!("access check: member lab-edinburgh={ok}, outsider={outsider}");
    assert!(ok && !outsider);

    // --- three labs analyze the same copy with different pipelines --------
    // Each "pipeline" is a MapReduce over the same reads — no downloads.
    let data = fed
        .adler_share
        .read("consortium-dcc", "pw-dcc", "/projects/t2d/cohort.reads")
        .expect("read back");
    let FileData::Bytes(bytes) = data else {
        panic!("real bytes expected")
    };
    let text = String::from_utf8(bytes).expect("utf8");
    let lines: Vec<String> = text.lines().map(str::to_string).collect();

    // Pipeline A (lab-chicago): variant-motif counting.
    let variants = run_job(
        lines.clone(),
        |read, emit| {
            if read.contains("GATTACA") {
                emit("GATTACA-carrier", 1u64);
            }
        },
        |_k, vs| vs.iter().sum::<u64>(),
    );
    // Pipeline B (lab-edinburgh): GC-content histogram.
    let gc = run_job(
        lines.clone(),
        |read, emit| {
            let seq = read.split(':').nth(1).unwrap_or("");
            let gc = seq.chars().filter(|&c| c == 'G' || c == 'C').count() * 100 / seq.len().max(1);
            emit(gc / 10 * 10, 1u64); // decile buckets
        },
        |_k, vs| vs.iter().sum::<u64>(),
    );
    println!("\nlab-chicago pipeline: {:?}", variants.output);
    println!("lab-edinburgh pipeline (GC% deciles): {:?}", gc.output);

    // --- controlled (human) data stays in the secure enclave --------------
    // "There are also secure, private Bionimbus clouds that are designed
    // to hold controlled data, such as human genomic data."
    fed.adler_share.add_account("dbgap-admin", "pw-admin");
    fed.adler_share
        .grant("/secure/dbgap", "dbgap-admin", AccessKind::Write);
    fed.adler_share
        .write(
            "dbgap-admin",
            "pw-admin",
            "/secure/dbgap/human.vcf",
            FileData::synthetic(5 << 30, 99),
        )
        .expect("controlled upload");
    let denied = fed
        .adler_share
        .read("lab-chicago", "pw?", "/secure/dbgap/human.vcf");
    println!("\ncontrolled-access check: lab-chicago on /secure/dbgap → {denied:?}");
    assert!(denied.is_err());

    // --- publish: mint an ARK for the result set (§6.1) -------------------
    let ark = fed.console.arks.mint(ArkRecord {
        who: "T2D-Genes consortium".into(),
        what: "cohort variant calls, freeze 1".into(),
        when: "2012".into(),
        where_: "/projects/t2d/freeze1.vcf".into(),
        commitment: "replicated on OSDC-Root; reviewed annually".into(),
    });
    println!("\npublished with persistent id {ark}");
    println!(
        "  resolves to: {}",
        fed.console.arks.resolve(&ark.to_uri()).expect("resolves")
    );
    println!(
        "  brief metadata (?): {}",
        fed.console
            .arks
            .resolve(&format!("{ark}?"))
            .expect("resolves")
            .replace('\n', " | ")
    );
}
