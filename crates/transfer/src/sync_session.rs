//! Incremental directory synchronization over the WAN — the two halves
//! of UDR joined: the rsync *algorithm* decides what must move, and the
//! UDT/TCP *pipe* moves it.
//!
//! §7.2's users "move data around flexibly in their analysis processes",
//! re-sending multi-terabyte trees after partial re-processing. A fresh
//! bulk copy prices that at full size; this session prices it the way
//! rsync actually does: exchange file lists, quick-check or checksum,
//! send whole content for new files and block deltas for changed ones,
//! then push exactly those wire bytes through the simulated path.

use std::collections::BTreeMap;

use osdc_crypto::md5::md5_many;
use osdc_crypto::CipherKind;
use osdc_sim::SimDuration;

use crate::delta::{
    apply_delta, block_size_for, compute_signatures, generate_delta_with, DeltaOp, DeltaScratch,
};
use crate::filelist::{plan_sync, CheckMode, FileEntry, FileList, PlanAction};
use crate::session::{Protocol, TransferEngine, TransferReport, TransferSpec};
use crate::wire::WireCipher;

/// An in-memory directory tree at one end of a sync.
#[derive(Clone, Debug, Default)]
pub struct Tree {
    files: BTreeMap<String, (Vec<u8>, u64)>, // path → (content, mtime)
}

impl Tree {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn put(&mut self, path: &str, content: Vec<u8>, mtime: u64) {
        self.files.insert(path.to_string(), (content, mtime));
    }

    pub fn get(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|(c, _)| c.as_slice())
    }

    pub fn remove(&mut self, path: &str) {
        self.files.remove(path);
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(|(c, _)| c.len() as u64).sum()
    }

    /// The tree's file list for `mode`. Only checksum mode reads
    /// digests, so only it hashes: every file in path order, in one
    /// [`md5_many`] call.
    fn file_list(&self, mode: CheckMode) -> FileList {
        let mut list: FileList = self
            .files
            .iter()
            .map(|(path, (content, mtime))| {
                let entry = FileEntry {
                    size: content.len() as u64,
                    mtime: *mtime,
                    digest: None,
                };
                (path.clone(), entry)
            })
            .collect();
        if mode == CheckMode::Checksum {
            let contents: Vec<&[u8]> = self.files.values().map(|(c, _)| c.as_slice()).collect();
            for (entry, digest) in list.values_mut().zip(md5_many(&contents)) {
                entry.digest = Some(digest);
            }
        }
        list
    }
}

/// Accounting for one sync pass.
#[derive(Clone, Debug)]
pub struct SyncReport {
    pub files_created: u32,
    pub files_updated: u32,
    /// Paths present only on the target (reported, not deleted — as in
    /// rsync without `--delete`).
    pub extra_on_target: u32,
    /// Bytes that crossed the wire (literals + tokens + whole new files
    /// + the signature exchange).
    pub wire_bytes: u64,
    /// Bytes the same tree would cost as a fresh bulk copy.
    pub full_copy_bytes: u64,
    /// The WAN transfer of those wire bytes.
    pub transfer: TransferReport,
}

impl SyncReport {
    /// rsync's classic speedup metric: full size / wire size.
    pub fn speedup(&self) -> f64 {
        if self.wire_bytes == 0 {
            f64::INFINITY
        } else {
            self.full_copy_bytes as f64 / self.wire_bytes as f64
        }
    }
}

/// Per-block signature wire cost: 4-byte weak + 16-byte strong + offset.
const SIG_BYTES_PER_BLOCK: usize = 24;

/// Synchronize `src` onto `dst` over the engine's WAN.
///
/// `protocol` picks the pipe (UDR or classic rsync), `mode` the change
/// detector. The destination tree is mutated to match the source; the
/// returned report prices exactly what moved.
///
/// The argument list mirrors an rsync invocation (src, dst, transport,
/// cipher, check mode, endpoints) — splitting it into a builder would
/// obscure the correspondence.
#[allow(clippy::too_many_arguments)]
// The `expect`s are invariants, not input errors: the plan names only
// paths listed from these two trees, and a delta built from the basis's
// own signatures applies to that basis.
#[allow(clippy::expect_used)]
pub fn sync_over_wan(
    engine: &mut TransferEngine,
    src: &Tree,
    dst: &mut Tree,
    protocol: Protocol,
    cipher: CipherKind,
    mode: CheckMode,
    src_node: osdc_net::NodeId,
    dst_node: osdc_net::NodeId,
) -> SyncReport {
    let plan = plan_sync(&src.file_list(mode), &dst.file_list(mode), mode);
    let mut wire_bytes = 0u64;
    let mut created = 0u32;
    let mut updated = 0u32;
    let mut extra = 0u32;
    // One delta scratch for the whole pass: the signature index and
    // literal buffer are reused file after file, so the scan loop never
    // allocates at steady state.
    let mut scratch = DeltaScratch::new();
    // Moved payloads really pass through the batched cipher kernels —
    // sealed on the "sender", opened on the "receiver". CTR preserves
    // length, so wire accounting is identical to the unencrypted pass.
    let wire = WireCipher::new(cipher, b"osdc sync session key");
    let mut nonce = 0u64;

    for (path, action) in &plan {
        match action {
            PlanAction::Create => {
                let (new_data, mtime) = src.files.get(path).expect("planned from src list");
                let mut content = new_data.clone();
                wire.apply(nonce, &mut content); // sender encrypts...
                wire.apply(nonce, &mut content); // ...receiver decrypts
                nonce += 1;
                debug_assert_eq!(&content, new_data);
                wire_bytes += content.len() as u64;
                dst.put(path, content, *mtime);
                created += 1;
            }
            PlanAction::Update => {
                let (new_data, mtime) = src.files.get(path).expect("planned from src list");
                // The basis is borrowed in place, and replaced once the
                // delta has rebuilt the new content from it.
                let (basis, basis_mtime) =
                    dst.files.get_mut(path).expect("update implies presence");
                let bs = block_size_for(basis.len().max(1));
                let sigs = compute_signatures(basis, bs);
                // Signatures flow dst → src before the delta flows back.
                wire_bytes += (sigs.blocks.len() * SIG_BYTES_PER_BLOCK) as u64;
                let mut delta = generate_delta_with(&sigs, new_data, &mut scratch);
                wire_bytes += delta.wire_bytes() as u64;
                // Literal runs are the bytes that cross the wire; copy
                // tokens are framing (priced in wire_bytes()).
                for op in &mut delta.ops {
                    if let DeltaOp::Literal(bytes) = op {
                        wire.apply(nonce, bytes);
                        wire.apply(nonce, bytes);
                        nonce += 1;
                    }
                }
                let rebuilt = apply_delta(basis, &delta, bs).expect("own delta applies");
                debug_assert_eq!(&rebuilt, new_data);
                *basis = rebuilt;
                *basis_mtime = *mtime;
                updated += 1;
            }
            PlanAction::ExtraOnTarget => extra += 1,
        }
    }

    // File-list exchange: ~64 bytes per path each way.
    wire_bytes += (src.len() + dst.len()) as u64 * 64;

    let transfer = engine.run(
        &TransferSpec {
            protocol,
            cipher,
            bytes: wire_bytes.max(1),
            files: (created + updated).max(1),
            src: src_node,
            dst: dst_node,
        },
        SimDuration::from_days(7),
    );
    SyncReport {
        files_created: created,
        files_updated: updated,
        extra_on_target: extra,
        wire_bytes,
        full_copy_bytes: src.total_bytes(),
        transfer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdc_net::{osdc_wan, FluidNet, OsdcSite};

    fn engine() -> (TransferEngine, osdc_net::NodeId, osdc_net::NodeId) {
        let wan = osdc_wan(1e-7);
        let src = wan.node(OsdcSite::ChicagoKenwood);
        let dst = wan.node(OsdcSite::Lvoc);
        (
            TransferEngine::new(FluidNet::new(wan.topology, 3)),
            src,
            dst,
        )
    }

    fn content(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    fn populated_tree(files: usize, kb_each: usize) -> Tree {
        let mut t = Tree::new();
        for i in 0..files {
            t.put(
                &format!("/data/f{i}"),
                content(kb_each * 1024, i as u64),
                100,
            );
        }
        t
    }

    #[test]
    fn only_checksum_mode_lists_carry_digests() {
        // In path order: 29 equal files, three of other lengths, then
        // five more of one length. Where the CPU has AVX-512F, sixteen
        // lanes take 16 equal files, whose tails run in lanes, then 13
        // beside the three others, which finish alone; four lanes take
        // four of the last five, and the scalar path the fifth. On four
        // lanes alone, groups of equal and of mixed lengths arise too.
        let mut tree = populated_tree(29, 3);
        tree.put("/data/odd", content(5_000, 43), 7);
        tree.put("/data/sig", content(700, 41), 5);
        tree.put("/data/void", Vec::new(), 6);
        for i in 0..5 {
            tree.put(&format!("/data/w{i}"), content(100, 50 + i), 8);
        }
        let quick = tree.file_list(CheckMode::Quick);
        let checksum = tree.file_list(CheckMode::Checksum);
        assert_eq!(quick.len(), tree.len());
        assert_eq!(checksum.len(), tree.len());
        for (path, (content, mtime)) in &tree.files {
            let want = FileEntry::from_content(content, *mtime);
            assert_eq!(checksum[path], want, "{path}");
            let no_digest = FileEntry {
                digest: None,
                ..want
            };
            assert_eq!(quick[path], no_digest, "{path}");
        }
    }

    #[test]
    fn initial_sync_moves_everything() {
        let (mut eng, s, d) = engine();
        let src = populated_tree(20, 64);
        let mut dst = Tree::new();
        let report = sync_over_wan(
            &mut eng,
            &src,
            &mut dst,
            Protocol::Udr,
            CipherKind::None,
            CheckMode::Quick,
            s,
            d,
        );
        assert_eq!(report.files_created, 20);
        assert_eq!(report.files_updated, 0);
        assert!(report.wire_bytes >= src.total_bytes());
        assert_eq!(dst.len(), 20);
        for i in 0..20 {
            assert_eq!(
                dst.get(&format!("/data/f{i}")),
                src.get(&format!("/data/f{i}"))
            );
        }
    }

    #[test]
    fn resync_of_identical_trees_is_nearly_free() {
        let (mut eng, s, d) = engine();
        let src = populated_tree(10, 128);
        let mut dst = src.clone();
        let report = sync_over_wan(
            &mut eng,
            &src,
            &mut dst,
            Protocol::Udr,
            CipherKind::None,
            CheckMode::Quick,
            s,
            d,
        );
        assert_eq!(report.files_created + report.files_updated, 0);
        // Only the file-list chatter moves.
        assert!(
            report.wire_bytes < 10_000,
            "wire bytes {}",
            report.wire_bytes
        );
        assert!(report.speedup() > 100.0);
    }

    #[test]
    fn small_edit_costs_a_delta_not_a_copy() {
        let (mut eng, s, d) = engine();
        let src = populated_tree(10, 256);
        let mut dst = src.clone();
        // Re-process one file: flip 1 KB in the middle, bump mtime.
        let path = "/data/f3";
        let mut edited = src.get(path).expect("exists").to_vec();
        for b in &mut edited[100_000..101_024] {
            *b ^= 0xFF;
        }
        let mut src2 = src.clone();
        src2.put(path, edited, 200);
        let report = sync_over_wan(
            &mut eng,
            &src2,
            &mut dst,
            Protocol::Rsync,
            CipherKind::None,
            CheckMode::Quick,
            s,
            d,
        );
        assert_eq!(report.files_updated, 1);
        assert_eq!(dst.get(path), src2.get(path));
        // Wire cost ≪ the 256 KB file, let alone the 2.5 MB tree.
        assert!(
            report.wire_bytes < 64 * 1024,
            "wire bytes {} too high",
            report.wire_bytes
        );
        assert!(report.speedup() > 30.0, "speedup {:.0}", report.speedup());
    }

    #[test]
    fn checksum_mode_catches_mtime_preserving_change() {
        let (mut eng, s, d) = engine();
        let mut src = Tree::new();
        src.put("/f", b"new content".to_vec(), 100);
        let mut dst = Tree::new();
        dst.put("/f", b"old content".to_vec(), 100); // same mtime, same size
                                                     // Quick mode misses it...
        let quick = sync_over_wan(
            &mut eng,
            &src,
            &mut dst.clone(),
            Protocol::Rsync,
            CipherKind::None,
            CheckMode::Quick,
            s,
            d,
        );
        assert_eq!(
            quick.files_updated, 0,
            "the documented quick-check blind spot"
        );
        // ...checksum mode fixes it.
        let (mut eng2, s2, d2) = engine();
        let checksum = sync_over_wan(
            &mut eng2,
            &src,
            &mut dst,
            Protocol::Rsync,
            CipherKind::None,
            CheckMode::Checksum,
            s2,
            d2,
        );
        assert_eq!(checksum.files_updated, 1);
        assert_eq!(dst.get("/f").expect("exists"), b"new content");
    }

    #[test]
    fn extra_target_files_are_reported_not_deleted() {
        let (mut eng, s, d) = engine();
        let src = populated_tree(2, 1);
        let mut dst = src.clone();
        dst.put("/stale/old.dat", vec![0u8; 100], 5);
        let report = sync_over_wan(
            &mut eng,
            &src,
            &mut dst,
            Protocol::Udr,
            CipherKind::None,
            CheckMode::Quick,
            s,
            d,
        );
        assert_eq!(report.extra_on_target, 1);
        assert!(dst.get("/stale/old.dat").is_some(), "no --delete semantics");
    }

    #[test]
    fn encrypted_sync_matches_plaintext_trees_and_accounting() {
        // The wire cipher really transforms payloads in flight, but CTR
        // preserves length: the destination tree and the wire accounting
        // must be byte-identical across all three Table 3 cipher rows.
        let mut reports = Vec::new();
        for cipher in [
            CipherKind::None,
            CipherKind::Blowfish,
            CipherKind::TripleDes,
        ] {
            let (mut eng, s, d) = engine();
            let src = populated_tree(6, 32);
            let mut dst = src.clone();
            // One new file and one edited file per pass.
            let mut src2 = src.clone();
            src2.put("/data/new", content(10_000, 99), 300);
            let mut edited = src.get("/data/f1").expect("exists").to_vec();
            for b in &mut edited[5_000..5_100] {
                *b ^= 0xAA;
            }
            src2.put("/data/f1", edited, 301);
            let report = sync_over_wan(
                &mut eng,
                &src2,
                &mut dst,
                Protocol::Udr,
                cipher,
                CheckMode::Quick,
                s,
                d,
            );
            assert_eq!(report.files_created, 1, "{cipher}");
            assert_eq!(report.files_updated, 1, "{cipher}");
            for path in ["/data/new", "/data/f1", "/data/f5"] {
                assert_eq!(dst.get(path), src2.get(path), "{cipher}: {path}");
            }
            reports.push(report.wire_bytes);
        }
        assert_eq!(reports[0], reports[1], "blowfish changed wire accounting");
        assert_eq!(reports[0], reports[2], "3des changed wire accounting");
    }

    #[test]
    fn udr_syncs_faster_than_rsync_for_bulk() {
        let run = |protocol| {
            let (mut eng, s, d) = engine();
            let src = populated_tree(4, 512);
            let mut dst = Tree::new();
            sync_over_wan(
                &mut eng,
                &src,
                &mut dst,
                protocol,
                CipherKind::None,
                CheckMode::Quick,
                s,
                d,
            )
            .transfer
            .duration
        };
        // Same bytes, different pipes. Small transfers are ramp-dominated,
        // so just require UDR not slower; the bulk benches cover the 87 %.
        assert!(run(Protocol::Udr) <= run(Protocol::Rsync));
    }
}
