//! `wan_sync`: mirror a tree across the WAN, then keep it in sync. One
//! pass syncs a seeded 64 × 256 KiB tree (16 MiB, four times a 4 MiB
//! L2) into an empty target with UDR + Blowfish in quick-check mode,
//! then re-syncs it with rsync + 3DES in checksum mode after four
//! scattered 256-byte edits in every fourth file.
//!
//! This is the one end-to-end path on which the cipher kernels, MD5
//! file lists and the rsync delta scan work on real bytes; the network
//! model does little here. A traced run also replays the layers under
//! `sync_over_wan` on the same inputs to say where its time goes, since
//! the call itself cannot be split from outside.

use std::collections::BTreeMap;

use osdc_crypto::CipherKind;
use osdc_net::{osdc_wan, FluidNet, NodeId, OsdcSite};
use osdc_sim::{derive_seed, SimDuration, SimRng};
use osdc_transfer::{
    apply_delta, block_size_for, compute_signatures, generate_delta_with, plan_sync, sync_over_wan,
    CheckMode, DeltaOp, DeltaScratch, FileEntry, FileList, PlanAction, Protocol, SyncReport,
    TransferEngine, TransferSpec, Tree, WireCipher,
};

use crate::measure::{Checks, Size, Workload};
use crate::trace::Tracer;

const MTIME: u64 = 100;
const LONG_HAUL_LOSS: f64 = 1e-7;
const EDITS_PER_FILE: usize = 4;
const EDIT_EVERY: usize = 4;
/// The session key `sync_over_wan` uses, so the replayed key schedule is
/// the same work.
const SESSION_KEY: &[u8] = b"osdc sync session key";
/// Per-block signature and per-path file-list wire costs, as
/// `sync_over_wan` prices them.
const SIG_BYTES_PER_BLOCK: u64 = 24;
const LIST_BYTES_PER_PATH: u64 = 64;

/// The layers the replay re-drives, in the order a sync reaches them.
const REPLAYED: [&str; 8] = [
    "transfer.file_list",
    "transfer.plan_sync",
    "transfer.signatures",
    "transfer.delta_scan",
    "transfer.apply_delta",
    "crypto.blowfish_ctr",
    "crypto.tdes_ctr",
    "net.engine_run",
];

pub struct WanSync {
    /// `Tree` cannot list its files, so the benchmark keeps the paths.
    paths: Vec<String>,
    source: Tree,
    edited: Tree,
    edited_files: u32,
    net_seed: u64,
}

pub struct SyncOut {
    initial: SyncReport,
    resync: SyncReport,
    target: Tree,
}

struct Wan {
    engine: TransferEngine,
    src: NodeId,
    dst: NodeId,
}

impl WanSync {
    fn wan(&self) -> Wan {
        let wan = osdc_wan(LONG_HAUL_LOSS);
        let (src, dst) = (wan.node(OsdcSite::ChicagoKenwood), wan.node(OsdcSite::Lvoc));
        Wan {
            engine: TransferEngine::new(FluidNet::new(wan.topology, self.net_seed)),
            src,
            dst,
        }
    }

    fn file_list<'n>(&self, tree: &Tree, tr: &mut Tracer<'n>) -> FileList {
        tr.span("transfer.file_list", |_| {
            self.paths
                .iter()
                .map(|p| {
                    let content = tree.get(p).expect("listed path exists");
                    (p.clone(), FileEntry::from_content(content, MTIME))
                })
                .collect()
        })
    }
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

impl Workload for WanSync {
    const NAME: &'static str = "wan_sync";
    type Out = SyncOut;

    fn setup(seed: u64, size: Size) -> Self {
        let (files, file_bytes, edit_bytes) = match size {
            Size::Full => (64, 256 << 10, 256),
            Size::Smoke => (8, 16 << 10, 64),
        };
        let mut rng = SimRng::new(derive_seed(seed, 0x5ac));
        let mut source = Tree::new();
        let mut edited = Tree::new();
        let mut paths = Vec::with_capacity(files);
        for i in 0..files {
            let path = format!("/tree/d{}/f{i:03}", i % 8);
            let content = random_bytes(&mut rng, file_bytes);
            let mut changed = content.clone();
            if i % EDIT_EVERY == 0 {
                for _ in 0..EDITS_PER_FILE {
                    let at = rng.below((file_bytes - edit_bytes) as u64) as usize;
                    for b in &mut changed[at..at + edit_bytes] {
                        *b ^= 1 + rng.below(255) as u8;
                    }
                }
            }
            source.put(&path, content, MTIME);
            // Same size and mtime: only checksum mode sees these edits.
            edited.put(&path, changed, MTIME);
            paths.push(path);
        }
        WanSync {
            edited_files: files.div_ceil(EDIT_EVERY) as u32,
            paths,
            source,
            edited,
            net_seed: derive_seed(seed, 0x9e7),
        }
    }

    fn pass<'n>(&'n self, _workers: usize, tr: &mut Tracer<'n>) -> SyncOut {
        let Wan {
            mut engine,
            src,
            dst,
        } = self.wan();
        let mut target = Tree::new();
        let initial = tr.span("transfer.sync_initial", |_| {
            sync_over_wan(
                &mut engine,
                &self.source,
                &mut target,
                Protocol::Udr,
                CipherKind::Blowfish,
                CheckMode::Quick,
                src,
                dst,
            )
        });
        let resync = tr.span("transfer.sync_resync", |_| {
            sync_over_wan(
                &mut engine,
                &self.edited,
                &mut target,
                Protocol::Rsync,
                CipherKind::TripleDes,
                CheckMode::Checksum,
                src,
                dst,
            )
        });
        SyncOut {
            initial,
            resync,
            target,
        }
    }

    fn check(&self, out: &SyncOut, reference: Option<&SyncOut>, checks: &mut Checks) {
        checks.expect(out.target.len() == self.paths.len(), || {
            format!(
                "target holds {} files, source {}",
                out.target.len(),
                self.paths.len()
            )
        });
        for path in &self.paths {
            checks.expect(out.target.get(path) == self.edited.get(path), || {
                format!("synced {path} differs from the source")
            });
        }
        let files = self.paths.len() as u32;
        checks.expect(
            (out.initial.files_created, out.initial.files_updated) == (files, 0),
            || format!("initial sync created {}", out.initial.files_created),
        );
        checks.expect(
            (out.resync.files_created, out.resync.files_updated) == (0, self.edited_files),
            || format!("re-sync updated {}", out.resync.files_updated),
        );
        if let Some(r) = reference {
            for (got, want) in [(&out.initial, &r.initial), (&out.resync, &r.resync)] {
                checks.expect(
                    got.wire_bytes == want.wire_bytes
                        && got.transfer.duration == want.transfer.duration
                        && got.transfer.mbps.to_bits() == want.transfer.mbps.to_bits(),
                    || "sync report differs from pass 0".to_string(),
                );
            }
        }
    }

    fn work(&self, _out: &SyncOut) -> (f64, &'static str) {
        (2.0 * self.source.total_bytes() as f64 / 1e6, "MB")
    }

    /// Re-drive each layer `sync_over_wan` calls, on the same inputs and
    /// in the same order, checking that the replay prices the same wire
    /// bytes and WAN time as the real syncs did.
    fn replay<'n>(
        &'n self,
        out: &SyncOut,
        tr: &mut Tracer<'n>,
        checks: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        let Wan {
            mut engine,
            src,
            dst,
        } = self.wan();
        let listed = self.paths.len() as u64;
        let mut crypto_bytes = 0u64;
        let mut literal_bytes = 0u64;

        // Initial sync: everything is new, so every file is sealed and
        // opened whole.
        let source_list = self.file_list(&self.source, tr);
        let plan = tr.span("transfer.plan_sync", |_| {
            plan_sync(&source_list, &FileList::new(), CheckMode::Quick)
        });
        let blowfish = tr.span("crypto.blowfish_ctr", |_| {
            WireCipher::new(CipherKind::Blowfish, SESSION_KEY)
        });
        // File lists cross both ways; the target lists what it holds
        // once the sync is done.
        let mut wire = 2 * listed * LIST_BYTES_PER_PATH;
        for (nonce, (path, _)) in plan.iter().enumerate() {
            let mut content = self.source.get(path).expect("planned path").to_vec();
            tr.span("crypto.blowfish_ctr", |_| {
                blowfish.apply(nonce as u64, &mut content);
                blowfish.apply(nonce as u64, &mut content);
            });
            crypto_bytes += 2 * content.len() as u64;
            wire += content.len() as u64;
        }
        let initial = tr.span("net.engine_run", |_| {
            engine.run(
                &TransferSpec {
                    protocol: Protocol::Udr,
                    cipher: CipherKind::Blowfish,
                    bytes: wire,
                    files: plan.len() as u32,
                    src,
                    dst,
                },
                SimDuration::from_days(7),
            )
        });
        checks.expect(
            wire == out.initial.wire_bytes && initial.duration == out.initial.transfer.duration,
            || "replayed initial sync prices a different transfer".to_string(),
        );

        // Re-sync: the target holds the source; edited files move as
        // signature exchange + delta, literal runs through 3DES.
        let edited_list = self.file_list(&self.edited, tr);
        let basis_list = self.file_list(&self.source, tr);
        let plan = tr.span("transfer.plan_sync", |_| {
            plan_sync(&edited_list, &basis_list, CheckMode::Checksum)
        });
        let tdes = tr.span("crypto.tdes_ctr", |_| {
            WireCipher::new(CipherKind::TripleDes, SESSION_KEY)
        });
        let mut scratch = DeltaScratch::new();
        let mut wire = 2 * listed * LIST_BYTES_PER_PATH;
        let mut nonce = 0u64;
        for (path, action) in &plan {
            checks.expect(*action == PlanAction::Update, || {
                format!("re-sync plan has {action:?} for {path}")
            });
            let basis = self.source.get(path).expect("planned path");
            let new_data = self.edited.get(path).expect("planned path");
            let bs = block_size_for(basis.len().max(1));
            let sigs = tr.span("transfer.signatures", |_| compute_signatures(basis, bs));
            wire += sigs.blocks.len() as u64 * SIG_BYTES_PER_BLOCK;
            let mut delta = tr.span("transfer.delta_scan", |_| {
                generate_delta_with(&sigs, new_data, &mut scratch)
            });
            wire += delta.wire_bytes() as u64;
            literal_bytes += delta.literal_bytes as u64;
            for op in &mut delta.ops {
                if let DeltaOp::Literal(bytes) = op {
                    tr.span("crypto.tdes_ctr", |_| {
                        tdes.apply(nonce, bytes);
                        tdes.apply(nonce, bytes);
                    });
                    crypto_bytes += 2 * bytes.len() as u64;
                    nonce += 1;
                }
            }
            let rebuilt = tr.span("transfer.apply_delta", |_| apply_delta(basis, &delta, bs));
            checks.expect(rebuilt.as_deref() == Some(new_data), || {
                format!("replayed delta does not rebuild {path}")
            });
        }
        let resync = tr.span("net.engine_run", |_| {
            engine.run(
                &TransferSpec {
                    protocol: Protocol::Rsync,
                    cipher: CipherKind::TripleDes,
                    bytes: wire,
                    files: plan.len() as u32,
                    src,
                    dst,
                },
                SimDuration::from_days(7),
            )
        });
        checks.expect(
            wire == out.resync.wire_bytes && resync.duration == out.resync.transfer.duration,
            || "replayed re-sync prices a different transfer".to_string(),
        );

        vec![
            ("transfer.literal_bytes", literal_bytes as f64),
            ("crypto.bytes", crypto_bytes as f64),
        ]
    }

    fn layer_metrics(
        &self,
        reference: &SyncOut,
        layers: &BTreeMap<String, f64>,
    ) -> Vec<(&'static str, f64)> {
        let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
        let replayed: f64 = REPLAYED.iter().map(|name| layer(name)).sum();
        let synced = layer("transfer.sync_initial") + layer("transfer.sync_resync");
        vec![
            ("transfer.replay_cover", replayed / synced),
            (
                "transfer.wire_bytes",
                (reference.initial.wire_bytes + reference.resync.wire_bytes) as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_is_byte_exact_and_a_flipped_byte_is_caught() {
        let w = WanSync::setup(7, Size::Smoke);
        let reference = w.pass(1, &mut Tracer::off());
        let mut checks = Checks::default();
        w.check(&reference, None, &mut checks);
        let mut out = w.pass(1, &mut Tracer::off());
        w.check(&out, Some(&reference), &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.first_failure);

        let path = &w.paths[1];
        let mut content = out.target.get(path).expect("synced").to_vec();
        content[3] ^= 0x20;
        out.target.put(path, content, MTIME);
        let mut trapped = Checks::default();
        w.check(&out, Some(&reference), &mut trapped);
        assert_eq!(trapped.failed, 1, "{:?}", trapped.first_failure);
    }

    #[test]
    fn replay_prices_the_same_transfers() {
        let w = WanSync::setup(3, Size::Smoke);
        let out = w.pass(1, &mut Tracer::off());
        let mut checks = Checks::default();
        let mut tr = Tracer::new(true);
        let counts = w.replay(&out, &mut tr, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.first_failure);
        let names: std::collections::BTreeSet<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, REPLAYED.into_iter().collect());
        assert!(counts.iter().all(|&(_, v)| v > 0.0), "{counts:?}");
    }
}
