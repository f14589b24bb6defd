//! Property-based tests on the algorithmic cores: the rsync delta
//! machinery and the cipher stack. These are the invariants a downstream
//! user leans on hardest, so they get proptest coverage over arbitrary
//! inputs rather than hand-picked cases.

use osdc::crypto::modes::CtrStream;
use osdc::crypto::{BlockCipher64, Blowfish, Des};
use osdc::transfer::{
    apply_delta, compute_signatures, generate_delta, weak_checksum, RollingChecksum,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fundamental rsync contract: for ANY basis, ANY target and ANY
    /// block size, the delta rebuilds the target exactly.
    #[test]
    fn delta_roundtrip_arbitrary(
        basis in proptest::collection::vec(any::<u8>(), 0..4096),
        new_data in proptest::collection::vec(any::<u8>(), 0..4096),
        block_size in 1usize..512,
    ) {
        let sigs = compute_signatures(&basis, block_size);
        let delta = generate_delta(&sigs, &new_data);
        let rebuilt = apply_delta(&basis, &delta, block_size).expect("self-generated delta applies");
        prop_assert_eq!(rebuilt, new_data);
        prop_assert_eq!(delta.matched_bytes + delta.literal_bytes, delta_output_len(&delta));
    }

    /// Deltas of identical inputs carry no literal bytes (beyond an empty
    /// target edge case).
    #[test]
    fn identical_input_delta_is_pure_copy(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        block_size in 1usize..512,
    ) {
        let sigs = compute_signatures(&data, block_size);
        let delta = generate_delta(&sigs, &data);
        prop_assert_eq!(delta.literal_bytes, 0);
        prop_assert_eq!(delta.matched_bytes, data.len());
    }

    /// Rolling the checksum across any data equals recomputing directly.
    #[test]
    fn rolling_equals_direct(
        data in proptest::collection::vec(any::<u8>(), 2..2048),
        window_frac in 1usize..100,
    ) {
        let window = (data.len() * window_frac / 100).clamp(1, data.len() - 1);
        let mut rc = RollingChecksum::new(&data[..window]);
        for start in 1..=(data.len() - window) {
            rc.roll(data[start - 1], data[start + window - 1]);
            prop_assert_eq!(rc.value(), weak_checksum(&data[start..start + window]));
        }
    }

    /// DES is a permutation: decrypt ∘ encrypt = id on any block, for any
    /// key. 3DES's middle stage is this decryption.
    #[test]
    fn ciphers_roundtrip(block: u64, key: u64) {
        let des = Des::new(key.to_be_bytes());
        prop_assert_eq!(des.decrypt_block_u64(des.encrypt_block_u64(block)), block);
    }

    /// CTR is an involution and position-independent chunking agrees.
    #[test]
    fn ctr_involution(data in proptest::collection::vec(any::<u8>(), 0..2048), nonce: u64) {
        let bf = Blowfish::new(b"proptest-ctr");
        let mut once = data.clone();
        CtrStream::new(&bf, nonce).apply(&mut once);
        CtrStream::new(&bf, nonce).apply(&mut once);
        prop_assert_eq!(once, data);
    }
}

fn delta_output_len(delta: &osdc::transfer::Delta) -> usize {
    delta.matched_bytes + delta.literal_bytes
}

#[test]
fn appended_tail_reuses_whole_prefix() {
    // Deterministic variant of a key efficiency property: append-only
    // growth (the common science-data pattern) must transfer ~only the
    // new bytes.
    let basis: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let mut grown = basis.clone();
    grown.extend(std::iter::repeat_n(7u8, 5000));
    let block = 1000;
    let sigs = compute_signatures(&basis, block);
    let delta = generate_delta(&sigs, &grown);
    assert!(
        delta.literal_bytes <= 5000 + block,
        "literals: {}",
        delta.literal_bytes
    );
    assert_eq!(apply_delta(&basis, &delta, block).expect("applies"), grown);
}
