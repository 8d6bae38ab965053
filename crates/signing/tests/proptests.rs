//! Property tests for the trust chain.

use proptest::prelude::*;
use signing::hmac::hmac_sha256;
use signing::sha256::digest;
use signing::{KeyStore, Signature, SigningKey};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn digest_is_deterministic(data in prop::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(digest(&data), digest(&data));
    }

    #[test]
    fn digest_split_invariance(data in prop::collection::vec(any::<u8>(), 0..512), split in any::<prop::sample::Index>()) {
        let at = split.index(data.len() + 1);
        let mut h = signing::sha256::Sha256::new();
        h.update(&data[..at.min(data.len())]);
        h.update(&data[at.min(data.len())..]);
        prop_assert_eq!(h.finalize(), digest(&data));
    }

    #[test]
    fn different_messages_have_different_macs(key in prop::collection::vec(any::<u8>(), 1..64),
                                              a in prop::collection::vec(any::<u8>(), 0..128),
                                              b in prop::collection::vec(any::<u8>(), 0..128)) {
        prop_assume!(a != b);
        prop_assert_ne!(hmac_sha256(&key, &a), hmac_sha256(&key, &b));
    }

    #[test]
    fn hmac_matches_the_textbook_construction(key in prop::collection::vec(any::<u8>(), 0..=200),
                                              msg in prop::collection::vec(any::<u8>(), 0..=300)) {
        // RFC 2104 spelled out: a key longer than a block is hashed, the
        // key is zero-padded to a block, and each pad is concatenated.
        let mut block = if key.len() > 64 { digest(&key).to_vec() } else { key.clone() };
        block.resize(64, 0);
        let ipad: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
        let opad: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
        let inner = digest(&[ipad, msg.clone()].concat());
        let want = digest(&[opad, inner.to_vec()].concat());
        prop_assert_eq!(hmac_sha256(&key, &msg), want);
    }

    #[test]
    fn any_single_byte_tamper_is_detected(seed in any::<u64>(),
                                          data in prop::collection::vec(any::<u8>(), 1..256),
                                          pos in any::<prop::sample::Index>(),
                                          flip in 1u8..=255) {
        let key = SigningKey::derive(seed);
        let mut store = KeyStore::new();
        store.enroll(&key).unwrap();
        let sig = key.sign(&data);
        store.validate(&data, &sig).unwrap();
        let mut tampered = data.clone();
        let i = pos.index(tampered.len());
        tampered[i] ^= flip;
        prop_assert!(store.validate(&tampered, &sig).is_err());
    }

    #[test]
    fn signature_serialization_roundtrip(seed in any::<u64>(), data in prop::collection::vec(any::<u8>(), 0..64)) {
        let sig = SigningKey::derive(seed).sign(&data);
        prop_assert_eq!(Signature::from_bytes(&sig.to_bytes()), Some(sig));
    }
}
