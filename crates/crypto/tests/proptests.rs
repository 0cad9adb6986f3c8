//! Property-based tests over the crypto primitives.
//!
//! Key generation is too slow to randomize per case, so a small pool of
//! fixed keys is shared while messages, payloads and tamper positions are
//! randomized.

use p2drm_bignum::{Mont, UBig};
use p2drm_crypto::elgamal::{ElGamalGroup, ElGamalKeyPair};
use p2drm_crypto::rng::test_rng;
use p2drm_crypto::rsa as batch_sig;
use p2drm_crypto::rsa::{fdh, kem_decapsulate, kem_encapsulate, RsaKeyPair};
use p2drm_crypto::{batch, blind, chacha20, envelope, hmac, kdf, sha256};
use proptest::prelude::*;
use std::sync::OnceLock;

fn keys() -> &'static [RsaKeyPair; 2] {
    static KEYS: OnceLock<[RsaKeyPair; 2]> = OnceLock::new();
    KEYS.get_or_init(|| {
        [
            RsaKeyPair::generate(512, &mut test_rng(0xAA01)),
            RsaKeyPair::generate(512, &mut test_rng(0xAA02)),
        ]
    })
}

fn elgamal_keys() -> &'static ElGamalKeyPair {
    static KEYS: OnceLock<ElGamalKeyPair> = OnceLock::new();
    KEYS.get_or_init(|| ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut test_rng(0xAA03)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_incremental_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                          split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256::sha256(&data));
    }

    #[test]
    fn chacha20_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                          data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let ct = chacha20::encrypt(&key, &nonce, &data);
        prop_assert_eq!(chacha20::decrypt(&key, &nonce, &ct), data);
    }

    #[test]
    fn hmac_distinguishes_keys_and_messages(k1 in proptest::collection::vec(any::<u8>(), 1..64),
                                            k2 in proptest::collection::vec(any::<u8>(), 1..64),
                                            m in proptest::collection::vec(any::<u8>(), 0..128)) {
        let t1 = hmac::hmac_sha256(&k1, &m);
        if k1 != k2 {
            prop_assert_ne!(t1, hmac::hmac_sha256(&k2, &m));
        } else {
            prop_assert_eq!(t1, hmac::hmac_sha256(&k2, &m));
        }
    }

    #[test]
    fn hkdf_deterministic_and_prefix_stable(salt in proptest::collection::vec(any::<u8>(), 0..32),
                                            ikm in proptest::collection::vec(any::<u8>(), 1..64),
                                            len in 1usize..100) {
        let a = kdf::derive(&salt, &ikm, b"info", len);
        let b = kdf::derive(&salt, &ikm, b"info", len);
        prop_assert_eq!(&a, &b);
        let longer = kdf::derive(&salt, &ikm, b"info", len + 7);
        prop_assert_eq!(&longer[..len], &a[..]);
    }

    #[test]
    fn rsa_sign_verify_arbitrary_messages(msg in proptest::collection::vec(any::<u8>(), 0..256),
                                          key_idx in 0usize..2) {
        let kp = &keys()[key_idx];
        let other = &keys()[1 - key_idx];
        let sig = kp.sign(&msg);
        prop_assert!(kp.public().verify(&msg, &sig).is_ok());
        prop_assert!(other.public().verify(&msg, &sig).is_err());
    }

    #[test]
    fn rsa_signature_binds_message(m1 in proptest::collection::vec(any::<u8>(), 1..128),
                                   m2 in proptest::collection::vec(any::<u8>(), 1..128)) {
        let kp = &keys()[0];
        let sig = kp.sign(&m1);
        if m1 != m2 {
            prop_assert!(kp.public().verify(&m2, &sig).is_err());
        }
    }

    #[test]
    fn kem_roundtrip_always(seed in any::<u64>()) {
        let kp = &keys()[0];
        let (ct, shared) = kem_encapsulate(kp.public(), &mut test_rng(seed));
        prop_assert_eq!(kem_decapsulate(kp, &ct).unwrap(), shared);
    }

    #[test]
    fn envelope_roundtrip_and_tamper(payload in proptest::collection::vec(any::<u8>(), 0..200),
                                     seed in any::<u64>(),
                                     flip_byte in 0usize..64) {
        let kp = &keys()[0];
        let env = envelope::seal(kp.public(), &payload, &mut test_rng(seed));
        prop_assert_eq!(envelope::open(kp, &env).unwrap(), payload);

        // Any single-byte flip in the body or KEM ct must be detected.
        let mut bad = env.clone();
        let idx = flip_byte % bad.kem_ct.len();
        bad.kem_ct[idx] ^= 1;
        prop_assert!(envelope::open(kp, &bad).is_err());
        if !env.body.is_empty() {
            let mut bad = env.clone();
            let idx = flip_byte % bad.body.len();
            bad.body[idx] ^= 1;
            prop_assert!(envelope::open(kp, &bad).is_err());
        }
    }

    #[test]
    fn blind_signature_complete_and_sound(msg in proptest::collection::vec(any::<u8>(), 1..128),
                                          seed in any::<u64>()) {
        let kp = &keys()[0];
        let mut rng = test_rng(seed);
        let blinded = blind::Blinded::new(kp.public(), &msg, &mut rng).unwrap();
        // Blinded value differs from the FDH image (statistically certain).
        prop_assert_ne!(&blinded.blinded, &fdh(&msg, kp.public().modulus_len()));
        let s = blind::blind_sign(kp, &blinded.blinded).unwrap();
        let sig = blinded.unblind(kp.public(), &s).unwrap();
        prop_assert!(blind::verify_fdh(kp.public(), &msg, &sig).is_ok());
        // Soundness: the signature does not verify for a different message.
        let mut other = msg.clone();
        other[0] ^= 1;
        prop_assert!(blind::verify_fdh(kp.public(), &other, &sig).is_err());
    }

    #[test]
    fn fdh_always_in_ring(msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let kp = &keys()[0];
        let h = fdh(&msg, kp.public().modulus_len());
        prop_assert!(&h < kp.public().modulus());
    }

    #[test]
    fn fixed_base_elgamal_pow_matches_generic(seed in any::<u64>()) {
        // pow_g goes through the fixed-base table; group.pow is the
        // generic Mont kernel on the same base.
        let g = ElGamalGroup::test_512();
        let x = g.random_exponent(&mut test_rng(seed));
        prop_assert_eq!(g.pow_g(&x), g.pow(&g.generator().clone(), &x));
        // Edge exponents hit the table's zero-window and top-window paths.
        prop_assert_eq!(g.pow_g(&UBig::zero()), UBig::one());
        prop_assert_eq!(&g.pow_g(&UBig::one()), g.generator());
    }

    #[test]
    fn fixed_base_elgamal_paths_match_reference_kernel(
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Both fixed-base tables (g and the public key's h) must agree with
        // the pre-optimization kernel, and encryption through them must
        // round-trip.
        let kp = elgamal_keys();
        let group = kp.public().group();
        let reference = Mont::new(group.modulus()).unwrap();
        let x = group.random_exponent(&mut test_rng(seed));
        prop_assert_eq!(group.pow_g(&x), reference.pow_reference(group.generator(), &x));
        prop_assert_eq!(kp.public().pow_h(&x), reference.pow_reference(kp.public().h(), &x));
        let ct = kp.public().encrypt(&msg, &mut test_rng(seed));
        prop_assert_eq!(kp.decrypt(&ct).unwrap(), msg);
    }

    // --- batch verification -------------------------------------------

    #[test]
    fn batch_accepts_iff_each_item_individually_valid(
        seed in any::<u64>(),
        k in 2usize..12,
        corrupt in proptest::collection::vec(0usize..12, 0..4),
        mode_screen in any::<bool>(),
    ) {
        // Randomly corrupt a subset of a k-item batch and check that the
        // batch verdict matches k individual verifications exactly: the
        // rejected set is precisely the corrupted indices, in both scalar
        // regimes.
        let kp = &keys()[0];
        let msgs: Vec<Vec<u8>> = (0..k)
            .map(|i| format!("batch prop msg {seed} #{i}").into_bytes())
            .collect();
        let mut sigs: Vec<_> = msgs.iter().map(|m| kp.sign(m)).collect();
        let mut corrupt: Vec<usize> = corrupt.into_iter().filter(|&i| i < k).collect();
        corrupt.sort_unstable();
        corrupt.dedup();
        for &i in &corrupt {
            // Forge by signing a different message: structurally a fine
            // signature, only the combined/individual checks catch it.
            sigs[i] = kp.sign(format!("forged {seed} #{i}").as_bytes());
        }
        let items: Vec<(&[u8], &batch_sig::RsaSignature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        let mode = if mode_screen {
            batch::BatchMode::Screen
        } else {
            batch::BatchMode::SmallExponents { bits: 32 }
        };
        let report = batch::verify_batch(kp.public(), &items, mode, &mut test_rng(seed ^ 0xB17C));
        prop_assert_eq!(&report.rejected, &corrupt, "rejected set must be the corrupt set");
        let individually: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, (m, s))| kp.public().verify(m, s).is_err())
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(&report.rejected, &individually);
        prop_assert_eq!(report.all_valid(), corrupt.is_empty());
        if !corrupt.is_empty() {
            prop_assert!(report.splits > 0, "failures must go through the splitter");
        }
    }

    #[test]
    fn fdh_batch_split_pinpoints_single_corrupt_index(
        seed in any::<u64>(),
        k in 2usize..10,
        bad in 0usize..10,
    ) {
        // One corrupted FDH signature in an otherwise-valid batch: the
        // binary-split fallback must isolate exactly that index.
        let bad = bad % k;
        let kp = &keys()[1];
        let modlen = kp.public().modulus_len();
        let msgs: Vec<Vec<u8>> = (0..k)
            .map(|i| format!("fdh prop msg {seed} #{i}").into_bytes())
            .collect();
        let sigs: Vec<batch_sig::RsaSignature> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let src: &[u8] = if i == bad { b"wrong preimage" } else { m };
                batch_sig::RsaSignature::from_ubig(kp.raw_private(&fdh(src, modlen)))
            })
            .collect();
        let items: Vec<(&[u8], &batch_sig::RsaSignature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        let report = batch::screen_fdh_batch(kp.public(), &items);
        prop_assert_eq!(report.rejected, vec![bad]);
        prop_assert!(report.splits > 0);
    }
}
