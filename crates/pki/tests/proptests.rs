//! Property tests for certificate encodings and revocation structures.

use p2drm_pki::cert::{
    digest_id, CertificateBody, EntityKind, Extension, KeyId, SubjectKey, Validity,
};
use p2drm_pki::crl::RevocationList;
use proptest::prelude::*;
use std::sync::OnceLock;

fn fixed_rsa() -> &'static p2drm_crypto::rsa::RsaPublicKey {
    static KEY: OnceLock<p2drm_crypto::rsa::RsaPublicKey> = OnceLock::new();
    KEY.get_or_init(|| {
        p2drm_crypto::rsa::RsaKeyPair::generate(512, &mut p2drm_crypto::rng::test_rng(0xBB))
            .public()
            .clone()
    })
}

fn entity_kind() -> impl Strategy<Value = EntityKind> {
    prop_oneof![
        Just(EntityKind::Root),
        Just(EntityKind::RegistrationAuthority),
        Just(EntityKind::ContentProvider),
        Just(EntityKind::Device),
        Just(EntityKind::SmartCard),
        Just(EntityKind::Ttp),
        Just(EntityKind::Mint),
        Just(EntityKind::User),
    ]
}

fn extension() -> impl Strategy<Value = Extension> {
    ("[a-z]{1,12}", proptest::collection::vec(any::<u8>(), 0..24))
        .prop_map(|(key, value)| Extension { key, value })
}

fn cert_body() -> impl Strategy<Value = CertificateBody> {
    (
        any::<u64>(),
        entity_kind(),
        any::<[u8; 32]>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(extension(), 0..4),
    )
        .prop_map(
            |(serial, kind, issuer, from, until, extensions)| CertificateBody {
                serial,
                kind,
                subject_key: SubjectKey::Rsa(fixed_rsa().clone()),
                issuer: KeyId(issuer),
                validity: Validity::new(from.min(until), from.max(until)),
                extensions,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn certificate_body_roundtrip(body in cert_body()) {
        let bytes = p2drm_codec::to_bytes(&body);
        let back: CertificateBody = p2drm_codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, body);
    }

    #[test]
    fn signing_bytes_injective_on_serial(body in cert_body(), other_serial in any::<u64>()) {
        let mut other = body.clone();
        other.serial = other_serial;
        if body.serial != other.serial {
            prop_assert_ne!(body.signing_bytes(), other.signing_bytes());
        } else {
            prop_assert_eq!(body.signing_bytes(), other.signing_bytes());
        }
    }

    #[test]
    fn revocation_list_set_semantics(ids in proptest::collection::vec(any::<u64>(), 0..64)) {
        let keyids: Vec<KeyId> = ids.iter().map(|i| digest_id(&i.to_le_bytes())).collect();
        let crl = RevocationList::from_ids(keyids.clone());
        let unique: std::collections::BTreeSet<_> = keyids.iter().cloned().collect();
        prop_assert_eq!(crl.len(), unique.len());
        for id in &keyids {
            prop_assert!(crl.contains(id));
            prop_assert!(crl.contains_linear(id));
        }
        // Absent ids are absent in both probe paths.
        let absent = digest_id(b"definitely-not-revoked");
        if !unique.contains(&absent) {
            prop_assert!(!crl.contains(&absent));
            prop_assert!(!crl.contains_linear(&absent));
        }
    }

    #[test]
    fn crl_insert_idempotent(ids in proptest::collection::vec(any::<u64>(), 0..32)) {
        let mut crl = RevocationList::new();
        for i in &ids {
            crl.insert(digest_id(&i.to_le_bytes()));
        }
        let len_once = crl.len();
        for i in &ids {
            prop_assert!(!crl.insert(digest_id(&i.to_le_bytes())), "reinsert must report false");
        }
        prop_assert_eq!(crl.len(), len_once);
    }
}
