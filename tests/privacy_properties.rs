//! Cross-crate privacy property tests — the paper's claims as assertions.
//!
//! Each test states one of the paper's privacy claims.

use p2drm::core::audit::Party;
use p2drm::prelude::*;

/// Claim: purchases are unlinkable to identity — nothing the provider
/// receives contains the user id, account, master key, or card id.
#[test]
fn provider_view_is_identity_free() {
    let mut rng = test_rng(7001);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 10_000);

    let mut t = Transcript::new();
    for _ in 0..3 {
        sys.purchase_with_transcript(&mut alice, cid, &mut rng, &mut t)
            .unwrap();
    }
    let needles: Vec<Vec<u8>> = vec![
        alice.user_id().as_bytes().to_vec(),
        alice.account.as_bytes().to_vec(),
        alice.card.master_public().modulus().to_bytes_be(),
        alice.card.card_id().as_bytes().to_vec(),
    ];
    for needle in &needles {
        assert!(
            !t.scan_for(Party::Provider, needle),
            "identity-adjacent bytes reached the provider"
        );
    }
}

/// Claim: distinct purchases under the fresh policy are pairwise
/// unlinkable — each uses a distinct pseudonym, and the RA (who knows the
/// identity) never sees any pseudonym it could hand to the provider.
#[test]
fn fresh_purchases_use_distinct_pseudonyms_unknown_to_ra() {
    let mut rng = test_rng(7002);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"p", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 10_000);

    for _ in 0..4 {
        sys.purchase(&mut alice, cid, &mut rng).unwrap();
    }
    // All pseudonyms distinct.
    let mut seen = std::collections::BTreeSet::new();
    for rec in sys.provider.purchase_log() {
        assert!(
            seen.insert(rec.pseudonym),
            "pseudonym reused under fresh policy"
        );
    }
    // The RA's complete issuance view (blinded values) contains none of
    // the pseudonym moduli the provider saw.
    for cert in alice.pseudonym_certs() {
        let modulus = cert.body.pseudonym_key.modulus().to_bytes_be();
        for rec in sys.ra.issuance_log() {
            let blinded = rec.blinded.to_bytes_be();
            assert!(
                !blinded
                    .windows(modulus.len().min(blinded.len()))
                    .any(|w| w == &modulus[..w.len()] && w.len() == modulus.len()),
                "RA issuance log contains a pseudonym modulus"
            );
        }
    }
}

/// Claim: licenses are anonymous — the canonical license bytes carry no
/// identity even though the provider signed them.
#[test]
fn license_bytes_are_identity_free() {
    let mut rng = test_rng(7003);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"p", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let bytes = p2drm::codec::to_bytes(&license);
    let uid = alice.user_id();
    assert!(!bytes.windows(16).any(|w| w == uid.as_bytes()));
}

/// Contrast claim: the baseline leaks exactly the things P2DRM protects.
#[test]
fn baseline_contrast() {
    let mut rng = test_rng(7004);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let bid = sys.publish_baseline_content("x", 100, b"p", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);

    let mut t = Transcript::new();
    let ra_key = sys.ra.identity_public().clone();
    let now = sys.now();
    let epoch = sys.epoch();
    sys.baseline
        .purchase_identified(&mut alice, &ra_key, bid, now, epoch, &mut rng, &mut t)
        .unwrap();

    // The account name reaches the provider in the baseline...
    assert!(t.scan_for(Party::Provider, alice.account.as_bytes()));
    // ...and the provider log links account -> content.
    assert_eq!(sys.baseline.purchase_log()[0].0, alice.account);
}

/// Claim: the TTP alone can open escrows; the provider cannot decrypt the
/// escrow blob it sees inside pseudonym certificates.
#[test]
fn escrow_opaque_to_non_ttp() {
    let mut rng = test_rng(7005);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    let cert = alice.pseudonym_certs().last().unwrap();

    // The escrow bytes never contain the user id in the clear.
    let escrow_bytes = p2drm::codec::to_bytes(&cert.body.escrow);
    assert!(!escrow_bytes
        .windows(16)
        .any(|w| w == alice.user_id().as_bytes()));

    // A different ElGamal key (same group) cannot decrypt it.
    let imposter = p2drm::crypto::elgamal::ElGamalKeyPair::generate(
        p2drm::crypto::elgamal::ElGamalGroup::test_512(),
        &mut rng,
    );
    assert!(imposter.decrypt(&cert.body.escrow).is_err());
}

/// Claim: device compliance — wrong-device bindings and expired windows
/// are enforced regardless of who asks.
#[test]
fn device_binding_enforced() {
    let mut rng = test_rng(7006);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let mut device_a = sys.register_device(&mut rng).unwrap();
    let mut device_b = sys.register_device(&mut rng).unwrap();

    // Publish content whose rights bind to device A only.
    let rights = Rights::builder()
        .play(Limit::Unlimited)
        .device(device_a.binding_id())
        .build();
    let cid = sys
        .provider
        .publish("bound", 100, b"payload", rights, &mut rng);

    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();

    assert!(sys.play(&alice, &mut device_a, &license, &mut rng).is_ok());
    assert!(matches!(
        sys.play(&alice, &mut device_b, &license, &mut rng),
        Err(p2drm::core::CoreError::Denied(
            p2drm::rel::DenyReason::WrongDevice
        ))
    ));
}
