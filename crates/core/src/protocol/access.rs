//! Content access on a compliant device.
//!
//! Device checks (license sig, CRLs, holder proof, rights), card key
//! release sealed to the device key, anonymous download, decryption, and
//! rights-state consumption — the full enforcement loop.

use crate::audit::{Party, Transcript};
use crate::entities::device::{challenge_message, CompliantDevice};
use crate::entities::provider::ContentProvider;
use crate::entities::user::UserAgent;
use crate::license::License;
use crate::protocol::messages::{
    DownloadRequest, DownloadResponse, HolderChallenge, HolderProof, KeyRelease,
};
use crate::CoreError;
use p2drm_crypto::rng::CryptoRng;
use p2drm_rel::{AccessRequest, Action};
use p2drm_store::ConcurrentKv;

/// Plays `license` on `device`, returning the decrypted content bytes.
pub fn play<BP: ConcurrentKv, SD: ConcurrentKv, R: CryptoRng + ?Sized>(
    user: &UserAgent,
    device: &mut CompliantDevice<SD>,
    provider: &ContentProvider<BP>,
    license: &License,
    now: u64,
    rng: &mut R,
    transcript: &mut Transcript,
) -> Result<Vec<u8>, CoreError> {
    let owned = user
        .license(&license.id())
        .ok_or(CoreError::UnknownLicense(license.id()))?;
    let pseudonym_cert = user
        .pseudonym_certs()
        .iter()
        .find(|c| c.pseudonym_id() == owned.pseudonym)
        .ok_or(CoreError::BadPseudonym(
            "certificate for holder key missing",
        ))?;

    // Device -> Card: challenge.
    let nonce = device.make_challenge(rng);
    let challenge = HolderChallenge {
        nonce,
        license_id: license.id(),
    };
    transcript.record(
        Party::Device,
        Party::Card,
        "holder-challenge",
        p2drm_codec::to_bytes(&challenge),
    );

    // Card -> Device: holder proof.
    let proof_sig = user
        .card
        .sign_with_pseudonym(&owned.pseudonym, &challenge_message(&nonce, &license.id()))?;
    let proof = HolderProof {
        signature: proof_sig.clone(),
    };
    transcript.record(
        Party::Card,
        Party::Device,
        "holder-proof",
        p2drm_codec::to_bytes(&proof),
    );

    // Device: full compliance check (no consumption yet).
    let req = AccessRequest::play(now, device.binding_id());
    device.check_access(license, Some(pseudonym_cert), &nonce, &proof_sig, &req)?;

    // Card -> Device: content key, re-sealed to the device key.
    let sealed = user.card.unwrap_and_reseal(
        &owned.pseudonym,
        &license.body.key_envelope,
        device.public_key(),
        rng,
    )?;
    let release = KeyRelease {
        sealed: sealed.clone(),
    };
    transcript.record(
        Party::Card,
        Party::Device,
        "key-release",
        p2drm_codec::to_bytes(&release),
    );
    let content_key = device.open_sealed_key(&sealed)?;

    // Device -> Provider: anonymous download.
    let dl_req = DownloadRequest {
        content_id: license.body.content_id,
    };
    transcript.record(
        Party::Device,
        Party::Provider,
        "download-request",
        p2drm_codec::to_bytes(&dl_req),
    );
    let (content_nonce, ciphertext) = provider.download(&license.body.content_id)?;
    let dl_resp = DownloadResponse {
        nonce: content_nonce,
        ciphertext: ciphertext.clone(),
    };
    transcript.record(
        Party::Provider,
        Party::Device,
        "download-response",
        p2drm_codec::to_bytes(&dl_resp),
    );

    // Decrypt, then consume the play (state persists on the device).
    let payload = crate::content::decrypt_payload(&content_key, &content_nonce, &ciphertext);
    device.consume(license, &req)?;
    Ok(payload)
}

/// Device-side check that a transfer action would be permitted (used by
/// user agents before bothering the provider; enforcement proper happens
/// at the provider).
pub fn can_transfer<SD: ConcurrentKv>(
    device: &CompliantDevice<SD>,
    license: &License,
    now: u64,
) -> Result<(), CoreError> {
    let state = device.rights_state(license)?;
    let req = AccessRequest::play(now, device.binding_id()).with_action(Action::Transfer);
    match license.body.rights.evaluate(&state, &req) {
        p2drm_rel::Decision::Permit => Ok(()),
        p2drm_rel::Decision::Deny(r) => Err(CoreError::Denied(r)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{System, SystemConfig};
    use p2drm_crypto::rng::test_rng;

    struct Fx {
        sys: System,
        alice: UserAgent,
        device: CompliantDevice,
        license: License,
    }

    fn fixture(seed: u64) -> Fx {
        let mut rng = test_rng(seed);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"SECRET AUDIO", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 1000);
        let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
        let device = sys.register_device(&mut rng).unwrap();
        Fx {
            sys,
            alice,
            device,
            license,
        }
    }

    #[test]
    fn play_decrypts_and_consumes() {
        let mut f = fixture(180);
        let mut rng = test_rng(181);
        let mut t = Transcript::new();
        let payload = play(
            &f.alice,
            &mut f.device,
            &f.sys.provider,
            &f.license,
            10,
            &mut rng,
            &mut t,
        )
        .unwrap();
        assert_eq!(payload, b"SECRET AUDIO");
        assert_eq!(f.device.rights_state(&f.license).unwrap().plays_used, 1);
        assert!(t.message_count() >= 5);
    }

    #[test]
    fn play_count_exhaustion_enforced() {
        // fast_test rights template grants play count=3.
        let mut f = fixture(182);
        let mut rng = test_rng(183);
        for i in 0..3 {
            let mut t = Transcript::new();
            play(
                &f.alice,
                &mut f.device,
                &f.sys.provider,
                &f.license,
                10 + i,
                &mut rng,
                &mut t,
            )
            .unwrap_or_else(|e| panic!("play {i} failed: {e}"));
        }
        let mut t = Transcript::new();
        let res = play(
            &f.alice,
            &mut f.device,
            &f.sys.provider,
            &f.license,
            20,
            &mut rng,
            &mut t,
        );
        assert!(matches!(res, Err(CoreError::Denied(_))));
    }

    #[test]
    fn revoked_license_rejected_after_crl_sync() {
        let mut f = fixture(184);
        let mut rng = test_rng(185);
        f.sys.provider.revoke_license(&f.license.id()).unwrap();
        let lic_crl = f.sys.provider.signed_license_crl(50);
        let pseud_crl = f.sys.provider.signed_pseudonym_crl(50);
        f.device.sync_crls(&lic_crl, &pseud_crl).unwrap();

        let mut t = Transcript::new();
        let res = play(
            &f.alice,
            &mut f.device,
            &f.sys.provider,
            &f.license,
            10,
            &mut rng,
            &mut t,
        );
        assert!(matches!(res, Err(CoreError::Revoked("license"))));
    }

    #[test]
    fn delta_backlog_applies_as_one_batch() {
        // A device offline for several revocation rounds catches up with
        // a chain of single-step deltas, verified in one batched check.
        let mut f = fixture(188);
        let mut deltas = Vec::new();
        for i in 0..5u8 {
            let since = f.sys.provider.signed_pseudonym_crl(0).sequence;
            f.sys
                .provider
                .revoke_pseudonym(p2drm_pki::cert::digest_id(&[i]))
                .unwrap();
            deltas.push(f.sys.provider.pseudonym_crl_delta(since, 60 + i as u64));
        }
        f.device.apply_pseudonym_crl_deltas(&deltas).unwrap();

        // A tampered delta in the backlog: nothing may be applied.
        let mut f2 = fixture(189);
        let since = f2.sys.provider.signed_pseudonym_crl(0).sequence;
        f2.sys
            .provider
            .revoke_pseudonym(p2drm_pki::cert::digest_id(&[9]))
            .unwrap();
        let mut delta = f2.sys.provider.pseudonym_crl_delta(since, 60);
        delta.added.push(p2drm_pki::cert::digest_id(&[77]));
        assert!(f2.device.apply_pseudonym_crl_deltas(&[delta]).is_err());
    }

    #[test]
    fn foreign_license_rejected() {
        // Bob cannot play Alice's license: his card lacks the pseudonym key.
        let mut f = fixture(186);
        let mut rng = test_rng(187);
        let bob = f.sys.register_user("bob", &mut rng).unwrap();
        f.sys.fund(&bob, 1000);
        let mut t = Transcript::new();
        let res = play(
            &bob,
            &mut f.device,
            &f.sys.provider,
            &f.license,
            10,
            &mut rng,
            &mut t,
        );
        assert!(res.is_err());
    }

    #[test]
    fn device_state_is_per_license() {
        let mut f = fixture(188);
        let mut rng = test_rng(189);
        let cid2 = f.sys.publish_content("T2", 100, b"OTHER", &mut rng);
        f.sys.fund(&f.alice, 1000);
        let lic2 = f.sys.purchase(&mut f.alice, cid2, &mut rng).unwrap();
        let mut t = Transcript::new();
        play(
            &f.alice,
            &mut f.device,
            &f.sys.provider,
            &f.license,
            10,
            &mut rng,
            &mut t,
        )
        .unwrap();
        assert_eq!(f.device.rights_state(&f.license).unwrap().plays_used, 1);
        assert_eq!(f.device.rights_state(&lic2).unwrap().plays_used, 0);
    }
}
