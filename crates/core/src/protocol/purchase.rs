//! Anonymous purchase — the paper's headline protocol (T1).
//!
//! The user withdraws an anonymous coin, presents a pseudonym certificate
//! and the coin over a pseudonymous channel, and receives an anonymous
//! license bound to the pseudonym key. The provider learns *what* was
//! bought and that the buyer is legitimate — never *who*.

use crate::audit::{Party, Transcript};
use crate::entities::provider::ContentProvider;
use crate::entities::user::UserAgent;
use crate::ids::ContentId;
use crate::license::License;
use crate::protocol::messages::PurchaseResponse;
use crate::service::{ApiErrorCode, PurchaseSession};
use crate::CoreError;
use p2drm_crypto::rng::CryptoRng;
use p2drm_payment::Mint;
use p2drm_store::ConcurrentKv;

/// Runs the anonymous purchase protocol.
///
/// Preconditions the caller (usually [`crate::system::System`]) arranges:
/// the user has a usable pseudonym certificate per their refresh policy,
/// and enough account balance at the mint for the coin withdrawal.
pub fn purchase<B: ConcurrentKv, R: CryptoRng + ?Sized>(
    user: &mut UserAgent,
    provider: &ContentProvider<B>,
    mint: &Mint,
    content_id: ContentId,
    now_epoch: u32,
    rng: &mut R,
    transcript: &mut Transcript,
) -> Result<License, CoreError> {
    let item_meta = provider
        .content_meta(&content_id)
        .ok_or(CoreError::UnknownContent(content_id))?;

    // Attach the current pseudonym, the attribute credential bound to it
    // when the content demands one (the provider re-verifies
    // everything), and an anonymous coin covering the price (blinding
    // dance with the mint; the mint debits the account but never sees the
    // serial). When the price is not a mint denomination, the smallest
    // covering coin is used — fixed-denomination e-cash cannot make
    // change. An unsettled earlier request for the item is resent instead.
    let (session, request) = PurchaseSession::begin(user, mint, &item_meta, rng)?;
    transcript.record(
        Party::User,
        Party::Mint,
        "coin-withdrawal",
        request.coin.serial.to_vec(), // representative size: serial; blinded value logged by mint
    );
    transcript.record(
        Party::User,
        Party::Provider,
        "purchase-request",
        p2drm_codec::to_bytes(&request),
    );

    let license = match provider.handle_purchase(&request, now_epoch, rng) {
        Ok(license) => license,
        Err(e) => {
            session.abort(user, Some(ApiErrorCode::from(&e)));
            return Err(e);
        }
    };

    let response = PurchaseResponse { license };
    transcript.record(
        Party::Provider,
        Party::User,
        "purchase-response",
        p2drm_codec::to_bytes(&response),
    );
    Ok(session.finish(user, response))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{System, SystemConfig};
    use p2drm_crypto::rng::test_rng;

    #[test]
    fn purchase_yields_valid_license_bound_to_pseudonym() {
        let mut rng = test_rng(170);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 500);

        let mut t = Transcript::new();
        sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
        let epoch = sys.epoch();
        let mint = sys.mint.clone();
        let license = purchase(
            &mut alice,
            &sys.provider,
            &mint,
            cid,
            epoch,
            &mut rng,
            &mut t,
        )
        .unwrap();

        assert!(license.verify(sys.provider.public_key()).is_ok());
        let cert = alice.pseudonym_certs().last().unwrap();
        assert_eq!(
            p2drm_pki::cert::KeyId::of_rsa(&license.body.holder),
            cert.pseudonym_id()
        );
        assert_eq!(alice.licenses().len(), 1);
        assert!(t.message_count() >= 3);
    }

    #[test]
    fn provider_receives_no_identity_bytes() {
        // The paper's core privacy claim, checked against actual wire bytes.
        let mut rng = test_rng(171);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 500);

        let mut t = Transcript::new();
        sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
        let epoch = sys.epoch();
        let mint = sys.mint.clone();
        purchase(
            &mut alice,
            &sys.provider,
            &mint,
            cid,
            epoch,
            &mut rng,
            &mut t,
        )
        .unwrap();

        assert!(!t.scan_for(Party::Provider, alice.user_id().as_bytes()));
        assert!(!t.scan_for(Party::Provider, alice.account.as_bytes()));
        let master_modulus = alice.card.master_public().modulus().to_bytes_be();
        assert!(!t.scan_for(Party::Provider, &master_modulus));
    }

    #[test]
    fn purchase_without_pseudonym_fails() {
        let mut rng = test_rng(172);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 500);
        let mut t = Transcript::new();
        let epoch = sys.epoch();
        let mint = sys.mint.clone();
        let res = purchase(
            &mut alice,
            &sys.provider,
            &mint,
            cid,
            epoch,
            &mut rng,
            &mut t,
        );
        assert!(matches!(res, Err(CoreError::BadPseudonym(_))));
    }

    #[test]
    fn unknown_content_and_no_funds_fail_cleanly() {
        let mut rng = test_rng(173);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
        let mut t = Transcript::new();
        let epoch = sys.epoch();
        let mint = sys.mint.clone();

        let res = purchase(
            &mut alice,
            &sys.provider,
            &mint,
            ContentId::from_label("ghost"),
            epoch,
            &mut rng,
            &mut t,
        );
        assert!(matches!(res, Err(CoreError::UnknownContent(_))));

        // No funding: withdrawal fails inside the engine.
        let res = purchase(
            &mut alice,
            &sys.provider,
            &mint,
            cid,
            epoch,
            &mut rng,
            &mut t,
        );
        assert!(matches!(res, Err(CoreError::Payment(_))));
        assert!(alice.licenses().is_empty());
    }

    #[test]
    fn stale_pseudonym_epoch_rejected() {
        let mut rng = test_rng(174);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 500);
        sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
        // Advance past the epoch window.
        for _ in 0..10 {
            sys.advance_epoch();
        }
        let mut t = Transcript::new();
        let epoch = sys.epoch();
        let mint = sys.mint.clone();
        let res = purchase(
            &mut alice,
            &sys.provider,
            &mint,
            cid,
            epoch,
            &mut rng,
            &mut t,
        );
        assert!(matches!(res, Err(CoreError::BadPseudonym(_))));
    }
}
