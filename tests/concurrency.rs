//! Shared-provider concurrency: the refactored `ContentProvider` serves
//! many threads through `&self`, and the paper's exactly-once guarantees
//! survive real races — N threads redeeming the same license id produce
//! exactly one winner, and N threads purchasing in parallel all succeed
//! with every license accounted for.

use p2drm::core::protocol::messages::{transfer_proof_bytes, PurchaseRequest, TransferRequest};
use p2drm::core::CoreError;
use p2drm::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// N threads race `handle_transfer` for the *same* license id toward N
/// different recipients through one shared provider. The atomic spent-ID
/// insert must admit exactly one.
#[test]
fn racing_double_redeem_has_exactly_one_winner() {
    const RACERS: usize = 8;
    let mut rng = p2drm::crypto::rng::test_rng(0xACE1);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Hot Item", 100, b"payload", &mut rng);

    let mut mallory = sys.register_user("mallory", &mut rng).unwrap();
    sys.fund(&mallory, 1_000);
    let license = sys.purchase(&mut mallory, cid, &mut rng).unwrap();
    let mallory_pseudonym = mallory.licenses()[0].pseudonym;

    // One fully valid transfer request per racer, each toward a distinct
    // recipient pseudonym (each request passes every provider check other
    // than the spent-ID rule).
    let mut requests: Vec<TransferRequest> = Vec::with_capacity(RACERS);
    for i in 0..RACERS {
        let mut buyer = sys.register_user(&format!("buyer-{i}"), &mut rng).unwrap();
        sys.ensure_pseudonym(&mut buyer, &mut rng).unwrap();
        let cert = buyer.pseudonym_certs().last().unwrap().clone();
        let proof = mallory
            .card
            .sign_with_pseudonym(
                &mallory_pseudonym,
                &transfer_proof_bytes(&license.id(), &cert.pseudonym_id()),
            )
            .unwrap();
        requests.push(TransferRequest {
            license: license.clone(),
            recipient_cert: cert,
            proof,
        });
    }

    let epoch = sys.epoch();
    let provider = &sys.provider;
    let outcomes: Vec<Result<(), CoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xD0_5E + i as u64);
                    provider.handle_transfer(req, epoch, &mut rng).map(|_| ())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let winners = outcomes.iter().filter(|r| r.is_ok()).count();
    assert_eq!(winners, 1, "exactly one racing redeem may succeed");
    for outcome in &outcomes {
        if let Err(e) = outcome {
            assert!(
                matches!(e, CoreError::AlreadyRedeemed(_)),
                "losers must fail with AlreadyRedeemed, got: {e}"
            );
        }
    }
    // Exactly one spent id, and exactly one fresh license was issued on
    // top of mallory's original.
    assert_eq!(sys.provider.spent_count(), 1);
    assert_eq!(sys.provider.license_count(), 2);
    assert_eq!(sys.provider.transfer_log().len(), 1);
}

/// N threads purchase distinct items concurrently through `&self` on one
/// provider; every purchase must succeed and be accounted for.
#[test]
fn concurrent_purchases_all_succeed_through_shared_ref() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3;
    let mut rng = p2drm::crypto::rng::test_rng(0xACE2);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Popular", 100, b"bits", &mut rng);

    // Pre-build requests (coins + pseudonyms) single-threaded; the
    // measured contention is provider-side handling only.
    let mut requests: Vec<Vec<PurchaseRequest>> = Vec::new();
    for c in 0..CLIENTS {
        let mut user = sys.register_user(&format!("c{c}"), &mut rng).unwrap();
        sys.fund(&user, 100 * PER_CLIENT as u64);
        let mut reqs = Vec::new();
        for _ in 0..PER_CLIENT {
            sys.ensure_pseudonym(&mut user, &mut rng).unwrap();
            let cert = user.current_pseudonym().unwrap().clone();
            let account = user.account.clone();
            let coin = user
                .wallet
                .withdraw(&sys.mint, &account, 100, &mut rng)
                .unwrap();
            user.wallet.take(100);
            user.note_pseudonym_use();
            reqs.push(PurchaseRequest {
                content_id: cid,
                pseudonym_cert: cert,
                coin,
                attribute_cert: None,
            });
        }
        requests.push(reqs);
    }

    let epoch = sys.epoch();
    let provider = &sys.provider;
    let completed: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBEEF + c as u64);
                    reqs.iter()
                        .filter(|req| provider.handle_purchase(req, epoch, &mut rng).is_ok())
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    assert_eq!(completed, CLIENTS * PER_CLIENT);
    assert_eq!(sys.provider.license_count(), CLIENTS * PER_CLIENT);
    assert_eq!(sys.provider.purchase_log().len(), CLIENTS * PER_CLIENT);
    // Every coin was deposited exactly once.
    assert_eq!(
        sys.mint.deposited_total(),
        100 * (CLIENTS * PER_CLIENT) as u64
    );
}

/// Revocation racing transfers of the same license id: the spent-ID
/// check-and-set is authoritative for both, so at most one transfer can
/// win (only by strictly preceding the revocation), the id ends up both
/// spent and CRL-listed, and no post-revocation issuance is possible.
#[test]
fn racing_revocation_vs_transfer_cannot_reissue_revoked_content() {
    const RACERS: usize = 4;
    let mut rng = p2drm::crypto::rng::test_rng(0xACE4);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Recalled Item", 100, b"payload", &mut rng);

    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let alice_pseudonym = alice.licenses()[0].pseudonym;

    let mut requests: Vec<TransferRequest> = Vec::with_capacity(RACERS);
    for i in 0..RACERS {
        let mut buyer = sys.register_user(&format!("rb-{i}"), &mut rng).unwrap();
        sys.ensure_pseudonym(&mut buyer, &mut rng).unwrap();
        let cert = buyer.pseudonym_certs().last().unwrap().clone();
        let proof = alice
            .card
            .sign_with_pseudonym(
                &alice_pseudonym,
                &transfer_proof_bytes(&license.id(), &cert.pseudonym_id()),
            )
            .unwrap();
        requests.push(TransferRequest {
            license: license.clone(),
            recipient_cert: cert,
            proof,
        });
    }

    let epoch = sys.epoch();
    let provider = &sys.provider;
    let lid = license.id();
    let transfer_wins: usize = std::thread::scope(|scope| {
        let revoker = scope.spawn(move || provider.revoke_license(&lid).unwrap());
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xAB07 + i as u64);
                    provider.handle_transfer(req, epoch, &mut rng).is_ok()
                })
            })
            .collect();
        revoker.join().unwrap();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count()
    });

    assert!(
        transfer_wins <= 1,
        "a revoked id can be transferred at most once (strictly before revocation)"
    );
    // The id is claimed in the spent store exactly once, whoever won,
    // and the CRL lists it — no future redemption path exists.
    assert_eq!(sys.provider.spent_count(), 1);
    assert!(sys
        .provider
        .signed_license_crl(1)
        .list
        .contains(&p2drm::core::entities::provider::license_crl_id(&lid)));
    let mut rng2 = p2drm::crypto::rng::test_rng(0xACE5);
    let late = sys.provider.handle_transfer(&requests[0], epoch, &mut rng2);
    assert!(matches!(late, Err(CoreError::AlreadyRedeemed(_))));
}

/// A replayed coin (same serial) racing through two threads deposits once.
#[test]
fn racing_coin_double_spend_single_winner() {
    let mut rng = p2drm::crypto::rng::test_rng(0xACE3);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    // One coin, four different purchases racing to spend it: an
    // identical request would be a replay, so the racers differ in what
    // they buy.
    let cids: Vec<_> = (0..4)
        .map(|i| sys.publish_content(&format!("Single {i}"), 100, b"x", &mut rng))
        .collect();

    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 100);
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    let cert = alice.current_pseudonym().unwrap().clone();
    let coin = alice
        .wallet
        .withdraw(&sys.mint, &alice.account.clone(), 100, &mut rng)
        .unwrap();
    alice.wallet.take(100);
    let reqs: Vec<_> = cids
        .iter()
        .map(|&content_id| PurchaseRequest {
            content_id,
            pseudonym_cert: cert.clone(),
            coin: coin.clone(),
            attribute_cert: None,
        })
        .collect();

    let epoch = sys.epoch();
    let provider = &sys.provider;
    let oks: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = reqs
            .iter()
            .enumerate()
            .map(|(i, req)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC0FE + i as u64);
                    provider.handle_purchase(req, epoch, &mut rng).is_ok()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count()
    });
    assert_eq!(oks, 1, "one deposit of the same coin serial may succeed");
    assert_eq!(sys.mint.deposited_total(), 100);
}
