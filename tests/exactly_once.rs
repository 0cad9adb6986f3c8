//! Exactly-once purchase and transfer under store faults: a request the
//! provider committed (coin deposited, old license retired) but failed
//! to answer is completed by resending it, never refused, and the books
//! balance — every deposit has exactly one license and the client holds
//! every license it paid for.

use p2drm::core::entities::user::UserAgent;
use p2drm::core::service::{ApiErrorCode, Loopback, WireClient, WireError};
use p2drm::core::system::{System, SystemConfig};
use p2drm::crypto::rng::test_rng;
use p2drm::faults::{kv_sites, FaultKv, FaultPlan, Schedule};
use p2drm::store::{MemKv, ShardedKv};
use std::sync::Arc;

type Backend = FaultKv<ShardedKv>;

const FUNDS: u64 = 500;

fn faulty_system(seed: u64) -> (System<Backend>, Arc<FaultPlan>) {
    let mut rng = test_rng(seed);
    let plan = Arc::new(FaultPlan::new(seed));
    let backend = FaultKv::new(ShardedKv::new_with(4, |_| MemKv::new()), plan.clone());
    let sys = System::bootstrap_with_backend(SystemConfig::fast_test(), backend, &mut rng);
    (sys, plan)
}

/// Fails the `nth` store write from now, whichever of `put` and
/// `insert_if_absent` the provider issues it as.
fn fail_nth_write(plan: &FaultPlan, nth: u64) {
    for site in [kv_sites::FAIL_PUT, kv_sites::FAIL_INSERT] {
        plan.set(site, Schedule::OneShot(plan.calls(site) + nth));
    }
}

fn assert_storage(outcome: Result<p2drm::core::License, WireError>) {
    match outcome {
        Err(WireError::Api(e)) => assert_eq!(e.code, ApiErrorCode::Storage, "{e}"),
        other => panic!("expected a Storage refusal, got {other:?}"),
    }
}

/// deposits == 100 × licenses issued == 100 × licenses held, and every
/// withdrawn coin is either in the wallet or deposited.
fn assert_books(sys: &System<Backend>, users: &[&UserAgent]) {
    let deposited = sys.mint.deposited_total();
    let held: usize = users.iter().map(|u| u.licenses().len()).sum();
    assert_eq!(deposited, 100 * sys.provider.license_count() as u64);
    assert_eq!(
        sys.provider.license_count(),
        held,
        "licenses issued != held"
    );
    let withdrawn: u64 = users
        .iter()
        .map(|u| FUNDS - sys.mint.balance(&u.account))
        .sum();
    let in_wallets: u64 = users.iter().map(|u| u.wallet.balance()).sum();
    assert_eq!(withdrawn, in_wallets + deposited, "coin lost or minted");
}

#[test]
fn purchase_retried_after_a_failed_license_write_returns_the_license() {
    let mut rng = test_rng(0xE0_01);
    let (sys, plan) = faulty_system(0xE0_01);
    let cid = sys.publish_content("Track", 100, b"X", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    sys.fund(&alice, FUNDS);
    sys.ensure_pseudonym(&mut alice, &mut rng)
        .expect("pseudonym");
    let service = sys.wire_service(0xE0_01);
    let mut client = WireClient::new(Loopback::new(&service));
    client.set_epoch(sys.epoch());

    // The coin is deposited, then the license record fails to persist.
    fail_nth_write(&plan, 1);
    assert_storage(client.purchase(&mut alice, &sys.mint, cid, &mut rng));

    let license = client
        .purchase(&mut alice, &sys.mint, cid, &mut rng)
        .expect("the retried request returns the license");
    assert!(license.verify(sys.provider.public_key()).is_ok());
    assert_eq!(alice.licenses().len(), 1);
    assert_eq!(sys.mint.deposited_total(), 100, "paid once");
    assert_books(&sys, &[&alice]);
}

#[test]
fn transfer_retried_after_a_failed_successor_write_moves_the_license() {
    let mut rng = test_rng(0xE0_02);
    let (sys, plan) = faulty_system(0xE0_02);
    let cid = sys.publish_content("Track", 100, b"X", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    let mut bob = sys.register_user("bob", &mut rng).expect("fresh user");
    sys.fund(&alice, FUNDS);
    sys.fund(&bob, FUNDS);
    let license = sys.purchase(&mut alice, cid, &mut rng).expect("purchase");
    sys.ensure_pseudonym(&mut bob, &mut rng).expect("pseudonym");
    let service = sys.wire_service(0xE0_02);
    let mut client = WireClient::new(Loopback::new(&service));
    client.set_epoch(sys.epoch());

    // The old id is claimed (an insert) and revoked in the CRL table (a
    // put); the successor license is the second write of its kind.
    fail_nth_write(&plan, 2);
    assert_storage(client.transfer(&mut alice, &mut bob, license.id(), &mut rng));

    let successor = client
        .transfer(&mut alice, &mut bob, license.id(), &mut rng)
        .expect("the retried request returns the successor license");
    assert!(successor.verify(sys.provider.public_key()).is_ok());
    assert_ne!(successor.id(), license.id());
    assert!(alice.licenses().is_empty(), "the sender no longer holds it");
    assert_eq!(bob.licenses().len(), 1, "the recipient holds it");
    assert_eq!(bob.licenses()[0].license.id(), successor.id());
    assert_eq!(sys.provider.license_count(), 2, "original + successor");
    assert_eq!(sys.mint.deposited_total(), 100);
}

#[test]
fn same_coin_replays_only_for_the_same_content_and_pseudonym() {
    let mut rng = test_rng(0xE0_03);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track", 100, b"X", &mut rng);
    let other_cid = sys.publish_content("Other", 100, b"Y", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    let mut bob = sys.register_user("bob", &mut rng).expect("fresh user");
    sys.fund(&alice, FUNDS);
    sys.ensure_pseudonym(&mut alice, &mut rng)
        .expect("pseudonym");
    sys.ensure_pseudonym(&mut bob, &mut rng).expect("pseudonym");
    let meta = sys.provider.content_meta(&cid).expect("listed");
    let (_, request) =
        p2drm::core::service::PurchaseSession::begin(&mut alice, &sys.mint, &meta, &mut rng)
            .expect("coin withdrawn");
    let epoch = sys.epoch();

    let first = sys
        .provider
        .handle_purchase(&request, epoch, &mut rng)
        .expect("first purchase");
    assert_eq!(sys.mint.deposited_total(), 100);

    // The identical request is a replay: the same license, no new deposit.
    let again = sys
        .provider
        .handle_purchase(&request, epoch, &mut rng)
        .expect("a resent purchase is answered, not refused");
    assert_eq!(
        p2drm::codec::to_bytes(&again),
        p2drm::codec::to_bytes(&first)
    );
    assert_eq!(sys.mint.deposited_total(), 100, "replay deposits nothing");
    assert_eq!(sys.provider.license_count(), 1);

    // The same coin for other content, or for another pseudonym, is a
    // double spend.
    let mut other_content = request.clone();
    other_content.content_id = other_cid;
    let mut other_holder = request.clone();
    other_holder.pseudonym_cert = bob.current_pseudonym().expect("usable").clone();
    for forged in [other_content, other_holder] {
        match sys.provider.handle_purchase(&forged, epoch, &mut rng) {
            Err(p2drm::core::CoreError::Payment(p2drm::payment::PaymentError::DoubleSpend)) => {}
            other => panic!("expected DoubleSpend, got {other:?}"),
        }
    }
    assert_eq!(sys.mint.deposited_total(), 100, "refusals deposit nothing");
    assert_eq!(sys.provider.license_count(), 1);
}

#[test]
fn purchase_whose_resend_is_shed_stays_unsettled_until_answered() {
    use p2drm::core::retry::{CircuitBreaker, RetryBudget, RetryPolicy};
    use p2drm::core::service::Recovery;
    use p2drm::faults::{transport_sites, FaultTransport};
    use std::time::Duration;

    let mut rng = test_rng(0xE0_04);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track", 100, b"X", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    sys.fund(&alice, FUNDS);
    sys.ensure_pseudonym(&mut alice, &mut rng)
        .expect("pseudonym");
    let service = sys.wire_service(0xE0_04);

    // Submit 1 is the catalog quote and 2 the purchase, whose reply is
    // lost after the provider committed it; the automatic resend (submit
    // 3) and everything after it meets a busy shed, so the call ends on a
    // ServiceUnavailable that says nothing about the first attempt.
    let plan = Arc::new(
        FaultPlan::new(0xE0_04)
            .with(transport_sites::DROP_REPLY, Schedule::OneShot(2))
            .with(
                transport_sites::BUSY_STORM,
                Schedule::Nth { first: 3, every: 1 },
            ),
    );
    let mut client = WireClient::new(FaultTransport::new(Loopback::new(&service), plan))
        .with_recovery(Recovery {
            policy: RetryPolicy {
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_micros(100),
                max_attempts: 2,
                op_deadline: None,
                jitter_seed: 1,
            },
            budget: RetryBudget::new(8, 1_000),
            breaker: CircuitBreaker::new(u32::MAX, Duration::from_millis(1)),
            metrics: None,
        });
    client.set_epoch(sys.epoch());
    match client.purchase(&mut alice, &sys.mint, cid, &mut rng) {
        Err(WireError::Api(e)) => assert_eq!(e.code, ApiErrorCode::ServiceUnavailable),
        other => panic!("expected the shed resend's refusal, got {other:?}"),
    }
    assert_eq!(sys.mint.deposited_total(), 100, "the first attempt paid");
    assert_eq!(alice.wallet.balance(), 0, "the spent coin is not spendable");
    assert_eq!(alice.unsettled().len(), 1, "the request is kept to resend");

    let mut client = WireClient::new(Loopback::new(&service));
    client.set_epoch(sys.epoch());
    let settled = client.settle(&mut alice);
    assert_eq!(settled.len(), 1);
    assert!(settled[0].is_ok(), "{:?}", settled[0]);
    assert!(alice.unsettled().is_empty());
    assert_eq!(alice.licenses().len(), 1);
    assert_eq!(sys.mint.deposited_total(), 100, "paid once");
    assert_eq!(
        FUNDS - sys.mint.balance(&alice.account),
        alice.wallet.balance() + sys.mint.deposited_total()
    );
}
