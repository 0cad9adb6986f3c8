//! Domain protocol flows: buying a domain license (anonymous payment,
//! domain-level identity only) and playing it on a member device.

use crate::manager::DomainManager;
use crate::DomainError;
use p2drm_core::audit::{Party, Transcript};
use p2drm_core::entities::device::{challenge_message, CompliantDevice};
use p2drm_core::entities::provider::ContentProvider;
use p2drm_core::ids::ContentId;
use p2drm_core::license::License;
use p2drm_core::CoreError;
use p2drm_crypto::rng::CryptoRng;
use p2drm_payment::{Mint, Wallet};
use p2drm_rel::AccessRequest;
use p2drm_store::ConcurrentKv;

/// Buys a domain license: the household account withdraws an anonymous
/// coin; the provider verifies the *manager* certificate (not any member)
/// and binds the license to the domain key.
#[allow(clippy::too_many_arguments)]
pub fn buy_domain_license<B: ConcurrentKv, R: CryptoRng + ?Sized>(
    manager: &mut DomainManager,
    wallet: &mut Wallet,
    account: &str,
    provider: &ContentProvider<B>,
    mint: &Mint,
    content_id: ContentId,
    now: u64,
    now_epoch: u32,
    rng: &mut R,
    transcript: &mut Transcript,
) -> Result<License, CoreError> {
    let price = provider
        .content_meta(&content_id)
        .ok_or(CoreError::UnknownContent(content_id))?
        .price;
    let coin = match wallet.take(price) {
        Some(c) => c,
        None => {
            let c = wallet.withdraw(mint, account, price, rng)?;
            wallet.take(price).expect("just withdrawn");
            c
        }
    };
    transcript.record(
        Party::User,
        Party::Provider,
        "domain-purchase-request",
        p2drm_codec::to_bytes(&manager.certificate().clone()),
    );
    let domain_name = manager.name().to_string();
    let manager_cert = manager.certificate().clone();
    let license = provider.handle_domain_purchase(
        &manager_cert,
        &coin,
        content_id,
        &domain_name,
        now,
        now_epoch,
        rng,
    )?;
    transcript.record(
        Party::Provider,
        Party::User,
        "domain-license",
        p2drm_codec::to_bytes(&license),
    );
    manager
        .import_license(license.clone())
        .map_err(|_| CoreError::BadLicense("holder mismatch on import"))?;
    Ok(license)
}

/// Plays a domain license on a member device: manager answers the holder
/// challenge and releases the key only to verified members.
pub fn play_in_domain<BP: ConcurrentKv, SD: ConcurrentKv, R: CryptoRng + ?Sized>(
    manager: &DomainManager,
    device: &mut CompliantDevice<SD>,
    provider: &ContentProvider<BP>,
    license: &License,
    now: u64,
    rng: &mut R,
    transcript: &mut Transcript,
) -> Result<Vec<u8>, DomainError> {
    // Device looks up its own membership (issued at enroll time).
    let device_key_id = p2drm_pki::cert::KeyId::of_rsa(device.public_key());
    if !manager.is_member(&device_key_id) {
        return Err(DomainError::NotAMember);
    }

    // Holder proof: the manager (license holder) answers the challenge.
    let nonce = device.make_challenge(rng);
    let proof = manager.sign_challenge(&challenge_message(&nonce, &license.id()));
    transcript.record(
        Party::Card, // the manager plays the card's role in the home
        Party::Device,
        "domain-holder-proof",
        p2drm_codec::to_bytes(&proof),
    );

    // The device claims the license's domain context only because its
    // manager vouches for it (membership verified inside release_key too).
    let domain = license
        .body
        .rights
        .domain
        .clone()
        .ok_or(DomainError::BadMembership("license has no domain binding"))?;
    let req = AccessRequest::play(now, device.binding_id()).in_domain(domain);
    device
        .check_access(license, None, &nonce, &proof, &req)
        .map_err(DomainError::Core)?;

    // Manager releases the content key, sealed to this member device.
    let membership = manager
        .enrolled_cert(&device_key_id)
        .ok_or(DomainError::NotAMember)?;
    let sealed = manager.release_key(license, &membership, device.public_key(), now, rng)?;
    transcript.record(
        Party::Card,
        Party::Device,
        "domain-key-release",
        p2drm_codec::to_bytes(&sealed),
    );
    let content_key = device.open_sealed_key(&sealed).map_err(DomainError::Core)?;

    let (content_nonce, ciphertext) = provider
        .download(&license.body.content_id)
        .map_err(DomainError::Core)?;
    transcript.record(
        Party::Provider,
        Party::Device,
        "download-response",
        ciphertext.clone(),
    );
    let payload = p2drm_core::content::decrypt_payload(&content_key, &content_nonce, &ciphertext);
    device.consume(license, &req).map_err(DomainError::Core)?;
    Ok(payload)
}
