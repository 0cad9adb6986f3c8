//! The correctness gate. A run whose outputs fail any of these checks
//! exits non-zero and prints no numbers.

use p2drm_core::license::License;
use p2drm_core::protocol::messages::LicenseStatus;
use p2drm_core::service::{OpCode, ResponseEnvelope, WireResponse};
use p2drm_core::{ContentId, LicenseId};
use p2drm_crypto::rsa::RsaPublicKey;
use p2drm_pki::cert::KeyId;
use p2drm_pki::crl::SignedCrl;
use std::collections::BTreeSet;

/// Why a run's outputs are wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateError(pub String);

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "correctness gate: {}", self.0)
    }
}

impl std::error::Error for GateError {}

fn fail<T>(msg: impl Into<String>) -> Result<T, GateError> {
    Err(GateError(msg.into()))
}

/// Decodes a reply to a request sent with `corr` and checks it is either
/// the variant `expected` or a well-formed error envelope (a refused or
/// busy-shed request: a failed op, not a wrong output). Anything else —
/// bytes that do not decode, a foreign correlation id, another op's
/// variant — is a wrong output.
pub fn decode_reply(expected: OpCode, corr: u64, bytes: &[u8]) -> Result<WireResponse, GateError> {
    let envelope = match ResponseEnvelope::from_bytes(bytes) {
        Ok(e) => e,
        Err(e) => return fail(format!("{} reply does not decode: {e}", expected.label())),
    };
    match envelope.body {
        // A busy shed before decode may carry correlation 0.
        body @ WireResponse::Error(_)
            if envelope.correlation_id == corr || envelope.correlation_id == 0 =>
        {
            Ok(body)
        }
        _ if envelope.correlation_id != corr => fail(format!(
            "reply correlation {} for request {corr}",
            envelope.correlation_id
        )),
        body if body.opcode() == expected => Ok(body),
        body => fail(format!(
            "expected a {} reply, got {}",
            expected.label(),
            body.label()
        )),
    }
}

/// A license must verify under the provider key and be for the content
/// that was bought.
pub fn check_license(
    license: &License,
    provider_key: &RsaPublicKey,
    content: &ContentId,
) -> Result<(), GateError> {
    if let Err(e) = license.verify(provider_key) {
        return fail(format!("license {} does not verify: {e}", license.id()));
    }
    if license.body.content_id != *content {
        return fail(format!(
            "license {} is for {} instead of {content}",
            license.id(),
            license.body.content_id
        ));
    }
    Ok(())
}

/// Before/after counters that must reconcile with the acknowledged ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Provider `license_count` before the measured phases.
    pub licenses_before: u64,
    /// ... and after.
    pub licenses_after: u64,
    /// Mint `deposited_total` before the measured phases.
    pub deposited_before: u64,
    /// ... and after.
    pub deposited_after: u64,
    /// Purchases acknowledged with a license.
    pub purchases: u64,
    /// Price paid per purchase.
    pub price: u64,
}

/// Every acknowledged purchase left exactly one license,
/// and the mint holds exactly one coin per purchase (coin conservation).
pub fn reconcile(l: &Ledger) -> Result<(), GateError> {
    let issued = l.licenses_after - l.licenses_before;
    if issued != l.purchases {
        return fail(format!(
            "provider issued {issued} licenses for {} purchases",
            l.purchases
        ));
    }
    let deposited = l.deposited_after - l.deposited_before;
    if deposited != l.purchases * l.price {
        return fail(format!(
            "mint took {deposited} for {} purchases at {}",
            l.purchases, l.price
        ));
    }
    Ok(())
}

/// A synced CRL must verify under the provider key and hold exactly
/// `expected`.
pub fn check_crl(
    crl: &SignedCrl,
    provider_key: &RsaPublicKey,
    expected: &BTreeSet<KeyId>,
) -> Result<(), GateError> {
    if let Err(e) = crl.verify(provider_key) {
        return fail(format!("signed CRL does not verify: {e}"));
    }
    let held: BTreeSet<KeyId> = crl.list.iter().copied().collect();
    if held != *expected {
        let missing = expected.difference(&held).count();
        let extra = held.difference(expected).count();
        return fail(format!(
            "CRL holds {} ids: {missing} expected ids missing, {extra} unexpected",
            held.len()
        ));
    }
    Ok(())
}

/// After the provider is resumed from its reopened WAL directory, every
/// acknowledged license must still be active. `status` is the resumed
/// provider's `license_status`.
pub fn check_recovered(
    status: impl Fn(&LicenseId) -> LicenseStatus,
    active: &[LicenseId],
) -> Result<(), GateError> {
    for id in active {
        if !matches!(status(id), LicenseStatus::Active { .. }) {
            return fail(format!("license {id} not active after reopen"));
        }
    }
    Ok(())
}
