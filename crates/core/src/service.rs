//! The versioned wire API: a byte-level request/response layer over the
//! provider and registration authority.
//!
//! Everything below [`crate::system::System`] is an in-process Rust call,
//! but the paper's protocols are *message exchanges*: a user's device and
//! the provider/RA interoperate only through serialized messages, never
//! shared memory. This module makes that boundary real. Every operation a
//! remote party can invoke travels as one tagged envelope:
//!
//! | offset | field | encoding |
//! |---|---|---|
//! | 0 | version | `u8`, currently [`WIRE_VERSION`] = 1 |
//! | 1 | op-code | `u8`, see [`OpCode`] |
//! | 2 | correlation id | `u64` little-endian, echoed verbatim in the response |
//! | 10 | payload | the op's canonical message encoding, consuming the rest exactly |
//!
//! Requests decode with strict [`p2drm_codec::from_bytes`] semantics:
//! trailing bytes, non-canonical varints and redundant integer padding are
//! all rejected. A malformed, truncated or unknown-version request yields
//! a well-formed [`WireResponse::Error`] — never a panic.
//!
//! # Error taxonomy
//!
//! The workspace's ten per-crate error enums are unified behind the
//! stable numeric [`ApiErrorCode`] carried in error responses, so
//! internal refactors cannot leak unstably onto the wire:
//!
//! | range | meaning |
//! |---|---|
//! | 1–9 | envelope: malformed, unsupported version, unknown op, unavailable |
//! | 10–19 | cryptography (`CryptoError`) |
//! | 20–29 | certificates and chains (`PkiError`, `ChainError`) |
//! | 30–39 | payment (`PaymentError`) |
//! | 40–49 | storage (`StoreError`) |
//! | 50–59 | licenses and rights (`BadLicense`, `AlreadyRedeemed`, REL) |
//! | 60–69 | identity and proofs (revocation, pseudonyms, cards, evidence) |
//! | 70–79 | lookups (unknown content / license) |
//! | 80–89 | authorized-domain extension (`DomainError`) |
//! | 90–98 | big-number arithmetic (`BigError`) |
//! | 99 | internal |
//!
//! # Serving and calling
//!
//! [`ProviderService`] is the server: one entry point,
//! [`ProviderService::handle`]`(&self, &[u8]) -> Vec<u8>`, shared by N
//! threads — it decodes, dispatches onto the `&self` concurrent
//! [`ContentProvider`]/[`RegistrationAuthority`] paths (generic over the
//! store backend, so it serves `ShardedKv` and `WalShardedKv` alike) and
//! encodes the reply. [`WireClient`] is the typed caller: it frames
//! envelopes over a [`Transport`] (an in-proc [`Loopback`] is provided)
//! and runs the multi-round flows as explicit session state machines
//! ([`PurchaseSession`], [`PseudonymIssueSession`],
//! [`AttributeIssueSession`], [`PlaySession`]).
//!
//! ```
//! use p2drm_core::service::{Loopback, WireClient};
//! use p2drm_core::system::{System, SystemConfig};
//! use p2drm_crypto::rng::test_rng;
//!
//! let mut rng = test_rng(7);
//! let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
//! let cid = sys.publish_content("Track", 100, b"bits", &mut rng);
//! let mut alice = sys.register_user("alice", &mut rng).unwrap();
//! sys.fund(&alice, 500);
//! let mut device = sys.register_device(&mut rng).unwrap();
//!
//! let service = sys.wire_service(0xC0FFEE);
//! let mut client = WireClient::new(Loopback::new(&service));
//! client
//!     .obtain_pseudonym(&mut alice, sys.ra.blind_public(), sys.ttp.escrow_key(), &mut rng)
//!     .unwrap();
//! let license = client.purchase(&mut alice, &sys.mint, cid, &mut rng).unwrap();
//! let audio = client.play(&alice, &mut device, &license, &mut rng).unwrap();
//! assert_eq!(audio, b"bits");
//! ```

use crate::content::ContentMeta;
use crate::entities::device::{challenge_message, CompliantDevice};
use crate::entities::provider::ContentProvider;
use crate::entities::ra::RegistrationAuthority;
use crate::entities::user::UserAgent;
use crate::ids::{ContentId, LicenseId};
use crate::license::License;
use crate::protocol::messages::{
    transfer_proof_bytes, AttributeIssueRequest, AttributeIssueResponse, CatalogRequest,
    CatalogResponse, CrlSync, CrlSyncRequest, DownloadRequest, DownloadResponse, LicenseStatus,
    LicenseStatusRequest, LicenseStatusResponse, MetricEntry, MetricSummary, MetricsDumpRequest,
    MetricsDumpResponse, PseudonymIssueRequest, PseudonymIssueResponse, PurchaseRequest,
    PurchaseResponse, SpanEntry, SpanStage, TransferRequest, TransferResponse,
};
use crate::CoreError;
use p2drm_codec::{CodecError, Decode, Encode, Reader, Writer};
use p2drm_crypto::blind::Blinded;
use p2drm_crypto::elgamal::ElGamalPublicKey;
use p2drm_crypto::rng::ChaChaRng;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::RsaPublicKey;
use p2drm_obs::{
    AtomicHistogram, Counter, MetricSource, MetricValue, Registry, Snapshot, Summary, Timer,
    TraceConfig, Tracer,
};
use p2drm_payment::Mint;
use p2drm_pki::cert::{AttributeCertBody, KeyId, PseudonymCertBody, PseudonymCertificate};
use p2drm_rel::AccessRequest;
use p2drm_store::{ConcurrentKv, ShardedKv};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::retry::{Admit, CircuitBreaker, RetryBudget, RetryPolicy};

/// The wire format version this build speaks.
pub const WIRE_VERSION: u8 = 1;

/// Envelope header length: version + op-code + correlation id.
pub const ENVELOPE_HEADER_LEN: usize = 10;

// ---------------------------------------------------------------------------
// Op-codes
// ---------------------------------------------------------------------------

/// Operation tag carried in envelope byte 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpCode {
    /// Error response (responses only; rejected in requests).
    Error = 0,
    /// Anonymous purchase.
    Purchase = 1,
    /// Anonymous content download (the remote half of play).
    Download = 2,
    /// Privacy-preserving transfer.
    Transfer = 3,
    /// Blind pseudonym issuance (RA).
    PseudonymIssue = 4,
    /// Blind attribute issuance (RA).
    AttributeIssue = 5,
    /// CRL synchronization.
    CrlSync = 6,
    /// Catalog lookup / listing.
    Catalog = 7,
    /// License-status query (active / transferred / revoked by id).
    LicenseStatus = 8,
    /// Unified metrics snapshot (operator op; off unless the provider
    /// opts in via `ProviderConfig::metrics_dump`).
    MetricsDump = 9,
}

/// Number of defined op-codes (contiguous from 0).
pub(crate) const OPCODE_COUNT: usize = 10;

impl OpCode {
    /// The wire byte.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte.
    pub fn from_byte(b: u8) -> Option<OpCode> {
        Some(match b {
            0 => OpCode::Error,
            1 => OpCode::Purchase,
            2 => OpCode::Download,
            3 => OpCode::Transfer,
            4 => OpCode::PseudonymIssue,
            5 => OpCode::AttributeIssue,
            6 => OpCode::CrlSync,
            7 => OpCode::Catalog,
            8 => OpCode::LicenseStatus,
            9 => OpCode::MetricsDump,
            _ => return None,
        })
    }

    /// Short static label for diagnostics, span names and metric names.
    pub fn label(self) -> &'static str {
        match self {
            OpCode::Error => "error",
            OpCode::Purchase => "purchase",
            OpCode::Download => "download",
            OpCode::Transfer => "transfer",
            OpCode::PseudonymIssue => "pseudonym-issue",
            OpCode::AttributeIssue => "attribute-issue",
            OpCode::CrlSync => "crl-sync",
            OpCode::Catalog => "catalog",
            OpCode::LicenseStatus => "license-status",
            OpCode::MetricsDump => "metrics-dump",
        }
    }
}

// ---------------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------------

/// Stable numeric error taxonomy carried in [`ApiError`] responses.
///
/// Codes are part of the wire contract: a variant's number never changes,
/// and new codes extend the table. Unknown codes received from a newer
/// peer decode to [`ApiErrorCode::Unrecognized`], preserving the raw
/// number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ApiErrorCode {
    /// Request bytes failed to decode (truncated, trailing garbage,
    /// non-canonical encoding).
    MalformedRequest,
    /// Envelope version byte unknown to this endpoint.
    UnsupportedVersion,
    /// Envelope op-code unknown (or `Error` in a request).
    UnknownOpcode,
    /// The op exists but this endpoint does not serve it (e.g. no RA
    /// attached).
    ServiceUnavailable,
    /// Cryptographic failure other than a bad signature.
    Crypto,
    /// A signature failed to verify.
    BadSignature,
    /// Certificate invalid (issuer, structure, key type).
    Certificate,
    /// Certificate outside its validity window.
    CertificateExpired,
    /// Certificate chain failed to verify.
    ChainInvalid,
    /// Payment failure other than the two named below.
    Payment,
    /// Coin or balance does not cover the price.
    InsufficientFunds,
    /// Coin serial already deposited.
    DoubleSpend,
    /// Server-side storage failure.
    Storage,
    /// License signature or structure invalid.
    BadLicense,
    /// License id already redeemed/transferred (the paper's unique-ID
    /// rule).
    AlreadyRedeemed,
    /// Rights denied the requested action.
    RightsDenied,
    /// Rights expression failed to parse.
    RightsParse,
    /// Entity revoked (card, pseudonym, license).
    Revoked,
    /// Pseudonym certificate rejected.
    BadPseudonym,
    /// Holder/authentication proof failed.
    BadProof,
    /// Smart card refused (budget, entitlement, unknown card).
    CardRefused,
    /// Evidence failed verification at the TTP.
    BadEvidence,
    /// Unknown content id.
    UnknownContent,
    /// Unknown license id.
    UnknownLicense,
    /// Authorized-domain failure.
    Domain,
    /// Big-number arithmetic failure.
    Arithmetic,
    /// Unclassified server-side failure.
    Internal,
    /// A code minted by a newer peer; the raw number is preserved.
    Unrecognized(u16),
}

impl ApiErrorCode {
    /// The stable numeric code.
    pub fn code(self) -> u16 {
        match self {
            ApiErrorCode::MalformedRequest => 1,
            ApiErrorCode::UnsupportedVersion => 2,
            ApiErrorCode::UnknownOpcode => 3,
            ApiErrorCode::ServiceUnavailable => 4,
            ApiErrorCode::Crypto => 10,
            ApiErrorCode::BadSignature => 11,
            ApiErrorCode::Certificate => 20,
            ApiErrorCode::CertificateExpired => 21,
            ApiErrorCode::ChainInvalid => 22,
            ApiErrorCode::Payment => 30,
            ApiErrorCode::InsufficientFunds => 31,
            ApiErrorCode::DoubleSpend => 32,
            ApiErrorCode::Storage => 40,
            ApiErrorCode::BadLicense => 50,
            ApiErrorCode::AlreadyRedeemed => 51,
            ApiErrorCode::RightsDenied => 52,
            ApiErrorCode::RightsParse => 53,
            ApiErrorCode::Revoked => 60,
            ApiErrorCode::BadPseudonym => 61,
            ApiErrorCode::BadProof => 62,
            ApiErrorCode::CardRefused => 63,
            ApiErrorCode::BadEvidence => 64,
            ApiErrorCode::UnknownContent => 70,
            ApiErrorCode::UnknownLicense => 71,
            ApiErrorCode::Domain => 80,
            ApiErrorCode::Arithmetic => 90,
            ApiErrorCode::Internal => 99,
            ApiErrorCode::Unrecognized(raw) => raw,
        }
    }

    /// Maps a wire number back to its variant (unknown numbers are
    /// preserved as [`ApiErrorCode::Unrecognized`]).
    pub fn from_code(code: u16) -> ApiErrorCode {
        match code {
            1 => ApiErrorCode::MalformedRequest,
            2 => ApiErrorCode::UnsupportedVersion,
            3 => ApiErrorCode::UnknownOpcode,
            4 => ApiErrorCode::ServiceUnavailable,
            10 => ApiErrorCode::Crypto,
            11 => ApiErrorCode::BadSignature,
            20 => ApiErrorCode::Certificate,
            21 => ApiErrorCode::CertificateExpired,
            22 => ApiErrorCode::ChainInvalid,
            30 => ApiErrorCode::Payment,
            31 => ApiErrorCode::InsufficientFunds,
            32 => ApiErrorCode::DoubleSpend,
            40 => ApiErrorCode::Storage,
            50 => ApiErrorCode::BadLicense,
            51 => ApiErrorCode::AlreadyRedeemed,
            52 => ApiErrorCode::RightsDenied,
            53 => ApiErrorCode::RightsParse,
            60 => ApiErrorCode::Revoked,
            61 => ApiErrorCode::BadPseudonym,
            62 => ApiErrorCode::BadProof,
            63 => ApiErrorCode::CardRefused,
            64 => ApiErrorCode::BadEvidence,
            70 => ApiErrorCode::UnknownContent,
            71 => ApiErrorCode::UnknownLicense,
            80 => ApiErrorCode::Domain,
            90 => ApiErrorCode::Arithmetic,
            99 => ApiErrorCode::Internal,
            raw => ApiErrorCode::Unrecognized(raw),
        }
    }

    /// Whether this code belongs to the payment range (a failed purchase
    /// whose coin was consumed or rejected by the mint — clients must not
    /// return such a coin to the wallet).
    pub fn is_payment(self) -> bool {
        (30..40).contains(&self.code())
    }
}

impl std::fmt::Display for ApiErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}({})", self, self.code())
    }
}

impl From<&CodecError> for ApiErrorCode {
    fn from(_: &CodecError) -> Self {
        ApiErrorCode::MalformedRequest
    }
}

impl From<&p2drm_crypto::CryptoError> for ApiErrorCode {
    fn from(e: &p2drm_crypto::CryptoError) -> Self {
        match e {
            p2drm_crypto::CryptoError::BadSignature => ApiErrorCode::BadSignature,
            _ => ApiErrorCode::Crypto,
        }
    }
}

impl From<&p2drm_pki::PkiError> for ApiErrorCode {
    fn from(e: &p2drm_pki::PkiError) -> Self {
        match e {
            p2drm_pki::PkiError::Expired { .. } => ApiErrorCode::CertificateExpired,
            _ => ApiErrorCode::Certificate,
        }
    }
}

impl From<&p2drm_pki::ChainError> for ApiErrorCode {
    fn from(e: &p2drm_pki::ChainError) -> Self {
        match e {
            p2drm_pki::ChainError::Revoked { .. } => ApiErrorCode::Revoked,
            _ => ApiErrorCode::ChainInvalid,
        }
    }
}

impl From<&p2drm_payment::PaymentError> for ApiErrorCode {
    fn from(e: &p2drm_payment::PaymentError) -> Self {
        match e {
            p2drm_payment::PaymentError::InsufficientFunds { .. } => {
                ApiErrorCode::InsufficientFunds
            }
            p2drm_payment::PaymentError::DoubleSpend => ApiErrorCode::DoubleSpend,
            _ => ApiErrorCode::Payment,
        }
    }
}

impl From<&p2drm_store::StoreError> for ApiErrorCode {
    fn from(_: &p2drm_store::StoreError) -> Self {
        ApiErrorCode::Storage
    }
}

impl From<&p2drm_rel::ParseError> for ApiErrorCode {
    fn from(_: &p2drm_rel::ParseError) -> Self {
        ApiErrorCode::RightsParse
    }
}

impl From<&p2drm_bignum::BigError> for ApiErrorCode {
    fn from(_: &p2drm_bignum::BigError) -> Self {
        ApiErrorCode::Arithmetic
    }
}

impl From<&CoreError> for ApiErrorCode {
    fn from(e: &CoreError) -> Self {
        match e {
            CoreError::Pki(e) => e.into(),
            CoreError::Chain(e) => e.into(),
            CoreError::Crypto(e) => e.into(),
            CoreError::Payment(e) => e.into(),
            CoreError::Store(e) => e.into(),
            CoreError::BadLicense(_) => ApiErrorCode::BadLicense,
            CoreError::AlreadyRedeemed(_) => ApiErrorCode::AlreadyRedeemed,
            CoreError::Denied(_) => ApiErrorCode::RightsDenied,
            CoreError::Revoked(_) => ApiErrorCode::Revoked,
            CoreError::BadPseudonym(_) => ApiErrorCode::BadPseudonym,
            CoreError::BadProof => ApiErrorCode::BadProof,
            CoreError::UnknownContent(_) => ApiErrorCode::UnknownContent,
            CoreError::UnknownLicense(_) => ApiErrorCode::UnknownLicense,
            CoreError::BadEvidence(_) => ApiErrorCode::BadEvidence,
            CoreError::Card(_) => ApiErrorCode::CardRefused,
        }
    }
}

/// The wire error response: a stable code plus an advisory human-readable
/// detail (the detail is **not** part of the contract; only the code is).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// Stable numeric classification.
    pub code: ApiErrorCode,
    /// Free-text diagnosis (advisory only; may change between builds).
    pub detail: String,
    /// Backpressure hint in milliseconds: how long the sender suggests
    /// the client wait before retrying. `0` means no hint. Busy/shed
    /// responses derive this from current load, turning load shedding
    /// into cooperative degradation; recovery policies take
    /// `max(backoff, retry_after_ms)` as the pause floor.
    pub retry_after_ms: u32,
}

impl ApiError {
    /// Builds an error response (no retry hint).
    pub fn new(code: ApiErrorCode, detail: impl Into<String>) -> Self {
        ApiError {
            code,
            detail: detail.into(),
            retry_after_ms: 0,
        }
    }

    /// Attaches a backpressure hint (see [`ApiError::retry_after_ms`]).
    pub fn with_retry_after(mut self, ms: u32) -> Self {
        self.retry_after_ms = ms;
        self
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ApiError {}

impl From<CoreError> for ApiError {
    fn from(e: CoreError) -> Self {
        ApiError {
            code: (&e).into(),
            detail: e.to_string(),
            retry_after_ms: 0,
        }
    }
}

impl Encode for ApiError {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.code.code() as u32);
        w.put_str(&self.detail);
        w.put_u32(self.retry_after_ms);
    }
}

impl Decode for ApiError {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let raw = r.get_u32()?;
        if raw > u16::MAX as u32 {
            return Err(CodecError::BadLength(raw as u64));
        }
        Ok(ApiError {
            code: ApiErrorCode::from_code(raw as u16),
            detail: r.get_str()?,
            retry_after_ms: r.get_u32()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Request / response bodies and envelopes
// ---------------------------------------------------------------------------

/// Every operation a remote party can request, as a typed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireRequest {
    /// Anonymous purchase.
    Purchase(PurchaseRequest),
    /// Anonymous download (the remote half of play).
    Download(DownloadRequest),
    /// Privacy-preserving transfer.
    Transfer(TransferRequest),
    /// Blind pseudonym issuance.
    PseudonymIssue(PseudonymIssueRequest),
    /// Blind attribute issuance.
    AttributeIssue(AttributeIssueRequest),
    /// CRL synchronization.
    CrlSync(CrlSyncRequest),
    /// Catalog lookup / listing.
    Catalog(CatalogRequest),
    /// License-status query.
    LicenseStatus(LicenseStatusRequest),
    /// Unified metrics snapshot (operator op, opt-in).
    MetricsDump(MetricsDumpRequest),
}

impl WireRequest {
    /// The envelope op-code for this body.
    pub fn opcode(&self) -> OpCode {
        match self {
            WireRequest::Purchase(_) => OpCode::Purchase,
            WireRequest::Download(_) => OpCode::Download,
            WireRequest::Transfer(_) => OpCode::Transfer,
            WireRequest::PseudonymIssue(_) => OpCode::PseudonymIssue,
            WireRequest::AttributeIssue(_) => OpCode::AttributeIssue,
            WireRequest::CrlSync(_) => OpCode::CrlSync,
            WireRequest::Catalog(_) => OpCode::Catalog,
            WireRequest::LicenseStatus(_) => OpCode::LicenseStatus,
            WireRequest::MetricsDump(_) => OpCode::MetricsDump,
        }
    }

    fn encode_payload(&self, w: &mut Writer) {
        match self {
            WireRequest::Purchase(m) => m.encode(w),
            WireRequest::Download(m) => m.encode(w),
            WireRequest::Transfer(m) => m.encode(w),
            WireRequest::PseudonymIssue(m) => m.encode(w),
            WireRequest::AttributeIssue(m) => m.encode(w),
            WireRequest::CrlSync(m) => m.encode(w),
            WireRequest::Catalog(m) => m.encode(w),
            WireRequest::LicenseStatus(m) => m.encode(w),
            WireRequest::MetricsDump(m) => m.encode(w),
        }
    }

    fn decode_payload(op: OpCode, payload: &[u8]) -> Result<Self, EnvelopeError> {
        let body = match op {
            OpCode::Purchase => WireRequest::Purchase(decode_strict(payload)?),
            OpCode::Download => WireRequest::Download(decode_strict(payload)?),
            OpCode::Transfer => WireRequest::Transfer(decode_strict(payload)?),
            OpCode::PseudonymIssue => WireRequest::PseudonymIssue(decode_strict(payload)?),
            OpCode::AttributeIssue => WireRequest::AttributeIssue(decode_strict(payload)?),
            OpCode::CrlSync => WireRequest::CrlSync(decode_strict(payload)?),
            OpCode::Catalog => WireRequest::Catalog(decode_strict(payload)?),
            OpCode::LicenseStatus => WireRequest::LicenseStatus(decode_strict(payload)?),
            OpCode::MetricsDump => WireRequest::MetricsDump(decode_strict(payload)?),
            OpCode::Error => return Err(EnvelopeError::UnknownOpcode(OpCode::Error.byte())),
        };
        Ok(body)
    }
}

/// Every reply the service can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireResponse {
    /// Purchase succeeded: the license.
    Purchase(PurchaseResponse),
    /// Download payload.
    Download(DownloadResponse),
    /// Transfer succeeded: the reissued license.
    Transfer(TransferResponse),
    /// Blind signature over the pseudonym candidate.
    PseudonymIssue(PseudonymIssueResponse),
    /// Blind signature under the attribute key.
    AttributeIssue(AttributeIssueResponse),
    /// Full signed CRLs.
    CrlSync(CrlSync),
    /// Catalog metadata.
    Catalog(CatalogResponse),
    /// Authoritative license status.
    LicenseStatus(LicenseStatusResponse),
    /// Unified metrics snapshot + recent spans.
    MetricsDump(MetricsDumpResponse),
    /// The request failed; the code is stable, the detail advisory.
    Error(ApiError),
}

impl WireResponse {
    /// The envelope op-code for this body.
    pub fn opcode(&self) -> OpCode {
        match self {
            WireResponse::Purchase(_) => OpCode::Purchase,
            WireResponse::Download(_) => OpCode::Download,
            WireResponse::Transfer(_) => OpCode::Transfer,
            WireResponse::PseudonymIssue(_) => OpCode::PseudonymIssue,
            WireResponse::AttributeIssue(_) => OpCode::AttributeIssue,
            WireResponse::CrlSync(_) => OpCode::CrlSync,
            WireResponse::Catalog(_) => OpCode::Catalog,
            WireResponse::LicenseStatus(_) => OpCode::LicenseStatus,
            WireResponse::MetricsDump(_) => OpCode::MetricsDump,
            WireResponse::Error(_) => OpCode::Error,
        }
    }

    /// Short label for diagnostics.
    pub fn label(&self) -> &'static str {
        self.opcode().label()
    }

    fn encode_payload(&self, w: &mut Writer) {
        match self {
            WireResponse::Purchase(m) => m.encode(w),
            WireResponse::Download(m) => m.encode(w),
            WireResponse::Transfer(m) => m.encode(w),
            WireResponse::PseudonymIssue(m) => m.encode(w),
            WireResponse::AttributeIssue(m) => m.encode(w),
            WireResponse::CrlSync(m) => m.encode(w),
            WireResponse::Catalog(m) => m.encode(w),
            WireResponse::LicenseStatus(m) => m.encode(w),
            WireResponse::MetricsDump(m) => m.encode(w),
            WireResponse::Error(m) => m.encode(w),
        }
    }

    fn decode_payload(op: OpCode, payload: &[u8]) -> Result<Self, EnvelopeError> {
        let body = match op {
            OpCode::Purchase => WireResponse::Purchase(decode_strict(payload)?),
            OpCode::Download => WireResponse::Download(decode_strict(payload)?),
            OpCode::Transfer => WireResponse::Transfer(decode_strict(payload)?),
            OpCode::PseudonymIssue => WireResponse::PseudonymIssue(decode_strict(payload)?),
            OpCode::AttributeIssue => WireResponse::AttributeIssue(decode_strict(payload)?),
            OpCode::CrlSync => WireResponse::CrlSync(decode_strict(payload)?),
            OpCode::Catalog => WireResponse::Catalog(decode_strict(payload)?),
            OpCode::LicenseStatus => WireResponse::LicenseStatus(decode_strict(payload)?),
            OpCode::MetricsDump => WireResponse::MetricsDump(decode_strict(payload)?),
            OpCode::Error => WireResponse::Error(decode_strict(payload)?),
        };
        Ok(body)
    }
}

fn decode_strict<T: Decode>(payload: &[u8]) -> Result<T, EnvelopeError> {
    p2drm_codec::from_bytes(payload).map_err(EnvelopeError::Malformed)
}

/// Why envelope bytes failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// Op-code byte undefined (or `Error` in a request).
    UnknownOpcode(u8),
    /// Header or payload failed strict decoding.
    Malformed(CodecError),
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            EnvelopeError::UnknownOpcode(b) => write!(f, "unknown op-code {b}"),
            EnvelopeError::Malformed(e) => write!(f, "malformed envelope: {e}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<EnvelopeError> for ApiError {
    fn from(e: EnvelopeError) -> Self {
        let code = match e {
            EnvelopeError::UnsupportedVersion(_) => ApiErrorCode::UnsupportedVersion,
            EnvelopeError::UnknownOpcode(_) => ApiErrorCode::UnknownOpcode,
            EnvelopeError::Malformed(_) => ApiErrorCode::MalformedRequest,
        };
        ApiError::new(code, e.to_string())
    }
}

/// Splits envelope bytes into `(version, opcode byte, correlation,
/// payload)` without interpreting the op.
fn split_envelope(bytes: &[u8]) -> Result<(u8, u8, u64, &[u8]), EnvelopeError> {
    if bytes.len() < ENVELOPE_HEADER_LEN {
        return Err(EnvelopeError::Malformed(CodecError::UnexpectedEof));
    }
    // lint: allow(panic, length checked against ENVELOPE_HEADER_LEN above)
    let version = bytes[0];
    // lint: allow(panic, length checked against ENVELOPE_HEADER_LEN above)
    let op = bytes[1];
    let correlation = read_correlation(bytes);
    // lint: allow(panic, length checked against ENVELOPE_HEADER_LEN above)
    Ok((version, op, correlation, &bytes[ENVELOPE_HEADER_LEN..]))
}

/// Reads the correlation id from envelope bytes without panicking slice
/// math: the zip simply stops short on truncated input (callers that
/// care check the length first).
fn read_correlation(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    for (dst, src) in word.iter_mut().zip(bytes.iter().skip(2)) {
        *dst = *src;
    }
    u64::from_le_bytes(word)
}

/// Best-effort correlation id extraction from (possibly malformed)
/// request bytes, so even rejected requests get a correlated reply.
pub fn correlation_hint(bytes: &[u8]) -> u64 {
    if bytes.len() >= ENVELOPE_HEADER_LEN {
        read_correlation(bytes)
    } else {
        0
    }
}

/// A framed request: correlation id + typed body. Serializes to the
/// envelope layout in the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestEnvelope {
    /// Client-chosen id echoed in the response.
    pub correlation_id: u64,
    /// The operation.
    pub body: WireRequest,
}

impl RequestEnvelope {
    /// Serializes the envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        w.put_u8(WIRE_VERSION);
        w.put_u8(self.body.opcode().byte());
        w.put_u64(self.correlation_id);
        self.body.encode_payload(&mut w);
        w.into_bytes()
    }

    /// Strictly parses request bytes (exact payload consumption, version
    /// and op-code checked).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EnvelopeError> {
        let (version, op, correlation_id, payload) = split_envelope(bytes)?;
        if version != WIRE_VERSION {
            return Err(EnvelopeError::UnsupportedVersion(version));
        }
        let op = OpCode::from_byte(op).ok_or(EnvelopeError::UnknownOpcode(op))?;
        Ok(RequestEnvelope {
            correlation_id,
            body: WireRequest::decode_payload(op, payload)?,
        })
    }
}

/// A framed response: correlation id + typed body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseEnvelope {
    /// Echo of the request's correlation id.
    pub correlation_id: u64,
    /// The outcome.
    pub body: WireResponse,
}

impl ResponseEnvelope {
    /// Serializes the envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        w.put_u8(WIRE_VERSION);
        w.put_u8(self.body.opcode().byte());
        w.put_u64(self.correlation_id);
        self.body.encode_payload(&mut w);
        w.into_bytes()
    }

    /// Strictly parses response bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EnvelopeError> {
        let (version, op, correlation_id, payload) = split_envelope(bytes)?;
        if version != WIRE_VERSION {
            return Err(EnvelopeError::UnsupportedVersion(version));
        }
        let op = OpCode::from_byte(op).ok_or(EnvelopeError::UnknownOpcode(op))?;
        Ok(ResponseEnvelope {
            correlation_id,
            body: WireResponse::decode_payload(op, payload)?,
        })
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Metric name for one op's request-latency histogram. Names are static
/// strings by construction — the privacy rule for every metric in this
/// workspace (no pseudonyms, card ids, license ids or coin serials in
/// telemetry).
fn op_hist_name(op: OpCode) -> &'static str {
    match op {
        OpCode::Error => "service_error_ns",
        OpCode::Purchase => "service_purchase_ns",
        OpCode::Download => "service_download_ns",
        OpCode::Transfer => "service_transfer_ns",
        OpCode::PseudonymIssue => "service_pseudonym_issue_ns",
        OpCode::AttributeIssue => "service_attribute_issue_ns",
        OpCode::CrlSync => "service_crl_sync_ns",
        OpCode::Catalog => "service_catalog_ns",
        OpCode::LicenseStatus => "service_license_status_ns",
        OpCode::MetricsDump => "service_metrics_dump_ns",
    }
}

/// Registry-backed service instrumentation: request/error counters and
/// one latency histogram per wire op, resolved once at construction so
/// the hot path is plain relaxed atomics.
struct ServiceStats {
    served: Arc<Counter>,
    errors: Arc<Counter>,
    /// Indexed by op-code byte; slot 0 (`Error`) receives requests whose
    /// envelope never parsed to an op.
    op_ns: [Arc<AtomicHistogram>; OPCODE_COUNT],
}

impl ServiceStats {
    fn new(registry: &Registry) -> Self {
        let op_ns = std::array::from_fn(|i| {
            let op = OpCode::from_byte(i as u8).unwrap_or(OpCode::Error);
            registry.histogram(op_hist_name(op))
        });
        ServiceStats {
            served: registry.counter("service_requests"),
            errors: registry.counter("service_errors"),
            op_ns,
        }
    }

    fn hist(&self, op_byte: u8) -> &AtomicHistogram {
        // Unknown bytes never reach here with a real op; route any
        // out-of-range byte to the error slot rather than indexing.
        match self.op_ns.get(op_byte as usize) {
            Some(h) => h,
            None => &self.op_ns[0], // lint: allow(panic, array is non-empty by construction)
        }
    }
}

/// The byte-level DRM service: decodes envelopes, dispatches onto the
/// shared `&self` provider (and RA, when attached) and encodes replies.
///
/// Generic over the provider's [`ConcurrentKv`] backend, so the same
/// service fronts the volatile [`ShardedKv`] and the durable
/// [`WalShardedKv`](p2drm_store::WalShardedKv). All entry points take
/// `&self`; the service is `Sync` whenever the backend is, so N transport
/// threads share one instance.
///
/// The service keeps its own view of protocol time (epoch + clock) —
/// server-authoritative, like a deployment would — settable through
/// [`ProviderService::set_time`].
///
/// The provider (and optional RA) are held by [`Arc`], so the service is
/// a self-contained value: hand it to a transport server that spawns its
/// own threads (`p2drm-net`'s `DrmServer` does exactly that) while the
/// caller keeps its own handles to the same provider for inspection.
pub struct ProviderService<B: ConcurrentKv = ShardedKv> {
    provider: Arc<ContentProvider<B>>,
    ra: Option<Arc<RegistrationAuthority>>,
    epoch: AtomicU32,
    now: AtomicU64,
    /// 256-bit key for per-request RNG derivation (license ids, envelope
    /// sealing): SHA-256 of the caller's seed mixed with fresh OS
    /// entropy. The caller seed only *separates* services — it is never
    /// the sole source of cryptographic randomness — and each request
    /// keys an independent ChaCha20 stream by its counter, so concurrent
    /// requests never share generator state or a lock.
    rng_key: [u8; 32],
    requests: AtomicU64,
    /// Metrics registry this service records into (and snapshots for
    /// [`OpCode::MetricsDump`]).
    registry: Arc<Registry>,
    /// Correlation-id request tracer; starts disabled, enabled via
    /// [`ProviderService::set_tracing`].
    tracer: Arc<Tracer>,
    stats: ServiceStats,
}

impl<B: ConcurrentKv> ProviderService<B> {
    /// Service over a provider, with no RA attached (issuance ops answer
    /// [`ApiErrorCode::ServiceUnavailable`]). Starts at epoch 0, time 1.
    ///
    /// `seed` separates this service's RNG streams from other instances;
    /// it is hashed together with 256 bits of fresh OS entropy into the
    /// service's RNG key, so the randomness behind
    /// [`ProviderService::handle`] — license ids, key envelopes — is a
    /// ChaCha20 keystream unpredictable even to a caller who knows the
    /// seed (and, unlike the test-grade xoshiro `StdRng`, not
    /// recoverable from observed output). Deterministic tests should
    /// drive [`ProviderService::handle_with_rng`] instead.
    ///
    /// Records into the process-wide [`p2drm_obs::global`] registry; use
    /// [`ProviderService::with_registry`] to isolate metrics (tests,
    /// side-by-side services).
    pub fn new(provider: Arc<ContentProvider<B>>, seed: u64) -> Self
    where
        B: Send + Sync + 'static,
    {
        let registry = Arc::clone(p2drm_obs::global());
        Self::with_registry(provider, seed, registry)
    }

    /// [`ProviderService::new`] recording into a caller-supplied
    /// [`Registry`] instead of the global one. The provider (verify
    /// cache, store) and the tracer are registered as weak snapshot
    /// sources, so one [`Registry::snapshot`] — or one wire
    /// [`OpCode::MetricsDump`] — carries service, cache, store and
    /// batch-crypto metrics together.
    pub fn with_registry(
        provider: Arc<ContentProvider<B>>,
        seed: u64,
        registry: Arc<Registry>,
    ) -> Self
    where
        B: Send + Sync + 'static,
    {
        let stats = ServiceStats::new(&registry);
        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        let provider_weak = Arc::downgrade(&provider);
        registry.register_source(provider_weak as Weak<dyn MetricSource + Send + Sync>);
        let tracer_weak = Arc::downgrade(&tracer);
        registry.register_source(tracer_weak as Weak<dyn MetricSource + Send + Sync>);
        ProviderService {
            provider,
            ra: None,
            epoch: AtomicU32::new(0),
            now: AtomicU64::new(1),
            rng_key: p2drm_crypto::sha256::sha256_concat(&[
                b"p2drm-service-rng-v1",
                &seed.to_le_bytes(),
                &p2drm_crypto::rng::os_entropy32(),
            ]),
            requests: AtomicU64::new(0),
            registry,
            tracer,
            stats,
        }
    }

    /// Attaches a registration authority, enabling the pseudonym and
    /// attribute issuance ops.
    pub fn with_ra(mut self, ra: Arc<RegistrationAuthority>) -> Self {
        self.ra = Some(ra);
        self
    }

    /// The provider this service fronts (shared handle).
    pub fn provider(&self) -> &Arc<ContentProvider<B>> {
        &self.provider
    }

    /// The metrics registry this service records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The correlation-id tracer (disabled until
    /// [`ProviderService::set_tracing`]).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Enables or disables per-request span capture. Span fields are
    /// static labels, durations and the client-chosen wire correlation
    /// id — never pseudonyms, card ids, license ids or coin serials.
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Sets the service's protocol time.
    pub fn set_time(&self, epoch: u32, now: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
        self.now.store(now, Ordering::Relaxed);
    }

    /// Current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Current wall-clock (unix-second stand-in).
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    /// The single byte-level entry point: decode, dispatch, encode.
    ///
    /// Total: every input — truncated, bit-flipped, wrong version,
    /// unknown op, trailing garbage — produces a well-formed
    /// [`ResponseEnvelope`], never a panic, and a failed request leaves
    /// the underlying provider fully serviceable.
    pub fn handle(&self, request: &[u8]) -> Vec<u8> {
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        // Nonce-separated ChaCha20 streams under one entropy-keyed
        // 256-bit key: one independent CSPRNG per request, no shared
        // lock on the hot path, and no way to predict one request's
        // randomness from another's output.
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&n.to_le_bytes()); // lint: allow(panic, nonce is 12 bytes, the 8-byte counter prefix always fits)
        let mut rng = ChaChaRng::new(self.rng_key, nonce);
        self.handle_with_rng(request, &mut rng)
    }

    /// [`ProviderService::handle`] with caller-supplied randomness
    /// (deterministic tests).
    pub fn handle_with_rng<R: CryptoRng + ?Sized>(&self, request: &[u8], rng: &mut R) -> Vec<u8> {
        let timer = Timer::start(self.registry.is_enabled());
        self.stats.served.inc();
        let (op_byte, response) = match RequestEnvelope::from_bytes(request) {
            Ok(envelope) => {
                let op = envelope.body.opcode();
                // Span fields: correlation id (client-chosen, already on
                // the wire) + static op label. Nothing identifying.
                let _span = self.tracer.begin(envelope.correlation_id, op.label());
                let body = self
                    .dispatch(&envelope.body, rng)
                    .unwrap_or_else(WireResponse::Error);
                (
                    op.byte(),
                    ResponseEnvelope {
                        correlation_id: envelope.correlation_id,
                        body,
                    },
                )
            }
            Err(e) => (
                OpCode::Error.byte(),
                ResponseEnvelope {
                    correlation_id: correlation_hint(request),
                    body: WireResponse::Error(e.into()),
                },
            ),
        };
        if matches!(response.body, WireResponse::Error(_)) {
            self.stats.errors.inc();
        }
        let bytes = response.to_bytes();
        if let Some(ns) = timer.elapsed_ns() {
            self.stats.hist(op_byte).record(ns);
        }
        bytes
    }

    /// Typed dispatch (the decoded middle of [`ProviderService::handle`]).
    pub fn dispatch<R: CryptoRng + ?Sized>(
        &self,
        request: &WireRequest,
        rng: &mut R,
    ) -> Result<WireResponse, ApiError> {
        let epoch = self.epoch();
        let now = self.now();
        match request {
            WireRequest::Purchase(req) => {
                let license = self.provider.handle_purchase(req, epoch, rng)?;
                Ok(WireResponse::Purchase(PurchaseResponse { license }))
            }
            WireRequest::Download(req) => {
                let (nonce, ciphertext) = self.provider.download(&req.content_id)?;
                Ok(WireResponse::Download(DownloadResponse {
                    nonce,
                    ciphertext,
                }))
            }
            WireRequest::Transfer(req) => {
                let license = self.provider.handle_transfer(req, epoch, rng)?;
                Ok(WireResponse::Transfer(TransferResponse { license }))
            }
            WireRequest::PseudonymIssue(req) => {
                let ra = self.require_ra("pseudonym issuance")?;
                let blind_sig = ra.issue_pseudonym(
                    req.card_id,
                    &req.card_cert,
                    &req.blinded,
                    &req.auth_sig,
                    now,
                )?;
                Ok(WireResponse::PseudonymIssue(PseudonymIssueResponse {
                    blind_sig,
                }))
            }
            WireRequest::AttributeIssue(req) => {
                let ra = self.require_ra("attribute issuance")?;
                let blind_sig = ra.issue_attribute(
                    req.card_id,
                    &req.card_cert,
                    &req.attribute,
                    &req.blinded,
                    &req.auth_sig,
                    now,
                )?;
                Ok(WireResponse::AttributeIssue(AttributeIssueResponse {
                    blind_sig,
                }))
            }
            WireRequest::CrlSync(_) => Ok(WireResponse::CrlSync(CrlSync {
                license_crl: self.provider.signed_license_crl(now),
                pseudonym_crl: self.provider.signed_pseudonym_crl(now),
            })),
            WireRequest::Catalog(req) => {
                let items = match req.content_id {
                    Some(id) => vec![self.provider.content_meta(&id).ok_or_else(|| {
                        ApiError::new(
                            ApiErrorCode::UnknownContent,
                            format!("unknown content {id}"),
                        )
                    })?],
                    None => self.provider.list_content(),
                };
                Ok(WireResponse::Catalog(CatalogResponse { items }))
            }
            WireRequest::LicenseStatus(req) => {
                Ok(WireResponse::LicenseStatus(LicenseStatusResponse {
                    status: self.provider.license_status(&req.license_id),
                }))
            }
            WireRequest::MetricsDump(_) => {
                if !self.provider.config().metrics_dump {
                    return Err(ApiError::new(
                        ApiErrorCode::ServiceUnavailable,
                        "metrics dump not enabled on this endpoint",
                    ));
                }
                Ok(WireResponse::MetricsDump(self.metrics_dump_response()))
            }
        }
    }

    /// The unified snapshot as a wire message: every registry metric
    /// (service, verify cache, store, batch crypto) plus the
    /// tracer's recent spans.
    pub fn metrics_dump_response(&self) -> MetricsDumpResponse {
        let snapshot = self.registry.snapshot();
        MetricsDumpResponse {
            metrics: snapshot.entries.iter().map(metric_entry).collect(),
            spans: self.tracer.recent().iter().map(span_entry).collect(),
        }
    }

    fn require_ra(&self, what: &str) -> Result<&RegistrationAuthority, ApiError> {
        self.ra.as_deref().ok_or_else(|| {
            ApiError::new(
                ApiErrorCode::ServiceUnavailable,
                format!("{what} not served by this endpoint (no RA attached)"),
            )
        })
    }
}

fn metric_entry((name, value): &(String, MetricValue)) -> MetricEntry {
    match value {
        MetricValue::Counter(v) => MetricEntry::Counter {
            name: name.clone(),
            value: *v,
        },
        MetricValue::Gauge(v) => MetricEntry::Gauge {
            name: name.clone(),
            value: *v,
        },
        MetricValue::Histogram(s) => MetricEntry::Histogram {
            name: name.clone(),
            summary: MetricSummary {
                count: s.count,
                mean_ns: s.mean_ns.round() as u64,
                p50_ns: s.p50_ns,
                p90_ns: s.p90_ns,
                p99_ns: s.p99_ns,
                min_ns: s.min_ns,
                max_ns: s.max_ns,
            },
        },
    }
}

fn span_entry(r: &p2drm_obs::SpanRecord) -> SpanEntry {
    SpanEntry {
        corr_id: r.corr_id,
        op: r.op.to_string(),
        total_ns: r.total_ns,
        slow: r.slow,
        stages: r
            .stages
            .iter()
            .map(|(label, ns)| SpanStage {
                label: (*label).to_string(),
                ns: *ns,
            })
            .collect(),
    }
}

/// Rebuilds an exposition-ready [`Snapshot`] from a decoded
/// [`MetricsDumpResponse`] (the client side of [`OpCode::MetricsDump`]):
/// same entries in the same order, with each histogram mean carried as
/// the rounded integer that travelled the wire. Render with
/// [`Snapshot::to_text`] or [`Snapshot::to_json`].
pub fn snapshot_from_dump(dump: &MetricsDumpResponse) -> Snapshot {
    let entries = dump
        .metrics
        .iter()
        .map(|e| match e {
            MetricEntry::Counter { name, value } => (name.clone(), MetricValue::Counter(*value)),
            MetricEntry::Gauge { name, value } => (name.clone(), MetricValue::Gauge(*value)),
            MetricEntry::Histogram { name, summary } => (
                name.clone(),
                MetricValue::Histogram(Summary {
                    count: summary.count,
                    mean_ns: summary.mean_ns as f64,
                    p50_ns: summary.p50_ns,
                    p90_ns: summary.p90_ns,
                    p99_ns: summary.p99_ns,
                    min_ns: summary.min_ns,
                    max_ns: summary.max_ns,
                }),
            ),
        })
        .collect();
    Snapshot { entries }
}

// ---------------------------------------------------------------------------
// Transport + client
// ---------------------------------------------------------------------------

/// Why a transport failed to complete a round trip.
///
/// Real transports fail, and the variants split on the one question the
/// client's recovery logic needs answered: **did the request possibly
/// reach the service?** [`TransportError::Unreachable`] means definitely
/// not; the other variants are ambiguous (the service may have
/// committed). Every op is safe to resend either way: the provider
/// answers a resent purchase or transfer with what its first attempt
/// committed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The request was never sent — no connection could be established,
    /// or the transport refused it locally (e.g. over the frame cap).
    Unreachable(String),
    /// The connection failed after the request may have left this host.
    Broken(String),
    /// A frame violated the framing contract (oversized, torn, garbage
    /// length prefix). The request may still have been served.
    Frame(String),
}

impl TransportError {
    /// Whether the request definitely never reached the service, making
    /// it safe to unwind client-side state as if the call had not
    /// happened. Everything else is ambiguous.
    pub fn definitely_unsent(&self) -> bool {
        matches!(self, TransportError::Unreachable(_))
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable(d) => write!(f, "service unreachable: {d}"),
            TransportError::Broken(d) => write!(f, "connection broken mid-exchange: {d}"),
            TransportError::Frame(d) => write!(f, "framing violation: {d}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Moves request bytes to a service and returns response bytes, with
/// **multiple requests allowed in flight at once** on one channel.
/// Implementations may be sockets, queues, or the in-proc [`Loopback`].
///
/// The contract is submit/complete, keyed by the envelope's correlation
/// id (which the caller must also stamp into the request bytes — the
/// server echoes it, and the transport matches replies by it):
///
/// * [`Transport::submit`] hands one request to the channel. An error
///   classifies **that request only**: `Unreachable` means it provably
///   never left this host (the caller may unwind state as if the call
///   was never made); `Broken`/`Frame` mean it *may* have left, so the
///   caller must treat the outcome as ambiguous. Either way,
///   previously submitted requests stay in flight — their fate is
///   reported by `complete`.
/// * [`Transport::complete`] blocks for the **next** reply, in whatever
///   order the service answers — `Ok(Some((corr_id, bytes)))` resolves
///   exactly one in-flight submission. `Ok(None)` means the `deadline`
///   passed (or nothing was in flight) with the channel still healthy.
///   `Err(_)` is a **channel failure**: every request in flight becomes
///   ambiguous at once, the transport forgets them, and a later
///   `submit` may re-establish the channel.
/// * A reply whose correlation id is not currently in flight — unknown,
///   or already consumed by an earlier `complete` — must be **rejected
///   as a channel failure**, never delivered twice or misdelivered.
///
/// `deadline: None` means "wait as long as this transport considers
/// reasonable" (a socket transport's read timeout); exceeding *that*
/// patience is `Err(Broken)`, not `Ok(None)`, because a request was in
/// flight and its outcome is now unknown.
pub trait Transport {
    /// Hands one request (stamped with `corr_id`) to the channel.
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError>;

    /// Blocks for the next reply, whichever in-flight request it
    /// resolves. See the trait docs for the `deadline`/`None`/`Err`
    /// semantics.
    fn complete(
        &self,
        deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError>;

    /// One-shot round trip — the degenerate pipeline of depth 1:
    /// submit, then complete until `corr_id`'s reply arrives. Replies
    /// to other (abandoned) correlation ids are discarded.
    fn roundtrip(&self, corr_id: u64, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.submit(corr_id, request)?;
        loop {
            match self.complete(None)? {
                Some((id, reply)) if id == corr_id => return Ok(reply),
                Some(_) => continue,
                None => {
                    return Err(TransportError::Broken(
                        "transport reported nothing in flight while a reply was outstanding"
                            .to_string(),
                    ))
                }
            }
        }
    }
}

/// In-process transport: [`Transport::submit`] calls
/// [`ProviderService::handle`] synchronously and queues the reply;
/// [`Transport::complete`] pops replies in submission order. The bytes
/// still make the full encode → dispatch → decode journey, so this is
/// the serialization-overhead baseline a real socket would add to.
/// Infallible by construction — there is no wire to lose bytes on.
pub struct Loopback<'s, B: ConcurrentKv> {
    service: &'s ProviderService<B>,
    replies: std::sync::Mutex<std::collections::VecDeque<(u64, Vec<u8>)>>,
}

impl<'s, B: ConcurrentKv> Loopback<'s, B> {
    /// In-process transport over `service`.
    pub fn new(service: &'s ProviderService<B>) -> Self {
        Loopback {
            service,
            replies: std::sync::Mutex::new(std::collections::VecDeque::new()),
        }
    }
}

impl<B: ConcurrentKv> Transport for Loopback<'_, B> {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        let reply = self.service.handle(request);
        self.replies
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push_back((corr_id, reply));
        Ok(())
    }

    fn complete(
        &self,
        _deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        Ok(self
            .replies
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop_front())
    }
}

/// Client-side failure of a wire call.
#[derive(Debug)]
pub enum WireError {
    /// The service answered with an error response.
    Api(ApiError),
    /// The transport could not complete the round trip.
    Transport(TransportError),
    /// The response bytes failed to parse.
    Envelope(EnvelopeError),
    /// The response echoed a different correlation id.
    CorrelationMismatch {
        /// Id the client sent.
        sent: u64,
        /// Id the response carried.
        got: u64,
    },
    /// The response body was a different operation than requested.
    UnexpectedResponse {
        /// What the client asked for.
        expected: &'static str,
        /// What came back.
        got: &'static str,
    },
    /// A client-side protocol step failed before/after the wire call.
    Client(CoreError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Api(e) => write!(f, "service error: {e}"),
            WireError::Transport(e) => write!(f, "transport failure: {e}"),
            WireError::Envelope(e) => write!(f, "bad response envelope: {e}"),
            WireError::CorrelationMismatch { sent, got } => {
                write!(f, "correlation mismatch: sent {sent}, got {got}")
            }
            WireError::UnexpectedResponse { expected, got } => {
                write!(f, "expected {expected} response, got {got}")
            }
            WireError::Client(e) => write!(f, "client-side failure: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CoreError> for WireError {
    fn from(e: CoreError) -> Self {
        WireError::Client(e)
    }
}

impl From<ApiError> for WireError {
    fn from(e: ApiError) -> Self {
        WireError::Api(e)
    }
}

impl From<EnvelopeError> for WireError {
    fn from(e: EnvelopeError) -> Self {
        WireError::Envelope(e)
    }
}

impl From<TransportError> for WireError {
    fn from(e: TransportError) -> Self {
        WireError::Transport(e)
    }
}

impl From<p2drm_payment::PaymentError> for WireError {
    fn from(e: p2drm_payment::PaymentError) -> Self {
        WireError::Client(CoreError::Payment(e))
    }
}

/// Counters/histograms that make client-side recovery visible instead
/// of silent: retries taken, give-ups, breaker activity, and the backoff
/// pauses actually slept.
pub struct RecoveryMetrics {
    /// Retries actually sent (`client_retries`).
    pub retries: Arc<Counter>,
    /// Operations abandoned with retries still possible in principle but
    /// attempts/budget/deadline exhausted (`client_retry_giveups`).
    pub giveups: Arc<Counter>,
    /// Circuit-breaker state transitions (`client_breaker_transitions`).
    pub breaker_transitions: Arc<Counter>,
    /// Requests rejected locally by an open breaker
    /// (`client_breaker_rejections`).
    pub breaker_rejections: Arc<Counter>,
    /// Distribution of backoff pauses slept (`client_backoff_ns`).
    pub backoff_ns: Arc<AtomicHistogram>,
}

impl RecoveryMetrics {
    /// Registers the recovery series on `registry` (idempotent: same
    /// names return the same shared handles).
    pub fn register(registry: &Registry) -> Self {
        RecoveryMetrics {
            retries: registry.counter("client_retries"),
            giveups: registry.counter("client_retry_giveups"),
            breaker_transitions: registry.counter("client_breaker_transitions"),
            breaker_rejections: registry.counter("client_breaker_rejections"),
            backoff_ns: registry.histogram("client_backoff_ns"),
        }
    }
}

/// End-to-end recovery policy for a [`WireClient`]: retry whole
/// operations (not just connects) under a backoff policy, bounded by a
/// retry budget and a circuit breaker, honoring the server's
/// `retry_after_ms` backpressure hints. Every op is retry-safe: reads
/// and issuance rounds repeat harmlessly, and the provider answers a
/// resent purchase or transfer with what its first attempt committed.
pub struct Recovery {
    /// Backoff/attempts/deadline policy (deterministic jitter).
    pub policy: RetryPolicy,
    /// Per-client retry budget shared across all ops on this client.
    pub budget: RetryBudget,
    /// Per-client circuit breaker.
    pub breaker: CircuitBreaker,
    /// Optional observability (None: recovery runs unmetered).
    pub metrics: Option<RecoveryMetrics>,
}

impl Recovery {
    /// Default recovery tuned for the in-tree services, with a
    /// deterministic jitter stream derived from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Recovery {
            policy: RetryPolicy::seeded(seed),
            budget: RetryBudget::new(32, 100),
            breaker: CircuitBreaker::new(8, Duration::from_millis(50)),
            metrics: None,
        }
    }

    /// Attaches recovery metrics registered on `registry`.
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(RecoveryMetrics::register(registry));
        self
    }
}

/// Typed client over any [`Transport`]: frames envelopes, matches
/// correlation ids, and drives the multi-round protocol flows as session
/// state machines against the client-side state (user agent, smart card,
/// device) while the provider/RA live behind the wire.
pub struct WireClient<T: Transport> {
    transport: T,
    /// Correlation-id source: a monotone atomic counter, so ids are
    /// unique per client/connection even across concurrently prepared
    /// pipelined sessions. Id 0 is reserved (it marks a server's
    /// pre-decode error reply) and skipped; on the astronomically
    /// distant wrap-around of the `u64` the counter passes 0 and keeps
    /// going — ids only collide if a request from 2⁶⁴ calls ago is
    /// somehow still in flight, which every transport rejects as an
    /// unknown-id channel failure rather than misdelivering.
    next_correlation: AtomicU64,
    /// Epoch the client stamps into pseudonym/attribute bodies. The
    /// server validates freshness regardless; a stale hint just gets the
    /// issuance rejected.
    epoch: u32,
    /// Server clock learned from signed CRL timestamps (cached).
    now_hint: Option<u64>,
    /// Operation-level recovery policy; `None` keeps the historical
    /// single-attempt behavior.
    recovery: Option<Recovery>,
}

impl<T: Transport> WireClient<T> {
    /// Client over `transport`, assuming epoch 0 until told otherwise.
    pub fn new(transport: T) -> Self {
        WireClient {
            transport,
            next_correlation: AtomicU64::new(1),
            epoch: 0,
            now_hint: None,
            recovery: None,
        }
    }

    /// Enables operation-level recovery: every [`WireClient::call`]
    /// retries per the policy (bounded by budget, breaker and deadline),
    /// honoring server `retry_after_ms` hints.
    pub fn with_recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Installs (or replaces) the recovery policy on a live client.
    pub fn set_recovery(&mut self, recovery: Option<Recovery>) {
        self.recovery = recovery;
    }

    /// The active recovery policy, if any (breaker/budget inspection).
    pub fn recovery(&self) -> Option<&Recovery> {
        self.recovery.as_ref()
    }

    /// Sets the epoch used for blind-issuance bodies (out-of-band time
    /// discipline, exactly like the in-process engines' `now_epoch`
    /// parameter).
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// The next fresh correlation id (never 0 — reserved for the
    /// server's pre-decode error replies).
    fn next_corr(&self) -> u64 {
        loop {
            let id = self.next_correlation.fetch_add(1, Ordering::Relaxed);
            if id != 0 {
                return id;
            }
        }
    }

    /// Decodes one reply delivered for correlation id `sent` and checks
    /// the envelope agrees. A correlation-0 **error** body is a server's
    /// *pre-decode* reply — a busy shed or a frame-level reject sent
    /// before any request was read. The request was provably not
    /// dispatched, so the error is authoritative (and failure handling
    /// can safely unwind), not a mismatch.
    fn decode_reply(sent: u64, reply: &[u8]) -> Result<WireResponse, WireError> {
        let envelope = ResponseEnvelope::from_bytes(reply)?;
        if envelope.correlation_id != sent {
            if envelope.correlation_id == 0 {
                if let WireResponse::Error(e) = envelope.body {
                    return Ok(WireResponse::Error(e));
                }
            }
            return Err(WireError::CorrelationMismatch {
                sent,
                got: envelope.correlation_id,
            });
        }
        Ok(envelope.body)
    }

    /// One framed exchange under the recovery policy (when installed):
    /// encode, submit, complete until this call's reply arrives, decode,
    /// match correlation — retrying failed exchanges per the policy.
    /// Every attempt uses a fresh correlation id, so a late reply to an
    /// abandoned attempt can never satisfy its retry.
    pub fn call(&mut self, body: WireRequest) -> Result<WireResponse, WireError> {
        match self.recovery.take() {
            None => self.call_once(body),
            Some(rec) => {
                let out = self.call_recovering(&rec, body);
                self.recovery = Some(rec);
                out
            }
        }
    }

    /// One framed round trip, exactly one attempt.
    fn call_once(&mut self, body: WireRequest) -> Result<WireResponse, WireError> {
        let sent = self.next_corr();
        let request = RequestEnvelope {
            correlation_id: sent,
            body,
        };
        let reply = self.transport.roundtrip(sent, &request.to_bytes())?;
        Self::decode_reply(sent, &reply)
    }

    /// [`WireClient::call_once`] in a policy-bounded retry loop.
    ///
    /// Retry classification:
    /// * decoded [`ApiErrorCode::ServiceUnavailable`] — a busy shed (or
    ///   an op this endpoint does not serve), retried after at least the
    ///   response's `retry_after_ms` hint;
    /// * decoded [`ApiErrorCode::Storage`] — the service failed to
    ///   persist; the resend completes whatever it committed;
    /// * transport, envelope or correlation failure — retried;
    /// * any other decoded error — authoritative, never retried.
    fn call_recovering(
        &mut self,
        rec: &Recovery,
        body: WireRequest,
    ) -> Result<WireResponse, WireError> {
        let transitions_before = rec.breaker.transitions();
        let out = self.call_recovering_inner(rec, body);
        if let Some(m) = &rec.metrics {
            m.breaker_transitions
                .add(rec.breaker.transitions() - transitions_before);
        }
        out
    }

    fn call_recovering_inner(
        &mut self,
        rec: &Recovery,
        body: WireRequest,
    ) -> Result<WireResponse, WireError> {
        let deadline = rec.policy.op_deadline.map(|d| Instant::now() + d);
        let mut retry: u32 = 0;
        loop {
            match rec.breaker.admit() {
                Admit::Rejected => {
                    if let Some(m) = &rec.metrics {
                        m.breaker_rejections.inc();
                    }
                    return Err(WireError::Api(ApiError::new(
                        ApiErrorCode::ServiceUnavailable,
                        "circuit breaker open: failing fast without sending",
                    )));
                }
                Admit::Allowed | Admit::Probe => {}
            }
            let outcome = self.call_once(body.clone());
            // `None` → final; `Some(floor)` → retriable with a minimum
            // pause (the server's backpressure hint).
            let floor = match &outcome {
                Ok(WireResponse::Error(e))
                    if matches!(
                        e.code,
                        ApiErrorCode::ServiceUnavailable | ApiErrorCode::Storage
                    ) =>
                {
                    rec.breaker.on_failure();
                    Some(Duration::from_millis(u64::from(e.retry_after_ms)))
                }
                Ok(_) => {
                    rec.breaker.on_success();
                    rec.budget.on_success();
                    return outcome;
                }
                Err(WireError::Transport(_))
                | Err(WireError::Envelope(_))
                | Err(WireError::CorrelationMismatch { .. })
                | Err(WireError::UnexpectedResponse { .. }) => {
                    rec.breaker.on_failure();
                    Some(Duration::ZERO)
                }
                // A decoded non-busy error is the server's authoritative
                // answer; a client-side error will not change on resend.
                Err(WireError::Api(_)) | Err(WireError::Client(_)) => None,
            };
            let Some(floor) = floor else {
                return outcome;
            };
            retry += 1;
            let pause = rec.policy.backoff(retry).max(floor);
            let deadline_blocks = deadline.is_some_and(|dl| Instant::now() + pause >= dl);
            if retry >= rec.policy.max_attempts || deadline_blocks || !rec.budget.try_spend() {
                if let Some(m) = &rec.metrics {
                    m.giveups.inc();
                }
                return outcome;
            }
            if let Some(m) = &rec.metrics {
                m.retries.inc();
                m.backoff_ns.record(pause.as_nanos() as u64);
            }
            rec.policy.pause(retry, floor);
        }
    }

    /// Pipelines `bodies` on the transport — submit them all, then
    /// complete replies **in whatever order the service answers** — and
    /// returns one outcome per request, in input order.
    ///
    /// Failure granularity follows the [`Transport`] contract: a submit
    /// error marks only that slot (so an `Unreachable` there is still
    /// definitely-unsent); a complete error is a channel failure, so
    /// every still-unresolved slot gets the same ambiguous transport
    /// error. A reply resolving an id this batch never sent is
    /// discarded (it can only be a stale answer to an abandoned call).
    pub fn call_many(&mut self, bodies: Vec<WireRequest>) -> Vec<Result<WireResponse, WireError>> {
        let mut results: Vec<Option<Result<WireResponse, WireError>>> =
            (0..bodies.len()).map(|_| None).collect();
        let mut pending: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::with_capacity(bodies.len());
        for (slot, body) in bodies.into_iter().enumerate() {
            let sent = self.next_corr();
            let request = RequestEnvelope {
                correlation_id: sent,
                body,
            };
            match self.transport.submit(sent, &request.to_bytes()) {
                Ok(()) => {
                    pending.insert(sent, slot);
                }
                // lint: allow(panic, slot enumerates bodies and results has one slot per body)
                Err(e) => results[slot] = Some(Err(WireError::Transport(e))),
            }
        }
        while !pending.is_empty() {
            match self.transport.complete(None) {
                Ok(Some((corr, reply))) => {
                    if let Some(slot) = pending.remove(&corr) {
                        // lint: allow(panic, slot comes from pending, which only holds valid slots)
                        results[slot] = Some(Self::decode_reply(corr, &reply));
                    }
                }
                Ok(None) => {
                    let err = TransportError::Broken(
                        "transport reported nothing in flight while replies were outstanding"
                            .to_string(),
                    );
                    for (_, slot) in pending.drain() {
                        // lint: allow(panic, slot comes from pending, which only holds valid slots)
                        results[slot] = Some(Err(WireError::Transport(err.clone())));
                    }
                }
                Err(e) => {
                    for (_, slot) in pending.drain() {
                        // lint: allow(panic, slot comes from pending, which only holds valid slots)
                        results[slot] = Some(Err(WireError::Transport(e.clone())));
                    }
                }
            }
        }
        results
            .into_iter()
            // lint: allow(panic, the completion loop above resolves every slot)
            .map(|r| r.expect("every slot resolved"))
            .collect()
    }

    /// Lists the catalog.
    pub fn catalog(&mut self) -> Result<Vec<ContentMeta>, WireError> {
        match self.call(WireRequest::Catalog(CatalogRequest { content_id: None }))? {
            WireResponse::Catalog(c) => Ok(c.items),
            other => Err(unexpected("catalog", other)),
        }
    }

    /// Looks up one catalog item.
    pub fn content_meta(&mut self, id: ContentId) -> Result<ContentMeta, WireError> {
        match self.call(WireRequest::Catalog(CatalogRequest {
            content_id: Some(id),
        }))? {
            WireResponse::Catalog(mut c) if !c.items.is_empty() => Ok(c.items.remove(0)),
            WireResponse::Catalog(_) => Err(WireError::Api(ApiError::new(
                ApiErrorCode::UnknownContent,
                format!("unknown content {id}"),
            ))),
            other => Err(unexpected("catalog", other)),
        }
    }

    /// Blind pseudonym issuance over the wire (card-side state machine +
    /// one RA round trip).
    pub fn obtain_pseudonym<R: CryptoRng + ?Sized>(
        &mut self,
        user: &mut UserAgent,
        ra_blind_key: &RsaPublicKey,
        ttp_key: &ElGamalPublicKey,
        rng: &mut R,
    ) -> Result<KeyId, WireError> {
        let (session, request) =
            PseudonymIssueSession::begin(user, ra_blind_key, ttp_key, self.epoch, rng)?;
        match self.call(WireRequest::PseudonymIssue(request))? {
            WireResponse::PseudonymIssue(resp) => Ok(session.finish(user, ra_blind_key, &resp)?),
            other => Err(unexpected("pseudonym-issue", other)),
        }
    }

    /// Blind attribute issuance over the wire, bound to the user's
    /// current pseudonym.
    pub fn obtain_attribute<R: CryptoRng + ?Sized>(
        &mut self,
        user: &mut UserAgent,
        attribute: &str,
        attribute_key: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<KeyId, WireError> {
        let (session, request) =
            AttributeIssueSession::begin(user, attribute, attribute_key, self.epoch, rng)?;
        match self.call(WireRequest::AttributeIssue(request))? {
            WireResponse::AttributeIssue(resp) => Ok(session.finish(user, &resp)?),
            other => Err(unexpected("attribute-issue", other)),
        }
    }

    /// Anonymous purchase over the wire: catalog quote, coin withdrawal
    /// (client ↔ mint, off this wire), purchase round trip. A failure
    /// settles the coin as [`PurchaseSession`] describes; when the outcome
    /// is unknown the request is kept on `user`, and purchasing the same
    /// item again resends it.
    pub fn purchase<R: CryptoRng + ?Sized>(
        &mut self,
        user: &mut UserAgent,
        mint: &Mint,
        content_id: ContentId,
        rng: &mut R,
    ) -> Result<License, WireError> {
        let meta = self.content_meta(content_id)?;
        let (session, request) = PurchaseSession::begin(user, mint, &meta, rng)?;
        let outcome = self.call(WireRequest::Purchase(request));
        session.settle(user, outcome)
    }

    /// Resends every unsettled purchase kept on `user` (see
    /// [`PurchaseSession`]); one outcome per request, in the order they
    /// were kept. Requests that fail again without a definite answer
    /// stay kept.
    pub fn settle(&mut self, user: &mut UserAgent) -> Vec<Result<License, WireError>> {
        let items: Vec<ContentId> = user.unsettled().iter().map(|r| r.content_id).collect();
        let mut out = Vec::with_capacity(items.len());
        for content in items {
            if let Some((session, request)) = PurchaseSession::resume(user, &content) {
                let outcome = self.call(WireRequest::Purchase(request));
                out.push(session.settle(user, outcome));
            }
        }
        out
    }

    /// Pipelines several anonymous purchases on one connection: all
    /// sessions begin (each withdrawing its own covering coin), all
    /// requests are submitted, and replies settle **as they arrive**,
    /// possibly out of order. Returns one outcome per content id, in
    /// input order. Each session settles its coin exactly as
    /// [`WireClient::purchase`] does, including a channel failure that
    /// leaves several in-flight sessions without an answer at once.
    pub fn purchase_many<R: CryptoRng + ?Sized>(
        &mut self,
        user: &mut UserAgent,
        mint: &Mint,
        content_ids: &[ContentId],
        rng: &mut R,
    ) -> Vec<Result<License, WireError>> {
        // One catalog round trip quotes every item.
        let catalog = match self.catalog() {
            Ok(items) => items,
            Err(e) => {
                // No session began, no coin moved: fail every slot with
                // a fresh lookup attempt's error shape.
                let mut out = Vec::with_capacity(content_ids.len());
                out.push(Err(e));
                for _ in 1..content_ids.len() {
                    out.push(Err(WireError::Api(ApiError::new(
                        ApiErrorCode::ServiceUnavailable,
                        "catalog quote failed; purchase not attempted",
                    ))));
                }
                return out;
            }
        };
        let mut results: Vec<Option<Result<License, WireError>>> =
            (0..content_ids.len()).map(|_| None).collect();
        let mut sessions: std::collections::HashMap<u64, (usize, PurchaseSession)> =
            std::collections::HashMap::new();
        for (slot, cid) in content_ids.iter().enumerate() {
            let Some(meta) = catalog.iter().find(|m| m.id == *cid) else {
                // lint: allow(panic, slot enumerates content_ids and results has one slot per id)
                results[slot] = Some(Err(WireError::Api(ApiError::new(
                    ApiErrorCode::UnknownContent,
                    format!("unknown content {cid}"),
                ))));
                continue;
            };
            let (session, request) = match PurchaseSession::begin(user, mint, meta, rng) {
                Ok(pair) => pair,
                Err(e) => {
                    // lint: allow(panic, slot enumerates content_ids and results has one slot per id)
                    results[slot] = Some(Err(WireError::Client(e)));
                    continue;
                }
            };
            let sent = self.next_corr();
            let envelope = RequestEnvelope {
                correlation_id: sent,
                body: WireRequest::Purchase(request),
            };
            match self.transport.submit(sent, &envelope.to_bytes()) {
                Ok(()) => {
                    sessions.insert(sent, (slot, session));
                }
                Err(t) => {
                    // lint: allow(panic, slot enumerates content_ids and results has one slot per id)
                    results[slot] = Some(session.settle(user, Err(WireError::Transport(t))));
                }
            }
        }
        while !sessions.is_empty() {
            match self.transport.complete(None) {
                Ok(Some((corr, reply))) => {
                    let Some((slot, session)) = sessions.remove(&corr) else {
                        continue;
                    };
                    // lint: allow(panic, slot comes from sessions, which only holds valid slots)
                    results[slot] = Some(session.settle(user, Self::decode_reply(corr, &reply)));
                }
                Ok(None) => {
                    let err = TransportError::Broken(
                        "transport reported nothing in flight while replies were outstanding"
                            .to_string(),
                    );
                    for (_, (slot, session)) in sessions.drain() {
                        // lint: allow(panic, slot comes from sessions, which only holds valid slots)
                        results[slot] =
                            Some(session.settle(user, Err(WireError::Transport(err.clone()))));
                    }
                }
                Err(e) => {
                    for (_, (slot, session)) in sessions.drain() {
                        // lint: allow(panic, slot comes from sessions, which only holds valid slots)
                        results[slot] =
                            Some(session.settle(user, Err(WireError::Transport(e.clone()))));
                    }
                }
            }
        }
        results
            .into_iter()
            // lint: allow(panic, the completion loop above resolves every slot)
            .map(|r| r.expect("every slot resolved"))
            .collect()
    }

    /// Privacy-preserving transfer over the wire (both agents are local
    /// to this client — e.g. a marketplace app handling the hand-over).
    ///
    /// Local state moves only after a decoded success response. After a
    /// failure the sender still holds the license, and calling this again
    /// (with the recipient on the same pseudonym) resends the request: if
    /// the provider committed the first attempt it answers with the
    /// successor it issued then.
    pub fn transfer<R: CryptoRng + ?Sized>(
        &mut self,
        sender: &mut UserAgent,
        recipient: &mut UserAgent,
        license_id: LicenseId,
        _rng: &mut R,
    ) -> Result<License, WireError> {
        let owned = sender
            .license(&license_id)
            .ok_or(CoreError::UnknownLicense(license_id))?
            .clone();
        let recipient_cert = recipient
            .current_pseudonym()
            .ok_or(CoreError::BadPseudonym("recipient has no usable pseudonym"))?
            .clone();
        let proof_bytes = transfer_proof_bytes(&license_id, &recipient_cert.pseudonym_id());
        let proof = sender
            .card
            .sign_with_pseudonym(&owned.pseudonym, &proof_bytes)?;
        let recipient_pseudonym = recipient_cert.pseudonym_id();
        let request = TransferRequest {
            license: owned.license,
            recipient_cert,
            proof,
        };
        match self.call(WireRequest::Transfer(request))? {
            WireResponse::Transfer(resp) => {
                sender.remove_license(&license_id);
                recipient.note_pseudonym_use();
                recipient.add_license(resp.license.clone(), recipient_pseudonym);
                Ok(resp.license)
            }
            other => Err(unexpected("transfer", other)),
        }
    }

    /// Queries the provider's authoritative status of a license id.
    pub fn license_status(&mut self, license_id: LicenseId) -> Result<LicenseStatus, WireError> {
        match self.call(WireRequest::LicenseStatus(LicenseStatusRequest {
            license_id,
        }))? {
            WireResponse::LicenseStatus(resp) => Ok(resp.status),
            other => Err(unexpected("license-status", other)),
        }
    }

    /// Plays a license on a device: the challenge/proof/key-release
    /// rounds run locally between device and card, only the anonymous
    /// download crosses the wire.
    pub fn play<SD: ConcurrentKv, R: CryptoRng + ?Sized>(
        &mut self,
        user: &UserAgent,
        device: &mut CompliantDevice<SD>,
        license: &License,
        rng: &mut R,
    ) -> Result<Vec<u8>, WireError> {
        let now = self.server_now()?;
        let (session, request) = PlaySession::begin(user, device, license, now, rng)?;
        match self.call(WireRequest::Download(request))? {
            WireResponse::Download(resp) => Ok(session.finish(device, &resp)?),
            other => Err(unexpected("download", other)),
        }
    }

    /// Synchronizes the device's CRLs from the service.
    pub fn sync_crls<SD: ConcurrentKv>(
        &mut self,
        device: &mut CompliantDevice<SD>,
    ) -> Result<(), WireError> {
        let request = CrlSyncRequest {
            license_seq: device.crl_sequence(),
            pseudonym_seq: 0,
        };
        match self.call(WireRequest::CrlSync(request))? {
            WireResponse::CrlSync(resp) => {
                self.now_hint = Some(resp.license_crl.issued_at);
                device.sync_crls(&resp.license_crl, &resp.pseudonym_crl)?;
                Ok(())
            }
            other => Err(unexpected("crl-sync", other)),
        }
    }

    /// Fetches the provider's unified metrics snapshot (requires the
    /// server's `metrics_dump` opt-in; otherwise answers
    /// [`ApiErrorCode::ServiceUnavailable`]). Convert with
    /// [`snapshot_from_dump`] for text/JSON exposition.
    pub fn metrics_dump(&mut self) -> Result<MetricsDumpResponse, WireError> {
        match self.call(WireRequest::MetricsDump(MetricsDumpRequest {}))? {
            WireResponse::MetricsDump(resp) => Ok(resp),
            other => Err(unexpected("metrics-dump", other)),
        }
    }

    /// The server clock, learned from the `issued_at` stamp of a signed
    /// CRL (cached after the first probe; the paper's devices sync CRLs
    /// anyway, so this costs nothing extra in practice).
    fn server_now(&mut self) -> Result<u64, WireError> {
        if let Some(now) = self.now_hint {
            return Ok(now);
        }
        match self.call(WireRequest::CrlSync(CrlSyncRequest {
            license_seq: 0,
            pseudonym_seq: 0,
        }))? {
            WireResponse::CrlSync(resp) => {
                self.now_hint = Some(resp.license_crl.issued_at);
                Ok(resp.license_crl.issued_at)
            }
            other => Err(unexpected("crl-sync", other)),
        }
    }
}

fn unexpected(expected: &'static str, got: WireResponse) -> WireError {
    match got {
        WireResponse::Error(e) => WireError::Api(e),
        other => WireError::UnexpectedResponse {
            expected,
            got: other.label(),
        },
    }
}

// ---------------------------------------------------------------------------
// Client-side session state machines
// ---------------------------------------------------------------------------

/// Client half of blind pseudonym issuance.
///
/// `begin` (card builds body + escrow, blinds, authenticates) →
/// *wire round trip* → `finish` (unblind, self-check, store).
pub struct PseudonymIssueSession {
    body: PseudonymCertBody,
    blinded: Blinded,
}

impl PseudonymIssueSession {
    /// Card-side first round: returns the session and the request to
    /// send.
    pub fn begin<R: CryptoRng + ?Sized>(
        user: &mut UserAgent,
        ra_blind_key: &RsaPublicKey,
        ttp_key: &ElGamalPublicKey,
        epoch: u32,
        rng: &mut R,
    ) -> Result<(Self, PseudonymIssueRequest), CoreError> {
        let body = user.card.begin_pseudonym(ttp_key, epoch, rng)?;
        let blinded = Blinded::new(ra_blind_key, &body.signing_bytes(), rng)?;
        let auth_sig =
            user.card
                .sign_with_master(&crate::protocol::messages::pseudonym_auth_bytes(
                    &user.card.card_id(),
                    &blinded.blinded,
                ))?;
        let request = PseudonymIssueRequest {
            card_id: user.card.card_id(),
            card_cert: user.card.master_cert().clone(),
            blinded: blinded.blinded.clone(),
            auth_sig,
        };
        Ok((PseudonymIssueSession { body, blinded }, request))
    }

    /// Card-side final round: unblind the RA's signature, verify the
    /// resulting certificate, store it on the agent.
    pub fn finish(
        self,
        user: &mut UserAgent,
        ra_blind_key: &RsaPublicKey,
        response: &PseudonymIssueResponse,
    ) -> Result<KeyId, CoreError> {
        let signature = self.blinded.unblind(ra_blind_key, &response.blind_sig)?;
        let cert = PseudonymCertificate {
            body: self.body,
            signature,
        };
        cert.verify(ra_blind_key)
            .map_err(|_| CoreError::BadPseudonym("unblinded signature invalid"))?;
        let id = cert.pseudonym_id();
        user.add_pseudonym(cert);
        Ok(id)
    }
}

/// Client half of blind attribute issuance (binds to the current
/// pseudonym).
pub struct AttributeIssueSession {
    attribute: String,
    attribute_key: RsaPublicKey,
    body: AttributeCertBody,
    blinded: Blinded,
}

impl AttributeIssueSession {
    /// Card-side first round.
    pub fn begin<R: CryptoRng + ?Sized>(
        user: &mut UserAgent,
        attribute: &str,
        attribute_key: &RsaPublicKey,
        epoch: u32,
        rng: &mut R,
    ) -> Result<(Self, AttributeIssueRequest), CoreError> {
        let pseudonym_cert = user
            .current_pseudonym()
            .ok_or(CoreError::BadPseudonym("no usable pseudonym to bind to"))?;
        let body = AttributeCertBody {
            pseudonym_key: pseudonym_cert.body.pseudonym_key.clone(),
            epoch,
        };
        let blinded = Blinded::new(attribute_key, &body.signing_bytes(), rng)?;
        let auth_sig =
            user.card
                .sign_with_master(&crate::protocol::messages::attribute_auth_bytes(
                    &user.card.card_id(),
                    attribute,
                    &blinded.blinded,
                ))?;
        let request = AttributeIssueRequest {
            card_id: user.card.card_id(),
            card_cert: user.card.master_cert().clone(),
            attribute: attribute.to_string(),
            blinded: blinded.blinded.clone(),
            auth_sig,
        };
        Ok((
            AttributeIssueSession {
                attribute: attribute.to_string(),
                attribute_key: attribute_key.clone(),
                body,
                blinded,
            },
            request,
        ))
    }

    /// Card-side final round.
    pub fn finish(
        self,
        user: &mut UserAgent,
        response: &AttributeIssueResponse,
    ) -> Result<KeyId, CoreError> {
        let signature = self
            .blinded
            .unblind(&self.attribute_key, &response.blind_sig)?;
        let cert = p2drm_pki::cert::AttributeCertificate {
            attribute: self.attribute,
            body: self.body,
            signature,
        };
        cert.verify(&self.attribute_key)
            .map_err(|_| CoreError::BadPseudonym("unblinded attribute signature invalid"))?;
        let id = cert.pseudonym_id();
        user.add_attribute_cert(cert);
        Ok(id)
    }
}

/// Client half of an anonymous purchase: quote → pay (coin withdrawal
/// with the mint) → request → settle, over the wire or in process
/// ([`crate::protocol::purchase()`]).
///
/// A purchase that gets no license settles its coin by what the answer
/// proves. A payment refusal drops the coin (the mint rejected it or
/// already holds it). A refusal from the provider's purchase checks
/// returns it to the wallet: the provider answers a replay of a
/// committed request before any check, so such a refusal means no
/// attempt deposited it. Any other outcome — a refusal before dispatch
/// (busy, envelope), a storage failure, or no decodable answer — may
/// follow an earlier attempt that committed, so the request is kept on
/// the agent ([`UserAgent::keep_unsettled`]) and the next `begin` for
/// the same item resends it. The provider answers a resent request with
/// the license its first attempt issued, so resending never pays twice.
pub struct PurchaseSession {
    request: PurchaseRequest,
}

impl PurchaseSession {
    /// Builds the purchase request from a catalog quote: attaches the
    /// current pseudonym, a covering coin, and the attribute credential
    /// when the item demands one — or, when an unsettled request for the
    /// item is kept on the agent, resumes that one.
    pub fn begin<R: CryptoRng + ?Sized>(
        user: &mut UserAgent,
        mint: &Mint,
        meta: &ContentMeta,
        rng: &mut R,
    ) -> Result<(Self, PurchaseRequest), CoreError> {
        if let Some(resumed) = Self::resume(user, &meta.id) {
            return Ok(resumed);
        }
        let pseudonym_cert = user
            .current_pseudonym()
            .ok_or(CoreError::BadPseudonym("no usable pseudonym (policy)"))?
            .clone();
        let attribute_cert = match &meta.required_attribute {
            None => None,
            Some(attr) => Some(
                user.attribute_cert_for(&pseudonym_cert.pseudonym_id(), attr)
                    .ok_or(CoreError::BadPseudonym(
                        "attribute credential required but not held for this pseudonym",
                    ))?
                    .clone(),
            ),
        };
        let account = user.account.clone();
        let coin = user
            .wallet
            .coin_for_amount(mint, &account, meta.price, rng)?;
        let request = PurchaseRequest {
            content_id: meta.id,
            pseudonym_cert,
            coin,
            attribute_cert,
        };
        Ok((
            PurchaseSession {
                request: request.clone(),
            },
            request,
        ))
    }

    /// Takes the unsettled request for `content` off the agent to resend.
    fn resume(user: &mut UserAgent, content: &ContentId) -> Option<(Self, PurchaseRequest)> {
        let request = user.take_unsettled(content)?;
        Some((
            PurchaseSession {
                request: request.clone(),
            },
            request,
        ))
    }

    /// Settles a successful purchase: bookkeeping on the agent, returns
    /// the license.
    pub fn finish(self, user: &mut UserAgent, response: PurchaseResponse) -> License {
        user.note_pseudonym_use();
        user.add_license(
            response.license.clone(),
            self.request.pseudonym_cert.pseudonym_id(),
        );
        response.license
    }

    /// Settles a purchase that got no license. `refusal` is the
    /// provider's decoded error code, `None` when no decodable answer
    /// came back.
    pub fn abort(self, user: &mut UserAgent, refusal: Option<ApiErrorCode>) {
        use ApiErrorCode::*;
        match refusal {
            Some(code) if code.is_payment() => {}
            None
            | Some(
                MalformedRequest | UnsupportedVersion | UnknownOpcode | ServiceUnavailable
                | Storage | Internal | Unrecognized(_),
            ) => user.keep_unsettled(self.request),
            Some(_) => user.wallet.put_back(self.request.coin),
        }
    }

    /// Settles the session from the outcome of its round trip.
    fn settle(
        self,
        user: &mut UserAgent,
        outcome: Result<WireResponse, WireError>,
    ) -> Result<License, WireError> {
        let err = match outcome {
            Ok(WireResponse::Purchase(resp)) => return Ok(self.finish(user, resp)),
            Ok(other) => unexpected("purchase", other),
            Err(e) => e,
        };
        let refusal = match &err {
            WireError::Api(e) => Some(e.code),
            _ => None,
        };
        self.abort(user, refusal);
        Err(err)
    }
}

/// Client half of play: the device↔card challenge/proof/key-release
/// rounds run locally in `begin`; the provider only ever sees the
/// anonymous [`DownloadRequest`], and `finish` decrypts + consumes.
pub struct PlaySession {
    content_key: [u8; 32],
    license: License,
    access: AccessRequest,
}

impl PlaySession {
    /// Local rounds: holder challenge, card proof, device compliance
    /// check, key release. Returns the single message that crosses the
    /// wire.
    pub fn begin<SD: ConcurrentKv, R: CryptoRng + ?Sized>(
        user: &UserAgent,
        device: &mut CompliantDevice<SD>,
        license: &License,
        now: u64,
        rng: &mut R,
    ) -> Result<(Self, DownloadRequest), CoreError> {
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

        let nonce = device.make_challenge(rng);
        let proof_sig = user
            .card
            .sign_with_pseudonym(&owned.pseudonym, &challenge_message(&nonce, &license.id()))?;
        let access = AccessRequest::play(now, device.binding_id());
        device.check_access(license, Some(pseudonym_cert), &nonce, &proof_sig, &access)?;
        let sealed = user.card.unwrap_and_reseal(
            &owned.pseudonym,
            &license.body.key_envelope,
            device.public_key(),
            rng,
        )?;
        let content_key = device.open_sealed_key(&sealed)?;
        Ok((
            PlaySession {
                content_key,
                license: license.clone(),
                access,
            },
            DownloadRequest {
                content_id: license.body.content_id,
            },
        ))
    }

    /// Decrypts the downloaded payload and consumes the play on the
    /// device.
    pub fn finish<SD: ConcurrentKv>(
        self,
        device: &mut CompliantDevice<SD>,
        response: &DownloadResponse,
    ) -> Result<Vec<u8>, CoreError> {
        let payload = crate::content::decrypt_payload(
            &self.content_key,
            &response.nonce,
            &response.ciphertext,
        );
        device.consume(&self.license, &self.access)?;
        Ok(payload)
    }
}
