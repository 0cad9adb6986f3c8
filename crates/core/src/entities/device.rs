//! The compliant device: the enforcement point.
//!
//! A device renders content only after (1) the license verifies against the
//! provider key, (2) the holder pseudonym certificate verifies against the
//! RA blind key, (3) neither license nor pseudonym is revoked in the
//! device's synced CRLs, (4) the holder proves possession of the pseudonym
//! key (challenge–response via the smart card), and (5) the rights
//! expression permits the action given persisted per-license state.

use crate::ids::DeviceId;
use crate::license::License;
use crate::CoreError;
use p2drm_crypto::envelope::{self, Envelope};
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use p2drm_pki::authority::CertificateAuthority;
use p2drm_pki::cert::{Certificate, EntityKind, KeyId, PseudonymCertificate, SubjectKey, Validity};
use p2drm_pki::crl::{RevocationList, SignedCrl};
use p2drm_rel::{AccessRequest, Decision, RightsState};
use p2drm_store::typed::Table;
use p2drm_store::{ConcurrentKv, MemKv};

/// A compliant rendering device, generic over its state store.
pub struct CompliantDevice<S: ConcurrentKv = MemKv> {
    device_id: DeviceId,
    keys: RsaKeyPair,
    cert: Certificate,
    provider_key: RsaPublicKey,
    ra_blind_key: RsaPublicKey,
    store: S,
    states: Table<RightsState>,
    license_crl: RevocationList,
    pseudonym_crl: RevocationList,
    license_crl_seq: u64,
    pseudonym_crl_seq: u64,
}

impl CompliantDevice<MemKv> {
    /// Device with volatile rights-state storage.
    pub fn new<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        provider_cert: &Certificate,
        ra_blind_key: RsaPublicKey,
        key_bits: usize,
        validity: Validity,
        rng: &mut R,
    ) -> Result<Self, CoreError> {
        Self::with_store(
            root,
            provider_cert,
            ra_blind_key,
            MemKv::new(),
            key_bits,
            validity,
            rng,
        )
    }
}

impl<S: ConcurrentKv> CompliantDevice<S> {
    /// Device over a caller-supplied store (durable play counts: a
    /// one-shard [`p2drm_store::WalShardedKv`]).
    pub fn with_store<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        provider_cert: &Certificate,
        ra_blind_key: RsaPublicKey,
        store: S,
        key_bits: usize,
        validity: Validity,
        rng: &mut R,
    ) -> Result<Self, CoreError> {
        // The device trusts the root it was manufactured with; it accepts
        // the provider key only through a root-signed certificate.
        provider_cert.verify(root.public_key(), validity.from)?;
        let provider_key = provider_cert.body.subject_key.as_rsa()?.clone();
        let keys = RsaKeyPair::generate(key_bits, rng);
        let cert = root.issue(
            EntityKind::Device,
            SubjectKey::Rsa(keys.public().clone()),
            validity,
            vec![p2drm_pki::cert::Extension {
                key: "compliance".into(),
                value: vec![1],
            }],
        );
        Ok(CompliantDevice {
            device_id: DeviceId::random(rng),
            keys,
            cert,
            provider_key,
            ra_blind_key,
            store,
            states: Table::new("state/"),
            license_crl: RevocationList::new(),
            pseudonym_crl: RevocationList::new(),
            license_crl_seq: 0,
            pseudonym_crl_seq: 0,
        })
    }

    /// Device identifier.
    pub fn device_id(&self) -> DeviceId {
        self.device_id
    }

    /// Device id as the 32-byte form REL device bindings use.
    pub fn binding_id(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(self.device_id.as_bytes());
        out
    }

    /// Device public key (smart cards seal content keys to this).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.keys.public()
    }

    /// Compliance certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Ingests fresh full CRLs from the provider; sequence numbers must be
    /// non-decreasing (rollback protection).
    ///
    /// Both envelopes carry the same issuer, so their signatures are
    /// checked as one batch ([`p2drm_pki::crl::verify_crl_batch`]) — one
    /// combined exponentiation instead of two.
    pub fn sync_crls(
        &mut self,
        license_crl: &SignedCrl,
        pseudonym_crl: &SignedCrl,
    ) -> Result<(), CoreError> {
        p2drm_pki::crl::verify_crl_batch(&self.provider_key, &[license_crl, pseudonym_crl], &[])
            .into_result()?;
        if license_crl.sequence < self.license_crl_seq
            || pseudonym_crl.sequence < self.pseudonym_crl_seq
        {
            return Err(CoreError::BadLicense("stale CRL rejected"));
        }
        self.license_crl = license_crl.list.clone();
        self.pseudonym_crl = pseudonym_crl.list.clone();
        self.license_crl_seq = license_crl.sequence;
        self.pseudonym_crl_seq = pseudonym_crl.sequence;
        Ok(())
    }

    /// Applies an incremental license-CRL update (see
    /// [`p2drm_pki::crl::SignedCrlDelta`]); the delta must start exactly at
    /// the device's current sequence — gaps and replays are rejected.
    pub fn apply_license_crl_delta(
        &mut self,
        delta: &p2drm_pki::crl::SignedCrlDelta,
    ) -> Result<(), CoreError> {
        delta.verify(&self.provider_key)?;
        self.license_crl_seq = delta
            .apply(&mut self.license_crl, self.license_crl_seq)
            .map_err(|_| CoreError::BadLicense("CRL delta sequence mismatch"))?;
        Ok(())
    }

    /// Applies an incremental pseudonym-CRL update.
    pub fn apply_pseudonym_crl_delta(
        &mut self,
        delta: &p2drm_pki::crl::SignedCrlDelta,
    ) -> Result<(), CoreError> {
        delta.verify(&self.provider_key)?;
        self.pseudonym_crl_seq = delta
            .apply(&mut self.pseudonym_crl, self.pseudonym_crl_seq)
            .map_err(|_| CoreError::BadLicense("CRL delta sequence mismatch"))?;
        Ok(())
    }

    /// Applies a backlog of license-CRL deltas: all `k` signatures are
    /// verified in one batch ([`p2drm_pki::crl::verify_crl_batch`]), then
    /// the deltas are chained in order with the usual gap/replay checks.
    /// Nothing is applied unless every signature verifies and the whole
    /// chain lines up — a device catching up after being offline either
    /// lands exactly on the newest sequence or keeps its old state.
    pub fn apply_license_crl_deltas(
        &mut self,
        deltas: &[p2drm_pki::crl::SignedCrlDelta],
    ) -> Result<(), CoreError> {
        let (list, seq) = Self::batch_apply(
            &self.provider_key,
            deltas,
            &self.license_crl,
            self.license_crl_seq,
        )?;
        self.license_crl = list;
        self.license_crl_seq = seq;
        Ok(())
    }

    /// Pseudonym-CRL counterpart of [`Self::apply_license_crl_deltas`].
    pub fn apply_pseudonym_crl_deltas(
        &mut self,
        deltas: &[p2drm_pki::crl::SignedCrlDelta],
    ) -> Result<(), CoreError> {
        let (list, seq) = Self::batch_apply(
            &self.provider_key,
            deltas,
            &self.pseudonym_crl,
            self.pseudonym_crl_seq,
        )?;
        self.pseudonym_crl = list;
        self.pseudonym_crl_seq = seq;
        Ok(())
    }

    /// Batch-verifies `deltas` under `issuer`, then applies them to a copy
    /// of `list` starting at `seq`. All-or-nothing.
    fn batch_apply(
        issuer: &RsaPublicKey,
        deltas: &[p2drm_pki::crl::SignedCrlDelta],
        list: &p2drm_pki::RevocationList,
        seq: u64,
    ) -> Result<(p2drm_pki::RevocationList, u64), CoreError> {
        let refs: Vec<&p2drm_pki::crl::SignedCrlDelta> = deltas.iter().collect();
        p2drm_pki::crl::verify_crl_batch(issuer, &[], &refs).into_result()?;
        let mut staged = list.clone();
        let mut cursor = seq;
        for delta in deltas {
            cursor = delta
                .apply(&mut staged, cursor)
                .map_err(|_| CoreError::BadLicense("CRL delta sequence mismatch"))?;
        }
        Ok((staged, cursor))
    }

    /// Generates a holder challenge (fresh nonce).
    pub fn make_challenge<R: CryptoRng + ?Sized>(&self, rng: &mut R) -> [u8; 32] {
        let mut nonce = [0u8; 32];
        rng.fill_bytes(&mut nonce);
        nonce
    }

    /// Full compliance check for an access request, *without* consuming
    /// rights state. Returns the current state for inspection.
    pub fn check_access(
        &self,
        license: &License,
        pseudonym_cert: Option<&PseudonymCertificate>,
        challenge: &[u8; 32],
        challenge_sig: &RsaSignature,
        req: &AccessRequest,
    ) -> Result<RightsState, CoreError> {
        license.verify(&self.provider_key)?;
        if self
            .license_crl
            .contains(&crate::entities::provider::license_crl_id(&license.id()))
        {
            return Err(CoreError::Revoked("license"));
        }
        if let Some(cert) = pseudonym_cert {
            cert.verify(&self.ra_blind_key)
                .map_err(|_| CoreError::BadPseudonym("RA signature invalid"))?;
            if self.pseudonym_crl.contains(&cert.pseudonym_id()) {
                return Err(CoreError::Revoked("pseudonym"));
            }
            // License must be bound to this very pseudonym key.
            if KeyId::of_rsa(&license.body.holder) != cert.pseudonym_id() {
                return Err(CoreError::BadLicense("holder key mismatch"));
            }
        }
        // Holder proof: signature over (challenge ‖ license id).
        let proof_msg = challenge_message(challenge, &license.id());
        license
            .body
            .holder
            .verify(&proof_msg, challenge_sig)
            .map_err(|_| CoreError::BadProof)?;

        let state = self
            .states
            .get(&self.store, license.id().as_bytes())?
            .unwrap_or_default();
        match license.body.rights.evaluate(&state, req) {
            Decision::Permit => Ok(state),
            Decision::Deny(reason) => Err(CoreError::Denied(reason)),
        }
    }

    /// Consumes one use of `req.action` for the license, persisting state.
    pub fn consume(&mut self, license: &License, req: &AccessRequest) -> Result<(), CoreError> {
        let mut state = self
            .states
            .get(&self.store, license.id().as_bytes())?
            .unwrap_or_default();
        state.consume(req.action);
        self.states
            .put(&self.store, license.id().as_bytes(), &state)?;
        Ok(())
    }

    /// Unwraps a card-sealed content key with the device private key.
    pub fn open_sealed_key(&self, sealed: &Envelope) -> Result<[u8; 32], CoreError> {
        let key = envelope::open(&self.keys, sealed)?;
        key.as_slice()
            .try_into()
            .map_err(|_| CoreError::BadLicense("content key wrong length"))
    }

    /// Current persisted state for a license (testing/diagnostics).
    pub fn rights_state(&self, license: &License) -> Result<RightsState, CoreError> {
        Ok(self
            .states
            .get(&self.store, license.id().as_bytes())?
            .unwrap_or_default())
    }

    /// Highest license-CRL sequence synced.
    pub fn crl_sequence(&self) -> u64 {
        self.license_crl_seq
    }
}

/// The message a holder signs to prove presence: `challenge ‖ license id`.
pub fn challenge_message(challenge: &[u8; 32], lid: &crate::ids::LicenseId) -> Vec<u8> {
    let mut m = Vec::with_capacity(48 + 16);
    m.extend_from_slice(b"p2drm-holder-proof");
    m.extend_from_slice(challenge);
    m.extend_from_slice(lid.as_bytes());
    m
}
