//! Revocation lists.
//!
//! The paper's double-redemption and abuse-revocation mechanisms make
//! revocation checks the hottest read path in a provider/device:
//! [`RevocationList`] is a sorted vector probed by binary search
//! (`O(log n)`, exact).

use crate::cert::KeyId;
use p2drm_codec::{Decode, Encode, Reader, Writer};
use p2drm_crypto::rsa::{RsaPublicKey, RsaSignature};

/// Exact revocation list: sorted ids, binary-searched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RevocationList {
    ids: Vec<KeyId>,
}

impl RevocationList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from arbitrary-order ids (sorts and dedups).
    pub fn from_ids(mut ids: Vec<KeyId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        RevocationList { ids }
    }

    /// Adds an id (keeps order; no-op when present).
    pub fn insert(&mut self, id: KeyId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }

    /// Exact membership test.
    pub fn contains(&self, id: &KeyId) -> bool {
        self.ids.binary_search(id).is_ok()
    }

    /// Linear-scan membership: the test oracle for [`Self::contains`].
    pub fn contains_linear(&self, id: &KeyId) -> bool {
        self.ids.iter().any(|x| x == id)
    }

    /// Number of revoked ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is revoked.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates ids in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &KeyId> {
        self.ids.iter()
    }
}

impl Encode for RevocationList {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(&self.ids);
    }
}

impl Decode for RevocationList {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(RevocationList::from_ids(r.get_seq()?))
    }
}

/// A CRL signed by its issuing authority, with a sequence number so relying
/// parties can require freshness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedCrl {
    /// Issuer key id.
    pub issuer: KeyId,
    /// Monotonic sequence number.
    pub sequence: u64,
    /// Issuance time (unix seconds).
    pub issued_at: u64,
    /// The list itself.
    pub list: RevocationList,
    /// Issuer signature over the canonical encoding of the above.
    pub signature: RsaSignature,
}

impl SignedCrl {
    fn payload_bytes(
        issuer: &KeyId,
        sequence: u64,
        issued_at: u64,
        list: &RevocationList,
    ) -> Vec<u8> {
        let mut w = Writer::new();
        issuer.encode(&mut w);
        w.put_u64(sequence);
        w.put_u64(issued_at);
        list.encode(&mut w);
        w.into_bytes()
    }

    /// Creates and signs a CRL with the issuer keypair.
    pub fn create(
        issuer_kp: &p2drm_crypto::rsa::RsaKeyPair,
        sequence: u64,
        issued_at: u64,
        list: RevocationList,
    ) -> Self {
        let issuer = KeyId::of_rsa(issuer_kp.public());
        let payload = Self::payload_bytes(&issuer, sequence, issued_at, &list);
        SignedCrl {
            issuer,
            sequence,
            issued_at,
            signature: issuer_kp.sign(&payload),
            list,
        }
    }

    /// Verifies issuer signature.
    pub fn verify(&self, issuer_key: &RsaPublicKey) -> Result<(), crate::PkiError> {
        if KeyId::of_rsa(issuer_key) != self.issuer {
            return Err(crate::PkiError::UnknownIssuer);
        }
        let payload = Self::payload_bytes(&self.issuer, self.sequence, self.issued_at, &self.list);
        issuer_key
            .verify(&payload, &self.signature)
            .map_err(|_| crate::PkiError::BadSignature)
    }
}

impl Encode for SignedCrl {
    fn encode(&self, w: &mut Writer) {
        self.issuer.encode(w);
        w.put_u64(self.sequence);
        w.put_u64(self.issued_at);
        self.list.encode(w);
        self.signature.encode(w);
    }
}

impl Decode for SignedCrl {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(SignedCrl {
            issuer: KeyId::decode(r)?,
            sequence: r.get_u64()?,
            issued_at: r.get_u64()?,
            list: RevocationList::decode(r)?,
            signature: RsaSignature::decode(r)?,
        })
    }
}

/// A signed incremental CRL update: everything revoked between two
/// sequence numbers. Devices that already hold sequence `from_sequence`
/// apply the delta instead of re-downloading the full list — O(changes)
/// instead of O(revoked) bandwidth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedCrlDelta {
    /// Issuer key id.
    pub issuer: KeyId,
    /// Sequence the recipient must already hold.
    pub from_sequence: u64,
    /// Sequence after applying.
    pub to_sequence: u64,
    /// Issuance time.
    pub issued_at: u64,
    /// Ids revoked in `(from_sequence, to_sequence]`.
    pub added: Vec<KeyId>,
    /// Issuer signature over the canonical encoding of the above.
    pub signature: RsaSignature,
}

impl SignedCrlDelta {
    fn payload_bytes(
        issuer: &KeyId,
        from_sequence: u64,
        to_sequence: u64,
        issued_at: u64,
        added: &[KeyId],
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(b"p2drm-crl-delta");
        issuer.encode(&mut w);
        w.put_u64(from_sequence);
        w.put_u64(to_sequence);
        w.put_u64(issued_at);
        w.put_seq(added);
        w.into_bytes()
    }

    /// Creates and signs a delta.
    pub fn create(
        issuer_kp: &p2drm_crypto::rsa::RsaKeyPair,
        from_sequence: u64,
        to_sequence: u64,
        issued_at: u64,
        mut added: Vec<KeyId>,
    ) -> Self {
        added.sort_unstable();
        added.dedup();
        let issuer = KeyId::of_rsa(issuer_kp.public());
        let payload = Self::payload_bytes(&issuer, from_sequence, to_sequence, issued_at, &added);
        SignedCrlDelta {
            issuer,
            from_sequence,
            to_sequence,
            issued_at,
            signature: issuer_kp.sign(&payload),
            added,
        }
    }

    /// Verifies the issuer signature.
    pub fn verify(&self, issuer_key: &RsaPublicKey) -> Result<(), crate::PkiError> {
        if KeyId::of_rsa(issuer_key) != self.issuer {
            return Err(crate::PkiError::UnknownIssuer);
        }
        let payload = Self::payload_bytes(
            &self.issuer,
            self.from_sequence,
            self.to_sequence,
            self.issued_at,
            &self.added,
        );
        issuer_key
            .verify(&payload, &self.signature)
            .map_err(|_| crate::PkiError::BadSignature)
    }

    /// Applies onto `list` if the recipient's `current_sequence` lines up
    /// (no gaps, no replays). Returns the new sequence.
    pub fn apply(
        &self,
        list: &mut RevocationList,
        current_sequence: u64,
    ) -> Result<u64, crate::PkiError> {
        if self.from_sequence != current_sequence || self.to_sequence < self.from_sequence {
            return Err(crate::PkiError::UnknownIssuer); // sequence mismatch
        }
        for id in &self.added {
            list.insert(*id);
        }
        Ok(self.to_sequence)
    }
}

impl Encode for SignedCrlDelta {
    fn encode(&self, w: &mut Writer) {
        self.issuer.encode(w);
        w.put_u64(self.from_sequence);
        w.put_u64(self.to_sequence);
        w.put_u64(self.issued_at);
        w.put_seq(&self.added);
        self.signature.encode(w);
    }
}

impl Decode for SignedCrlDelta {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(SignedCrlDelta {
            issuer: KeyId::decode(r)?,
            from_sequence: r.get_u64()?,
            to_sequence: r.get_u64()?,
            issued_at: r.get_u64()?,
            added: r.get_seq()?,
            signature: RsaSignature::decode(r)?,
        })
    }
}

/// Outcome of [`verify_crl_batch`]: which inputs failed, if any.
///
/// Indices count CRLs first, then deltas, in input order — so with
/// `crls.len() == c`, index `c + j` names `deltas[j]`. Valid items in the
/// same batch are unaffected by their neighbours' failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrlBatchOutcome {
    /// Indices of the failing items (empty = everything verified).
    pub rejected: Vec<usize>,
}

impl CrlBatchOutcome {
    /// True when every envelope in the batch verified.
    pub fn all_valid(&self) -> bool {
        self.rejected.is_empty()
    }

    /// Collapses to the classic per-item result shape.
    pub fn into_result(self) -> Result<(), crate::PkiError> {
        if self.all_valid() {
            Ok(())
        } else {
            Err(crate::PkiError::BadSignature)
        }
    }
}

/// Verifies a set of full CRLs and CRL deltas under one issuer key with a
/// single batched signature check.
///
/// A device syncing a backlog of `k` deltas (or a CRL pair) pays roughly
/// one combined exponentiation instead of `k` — the payloads are distinct
/// (sequence numbers differ), so the screening batch
/// ([`p2drm_crypto::batch::screen_batch`]) applies directly. A failing
/// envelope is isolated by the batch verifier's binary-split fallback and
/// reported by index; every other envelope is still accepted.
///
/// Issuer-id mismatches are rejected before any signature work, exactly
/// like the individual `verify` methods.
pub fn verify_crl_batch(
    issuer_key: &RsaPublicKey,
    crls: &[&SignedCrl],
    deltas: &[&SignedCrlDelta],
) -> CrlBatchOutcome {
    let id = KeyId::of_rsa(issuer_key);
    let mut rejected = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(crls.len() + deltas.len());
    let mut sigs: Vec<&RsaSignature> = Vec::with_capacity(crls.len() + deltas.len());
    let mut indices: Vec<usize> = Vec::with_capacity(crls.len() + deltas.len());
    for (i, crl) in crls.iter().enumerate() {
        if crl.issuer != id {
            rejected.push(i);
            continue;
        }
        payloads.push(SignedCrl::payload_bytes(
            &crl.issuer,
            crl.sequence,
            crl.issued_at,
            &crl.list,
        ));
        sigs.push(&crl.signature);
        indices.push(i);
    }
    for (j, delta) in deltas.iter().enumerate() {
        if delta.issuer != id {
            rejected.push(crls.len() + j);
            continue;
        }
        payloads.push(SignedCrlDelta::payload_bytes(
            &delta.issuer,
            delta.from_sequence,
            delta.to_sequence,
            delta.issued_at,
            &delta.added,
        ));
        sigs.push(&delta.signature);
        indices.push(crls.len() + j);
    }
    let items: Vec<(&[u8], &RsaSignature)> = payloads.iter().map(Vec::as_slice).zip(sigs).collect();
    let report = p2drm_crypto::batch::screen_batch(issuer_key, &items);
    rejected.extend(report.rejected.iter().map(|&slot| indices[slot]));
    rejected.sort_unstable();
    CrlBatchOutcome { rejected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::digest_id;
    use p2drm_crypto::rng::test_rng;
    use p2drm_crypto::rsa::RsaKeyPair;

    fn id(i: u64) -> KeyId {
        digest_id(&i.to_le_bytes())
    }

    #[test]
    fn insert_contains_dedup() {
        let mut crl = RevocationList::new();
        assert!(crl.insert(id(1)));
        assert!(crl.insert(id(2)));
        assert!(!crl.insert(id(1)), "duplicate insert reports false");
        assert_eq!(crl.len(), 2);
        assert!(crl.contains(&id(1)));
        assert!(!crl.contains(&id(3)));
        assert_eq!(crl.contains_linear(&id(2)), crl.contains(&id(2)));
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let crl = RevocationList::from_ids(vec![id(5), id(1), id(5), id(3)]);
        assert_eq!(crl.len(), 3);
        let ids: Vec<_> = crl.iter().cloned().collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn binary_and_linear_agree() {
        let crl = RevocationList::from_ids((0..200).map(id).collect());
        for i in 0..400 {
            assert_eq!(crl.contains(&id(i)), crl.contains_linear(&id(i)), "i={i}");
        }
    }

    #[test]
    fn crl_codec_roundtrip() {
        let crl = RevocationList::from_ids((0..50).map(id).collect());
        let bytes = p2drm_codec::to_bytes(&crl);
        let back: RevocationList = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, crl);
    }

    #[test]
    fn signed_crl_verify_and_tamper() {
        let mut rng = test_rng(70);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let other = RsaKeyPair::generate(512, &mut rng);
        let crl = SignedCrl::create(&kp, 3, 1000, RevocationList::from_ids(vec![id(1)]));
        assert!(crl.verify(kp.public()).is_ok());
        assert!(crl.verify(other.public()).is_err());

        let mut tampered = crl.clone();
        tampered.list.insert(id(9));
        assert!(tampered.verify(kp.public()).is_err());

        let mut tampered = crl.clone();
        tampered.sequence += 1;
        assert!(tampered.verify(kp.public()).is_err());
    }

    #[test]
    fn crl_batch_accepts_valid_mixed_set() {
        let mut rng = test_rng(75);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let crl = SignedCrl::create(&kp, 1, 100, RevocationList::from_ids(vec![id(1)]));
        let deltas: Vec<SignedCrlDelta> = (0..6)
            .map(|s| SignedCrlDelta::create(&kp, s, s + 1, 200 + s, vec![id(10 + s)]))
            .collect();
        let delta_refs: Vec<&SignedCrlDelta> = deltas.iter().collect();
        let outcome = verify_crl_batch(kp.public(), &[&crl], &delta_refs);
        assert!(outcome.all_valid(), "{outcome:?}");
        assert!(outcome.into_result().is_ok());
    }

    #[test]
    fn crl_batch_pinpoints_tampered_delta() {
        let mut rng = test_rng(76);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let crl = SignedCrl::create(&kp, 1, 100, RevocationList::from_ids(vec![id(1)]));
        let mut deltas: Vec<SignedCrlDelta> = (0..5)
            .map(|s| SignedCrlDelta::create(&kp, s, s + 1, 200 + s, vec![id(10 + s)]))
            .collect();
        deltas[2].added.push(id(999)); // payload no longer matches sig
        let delta_refs: Vec<&SignedCrlDelta> = deltas.iter().collect();
        let outcome = verify_crl_batch(kp.public(), &[&crl], &delta_refs);
        // Index space: crl = 0, deltas start at 1 → tampered delta is 3.
        assert_eq!(outcome.rejected, vec![3], "{outcome:?}");
        assert_eq!(outcome.into_result(), Err(crate::PkiError::BadSignature));
    }

    #[test]
    fn crl_batch_rejects_wrong_issuer_without_exponentiation() {
        let mut rng = test_rng(77);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let other = RsaKeyPair::generate(512, &mut rng);
        let good = SignedCrl::create(&kp, 1, 100, RevocationList::new());
        let foreign = SignedCrl::create(&other, 1, 100, RevocationList::new());
        let outcome = verify_crl_batch(kp.public(), &[&good, &foreign], &[]);
        assert_eq!(outcome.rejected, vec![1], "{outcome:?}");
    }

    #[test]
    fn signed_crl_codec_roundtrip() {
        let mut rng = test_rng(71);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let crl = SignedCrl::create(
            &kp,
            1,
            5,
            RevocationList::from_ids((0..10).map(id).collect()),
        );
        let bytes = p2drm_codec::to_bytes(&crl);
        let back: SignedCrl = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, crl);
        assert!(back.verify(kp.public()).is_ok());
    }

    #[test]
    fn delta_apply_happy_path() {
        let mut rng = test_rng(72);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let mut device_list = RevocationList::from_ids(vec![id(1), id(2)]);
        let delta = SignedCrlDelta::create(&kp, 2, 4, 100, vec![id(3), id(4)]);
        assert!(delta.verify(kp.public()).is_ok());
        let new_seq = delta.apply(&mut device_list, 2).unwrap();
        assert_eq!(new_seq, 4);
        assert!(device_list.contains(&id(3)) && device_list.contains(&id(4)));
        assert_eq!(device_list.len(), 4);
    }

    #[test]
    fn delta_rejects_gaps_and_replays() {
        let mut rng = test_rng(73);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let delta = SignedCrlDelta::create(&kp, 2, 4, 100, vec![id(3)]);
        let mut list = RevocationList::new();
        // Device at seq 1: gap (would miss revocations between 1 and 2).
        assert!(delta.apply(&mut list, 1).is_err());
        // Device at seq 4: replay/stale.
        assert!(delta.apply(&mut list, 4).is_err());
        assert!(list.is_empty(), "failed apply must not mutate");
    }

    #[test]
    fn delta_tamper_detected() {
        let mut rng = test_rng(74);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let other = RsaKeyPair::generate(512, &mut rng);
        let delta = SignedCrlDelta::create(&kp, 0, 1, 5, vec![id(9)]);
        assert!(delta.verify(other.public()).is_err());
        let mut bad = delta.clone();
        bad.added.push(id(10));
        assert!(bad.verify(kp.public()).is_err());
        let mut bad = delta.clone();
        bad.to_sequence += 1;
        assert!(bad.verify(kp.public()).is_err());
    }

    #[test]
    fn delta_codec_roundtrip_and_dedup() {
        let mut rng = test_rng(75);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let delta = SignedCrlDelta::create(&kp, 0, 2, 5, vec![id(2), id(1), id(2)]);
        assert_eq!(delta.added.len(), 2, "creation dedups");
        let bytes = p2drm_codec::to_bytes(&delta);
        let back: SignedCrlDelta = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, delta);
        assert!(back.verify(kp.public()).is_ok());
    }

    #[test]
    fn full_sync_and_delta_chain_agree() {
        // Applying deltas 0->1->2 gives the same list as the full CRL at 2.
        let mut rng = test_rng(76);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let full = RevocationList::from_ids(vec![id(1), id(2), id(3)]);
        let d1 = SignedCrlDelta::create(&kp, 0, 1, 10, vec![id(1)]);
        let d2 = SignedCrlDelta::create(&kp, 1, 2, 20, vec![id(2), id(3)]);
        let mut list = RevocationList::new();
        let mut seq = 0;
        for d in [&d1, &d2] {
            d.verify(kp.public()).unwrap();
            seq = d.apply(&mut list, seq).unwrap();
        }
        assert_eq!(seq, 2);
        assert_eq!(list, full);
    }
}
