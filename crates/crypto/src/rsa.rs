//! RSA from scratch: key generation, PKCS#1 v1.5 signatures (SHA-256),
//! OAEP encryption (SHA-256 + MGF1), and the raw trapdoor permutation used
//! by the blind-signature module.
//!
//! Private-key operations use the CRT with per-prime Montgomery contexts.

use crate::rng::CryptoRng;
use crate::sha256::{sha256, DIGEST_LEN};
use crate::CryptoError;
use p2drm_bignum::{modring, prime, Mont, UBig};
use p2drm_codec::{Decode, Encode, Reader, Writer};

/// The fixed public exponent (F4).
pub const PUBLIC_EXPONENT: u64 = 65537;

/// Miller-Rabin rounds used during key generation.
const MR_ROUNDS: usize = 16;

/// DER prefix of the SHA-256 `DigestInfo` used by PKCS#1 v1.5 signatures.
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key `(n, e)` with a cached Montgomery context.
#[derive(Clone, Debug)]
pub struct RsaPublicKey {
    n: UBig,
    e: UBig,
    mont: Mont,
    /// Memoized fingerprint, computed on first use and shared across
    /// clones — key ids are taken of the same key all over the hot path
    /// (CRL checks, purchase logs, verification-cache keys).
    fp: std::sync::Arc<std::sync::OnceLock<[u8; DIGEST_LEN]>>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl RsaPublicKey {
    /// Builds from raw parameters (modulus must be odd).
    pub fn new(n: UBig, e: UBig) -> Result<Self, CryptoError> {
        if n.is_even() || n.bit_len() < 64 {
            return Err(CryptoError::BadKey("modulus must be odd and >= 64 bits"));
        }
        let mont = Mont::new(&n).map_err(|_| CryptoError::BadKey("bad modulus"))?;
        Ok(RsaPublicKey {
            n,
            e,
            mont,
            fp: std::sync::Arc::new(std::sync::OnceLock::new()),
        })
    }

    /// The modulus.
    pub fn modulus(&self) -> &UBig {
        &self.n
    }

    /// The public exponent.
    pub fn exponent(&self) -> &UBig {
        &self.e
    }

    /// Modulus size in whole bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Raw RSA public operation `x^e mod n`.
    ///
    /// Small public exponents (everything that fits a machine word, i.e.
    /// every real-world `e` including F4) take the dedicated
    /// [`Mont::pow_u64`] path: plain square-and-multiply with no window
    /// table, which for the sparse `e = 65537` is 16 squarings and one
    /// multiplication — the fast verify path.
    pub fn raw_public(&self, x: &UBig) -> UBig {
        match self.e.to_u64() {
            Some(e) => self.mont.pow_u64(x, e),
            None => self.mont.pow(x, &self.e),
        }
    }

    /// The key's Montgomery context (shared with the batch verifier so
    /// batched checks stay in this ring without rebuilding the context).
    pub(crate) fn mont(&self) -> &Mont {
        &self.mont
    }

    /// SHA-256 fingerprint of the canonical encoding (used as a key id).
    /// Computed once per key and memoized (shared across clones).
    pub fn fingerprint(&self) -> [u8; DIGEST_LEN] {
        *self.fp.get_or_init(|| sha256(&p2drm_codec::to_bytes(self)))
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    pub fn verify(&self, message: &[u8], sig: &RsaSignature) -> Result<(), CryptoError> {
        if sig.s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let em = self.raw_public(&sig.s);
        let expect = emsa_pkcs1_v15(message, self.modulus_len())?;
        let got = em.to_bytes_be_padded(self.modulus_len());
        if crate::ct_eq(&got, &expect) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// OAEP-encrypts `plaintext` (SHA-256, empty label).
    pub fn encrypt_oaep<R: CryptoRng + ?Sized>(
        &self,
        plaintext: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if k < 2 * DIGEST_LEN + 2 || plaintext.len() > k - 2 * DIGEST_LEN - 2 {
            return Err(CryptoError::MessageTooLong);
        }
        // DB = lHash || PS || 0x01 || M
        let mut db = vec![0u8; k - DIGEST_LEN - 1];
        db[..DIGEST_LEN].copy_from_slice(&sha256(b""));
        let m_off = db.len() - plaintext.len();
        db[m_off - 1] = 0x01;
        db[m_off..].copy_from_slice(plaintext);

        let mut seed = vec![0u8; DIGEST_LEN];
        rng.fill_bytes(&mut seed);

        let db_mask = mgf1(&seed, db.len());
        for (b, m) in db.iter_mut().zip(db_mask.iter()) {
            *b ^= m;
        }
        let seed_mask = mgf1(&db, DIGEST_LEN);
        for (b, m) in seed.iter_mut().zip(seed_mask.iter()) {
            *b ^= m;
        }

        let mut em = Vec::with_capacity(k);
        em.push(0);
        em.extend_from_slice(&seed);
        em.extend_from_slice(&db);
        let m = UBig::from_bytes_be(&em);
        Ok(self.raw_public(&m).to_bytes_be_padded(k))
    }
}

impl Encode for RsaPublicKey {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.n.to_bytes_be());
        w.put_bytes(&self.e.to_bytes_be());
    }
}

impl Decode for RsaPublicKey {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let n = UBig::from_bytes_be(r.get_int_bytes()?);
        let e = UBig::from_bytes_be(r.get_int_bytes()?);
        RsaPublicKey::new(n, e).map_err(|_| p2drm_codec::CodecError::BadDiscriminant(0))
    }
}

/// An RSA signature (big-endian integer, held as [`UBig`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaSignature {
    pub(crate) s: UBig,
}

impl RsaSignature {
    /// Raw signature integer.
    pub fn as_ubig(&self) -> &UBig {
        &self.s
    }

    /// Builds from a raw integer (used by the blind-signature module).
    pub fn from_ubig(s: UBig) -> Self {
        RsaSignature { s }
    }

    /// Big-endian byte rendering.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.s.to_bytes_be()
    }
}

impl Encode for RsaSignature {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.s.to_bytes_be());
    }
}

impl Decode for RsaSignature {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(RsaSignature {
            s: UBig::from_bytes_be(r.get_int_bytes()?),
        })
    }
}

/// An RSA key pair with CRT acceleration.
#[derive(Clone, Debug)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: UBig,
    p: UBig,
    q: UBig,
    dp: UBig,
    dq: UBig,
    qinv: UBig,
    /// `qinv` held in Montgomery form mod `p`: the CRT recombination
    /// multiply `q⁻¹·(m₁ − m₂) mod p` is then a single Montgomery product
    /// instead of an enter/multiply/exit sequence.
    qinv_form: p2drm_bignum::MontForm,
    mont_p: Mont,
    mont_q: Mont,
}

impl RsaKeyPair {
    /// Generates a fresh key with modulus of `bits` bits (>= 128).
    ///
    /// Unit tests use 512; deployments 1024 or more.
    pub fn generate<R: CryptoRng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 128, "modulus below 128 bits is unusable");
        let e = UBig::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = prime::gen_prime_coprime(bits / 2, MR_ROUNDS, &e, rng);
            let q = prime::gen_prime_coprime(bits - bits / 2, MR_ROUNDS, &e, rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            let p1 = p.sub(&UBig::one());
            let q1 = q.sub(&UBig::one());
            let lambda = (&p1 * &q1).div_rem(&p1.gcd(&q1)).0;
            let d = match modring::inv_mod(&e, &lambda) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let qinv = modring::inv_mod(&q, &p).expect("p, q distinct primes");
            let mont_p = Mont::new(&p).expect("odd prime");
            let mont_q = Mont::new(&q).expect("odd prime");
            let qinv_form = mont_p.to_form(&qinv);
            let public = RsaPublicKey::new(n, e.clone()).expect("fresh modulus is valid");
            return RsaKeyPair {
                public,
                d,
                p,
                q,
                dp,
                dq,
                qinv,
                qinv_form,
                mont_p,
                mont_q,
            };
        }
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent `d` (exposed for key-escrow tests and for
    /// deriving per-key secrets; handle with care).
    pub fn private_exponent(&self) -> &UBig {
        &self.d
    }

    /// Raw RSA private operation `x^d mod n` via the CRT.
    pub fn raw_private(&self, x: &UBig) -> UBig {
        // lint: secret(dp, dq, p, q, qinv_form)
        let m1 = self.mont_p.pow(x, &self.dp);
        let m2 = self.mont_q.pow(x, &self.dq);
        // h = qinv * (m1 - m2) mod p: one Montgomery product, because
        // qinv is kept permanently in Montgomery form.
        let diff = modring::sub_mod(&m1, &m2, &self.p);
        let h = self.mont_p.form_mul_plain(&self.qinv_form, &diff);
        &m2 + &(&self.q * &h)
    }

    /// Signs `message` with PKCS#1 v1.5 / SHA-256.
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let em = emsa_pkcs1_v15(message, self.public.modulus_len())
            .expect("modulus always large enough for SHA-256 EM");
        let m = UBig::from_bytes_be(&em);
        let s = self.raw_private(&m);
        debug_assert_eq!(self.public.raw_public(&s), m, "CRT self-check");
        RsaSignature { s }
    }

    /// OAEP-decrypts `ciphertext`.
    pub fn decrypt_oaep(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k || k < 2 * DIGEST_LEN + 2 {
            return Err(CryptoError::BadCiphertext);
        }
        let c = UBig::from_bytes_be(ciphertext);
        if c >= *self.public.modulus() {
            return Err(CryptoError::BadCiphertext);
        }
        let em = self.raw_private(&c).to_bytes_be_padded(k); // lint: secret
        if em[0] != 0 {
            return Err(CryptoError::BadCiphertext);
        }
        let (seed_masked, db_masked) = em[1..].split_at(DIGEST_LEN);
        let mut seed = seed_masked.to_vec();
        let seed_mask = mgf1(db_masked, DIGEST_LEN);
        for (b, m) in seed.iter_mut().zip(seed_mask.iter()) {
            *b ^= m;
        }
        let mut db = db_masked.to_vec();
        let db_mask = mgf1(&seed, db.len());
        for (b, m) in db.iter_mut().zip(db_mask.iter()) {
            *b ^= m;
        }
        if !crate::ct_eq(&db[..DIGEST_LEN], &sha256(b"")) {
            return Err(CryptoError::BadCiphertext);
        }
        // Find the 0x01 separator after the zero padding.
        let rest = &db[DIGEST_LEN..];
        let sep = rest
            .iter()
            .position(|&b| b != 0)
            .ok_or(CryptoError::BadCiphertext)?;
        if rest[sep] != 0x01 {
            return Err(CryptoError::BadCiphertext);
        }
        Ok(rest[sep + 1..].to_vec())
    }
}

/// RSA-KEM encapsulation: returns `(ciphertext, shared_secret)`.
///
/// Works with any modulus size (unlike OAEP, which needs `k >= 66` bytes
/// with SHA-256), so it is what the protocols use to wrap content keys:
/// pick uniform `z < n`, send `z^e mod n`, derive the key from `z`.
pub fn kem_encapsulate<R: CryptoRng + ?Sized>(
    pk: &RsaPublicKey,
    rng: &mut R,
) -> (Vec<u8>, [u8; 32]) {
    let z = p2drm_bignum::rng::random_below(rng, pk.modulus());
    let c = pk.raw_public(&z).to_bytes_be_padded(pk.modulus_len());
    let shared = crate::kdf::derive_key32(
        b"p2drm-rsa-kem",
        &z.to_bytes_be_padded(pk.modulus_len()),
        b"kem",
    );
    (c, shared)
}

/// RSA-KEM decapsulation: recovers the shared secret from `ciphertext`.
pub fn kem_decapsulate(kp: &RsaKeyPair, ciphertext: &[u8]) -> Result<[u8; 32], CryptoError> {
    if ciphertext.len() != kp.public().modulus_len() {
        return Err(CryptoError::BadCiphertext);
    }
    let c = UBig::from_bytes_be(ciphertext);
    if c >= *kp.public().modulus() {
        return Err(CryptoError::BadCiphertext);
    }
    let z = kp.raw_private(&c);
    Ok(crate::kdf::derive_key32(
        b"p2drm-rsa-kem",
        &z.to_bytes_be_padded(kp.public().modulus_len()),
        b"kem",
    ))
}

impl Encode for RsaKeyPair {
    /// Serializes the full private key (all CRT components, avoiding
    /// recompute on load). **Handle the bytes as secrets.**
    fn encode(&self, w: &mut Writer) {
        self.public.encode(w);
        for part in [&self.d, &self.p, &self.q, &self.dp, &self.dq, &self.qinv] {
            w.put_bytes(&part.to_bytes_be());
        }
    }
}

impl Decode for RsaKeyPair {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let public = RsaPublicKey::decode(r)?;
        let mut parts = Vec::with_capacity(6);
        for _ in 0..6 {
            parts.push(UBig::from_bytes_be(r.get_int_bytes()?));
        }
        let [d, p, q, dp, dq, qinv]: [UBig; 6] = parts.try_into().expect("exactly six parts read");
        // Consistency checks: p*q must be the modulus, both factors odd.
        if &(&p * &q) != public.modulus() || p.is_even() || q.is_even() {
            return Err(p2drm_codec::CodecError::BadDiscriminant(2));
        }
        let mont_p = Mont::new(&p).map_err(|_| p2drm_codec::CodecError::BadDiscriminant(2))?;
        let mont_q = Mont::new(&q).map_err(|_| p2drm_codec::CodecError::BadDiscriminant(2))?;
        let qinv_form = mont_p.to_form(&qinv);
        Ok(RsaKeyPair {
            public,
            d,
            p,
            q,
            dp,
            dq,
            qinv,
            qinv_form,
            mont_p,
            mont_q,
        })
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(message) into `k` bytes.
pub(crate) fn emsa_pkcs1_v15(message: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let t_len = SHA256_DIGEST_INFO.len() + DIGEST_LEN;
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(&sha256(message));
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

/// MGF1 with SHA-256 (PKCS#1 appendix B.2.1).
pub fn mgf1(seed: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u32;
    while out.len() < len {
        let mut h = crate::sha256::Sha256::new();
        h.update(seed);
        h.update(&counter.to_be_bytes());
        let d = h.finalize();
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&d[..take]);
        counter += 1;
    }
    out
}

/// Full-domain hash of `message` into `[0, 2^(8(k-1)))` where `k` is the
/// modulus byte length — always a valid ring element. Used by blind
/// signatures, which sign hash *values* rather than padded digests.
pub fn fdh(message: &[u8], modulus_len: usize) -> UBig {
    debug_assert!(modulus_len > DIGEST_LEN);
    let bytes = mgf1(message, modulus_len - 1);
    UBig::from_bytes_be(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::test_rng;

    fn keypair() -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut test_rng(11))
    }

    /// OAEP with SHA-256 needs >= 66-byte moduli; cache one 1024-bit key.
    fn keypair1024() -> &'static RsaKeyPair {
        use std::sync::OnceLock;
        static KP: OnceLock<RsaKeyPair> = OnceLock::new();
        KP.get_or_init(|| RsaKeyPair::generate(1024, &mut test_rng(1101)))
    }

    #[test]
    fn generate_shapes() {
        let kp = keypair();
        assert_eq!(kp.public().modulus().bit_len(), 512);
        assert_eq!(kp.public().exponent().to_u64(), Some(PUBLIC_EXPONENT));
        assert_eq!(kp.public().modulus_len(), 64);
    }

    #[test]
    fn raw_roundtrip() {
        let kp = keypair();
        let x = UBig::from_u64(0xdead_beef_1234_5678);
        let c = kp.public().raw_public(&x);
        assert_eq!(kp.raw_private(&c), x);
        // and the other direction (sign-like)
        let s = kp.raw_private(&x);
        assert_eq!(kp.public().raw_public(&s), x);
    }

    #[test]
    fn sign_verify_and_reject() {
        let kp = keypair();
        let sig = kp.sign(b"the message");
        assert!(kp.public().verify(b"the message", &sig).is_ok());
        assert!(kp.public().verify(b"the messag3", &sig).is_err());
        // Tampered signature rejected.
        let bad = RsaSignature::from_ubig(sig.as_ubig() + &UBig::one());
        assert!(kp.public().verify(b"the message", &bad).is_err());
        // Signature >= n rejected outright.
        let huge = RsaSignature::from_ubig(kp.public().modulus().clone());
        assert!(kp.public().verify(b"the message", &huge).is_err());
    }

    #[test]
    fn signature_not_valid_under_other_key() {
        let kp1 = keypair();
        let kp2 = RsaKeyPair::generate(512, &mut test_rng(12));
        let sig = kp1.sign(b"msg");
        assert!(kp2.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn oaep_roundtrip_various_lengths() {
        let kp = keypair1024();
        let mut rng = test_rng(13);
        let max = kp.public().modulus_len() - 2 * DIGEST_LEN - 2;
        for len in [0usize, 1, 16, max] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = kp.public().encrypt_oaep(&pt, &mut rng).unwrap();
            assert_eq!(ct.len(), kp.public().modulus_len());
            assert_eq!(kp.decrypt_oaep(&ct).unwrap(), pt, "len={len}");
        }
    }

    #[test]
    fn oaep_rejects_overlong_message() {
        let kp = keypair1024();
        let mut rng = test_rng(14);
        let too_long = vec![0u8; kp.public().modulus_len() - 2 * DIGEST_LEN - 1];
        assert_eq!(
            kp.public().encrypt_oaep(&too_long, &mut rng),
            Err(CryptoError::MessageTooLong)
        );
        // A 512-bit key cannot host SHA-256 OAEP at all.
        let small = keypair();
        assert_eq!(
            small.public().encrypt_oaep(b"", &mut rng),
            Err(CryptoError::MessageTooLong)
        );
    }

    #[test]
    fn oaep_rejects_tampered_ciphertext() {
        let kp = keypair1024();
        let mut rng = test_rng(15);
        let mut ct = kp.public().encrypt_oaep(b"secret", &mut rng).unwrap();
        ct[10] ^= 0x40;
        assert!(kp.decrypt_oaep(&ct).is_err());
        assert!(kp.decrypt_oaep(&[]).is_err());
    }

    #[test]
    fn oaep_is_randomized() {
        let kp = keypair1024();
        let mut rng = test_rng(16);
        let a = kp.public().encrypt_oaep(b"m", &mut rng).unwrap();
        let b = kp.public().encrypt_oaep(b"m", &mut rng).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn kem_roundtrip_with_small_key() {
        let kp = keypair();
        let mut rng = test_rng(18);
        let (ct, shared) = kem_encapsulate(kp.public(), &mut rng);
        assert_eq!(ct.len(), kp.public().modulus_len());
        assert_eq!(kem_decapsulate(&kp, &ct).unwrap(), shared);
    }

    #[test]
    fn kem_is_randomized_and_binding() {
        let kp = keypair();
        let mut rng = test_rng(19);
        let (ct1, s1) = kem_encapsulate(kp.public(), &mut rng);
        let (ct2, s2) = kem_encapsulate(kp.public(), &mut rng);
        assert_ne!(ct1, ct2);
        assert_ne!(s1, s2);
        // Tampered ciphertext yields a different (useless) shared secret or
        // an error; it must never return the original secret.
        let mut bad = ct1.clone();
        bad[5] ^= 1;
        if let Ok(s) = kem_decapsulate(&kp, &bad) {
            assert_ne!(s, s1)
        }
        assert!(kem_decapsulate(&kp, &[1, 2, 3]).is_err());
    }

    #[test]
    fn nocrt_matches_crt() {
        let kp = keypair();
        let x = UBig::from_u64(9_876_543_210);
        let nocrt = x
            .pow_mod(kp.private_exponent(), kp.public().modulus())
            .unwrap();
        assert_eq!(kp.raw_private(&x), nocrt);
    }

    #[test]
    fn keypair_codec_roundtrip_preserves_function() {
        let kp = keypair();
        let bytes = p2drm_codec::to_bytes(&kp);
        let back: RsaKeyPair = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.public(), kp.public());
        // The reloaded key signs identically and decrypts what the
        // original key's public half sealed.
        let sig = back.sign(b"reload me");
        assert!(kp.public().verify(b"reload me", &sig).is_ok());
        let (ct, shared) = kem_encapsulate(kp.public(), &mut test_rng(99));
        assert_eq!(kem_decapsulate(&back, &ct).unwrap(), shared);
    }

    #[test]
    fn keypair_decode_rejects_inconsistent_factors() {
        let kp = keypair();
        let other = RsaKeyPair::generate(512, &mut test_rng(98));
        // Splice the other key's factors under this public key.
        let mut w = p2drm_codec::Writer::new();
        kp.public().encode(&mut w);
        for part in [
            other.private_exponent(),
            &other.p,
            &other.q,
            &other.dp,
            &other.dq,
            &other.qinv,
        ] {
            w.put_bytes(&part.to_bytes_be());
        }
        let res: p2drm_codec::Result<RsaKeyPair> = p2drm_codec::from_bytes(&w.into_bytes());
        assert!(res.is_err(), "p*q != n must be rejected");
    }

    #[test]
    fn public_key_codec_roundtrip() {
        let kp = keypair();
        let bytes = p2drm_codec::to_bytes(kp.public());
        let back: RsaPublicKey = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(&back, kp.public());
        assert_eq!(back.fingerprint(), kp.public().fingerprint());
    }

    #[test]
    fn fingerprints_differ_between_keys() {
        let kp1 = keypair();
        let kp2 = RsaKeyPair::generate(512, &mut test_rng(17));
        assert_ne!(kp1.public().fingerprint(), kp2.public().fingerprint());
    }

    #[test]
    fn mgf1_prefix_property() {
        let a = mgf1(b"seed", 10);
        let b = mgf1(b"seed", 100);
        assert_eq!(&b[..10], &a[..]);
        assert_eq!(mgf1(b"seed", 0).len(), 0);
    }

    #[test]
    fn fdh_in_range_and_deterministic() {
        let kp = keypair();
        let k = kp.public().modulus_len();
        let h1 = fdh(b"message", k);
        let h2 = fdh(b"message", k);
        assert_eq!(h1, h2);
        assert!(&h1 < kp.public().modulus());
        assert_ne!(fdh(b"other", k), h1);
    }

    #[test]
    fn emsa_layout() {
        let em = emsa_pkcs1_v15(b"x", 64).unwrap();
        assert_eq!(em.len(), 64);
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert!(em[2..].iter().take_while(|&&b| b == 0xff).count() >= 8);
    }
}
