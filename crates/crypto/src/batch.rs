//! Batch RSA signature verification.
//!
//! A single `e = 65537` verification costs ~19 Montgomery products (16
//! squarings, one multiplication, two form conversions). Batching combines
//! the `k` checks `sᵢ^e ≟ EMᵢ` into one combined check
//!
//! ```text
//! (Π sᵢ^rᵢ)^e  ≟  Π EMᵢ^rᵢ   (mod n)
//! ```
//!
//! evaluated with two simultaneous multi-exponentiations
//! ([`p2drm_bignum::multiexp`]) plus a single full-size `e`-th power, so the
//! per-signature cost falls toward a couple of multiplications. Two scalar
//! regimes are offered, chosen by [`BatchMode`]:
//!
//! * [`BatchMode::Screen`] (the default): all `rᵢ = 1`. This is the
//!   Bellare–Garay–Rabin *screening* test — if the batch accepts, then
//!   under the RSA assumption every message in it was signed by the key
//!   holder at some point. It does **not** bind each signature string to
//!   its own message (an adversary holding valid signatures on two distinct
//!   messages can swap mauled copies between them), which is exactly the
//!   guarantee an authorization check needs: the provider asks "did the RA
//!   certify this pseudonym?", not "is this particular encoding intact".
//!   Screening is only sound for *distinct* messages, so duplicates are
//!   automatically routed to individual verification. Cheapest mode: ~2
//!   multiplications per signature.
//! * [`BatchMode::SmallExponents`]: independent random odd `bits`-bit
//!   scalars. A batch containing an invalid (message, signature) pair is
//!   accepted with probability at most `2^-(bits-1)` per attempt, with no
//!   distinctness requirement and no swap caveat. Scalars are forced odd
//!   because an element of order 2 (e.g. `n − 1` times a valid signature)
//!   would pass any even scalar with probability ½. Costs ~`bits`
//!   multiplications per signature, so speedup over per-item verification
//!   requires small `bits` (8 is the suggested default: 2^-7 per-attempt
//!   forgery odds, every failed attempt detected and attributed by the
//!   fallback below).
//!
//! On a failed combined check the verifier binary-splits the batch,
//! re-checking each half (fresh scalars each time) until the offending
//! indices are isolated; size-1 groups are verified individually, so the
//! reported indices are exact and every valid signature in the batch is
//! still accepted. The [`BatchReport`] carries the rejected indices and the
//! number of split re-checks, which the global registry counts.

use crate::rng::CryptoRng;
use crate::rsa::{emsa_pkcs1_v15, fdh, RsaPublicKey, RsaSignature};
use p2drm_bignum::{multiexp, rng as brng, MontForm, UBig};

/// Scalar regime for the combined check. See the module docs for the
/// security trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Unit scalars (BGR screening): cheapest, guarantees every message in
    /// an accepted batch was signed by the key holder; requires distinct
    /// messages (duplicates fall back to individual verification).
    #[default]
    Screen,
    /// Independent random odd scalars of the given bit width: per-item
    /// soundness `2^-(bits-1)`, no distinctness requirement.
    SmallExponents {
        /// Scalar width in bits (clamped to `2..=64`).
        bits: usize,
    },
}

/// Outcome of a batch verification. The batch as a whole "succeeds" when
/// [`rejected`](Self::rejected) is empty; otherwise every listed index
/// failed its individual check and every other item was still accepted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Indices (into the input slice) whose signatures are invalid.
    pub rejected: Vec<usize>,
    /// Number of combined checks spent isolating failures (0 when the
    /// first screening pass accepted everything).
    pub splits: usize,
    /// Items that skipped the combined check and were verified
    /// individually (duplicate messages under [`BatchMode::Screen`],
    /// structurally invalid signatures, too-small batches).
    pub individual: usize,
}

impl BatchReport {
    /// True when every signature in the batch verified.
    pub fn all_valid(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// Batch-verifies PKCS#1 v1.5 SHA-256 signatures under one public key.
///
/// Equivalent in outcome to calling [`RsaPublicKey::verify`] on every
/// `(message, signature)` pair (see [`BatchMode`] for the exact soundness
/// statement), but `k` items cost roughly one multi-exponentiation plus a
/// single `e`-th power instead of `k` of them.
pub fn verify_batch<R: CryptoRng + ?Sized>(
    pk: &RsaPublicKey,
    items: &[(&[u8], &RsaSignature)],
    mode: BatchMode,
    rng: &mut R,
) -> BatchReport {
    let k = pk.modulus_len();
    let ems: Vec<Option<UBig>> = items
        .iter()
        .map(|(m, _)| emsa_pkcs1_v15(m, k).ok().map(|em| UBig::from_bytes_be(&em)))
        .collect();
    let sigs: Vec<&UBig> = items.iter().map(|(_, s)| s.as_ubig()).collect();
    verify_batch_raw(pk, &sigs, &ems, mode, rng)
}

/// Batch-verifies full-domain-hash signatures (the blind-signature form
/// checked by [`crate::blind::verify_fdh`]) under one public key — the
/// shape of pseudonym and attribute certificates, which are all issued
/// under the RA's blind key and therefore batch together naturally.
pub fn verify_fdh_batch<R: CryptoRng + ?Sized>(
    pk: &RsaPublicKey,
    items: &[(&[u8], &RsaSignature)],
    mode: BatchMode,
    rng: &mut R,
) -> BatchReport {
    let k = pk.modulus_len();
    let ems: Vec<Option<UBig>> = items.iter().map(|(m, _)| Some(fdh(m, k))).collect();
    let sigs: Vec<&UBig> = items.iter().map(|(_, s)| s.as_ubig()).collect();
    verify_batch_raw(pk, &sigs, &ems, mode, rng)
}

/// [`verify_batch`] in [`BatchMode::Screen`] without caller-supplied
/// randomness — unit scalars never sample the RNG, so callers that only
/// screen (chain verification, CRL sync) need not thread RNG state.
pub fn screen_batch(pk: &RsaPublicKey, items: &[(&[u8], &RsaSignature)]) -> BatchReport {
    verify_batch(pk, items, BatchMode::Screen, &mut ZeroRng)
}

/// [`verify_fdh_batch`] in [`BatchMode::Screen`]; see [`screen_batch`].
pub fn screen_fdh_batch(pk: &RsaPublicKey, items: &[(&[u8], &RsaSignature)]) -> BatchReport {
    verify_fdh_batch(pk, items, BatchMode::Screen, &mut ZeroRng)
}

/// Stand-in RNG for screening mode, which draws no randomness. Kept out
/// of the public API; routing it into a scalar-sampling mode would be a
/// bug, hence the panic.
struct ZeroRng;

impl rand::RngCore for ZeroRng {
    fn next_u32(&mut self) -> u32 {
        unreachable!("screening mode draws no randomness")
    }
    fn next_u64(&mut self) -> u64 {
        unreachable!("screening mode draws no randomness")
    }
    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("screening mode draws no randomness")
    }
}

/// Process-wide batch-verification counters in the global
/// [`p2drm_obs`] registry. Batch call sites (certificate chains, CRL
/// sync) don't thread a registry handle, so the
/// fold is global: every [`BatchReport`] also lands here. Names are
/// static and values are counts — nothing about *whose* signatures
/// were checked is recorded.
struct BatchMetrics {
    batches: std::sync::Arc<p2drm_obs::Counter>,
    items: std::sync::Arc<p2drm_obs::Counter>,
    rejected: std::sync::Arc<p2drm_obs::Counter>,
    splits: std::sync::Arc<p2drm_obs::Counter>,
    individual: std::sync::Arc<p2drm_obs::Counter>,
}

fn batch_metrics() -> &'static BatchMetrics {
    static METRICS: std::sync::OnceLock<BatchMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = p2drm_obs::global();
        BatchMetrics {
            batches: r.counter("crypto_batch_verifies"),
            items: r.counter("crypto_batch_items"),
            rejected: r.counter("crypto_batch_rejected"),
            splits: r.counter("crypto_batch_splits"),
            individual: r.counter("crypto_batch_individual"),
        }
    })
}

struct BatchSource;

impl p2drm_obs::MetricSource for BatchSource {
    fn collect(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        let m = batch_metrics();
        out.counter("crypto_batch_verifies", m.batches.get());
        out.counter("crypto_batch_items", m.items.get());
        out.counter("crypto_batch_rejected", m.rejected.get());
        out.counter("crypto_batch_splits", m.splits.get());
        out.counter("crypto_batch_individual", m.individual.get());
    }
}

/// The process-wide batch counters as a registerable
/// [`p2drm_obs::MetricSource`], so a *private* registry (a test, an
/// experiment run) can fold the batch crypto layer into its unified
/// snapshot. The returned `Arc` is a static singleton — weak
/// registrations against it stay live for the process lifetime. The
/// global registry already carries these counters natively; do not
/// register the source there.
pub fn batch_metric_source() -> &'static std::sync::Arc<dyn p2drm_obs::MetricSource + Send + Sync> {
    static SRC: std::sync::OnceLock<std::sync::Arc<dyn p2drm_obs::MetricSource + Send + Sync>> =
        std::sync::OnceLock::new();
    SRC.get_or_init(|| std::sync::Arc::new(BatchSource))
}

/// Shared core: checks `sigs[i]^e == ems[i] mod n` for all `i`, folding
/// the outcome into the global batch counters.
///
/// `ems[i] = None` marks an item whose message could not be encoded (it is
/// rejected outright, matching the individual path).
fn verify_batch_raw<R: CryptoRng + ?Sized>(
    pk: &RsaPublicKey,
    sigs: &[&UBig],
    ems: &[Option<UBig>],
    mode: BatchMode,
    rng: &mut R,
) -> BatchReport {
    let report = verify_batch_inner(pk, sigs, ems, mode, rng);
    let m = batch_metrics();
    m.batches.inc();
    m.items.add(sigs.len() as u64);
    m.rejected.add(report.rejected.len() as u64);
    m.splits.add(report.splits as u64);
    m.individual.add(report.individual as u64);
    report
}

fn verify_batch_inner<R: CryptoRng + ?Sized>(
    pk: &RsaPublicKey,
    sigs: &[&UBig],
    ems: &[Option<UBig>],
    mode: BatchMode,
    rng: &mut R,
) -> BatchReport {
    assert_eq!(sigs.len(), ems.len());
    let n = pk.modulus();
    let mont = pk.mont();
    let mut report = BatchReport::default();

    // Structural pre-screen: out-of-range signatures and unencodable
    // messages fail individually no matter what, so they never enter the
    // combined check.
    let mut batchable: Vec<usize> = Vec::with_capacity(sigs.len());
    for (i, (sig, em)) in sigs.iter().zip(ems.iter()).enumerate() {
        match em {
            Some(em) if *sig < n && em < n => batchable.push(i),
            _ => report.rejected.push(i),
        }
    }

    // Screening needs distinct messages: route duplicates to individual
    // verification (first occurrence stays in the batch).
    if mode == BatchMode::Screen {
        let mut seen: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
        let mut deduped = Vec::with_capacity(batchable.len());
        for i in batchable {
            let em = ems[i].as_ref().expect("batchable implies encodable");
            if seen.insert(em.to_bytes_be()) {
                deduped.push(i);
            } else {
                report.individual += 1;
                if !check_one(pk, sigs[i], em) {
                    report.rejected.push(i);
                }
            }
        }
        batchable = deduped;
    }

    if batchable.len() < 2 {
        for i in batchable {
            report.individual += 1;
            if !check_one(pk, sigs[i], ems[i].as_ref().unwrap()) {
                report.rejected.push(i);
            }
        }
        report.rejected.sort_unstable();
        return report;
    }

    // One Montgomery conversion per side per item, reused across every
    // split round.
    let sig_forms: Vec<MontForm> = batchable.iter().map(|&i| mont.to_form(sigs[i])).collect();
    let em_forms: Vec<MontForm> = batchable
        .iter()
        .map(|&i| mont.to_form(ems[i].as_ref().unwrap()))
        .collect();

    let slots: Vec<usize> = (0..batchable.len()).collect();
    split_verify(
        pk,
        &batchable,
        &sig_forms,
        &em_forms,
        &slots,
        mode,
        rng,
        &mut report,
        true,
    );
    report.rejected.sort_unstable();
    report
}

/// Recursive combined check over `slots` (positions into the form arrays);
/// on failure splits in half until individual items are isolated.
#[allow(clippy::too_many_arguments)]
fn split_verify<R: CryptoRng + ?Sized>(
    pk: &RsaPublicKey,
    batchable: &[usize],
    sig_forms: &[MontForm],
    em_forms: &[MontForm],
    slots: &[usize],
    mode: BatchMode,
    rng: &mut R,
    report: &mut BatchReport,
    first_pass: bool,
) {
    if slots.len() == 1 {
        let s = slots[0];
        report.individual += 1;
        let mont = pk.mont();
        let lhs = pk.raw_public(&mont.from_form(&sig_forms[s]));
        if lhs != mont.from_form(&em_forms[s]) {
            report.rejected.push(batchable[s]);
        }
        return;
    }
    if !first_pass {
        report.splits += 1;
    }
    if combined_check(pk, sig_forms, em_forms, slots, mode, rng) {
        return;
    }
    if first_pass {
        report.splits += 1; // the failed screening pass itself
    }
    let (lo, hi) = slots.split_at(slots.len() / 2);
    split_verify(
        pk, batchable, sig_forms, em_forms, lo, mode, rng, report, false,
    );
    split_verify(
        pk, batchable, sig_forms, em_forms, hi, mode, rng, report, false,
    );
}

/// Evaluates `(Π sᵢ^rᵢ)^e == Π EMᵢ^rᵢ` over the selected slots.
fn combined_check<R: CryptoRng + ?Sized>(
    pk: &RsaPublicKey,
    sig_forms: &[MontForm],
    em_forms: &[MontForm],
    slots: &[usize],
    mode: BatchMode,
    rng: &mut R,
) -> bool {
    let mont = pk.mont();
    let scalars: Vec<UBig> = match mode {
        BatchMode::Screen => vec![UBig::one(); slots.len()],
        BatchMode::SmallExponents { bits } => {
            let bits = bits.clamp(2, 64);
            slots
                .iter()
                .map(|_| {
                    let mut r = brng::random_bits(rng, bits);
                    r.set_bit(0); // odd: defeats order-2 elements
                    r
                })
                .collect()
        }
    };
    let sel_sigs: Vec<MontForm> = slots.iter().map(|&s| sig_forms[s].clone()).collect();
    let sel_ems: Vec<MontForm> = slots.iter().map(|&s| em_forms[s].clone()).collect();
    let lhs_acc = multiexp::multi_pow(mont, &sel_sigs, &scalars);
    let rhs_acc = multiexp::multi_pow(mont, &sel_ems, &scalars);
    pk.raw_public(&mont.from_form(&lhs_acc)) == mont.from_form(&rhs_acc)
}

/// Individual raw check `sig^e == em` (already-encoded message).
fn check_one(pk: &RsaPublicKey, sig: &UBig, em: &UBig) -> bool {
    sig < pk.modulus() && &pk.raw_public(sig) == em
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::test_rng;
    use crate::rsa::RsaKeyPair;

    fn fixture(k: usize) -> (RsaKeyPair, Vec<Vec<u8>>, Vec<RsaSignature>) {
        let mut rng = test_rng(42);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let msgs: Vec<Vec<u8>> = (0..k)
            .map(|i| format!("message {i}").into_bytes())
            .collect();
        let sigs: Vec<RsaSignature> = msgs.iter().map(|m| kp.sign(m)).collect();
        (kp, msgs, sigs)
    }

    fn items<'a>(
        msgs: &'a [Vec<u8>],
        sigs: &'a [RsaSignature],
    ) -> Vec<(&'a [u8], &'a RsaSignature)> {
        msgs.iter().map(Vec::as_slice).zip(sigs.iter()).collect()
    }

    #[test]
    fn all_valid_batches_accept_in_both_modes() {
        let (kp, msgs, sigs) = fixture(8);
        let mut rng = test_rng(7);
        for mode in [BatchMode::Screen, BatchMode::SmallExponents { bits: 8 }] {
            let r = verify_batch(kp.public(), &items(&msgs, &sigs), mode, &mut rng);
            assert!(r.all_valid(), "{mode:?}: {r:?}");
            assert_eq!(r.splits, 0);
        }
    }

    #[test]
    fn corrupted_signature_is_pinpointed_rest_accepted() {
        let (kp, msgs, mut sigs) = fixture(9);
        // Corrupt index 5 by signing the wrong message.
        sigs[5] = kp.sign(b"not message 5");
        let mut rng = test_rng(9);
        for mode in [BatchMode::Screen, BatchMode::SmallExponents { bits: 16 }] {
            let r = verify_batch(kp.public(), &items(&msgs, &sigs), mode, &mut rng);
            assert_eq!(r.rejected, vec![5], "{mode:?}: {r:?}");
            assert!(r.splits > 0, "failure must have gone through the splitter");
        }
    }

    #[test]
    fn multiple_corruptions_all_identified() {
        let (kp, msgs, mut sigs) = fixture(16);
        for bad in [0usize, 7, 15] {
            sigs[bad] = RsaSignature::from_ubig(sigs[bad].as_ubig() + &UBig::one());
        }
        let mut rng = test_rng(11);
        let r = verify_batch(
            kp.public(),
            &items(&msgs, &sigs),
            BatchMode::Screen,
            &mut rng,
        );
        assert_eq!(r.rejected, vec![0, 7, 15], "{r:?}");
    }

    #[test]
    fn duplicate_messages_fall_back_to_individual_under_screen() {
        let (kp, mut msgs, mut sigs) = fixture(4);
        msgs[2] = msgs[0].clone();
        sigs[2] = kp.sign(&msgs[2]);
        let mut rng = test_rng(3);
        let r = verify_batch(
            kp.public(),
            &items(&msgs, &sigs),
            BatchMode::Screen,
            &mut rng,
        );
        assert!(r.all_valid(), "{r:?}");
        assert!(r.individual >= 1, "duplicate must be verified individually");
    }

    #[test]
    fn out_of_range_signature_rejected_without_poisoning_batch() {
        let (kp, msgs, mut sigs) = fixture(4);
        sigs[1] = RsaSignature::from_ubig(kp.public().modulus() + &UBig::one());
        let mut rng = test_rng(5);
        let r = verify_batch(
            kp.public(),
            &items(&msgs, &sigs),
            BatchMode::Screen,
            &mut rng,
        );
        assert_eq!(r.rejected, vec![1]);
        assert_eq!(r.splits, 0, "structural reject must not trigger splitting");
    }

    #[test]
    fn fdh_batch_matches_individual_fdh_verification() {
        let mut rng = test_rng(21);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let msgs: Vec<Vec<u8>> = (0..6)
            .map(|i| format!("pseudonym {i}").into_bytes())
            .collect();
        let sigs: Vec<RsaSignature> = msgs
            .iter()
            .map(|m| {
                let h = fdh(m, kp.public().modulus_len());
                RsaSignature::from_ubig(kp.raw_private(&h))
            })
            .collect();
        for (m, s) in msgs.iter().zip(sigs.iter()) {
            crate::blind::verify_fdh(kp.public(), m, s).expect("fixture sig valid");
        }
        let r = verify_fdh_batch(
            kp.public(),
            &items(&msgs, &sigs),
            BatchMode::Screen,
            &mut rng,
        );
        assert!(r.all_valid(), "{r:?}");

        let mut bad = sigs.clone();
        bad[3] = RsaSignature::from_ubig(bad[3].as_ubig() + &UBig::one());
        let r = verify_fdh_batch(
            kp.public(),
            &items(&msgs, &bad),
            BatchMode::Screen,
            &mut rng,
        );
        assert_eq!(r.rejected, vec![3], "{r:?}");
    }

    #[test]
    fn tiny_batches_verify_individually() {
        let (kp, msgs, sigs) = fixture(1);
        let mut rng = test_rng(13);
        let r = verify_batch(
            kp.public(),
            &items(&msgs, &sigs),
            BatchMode::Screen,
            &mut rng,
        );
        assert!(r.all_valid());
        assert_eq!(r.individual, 1);
        let r = verify_batch(kp.public(), &[], BatchMode::Screen, &mut rng);
        assert!(r.all_valid());
    }
}
