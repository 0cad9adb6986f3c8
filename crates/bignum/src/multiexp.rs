//! Simultaneous multi-exponentiation: `Π bᵢ^eᵢ mod n` in one pass.
//!
//! Computing a product of powers naively costs one full exponentiation per
//! base — every base pays its own squaring chain. Both algorithms here
//! share that chain across all bases, so `k` bases of `ℓ`-bit exponents
//! cost `ℓ` squarings total instead of `k·ℓ`:
//!
//! * [`straus`] — Straus interleaving: one fixed-window table per base,
//!   one shared squaring chain, one table multiplication per base per
//!   window. Best for small batches (a handful of bases) and the classic
//!   `g^a·y^b` verification shapes.
//! * [`pippenger`] — Pippenger bucketing: per window position, bases are
//!   multiplied into the bucket selected by their exponent digit, and the
//!   buckets are folded with a running suffix product. The per-base cost
//!   falls toward one multiplication per window, which wins once the batch
//!   is large (batch signature verification).
//! * [`multi_pow`] — size-based dispatcher between the two, switching to
//!   Pippenger at [`PIPPENGER_THRESHOLD`] bases.
//!
//! All three operate on [`MontForm`] values (callers stay in Montgomery
//! form across the whole computation) and allocate only setup buffers: the
//! inner loops run entirely on preallocated scratch via
//! [`Mont::mont_mul_into`]/[`Mont::mont_sqr_into`] — a property pinned by
//! the counting-allocator regression in `crates/bignum/tests`.
//!
//! # Example
//!
//! ```
//! use p2drm_bignum::{multiexp, Mont, UBig};
//!
//! let mont = Mont::new(&UBig::from_u64(1_000_003)).unwrap();
//! let bases = [
//!     mont.to_form(&UBig::from_u64(2)),
//!     mont.to_form(&UBig::from_u64(3)),
//! ];
//! let exps = [UBig::from_u64(10), UBig::from_u64(5)];
//! let r = multiexp::multi_pow(&mont, &bases, &exps);
//! // 2^10 · 3^5 = 1024 · 243 = 248832  (well below the modulus)
//! assert_eq!(mont.from_form(&r), UBig::from_u64(248_832));
//! ```

use crate::mont::{window_bits, Mont, MontForm};
use crate::ubig::UBig;

/// Batch size at which [`multi_pow`] switches from [`straus`] to
/// [`pippenger`]. Below it, per-base window tables amortize well and
/// Straus does strictly fewer multiplications; above it, Pippenger's
/// bucket folding (whose table cost is per *batch*, not per base) pulls
/// ahead. Measured crossover at the batch verifier's 32-bit scalar
/// width over a 1024-bit modulus: Straus wins at k ≤ 8 bases, Pippenger at
/// k ≥ 32.
pub const PIPPENGER_THRESHOLD: usize = 16;

/// `Π bases[i] ^ exps[i] mod n`, dispatching on batch size: [`straus`]
/// below [`PIPPENGER_THRESHOLD`] bases, [`pippenger`] at or above it.
///
/// # Panics
/// Panics when `bases` and `exps` have different lengths.
pub fn multi_pow(mont: &Mont, bases: &[MontForm], exps: &[UBig]) -> MontForm {
    assert_eq!(
        bases.len(),
        exps.len(),
        "multi_pow needs one exponent per base"
    );
    if bases.len() >= PIPPENGER_THRESHOLD {
        pippenger(mont, bases, exps)
    } else {
        straus(mont, bases, exps)
    }
}

/// Straus simultaneous exponentiation: per-base fixed-window tables, one
/// squaring chain shared by every base.
///
/// Cost for `k` bases with `ℓ`-bit exponents and `w`-bit windows:
/// `ℓ` squarings + `k·(2^w − 2)` table multiplications +
/// `≈ k·(ℓ/w)` window multiplications — versus `k·ℓ` squarings for `k`
/// independent [`Mont::pow_form`] calls. After the setup allocations
/// (one flat table, accumulator, temporary, scratch) the main loop is
/// allocation-free.
///
/// # Panics
/// Panics when `bases` and `exps` have different lengths.
pub fn straus(mont: &Mont, bases: &[MontForm], exps: &[UBig]) -> MontForm {
    assert_eq!(
        bases.len(),
        exps.len(),
        "straus needs one exponent per base"
    );
    let k = bases.len();
    if k == 0 {
        return mont.one_form();
    }
    if k == 1 {
        return mont.pow_form(&bases[0], &exps[0]);
    }
    let s = mont.limb_len();
    let bits = exps.iter().map(UBig::bit_len).max().unwrap_or(0);
    if bits == 0 {
        return mont.one_form();
    }
    let w = window_bits(bits);
    let tsize = 1usize << w;
    let mut scratch = mont.alloc_scratch();

    // Flat per-base tables: entry(i, d) = bases[i]^d for d in 1..tsize,
    // one allocation for the whole batch.
    let row = (tsize - 1) * s;
    let mut table = vec![0u64; k * row];
    for (i, base) in bases.iter().enumerate() {
        let chunk = &mut table[i * row..(i + 1) * row];
        chunk[..s].copy_from_slice(base.as_limbs());
        for d in 2..tsize {
            let (built, rest) = chunk.split_at_mut((d - 1) * s);
            mont.mont_mul_into(
                &built[(d - 2) * s..],
                base.as_limbs(),
                &mut rest[..s],
                &mut scratch,
            );
        }
    }
    let entry = |i: usize, d: usize| &table[i * row + (d - 1) * s..i * row + d * s];

    let nwin = bits.div_ceil(w);
    let mut acc = vec![0u64; s];
    let mut tmp = vec![0u64; s];
    // Top window: seed the accumulator from the first nonzero digit (the
    // base whose exponent reaches `bits` guarantees one exists).
    let mut started = false;
    for (i, exp) in exps.iter().enumerate() {
        let d = exp.bits_at((nwin - 1) * w, w) as usize;
        if d != 0 {
            if started {
                mont.mont_mul_into(&acc, entry(i, d), &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            } else {
                acc.copy_from_slice(entry(i, d));
                started = true;
            }
        }
    }
    debug_assert!(started, "top window of the longest exponent is nonzero");
    for win in (0..nwin - 1).rev() {
        for _ in 0..w {
            mont.mont_sqr_into(&acc, &mut tmp, &mut scratch);
            std::mem::swap(&mut acc, &mut tmp);
        }
        for (i, exp) in exps.iter().enumerate() {
            let d = exp.bits_at(win * w, w) as usize;
            if d != 0 {
                mont.mont_mul_into(&acc, entry(i, d), &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
    }
    MontForm::from_limbs(acc)
}

/// Pippenger bucket multi-exponentiation for large batches.
///
/// Exponents are scanned `c` bits at a time; within each window every base
/// is multiplied into the bucket named by its digit, and the `2^c − 1`
/// buckets are folded high-to-low with a running suffix product (the
/// standard `Σ d·Bd = Σ suffix products` identity, multiplicatively).
/// Bucket storage is one flat allocation per *batch* — growing the batch
/// adds zero allocations, which the counting-allocator regression pins.
///
/// # Panics
/// Panics when `bases` and `exps` have different lengths.
pub fn pippenger(mont: &Mont, bases: &[MontForm], exps: &[UBig]) -> MontForm {
    assert_eq!(
        bases.len(),
        exps.len(),
        "pippenger needs one exponent per base"
    );
    let k = bases.len();
    if k == 0 {
        return mont.one_form();
    }
    if k == 1 {
        return mont.pow_form(&bases[0], &exps[0]);
    }
    let s = mont.limb_len();
    let bits = exps.iter().map(UBig::bit_len).max().unwrap_or(0);
    if bits == 0 {
        return mont.one_form();
    }
    let c = bucket_bits(k).min(bits);
    let nbuckets = (1usize << c) - 1;
    let nwin = bits.div_ceil(c);
    let mut scratch = mont.alloc_scratch();

    // All buffers for the whole batch, allocated once.
    let mut buckets = vec![0u64; nbuckets * s];
    let mut occupied = vec![false; nbuckets];
    let mut acc = vec![0u64; s];
    let mut run = vec![0u64; s];
    let mut fold = vec![0u64; s];
    let mut tmp = vec![0u64; s];
    let mut acc_started = false;

    for win in (0..nwin).rev() {
        if acc_started {
            for _ in 0..c {
                mont.mont_sqr_into(&acc, &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        occupied.fill(false);
        for (base, exp) in bases.iter().zip(exps.iter()) {
            let d = exp.bits_at(win * c, c) as usize;
            if d != 0 {
                let slot = &mut buckets[(d - 1) * s..d * s];
                if occupied[d - 1] {
                    mont.mont_mul_into(slot, base.as_limbs(), &mut tmp, &mut scratch);
                    slot.copy_from_slice(&tmp[..s]);
                } else {
                    slot.copy_from_slice(base.as_limbs());
                    occupied[d - 1] = true;
                }
            }
        }
        // Fold: run = Π_{j>=d} B_j (suffix product), fold = Π_d run,
        // giving Π_d B_d^d without per-bucket exponentiations.
        let mut run_started = false;
        let mut fold_started = false;
        for d in (0..nbuckets).rev() {
            if occupied[d] {
                let slot = &buckets[d * s..(d + 1) * s];
                if run_started {
                    mont.mont_mul_into(&run, slot, &mut tmp, &mut scratch);
                    std::mem::swap(&mut run, &mut tmp);
                } else {
                    run.copy_from_slice(slot);
                    run_started = true;
                }
            }
            if run_started {
                if fold_started {
                    mont.mont_mul_into(&fold, &run, &mut tmp, &mut scratch);
                    std::mem::swap(&mut fold, &mut tmp);
                } else {
                    fold.copy_from_slice(&run);
                    fold_started = true;
                }
            }
        }
        if fold_started {
            if acc_started {
                mont.mont_mul_into(&acc, &fold, &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            } else {
                acc.copy_from_slice(&fold);
                acc_started = true;
            }
        }
    }
    if !acc_started {
        return mont.one_form();
    }
    MontForm::from_limbs(acc)
}

/// Bucket window width for a `k`-base Pippenger pass: roughly `log2 k`,
/// clamped so bucket storage stays small at protocol batch sizes.
fn bucket_bits(k: usize) -> usize {
    match k {
        0..=3 => 1,
        4..=7 => 2,
        8..=15 => 3,
        16..=63 => 4,
        64..=255 => 5,
        _ => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng as brng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn modulus(bits: usize, seed: u64) -> UBig {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = brng::random_bits(&mut rng, bits);
        m.set_bit(bits - 1);
        m.set_bit(0);
        m
    }

    fn iterated(mont: &Mont, bases: &[MontForm], exps: &[UBig]) -> MontForm {
        let mut acc = mont.one_form();
        for (b, e) in bases.iter().zip(exps.iter()) {
            acc = mont.form_mul(&acc, &mont.pow_form(b, e));
        }
        acc
    }

    fn fixture(
        k: usize,
        bits: usize,
        exp_bits: usize,
        seed: u64,
    ) -> (Mont, Vec<MontForm>, Vec<UBig>) {
        let n = modulus(bits, seed);
        let mont = Mont::new(&n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let bases: Vec<MontForm> = (0..k)
            .map(|_| mont.to_form(&brng::random_below(&mut rng, &n)))
            .collect();
        let exps: Vec<UBig> = (0..k)
            .map(|_| brng::random_bits(&mut rng, exp_bits))
            .collect();
        (mont, bases, exps)
    }

    #[test]
    fn straus_matches_iterated_pow_across_shapes() {
        for (k, bits, exp_bits, seed) in [
            (2usize, 256usize, 256usize, 1u64),
            (3, 512, 128, 2),
            (4, 512, 512, 3),
            (5, 192, 64, 4),
        ] {
            let (mont, bases, exps) = fixture(k, bits, exp_bits, seed);
            assert_eq!(
                straus(&mont, &bases, &exps),
                iterated(&mont, &bases, &exps),
                "k={k} bits={bits} exp_bits={exp_bits}"
            );
        }
    }

    #[test]
    fn pippenger_matches_straus_across_sizes() {
        for (k, exp_bits, seed) in [
            (2usize, 64usize, 7u64),
            (8, 16, 8),
            (16, 8, 9),
            (40, 32, 10),
        ] {
            let (mont, bases, exps) = fixture(k, 256, exp_bits, seed);
            assert_eq!(
                pippenger(&mont, &bases, &exps),
                straus(&mont, &bases, &exps),
                "k={k} exp_bits={exp_bits}"
            );
        }
    }

    #[test]
    fn dispatcher_handles_edges_and_reference_kernel() {
        let (mont, bases, exps) = fixture(3, 256, 64, 11);
        // Empty and zero-exponent batches are the identity.
        assert_eq!(multi_pow(&mont, &[], &[]), mont.one_form());
        assert_eq!(
            multi_pow(&mont, &bases, &vec![UBig::zero(); 3]),
            mont.one_form()
        );
        // Single base routes through pow_form.
        assert_eq!(
            multi_pow(&mont, &bases[..1], &exps[..1]),
            mont.pow_form(&bases[0], &exps[0])
        );
        let mut reference = mont.one_form();
        for (base, exp) in bases.iter().zip(&exps) {
            let p = mont.pow_reference(&mont.from_form(base), exp);
            reference = mont.form_mul(&reference, &mont.to_form(&p));
        }
        assert_eq!(
            multi_pow(&mont, &bases, &exps),
            reference,
            "multi_pow must agree with the reference kernel"
        );
    }

    #[test]
    #[should_panic(expected = "one exponent per base")]
    fn mismatched_lengths_panic() {
        let (mont, bases, exps) = fixture(2, 128, 32, 12);
        multi_pow(&mont, &bases, &exps[..1]);
    }

    #[test]
    fn mixed_exponent_lengths_including_zero() {
        let (mont, bases, _) = fixture(4, 256, 0, 13);
        let exps = vec![
            UBig::zero(),
            UBig::one(),
            UBig::from_u64(u64::MAX),
            brng::random_bits(&mut StdRng::seed_from_u64(99), 200),
        ];
        assert_eq!(straus(&mont, &bases, &exps), iterated(&mont, &bases, &exps));
        assert_eq!(
            pippenger(&mont, &bases, &exps),
            iterated(&mont, &bases, &exps)
        );
    }
}
