//! Miller–Rabin primality testing and random prime generation.
//!
//! Prime generation drives RSA key generation in `p2drm-crypto`; the tests
//! there use 256–512-bit keys so the suite stays fast.

use crate::mont::Mont;
use crate::rng::BigRng;
use crate::ubig::UBig;
use std::sync::OnceLock;

/// Trial-division table bound. 2048 keeps the sieve tiny while rejecting
/// ~89% of random odd candidates before a Miller-Rabin round is spent.
const SMALL_PRIME_BOUND: usize = 2048;

fn small_primes() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut sieve = vec![true; SMALL_PRIME_BOUND];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..SMALL_PRIME_BOUND {
            if sieve[i] {
                let mut j = i * i;
                while j < SMALL_PRIME_BOUND {
                    sieve[j] = false;
                    j += i;
                }
            }
        }
        sieve
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| i as u64)
            .collect()
    })
}

/// One Miller–Rabin round with witness `a` against odd `n = d * 2^r + 1`.
fn miller_rabin_round(mont: &Mont, n_minus_1: &UBig, d: &UBig, r: usize, a: &UBig) -> bool {
    let mut x = mont.pow(a, d);
    if x.is_one() || x == *n_minus_1 {
        return true;
    }
    for _ in 1..r {
        x = mont.mul_mod(&x, &x);
        if x == *n_minus_1 {
            return true;
        }
        if x.is_one() {
            return false; // nontrivial square root of 1
        }
    }
    false
}

/// Probabilistic primality test.
///
/// Performs trial division by all primes below 2048, then `rounds`
/// Miller–Rabin rounds: the 12 smallest prime bases (which make the test
/// deterministic for `n < 3.3 * 10^24`) followed by random bases from `rng`.
pub fn is_prime<R: BigRng + ?Sized>(n: &UBig, rounds: usize, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in small_primes() {
        let pb = UBig::from_u64(p);
        if *n == pb {
            return true;
        }
        if n.rem(&pb).is_zero() {
            return false;
        }
    }
    // Beyond the table and not divisible by any table prime; n is odd here.
    debug_assert!(n.is_odd());
    let mont = Mont::new(n).expect("odd modulus");
    let n_minus_1 = n.sub(&UBig::one());
    let r = n_minus_1.trailing_zeros().expect("n-1 of odd n>2 is even");
    let d = n_minus_1.shr(r);

    const FIXED_BASES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    for &a in FIXED_BASES.iter().take(rounds.clamp(1, 12)) {
        if !miller_rabin_round(&mont, &n_minus_1, &d, r, &UBig::from_u64(a)) {
            return false;
        }
    }
    let extra = rounds.saturating_sub(12);
    let two = UBig::from_u64(2);
    let span = n.sub(&UBig::from_u64(3)); // witnesses in [2, n-2]
    for _ in 0..extra {
        let a = &crate::rng::random_below(rng, &span) + &two;
        if !miller_rabin_round(&mont, &n_minus_1, &d, r, &a) {
            return false;
        }
    }
    true
}

/// Generates a random prime of exactly `bits` bits.
///
/// The top two bits are forced to 1 (so a product of two such primes has the
/// full expected bit length) and the value is forced odd.
///
/// # Panics
/// Panics if `bits < 16`.
pub fn gen_prime<R: BigRng + ?Sized>(bits: usize, rounds: usize, rng: &mut R) -> UBig {
    assert!(bits >= 16, "prime sizes below 16 bits are not supported");
    loop {
        let mut cand = crate::rng::random_bits(rng, bits);
        cand.set_bit(bits - 1);
        cand.set_bit(bits - 2);
        cand.set_bit(0);
        if is_prime(&cand, rounds, rng) {
            return cand;
        }
    }
}

/// Generates a prime `p` of exactly `bits` bits with `gcd(p-1, e) == 1`,
/// as RSA key generation requires for public exponent `e`.
pub fn gen_prime_coprime<R: BigRng + ?Sized>(
    bits: usize,
    rounds: usize,
    e: &UBig,
    rng: &mut R,
) -> UBig {
    loop {
        let p = gen_prime(bits, rounds, rng);
        if p.sub(&UBig::one()).gcd(e).is_one() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn small_prime_table_starts_correctly() {
        let t = small_primes();
        assert_eq!(&t[..10], &[2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        assert!(t.iter().all(|&p| p < 2048));
    }

    #[test]
    fn classifies_small_numbers() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 101, 1009, 2003, 7919, 104729];
        let composites = [0u64, 1, 4, 6, 9, 100, 1001, 2047, 7917, 104730];
        for p in primes {
            assert!(is_prime(&UBig::from_u64(p), 16, &mut r), "{p} is prime");
        }
        for c in composites {
            assert!(
                !is_prime(&UBig::from_u64(c), 16, &mut r),
                "{c} is composite"
            );
        }
    }

    #[test]
    fn rejects_carmichael_numbers() {
        let mut r = rng();
        // Classic Carmichael numbers fool Fermat but not Miller-Rabin.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&UBig::from_u64(c), 16, &mut r), "{c}");
        }
    }

    #[test]
    fn recognizes_known_big_primes() {
        let mut r = rng();
        // 2^127 - 1 (Mersenne) and 2^255 - 19.
        let m127 = UBig::one().shl(127).sub(&UBig::one());
        assert!(is_prime(&m127, 16, &mut r));
        let p25519 = UBig::one().shl(255).sub(&UBig::from_u64(19));
        assert!(is_prime(&p25519, 16, &mut r));
        // 2^127 - 3 is composite.
        let c = UBig::one().shl(127).sub(&UBig::from_u64(3));
        assert!(!is_prime(&c, 16, &mut r));
    }

    #[test]
    fn generated_primes_have_exact_size_and_pass() {
        let mut r = rng();
        for bits in [64usize, 128, 256] {
            let p = gen_prime(bits, 12, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(p.bit(bits - 2), "second-top bit forced");
            assert!(p.is_odd());
            assert!(is_prime(&p, 20, &mut r));
        }
    }

    #[test]
    fn coprime_generation_respects_e() {
        let mut r = rng();
        let e = UBig::from_u64(65537);
        let p = gen_prime_coprime(96, 12, &e, &mut r);
        assert!(p.sub(&UBig::one()).gcd(&e).is_one());
    }

    #[test]
    fn deterministic_given_seed() {
        let p1 = gen_prime(128, 12, &mut rng());
        let p2 = gen_prime(128, 12, &mut rng());
        assert_eq!(p1, p2);
    }
}
