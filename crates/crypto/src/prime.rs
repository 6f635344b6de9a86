//! Probabilistic prime generation (trial division + Miller–Rabin).
//!
//! Used by [`crate::rsa`] for key generation.

use crate::bigint::{BigUint, MontCtx};
use crate::rng::CryptoRng;

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u32; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];

/// Number of Miller–Rabin rounds; 2^-128 error bound for random candidates.
const MR_ROUNDS: usize = 40;

/// Returns true if `n` passes trial division and `rounds` Miller–Rabin
/// rounds with random bases.
///
/// One Montgomery context is built per candidate that survives trial
/// division, and every round runs inside it: `a^d` on the constant-time
/// ladder, then the squarings in Montgomery form. A composite is rejected
/// as soon as a witness shows it, so the time spent on a rejected candidate
/// varies; the prime that is kept sees all `rounds`.
pub fn is_probable_prime(n: &BigUint, rounds: usize, rng: &mut CryptoRng) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    let small = n.to_u64();
    for &p in &SMALL_PRIMES {
        if small == Some(p as u64) {
            return true;
        }
        if n.rem_u32(p) == 0 {
            return false;
        }
    }
    // Write n-1 = 2^s * d with d odd.
    let one = BigUint::one();
    let n_minus_1 = n.checked_sub(&one).expect("n >= 2");
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let two = BigUint::from_u64(2);
    let n_minus_3 = match n.checked_sub(&BigUint::from_u64(3)) {
        Some(v) => v,
        // n < 3 was handled by the small-prime table above.
        None => return true,
    };
    // Trial division left n odd and above the table, so the context exists;
    // 1 and n − 1 are compared in Montgomery form.
    let ctx = MontCtx::new(n).expect("odd n > 281");
    let d = ctx.exponent(&d);
    let one_m = ctx.to_mont(&one);
    let minus_one_m = ctx.to_mont(&n_minus_1);
    let mut scratch = ctx.scratch();
    'witness: for _ in 0..rounds {
        // Random base in [2, n-2].
        let a = BigUint::random_below(&n_minus_3, rng).add(&two);
        let mut x = ctx.pow_ct(&ctx.to_mont(&a), &d);
        if x == one_m || x == minus_one_m {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            ctx.square(&mut x, &mut scratch);
            if x == minus_one_m {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 8` (too small to be useful for RSA factors).
pub fn generate_prime(bits: usize, rng: &mut CryptoRng) -> BigUint {
    assert!(bits >= 8, "prime size too small");
    loop {
        let mut candidate = BigUint::random_bits(bits, rng);
        // Force odd.
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
            if candidate.bits() != bits {
                continue;
            }
        }
        if is_probable_prime(&candidate, MR_ROUNDS, rng) {
            return candidate;
        }
    }
}

/// Generates a probable safe-ish prime `p` with `gcd(p-1, e) == 1`,
/// as required for an RSA factor with public exponent `e`.
pub fn generate_rsa_factor(bits: usize, e: &BigUint, rng: &mut CryptoRng) -> BigUint {
    loop {
        let p = generate_prime(bits, rng);
        let p_minus_1 = p.checked_sub(&BigUint::one()).expect("p >= 2");
        if p_minus_1.gcd(e).is_one() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_primes_are_prime() {
        let mut rng = CryptoRng::from_seed(1);
        for p in [2u64, 3, 5, 7, 11, 13, 97, 101, 257, 65537] {
            assert!(is_probable_prime(&b(p), 10, &mut rng), "{p} is prime");
        }
    }

    #[test]
    fn small_composites_are_composite() {
        let mut rng = CryptoRng::from_seed(2);
        for c in [0u64, 1, 4, 6, 9, 15, 21, 25, 91, 341, 561, 65536] {
            assert!(!is_probable_prime(&b(c), 10, &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller–Rabin.
        let mut rng = CryptoRng::from_seed(3);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745] {
            assert!(!is_probable_prime(&b(c), 20, &mut rng), "{c} is Carmichael");
        }
    }

    #[test]
    fn large_known_prime() {
        let mut rng = CryptoRng::from_seed(4);
        // 2^89 - 1 is a Mersenne prime.
        let p = BigUint::one().shl(89).checked_sub(&BigUint::one()).unwrap();
        assert!(is_probable_prime(&p, 20, &mut rng));
        // 2^87 - 1 = 3 * 7 * ... is composite.
        let c = BigUint::one().shl(87).checked_sub(&BigUint::one()).unwrap();
        assert!(!is_probable_prime(&c, 20, &mut rng));
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut rng = CryptoRng::from_seed(5);
        for bits in [32usize, 64, 128] {
            let p = generate_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits);
            assert!(p.is_odd());
        }
    }

    #[test]
    fn rsa_factor_coprime_with_e() {
        let mut rng = CryptoRng::from_seed(6);
        let e = b(65537);
        let p = generate_rsa_factor(96, &e, &mut rng);
        let pm1 = p.checked_sub(&BigUint::one()).unwrap();
        assert!(pm1.gcd(&e).is_one());
    }
}
