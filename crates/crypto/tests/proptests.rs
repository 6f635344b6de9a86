//! Property-based tests for the crypto substrate.
//!
//! The `BigUint` properties cross-check the hand-written limb arithmetic
//! against Rust's native `u128`, which covers every carry/borrow path that
//! fits in two limbs plus a generous multi-limb regime via concatenation.
//! Poly1305's limb arithmetic is checked the other way round: against a
//! reference modulo 2¹³⁰ − 5 built on `BigUint`.

use proptest::prelude::*;
use scbr_crypto::ctr::{AesCtr, SymmetricKey};
use scbr_crypto::hmac::HmacSha256;
use scbr_crypto::poly1305::{Poly1305, KEY_LEN, TAG_LEN};
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::sha256::Sha256;
use scbr_crypto::{BigUint, SealedBox};

fn big(v: u128) -> BigUint {
    BigUint::from_bytes_be(&v.to_be_bytes())
}

fn to_u128(n: &BigUint) -> Option<u128> {
    let bytes = n.to_bytes_be();
    if bytes.len() > 16 {
        return None;
    }
    let mut buf = [0u8; 16];
    buf[16 - bytes.len()..].copy_from_slice(&bytes);
    Some(u128::from_be_bytes(buf))
}

/// Little-endian bytes as a number.
fn le(bytes: &[u8]) -> BigUint {
    let be: Vec<u8> = bytes.iter().rev().copied().collect();
    BigUint::from_bytes_be(&be)
}

/// Poly1305 as RFC 8439 §2.5 writes it, on `BigUint`: clamp `r` byte by
/// byte; for each 16-byte chunk (the last may be short) add the chunk with
/// a 1 byte appended, multiply by `r`, reduce modulo 2¹³⁰ − 5; add `s` and
/// keep the low 128 bits.
fn poly1305_reference(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let p = BigUint::one().shl(130).checked_sub(&BigUint::from_u64(5)).unwrap();
    let mut r = key[..16].to_vec();
    for i in [3, 7, 11, 15] {
        r[i] &= 0x0f;
    }
    for i in [4, 8, 12] {
        r[i] &= 0xfc;
    }
    let r = le(&r);
    let mut acc = BigUint::zero();
    for chunk in msg.chunks(16) {
        let n = le(chunk).add(&BigUint::one().shl(8 * chunk.len()));
        acc = acc.add(&n).mul(&r).rem(&p);
    }
    let tag = acc.add(&le(&key[16..])).to_bytes_be();
    let mut out = [0u8; TAG_LEN];
    for (o, b) in out.iter_mut().zip(tag.iter().rev()) {
        *o = *b;
    }
    out
}

/// Poly1305 with the message fed in pieces cut at `cuts`.
fn poly1305_split(key: &[u8; KEY_LEN], msg: &[u8], cuts: &[usize]) -> [u8; TAG_LEN] {
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(msg.len())).collect();
    cuts.sort_unstable();
    let mut mac = Poly1305::new(key);
    let mut from = 0;
    for cut in cuts.into_iter().chain([msg.len()]) {
        mac.update(&msg[from..cut]);
        from = cut;
    }
    mac.finalize()
}

fn key_of(r: [u8; 16], s: [u8; 16]) -> [u8; KEY_LEN] {
    let mut key = [0u8; KEY_LEN];
    key[..16].copy_from_slice(&r);
    key[16..].copy_from_slice(&s);
    key
}

/// Inputs where the accumulator ends at or above p, so the final masked
/// select must subtract it, and where `h + s` wraps past 2¹²⁸.
#[test]
fn poly1305_reduction_and_wrap_edges_match_the_reference() {
    let mut r2 = [0u8; 16];
    r2[0] = 2;
    let mut one = [0u8; 16];
    one[0] = 1;
    // r = 2, one all-0xff block: h = 2·(2¹²⁹ − 1) = 2¹³⁰ − 2 ≥ p, which
    // reduces to 3.
    let tag = poly1305_split(&key_of(r2, [0; 16]), &[0xff; 16], &[]);
    assert_eq!(tag, one.map(|b| b * 3));
    // The same h plus s = 2¹²⁸ − 1 wraps to 2.
    let tag = poly1305_split(&key_of(r2, [0xff; 16]), &[0xff; 16], &[]);
    assert_eq!(tag, one.map(|b| b * 2));
    // Every unclamped bit of r set, with all-0xff blocks of every length
    // up to 300, and with s at its extremes.
    for len in 0..=300 {
        for (r, s) in [([0xff; 16], [0xff; 16]), ([0xff; 16], [0; 16]), (r2, [0xff; 16])] {
            let key = key_of(r, s);
            let msg = vec![0xff; len];
            assert_eq!(
                poly1305_split(&key, &msg, &[]),
                poly1305_reference(&key, &msg),
                "len {len}"
            );
            assert_eq!(poly1305_split(&key, &msg, &[len / 3, 7]), poly1305_reference(&key, &msg));
        }
    }
}

proptest! {
    #[test]
    fn biguint_add_matches_u128(a in 0u128..=u128::MAX / 2, b in 0u128..=u128::MAX / 2) {
        prop_assert_eq!(to_u128(&big(a).add(&big(b))), Some(a + b));
    }

    #[test]
    fn biguint_sub_matches_u128(a: u128, b: u128) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(to_u128(&big(hi).checked_sub(&big(lo)).unwrap()), Some(hi - lo));
        if hi != lo {
            prop_assert!(big(lo).checked_sub(&big(hi)).is_none());
        }
    }

    #[test]
    fn biguint_mul_matches_u128(a in 0u128..=u64::MAX as u128, b in 0u128..=u64::MAX as u128) {
        prop_assert_eq!(to_u128(&big(a).mul(&big(b))), Some(a * b));
    }

    #[test]
    fn biguint_div_rem_matches_u128(a: u128, b in 1u128..=u128::MAX) {
        let (q, r) = big(a).div_rem(&big(b));
        prop_assert_eq!(to_u128(&q), Some(a / b));
        prop_assert_eq!(to_u128(&r), Some(a % b));
    }

    #[test]
    fn biguint_div_rem_reconstructs_multilimb(a_bytes in proptest::collection::vec(any::<u8>(), 1..64),
                                              b_bytes in proptest::collection::vec(any::<u8>(), 1..32)) {
        let a = BigUint::from_bytes_be(&a_bytes);
        let b = BigUint::from_bytes_be(&b_bytes);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn biguint_shift_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..40), shift in 0usize..200) {
        let n = BigUint::from_bytes_be(&bytes);
        prop_assert_eq!(n.shl(shift).shr(shift), n);
    }

    #[test]
    fn biguint_modpow_matches_u128(base in 0u64.., exp in 0u64..256, m in 3u64..) {
        // `modpow` takes odd moduli only (Montgomery).
        let m = m | 1;
        let expected = {
            // Reference square-and-multiply over u128.
            let (mut result, mut b, mut e) = (1u128, base as u128 % m as u128, exp);
            while e > 0 {
                if e & 1 == 1 { result = result * b % m as u128; }
                b = b * b % m as u128;
                e >>= 1;
            }
            result
        };
        prop_assert_eq!(to_u128(&big(base as u128).modpow(&big(exp as u128), &big(m as u128))),
                        Some(expected));
    }

    #[test]
    fn biguint_mod_inverse_is_inverse(a in 1u64.., m in 2u64..) {
        let am = big(a as u128);
        let mm = big(m as u128);
        match am.mod_inverse(&mm) {
            Ok(inv) => prop_assert_eq!(am.mul(&inv).rem(&mm), BigUint::one()),
            Err(_) => prop_assert!(!am.gcd(&mm).is_one() || mm.is_one()),
        }
    }

    #[test]
    fn biguint_bytes_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let n = BigUint::from_bytes_be(&bytes);
        let canonical = n.to_bytes_be();
        prop_assert_eq!(BigUint::from_bytes_be(&canonical), n);
        // Canonical form has no leading zeros.
        prop_assert!(canonical.first() != Some(&0));
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                         split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn aes_ctr_round_trip(data in proptest::collection::vec(any::<u8>(), 0..512),
                          key_seed: u64, nonce: [u8; 8]) {
        let mut rng = CryptoRng::from_seed(key_seed);
        let key = SymmetricKey::generate(&mut rng);
        let mut buf = data.clone();
        AesCtr::new(&key, nonce).apply(&mut buf);
        AesCtr::new(&key, nonce).apply(&mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn hmac_verify_rejects_bit_flips(data in proptest::collection::vec(any::<u8>(), 1..128),
                                     flip_byte in 0usize..32, flip_bit in 0u8..8) {
        let tag = HmacSha256::mac(b"key", &data);
        let mut bad = tag;
        bad[flip_byte] ^= 1 << flip_bit;
        prop_assert!(HmacSha256::verify(b"key", &data, &tag));
        prop_assert!(!HmacSha256::verify(b"key", &data, &bad));
    }

    /// Any key and message, fed in any pieces, gives the reference tag.
    #[test]
    fn poly1305_matches_the_biguint_reference(r: [u8; 16], s: [u8; 16],
                                              msg in proptest::collection::vec(any::<u8>(), 0..300),
                                              cuts in proptest::collection::vec(0usize..300, 0..6)) {
        let key = key_of(r, s);
        prop_assert_eq!(poly1305_split(&key, &msg, &cuts), poly1305_reference(&key, &msg));
    }

    #[test]
    fn sealed_box_round_trip_and_tamper(data in proptest::collection::vec(any::<u8>(), 0..256),
                                        aad in proptest::collection::vec(any::<u8>(), 0..32),
                                        seed: u64, flip in 0usize..64) {
        let mut rng = CryptoRng::from_seed(seed);
        let key = SymmetricKey::generate(&mut rng);
        let sb = SealedBox::new(&key);
        let sealed = sb.seal(&data, &aad, &mut rng);
        prop_assert_eq!(sb.open(&sealed, &aad).unwrap(), data);
        let mut bad = sealed.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 1;
        prop_assert!(sb.open(&bad, &aad).is_err());
    }
}
