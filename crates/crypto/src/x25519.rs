//! X25519 (RFC 7748): Diffie–Hellman on Curve25519's Montgomery form.
//!
//! An enclave draws an ephemeral [`X25519Secret`], binds its public key
//! into a quote, and agrees a shared secret with whoever holds the other
//! half of the exchange: the producer provisioning `SK`, or a peer
//! router opening a link. A client and the producer each hold a static
//! one and agree the client's pairwise key from them once, at
//! admission. The function [`x25519`] is the RFC's: clamp the
//! scalar, mask bit 255 of the u-coordinate, run the Montgomery ladder,
//! return `x2 / z2`.
//!
//! Field elements of GF(2²⁵⁵ − 19) are five 51-bit limbs in `u64`s; a
//! limb product fits a `u128`, and what lands above 2²⁵⁵ folds back in
//! times 19 (2²⁵⁵ ≡ 19 mod p). Subtraction adds 2p first, so no limb
//! goes negative.
//!
//! Nothing branches on, or indexes memory by, the scalar or the point:
//! the ladder runs all 255 steps whatever the scalar, swapping its two
//! working points by a mask made from the scalar bit (`fe_cswap`); the
//! inversion is a fixed chain of squarings and multiplications, a
//! Fermat power `z^(p−2)` whose exponent is public; the final reduction
//! to `[0, p)` adds `19·q` for a `q` computed by carries, not compared.
//! Only the loop counter picks which scalar byte to read.

use crate::ct::ct_eq;
use crate::error::CryptoError;
use crate::rng::CryptoRng;

/// Bytes of a scalar, a u-coordinate and a shared secret.
pub const KEY_LEN: usize = 32;

/// The u-coordinate of Curve25519's base point: 9.
pub const BASEPOINT: [u8; KEY_LEN] = {
    let mut u = [0u8; KEY_LEN];
    u[0] = 9;
    u
};

const MASK51: u64 = (1 << 51) - 1;

/// A field element: `Σ limb[i]·2^(51·i)`, not necessarily reduced.
type Fe = [u64; 5];

const ONE: Fe = [1, 0, 0, 0, 0];

/// `(A − 2) / 4` for Curve25519's `A = 486662`, RFC 7748 §5.
const A24: u64 = 121_665;

fn load64(bytes: &[u8; KEY_LEN], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Decodes a little-endian u-coordinate, ignoring bit 255.
fn fe_from_bytes(bytes: &[u8; KEY_LEN]) -> Fe {
    [
        load64(bytes, 0) & MASK51,
        (load64(bytes, 6) >> 3) & MASK51,
        (load64(bytes, 12) >> 6) & MASK51,
        (load64(bytes, 19) >> 1) & MASK51,
        (load64(bytes, 24) >> 12) & MASK51,
    ]
}

/// One carry pass: every limb below 2⁵¹ except limb 0, which may take
/// back `19 × carry`.
#[inline(always)]
fn fe_carry(mut h: Fe) -> Fe {
    for i in 0..4 {
        h[i + 1] += h[i] >> 51;
        h[i] &= MASK51;
    }
    h[0] += 19 * (h[4] >> 51);
    h[4] &= MASK51;
    h
}

/// Encodes the unique representative in `[0, p)`, little-endian.
fn fe_to_bytes(h: &Fe) -> [u8; KEY_LEN] {
    let mut h = fe_carry(fe_carry(*h));
    // Every limb is now below 2⁵¹ but limb 0, below 2⁵¹ + 19, so
    // h < 2²⁵⁵ + 19 < 2p: h ≥ p exactly when h + 19 carries out of bit
    // 255. q is that carry, and h − q·p = h + 19q − q·2²⁵⁵.
    let mut q = (h[0] + 19) >> 51;
    for limb in &h[1..] {
        q = (limb + q) >> 51;
    }
    h[0] += 19 * q;
    for i in 0..4 {
        h[i + 1] += h[i] >> 51;
        h[i] &= MASK51;
    }
    h[4] &= MASK51;
    let words = [
        h[0] | h[1] << 51,
        h[1] >> 13 | h[2] << 38,
        h[2] >> 26 | h[3] << 25,
        h[3] >> 39 | h[4] << 12,
    ];
    let mut out = [0u8; KEY_LEN];
    for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    out
}

#[inline(always)]
fn fe_add(a: &Fe, b: &Fe) -> Fe {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]]
}

/// `a − b` for `b` with limbs below 2⁵² − 38 (a product or a decoded
/// element): computed as `a + 2p − b`, then carried.
#[inline(always)]
fn fe_sub(a: &Fe, b: &Fe) -> Fe {
    const TWO_P0: u64 = 2 * ((1 << 51) - 19);
    const TWO_P: u64 = 2 * MASK51;
    fe_carry([
        a[0] + TWO_P0 - b[0],
        a[1] + TWO_P - b[1],
        a[2] + TWO_P - b[2],
        a[3] + TWO_P - b[3],
        a[4] + TWO_P - b[4],
    ])
}

#[inline(always)]
fn m(a: u64, b: u64) -> u128 {
    u128::from(a) * u128::from(b)
}

/// `a · b`, limbs of the inputs below 2⁵⁴, of the output below 2⁵¹ + 2¹³.
fn fe_mul(a: &Fe, b: &Fe) -> Fe {
    let [a0, a1, a2, a3, a4] = *a;
    let [b0, b1, b2, b3, b4] = *b;
    let (b1_19, b2_19, b3_19, b4_19) = (19 * b1, 19 * b2, 19 * b3, 19 * b4);
    let r0 = m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19);
    let mut r1 = m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19);
    let mut r2 = m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19);
    let mut r3 = m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19);
    let mut r4 = m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0);
    r1 += r0 >> 51;
    r2 += r1 >> 51;
    r3 += r2 >> 51;
    r4 += r3 >> 51;
    let mut h0 = (r0 as u64 & MASK51) + 19 * (r4 >> 51) as u64;
    let h1 = (r1 as u64 & MASK51) + (h0 >> 51);
    h0 &= MASK51;
    [h0, h1, r2 as u64 & MASK51, r3 as u64 & MASK51, r4 as u64 & MASK51]
}

/// `a · A24`, for the ladder's doubling: limbs of the output below
/// 2⁵¹ + 2²³.
fn fe_mul_a24(a: &Fe) -> Fe {
    let mut r = a.map(|limb| m(limb, A24));
    for i in 0..4 {
        r[i + 1] += r[i] >> 51;
        r[i] &= u128::from(MASK51);
    }
    r[0] += 19 * (r[4] >> 51);
    r[4] &= u128::from(MASK51);
    r.map(|limb| limb as u64)
}

/// `a` squared `n` times.
fn fe_sq_n(a: &Fe, n: usize) -> Fe {
    let mut r = *a;
    for _ in 0..n {
        r = fe_mul(&r, &r);
    }
    r
}

/// `z^(p−2) = z⁻¹` (and 0 for `z = 0`), by the addition chain for
/// `2²⁵⁵ − 21` used since curve25519-donna: 254 squarings, 11
/// multiplications, none chosen by `z`.
fn fe_invert(z: &Fe) -> Fe {
    let z2 = fe_mul(z, z);
    let z9 = fe_mul(&fe_sq_n(&z2, 2), z);
    let z11 = fe_mul(&z9, &z2);
    let z_5_0 = fe_mul(&fe_mul(&z11, &z11), &z9);
    let z_10_0 = fe_mul(&fe_sq_n(&z_5_0, 5), &z_5_0);
    let z_20_0 = fe_mul(&fe_sq_n(&z_10_0, 10), &z_10_0);
    let z_40_0 = fe_mul(&fe_sq_n(&z_20_0, 20), &z_20_0);
    let z_50_0 = fe_mul(&fe_sq_n(&z_40_0, 10), &z_10_0);
    let z_100_0 = fe_mul(&fe_sq_n(&z_50_0, 50), &z_50_0);
    let z_200_0 = fe_mul(&fe_sq_n(&z_100_0, 100), &z_100_0);
    let z_250_0 = fe_mul(&fe_sq_n(&z_200_0, 50), &z_50_0);
    fe_mul(&fe_sq_n(&z_250_0, 5), &z11)
}

/// Swaps `a` and `b` when `swap` is 1, leaves them when it is 0, with
/// the same loads and stores either way.
#[inline(always)]
fn fe_cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
    let mask = 0u64.wrapping_sub(swap);
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let t = mask & (*x ^ *y);
        *x ^= t;
        *y ^= t;
    }
}

/// RFC 7748 §5's ladder over the clamped scalar `k`: returns the
/// projective `(x2, z2)` of `k · u`.
fn montgomery_ladder(k: &[u8; KEY_LEN], u: &Fe) -> (Fe, Fe) {
    let x1 = *u;
    let (mut x2, mut z2, mut x3, mut z3) = (ONE, [0; 5], *u, ONE);
    let mut swap = 0u64;
    for t in (0..255).rev() {
        let bit = u64::from((k[t / 8] >> (t % 8)) & 1);
        swap ^= bit;
        fe_cswap(swap, &mut x2, &mut x3);
        fe_cswap(swap, &mut z2, &mut z3);
        swap = bit;
        let a = fe_add(&x2, &z2);
        let aa = fe_mul(&a, &a);
        let b = fe_sub(&x2, &z2);
        let bb = fe_mul(&b, &b);
        let e = fe_sub(&aa, &bb);
        let c = fe_add(&x3, &z3);
        let d = fe_sub(&x3, &z3);
        let da = fe_mul(&d, &a);
        let cb = fe_mul(&c, &b);
        let sum = fe_add(&da, &cb);
        x3 = fe_mul(&sum, &sum);
        let diff = fe_sub(&da, &cb);
        z3 = fe_mul(&x1, &fe_mul(&diff, &diff));
        x2 = fe_mul(&aa, &bb);
        z2 = fe_mul(&e, &fe_add(&aa, &fe_mul_a24(&e)));
    }
    fe_cswap(swap, &mut x2, &mut x3);
    fe_cswap(swap, &mut z2, &mut z3);
    (x2, z2)
}

/// The X25519 function of RFC 7748 §5: `scalar`, clamped, times the
/// point with u-coordinate `u` (bit 255 ignored). An all-zero output
/// means `u` was a low-order point; [`X25519Secret::diffie_hellman`]
/// refuses it.
pub fn x25519(scalar: &[u8; KEY_LEN], u: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    let mut k = *scalar;
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    let (x2, z2) = montgomery_ladder(&k, &fe_from_bytes(u));
    fe_to_bytes(&fe_mul(&x2, &fe_invert(&z2)))
}

/// An X25519 key pair: the scalar stays with its owner, the public
/// u-coordinate travels.
#[derive(Clone)]
pub struct X25519Secret {
    scalar: [u8; KEY_LEN],
    public: [u8; KEY_LEN],
}

impl std::fmt::Debug for X25519Secret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the scalar.
        f.debug_struct("X25519Secret").field("public", &self.public).finish_non_exhaustive()
    }
}

impl X25519Secret {
    /// Draws a fresh scalar from `rng` (32 bytes) and computes its
    /// public key.
    pub fn generate(rng: &mut CryptoRng) -> Self {
        let mut scalar = [0u8; KEY_LEN];
        rng.fill(&mut scalar);
        X25519Secret::from_bytes(scalar)
    }

    /// Wraps an existing scalar (clamped on use, as RFC 7748 says).
    pub fn from_bytes(scalar: [u8; KEY_LEN]) -> Self {
        X25519Secret { public: x25519(&scalar, &BASEPOINT), scalar }
    }

    /// The public key: the scalar times the base point.
    pub fn public_key(&self) -> &[u8; KEY_LEN] {
        &self.public
    }

    /// The shared secret with the holder of `peer`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidKey`] when the result is all zero: `peer`
    /// is a point of small order (u = 0 or u = 1, say), and the "shared"
    /// secret is one an attacker knows without any scalar.
    pub fn diffie_hellman(&self, peer: &[u8; KEY_LEN]) -> Result<[u8; KEY_LEN], CryptoError> {
        let shared = x25519(&self.scalar, peer);
        if ct_eq(&shared, &[0u8; KEY_LEN]) {
            return Err(CryptoError::InvalidKey { reason: "low-order x25519 point" });
        }
        Ok(shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_round_trip_reduces_mod_p() {
        // p itself encodes as 0, p + 1 as 1, and 2²⁵⁵ − 1 (bit 255 set
        // or not) as 18.
        let mut p = [0xffu8; KEY_LEN];
        p[0] = 0xed;
        p[31] = 0x7f;
        assert_eq!(fe_to_bytes(&fe_from_bytes(&p)), [0u8; KEY_LEN]);
        let mut p1 = p;
        p1[0] = 0xee;
        assert_eq!(fe_to_bytes(&fe_from_bytes(&p1)), fe_to_bytes(&ONE));
        let mut eighteen = [0u8; KEY_LEN];
        eighteen[0] = 18;
        assert_eq!(fe_to_bytes(&fe_from_bytes(&[0xffu8; KEY_LEN])), eighteen);
    }

    #[test]
    fn inverse_times_element_is_one() {
        let mut rng = CryptoRng::from_seed(7);
        for _ in 0..8 {
            let mut bytes = [0u8; KEY_LEN];
            rng.fill(&mut bytes);
            let a = fe_from_bytes(&bytes);
            assert_eq!(fe_to_bytes(&fe_mul(&a, &fe_invert(&a))), fe_to_bytes(&ONE));
        }
    }

    #[test]
    fn cswap_swaps_on_one_only() {
        let (mut a, mut b) = ([1, 2, 3, 4, 5], [6, 7, 8, 9, 10]);
        fe_cswap(0, &mut a, &mut b);
        assert_eq!((a, b), ([1, 2, 3, 4, 5], [6, 7, 8, 9, 10]));
        fe_cswap(1, &mut a, &mut b);
        assert_eq!((a, b), ([6, 7, 8, 9, 10], [1, 2, 3, 4, 5]));
    }

    #[test]
    fn low_order_points_are_refused() {
        let secret = X25519Secret::generate(&mut CryptoRng::from_seed(8));
        let mut one = [0u8; KEY_LEN];
        one[0] = 1;
        for peer in [[0u8; KEY_LEN], one] {
            assert!(matches!(
                secret.diffie_hellman(&peer),
                Err(CryptoError::InvalidKey { reason: "low-order x25519 point" })
            ));
        }
        assert!(!format!("{secret:?}").contains(&format!("{:?}", secret.scalar)));
    }
}
