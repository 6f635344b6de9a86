//! Multi-precision unsigned integer arithmetic.
//!
//! [`BigUint`] provides exactly the operations RSA needs — comparison, ring
//! arithmetic, Knuth division, modular exponentiation and inversion — over a
//! normalised little-endian `u32`-limb vector, the representation key
//! generation, the codecs and the RNG draws work in.
//!
//! Exponentiation runs on a crate-private Montgomery context (`MontCtx` in
//! `bigint/mont.rs`) built once per odd modulus: the modulus in `u64`
//! limbs, `-n⁻¹ mod 2⁶⁴` and `R² mod n`; CIOS multiplication with `u128`
//! accumulation into scratch reused across the whole exponentiation; and
//! two ladders. Secret exponents (RSA's `d_p`/`d_q`, the Miller–Rabin
//! exponent) take a fixed 4-bit window whose table entry is read by a
//! masked scan of all 16 and whose final `t ≥ n` subtraction is masked, so
//! their timing and memory accesses depend on the modulus width only.
//! Public exponents (`e = 65537`, [`BigUint::modpow`]) take plain
//! square-and-multiply. RSA keys hold their contexts ([`crate::rsa`]);
//! [`BigUint::modpow`] is the context-per-call convenience.

mod mont;

use crate::error::CryptoError;
use crate::rng::CryptoRng;
pub(crate) use mont::MontCtx;
use std::cmp::Ordering;
use std::fmt;

/// Arbitrary-precision unsigned integer.
///
/// Internally a normalised little-endian vector of 32-bit limbs (no trailing
/// zero limbs; zero is the empty vector).
///
/// ```
/// use scbr_crypto::BigUint;
///
/// let a = BigUint::from_u64(1 << 40);
/// let b = BigUint::from_u64(3);
/// assert_eq!((&a * &b).to_string(), "3298534883328");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

const LIMB_BITS: usize = 32;

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut n = BigUint { limbs: vec![v as u32, (v >> 32) as u32] };
        n.normalize();
        n
    }

    /// Builds from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(4));
        let mut iter = bytes.rchunks(4);
        for chunk in &mut iter {
            let mut limb = 0u32;
            for &b in chunk {
                limb = (limb << 8) | b as u32;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialises to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most-significant limb.
                let skip = bytes.iter().take_while(|&&b| b == 0).count();
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialises to big-endian bytes left-padded to exactly `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Result<Vec<u8>, CryptoError> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return Err(CryptoError::InvalidLength { context: "padded biguint" });
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff the value is even (0 is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// True iff the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Value of bit `i` (bit 0 is least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / LIMB_BITS;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % LIMB_BITS)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * LIMB_BITS + (32 - top.leading_zeros() as usize),
        }
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | (self.limbs[1] as u64) << 32),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let sum = limb as u64 + short.get(i).copied().unwrap_or(0) as u64 + carry;
            out.push(sum as u32);
            carry = sum >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let diff =
                self.limbs[i] as i64 - other.limbs.get(i).copied().unwrap_or(0) as i64 - borrow;
            if diff < 0 {
                out.push((diff + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(diff as u32);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u64 + carry;
                out[k] = t as u32;
                carry = t >> 32;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self << bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self >> bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % LIMB_BITS;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            for i in limb_shift..self.limbs.len() {
                let lo = self.limbs[i] >> bit_shift;
                let hi = self.limbs.get(i + 1).map(|&l| l << (32 - bit_shift)).unwrap_or(0);
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder of `self / divisor` (Knuth Algorithm D).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Arithmetic`] if `divisor` is zero.
    pub fn checked_div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint), CryptoError> {
        if divisor.is_zero() {
            return Err(CryptoError::Arithmetic { reason: "division by zero" });
        }
        if self < divisor {
            return Ok((BigUint::zero(), self.clone()));
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u64;
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u64;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 32) | l as u64;
                q.push((cur / d) as u32);
                rem = cur % d;
            }
            q.reverse();
            let mut qn = BigUint { limbs: q };
            qn.normalize();
            return Ok((qn, BigUint::from_u64(rem)));
        }

        // Knuth TAOCP vol. 2, Algorithm D, base 2^32.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        let n = v.len();
        u.push(0);
        let m = u.len() - n - 1;
        let mut q = vec![0u32; m + 1];
        let b = 1u64 << 32;

        for j in (0..=m).rev() {
            let top = ((u[j + n] as u64) << 32) | u[j + n - 1] as u64;
            let mut qhat = top / v[n - 1] as u64;
            let mut rhat = top % v[n - 1] as u64;
            while qhat >= b || qhat * v[n - 2] as u64 > ((rhat << 32) | u[j + n - 2] as u64) {
                qhat -= 1;
                rhat += v[n - 1] as u64;
                if rhat >= b {
                    break;
                }
            }
            // Multiply-and-subtract qhat * v from u[j .. j+n+1].
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = qhat * v[i] as u64 + carry;
                carry = p >> 32;
                let t = u[j + i] as i64 - (p as u32) as i64 - borrow;
                if t < 0 {
                    u[j + i] = (t + b as i64) as u32;
                    borrow = 1;
                } else {
                    u[j + i] = t as u32;
                    borrow = 0;
                }
            }
            let t = u[j + n] as i64 - carry as i64 - borrow;
            if t < 0 {
                // qhat was one too large: add v back.
                u[j + n] = (t + b as i64) as u32;
                qhat -= 1;
                let mut carry2 = 0u64;
                for i in 0..n {
                    let s = u[j + i] as u64 + v[i] as u64 + carry2;
                    u[j + i] = s as u32;
                    carry2 = s >> 32;
                }
                u[j + n] = u[j + n].wrapping_add(carry2 as u32);
            } else {
                u[j + n] = t as u32;
            }
            q[j] = qhat as u32;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint { limbs: u[..n].to_vec() };
        rem.normalize();
        Ok((quotient, rem.shr(shift)))
    }

    /// Panicking version of [`BigUint::checked_div_rem`].
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        self.checked_div_rem(divisor).expect("division by zero")
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `self mod d` for a nonzero single-limb divisor, without allocating.
    pub(crate) fn rem_u32(&self, d: u32) -> u32 {
        let d = d as u64;
        self.limbs.iter().rev().fold(0u64, |rem, &l| ((rem << 32) | l as u64) % d) as u32
    }

    /// Modular exponentiation `self^exp mod m` for an **odd** modulus `m`.
    ///
    /// A convenience that builds a Montgomery context for `m` on every call
    /// and runs square-and-multiply, whose time depends on `exp`. RSA keys
    /// build their contexts once and keep secret exponents on the
    /// constant-time ladder instead (see [`crate::rsa`]).
    ///
    /// # Panics
    ///
    /// Panics if `m` is even (zero included).
    // lint: allow(SL08, biguint_modpow_matches_u128 in tests/proptests.rs)
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(m.is_odd(), "modulus must be odd");
        match MontCtx::new(m) {
            Some(ctx) => ctx.pow_public(&self.rem(m), exp),
            // m == 1: every residue is 0.
            None => BigUint::zero(),
        }
    }

    /// Greatest common divisor (binary-free Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse `self^-1 mod m`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Arithmetic`] if the inverse does not exist
    /// (i.e. `gcd(self, m) != 1`) or `m < 2`.
    pub fn mod_inverse(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m.is_zero() || m.is_one() {
            return Err(CryptoError::Arithmetic { reason: "modulus must be at least 2" });
        }
        // Extended Euclid maintaining only the coefficient of `self`,
        // tracked with an explicit sign.
        let mut r0 = self.rem(m);
        let mut r1 = m.clone();
        let mut t0 = Signed::positive(BigUint::one());
        let mut t1 = Signed::positive(BigUint::zero());
        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1);
            let t = t0.sub(&t1.mul_uint(&q));
            r0 = r1;
            r1 = r;
            t0 = t1;
            t1 = t;
        }
        if !r0.is_one() {
            return Err(CryptoError::Arithmetic { reason: "element not invertible" });
        }
        Ok(t0.reduce_mod(m))
    }

    /// Uniformly random value with exactly `bits` bits (top bit set).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn random_bits(bits: usize, rng: &mut CryptoRng) -> BigUint {
        assert!(bits > 0, "bit length must be positive");
        let n_limbs = bits.div_ceil(LIMB_BITS);
        let mut limbs = Vec::with_capacity(n_limbs);
        for _ in 0..n_limbs {
            limbs.push(rng.next_u32());
        }
        // Mask off excess and force the top bit.
        let top_bits = bits - (n_limbs - 1) * LIMB_BITS;
        let mask = if top_bits == 32 { u32::MAX } else { (1u32 << top_bits) - 1 };
        let last = limbs.last_mut().expect("at least one limb");
        *last &= mask;
        *last |= 1 << (top_bits - 1);
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below(bound: &BigUint, rng: &mut CryptoRng) -> BigUint {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bits();
        loop {
            // Sample `bits` random bits without forcing the top bit, then
            // reject values >= bound.
            let n_limbs = bits.div_ceil(LIMB_BITS);
            let mut limbs = Vec::with_capacity(n_limbs);
            for _ in 0..n_limbs {
                limbs.push(rng.next_u32());
            }
            let top_bits = bits - (n_limbs - 1) * LIMB_BITS;
            let mask = if top_bits == 32 { u32::MAX } else { (1u32 << top_bits) - 1 };
            *limbs.last_mut().expect("at least one limb") &= mask;
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

/// Minimal signed value used only inside the extended Euclid.
#[derive(Clone, Debug)]
struct Signed {
    mag: BigUint,
    negative: bool,
}

impl Signed {
    fn positive(mag: BigUint) -> Self {
        Signed { mag, negative: false }
    }

    fn mul_uint(&self, u: &BigUint) -> Signed {
        Signed { mag: self.mag.mul(u), negative: self.negative && !u.is_zero() }
    }

    fn sub(&self, other: &Signed) -> Signed {
        match (self.negative, other.negative) {
            (false, true) => Signed { mag: self.mag.add(&other.mag), negative: false },
            (true, false) => Signed { mag: self.mag.add(&other.mag), negative: true },
            (sn, _) => {
                // Same sign: subtract magnitudes.
                if self.mag >= other.mag {
                    Signed {
                        mag: self.mag.checked_sub(&other.mag).expect("mag ordered"),
                        negative: sn,
                    }
                } else {
                    Signed {
                        mag: other.mag.checked_sub(&self.mag).expect("mag ordered"),
                        negative: !sn,
                    }
                }
            }
        }
    }

    fn reduce_mod(&self, m: &BigUint) -> BigUint {
        let r = self.mag.rem(m);
        if self.negative && !r.is_zero() {
            m.checked_sub(&r).expect("r < m")
        } else {
            r
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl std::ops::Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::add(self, rhs)
    }
}

impl std::ops::Sub for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics on underflow; use [`BigUint::checked_sub`] to handle it.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs).expect("biguint subtraction underflow")
    }
}

impl std::ops::Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::mul(self, rhs)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{self:x})")
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:08x}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let billion = BigUint::from_u64(1_000_000_000);
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(&billion);
            chunks.push(r.to_u64().expect("remainder fits u64"));
            cur = q;
        }
        write!(f, "{}", chunks.pop().expect("nonzero"))?;
        for c in chunks.iter().rev() {
            write!(f, "{c:09}")?;
        }
        Ok(())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        let mut bytes = v.to_be_bytes().to_vec();
        while bytes.first() == Some(&0) {
            bytes.remove(0);
        }
        BigUint::from_bytes_be(&bytes)
    }

    #[test]
    fn construction_and_display() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::one().to_string(), "1");
        assert_eq!(BigUint::from_u64(123456789012345).to_string(), "123456789012345");
        assert_eq!(
            big(340282366920938463463374607431768211455).to_string(),
            "340282366920938463463374607431768211455"
        );
    }

    #[test]
    fn bytes_round_trip() {
        for v in [0u128, 1, 255, 256, 1 << 32, u128::MAX] {
            let n = big(v);
            assert_eq!(BigUint::from_bytes_be(&n.to_bytes_be()), n);
        }
        // Leading zeros in input are ignored.
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 1, 0]), big(256));
    }

    #[test]
    fn padded_bytes() {
        let n = big(0x1234);
        assert_eq!(n.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0x12, 0x34]);
        assert!(n.to_bytes_be_padded(1).is_err());
    }

    #[test]
    fn add_sub_round_trip() {
        let a = big(0xffff_ffff_ffff_ffff_ffff);
        let b = big(0x1_0000_0000);
        let sum = a.add(&b);
        assert_eq!(sum.checked_sub(&b).unwrap(), a);
        assert_eq!(sum.checked_sub(&a).unwrap(), b);
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(big(0xffff_ffff).mul(&big(0xffff_ffff)), big(0xffff_fffe_0000_0001));
        assert_eq!(BigUint::zero().mul(&big(42)), BigUint::zero());
        let a = big(123456789123456789);
        let b = big(987654321987654321);
        assert_eq!(a.mul(&b).to_string(), "121932631356500531347203169112635269");
    }

    #[test]
    fn shifts() {
        let n = big(0b1011);
        assert_eq!(n.shl(0), n);
        assert_eq!(n.shl(4), big(0b1011_0000));
        assert_eq!(n.shl(100).shr(100), n);
        assert_eq!(n.shr(2), big(0b10));
        assert_eq!(n.shr(64), BigUint::zero());
        assert_eq!(BigUint::zero().shl(50), BigUint::zero());
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(big(0x8000_0000).bits(), 32);
        assert_eq!(big(0x1_0000_0000).bits(), 33);
        let n = big(0b1010);
        assert!(!n.bit(0));
        assert!(n.bit(1));
        assert!(!n.bit(2));
        assert!(n.bit(3));
        assert!(!n.bit(100));
    }

    #[test]
    fn div_rem_single_limb() {
        let (q, r) = big(1000).div_rem(&big(7));
        assert_eq!(q, big(142));
        assert_eq!(r, big(6));
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = big(0xffee_ddcc_bbaa_9988_7766_5544_3322_1100);
        let b = big(0x1_2345_6789_abcd);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_knuth_add_back_case() {
        // Exercises the rare "add back" branch: crafted so qhat overshoots.
        let a = BigUint::from_bytes_be(&[
            0x7f, 0xff, 0xff, 0xff, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ]);
        let b = BigUint::from_bytes_be(&[0x80, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff]);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_by_zero_is_error() {
        assert!(big(5).checked_div_rem(&BigUint::zero()).is_err());
    }

    #[test]
    fn modpow_small_values() {
        // 3^10 mod 1001 = 59049 mod 1001 = 991
        assert_eq!(big(3).modpow(&big(10), &big(1001)), big(991));
        // Fermat: 2^(p-1) mod p = 1 for prime p
        let p = big(1_000_000_007);
        assert_eq!(big(2).modpow(&p.checked_sub(&BigUint::one()).unwrap(), &p), BigUint::one());
        assert_eq!(big(7).modpow(&big(13), &big(101)), big(7u128.pow(13) % 101));
        // A base above the modulus is reduced first.
        assert_eq!(big(7 + 101 * 5).modpow(&big(13), &big(101)), big(7u128.pow(13) % 101));
    }

    #[test]
    #[should_panic(expected = "modulus must be odd")]
    fn modpow_rejects_even_modulus() {
        big(7).modpow(&big(13), &big(100));
    }

    #[test]
    fn rem_u32_matches_rem() {
        let mut rng = CryptoRng::from_seed(13);
        for bits in [1usize, 31, 32, 33, 64, 257, 1024] {
            let x = BigUint::random_bits(bits, &mut rng);
            for d in [1u32, 2, 3, 281, 65537, u32::MAX] {
                assert_eq!(
                    BigUint::from_u64(x.rem_u32(d) as u64),
                    x.rem(&BigUint::from_u64(d as u64))
                );
            }
        }
    }

    #[test]
    fn modpow_edge_cases() {
        assert_eq!(big(5).modpow(&BigUint::zero(), &big(7)), BigUint::one());
        assert_eq!(big(5).modpow(&big(100), &BigUint::one()), BigUint::zero());
        assert_eq!(BigUint::zero().modpow(&big(5), &big(7)), BigUint::zero());
    }

    #[test]
    fn modpow_large_odd_modulus() {
        // 2^128-159 is prime; check Fermat's little theorem via Montgomery.
        let p = big(340282366920938463463374607431768211297);
        let pm1 = p.checked_sub(&BigUint::one()).unwrap();
        for base in [2u128, 3, 65537, 123456789] {
            assert_eq!(big(base).modpow(&pm1, &p), BigUint::one(), "base {base}");
        }
    }

    #[test]
    fn gcd_known() {
        assert_eq!(big(48).gcd(&big(36)), big(12));
        assert_eq!(big(17).gcd(&big(5)), BigUint::one());
        assert_eq!(big(0).gcd(&big(5)), big(5));
    }

    #[test]
    fn mod_inverse_known() {
        // 3 * 4 = 12 = 1 mod 11
        assert_eq!(big(3).mod_inverse(&big(11)).unwrap(), big(4));
        // 65537^-1 mod a 128-bit prime, verified by multiplication.
        let p = big(340282366920938463463374607431768211297);
        let e = big(65537);
        let d = e.mod_inverse(&p).unwrap();
        assert_eq!(e.mul(&d).rem(&p), BigUint::one());
    }

    #[test]
    fn mod_inverse_nonexistent() {
        assert!(big(4).mod_inverse(&big(8)).is_err());
        assert!(big(0).mod_inverse(&big(7)).is_err());
        assert!(big(3).mod_inverse(&BigUint::one()).is_err());
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = CryptoRng::from_seed(11);
        for bits in [1usize, 8, 31, 32, 33, 256, 1000] {
            let n = BigUint::random_bits(bits, &mut rng);
            assert_eq!(n.bits(), bits, "requested {bits}");
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = CryptoRng::from_seed(12);
        let bound = big(1000);
        for _ in 0..200 {
            assert!(BigUint::random_below(&bound, &mut rng) < bound);
        }
    }

    #[test]
    fn ordering() {
        assert!(big(5) < big(6));
        assert!(big(1 << 40) > big(u32::MAX as u128));
        assert_eq!(big(7).cmp(&big(7)), Ordering::Equal);
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(format!("{:x}", BigUint::zero()), "0");
        assert_eq!(format!("{:x}", big(0xdeadbeef)), "deadbeef");
        assert_eq!(format!("{:x}", big(0x1_0000_0001)), "100000001");
    }
}
