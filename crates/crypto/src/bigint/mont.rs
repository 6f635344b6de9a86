//! Montgomery arithmetic modulo one odd modulus: the exponentiation core
//! under [`BigUint::modpow`], RSA and Miller–Rabin.
//!
//! A [`MontCtx`] is built once per modulus — per RSA key half, per public
//! key, per prime candidate — and holds the modulus as `u64` limbs,
//! `-n⁻¹ mod 2⁶⁴`, `R mod n` and `R² mod n` (`R = 2^(64·width)`). Every
//! multiply is one CIOS pass with `u128` accumulation into scratch that
//! the caller allocated once for the whole exponentiation.
//!
//! **Constant-time contract.** For operands of a given width, `cios_mul`,
//! `redc_wide`, `select_ct`, `ladder_ct` and `crt_combine` execute the same
//! instructions and touch the same addresses whatever the operand values:
//! the final `t ≥ n` subtraction and the CRT add-back are masked, and the
//! fixed 4-bit window reads its table entry by a masked scan of all 16. The
//! only branches are on widths and loop counts, which the modulus size
//! fixes. `ladder_vartime` branches on exponent bits and is for public
//! exponents only (`e = 65537`, [`BigUint::modpow`]).

use super::BigUint;

/// Bits of secret exponent consumed per multiply by the constant-time ladder.
const WINDOW: usize = 4;
/// Entries in the window table: `base^0 ..= base^15`.
const TABLE: usize = 1 << WINDOW;

/// Montgomery context for one odd modulus `n > 1`.
#[derive(Clone)]
pub(crate) struct MontCtx {
    /// The modulus, little-endian; its length is the context's width.
    n: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R mod n`, the Montgomery form of 1.
    r1: Vec<u64>,
    /// `R² mod n`; a multiply by it enters Montgomery form.
    r2: Vec<u64>,
}

impl MontCtx {
    /// Builds the context, or `None` unless `n` is odd and greater than 1.
    pub(crate) fn new(n: &BigUint) -> Option<MontCtx> {
        if n.is_even() || n.is_one() {
            return None;
        }
        let width = n.limbs.len().div_ceil(2);
        let n_limbs = limbs_of(n, width);
        // Newton's iteration doubles the correct low bits of n[0]⁻¹ per
        // step: from 1 bit to 64 in six.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n_limbs[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n_limbs[0].wrapping_mul(inv), 1);
        let r2 = limbs_of(&BigUint::one().shl(128 * width).rem(n), width);
        let mut ctx = MontCtx { n: n_limbs, n0_inv: inv.wrapping_neg(), r1: Vec::new(), r2 };
        // R mod n = REDC(R² mod n).
        let mut wide = ctx.r2.clone();
        wide.resize(2 * width, 0);
        ctx.redc_wide(&mut wide);
        ctx.r1 = wide.split_off(width);
        Some(ctx)
    }

    /// Limbs per residue.
    fn width(&self) -> usize {
        self.n.len()
    }

    /// A secret exponent padded to exactly the context's width, so the
    /// constant-time ladder's length is the modulus size, not the
    /// exponent's.
    ///
    /// # Panics
    ///
    /// Panics if `e` has more bits than the width holds.
    pub(crate) fn exponent(&self, e: &BigUint) -> Vec<u64> {
        limbs_of(e, self.width())
    }

    /// Scratch for [`MontCtx::square`].
    pub(crate) fn scratch(&self) -> Vec<u64> {
        vec![0; self.width() + 2]
    }

    /// `x·R mod n`, for any `x < n·R` (so any `x` below `n²`).
    ///
    /// Branches only on the width of `x`, which every caller treats as
    /// public (a ciphertext, an encoded message, a Miller–Rabin base).
    ///
    /// # Panics
    ///
    /// Panics if `x` is wider than twice the context's width.
    pub(crate) fn to_mont(&self, x: &BigUint) -> Vec<u64> {
        let s = self.width();
        let mut t = vec![0u64; s + 2];
        if x.bits() <= 64 * s {
            // x < R, so x·R² < n·R: one multiply.
            self.cios_mul(&limbs_of(x, s), &self.r2, &mut t);
        } else {
            // REDC(x) = x·R⁻¹; two multiplies by R² then give x·R.
            let mut wide = limbs_of(x, 2 * s);
            self.redc_wide(&mut wide);
            self.cios_mul(&wide[s..], &self.r2, &mut t);
            wide[..s].copy_from_slice(&t[..s]);
            self.cios_mul(&wide[..s], &self.r2, &mut t);
        }
        t.truncate(s);
        t
    }

    /// `x·R⁻¹ mod n`: leaves Montgomery form.
    pub(crate) fn redc(&self, x: &[u64]) -> Vec<u64> {
        let s = self.width();
        let mut wide = vec![0u64; 2 * s];
        wide[..s].copy_from_slice(x);
        self.redc_wide(&mut wide);
        wide.split_off(s)
    }

    /// `x ← x²` in Montgomery form; `t` comes from [`MontCtx::scratch`].
    pub(crate) fn square(&self, x: &mut [u64], t: &mut [u64]) {
        self.cios_mul(x, x, t);
        x.copy_from_slice(&t[..self.width()]);
    }

    /// `base^exp` with a secret, [`MontCtx::exponent`]-padded `exp`, both
    /// sides in Montgomery form, on the constant-time windowed ladder.
    pub(crate) fn pow_ct(&self, base: &[u64], exp: &[u64]) -> Vec<u64> {
        let s = self.width();
        let mut acc = base.to_vec();
        // The window table, plus one slot for the entry each window selects.
        let mut table = vec![0u64; (TABLE + 1) * s];
        let mut t = vec![0u64; s + 2];
        self.ladder_ct(&mut acc, exp, &mut table, &mut t);
        acc
    }

    /// `base^exp mod n` for a public exponent (square-and-multiply, whose
    /// time depends on `exp`); `base` must be below `n·R`.
    pub(crate) fn pow_public(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let base = self.to_mont(base);
        let mut acc = self.r1.clone();
        let mut t = vec![0u64; self.width() + 2];
        self.ladder_vartime(&mut acc, &base, exp, &mut t);
        from_limbs(&self.redc(&acc))
    }

    /// Garner's CRT recombination `m2 + q·(q⁻¹·(m1 − m2) mod p)` with `self`
    /// the context of `p`, in constant time.
    ///
    /// `m1 < p` and `m2 < q` are plain residues of this width, `q_inv` is
    /// `q⁻¹ mod p` in this context's Montgomery form, and `q` has the same
    /// width as `p`.
    pub(crate) fn crt_combine(
        &self,
        m1: &[u64],
        m2: &[u64],
        q_inv: &[u64],
        q: &MontCtx,
    ) -> BigUint {
        let s = self.width();
        debug_assert_eq!(q.width(), s);
        let mut t = vec![0u64; s + 2];
        // h = m1·q⁻¹ − m2·q⁻¹ (mod p). Both products come out reduced below
        // p (m2 < q < R keeps the second one in range), so a negative
        // difference needs exactly one masked add of p.
        self.cios_mul(m1, q_inv, &mut t);
        let mut h = t[..s].to_vec();
        self.cios_mul(m2, q_inv, &mut t);
        let mut borrow = 0u64;
        for (hj, &tj) in h.iter_mut().zip(&t[..s]) {
            let (d, b1) = hj.overflowing_sub(tj);
            let (d, b2) = d.overflowing_sub(borrow);
            *hj = d;
            borrow = (b1 | b2) as u64;
        }
        let mask = borrow.wrapping_neg();
        let mut carry = 0u64;
        for (hj, &pj) in h.iter_mut().zip(&self.n) {
            let v = *hj as u128 + (pj & mask) as u128 + carry as u128;
            *hj = v as u64;
            carry = (v >> 64) as u64;
        }
        // m = m2 + h·q < p·q: a fixed-width schoolbook multiply-add.
        let mut m = vec![0u64; 2 * s];
        m[..s].copy_from_slice(m2);
        for (i, &hi) in h.iter().enumerate() {
            let mut carry = 0u64;
            for (mj, &qj) in m[i..i + s].iter_mut().zip(&q.n) {
                let v = *mj as u128 + hi as u128 * qj as u128 + carry as u128;
                *mj = v as u64;
                carry = (v >> 64) as u64;
            }
            m[i + s] = carry;
        }
        from_limbs(&m)
    }

    /// CIOS Montgomery multiplication: `t[..width] = a·b·R⁻¹ mod n`.
    ///
    /// `a` and `b` are `width` limbs with `a·b < n·R` (both below `n`, or
    /// one below `n` and the other below `R`); `t` is `width + 2` limbs of
    /// scratch, reused across the whole exponentiation.
    fn cios_mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = &self.n;
        let s = n.len();
        debug_assert!(a.len() == s && b.len() == s && t.len() == s + 2);
        t.fill(0);
        for &ai in a {
            // t += a[i]·b
            let mut carry = 0u64;
            for (tj, &bj) in t[..s].iter_mut().zip(b) {
                let v = *tj as u128 + ai as u128 * bj as u128 + carry as u128;
                *tj = v as u64;
                carry = (v >> 64) as u64;
            }
            let v = t[s] as u128 + carry as u128;
            t[s] = v as u64;
            t[s + 1] = (v >> 64) as u64;

            // t = (t + m·n) / 2⁶⁴ with m chosen so the low limb vanishes.
            let m = t[0].wrapping_mul(self.n0_inv);
            let mut carry = ((t[0] as u128 + m as u128 * n[0] as u128) >> 64) as u64;
            for j in 1..s {
                let v = t[j] as u128 + m as u128 * n[j] as u128 + carry as u128;
                t[j - 1] = v as u64;
                carry = (v >> 64) as u64;
            }
            let v = t[s] as u128 + carry as u128;
            t[s - 1] = v as u64;
            t[s] = t[s + 1] + (v >> 64) as u64;
        }
        let top = t[s];
        self.sub_n_masked(&mut t[..s], top);
    }

    /// Montgomery reduction of a double-width `x < n·R` in place: leaves
    /// `x·R⁻¹ mod n` in `x[width..]`.
    fn redc_wide(&self, x: &mut [u64]) {
        let n = &self.n;
        let s = n.len();
        debug_assert_eq!(x.len(), 2 * s);
        let mut top = 0u64;
        for i in 0..s {
            let m = x[i].wrapping_mul(self.n0_inv);
            let mut carry = 0u64;
            for (xj, &nj) in x[i..i + s].iter_mut().zip(n) {
                let v = *xj as u128 + m as u128 * nj as u128 + carry as u128;
                *xj = v as u64;
                carry = (v >> 64) as u64;
            }
            let v = x[i + s] as u128 + carry as u128 + top as u128;
            x[i + s] = v as u64;
            top = (v >> 64) as u64;
        }
        self.sub_n_masked(&mut x[s..], top);
    }

    /// Subtracts `n` from `v + top·R` (known to be below `2n`) iff it is at
    /// least `n`, without branching on which.
    fn sub_n_masked(&self, v: &mut [u64], top: u64) {
        let mut borrow = 0u64;
        for (&vj, &nj) in v.iter().zip(&self.n) {
            let (d, b1) = vj.overflowing_sub(nj);
            let (_, b2) = d.overflowing_sub(borrow);
            borrow = (b1 | b2) as u64;
        }
        // v + top·R ≥ n iff the top limb is set or v − n does not borrow.
        let mask = (top | (borrow ^ 1)).wrapping_neg();
        let mut borrow = 0u64;
        for (vj, &nj) in v.iter_mut().zip(&self.n) {
            let (d, b1) = vj.overflowing_sub(nj & mask);
            let (d, b2) = d.overflowing_sub(borrow);
            *vj = d;
            borrow = (b1 | b2) as u64;
        }
    }

    /// Fixed 4-bit-window ladder: `acc ← acc^exp`, Montgomery form in and
    /// out. Every window costs four squarings, one masked table scan and
    /// one multiply, whatever its digit; `table` holds `TABLE + 1` entries.
    fn ladder_ct(&self, acc: &mut [u64], exp: &[u64], table: &mut [u64], t: &mut [u64]) {
        let s = self.width();
        let (table, sel) = table.split_at_mut(TABLE * s);
        table[..s].copy_from_slice(&self.r1);
        table[s..2 * s].copy_from_slice(acc);
        for k in 2..TABLE {
            let (done, next) = table.split_at_mut(k * s);
            self.cios_mul(&done[(k - 1) * s..], acc, t);
            next[..s].copy_from_slice(&t[..s]);
        }
        acc.copy_from_slice(&self.r1);
        for w in (0..exp.len() * 64 / WINDOW).rev() {
            for _ in 0..WINDOW {
                self.cios_mul(acc, acc, t);
                acc.copy_from_slice(&t[..s]);
            }
            let bit = w * WINDOW;
            let digit = (exp[bit / 64] >> (bit % 64)) & (TABLE as u64 - 1);
            select_ct(table, digit, sel);
            self.cios_mul(acc, sel, t);
            acc.copy_from_slice(&t[..s]);
        }
    }

    /// Left-to-right square-and-multiply for a *public* exponent:
    /// `acc ← acc·base^exp`, Montgomery form in and out.
    fn ladder_vartime(&self, acc: &mut [u64], base: &[u64], exp: &BigUint, t: &mut [u64]) {
        let s = self.width();
        for i in (0..exp.bits()).rev() {
            self.cios_mul(acc, acc, t);
            acc.copy_from_slice(&t[..s]);
            if exp.bit(i) {
                self.cios_mul(acc, base, t);
                acc.copy_from_slice(&t[..s]);
            }
        }
    }
}

/// `out = table[digit]`, reading every entry of `table` under a mask so the
/// memory access pattern is independent of `digit`.
fn select_ct(table: &[u64], digit: u64, out: &mut [u64]) {
    out.fill(0);
    for (k, entry) in table.chunks_exact(out.len()).enumerate() {
        // All ones iff k == digit: (k ^ digit) − 1 wraps to the top bit only at 0.
        let mask = ((k as u64 ^ digit).wrapping_sub(1) >> 63).wrapping_neg();
        for (o, &e) in out.iter_mut().zip(entry) {
            *o |= e & mask;
        }
    }
}

/// `x` as exactly `width` little-endian `u64` limbs.
///
/// # Panics
///
/// Panics if `x` does not fit.
fn limbs_of(x: &BigUint, width: usize) -> Vec<u64> {
    let mut out = vec![0u64; width];
    for (i, &l) in x.limbs.iter().enumerate() {
        out[i / 2] |= (l as u64) << (32 * (i % 2));
    }
    out
}

/// The integer held in little-endian `u64` limbs.
fn from_limbs(limbs: &[u64]) -> BigUint {
    let mut x =
        BigUint { limbs: limbs.iter().flat_map(|&l| [l as u32, (l >> 32) as u32]).collect() };
    x.normalize();
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::CryptoRng;
    use proptest::prelude::*;

    /// The bit-serial `u32`-limb Montgomery exponentiation this module
    /// replaced, kept verbatim as the oracle for the old ≡ new property.
    mod reference {
        use crate::bigint::BigUint;

        /// Montgomery context for fast modular multiplication modulo an odd modulus.
        pub(super) struct Montgomery {
            n: BigUint,
            /// `-n^{-1} mod 2^32`.
            n0_inv: u32,
            /// `R^2 mod n` where `R = 2^(32 * limbs)`.
            rr: BigUint,
            limbs: usize,
        }

        impl Montgomery {
            pub(super) fn new(n: &BigUint) -> Self {
                debug_assert!(n.is_odd());
                let limbs = n.limbs.len();
                // Newton iteration for the inverse of n[0] modulo 2^32.
                let n0 = n.limbs[0];
                let mut inv = 1u32;
                for _ in 0..5 {
                    inv = inv.wrapping_mul(2u32.wrapping_sub(n0.wrapping_mul(inv)));
                }
                debug_assert_eq!(n0.wrapping_mul(inv), 1);
                let n0_inv = inv.wrapping_neg();
                let r = BigUint::one().shl(32 * limbs);
                let rr = r.mul(&r).rem(n);
                Montgomery { n: n.clone(), n0_inv, rr, limbs }
            }

            /// CIOS Montgomery multiplication: returns `a * b * R^-1 mod n`.
            fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
                let s = self.limbs;
                let mut t = vec![0u32; s + 2];
                for i in 0..s {
                    let ai = a.limbs.get(i).copied().unwrap_or(0) as u64;
                    // t += a[i] * b
                    let mut carry = 0u64;
                    for (j, tj) in t.iter_mut().enumerate().take(s) {
                        let bj = b.limbs.get(j).copied().unwrap_or(0) as u64;
                        let sum = *tj as u64 + ai * bj + carry;
                        *tj = sum as u32;
                        carry = sum >> 32;
                    }
                    let sum = t[s] as u64 + carry;
                    t[s] = sum as u32;
                    t[s + 1] = t[s + 1].wrapping_add((sum >> 32) as u32);

                    // m = t[0] * n0_inv mod 2^32; t += m * n; t >>= 32
                    let m = (t[0].wrapping_mul(self.n0_inv)) as u64;
                    // t[0] + m*n[0] == 0 mod 2^32 by construction, keep only carry.
                    let mut carry = (t[0] as u64 + m * self.n.limbs[0] as u64) >> 32;
                    for j in 1..s {
                        let sum = t[j] as u64 + m * self.n.limbs[j] as u64 + carry;
                        t[j - 1] = sum as u32;
                        carry = sum >> 32;
                    }
                    let sum = t[s] as u64 + carry;
                    t[s - 1] = sum as u32;
                    let sum2 = t[s + 1] as u64 + (sum >> 32);
                    t[s] = sum2 as u32;
                    t[s + 1] = (sum2 >> 32) as u32;
                }
                let mut result = BigUint { limbs: t[..=s].to_vec() };
                result.normalize();
                if result >= self.n {
                    result = result.checked_sub(&self.n).expect("result >= n");
                }
                result
            }

            pub(super) fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
                let base_red = base.rem(&self.n);
                let mont_base = self.mont_mul(&base_red, &self.rr);
                // mont(1) = R mod n.
                let mut acc = self.mont_mul(&BigUint::one(), &self.rr);
                for i in (0..exp.bits()).rev() {
                    acc = self.mont_mul(&acc, &acc);
                    if exp.bit(i) {
                        acc = self.mont_mul(&acc, &mont_base);
                    }
                }
                self.mont_mul(&acc, &BigUint::one())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Both ladders and both `to_mont` paths agree with the bit-serial
        /// reference on random odd moduli of 64–2048 bits, for exponents 0,
        /// 1, n − 1, all-ones across the width, and random, and for bases
        /// above `n`.
        #[test]
        fn mont_core_matches_bit_serial_reference(bits in 64usize..=2048, kind in 0u8..5, seed: u64) {
            let mut rng = CryptoRng::from_seed(seed);
            let mut n = BigUint::random_bits(bits, &mut rng);
            if n.is_even() {
                n = n.add(&BigUint::one());
            }
            let ctx = MontCtx::new(&n).expect("odd modulus above 1");
            let exp = match kind {
                0 => BigUint::zero(),
                1 => BigUint::one(),
                2 => n.checked_sub(&BigUint::one()).expect("n > 1"),
                3 => BigUint::one().shl(64 * ctx.width()).checked_sub(&BigUint::one()).expect("R > 1"),
                _ => BigUint::random_below(&n, &mut rng),
            };
            // At least n and below n·R: up to 39 bits wider than n.
            let base = BigUint::random_bits(bits + 1 + (seed % 39) as usize, &mut rng);
            let expected = reference::Montgomery::new(&n).modpow(&base, &exp);

            prop_assert_eq!(base.modpow(&exp, &n), expected.clone());
            let base_m = ctx.to_mont(&base);
            prop_assert_eq!(&base_m, &ctx.to_mont(&base.rem(&n)));
            let ct = ctx.redc(&ctx.pow_ct(&base_m, &ctx.exponent(&exp)));
            prop_assert_eq!(from_limbs(&ct), expected);
        }
    }

    #[test]
    fn select_reads_the_indexed_entry() {
        let table: Vec<u64> = (0..(TABLE * 3) as u64).collect();
        let mut out = [0u64; 3];
        for digit in 0..TABLE as u64 {
            select_ct(&table, digit, &mut out);
            let k = digit * 3;
            assert_eq!(out, [k, k + 1, k + 2]);
        }
    }

    #[test]
    fn masked_subtraction_reduces_exactly_once() {
        let ctx = MontCtx::new(&BigUint::from_u64(0xffff_ffff_ffff_ffc5)).expect("odd");
        let n = ctx.n[0];
        for (v, top, want) in [(0, 0, 0), (n - 1, 0, n - 1), (n, 0, 0), (u64::MAX, 0, u64::MAX - n)]
        {
            let mut x = [v];
            ctx.sub_n_masked(&mut x, top);
            assert_eq!(x[0], want, "v = {v:#x}");
        }
        // v + R with v + R < 2n: the top limb alone forces the subtraction.
        let mut x = [5u64];
        ctx.sub_n_masked(&mut x, 1);
        assert_eq!(x[0], 5u64.wrapping_sub(n));
    }

    #[test]
    fn crt_combine_recovers_the_residue() {
        let (p, q) = (BigUint::from_u64(1_000_000_007), BigUint::from_u64(998_244_353));
        let (cp, cq) = (MontCtx::new(&p).expect("odd"), MontCtx::new(&q).expect("odd"));
        let q_inv = cp.to_mont(&q.mod_inverse(&p).expect("coprime"));
        let n = p.mul(&q);
        for m in [0u64, 1, 998_244_352, 1_000_000_006, 123_456_789_987_654_321] {
            let m = BigUint::from_u64(m).rem(&n);
            let (m1, m2) = (limbs_of(&m.rem(&p), 1), limbs_of(&m.rem(&q), 1));
            assert_eq!(cp.crt_combine(&m1, &m2, &q_inv, &cq), m);
        }
    }
}
