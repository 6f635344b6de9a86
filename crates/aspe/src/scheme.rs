//! The core ASPE transformation: scalar-product/quadratic-form preserving
//! encryption with a secret invertible matrix.
//!
//! * Points: `p' = Mᵀ·(r·p̂)`, `r > 0` fresh per encryption.
//! * Quadratic forms: `W' = M⁻¹·W·M⁻ᵀ`.
//! * Invariant: `p'ᵀ·W'·p' = r²·(p̂ᵀ·W·p̂)` — same *sign*, scrambled
//!   magnitude, and `p'` reveals nothing about `p̂` without `M`.

use crate::error::AspeError;
use crate::matrix::Matrix;
use scbr_crypto::rng::CryptoRng;

/// The ASPE secret key: an invertible matrix and its precomputed helpers.
#[derive(Clone)]
pub struct AspeKey {
    dim: usize,
    m_t: Matrix,
    m_inv: Matrix,
    m_inv_t: Matrix,
}

impl std::fmt::Debug for AspeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The matrices *are* the secret; print only the dimension.
        f.debug_struct("AspeKey").field("dim", &self.dim).finish()
    }
}

impl AspeKey {
    /// Generates a key for `dim`-dimensional embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn generate(dim: usize, rng: &mut CryptoRng) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let m = Matrix::random_invertible(dim, rng);
        let m_inv = m.inverse().expect("random_invertible is invertible");
        AspeKey { dim, m_t: m.transpose(), m_inv_t: m_inv.transpose(), m_inv }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encrypts a point with a fresh positive random scale.
    ///
    /// # Errors
    ///
    /// [`AspeError::DimensionMismatch`] when `point` has the wrong length.
    pub fn encrypt_point(&self, point: &[f64], rng: &mut CryptoRng) -> Result<Vec<f64>, AspeError> {
        if point.len() != self.dim {
            return Err(AspeError::DimensionMismatch { expected: self.dim, got: point.len() });
        }
        let r = 0.5 + rng.unit_f64(); // r in [0.5, 1.5): positive, masks magnitude
        let scaled: Vec<f64> = point.iter().map(|v| v * r).collect();
        self.m_t.mul_vec(&scaled)
    }

    /// Encrypts a quadratic-form matrix.
    ///
    /// # Errors
    ///
    /// [`AspeError::DimensionMismatch`] for wrongly sized forms.
    pub fn encrypt_form(&self, w: &Matrix) -> Result<Matrix, AspeError> {
        if w.rows() != self.dim || w.cols() != self.dim {
            return Err(AspeError::DimensionMismatch { expected: self.dim, got: w.rows() });
        }
        self.m_inv.mul(w)?.mul(&self.m_inv_t)
    }
}

/// Builds the quadratic form testing `lo ≤ x` at `attr_slot` with the
/// constant 1 in `const_slot`: `(x − lo) ≥ 0` as `p̂ᵀ·W·p̂`.
pub fn form_ge(dim: usize, attr_slot: usize, const_slot: usize, lo: f64) -> Matrix {
    let mut w = Matrix::zeros(dim, dim);
    // x·1 terms, split symmetrically; constant term −lo·1².
    w.set(attr_slot, const_slot, 0.5);
    w.set(const_slot, attr_slot, 0.5);
    w.set(const_slot, const_slot, -lo);
    w
}

/// Quadratic form for `x ≤ hi`: `(hi − x) ≥ 0`.
pub fn form_le(dim: usize, attr_slot: usize, const_slot: usize, hi: f64) -> Matrix {
    let mut w = Matrix::zeros(dim, dim);
    w.set(attr_slot, const_slot, -0.5);
    w.set(const_slot, attr_slot, -0.5);
    w.set(const_slot, const_slot, hi);
    w
}

/// Quadratic form for `lo ≤ x ≤ hi`: `(x − lo)(hi − x) ≥ 0`.
pub fn form_between(dim: usize, attr_slot: usize, const_slot: usize, lo: f64, hi: f64) -> Matrix {
    // (x − lo)(hi − x) = −x² + (lo + hi)·x − lo·hi
    let mut w = Matrix::zeros(dim, dim);
    w.set(attr_slot, attr_slot, -1.0);
    w.set(attr_slot, const_slot, (lo + hi) / 2.0);
    w.set(const_slot, attr_slot, (lo + hi) / 2.0);
    w.set(const_slot, const_slot, -lo * hi);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the plain embedding (value at slot 0, constant at slot 1,
    /// noise at slot 2).
    fn embed(x: f64, noise: f64) -> Vec<f64> {
        vec![x, 1.0, noise]
    }

    #[test]
    fn plain_forms_encode_comparisons() {
        let ge = form_ge(3, 0, 1, 10.0);
        assert!(ge.quadratic_form(&embed(11.0, 0.3)).unwrap() > 0.0);
        assert!(ge.quadratic_form(&embed(9.0, 0.3)).unwrap() < 0.0);
        let le = form_le(3, 0, 1, 10.0);
        assert!(le.quadratic_form(&embed(9.0, 0.7)).unwrap() > 0.0);
        assert!(le.quadratic_form(&embed(11.0, 0.7)).unwrap() < 0.0);
        let between = form_between(3, 0, 1, 5.0, 10.0);
        assert!(between.quadratic_form(&embed(7.0, 0.1)).unwrap() > 0.0);
        assert!(between.quadratic_form(&embed(4.0, 0.1)).unwrap() < 0.0);
        assert!(between.quadratic_form(&embed(11.0, 0.1)).unwrap() < 0.0);
    }

    #[test]
    fn encryption_preserves_signs() {
        let mut rng = CryptoRng::from_seed(1);
        let key = AspeKey::generate(3, &mut rng);
        let w = form_between(3, 0, 1, 5.0, 10.0);
        let w_enc = key.encrypt_form(&w).unwrap();
        for (x, expected_inside) in
            [(7.0, true), (5.5, true), (9.9, true), (4.0, false), (12.0, false), (-3.0, false)]
        {
            let p_enc = key.encrypt_point(&embed(x, rng.unit_f64()), &mut rng).unwrap();
            let val = w_enc.quadratic_form(&p_enc).unwrap();
            assert_eq!(val > 0.0, expected_inside, "x = {x}, got {val}");
        }
    }

    #[test]
    fn ciphertexts_are_randomised() {
        let mut rng = CryptoRng::from_seed(2);
        let key = AspeKey::generate(3, &mut rng);
        let a = key.encrypt_point(&embed(7.0, 0.5), &mut rng).unwrap();
        let b = key.encrypt_point(&embed(7.0, 0.5), &mut rng).unwrap();
        assert_ne!(a, b, "fresh scaling per encryption");
    }

    #[test]
    fn ciphertext_hides_plaintext_slots() {
        // The encrypted vector should not contain the plaintext value in
        // any slot (matrix mixing).
        let mut rng = CryptoRng::from_seed(3);
        let key = AspeKey::generate(3, &mut rng);
        let p = key.encrypt_point(&embed(42.0, 0.9), &mut rng).unwrap();
        assert!(p.iter().all(|&v| (v - 42.0).abs() > 1.0));
    }

    #[test]
    fn wrong_dimension_rejected() {
        let mut rng = CryptoRng::from_seed(4);
        let key = AspeKey::generate(3, &mut rng);
        assert!(key.encrypt_point(&[1.0, 2.0], &mut rng).is_err());
        assert!(key.encrypt_form(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn different_keys_do_not_interoperate() {
        // Evaluating with a mismatched key pair gives garbage (sign no
        // longer reliable across many trials).
        let mut rng = CryptoRng::from_seed(5);
        let key_a = AspeKey::generate(3, &mut rng);
        let key_b = AspeKey::generate(3, &mut rng);
        let w_enc_b = key_b.encrypt_form(&form_ge(3, 0, 1, 0.0)).unwrap();
        let mut wrong = 0;
        for i in 0..50 {
            // x = i+1 is far above the bound 0; correct evaluation is
            // always positive.
            let p_enc_a =
                key_a.encrypt_point(&embed((i + 1) as f64, rng.unit_f64()), &mut rng).unwrap();
            if w_enc_b.quadratic_form(&p_enc_a).unwrap() <= 0.0 {
                wrong += 1;
            }
        }
        assert!(wrong > 0, "cross-key evaluation must not be consistently correct");
    }
}
