//! Random number source used across the workspace.
//!
//! Wraps [`rand`]'s `StdRng` behind a small, deterministic-friendly facade:
//! every experiment in the reproduction is seeded so that datasets, keys and
//! nonces are reproducible run-to-run.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A seedable cryptographic-quality random source.
///
/// ```
/// use scbr_crypto::rng::CryptoRng;
///
/// let mut a = CryptoRng::from_seed(1);
/// let mut b = CryptoRng::from_seed(1);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic per seed
/// ```
#[derive(Debug, Clone)]
pub struct CryptoRng {
    inner: StdRng,
}

impl CryptoRng {
    /// Creates a deterministic generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        CryptoRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Creates a generator seeded from the operating system.
    // lint: allow(SL08, the only OS-entropy constructor; every caller seeds on purpose)
    pub fn from_os() -> Self {
        CryptoRng { inner: StdRng::from_os_rng() }
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// Returns a uniformly random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Returns a uniformly random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    /// Returns a uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a uniformly random `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Flips a coin that lands heads with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = CryptoRng::from_seed(7);
        let mut b = CryptoRng::from_seed(7);
        let mut c = CryptoRng::from_seed(8);
        let va: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..10).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = CryptoRng::from_seed(1);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..100 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = CryptoRng::from_seed(2);
        for _ in 0..1000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = CryptoRng::from_seed(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn fill_changes_buffer() {
        let mut rng = CryptoRng::from_seed(4);
        let mut buf = [0u8; 64];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
