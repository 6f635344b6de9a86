//! Random number source used across the workspace.
//!
//! xoshiro256++ over a SplitMix64-expanded 64-bit seed: a fast,
//! high-quality, deterministic generator. Every experiment in the
//! reproduction is seeded so that datasets, keys and nonces are
//! reproducible run-to-run; keys drawn from it are simulation-grade, not
//! production secrets.

/// A seedable, high-quality random source (see the module docs).
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
    /// The xoshiro256++ state; never all zero.
    s: [u64; 4],
}

/// One SplitMix64 step: advances `state` and returns the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CryptoRng {
    /// Creates a deterministic generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is the one forbidden state; SplitMix64 cannot
        // produce four zero outputs in a row, but keep the guard cheap.
        if s == [0; 4] {
            s[0] = 1;
        }
        CryptoRng { s }
    }

    /// Fills `buf` with random bytes: little-endian `next_u64` words, the
    /// last one truncated.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Returns a uniformly random `u64` (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly random `u32`: the high half of `next_u64`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
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

    /// Known answers recorded from the generator before it moved into
    /// this file: any change to the seeding or the step changes every
    /// seeded dataset, key and nonce in the reproduction.
    #[test]
    fn known_answers() {
        let mut zero = CryptoRng::from_seed(0);
        let draws: Vec<u64> = (0..8).map(|_| zero.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a,
                0x7eca04ebaf4a5eea,
                0x0543c37757f08d9a,
                0xdb7490c75ab5026e,
                0xd87343e6464bc959,
            ]
        );
        let mut rng = CryptoRng::from_seed(20160612);
        let draws: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0xc3c7085b562158eb,
                0x3eec2e6658379c10,
                0x347a3ac8946c085a,
                0xc8812be62c28123f,
                0xde69aa96335c8679,
                0x72656bc4c3a74c6c,
                0x982e30b7ba921aae,
                0x45ffd3f1d85ea8e5,
            ]
        );
        // A fresh generator's 37-byte fill is its first five words, little
        // endian, the fifth cut to five bytes.
        let mut rng = CryptoRng::from_seed(20160612);
        let mut buf = [0u8; 37];
        rng.fill(&mut buf);
        assert_eq!(
            buf,
            [
                0xeb, 0x58, 0x21, 0x56, 0x5b, 0x08, 0xc7, 0xc3, 0x10, 0x9c, 0x37, 0x58, 0x66, 0x2e,
                0xec, 0x3e, 0x5a, 0x08, 0x6c, 0x94, 0xc8, 0x3a, 0x7a, 0x34, 0x3f, 0x12, 0x28, 0x2c,
                0xe6, 0x2b, 0x81, 0xc8, 0x79, 0x86, 0x5c, 0x33, 0x96,
            ]
        );
        let below: Vec<u64> = (0..6).map(|_| rng.below(1000)).collect();
        assert_eq!(below, [204, 126, 213, 112, 662, 346]);
        let units: Vec<u64> = (0..3).map(|_| rng.unit_f64().to_bits()).collect();
        assert_eq!(units, [0x3fe26e96021b117d, 0x3fe2e6293660bec5, 0x3fec144ac20cec0c]);
        assert_eq!(rng.next_u32(), 0x841f4419);
    }

    #[test]
    fn fill_covers_partial_chunks() {
        let mut rng = CryptoRng::from_seed(7);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert!(buf[8..].iter().any(|&b| b != 0));
    }

    #[test]
    fn fill_changes_buffer() {
        let mut rng = CryptoRng::from_seed(4);
        let mut buf = [0u8; 64];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
