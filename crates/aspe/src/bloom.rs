//! Keyed Bloom filters for the equality prefilter (DEBS '12, "Thrifty
//! Privacy").
//!
//! Publications carry a Bloom filter over `(attribute, value)` pairs of
//! their equality-testable attributes, hashed with a key shared by
//! producer and subscribers (but not the router). The router can check
//! whether a subscription's equality constraints *might* be satisfied
//! without learning the values — false positives only cost an unnecessary
//! full ASPE evaluation, never a wrong result, because equality predicates
//! are also enforced by the ASPE forms or by construction of the filter.

use scbr_crypto::hmac::HmacSha256;

/// A fixed-size Bloom filter with `k` keyed hash functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: usize,
    k: u32,
}

impl BloomFilter {
    /// Creates an empty filter of `n_bits` bits with `k` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits` or `k` is zero.
    pub fn new(n_bits: usize, k: u32) -> Self {
        assert!(n_bits > 0 && k > 0, "bloom parameters must be positive");
        BloomFilter { bits: vec![0u64; n_bits.div_ceil(64)], n_bits, k }
    }

    /// Number of hash functions.
    pub fn hashes(&self) -> u32 {
        self.k
    }

    /// Filter size in bits.
    pub fn bit_len(&self) -> usize {
        self.n_bits
    }

    fn positions<'a>(&'a self, key: &'a [u8], item: &'a [u8]) -> impl Iterator<Item = usize> + 'a {
        // Two keyed 64-bit halves combined Kirsch-Mitzenmacher style.
        let digest = {
            let mut mac = HmacSha256::new(key);
            mac.update(item);
            mac.finalize()
        };
        let h1 = u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"));
        let h2 = u64::from_be_bytes(digest[8..16].try_into().expect("8 bytes"));
        let n_bits = self.n_bits as u64;
        (0..self.k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % n_bits) as usize)
    }

    /// Inserts an item hashed under `key`.
    pub fn insert(&mut self, key: &[u8], item: &[u8]) {
        let positions: Vec<usize> = self.positions(key, item).collect();
        for pos in positions {
            self.bits[pos / 64] |= 1 << (pos % 64);
        }
    }

    /// Membership test (may report false positives, never false negatives).
    pub fn contains(&self, key: &[u8], item: &[u8]) -> bool {
        self.positions(key, item).all(|pos| self.bits[pos / 64] & (1 << (pos % 64)) != 0)
    }

    /// Reads one raw bit (routers test precomputed positions without the
    /// key).
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    pub fn bit(&self, position: usize) -> bool {
        assert!(position < self.n_bits, "bit out of range");
        self.bits[position / 64] & (1 << (position % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_items_are_found() {
        let mut bf = BloomFilter::new(1024, 7);
        for i in 0..50u32 {
            bf.insert(b"key", &i.to_be_bytes());
        }
        for i in 0..50u32 {
            assert!(bf.contains(b"key", &i.to_be_bytes()));
        }
    }

    #[test]
    fn absent_items_mostly_not_found() {
        // ~10 bits per item and k = 7: p ≈ 0.01 for 100 items.
        let mut bf = BloomFilter::new(1024, 7);
        for i in 0..100u32 {
            bf.insert(b"key", &i.to_be_bytes());
        }
        let false_positives =
            (1000..3000u32).filter(|i| bf.contains(b"key", &i.to_be_bytes())).count();
        assert!(
            false_positives < 60, // ~3% upper bound on a ~1% design point
            "false positive count {false_positives}"
        );
    }

    #[test]
    fn different_keys_do_not_match() {
        let mut bf = BloomFilter::new(4096, 5);
        bf.insert(b"producer-key", b"symbol=HAL");
        assert!(bf.contains(b"producer-key", b"symbol=HAL"));
        assert!(!bf.contains(b"other-key", b"symbol=HAL"));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bf = BloomFilter::new(256, 3);
        assert!(!bf.contains(b"k", b"anything"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bits_panics() {
        BloomFilter::new(0, 3);
    }
}
