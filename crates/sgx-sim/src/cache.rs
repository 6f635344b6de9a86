//! Set-associative cache simulator with true-LRU replacement.
//!
//! Models the last-level cache of the evaluation machine. Addresses are
//! *logical* (issued by [`crate::mem::MemorySim`]'s bump allocator); only
//! tag/set behaviour is simulated, no data is stored.
//!
//! Each set is one run of tags kept in recency order, most recent first.
//! A hit moves its tag to the front; a miss shifts the run back by one way,
//! dropping the last (least recently used, or invalid) tag, and writes the
//! new tag at the front. An access therefore touches one contiguous run of
//! `ways` words and keeps no clock. Tags are stored plus one, so a zeroed
//! way is invalid, and invalid ways always sit at the back of their set.

use crate::costs::CacheConfig;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line was present.
    Hit,
    /// Line was absent and has been filled (possibly evicting).
    Miss,
}

/// A single-level set-associative cache with LRU replacement.
///
/// ```
/// use sgx_sim::cache::{CacheSim, Access};
/// use sgx_sim::costs::CacheConfig;
///
/// let mut cache = CacheSim::new(CacheConfig { capacity: 4096, ways: 2, line_size: 64 });
/// assert_eq!(cache.access(0), Access::Miss);
/// assert_eq!(cache.access(0), Access::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    /// Tag plus one of every way, set after set (`set * ways + way`), each
    /// set most recently used first; 0 marks an invalid way. The array
    /// starts zeroed, which the allocator hands out lazily, so an enclave
    /// pays resident memory only for the sets it touches.
    tags: Vec<u64>,
    n_sets: u64,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let n_sets = config.sets();
        CacheSim {
            tags: vec![0; n_sets * config.ways],
            n_sets: n_sets as u64,
            line_shift: config.line_size.trailing_zeros(),
            hits: 0,
            misses: 0,
            config,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accesses the line containing byte address `addr`.
    pub fn access(&mut self, addr: u64) -> Access {
        let line = addr >> self.line_shift;
        // A mask and a shift where the set count allows (every shipped
        // geometry), a division where it does not.
        let (set, tag) = if self.n_sets.is_power_of_two() {
            (line & (self.n_sets - 1), line >> self.n_sets.trailing_zeros())
        } else {
            (line % self.n_sets, line / self.n_sets)
        };
        let (set, key) = (set as usize, tag + 1);
        let ways = self.config.ways;
        let run = &mut self.tags[set * ways..(set + 1) * ways];
        match run.iter().position(|&t| t == key) {
            Some(way) => {
                run.copy_within(..way, 1);
                run[0] = key;
                self.hits += 1;
                Access::Hit
            }
            None => {
                run.copy_within(..ways - 1, 1);
                run[0] = key;
                self.misses += 1;
                Access::Miss
            }
        }
    }

    /// Number of hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0, 1]`; 0 if no accesses yet.
    // lint: allow(SL08, cache_accounting_is_consistent in tests/proptests.rs bounds it)
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Resets hit/miss counters (contents stay).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim {
        // 16 sets * 2 ways * 64B lines = 2 KiB.
        CacheSim::new(CacheConfig { capacity: 2048, ways: 2, line_size: 64 })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert_eq!(c.access(100), Access::Miss);
        assert_eq!(c.access(100), Access::Hit);
        assert_eq!(c.access(127), Access::Hit); // same line
        assert_eq!(c.access(128), Access::Miss); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 16 sets * 64 B).
        let stride = 16 * 64u64;
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(stride), Access::Miss);
        // Touch line 0 so `stride` becomes LRU.
        assert_eq!(c.access(0), Access::Hit);
        // Third line evicts `stride`.
        assert_eq!(c.access(2 * stride), Access::Miss);
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(stride), Access::Miss); // was evicted
    }

    /// Replacement order: a miss fills an invalid way while one is left
    /// (every way ties at "invalid" in a fresh cache, line 0 included), and
    /// then evicts the least recently used line, a hit counting as a use.
    #[test]
    fn lru_order_with_ties() {
        use Access::{Hit, Miss};
        // 1 set of 4 ways: every line maps to it.
        let mut c = CacheSim::new(CacheConfig { capacity: 256, ways: 4, line_size: 64 });
        let mut outcomes =
            |lines: &[u64]| lines.iter().map(|&i| c.access(i * 64)).collect::<Vec<_>>();
        // Four fills, no eviction: all four lines are still there.
        assert_eq!(outcomes(&[0, 1, 2, 3]), [Miss; 4]);
        assert_eq!(outcomes(&[3, 2, 1, 0]), [Hit; 4]); // recency 0 1 2 3
        assert_eq!(outcomes(&[1]), [Hit]); // recency 1 0 2 3
        assert_eq!(outcomes(&[4, 5]), [Miss, Miss]); // evict 3, then 2
        assert_eq!(outcomes(&[0, 1, 4, 5]), [Hit; 4]); // recency 5 4 1 0
        assert_eq!(outcomes(&[3]), [Miss], "3 was evicted first"); // evicts 0
        assert_eq!(outcomes(&[2]), [Miss], "2 was evicted second"); // evicts 1
        assert_eq!(outcomes(&[0, 1]), [Miss, Miss], "the least recent went next");
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = tiny();
        let lines = 2048 / 64;
        for i in 0..lines {
            c.access(i as u64 * 64);
        }
        c.reset_stats();
        for _ in 0..10 {
            for i in 0..lines {
                assert_eq!(c.access(i as u64 * 64), Access::Hit);
            }
        }
        assert_eq!(c.miss_rate(), 0.0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = tiny();
        let lines = 4 * 2048 / 64; // 4x capacity
        for _ in 0..4 {
            for i in 0..lines {
                c.access(i as u64 * 64);
            }
        }
        // Sequential sweep over 4x capacity with LRU: everything misses.
        assert!(c.miss_rate() > 0.9, "rate {}", c.miss_rate());
    }

    #[test]
    fn miss_rate_zero_when_untouched() {
        let c = tiny();
        assert_eq!(c.miss_rate(), 0.0);
    }

    #[test]
    fn default_llc_shape_matches_paper_machine() {
        let c = CacheSim::new(CacheConfig::default());
        assert_eq!(c.config().capacity, 8 * 1024 * 1024);
        assert_eq!(c.config().ways, 16);
    }
}
