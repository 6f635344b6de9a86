//! Set-associative cache simulator with true-LRU replacement.
//!
//! Models the last-level cache of the evaluation machine. Addresses are
//! *logical* (issued by [`crate::mem::MemorySim`]'s bump allocator); only
//! tag/set behaviour is simulated, no data is stored.

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
    /// Stored tag of every way, set after set (`set * ways + way`).
    tags: Vec<u64>,
    /// Last-use tick of every way, same layout; 0 marks an invalid way
    /// (ticks start at 1). Both arrays start zeroed, which the allocator
    /// hands out lazily, so an enclave pays resident memory only for the
    /// sets it touches.
    last_use: Vec<u64>,
    n_sets: usize,
    line_shift: u32,
    tick: u64,
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
            last_use: vec![0; n_sets * config.ways],
            n_sets,
            line_shift: config.line_size.trailing_zeros(),
            tick: 0,
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
        self.tick += 1;
        let line = addr >> self.line_shift;
        let set = (line % self.n_sets as u64) as usize;
        let tag = line / self.n_sets as u64;
        let ways = set * self.config.ways..(set + 1) * self.config.ways;
        let (tags, last_use) = (&mut self.tags[ways.clone()], &mut self.last_use[ways]);

        // Hit?
        if let Some(way) = (0..tags.len()).find(|&w| last_use[w] != 0 && tags[w] == tag) {
            last_use[way] = self.tick;
            self.hits += 1;
            return Access::Hit;
        }
        // Miss: fill the first invalid way, else evict the least recently
        // used (the first minimum on a tie).
        self.misses += 1;
        let victim = (0..tags.len()).min_by_key(|&w| last_use[w]).expect("ways > 0");
        tags[victim] = tag;
        last_use[victim] = self.tick;
        Access::Miss
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

    /// Invalidates all contents and counters.
    pub fn flush(&mut self) {
        self.last_use.fill(0);
        self.reset_stats();
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

    /// Replacement order with ties: an invalid way always goes first (the
    /// lowest-numbered one), and among valid ways the oldest last use —
    /// also after a flush left every way invalid at once.
    #[test]
    fn lru_order_with_ties() {
        // 1 set of 4 ways: every line maps to it.
        let mut c = CacheSim::new(CacheConfig { capacity: 256, ways: 4, line_size: 64 });
        let line = |i: u64| i * 64;
        for i in 0..4 {
            assert_eq!(c.access(line(i)), Access::Miss); // fills ways 0..4 in order
        }
        assert_eq!(c.tags, [0, 1, 2, 3]);
        assert_eq!(c.access(line(0)), Access::Hit); // 1 is now the LRU
        assert_eq!(c.access(line(4)), Access::Miss);
        assert_eq!(c.tags, [0, 4, 2, 3]);
        assert_eq!(c.access(line(5)), Access::Miss); // then 2
        assert_eq!(c.tags, [0, 4, 5, 3]);
        c.flush();
        // All four ways tie at "invalid": the first one is filled.
        assert_eq!(c.access(line(3)), Access::Miss);
        assert_eq!(c.tags, [3, 4, 5, 3]);
        assert_eq!(c.access(line(3)), Access::Hit);
        assert_eq!(c.access(line(6)), Access::Miss);
        assert_eq!(c.tags, [3, 6, 5, 3]);
        assert_eq!(c.access(line(4)), Access::Miss, "a flushed line does not hit");
        assert_eq!(c.tags, [3, 6, 4, 3]);
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
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.access(0), Access::Miss);
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
