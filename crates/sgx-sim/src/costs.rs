//! Calibrated cost model for the simulated memory hierarchy.
//!
//! The SCBR paper's measurements were taken on an Intel Skylake i7-6700
//! (3.4 GHz, 8 MB LLC) with 128 MB of EPC. Real SGX hardware being
//! unavailable (and since deprecated on client CPUs), this reproduction
//! replays the same *memory-hierarchy physics* on a virtual clock:
//!
//! * every data-structure access goes through a set-associative LLC model;
//! * an LLC miss costs a DRAM access, plus — inside an enclave — the memory
//!   encryption engine (MEE) surcharge for decrypting the cache line and
//!   walking the integrity tree;
//! * enclave working sets beyond the usable EPC trigger page swaps serviced
//!   by the (simulated) SGX driver, orders of magnitude costlier than the
//!   native minor faults the same workload suffers outside.
//!
//! Constants below are drawn from the paper's observed ratios (Figures 5–8)
//! and contemporaneous SGX microbenchmark literature (MEE overhead and
//! EWB/ELD costs). They are deliberately exposed so experiments can sweep
//! them.

/// Cost model in nanoseconds of virtual time.
///
/// The defaults reproduce the paper's qualitative behaviour: enclave and
/// native execution track each other while the working set fits the LLC,
/// drift apart by tens of percent once it spills (MEE surcharge on every
/// miss), and diverge by an order of magnitude or more once EPC paging
/// begins.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cost of an access served by the (modelled) L1/L2 plus pipeline —
    /// charged on every touched cache line regardless of LLC outcome.
    pub base_access_ns: f64,
    /// Additional cost when the line hits in the LLC.
    pub llc_hit_ns: f64,
    /// Additional cost of a DRAM fetch on an LLC miss (native and enclave).
    pub dram_ns: f64,
    /// MEE surcharge per LLC miss inside an enclave: cache-line decryption
    /// plus integrity-tree verification.
    pub mee_ns: f64,
    /// Extra MEE cost per integrity-tree level actually walked.
    pub mee_tree_level_ns: f64,
    /// Native (outside-enclave) minor page fault on first touch. Native
    /// pages default to 2 MiB (transparent huge pages), which is what makes
    /// the paper's in/out *fault-count* ratio explode to ~10⁴ in Figure 8:
    /// the native process faults once per 2 MiB of growth while the enclave
    /// faults per 4 KiB page swap.
    pub native_minor_fault_ns: f64,
    /// Enclave first-touch EPC page admission (EADD-after-init / EAUG-like).
    pub epc_admit_ns: f64,
    /// Full enclave page swap: EWB of the victim plus ELD of the target,
    /// including the driver round-trip and integrity-tree updates.
    pub epc_swap_ns: f64,
    /// Per-message bookkeeping on the router: Base64 decode,
    /// deserialisation, allocation. Charged once per registration and per
    /// matched publication.
    pub message_parse_ns: f64,
    /// Crossing into the enclave (EENTER).
    pub eenter_ns: f64,
    /// Crossing out of the enclave (EEXIT).
    pub eexit_ns: f64,
    /// Fixed overhead of an OCALL (beyond the two crossings).
    pub ocall_ns: f64,
    /// CPU cost of evaluating one predicate comparison. The covering
    /// forest charges it per publication, also when one walk matches a
    /// batch: a node's constraints once for each publication alive at it,
    /// a rejected candidate once for each publication it rejects. The
    /// node's memory read, by contrast, is charged once per walk, so
    /// shared node reads are all the virtual time a batch walk saves.
    pub predicate_eval_ns: f64,
    /// CPU cost of one AES block operation (16 bytes) in software.
    pub aes_block_ns: f64,
    /// Fixed per-message cost of a decrypt/encrypt call (key schedule,
    /// buffer management, serialisation glue). With `aes_block_ns` this
    /// reproduces the paper's "below 5 µs" constant encryption overhead.
    pub crypto_setup_ns: f64,
    /// CPU cost of one floating-point multiply-add (ASPE's quadratic-form
    /// evaluations are flop-bound).
    pub flop_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            base_access_ns: 1.2,
            llc_hit_ns: 11.0,
            dram_ns: 60.0,
            mee_ns: 400.0,
            mee_tree_level_ns: 12.0,
            native_minor_fault_ns: 1_500.0,
            epc_admit_ns: 6_000.0,
            epc_swap_ns: 12_000.0,
            message_parse_ns: 4_000.0,
            eenter_ns: 1_900.0,
            eexit_ns: 1_900.0,
            ocall_ns: 3_800.0,
            predicate_eval_ns: 2.0,
            aes_block_ns: 150.0,
            crypto_setup_ns: 2_000.0,
            flop_ns: 1.0,
        }
    }
}

impl CostModel {
    /// A cost model where everything is free — useful for functional tests
    /// that assert on counters rather than time.
    pub fn free() -> Self {
        CostModel {
            base_access_ns: 0.0,
            llc_hit_ns: 0.0,
            dram_ns: 0.0,
            mee_ns: 0.0,
            mee_tree_level_ns: 0.0,
            native_minor_fault_ns: 0.0,
            epc_admit_ns: 0.0,
            epc_swap_ns: 0.0,
            message_parse_ns: 0.0,
            eenter_ns: 0.0,
            eexit_ns: 0.0,
            ocall_ns: 0.0,
            predicate_eval_ns: 0.0,
            aes_block_ns: 0.0,
            crypto_setup_ns: 0.0,
            flop_ns: 0.0,
        }
    }
}

/// Geometry of the simulated last-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache-line size in bytes (power of two).
    pub line_size: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // The paper's i7-6700: 8 MB shared LLC, 16-way, 64-byte lines.
        CacheConfig { capacity: 8 * 1024 * 1024, ways: 16, line_size: 64 }
    }
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways * line_size` sets, or non-power-of-two line size).
    pub fn sets(&self) -> usize {
        assert!(self.line_size.is_power_of_two(), "line size must be a power of two");
        assert!(self.ways > 0 && self.capacity > 0, "cache must be non-empty");
        let lines = self.capacity / self.line_size;
        assert_eq!(lines * self.line_size, self.capacity, "capacity must be whole lines");
        let sets = lines / self.ways;
        assert!(sets > 0, "at least one set required");
        assert_eq!(sets * self.ways, lines, "lines must divide into ways evenly");
        sets
    }
}

/// Geometry of the enclave page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpcConfig {
    /// Total EPC reserved at boot (the paper's machine: 128 MB).
    pub total_bytes: usize,
    /// Bytes usable by enclave applications; the remainder holds SGX
    /// metadata. The paper observes paging "just over 90 MB".
    pub usable_bytes: usize,
    /// Page size (4 KiB on SGX1).
    pub page_size: usize,
}

impl Default for EpcConfig {
    fn default() -> Self {
        EpcConfig {
            total_bytes: 128 * 1024 * 1024,
            usable_bytes: 93 * 1024 * 1024,
            page_size: 4096,
        }
    }
}

impl EpcConfig {
    /// Number of resident pages the EPC can hold for applications.
    pub fn capacity_pages(&self) -> usize {
        self.usable_bytes / self.page_size
    }

    /// Depth of the integrity tree protecting the EPC (8-ary counter tree
    /// over pages, following the MEE design).
    pub fn integrity_tree_depth(&self) -> usize {
        let pages = (self.total_bytes / self.page_size).max(1);
        // ceil(log8(pages))
        let mut depth = 0usize;
        let mut cover = 1usize;
        while cover < pages {
            cover *= 8;
            depth += 1;
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cache_geometry() {
        let c = CacheConfig::default();
        assert_eq!(c.sets(), 8 * 1024 * 1024 / 64 / 16);
    }

    #[test]
    fn small_cache_geometry() {
        let c = CacheConfig { capacity: 4096, ways: 4, line_size: 64 };
        assert_eq!(c.sets(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig { capacity: 4096, ways: 4, line_size: 48 }.sets();
    }

    #[test]
    fn epc_capacity() {
        let e = EpcConfig::default();
        assert_eq!(e.capacity_pages(), 93 * 1024 * 1024 / 4096);
        assert!(e.integrity_tree_depth() >= 5); // 32768 pages -> log8 = 5
    }

    #[test]
    fn integrity_tree_depth_monotonic() {
        let small = EpcConfig { total_bytes: 1 << 20, usable_bytes: 1 << 19, page_size: 4096 };
        let big = EpcConfig::default();
        assert!(small.integrity_tree_depth() <= big.integrity_tree_depth());
    }

    #[test]
    fn free_model_is_all_zero() {
        let f = CostModel::free();
        assert_eq!(f.dram_ns, 0.0);
        assert_eq!(f.epc_swap_ns, 0.0);
    }
}
