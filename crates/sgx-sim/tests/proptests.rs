//! Property-based tests for the SGX simulator's core invariants.

use proptest::prelude::*;
use scbr_crypto::ctr::SymmetricKey;
use scbr_crypto::rng::CryptoRng;
use sgx_sim::cache::{Access, CacheSim};
use sgx_sim::costs::{CacheConfig, CostModel, EpcConfig};
use sgx_sim::epc::{Epc, PageAccess};
use std::collections::HashMap;

/// The tick-stamped LRU cache that `CacheSim`'s recency-ordered sets
/// replaced, kept as its oracle: every way carries its last-use tick (0 =
/// invalid), a hit re-stamps its way, and a miss fills the way with the
/// oldest stamp, the first one on a tie.
struct ReferenceLru {
    ways: usize,
    n_sets: u64,
    tags: Vec<u64>,
    last_use: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ReferenceLru {
    fn new(n_sets: usize, ways: usize) -> Self {
        ReferenceLru {
            ways,
            n_sets: n_sets as u64,
            tags: vec![0; n_sets * ways],
            last_use: vec![0; n_sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, line: u64) -> Access {
        self.tick += 1;
        let set = (line % self.n_sets) as usize;
        let tag = line / self.n_sets;
        let ways = set * self.ways..(set + 1) * self.ways;
        let (tags, last_use) = (&mut self.tags[ways.clone()], &mut self.last_use[ways]);
        if let Some(way) = (0..tags.len()).find(|&w| last_use[w] != 0 && tags[w] == tag) {
            last_use[way] = self.tick;
            self.hits += 1;
            return Access::Hit;
        }
        self.misses += 1;
        let victim = (0..tags.len()).min_by_key(|&w| last_use[w]).expect("ways > 0");
        tags[victim] = tag;
        last_use[victim] = self.tick;
        Access::Miss
    }
}

/// The two-map, SipHash-keyed EPC that `Epc`'s single page map replaced,
/// kept as its oracle: a resident map from page to CLOCK slot beside a set
/// of every page ever seen.
struct ReferenceEpc {
    capacity_pages: usize,
    resident: HashMap<u64, usize>,
    slots: Vec<(u64, bool)>,
    clock_hand: usize,
    ever_seen: HashMap<u64, ()>,
    admissions: u64,
    swaps: u64,
    evictions: u64,
}

impl ReferenceEpc {
    fn new(capacity_pages: usize) -> Self {
        ReferenceEpc {
            capacity_pages,
            resident: HashMap::new(),
            slots: Vec::new(),
            clock_hand: 0,
            ever_seen: HashMap::new(),
            admissions: 0,
            swaps: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, page: u64) -> PageAccess {
        if let Some(&slot) = self.resident.get(&page) {
            self.slots[slot].1 = true;
            return PageAccess::Resident;
        }
        let first_time = self.ever_seen.insert(page, ()).is_none();
        if self.slots.len() < self.capacity_pages {
            let slot = self.slots.len();
            self.slots.push((page, true));
            self.resident.insert(page, slot);
        } else {
            loop {
                let (victim_page, referenced) = self.slots[self.clock_hand];
                if referenced {
                    self.slots[self.clock_hand].1 = false;
                    self.clock_hand = (self.clock_hand + 1) % self.capacity_pages;
                } else {
                    self.resident.remove(&victim_page);
                    self.evictions += 1;
                    self.slots[self.clock_hand] = (page, true);
                    self.resident.insert(page, self.clock_hand);
                    self.clock_hand = (self.clock_hand + 1) % self.capacity_pages;
                    break;
                }
            }
        }
        if first_time {
            self.admissions += 1;
            PageAccess::Admitted
        } else {
            self.swaps += 1;
            PageAccess::SwappedIn
        }
    }
}

/// A line stream for the LRU oracle: mostly lines from a range a few times
/// the largest cache below, so sets fill and evict, with line 0 and lines
/// at or above 2⁴⁰ mixed in.
fn line_stream() -> impl Strategy<Value = Vec<u64>> {
    let line = prop_oneof![
        8 => 0u64..256,
        1 => Just(0u64),
        1 => (1u64 << 40)..(1u64 << 40) + 64,
        1 => (1u64 << 40)..u64::MAX >> 6,
    ];
    proptest::collection::vec(line, 1..600)
}

/// A page stream for the EPC oracle: page ids from a small range, so the
/// CLOCK ring evicts and swaps, plus the occasional huge id.
fn page_stream() -> impl Strategy<Value = Vec<u64>> {
    let page = prop_oneof![12 => 0u64..48, 1 => any::<u64>()];
    proptest::collection::vec(page, 1..600)
}
use sgx_sim::mee::{CounterTree, ProtectedStore};
use sgx_sim::mem::{MemorySim, SimArena};

proptest! {
    /// Recency-ordered sets are the tick-stamped LRU, access for access, on
    /// every geometry: one way, one set, and ways or a set count that are
    /// not a power of two.
    #[test]
    fn cache_matches_reference_lru(lines in line_stream()) {
        for (sets, ways) in [(1, 1), (1, 2), (2, 4), (4, 16), (8, 3), (6, 4)] {
            let line_size = 64;
            let config = CacheConfig { capacity: sets * ways * line_size, ways, line_size };
            let mut cache = CacheSim::new(config);
            let mut oracle = ReferenceLru::new(sets, ways);
            for &line in &lines {
                prop_assert_eq!(cache.access(line * 64), oracle.access(line), "{}x{}", sets, ways);
            }
            prop_assert_eq!(cache.hits(), oracle.hits);
            prop_assert_eq!(cache.misses(), oracle.misses);
        }
    }

    /// The one-map EPC is the two-map EPC, touch for touch, at every
    /// capacity from one page up.
    #[test]
    fn epc_matches_reference(pages in page_stream(), cap in 1usize..32) {
        let mut epc = Epc::new(cap);
        let mut oracle = ReferenceEpc::new(cap);
        for &page in &pages {
            prop_assert_eq!(epc.touch(page), oracle.touch(page));
        }
        prop_assert_eq!(epc.evictions(), oracle.evictions);
        prop_assert_eq!(epc.resident_pages(), oracle.resident.len());
        prop_assert_eq!(epc.admissions(), oracle.admissions);
        prop_assert_eq!(epc.swaps(), oracle.swaps);
    }

    /// Hits + misses always equals the number of accesses, and residency in
    /// a cache never exceeds capacity (modelled indirectly: a second pass
    /// over a working set that fits must be all hits).
    #[test]
    fn cache_accounting_is_consistent(addrs in proptest::collection::vec(0u64..1_000_000, 1..500)) {
        let mut cache = CacheSim::new(CacheConfig { capacity: 16 * 1024, ways: 4, line_size: 64 });
        for &a in &addrs {
            cache.access(a);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
        prop_assert!(cache.miss_rate() <= 1.0);
    }

    /// A working set that fits the cache has zero misses after warmup,
    /// regardless of the access pattern order.
    #[test]
    fn cache_fitting_working_set_all_hits(mut lines in proptest::collection::vec(0u64..32, 10..100)) {
        let mut cache = CacheSim::new(CacheConfig { capacity: 4096, ways: 4, line_size: 64 });
        // Warm every line.
        for l in 0..32u64 {
            cache.access(l * 64);
        }
        cache.reset_stats();
        lines.sort_unstable();
        for &l in &lines {
            cache.access(l * 64);
        }
        prop_assert_eq!(cache.misses(), 0);
    }

    /// The EPC never reports more resident pages than its capacity, and
    /// faults = admissions + swaps.
    #[test]
    fn epc_invariants(pages in proptest::collection::vec(0u64..64, 1..400), cap in 1usize..32) {
        let mut epc = Epc::new(cap);
        for &p in &pages {
            epc.touch(p);
        }
        prop_assert!(epc.resident_pages() <= cap);
        prop_assert_eq!(epc.faults(), epc.admissions() + epc.swaps());
        // Each distinct page is admitted exactly once.
        let distinct: std::collections::HashSet<_> = pages.iter().collect();
        prop_assert_eq!(epc.admissions(), distinct.len() as u64);
    }

    /// Counter-tree versions count bumps exactly, for arbitrary interleaved
    /// blocks, and always verify when untampered.
    #[test]
    fn counter_tree_versions_count_bumps(ops in proptest::collection::vec(0u64..512, 1..200)) {
        let mut tree = CounterTree::new(512, [9u8; 32]);
        let mut expected = std::collections::HashMap::new();
        for &b in &ops {
            let v = tree.bump(b).unwrap();
            let e = expected.entry(b).or_insert(0u64);
            *e += 1;
            prop_assert_eq!(v, *e);
        }
        for (&b, &v) in &expected {
            prop_assert_eq!(tree.version(b).unwrap(), v);
        }
    }

    /// Protected store round-trips arbitrary page contents and any
    /// single-byte corruption of the stored blob is detected.
    #[test]
    fn protected_store_detects_any_corruption(data in proptest::collection::vec(any::<u8>(), 1..128),
                                              page in 0u64..1024, flip in 0usize..1024) {
        let mut rng = CryptoRng::from_seed(3);
        let key = SymmetricKey::generate(&mut rng);
        let mut store = ProtectedStore::new(1024, &key, rng);
        store.write(page, &data).unwrap();
        prop_assert_eq!(store.read(page).unwrap(), data);
        let mut raw = store.raw_page(page).unwrap().clone();
        let idx = flip % raw.len();
        raw[idx] ^= 1;
        store.set_raw_page(page, raw);
        prop_assert!(store.read(page).is_err());
    }

    /// Virtual time is monotone non-decreasing under any access sequence,
    /// and enclave memory is never cheaper than native for the same trace.
    #[test]
    fn enclave_never_cheaper_than_native(offsets in proptest::collection::vec(0u64..256 * 1024, 1..300)) {
        let cache = CacheConfig { capacity: 8 * 1024, ways: 4, line_size: 64 };
        let native = MemorySim::native(cache, CostModel::default());
        let enclave = MemorySim::enclave(
            cache,
            EpcConfig { total_bytes: 64 * 4096, usable_bytes: 16 * 4096, page_size: 4096 },
            CostModel::default(),
        );
        let base_n = native.alloc(256 * 1024);
        let base_e = enclave.alloc(256 * 1024);
        let mut last_n = 0.0f64;
        for &off in &offsets {
            native.touch_read(base_n + off, 8);
            enclave.touch_read(base_e + off, 8);
            let now = native.elapsed_ns();
            prop_assert!(now >= last_n);
            last_n = now;
        }
        prop_assert!(enclave.elapsed_ns() >= native.elapsed_ns());
    }

    /// Arena addresses are injective across any push sequence.
    #[test]
    fn arena_addresses_injective(count in 1u32..3000, stride in 1u64..512) {
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut arena: SimArena<u32> = SimArena::with_stride(&mem, stride);
        let mut seen = std::collections::HashSet::new();
        for i in 0..count {
            let idx = arena.push(i);
            prop_assert!(seen.insert(arena.addr_of(idx)));
        }
    }
}
