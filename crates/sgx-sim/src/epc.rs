//! Enclave Page Cache (EPC) residency model with CLOCK eviction.
//!
//! Tracks which enclave pages are resident in protected memory. Accesses to
//! non-resident pages raise simulated page faults: the SGX driver evicts a
//! victim (encrypt + integrity-tree update, `EWB`) and loads the requested
//! page (decrypt + verify, `ELD`). The *count* of these events is what
//! Figure 8 of the paper plots; their cost is charged by
//! [`crate::mem::MemorySim`].
//!
//! One page map holds every page ever touched: a resident page maps to its
//! CLOCK slot, an evicted one to a not-resident mark, so a touch is one
//! lookup. Page ids are small integers derived from the simulator's own
//! bump allocator, never from outside input, so they need no keyed
//! (collision-resistant) hash: the map hashes them by one multiplication
//! (`PageHasher`), as does native memory's first-touch set.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci hashing of a page id: one multiplication by 2⁶⁴/φ, with the
/// well-mixed high half folded onto the low bits the table indexes by.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Builds a [`PageHasher`] for a map or set keyed by page id.
pub(crate) type PageHash = BuildHasherDefault<PageHasher>;

/// The slot of a page that has been evicted (and not yet swapped back in).
const NOT_RESIDENT: usize = usize::MAX;

/// Outcome of touching a page through the EPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageAccess {
    /// Page was resident.
    Resident,
    /// First-ever touch: the page was admitted without evicting anyone.
    Admitted,
    /// Page had been evicted and was swapped back in, evicting a victim.
    SwappedIn,
}

/// EPC residency tracker.
///
/// ```
/// use sgx_sim::epc::{Epc, PageAccess};
///
/// let mut epc = Epc::new(2); // two-page EPC
/// assert_eq!(epc.touch(0), PageAccess::Admitted);
/// assert_eq!(epc.touch(1), PageAccess::Admitted);
/// assert_eq!(epc.touch(0), PageAccess::Resident);
/// assert_eq!(epc.touch(2), PageAccess::Admitted); // evicts someone
/// ```
#[derive(Debug, Clone)]
pub struct Epc {
    capacity_pages: usize,
    /// Every page ever touched -> its slot in `slots`, or [`NOT_RESIDENT`].
    pages: HashMap<u64, usize, PageHash>,
    /// CLOCK ring: (page id, referenced bit). Every slot holds a resident
    /// page.
    slots: Vec<(u64, bool)>,
    clock_hand: usize,
    admissions: u64,
    swaps: u64,
    evictions: u64,
}

impl Epc {
    /// Creates an EPC that can hold `capacity_pages` resident pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "EPC must hold at least one page");
        Epc {
            capacity_pages,
            pages: HashMap::default(),
            slots: Vec::with_capacity(capacity_pages.min(1 << 20)),
            clock_hand: 0,
            admissions: 0,
            swaps: 0,
            evictions: 0,
        }
    }

    /// Touches `page`, updating residency and returning what happened.
    pub fn touch(&mut self, page: u64) -> PageAccess {
        let first_time = match self.pages.get(&page) {
            Some(&NOT_RESIDENT) => false,
            Some(&slot) => {
                self.slots[slot].1 = true;
                return PageAccess::Resident;
            }
            None => true,
        };
        let slot = if self.slots.len() < self.capacity_pages {
            // Free slot available.
            self.slots.push((page, true));
            self.slots.len() - 1
        } else {
            // CLOCK: advance hand, clearing referenced bits, until a victim
            // with a clear bit is found.
            loop {
                let hand = self.clock_hand;
                self.clock_hand = (hand + 1) % self.capacity_pages;
                let (victim_page, referenced) = self.slots[hand];
                if referenced {
                    self.slots[hand].1 = false;
                } else {
                    self.pages.insert(victim_page, NOT_RESIDENT);
                    self.evictions += 1;
                    self.slots[hand] = (page, true);
                    break hand;
                }
            }
        };
        self.pages.insert(page, slot);
        if first_time {
            self.admissions += 1;
            PageAccess::Admitted
        } else {
            self.swaps += 1;
            PageAccess::SwappedIn
        }
    }

    /// Number of pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.slots.len()
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// First-touch admissions so far.
    pub fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Swap-ins of previously evicted pages (the expensive events).
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Evictions performed to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total page faults (admissions + swaps), mirroring `minflt`.
    pub fn faults(&self) -> u64 {
        self.admissions + self.swaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_until_capacity_no_swaps() {
        let mut epc = Epc::new(100);
        for p in 0..100u64 {
            assert_eq!(epc.touch(p), PageAccess::Admitted);
        }
        for p in 0..100u64 {
            assert_eq!(epc.touch(p), PageAccess::Resident);
        }
        assert_eq!(epc.swaps(), 0);
        assert_eq!(epc.admissions(), 100);
        assert_eq!(epc.resident_pages(), 100);
    }

    #[test]
    fn overflow_triggers_eviction_and_swaps() {
        let mut epc = Epc::new(4);
        for p in 0..8u64 {
            epc.touch(p);
        }
        assert_eq!(epc.admissions(), 8);
        assert_eq!(epc.evictions(), 4);
        assert_eq!(epc.resident_pages(), 4);
        // Re-touching an evicted page swaps it back in.
        let before = epc.swaps();
        // Pages 0..4 were evicted by 4..8 under CLOCK.
        assert_eq!(epc.touch(0), PageAccess::SwappedIn);
        assert_eq!(epc.swaps(), before + 1);
    }

    #[test]
    fn clock_second_chance_keeps_referenced_page() {
        let mut epc = Epc::new(2);
        epc.touch(0); // slots: [(0,R), _]
        epc.touch(1); // slots: [(0,R), (1,R)], hand at 0
                      // Page 2 sweeps: clears both bits, evicts page 0 (FIFO from hand when
                      // everything is referenced), leaving [(2,R), (1,-)], hand past slot 0.
        assert_eq!(epc.touch(2), PageAccess::Admitted);
        // Page 3 must evict the unreferenced page 1, *not* page 2 whose
        // reference bit grants it a second chance.
        assert_eq!(epc.touch(3), PageAccess::Admitted);
        assert_eq!(epc.touch(2), PageAccess::Resident, "referenced page survived");
        assert_eq!(epc.touch(1), PageAccess::SwappedIn, "unreferenced page was evicted");
    }

    #[test]
    fn faults_counts_both_kinds() {
        let mut epc = Epc::new(1);
        epc.touch(0); // admit
        epc.touch(1); // admit, evict 0
        epc.touch(0); // swap in
        assert_eq!(epc.faults(), 3);
        assert_eq!(epc.admissions(), 2);
        assert_eq!(epc.swaps(), 1);
    }

    #[test]
    fn sequential_thrash_swaps_every_touch() {
        let mut epc = Epc::new(4);
        // Warm: 8 pages cycle in a 4-page EPC.
        for round in 0..3 {
            for p in 0..8u64 {
                let access = epc.touch(p);
                if round > 0 {
                    assert_eq!(access, PageAccess::SwappedIn, "round {round} page {p}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_panics() {
        Epc::new(0);
    }
}
