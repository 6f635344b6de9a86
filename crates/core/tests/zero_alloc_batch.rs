//! Steady-state `match_encrypted_batch_into` performs **zero heap
//! allocations** — measured, not asserted by inspection.
//!
//! This binary installs a counting global allocator and drives warmed
//! batches through the flat pipeline: decrypt into a reused plaintext
//! buffer, decode into the chunk's reused `CompiledHeader`s, match the
//! chunk in one walk through the per-engine `MatchScratch`, append into a
//! reused `BatchMatches`. After
//! the warm-up batch has sized every buffer, repeated batches must not
//! touch the allocator at all.
//!
//! The counter is **per thread**: libtest runs the `#[test]`s of this
//! binary on parallel threads, so a process-global counter would charge
//! one test's set-up allocations to the other's measurement window. Each
//! measuring thread reads only the allocations it made itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scbr::engine::{BatchMatches, MatchingEngine, MAX_DRAIN};
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::IndexKind;
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::ctr::{AesCtr, SymmetricKey};
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::rsa::RsaPublicKey;
use sgx_sim::{CacheConfig, CostModel, MemorySim};

thread_local! {
    /// Allocator calls made by the current thread. `const`-initialised
    /// and without a destructor, so touching it from inside the allocator
    /// neither allocates nor registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the calling thread's counter (`try_with`: a thread past TLS
/// teardown simply stops counting).
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a plain
// thread-local `Cell`, so the allocator never recurses, locks or blocks.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocator calls the *calling* thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Drives warmed batches of `width` headers, the one at `poisoned` (if
/// any) truncated so that it fails to decrypt, and asserts the steady
/// state allocates nothing.
fn drive_warmed_batches(telemetry: bool, width: usize, poisoned: Option<usize>) {
    let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
    let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
    engine.set_telemetry(telemetry);
    let sk = SymmetricKey::from_bytes([0x5c; 16]);
    let pk = RsaPublicKey::from_parts(
        scbr_crypto::BigUint::from_u64(3233),
        scbr_crypto::BigUint::from_u64(17),
    );
    engine.provision_keys(sk.clone(), pk);

    // A containment-heavy database: per topic, nested priority floors
    // share poset chains; distinct topics spread the root directory.
    for i in 0..400u64 {
        let spec = SubscriptionSpec::new()
            .eq("topic", format!("t{}", i % 20).as_str())
            .ge("priority", (i % 5) as i64);
        engine.register_plain(SubscriptionId(i), ClientId(i % 64), &spec).expect("register");
    }

    let mut rng = CryptoRng::from_seed(11);
    let mut headers: Vec<Vec<u8>> = (0..width)
        .map(|i| {
            let publication = PublicationSpec::new()
                .attr("topic", format!("t{}", i % 20).as_str())
                .attr("priority", (i % 5) as i64)
                .attr("sender", i as i64);
            AesCtr::encrypt_with_nonce(&sk, &mut rng, &scbr::codec::encode_header(&publication))
        })
        .collect();
    if let Some(i) = poisoned {
        headers[i].truncate(3);
    }

    let mut out = BatchMatches::new();
    // Warm up: the first batches size the decrypt buffer, the decoded
    // header, the match scratch, and the output spans; the schema has
    // interned every attribute name.
    for _ in 0..3 {
        engine.match_encrypted_batch_into(&headers, &mut out);
    }
    assert!(out.total_clients() > 0, "workload must actually match");
    assert_eq!(out.len(), width);
    for (i, outcome) in out.iter().enumerate() {
        assert_eq!(outcome.is_err(), poisoned == Some(i), "header {i}");
    }
    let expected: usize = out.total_clients();

    let before = allocations();
    for _ in 0..10 {
        engine.match_encrypted_batch_into(&headers, &mut out);
    }
    let after = allocations();
    assert_eq!(out.total_clients(), expected, "steady-state results stay identical");
    assert_eq!(after - before, 0, "steady-state match_encrypted_batch_into must not allocate");
}

#[test]
fn warmed_batch_matching_never_allocates() {
    drive_warmed_batches(false, 32, None);
}

/// The telemetry histograms are fixed arrays with epoch-stamped clears,
/// so the *instrumented* steady-state batch path must be just as
/// allocation-free as the bare one.
#[test]
fn warmed_instrumented_batch_matching_never_allocates() {
    drive_warmed_batches(true, 32, None);
}

/// A full-width batch (`MAX_DRAIN` headers, one covering-forest walk) with
/// one poisoned header: the chunk's headers, its per-publication client
/// lists and the walk's mask stack are all scratch-resident.
#[test]
fn warmed_full_width_batch_with_a_poisoned_header_never_allocates() {
    drive_warmed_batches(false, MAX_DRAIN, Some(77));
}

#[test]
fn warmed_instrumented_full_width_batch_with_a_poisoned_header_never_allocates() {
    drive_warmed_batches(true, MAX_DRAIN, Some(77));
}
