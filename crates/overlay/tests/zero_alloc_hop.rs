//! A batch costs the brokers it crosses the same number of heap
//! allocations whether its publications reach one local client or
//! sixty-four, and whether one or all of them are delivered — measured,
//! not asserted by inspection.
//!
//! This binary installs a counting global allocator and drives warmed
//! publication batches across an attested line of four brokers: published
//! at broker 3, forwarded over three sealed links, delivered at broker 0.
//! Each delivered publication is one record holding the item once and
//! its matched clients, in a buffer the broker refills once the caller
//! drops the records; frames open into a reused buffer and outputs land
//! in a caller-owned `Vec`. So once every buffer has been sized, the
//! allocator calls per batch are the sealed frames alone, whatever the
//! fan-out and however many publications are delivered.
//!
//! The counter is **per thread** (see `scbr`'s `zero_alloc_batch.rs`):
//! libtest runs tests on parallel threads, and each measuring thread reads
//! only the allocations it made itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use scbr::ids::{ClientId, KeyEpoch, SubscriptionId};
use scbr::protocol::keys::ProducerCrypto;
use scbr::protocol::messages::PublishItem;
use scbr::{PublicationSpec, SubscriptionSpec};
use scbr_crypto::rng::CryptoRng;
use scbr_overlay::broker::{Broker, Input, LinkFrame, Output};
use scbr_overlay::fabric::{router_measurement, ROUTER_ENCLAVE_CODE};
use scbr_overlay::{Lifecycle, TraceId};
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::EpcConfig;

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

const BROKERS: usize = 4;
const BATCH: usize = 16;
const ROUNDS: usize = 8;

/// The scheduler's buffers, reused from step to step and batch to batch.
#[derive(Default)]
struct Buffers {
    outs: Vec<Output>,
    queue: VecDeque<LinkFrame>,
}

/// Steps broker `at` with `input`, then every frame that causes through
/// the line until it is quiet; returns the client deliveries made. The
/// delivery records are dropped as they are counted.
fn pump(brokers: &mut [Broker], at: usize, input: Input, bufs: &mut Buffers) -> usize {
    let mut delivered = 0;
    let mut next = Some((at, input));
    while let Some((to, input)) = next {
        brokers[to].step_into(0, input, &mut bufs.outs).expect("step");
        for out in bufs.outs.drain(..) {
            match out {
                Output::Frame(frame) => bufs.queue.push_back(frame),
                Output::Deliveries(records) => delivered += records.clients().len(),
                Output::Event(_) => {}
            }
        }
        let frame = bufs.queue.pop_front();
        next = frame.map(|f| (f.to, Input::Frame { from: f.from, bytes: f.bytes }));
    }
    delivered
}

/// An attested, linked line of [`BROKERS`] brokers with `clients` edge
/// clients at broker 0, each holding the same filter, and one batch of
/// publications of which the last `matched` match it.
fn attested_line(clients: u64, matched: usize) -> (Vec<Broker>, Vec<PublishItem>) {
    let mut rng = CryptoRng::from_seed(2701);
    let producer = ProducerCrypto::generate(512, &mut rng).expect("producer keys");
    let items = (0..BATCH)
        .map(|i| PublishItem {
            header_ct: producer
                .encrypt_header(&PublicationSpec::new().attr("price", 1.0 + i as f64), &mut rng),
            epoch: KeyEpoch(0),
            payload_ct: vec![i as u8; 32],
        })
        .collect();
    let mut brokers: Vec<Broker> = (0..BROKERS)
        .map(|id| {
            Broker::attested(id, 2702 + id as u64, ROUTER_ENCLAVE_CODE, false, EpcConfig::default())
                .expect("enclave launch")
        })
        .collect();
    let mut service = AttestationService::new();
    for broker in &brokers {
        service.trust_platform(broker.platform().attestation_public_key().clone());
    }
    let policy = VerifierPolicy::require_mr_enclave(router_measurement());
    for (id, broker) in brokers.iter_mut().enumerate() {
        let neighbors: Vec<usize> = (0..BROKERS).filter(|n| n.abs_diff(id) == 1).collect();
        broker.set_neighbors(&neighbors);
        broker.provision_attested(&service, &policy, &producer, &mut rng).expect("provisioning");
    }
    let mut bufs = Buffers::default();
    for id in 0..BROKERS {
        pump(&mut brokers, id, Input::Tick, &mut bufs);
    }
    assert!(brokers.iter().all(|b| b.lifecycle() == Lifecycle::Serving));
    // Prices run 1..=BATCH: the filter passes the last `matched`.
    let filter = SubscriptionSpec::new().gt("price", (BATCH - matched) as f64 + 0.5);
    for client in 0..clients {
        let envelope = producer
            .seal_registration(&filter, SubscriptionId(client), ClientId(client), &mut rng)
            .expect("registration");
        pump(&mut brokers, 0, Input::Subscribe { envelope }, &mut bufs);
    }
    (brokers, items)
}

/// Allocator calls per batch over [`ROUNDS`] warmed batches crossing the
/// line, with `clients` local clients at broker 0 matching `matched` of
/// each batch's publications.
fn allocations_per_batch(clients: u64, matched: usize) -> u64 {
    let (mut brokers, items) = attested_line(clients, matched);
    let mut bufs = Buffers::default();
    let mut publish = |items: Vec<PublishItem>, bufs: &mut Buffers| {
        let input = Input::Publish { items, trace: TraceId::NONE };
        pump(&mut brokers, BROKERS - 1, input, bufs)
    };
    let per_batch = matched * clients as usize;
    // Warm up: size the match scratch, route spans, delivery and encode
    // buffers, the opened-frame buffers and the scheduler's.
    for _ in 0..3 {
        assert_eq!(publish(items.clone(), &mut bufs), per_batch);
    }
    let batches: Vec<Vec<PublishItem>> = (0..ROUNDS).map(|_| items.clone()).collect();
    let before = allocations();
    let mut delivered = 0;
    for batch in batches {
        delivered += publish(batch, &mut bufs);
    }
    let after = allocations();
    assert_eq!(delivered, ROUNDS * per_batch, "every client got every matching publication");
    let calls = after - before;
    assert_eq!(calls % ROUNDS as u64, 0, "every batch costs the same: {calls} calls");
    calls / ROUNDS as u64
}

#[test]
fn delivery_fan_out_costs_no_allocations() {
    let base = allocations_per_batch(1, BATCH);
    assert!(base > 0, "the measured window covers the hop path");
    for (clients, matched) in [(64, BATCH), (1, 1), (64, 1)] {
        assert_eq!(
            allocations_per_batch(clients, matched),
            base,
            "allocator calls per batch with {clients} clients matching {matched} of {BATCH} \
             publications, against {base} with one client matching all"
        );
    }
    // What is left is one allocation per sealed hop: each frame is built
    // in one buffer, the tag written straight into it and the nonce taken
    // from the sequence number.
    assert!(base <= 3, "allocator calls per batch: {base} (at most 3)");
}
