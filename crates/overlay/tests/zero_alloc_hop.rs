//! A publication costs the broker that delivers it the same number of
//! heap allocations whether it reaches one local client or sixty-four —
//! measured, not asserted by inspection.
//!
//! This binary installs a counting global allocator and drives warmed
//! publication batches across an attested line of four brokers: published
//! at broker 3, forwarded over three sealed links, delivered at broker 0.
//! Every local delivery of a publication shares one item, so once every
//! buffer has been sized the allocator calls per batch must not depend on
//! how many clients each publication reaches.
//!
//! The counter is **per thread** (see `scbr`'s `zero_alloc_batch.rs`):
//! libtest runs tests on parallel threads, and each measuring thread reads
//! only the allocations it made itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use scbr::ids::{ClientId, KeyEpoch, SubscriptionId};
use scbr::index::IndexKind;
use scbr::protocol::keys::ProducerCrypto;
use scbr::protocol::messages::PublishItem;
use scbr::{PublicationSpec, SubscriptionSpec};
use scbr_crypto::rng::CryptoRng;
use scbr_overlay::broker::{Broker, Input, LinkFrame, Output};
use scbr_overlay::fabric::{router_measurement, ROUTER_ENCLAVE_CODE};
use scbr_overlay::{Lifecycle, TraceId};
use sgx_sim::attest::{AttestationService, VerifierPolicy};

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

/// Feeds `outs`, and every frame they cause, through the line until it
/// is quiet; returns the local deliveries made. The queue is the
/// caller's, so its capacity carries over from batch to batch.
fn pump(brokers: &mut [Broker], outs: Vec<Output>, queue: &mut VecDeque<LinkFrame>) -> usize {
    let mut delivered = 0;
    let mut absorb = |outs: Vec<Output>, queue: &mut VecDeque<LinkFrame>| {
        for out in outs {
            match out {
                Output::Frame(frame) => queue.push_back(frame),
                Output::Delivery(_) => delivered += 1,
                Output::Event(_) => {}
            }
        }
    };
    absorb(outs, queue);
    while let Some(frame) = queue.pop_front() {
        let input = Input::Frame { from: frame.from, bytes: frame.bytes };
        absorb(brokers[frame.to].step(0, input).expect("frame routes"), queue);
    }
    delivered
}

/// An attested, linked line of [`BROKERS`] brokers with `clients` edge
/// clients at broker 0, each holding the same filter, and one batch of
/// publications every one of them matches.
fn attested_line(clients: u64) -> (Vec<Broker>, Vec<PublishItem>) {
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
            Broker::attested(id, 2702 + id as u64, IndexKind::Poset, ROUTER_ENCLAVE_CODE, false)
                .expect("enclave launch")
        })
        .collect();
    let mut service = AttestationService::new();
    for broker in &brokers {
        service
            .trust_platform(broker.platform().expect("attested").attestation_public_key().clone());
    }
    let policy = VerifierPolicy::require_mr_enclave(router_measurement());
    for (id, broker) in brokers.iter_mut().enumerate() {
        let neighbors: Vec<usize> = (0..BROKERS).filter(|n| n.abs_diff(id) == 1).collect();
        broker.set_neighbors(&neighbors);
        broker.configure_trust(service.clone(), policy.clone());
        broker.provision_attested(&service, &policy, &producer, &mut rng).expect("provisioning");
    }
    let mut queue = VecDeque::new();
    for id in 0..BROKERS {
        let outs = brokers[id].step(0, Input::Tick).expect("handshake");
        pump(&mut brokers, outs, &mut queue);
    }
    assert!(brokers.iter().all(|b| b.lifecycle() == Lifecycle::Serving));
    let filter = SubscriptionSpec::new().gt("price", 0.0);
    for client in 0..clients {
        let envelope = producer
            .seal_registration(&filter, SubscriptionId(client), ClientId(client), &mut rng)
            .expect("registration");
        let outs = brokers[0].step(0, Input::Subscribe { envelope }).expect("subscribe");
        pump(&mut brokers, outs, &mut queue);
    }
    (brokers, items)
}

/// Allocator calls of [`ROUNDS`] warmed batches crossing the line, with
/// `clients` local clients matching every publication at broker 0.
fn allocations_for(clients: u64) -> u64 {
    let (mut brokers, items) = attested_line(clients);
    let mut queue = VecDeque::new();
    let mut publish = |items: Vec<PublishItem>, queue: &mut VecDeque<LinkFrame>| {
        let input = Input::Publish { items, trace: TraceId::NONE };
        let outs = brokers[BROKERS - 1].step(0, input).expect("publish");
        pump(&mut brokers, outs, queue)
    };
    // Warm up: size the match scratch, route spans, encode buffers and
    // the frame queue.
    for _ in 0..3 {
        assert_eq!(publish(items.clone(), &mut queue), BATCH * clients as usize);
    }
    let batches: Vec<Vec<PublishItem>> = (0..ROUNDS).map(|_| items.clone()).collect();
    let before = allocations();
    let mut delivered = 0;
    for batch in batches {
        delivered += publish(batch, &mut queue);
    }
    let after = allocations();
    assert_eq!(delivered, ROUNDS * BATCH * clients as usize, "every client got every publication");
    after - before
}

#[test]
fn delivery_fan_out_costs_no_allocations() {
    let one = allocations_for(1);
    let many = allocations_for(64);
    assert!(one > 0, "the measured window covers the hop path");
    assert_eq!(
        many,
        one,
        "allocator calls per batch: {} with 64 clients per publication, {} with one",
        many as f64 / ROUNDS as f64,
        one as f64 / ROUNDS as f64
    );
    // Each sealed hop builds its frame in one allocation: the tag is
    // written straight into it and the nonce comes from the sequence
    // number.
    assert!(
        one / ROUNDS as u64 <= 58,
        "allocator calls per batch: {} (at most 58)",
        one as f64 / ROUNDS as f64
    );
}
