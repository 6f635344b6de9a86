//! End-to-end overlay integration: a fully attested broker chain.
//!
//! Covers the acceptance path of the overlay subsystem: SK provisioning
//! via remote attestation into every broker, mutual-quote link
//! establishment on every tree edge, covering-pruned subscription
//! propagation, and multi-hop publication forwarding with exact edge
//! delivery — plus the negative path: a router whose quote fails the
//! `require_mr_enclave` policy never gets a link.

use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::FlatOracle;
use scbr::{PublicationSpec, ScbrError, SubscriptionSpec};
use scbr_overlay::broker::{Broker, Input, LinkFrame, Output};
use scbr_overlay::fabric::{router_measurement, FabricConfig, OverlayFabric, ROUTER_ENCLAVE_CODE};
use scbr_overlay::{Delivery, Lifecycle, OverlayError, Topology};
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::{CacheConfig, CostModel, EpcConfig, MemorySim, SgxError};
use std::collections::{BTreeSet, VecDeque};

/// A cold attested broker on a default-EPC machine.
fn attested(id: usize, seed: u64, code: &[u8]) -> Broker {
    Broker::attested(id, seed, code, false, EpcConfig::default()).unwrap()
}

fn out_frames(outputs: &[Output]) -> Vec<LinkFrame> {
    outputs
        .iter()
        .filter_map(|o| match o {
            Output::Frame(f) => Some(f.clone()),
            _ => None,
        })
        .collect()
}

/// Shuttles frames between two brokers until quiescent (the two-node
/// version of the fabric's scheduler), collecting local delivery records.
fn drive(
    a: &mut Broker,
    b: &mut Broker,
    first: Vec<Output>,
) -> Result<Vec<scbr_overlay::broker::LocalDeliveries>, OverlayError> {
    let mut deliveries = Vec::new();
    let mut queue: VecDeque<LinkFrame> = out_frames(&first).into();
    for o in first {
        if let Output::Deliveries(d) = o {
            deliveries.push(d);
        }
    }
    while let Some(frame) = queue.pop_front() {
        let target = if frame.to == a.id() { &mut *a } else { &mut *b };
        let outs = target.step(0, Input::Frame { from: frame.from, bytes: frame.bytes })?;
        queue.extend(out_frames(&outs));
        for o in outs {
            if let Output::Deliveries(d) = o {
                deliveries.push(d);
            }
        }
    }
    Ok(deliveries)
}

/// A 4-broker chain: publications injected at one end must cross 3 links
/// (3 hops) to reach a subscriber at the other end.
#[test]
fn three_hop_chain_delivers_exactly_the_matching_publications() {
    let mut fabric =
        OverlayFabric::build(Topology::line(4), FabricConfig::attested(42)).expect("build");

    // Subscribers at the far edge (router 0); publications enter at 3.
    fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();
    fabric.subscribe(0, ClientId(2), &SubscriptionSpec::new().gt("price", 50.0)).unwrap();
    // A bystander in the middle.
    fabric.subscribe(1, ClientId(3), &SubscriptionSpec::new().eq("symbol", "IBM")).unwrap();

    let publications = [
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 10.0), // -> client 1
        PublicationSpec::new().attr("symbol", "IBM").attr("price", 90.0), // -> clients 2, 3
        PublicationSpec::new().attr("symbol", "XYZ").attr("price", 1.0),  // -> nobody
    ];
    let deliveries = fabric.publish(3, &publications).unwrap();
    assert_eq!(
        deliveries,
        vec![
            Delivery { router: 0, client: ClientId(1), publication: 0 },
            Delivery { router: 0, client: ClientId(2), publication: 1 },
            Delivery { router: 1, client: ClientId(3), publication: 1 },
        ]
    );

    // The whole batch crossed each forwarding hop in one ecall: router 3
    // matched once, and only the links with interest saw traffic.
    let stats = fabric.broker_stats();
    assert!(stats.iter().all(|s| s.ecalls > 0), "every broker crossed its gate");
}

/// The non-matching tail of the tree never sees a publication.
#[test]
fn forwarding_stops_where_interest_stops() {
    // Star: subscriber under leaf 1; publications from leaf 2 must reach
    // leaf 1 via the hub 0 but never touch leaf 3.
    let mut fabric =
        OverlayFabric::build(Topology::star(4), FabricConfig::attested(43)).expect("build");
    fabric.subscribe(1, ClientId(9), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    fabric.reset_counters();
    let deliveries = fabric.publish(2, &[PublicationSpec::new().attr("price", 5.0)]).unwrap();
    assert_eq!(deliveries, vec![Delivery { router: 1, client: ClientId(9), publication: 0 }]);
    let stats = fabric.broker_stats();
    assert_eq!(stats[3].ecalls, 0, "leaf 3 has no interest and sees no traffic");
    assert!(stats[0].ecalls > 0 && stats[1].ecalls > 0 && stats[2].ecalls > 0);
}

/// Batches stay batches across hops: 10 publications forwarded over 3
/// links cost one crossing per hop, not one per message per hop.
#[test]
fn batches_amortise_crossings_across_hops() {
    let mut fabric =
        OverlayFabric::build(Topology::line(4), FabricConfig::attested(44)).expect("build");
    fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    fabric.reset_counters();
    let publications: Vec<PublicationSpec> =
        (0..10).map(|i| PublicationSpec::new().attr("price", 1.0 + i as f64)).collect();
    let deliveries = fabric.publish(3, &publications).unwrap();
    assert_eq!(deliveries.len(), 10);
    // 4 brokers each matched the whole batch once.
    assert_eq!(fabric.total_ecalls(), 4, "one crossing per hop for the whole batch");
}

/// Covering-pruned propagation: downstream brokers hold only the covering
/// subscription, yet delivery stays exact.
#[test]
fn pruning_shrinks_upstream_state() {
    let mut fabric =
        OverlayFabric::build(Topology::line(3), FabricConfig::attested(45)).expect("build");
    fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().ge("price", 0.0)).unwrap();
    for i in 0..5u64 {
        fabric
            .subscribe(
                0,
                ClientId(10 + i),
                &SubscriptionSpec::new().ge("price", 10.0 * (i + 1) as f64),
            )
            .unwrap();
    }
    // 6 subscriptions at the edge; only the covering one propagated. The
    // covered ones are pruned at router 0 and never even reach router 1,
    // so the pruning happens exactly once per subscription.
    assert_eq!(fabric.total_forwarded(), 2, "one forward per link of the chain");
    assert_eq!(fabric.total_pruned(), 5, "five subs pruned at the first hop");
    let stats = fabric.broker_stats();
    assert_eq!(stats[0].subscriptions, 6);
    assert_eq!(stats[1].subscriptions, 1);
    assert_eq!(stats[2].subscriptions, 1);
    let deliveries = fabric.publish(2, &[PublicationSpec::new().attr("price", 35.0)]).unwrap();
    let clients: Vec<u64> = deliveries.iter().map(|d| d.client.0).collect();
    assert_eq!(clients, vec![1, 10, 11, 12], "price=35 matches thresholds 0,10,20,30");
}

/// Link establishment refuses a router whose quote fails the
/// `require_mr_enclave` policy — a tampered routing binary cannot join
/// the overlay.
#[test]
fn link_establishment_rejects_wrong_measurement() {
    let mut rng = scbr_crypto::rng::CryptoRng::from_seed(1000);
    let producer = scbr::protocol::keys::ProducerCrypto::generate(512, &mut rng).unwrap();
    let mut genuine = attested(0, 1000, ROUTER_ENCLAVE_CODE);
    let mut tampered = attested(1, 1001, b"routing engine + backdoor");
    let mut service = AttestationService::new();
    service.trust_platform(genuine.platform().attestation_public_key().clone());
    service.trust_platform(tampered.platform().attestation_public_key().clone());
    let policy = VerifierPolicy::require_mr_enclave(router_measurement());
    let lax =
        VerifierPolicy { mr_enclave: None, mr_signer: None, min_isv_svn: 0, allow_debug: true };
    genuine.set_neighbors(&[1]);
    tampered.set_neighbors(&[0]);
    genuine.provision_attested(&service, &policy, &producer, &mut rng).unwrap();
    // The producer would never provision the tampered broker; the
    // adversary provisions it itself, lax about its own measurement, and
    // so runs a lax link verifier too — its checks are not what protects
    // the overlay.
    tampered.provision_attested(&service, &lax, &producer, &mut rng).unwrap();

    // Tampered initiator: the genuine responder refuses the hello.
    // (Lifecycle: the tampered broker initiates toward the lower id on
    // its rejoin path; here we lift its hello frame directly.)
    let hello = {
        // Force the tampered broker to initiate: crash + restart makes it
        // re-key every incident link regardless of id order.
        tampered.step(0, Input::Crash).unwrap();
        tampered.step(1, Input::Restart { dead_links: vec![] }).unwrap();
        tampered.provision_attested(&service, &lax, &producer, &mut rng).unwrap();
        let outs = tampered.step(2, Input::Tick).unwrap();
        out_frames(&outs).into_iter().find(|f| f.to == 0).expect("tampered broker initiates")
    };
    let result = genuine.step(3, Input::Frame { from: 1, bytes: hello.bytes });
    assert!(
        matches!(
            result,
            Err(OverlayError::Sgx(SgxError::AttestationFailed { reason: "unexpected mrenclave" }))
        ),
        "got {result:?}"
    );

    // Tampered responder: the genuine initiator refuses at the accept,
    // even though the responder skipped its own policy check.
    let outs = genuine.step(4, Input::Tick).unwrap();
    let hello = out_frames(&outs).into_iter().find(|f| f.to == 1).expect("genuine initiates");
    let outs = tampered.step(5, Input::Frame { from: 0, bytes: hello.bytes }).unwrap();
    let accept = out_frames(&outs).into_iter().next().expect("lax responder accepts");
    let result = genuine.step(6, Input::Frame { from: 1, bytes: accept.bytes });
    assert!(matches!(
        result,
        Err(OverlayError::Sgx(SgxError::AttestationFailed { reason: "unexpected mrenclave" }))
    ));
}

/// A quote from an untrusted platform (an emulator, say) is refused even
/// when the measurement matches.
#[test]
fn link_establishment_rejects_untrusted_platform() {
    let mut rng = scbr_crypto::rng::CryptoRng::from_seed(1002);
    let producer = scbr::protocol::keys::ProducerCrypto::generate(512, &mut rng).unwrap();
    let mut genuine = attested(0, 1002, ROUTER_ENCLAVE_CODE);
    let mut emulated = attested(1, 1003, ROUTER_ENCLAVE_CODE);
    // Only the genuine broker's platform is trusted by honest verifiers;
    // the emulator's own service naturally trusts itself.
    let mut service = AttestationService::new();
    service.trust_platform(genuine.platform().attestation_public_key().clone());
    let mut rogue_service = AttestationService::new();
    rogue_service.trust_platform(emulated.platform().attestation_public_key().clone());
    // The adversary's verifier happily trusts the genuine platform too —
    // its laxness is not what protects the overlay.
    rogue_service.trust_platform(genuine.platform().attestation_public_key().clone());
    let policy = VerifierPolicy::require_mr_enclave(router_measurement());
    genuine.set_neighbors(&[1]);
    emulated.set_neighbors(&[0]);
    genuine.provision_attested(&service, &policy, &producer, &mut rng).unwrap();
    emulated.provision_attested(&rogue_service, &policy, &producer, &mut rng).unwrap();
    let outs = genuine.step(0, Input::Tick).unwrap();
    let hello = out_frames(&outs).into_iter().find(|f| f.to == 1).expect("genuine initiates");
    // The emulated responder happily accepts (its rogue service trusts
    // it) — but the genuine initiator refuses the responder's quote.
    let outs = emulated.step(1, Input::Frame { from: 0, bytes: hello.bytes }).unwrap();
    let accept = out_frames(&outs).into_iter().next().expect("emulated responder accepts");
    assert!(genuine.step(2, Input::Frame { from: 1, bytes: accept.bytes }).is_err());
}

/// Sealed links reject tampered frames end to end.
#[test]
fn tampered_link_frames_are_refused() {
    let mut rng = scbr_crypto::rng::CryptoRng::from_seed(99);
    let producer = scbr::protocol::keys::ProducerCrypto::generate(512, &mut rng).unwrap();
    let item = scbr::protocol::messages::PublishItem {
        header_ct: producer.encrypt_header(&PublicationSpec::new().attr("price", 1.0), &mut rng),
        epoch: scbr::ids::KeyEpoch(0),
        payload_ct: vec![0, 0, 0, 0],
    };
    // Two attested brokers with an established sealed link; flip one
    // ciphertext bit in a forwarded frame and watch it bounce.
    let mut a = attested(0, 1004, ROUTER_ENCLAVE_CODE);
    let mut b = attested(1, 1005, ROUTER_ENCLAVE_CODE);
    let mut service = AttestationService::new();
    service.trust_platform(a.platform().attestation_public_key().clone());
    service.trust_platform(b.platform().attestation_public_key().clone());
    let policy = VerifierPolicy::require_mr_enclave(router_measurement());
    a.set_neighbors(&[1]);
    b.set_neighbors(&[0]);
    a.provision_attested(&service, &policy, &producer, &mut rng).unwrap();
    b.provision_attested(&service, &policy, &producer, &mut rng).unwrap();
    // One tick: a (lower id) initiates; drive the handshake to both ends.
    let outs = a.step(0, Input::Tick).unwrap();
    drive(&mut a, &mut b, outs).unwrap();
    assert_eq!(a.lifecycle(), Lifecycle::Serving);
    assert_eq!(b.lifecycle(), Lifecycle::Serving);

    let envelope = producer
        .seal_registration(
            &SubscriptionSpec::new().gt("price", 0.0),
            scbr::ids::SubscriptionId(0),
            ClientId(1),
            &mut rng,
        )
        .unwrap();
    let outs = a.step(1, Input::Subscribe { envelope }).unwrap();
    drive(&mut a, &mut b, outs).unwrap();
    let outs = b
        .step(2, Input::Publish { items: vec![item], trace: scbr_overlay::TraceId::NONE })
        .unwrap();
    let frames = out_frames(&outs);
    assert_eq!(frames.len(), 1);
    let mut bytes = frames[0].bytes.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    assert!(a.step(3, Input::Frame { from: 1, bytes }).is_err(), "tampered frame must not open");
    // The untampered frame still routes.
    let deliveries = drive(&mut a, &mut b, vec![Output::Frame(frames[0].clone())]).unwrap();
    assert_eq!(deliveries.len(), 1);
}

/// The brokers' covering forests route a three-router line exactly as
/// a flat reading of its two subscriptions says.
#[test]
fn index_kinds_agree_on_overlay_routing() {
    let mut fabric = OverlayFabric::build(Topology::line(3), FabricConfig::attested(47)).unwrap();
    fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 10.0)).unwrap();
    fabric.subscribe(2, ClientId(2), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();
    let deliveries = fabric
        .publish(
            1,
            &[
                PublicationSpec::new().attr("price", 20.0).attr("symbol", "HAL"),
                PublicationSpec::new().attr("price", 1.0).attr("symbol", "HAL"),
            ],
        )
        .unwrap();
    let delivery =
        |router, client, publication| Delivery { router, client: ClientId(client), publication };
    assert_eq!(deliveries, vec![delivery(0, 1, 0), delivery(2, 2, 0), delivery(2, 2, 1)]);
}

/// The full production liveness path, end to end on an *attested*
/// chain: SK provisioning, mutual-quote links, sealed heartbeats — then
/// a middle broker dies silently and the detection loop alone fences
/// it, re-attests it, re-keys every incident link through fresh
/// mutual-quote handshakes, replays, and returns it to `Serving`.
/// Delivery across the healed hop is exact, with zero operator calls.
#[test]
fn attested_chain_detects_and_heals_a_silent_crash() {
    let mut fabric = OverlayFabric::build(Topology::line(3), FabricConfig::attested(49))
        .expect("attested build");
    fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 10.0)).unwrap();
    fabric.subscribe(2, ClientId(2), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();

    fabric.crash(1).unwrap();
    let rejoins = fabric.run_detection(64).expect("attested detection settles");
    assert_eq!(rejoins.len(), 1);
    assert_eq!(rejoins[0].router, 1);
    assert_eq!(fabric.lifecycle(1), Lifecycle::Serving);
    assert!(fabric.settled());

    let deliveries = fabric
        .publish(
            1,
            &[
                PublicationSpec::new().attr("price", 20.0).attr("symbol", "HAL"),
                PublicationSpec::new().attr("price", 1.0).attr("symbol", "other"),
            ],
        )
        .unwrap();
    assert_eq!(
        deliveries,
        vec![
            Delivery { router: 0, client: ClientId(1), publication: 0 },
            Delivery { router: 2, client: ClientId(2), publication: 0 },
        ]
    );
}

/// An edge client id with the link-interface bit is refused at
/// admission: indexed as it was, every match on it read as a link and
/// the client silently received nothing.
#[test]
fn a_client_id_with_the_interface_bit_is_refused() {
    let mut fabric = OverlayFabric::build(Topology::line(2), FabricConfig::attested(50)).unwrap();
    let spec = SubscriptionSpec::new().gt("price", 10.0);
    let reserved = ClientId(ClientId::INTERFACE_BIT | 1);
    assert!(matches!(
        fabric.subscribe(0, reserved, &spec),
        Err(OverlayError::Routing(ScbrError::InvalidSubscription { .. }))
    ));
    assert_eq!(fabric.total_index_entries(), 0, "nothing was indexed or forwarded");
    fabric.subscribe(0, ClientId(2), &spec).unwrap();
    let deliveries = fabric.publish(1, &[PublicationSpec::new().attr("price", 20.0)]).unwrap();
    assert_eq!(deliveries, vec![Delivery { router: 0, client: ClientId(2), publication: 0 }]);
}

/// The fabric's deliveries are exactly the flat oracle's, in `(router,
/// client, publication)` order, on a tree where several brokers deliver
/// each batch, client ids span the whole edge range, and one client
/// matches several publications of a batch.
#[test]
fn deliveries_equal_the_flat_oracle_in_router_client_publication_order() {
    let topology = Topology::tree(6, &[(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]).unwrap();
    let mut fabric = OverlayFabric::build(topology, FabricConfig::attested(51)).unwrap();
    let top = ClientId::INTERFACE_BIT - 1;
    // (router, client, lower price bound, upper price bound)
    let subs: [(usize, u64, f64, f64); 9] = [
        (0, 0, 10.0, 100.0),
        (0, top, 0.0, 50.0),
        (0, 7, 40.0, 90.0),
        (2, 0, 0.0, 30.0),
        (2, top, 20.0, 100.0),
        (4, 3, 0.0, 100.0),
        (4, 3, 60.0, 70.0),
        (5, top, 35.0, 45.0),
        (5, 1, 80.0, 100.0),
    ];
    let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
    let mut oracle = FlatOracle::new(&mem);
    for (i, &(router, client, low, high)) in subs.iter().enumerate() {
        let spec = SubscriptionSpec::new().gt("price", low).lt("price", high);
        fabric.subscribe(router, ClientId(client), &spec).unwrap();
        // The oracle indexes subscription i under identity i.
        oracle.register_plain(SubscriptionId(i as u64), ClientId(i as u64), &spec).unwrap();
    }
    let prices = [5.0, 25.0, 42.0, 65.0, 85.0, 95.0, 15.0];
    let publications: Vec<PublicationSpec> =
        prices.iter().map(|&p| PublicationSpec::new().attr("price", p)).collect();
    for at in [0, 2, 4, 5] {
        let deliveries = fabric.publish(at, &publications).unwrap();
        let mut expected = BTreeSet::new();
        for (p, publication) in publications.iter().enumerate() {
            for matched in oracle.match_plain(publication).unwrap() {
                let (router, client, ..) = subs[matched.0 as usize];
                expected.insert((router, client, p));
            }
        }
        let got: Vec<(usize, u64, usize)> =
            deliveries.iter().map(|d| (d.router, d.client.0, d.publication)).collect();
        assert_eq!(got, expected.into_iter().collect::<Vec<_>>(), "published at {at}");
        let routers: BTreeSet<usize> = got.iter().map(|d| d.0).collect();
        assert_eq!(routers.len(), 4, "every subscribed broker delivers");
        assert!(got.iter().filter(|d| d.0 == 0 && d.1 == top).count() >= 3);
        assert!(got.iter().any(|d| d.1 == 0));
    }
}
