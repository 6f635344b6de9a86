//! End-to-end integration: the full SCBR deployment of Figure 3/4 wired
//! over the in-process transport.
//!
//! Producer, router (engine inside a simulated enclave, keys provisioned
//! via remote attestation) and clients run as real threads exchanging real
//! protocol messages; everything is encrypted exactly as in the paper.

use scbr::engine::RouterEngine;
use scbr::ids::{ClientId, KeyEpoch, SubscriptionId};
use scbr::index::{IndexKind, SubscriptionIndex};
use scbr::protocol::keys::{provision_sk_via_attestation, ProducerCrypto};
use scbr::protocol::messages::{Message, PublishItem};
use scbr::publication::PublicationSpec;
use scbr::roles::{ClientNode, Producer, ProducerCommand, Router};
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::rng::CryptoRng;
use scbr_net::transport::{InProcNetwork, Transport};
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::SgxPlatform;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);
const DRAIN: Duration = Duration::from_millis(300);

struct Deployment {
    net: InProcNetwork,
    producer: Producer,
    router: Option<Router>,
    producer_crypto: ProducerCrypto,
}

/// Wires a full deployment: enclave launch, attestation, SK provisioning,
/// role threads.
fn deploy(seed: u64) -> Deployment {
    let net = InProcNetwork::new();
    let router_listener = net.bind("router").expect("bind router");
    let producer_listener = net.bind("producer").expect("bind producer");

    // Infrastructure side: platform + enclave-hosted engine.
    let platform = SgxPlatform::for_testing(seed);
    let mut engine = RouterEngine::in_enclave(&platform, IndexKind::Poset).expect("launch");

    // Service-provider side: keys + attestation trust.
    let mut producer_rng = CryptoRng::from_seed(seed + 1);
    let producer_crypto = ProducerCrypto::generate(512, &mut producer_rng).expect("keys");
    let mut service = AttestationService::new();
    service.trust_platform(platform.attestation_public_key().clone());
    let policy =
        VerifierPolicy::require_mr_enclave(engine.enclave().expect("inside").identity().mr_enclave);

    // Remote attestation delivers SK + the producer verification key into
    // the enclave.
    let mut enclave_rng = CryptoRng::from_seed(seed + 2);
    let (sk, pk) = provision_sk_via_attestation(
        &platform,
        engine.enclave().expect("inside"),
        &service,
        &policy,
        &producer_crypto,
        &mut enclave_rng,
        &mut producer_rng,
    )
    .expect("attestation provisioning");
    engine.call(|e| e.provision_keys(sk, pk));

    // Spawn the roles.
    let router = Router::spawn(router_listener, engine);
    let producer_router_conn = net.connect("router").expect("producer->router");
    let producer = Producer::spawn(
        producer_listener,
        producer_router_conn,
        producer_crypto.clone(),
        producer_rng,
    );
    Deployment { net, producer, router: Some(router), producer_crypto }
}

fn new_client(d: &Deployment, id: u64, seed: u64) -> ClientNode {
    let mut client = ClientNode::connect(
        ClientId(id),
        d.net.connect("producer").expect("client->producer"),
        d.net.connect("router").expect("client->router"),
        CryptoRng::from_seed(seed),
    )
    .expect("client connects");
    client.set_producer_key(d.producer_crypto.public_key().clone());
    let admitted = d.producer.handle().send(ProducerCommand::Admit {
        client: ClientId(id),
        public_key: client.public_key().clone(),
    });
    assert!(admitted);
    // The admission key-update push doubles as a synchronisation barrier.
    let mut tries = 0;
    while client.epochs_held() == 0 && tries < 50 {
        client.drain_key_updates(DRAIN).expect("drain");
        tries += 1;
    }
    assert!(client.epochs_held() > 0, "client received the group key");
    client
}

#[test]
fn subscribe_publish_deliver_decrypt() {
    let d = deploy(100);
    let mut alice = new_client(&d, 1, 200);
    let mut bob = new_client(&d, 2, 201);

    alice
        .subscribe(&SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0), WAIT)
        .expect("alice subscribes");
    bob.subscribe(&SubscriptionSpec::new().eq("symbol", "IBM"), WAIT).expect("bob subscribes");

    // A HAL quote under 50: only alice matches.
    d.producer.handle().send(ProducerCommand::Publish(
        PublicationSpec::new()
            .attr("symbol", "HAL")
            .attr("price", 42.0)
            .payload(b"HAL@42".to_vec()),
    ));
    let delivery = alice.poll_delivery(WAIT).expect("delivery ok").expect("delivered");
    assert_eq!(delivery.payload, b"HAL@42");
    assert!(bob.poll_delivery(Duration::from_millis(300)).expect("none").is_none());

    // An IBM quote: only bob.
    d.producer.handle().send(ProducerCommand::Publish(
        PublicationSpec::new()
            .attr("symbol", "IBM")
            .attr("price", 99.0)
            .payload(b"IBM@99".to_vec()),
    ));
    let delivery = bob.poll_delivery(WAIT).expect("delivery ok").expect("delivered");
    assert_eq!(delivery.payload, b"IBM@99");
    assert!(alice.poll_delivery(Duration::from_millis(300)).expect("none").is_none());

    d.producer.shutdown().expect("producer shutdown");
    let engine = d.router.unwrap().join().expect("router drains");
    assert_eq!(engine.engine().index().len(), 2, "both subscriptions registered");
    assert!(
        engine.enclave().unwrap().ecall_count() >= 4,
        "registrations + matches crossed the gate"
    );
}

#[test]
fn unadmitted_client_is_rejected() {
    let d = deploy(110);
    // Connect without admission.
    let mut eve = ClientNode::connect(
        ClientId(66),
        d.net.connect("producer").expect("conn"),
        d.net.connect("router").expect("conn"),
        CryptoRng::from_seed(5),
    )
    .expect("connect");
    eve.set_producer_key(d.producer_crypto.public_key().clone());
    let err = eve.subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT);
    assert!(err.is_err(), "unknown client must be rejected");

    d.producer.shutdown().expect("shutdown");
    let engine = d.router.unwrap().join().expect("join");
    assert_eq!(engine.engine().index().len(), 0, "nothing reached the router");
}

#[test]
fn suspended_client_cannot_add_subscriptions() {
    let d = deploy(120);
    let mut carol = new_client(&d, 3, 300);
    carol
        .subscribe(&SubscriptionSpec::new().gt("price", 0.0), WAIT)
        .expect("first subscription accepted");
    d.producer.handle().send(ProducerCommand::Suspend(ClientId(3)));
    // Allow the command to land before the next attempt.
    std::thread::sleep(Duration::from_millis(100));
    let second = carol.subscribe(&SubscriptionSpec::new().gt("volume", 0i64), WAIT);
    assert!(second.is_err(), "suspended client rejected");

    d.producer.shutdown().expect("shutdown");
    d.router.unwrap().join().expect("join");
}

#[test]
fn revoked_client_cannot_read_new_payloads() {
    let d = deploy(130);
    let mut alice = new_client(&d, 1, 400);
    let mut mallory = new_client(&d, 2, 401);
    alice.subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT).expect("alice subscribes");
    mallory
        .subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT)
        .expect("mallory subscribes");

    // Both read epoch-0 publications.
    d.producer.handle().send(ProducerCommand::Publish(
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 1.0).payload(b"v1".to_vec()),
    ));
    assert_eq!(alice.poll_delivery(WAIT).unwrap().unwrap().payload, b"v1");
    assert_eq!(mallory.poll_delivery(WAIT).unwrap().unwrap().payload, b"v1");

    // Mallory is revoked; the group rekeys; alice gets the new key.
    d.producer.handle().send(ProducerCommand::Revoke(ClientId(2)));
    let mut tries = 0;
    while alice.epochs_held() < 2 && tries < 50 {
        alice.drain_key_updates(DRAIN).expect("drain");
        tries += 1;
    }
    assert!(alice.epochs_held() >= 2, "alice holds the rotated key");

    d.producer.handle().send(ProducerCommand::Publish(
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 2.0).payload(b"v2".to_vec()),
    ));
    // Alice reads the new payload.
    assert_eq!(alice.poll_delivery(WAIT).unwrap().unwrap().payload, b"v2");
    // Mallory still *receives* the ciphertext (her subscription remains
    // registered) but cannot decrypt it.
    let (epoch, ciphertext) = mallory
        .poll_delivery_raw(WAIT)
        .expect("raw delivery ok")
        .expect("ciphertext still delivered");
    assert!(!ciphertext.is_empty());
    // Her decryption attempt fails for lack of the epoch key.
    let err = {
        // poll_delivery_raw consumed the message; simulate decryption via
        // another publication and poll_delivery.
        d.producer.handle().send(ProducerCommand::Publish(
            PublicationSpec::new().attr("symbol", "HAL").attr("price", 3.0).payload(b"v3".to_vec()),
        ));
        mallory.poll_delivery(WAIT)
    };
    assert!(err.is_err(), "missing epoch key: {epoch}");

    d.producer.shutdown().expect("shutdown");
    d.router.unwrap().join().expect("join");
}

#[test]
fn unsubscribe_stops_delivery_end_to_end() {
    let d = deploy(160);
    let mut alice = new_client(&d, 1, 700);
    let sub = alice
        .subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT)
        .expect("alice subscribes");

    d.producer.handle().send(ProducerCommand::Publish(
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 1.0).payload(b"pre".to_vec()),
    ));
    assert_eq!(alice.poll_delivery(WAIT).unwrap().unwrap().payload, b"pre");

    // The full removal loop: client signature → producer validation →
    // signed unregistration envelope → router enclave → acks back.
    alice.unsubscribe(sub, WAIT).expect("unsubscribe accepted");
    d.producer.handle().send(ProducerCommand::Publish(
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 2.0).payload(b"post".to_vec()),
    ));
    assert!(
        alice.poll_delivery(Duration::from_millis(300)).unwrap().is_none(),
        "retired interest receives nothing"
    );
    // A second unsubscribe of the same id is refused by the directory (it
    // no longer owns the subscription) — an error reply, not a panic.
    assert!(alice.unsubscribe(sub, WAIT).is_err());

    d.producer.shutdown().expect("shutdown");
    let engine = d.router.unwrap().join().expect("join");
    assert_eq!(engine.engine().index().len(), 0, "the router's index is clean");
}

#[test]
fn forged_or_mismatched_unsubscribe_is_rejected() {
    let d = deploy(170);
    let mut alice = new_client(&d, 1, 800);
    let mut mallory = new_client(&d, 2, 801);
    let sub = alice
        .subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT)
        .expect("alice subscribes");

    // Mallory signs validly — but for a subscription she does not own.
    assert!(mallory.unsubscribe(sub, WAIT).is_err(), "ownership is enforced");

    // A raw request under alice's identity with a forged signature.
    let conn = d.net.connect("producer").expect("rogue connection");
    let forged = Message::Unsubscribe { client: ClientId(1), id: sub, signature: vec![0xab; 64] };
    conn.send(&forged.to_wire()).expect("send");
    let frame = conn.recv_timeout(WAIT).expect("reply").expect("reply frame");
    assert!(
        matches!(Message::from_wire(&frame).unwrap(), Message::Error { .. }),
        "forged signature bounces"
    );

    // Alice's interest survived both attempts.
    d.producer.handle().send(ProducerCommand::Publish(
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 3.0).payload(b"live".to_vec()),
    ));
    assert_eq!(alice.poll_delivery(WAIT).unwrap().unwrap().payload, b"live");

    d.producer.shutdown().expect("shutdown");
    let engine = d.router.unwrap().join().expect("join");
    assert_eq!(engine.engine().index().len(), 1, "subscription still registered");
}

#[test]
fn router_errors_bounce_to_the_requester_for_both_request_kinds() {
    // A router whose enclave was never provisioned refuses every envelope.
    // Each refusal must come back to the requester that caused it —
    // register → SubscriptionRejected, unregister → Error — promptly, not
    // as a silent drop that leaves the client waiting out its timeout.
    let net = InProcNetwork::new();
    let router_listener = net.bind("router").expect("bind router");
    let producer_listener = net.bind("producer").expect("bind producer");
    let platform = SgxPlatform::for_testing(180);
    let engine = RouterEngine::in_enclave(&platform, IndexKind::Poset).expect("launch");
    let _router = Router::spawn(router_listener, engine); // keys never provisioned
    let mut producer_rng = CryptoRng::from_seed(181);
    let crypto = ProducerCrypto::generate(512, &mut producer_rng).expect("keys");
    let producer = Producer::spawn(
        producer_listener,
        net.connect("router").expect("producer->router"),
        crypto.clone(),
        producer_rng,
    );
    let mut alice = ClientNode::connect(
        ClientId(1),
        net.connect("producer").expect("conn"),
        net.connect("router").expect("conn"),
        CryptoRng::from_seed(182),
    )
    .expect("connect");
    alice.set_producer_key(crypto.public_key().clone());
    producer.handle().send(ProducerCommand::Admit {
        client: ClientId(1),
        public_key: alice.public_key().clone(),
    });
    let mut tries = 0;
    while alice.epochs_held() == 0 && tries < 50 {
        alice.drain_key_updates(DRAIN).expect("drain");
        tries += 1;
    }

    // Register path: the producer issues the id, the router refuses the
    // envelope, the refusal maps back to alice as a rejection.
    let started = std::time::Instant::now();
    assert!(alice.subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT).is_err());
    assert!(started.elapsed() < Duration::from_secs(2), "prompt rejection, not a timeout");

    // Unregister path: the directory still records the issued id, so the
    // request reaches the router, which refuses it too. The error must
    // pop *this* request's ack slot, not a registration queue.
    let started = std::time::Instant::now();
    assert!(alice.unsubscribe(scbr::ids::SubscriptionId(0), WAIT).is_err());
    assert!(started.elapsed() < Duration::from_secs(2), "prompt rejection, not a timeout");

    producer.shutdown().expect("shutdown");
}

#[test]
fn multiple_subscriptions_deduplicate_deliveries() {
    let d = deploy(140);
    let mut alice = new_client(&d, 1, 500);
    alice.subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT).expect("sub 1");
    alice.subscribe(&SubscriptionSpec::new().gt("price", 10.0), WAIT).expect("sub 2");
    // A publication matching both subscriptions is delivered once (the
    // engine deduplicates the client list).
    d.producer.handle().send(ProducerCommand::Publish(
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 50.0).payload(b"once".to_vec()),
    ));
    assert_eq!(alice.poll_delivery(WAIT).unwrap().unwrap().payload, b"once");
    assert!(
        alice.poll_delivery(Duration::from_millis(300)).unwrap().is_none(),
        "no duplicate delivery"
    );

    d.producer.shutdown().expect("shutdown");
    d.router.unwrap().join().expect("join");
}

#[test]
fn publish_batch_flows_end_to_end() {
    // The batch-first pipeline over the wire: one PublishBatch frame from
    // the producer carries several quotes; the router matches the whole
    // frame through a single enclave crossing and fans out deliveries.
    let d = deploy(150);
    let mut alice = new_client(&d, 1, 600);
    let mut bob = new_client(&d, 2, 601);
    alice.subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT).expect("alice subscribes");
    bob.subscribe(&SubscriptionSpec::new().eq("symbol", "IBM"), WAIT).expect("bob subscribes");

    d.producer.handle().send(ProducerCommand::PublishBatch(vec![
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 1.0).payload(b"h1".to_vec()),
        PublicationSpec::new().attr("symbol", "IBM").attr("price", 2.0).payload(b"i1".to_vec()),
        PublicationSpec::new().attr("symbol", "AMD").attr("price", 3.0).payload(b"a1".to_vec()),
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 4.0).payload(b"h2".to_vec()),
    ]));

    assert_eq!(alice.poll_delivery(WAIT).unwrap().unwrap().payload, b"h1");
    assert_eq!(alice.poll_delivery(WAIT).unwrap().unwrap().payload, b"h2");
    assert_eq!(bob.poll_delivery(WAIT).unwrap().unwrap().payload, b"i1");
    assert!(alice.poll_delivery(Duration::from_millis(300)).unwrap().is_none());
    assert!(bob.poll_delivery(Duration::from_millis(300)).unwrap().is_none());

    d.producer.shutdown().expect("shutdown");
    let engine = d.router.unwrap().join().expect("join");
    // The whole batch crossed the call gate once: matching added exactly
    // one ECALL on top of the two registrations and key provisioning.
    let match_ecalls = engine.stats().ecalls
        - 3  // deploy(): two attestation calls + one provisioning call
        - 2; // one per registration
    assert_eq!(match_ecalls, 1, "four publications, one crossing");
}

#[test]
fn poisoned_publication_in_a_batch_bounces_alone() {
    // Role-level fault isolation: a batch drained off the wire may mix
    // traffic from several producers, so one corrupt header must cost
    // exactly one `Error` to the connection that sent it — its
    // batch-mates are matched and delivered as if it were not there.
    // Raw connections stand in for the producer and the subscriber so
    // the test can put a truncated header on the wire.
    let net = InProcNetwork::new();
    let listener = net.bind("router").expect("bind router");
    let platform = SgxPlatform::for_testing(190);
    let mut rng = CryptoRng::from_seed(191);
    let crypto = ProducerCrypto::generate(512, &mut rng).expect("keys");
    let mut engine = RouterEngine::in_enclave(&platform, IndexKind::Poset).expect("launch");
    engine.call(|e| e.provision_keys(crypto.sk().clone(), crypto.public_key().clone()));
    let router = Router::spawn(listener, engine);

    let recv = |conn: &dyn scbr_net::Connection, wait: Duration| {
        conn.recv_timeout(wait).expect("recv").map(|f| Message::from_wire(&f).expect("decodes"))
    };
    // The subscriber's connection carries its own registration, so the
    // ack also proves the router has seen its `Hello`.
    let subscriber = net.connect("router").expect("subscriber->router");
    subscriber.send(&Message::Hello { client: ClientId(1) }.to_wire()).expect("hello");
    let envelope = crypto
        .seal_registration(
            &SubscriptionSpec::new().eq("symbol", "HAL"),
            SubscriptionId(1),
            ClientId(1),
            &mut rng,
        )
        .expect("seal");
    subscriber.send(&Message::Register { envelope }.to_wire()).expect("register");
    assert!(matches!(recv(subscriber.as_ref(), WAIT), Some(Message::RegisterAck { .. })));
    let publisher = net.connect("router").expect("publisher->router");

    let header = crypto.encrypt_header(&PublicationSpec::new().attr("symbol", "HAL"), &mut rng);
    let item = |header_ct: Vec<u8>, payload: &[u8]| PublishItem {
        header_ct,
        epoch: KeyEpoch(0),
        payload_ct: payload.to_vec(),
    };
    let items = vec![
        item(header.clone(), b"first"),
        item(header[..3].to_vec(), b"poisoned"),
        item(header, b"third"),
    ];
    publisher.send(&Message::PublishBatch { items }.to_wire()).expect("publish");

    for expected in [&b"first"[..], b"third"] {
        match recv(subscriber.as_ref(), WAIT) {
            Some(Message::Deliver { payload_ct, .. }) => assert_eq!(payload_ct, expected),
            other => panic!("expected a delivery, got {other:?}"),
        }
    }
    assert!(recv(subscriber.as_ref(), DRAIN).is_none(), "the poisoned item delivers nothing");
    assert!(matches!(recv(publisher.as_ref(), WAIT), Some(Message::Error { .. })));
    assert!(recv(publisher.as_ref(), DRAIN).is_none(), "exactly one error, not one per item");

    publisher.send(&Message::Shutdown.to_wire()).expect("shutdown");
    let engine = router.join().expect("join");
    assert_eq!(engine.stats().ecalls, 3, "provision + register + one crossing for the batch");
}
