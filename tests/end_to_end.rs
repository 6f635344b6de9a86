//! End-to-end integration: the full SCBR deployment of Figure 3/4 wired
//! over the in-process transport.
//!
//! Producer, router (one overlay broker: its routing enclave attested and
//! `SK` provisioned via remote attestation) and clients run as real
//! threads exchanging real protocol messages; everything is encrypted
//! exactly as in the paper.

use scbr::ids::{ClientId, KeyEpoch, SubscriptionId};
use scbr::protocol::keys::{PairwiseKey, ProducerCrypto};
use scbr::protocol::messages::{Message, PublishItem};
use scbr::publication::PublicationSpec;
use scbr::roles::{ClientNode, Producer, ProducerCommand};
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::x25519::X25519Secret;
use scbr_net::transport::{InProcNetwork, Transport};
use scbr_net::Connection;
use scbr_overlay::fabric::{router_measurement, ROUTER_ENCLAVE_CODE};
use scbr_overlay::{Broker, Router};
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::EpcConfig;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);
const DRAIN: Duration = Duration::from_millis(300);

struct Deployment {
    net: InProcNetwork,
    producer: Producer,
    router: Option<Router>,
    producer_crypto: ProducerCrypto,
}

/// Launches the router's broker on its own platform. Only the broker's
/// own platform is trusted, and only the routing enclave's measurement.
fn launch_router(seed: u64) -> (Broker, AttestationService, VerifierPolicy) {
    let broker = Broker::attested(0, seed, ROUTER_ENCLAVE_CODE, false, EpcConfig::default())
        .expect("launch");
    let mut service = AttestationService::new();
    service.trust_platform(broker.platform().attestation_public_key().clone());
    (broker, service, VerifierPolicy::require_mr_enclave(router_measurement()))
}

/// A router broker whose enclave remote attestation has provisioned with
/// `SK` and the producer's verification key.
fn attested_router(seed: u64, producer: &ProducerCrypto, producer_rng: &mut CryptoRng) -> Broker {
    let (mut broker, service, policy) = launch_router(seed);
    broker
        .provision_attested(&service, &policy, producer, producer_rng)
        .expect("attestation provisioning");
    broker
}

/// Wires a full deployment: enclave launch, attestation, SK provisioning,
/// role threads.
fn deploy(seed: u64) -> Deployment {
    let net = InProcNetwork::new();
    let router_listener = net.bind("router").expect("bind router");
    let producer_listener = net.bind("producer").expect("bind producer");
    let mut producer_rng = CryptoRng::from_seed(seed + 1);
    let producer_crypto = ProducerCrypto::generate(512, &mut producer_rng).expect("keys");
    let broker = attested_router(seed, &producer_crypto, &mut producer_rng);

    // Spawn the roles.
    let router = Router::spawn(router_listener, broker);
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
        d.producer_crypto.exchange_key(),
        d.net.connect("producer").expect("client->producer"),
        d.net.connect("router").expect("client->router"),
        CryptoRng::from_seed(seed),
    )
    .expect("client connects");
    let admitted = d
        .producer
        .handle()
        .send(ProducerCommand::Admit { client: ClientId(id), public_key: *client.public_key() });
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
    let broker = d.router.unwrap().join().expect("router drains");
    assert_eq!(broker.subscriptions(), 2, "both subscriptions registered");
    assert!(broker.stats().ecalls >= 4, "registrations + matches crossed the gate");
}

#[test]
fn unadmitted_client_is_rejected() {
    let d = deploy(110);
    // Connect without admission.
    let mut eve = ClientNode::connect(
        ClientId(66),
        d.producer_crypto.exchange_key(),
        d.net.connect("producer").expect("conn"),
        d.net.connect("router").expect("conn"),
        CryptoRng::from_seed(5),
    )
    .expect("connect");
    let err = eve.subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT);
    assert!(err.is_err(), "unknown client must be rejected");

    d.producer.shutdown().expect("shutdown");
    let broker = d.router.unwrap().join().expect("join");
    assert_eq!(broker.subscriptions(), 0, "nothing reached the router");
}

/// A submission in admitted Alice's name that is not sealed under her
/// pairwise key is refused, whoever holds the key it is sealed under:
/// admitted Mallory, or nobody the producer ever admitted.
#[test]
fn a_submission_in_another_clients_name_is_rejected() {
    let d = deploy(112);
    let _alice = new_client(&d, 1, 210);
    let mut rng = CryptoRng::from_seed(211);
    let mallory = X25519Secret::generate(&mut rng);
    d.producer
        .handle()
        .send(ProducerCommand::Admit { client: ClientId(2), public_key: *mallory.public_key() });
    let producer_key = d.producer_crypto.exchange_key();
    let mallorys = PairwiseKey::for_client(&mallory, ClientId(2), producer_key).expect("key");
    let underived = X25519Secret::generate(&mut rng);
    let underived = PairwiseKey::for_client(&underived, ClientId(1), producer_key).expect("key");

    let raw = d.net.connect("producer").expect("raw->producer");
    let spec = SubscriptionSpec::new().eq("symbol", "HAL");
    for key in [&mallorys, &underived] {
        let forged = Message::SubmitSubscription {
            client: ClientId(1),
            encrypted_subscription: key.seal_subscription(1, &spec, &mut rng),
        };
        raw.send(&forged.to_wire()).expect("send");
        match recv(raw.as_ref(), WAIT) {
            Some(Message::SubscriptionRejected { reason }) => {
                assert!(reason.contains("crypto"), "refused for its key, not standing: {reason}")
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    d.producer.shutdown().expect("shutdown");
    let broker = d.router.unwrap().join().expect("join");
    assert_eq!(broker.subscriptions(), 0, "nothing reached the router");
}

/// A low-order key would give a pairwise key anyone can compute, so the
/// producer refuses the admission: the client stays unknown, holds no
/// group key, and is admitted once it presents its real key.
#[test]
fn a_low_order_client_key_is_not_admitted() {
    let d = deploy(114);
    let mut carol = ClientNode::connect(
        ClientId(3),
        d.producer_crypto.exchange_key(),
        d.net.connect("producer").expect("conn"),
        d.net.connect("router").expect("conn"),
        CryptoRng::from_seed(212),
    )
    .expect("connect");
    for u in [0u8, 1] {
        let mut low_order = [0u8; 32];
        low_order[0] = u;
        d.producer
            .handle()
            .send(ProducerCommand::Admit { client: ClientId(3), public_key: low_order });
    }
    let refused = carol.subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT);
    assert!(
        matches!(&refused, Err(e) if e.to_string().contains("not admitted (unknown)")),
        "got {refused:?}"
    );
    assert_eq!(carol.epochs_held(), 0, "no group key was pushed");

    d.producer
        .handle()
        .send(ProducerCommand::Admit { client: ClientId(3), public_key: *carol.public_key() });
    carol.subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT).expect("admitted now");
    assert_eq!(carol.epochs_held(), 1);

    d.producer.shutdown().expect("shutdown");
    let broker = d.router.unwrap().join().expect("join");
    assert_eq!(broker.subscriptions(), 1);
}

#[test]
fn a_client_cannot_stop_the_producer() {
    // Only the operator stops the producer (`ProducerCommand::Shutdown`):
    // a wire `Shutdown` arriving on its client listener is a stray
    // message like any other, answered with an `Error`.
    let d = deploy(115);
    let raw = d.net.connect("producer").expect("raw->producer");
    raw.send(&Message::Shutdown.to_wire()).expect("send shutdown");
    let reply = raw.recv_timeout(WAIT).expect("recv").map(|f| Message::from_wire(&f));
    assert!(matches!(reply, Some(Ok(Message::Error { .. }))), "got {reply:?}");

    let mut alice = new_client(&d, 1, 116);
    alice
        .subscribe(&SubscriptionSpec::new().eq("symbol", "HAL"), WAIT)
        .expect("the producer still serves its clients");

    d.producer.shutdown().expect("shutdown");
    let broker = d.router.unwrap().join().expect("join");
    assert_eq!(broker.subscriptions(), 1);
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
    let broker = d.router.unwrap().join().expect("join");
    assert_eq!(broker.subscriptions(), 0, "the router's index is clean");
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
    let forged = Message::Unsubscribe { client: ClientId(1), id: sub, tag: vec![0xab; 64] };
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
    let broker = d.router.unwrap().join().expect("join");
    assert_eq!(broker.subscriptions(), 1, "subscription still registered");
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
    let (broker, _, _) = launch_router(180);
    let _router = Router::spawn(router_listener, broker); // keys never provisioned
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
        crypto.exchange_key(),
        net.connect("producer").expect("conn"),
        net.connect("router").expect("conn"),
        CryptoRng::from_seed(182),
    )
    .expect("connect");
    producer
        .handle()
        .send(ProducerCommand::Admit { client: ClientId(1), public_key: *alice.public_key() });
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
    let broker = d.router.unwrap().join().expect("join");
    // The whole batch crossed the call gate once: matching added exactly
    // one ECALL on top of the two registrations and key provisioning.
    let match_ecalls = broker.stats().ecalls
        - 3  // deploy(): two attestation calls + one provisioning call
        - 2 * 2; // per registration: its admission and its checkpoint seal
    assert_eq!(match_ecalls, 1, "four publications, one crossing");
}

/// A router driven over raw connections, so a test can put a truncated
/// header on the wire, and a subscriber connection whose registration
/// has been acknowledged (so the router has also seen its `Hello`).
struct RawRouter {
    net: InProcNetwork,
    router: Router,
    crypto: ProducerCrypto,
    rng: CryptoRng,
    subscriber: Box<dyn Connection>,
}

fn recv(conn: &dyn Connection, wait: Duration) -> Option<Message> {
    conn.recv_timeout(wait).expect("recv").map(|f| Message::from_wire(&f).expect("decodes"))
}

/// Starts a provisioned router with client 1 subscribed to `symbol = HAL`.
fn raw_router(seed: u64) -> RawRouter {
    let net = InProcNetwork::new();
    let listener = net.bind("router").expect("bind router");
    let mut rng = CryptoRng::from_seed(seed + 1);
    let crypto = ProducerCrypto::generate(512, &mut rng).expect("keys");
    let router = Router::spawn(listener, attested_router(seed, &crypto, &mut rng));
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
    RawRouter { net, router, crypto, rng, subscriber }
}

impl RawRouter {
    /// A HAL publication carrying `payload`, its header cut to `keep`
    /// bytes when given.
    fn item(&mut self, payload: &[u8], keep: Option<usize>) -> PublishItem {
        let mut header_ct = self
            .crypto
            .encrypt_header(&PublicationSpec::new().attr("symbol", "HAL"), &mut self.rng);
        header_ct.truncate(keep.unwrap_or(header_ct.len()));
        PublishItem { header_ct, epoch: KeyEpoch(0), payload_ct: payload.to_vec() }
    }

    /// The next `n` payloads delivered to the subscriber, which then
    /// falls silent.
    fn delivered(&self, n: usize) -> Vec<Vec<u8>> {
        let got = (0..n)
            .map(|_| match recv(self.subscriber.as_ref(), WAIT) {
                Some(Message::Deliver { payload_ct, .. }) => payload_ct,
                other => panic!("expected a delivery, got {other:?}"),
            })
            .collect();
        let extra = recv(self.subscriber.as_ref(), DRAIN);
        assert!(extra.is_none(), "a refused item delivers nothing, got {extra:?}");
        got
    }
}

#[test]
fn poisoned_publication_in_a_batch_bounces_alone() {
    // Role-level fault isolation: one corrupt header must cost exactly
    // one `Error` to the connection that sent it — its batch-mates are
    // matched and delivered as if it were not there.
    let mut r = raw_router(190);
    let publisher = r.net.connect("router").expect("publisher->router");
    let items = vec![r.item(b"first", None), r.item(b"poisoned", Some(3)), r.item(b"third", None)];
    publisher.send(&Message::PublishBatch { items }.to_wire()).expect("publish");

    assert_eq!(r.delivered(2), [b"first".to_vec(), b"third".to_vec()], "in publish order");
    assert!(matches!(recv(publisher.as_ref(), WAIT), Some(Message::Error { .. })));
    assert!(recv(publisher.as_ref(), DRAIN).is_none(), "exactly one error, not one per item");

    publisher.send(&Message::Shutdown.to_wire()).expect("shutdown");
    let broker = r.router.join().expect("join");
    assert_eq!(
        broker.stats().ecalls,
        2 + 1 + 2 + 1,
        "attestation + provision + register and its seal + one crossing for the batch"
    );
}

#[test]
fn a_refused_header_bounces_to_its_own_sender_only() {
    // Two publishers each send one batch; only one batch holds a
    // truncated header. The router drains per connection, so the error
    // goes to that sender alone and the other batch delivers in full.
    let mut r = raw_router(195);
    let clean = r.net.connect("router").expect("clean->router");
    let dirty = r.net.connect("router").expect("dirty->router");
    let clean_items = vec![r.item(b"c1", None), r.item(b"c2", None)];
    let dirty_items = vec![r.item(b"d1", None), r.item(b"poisoned", Some(3))];
    clean.send(&Message::PublishBatch { items: clean_items }.to_wire()).expect("publish");
    dirty.send(&Message::PublishBatch { items: dirty_items }.to_wire()).expect("publish");

    let mut delivered = r.delivered(3);
    delivered.sort();
    assert_eq!(delivered, [b"c1".to_vec(), b"c2".to_vec(), b"d1".to_vec()]);
    assert!(matches!(recv(dirty.as_ref(), WAIT), Some(Message::Error { .. })));
    assert!(recv(dirty.as_ref(), DRAIN).is_none(), "one error for the one refused header");
    assert!(recv(clean.as_ref(), DRAIN).is_none(), "the clean sender hears nothing");

    clean.send(&Message::Shutdown.to_wire()).expect("shutdown");
    assert_eq!(r.router.join().expect("join").stats().refused, 1);
}
