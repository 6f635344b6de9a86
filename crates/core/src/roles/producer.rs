//! The producer role: owns the data, the keys and the clients.
//!
//! The producer (service provider) is trusted by clients. It admits
//! clients, validates and re-encrypts their subscriptions (protocol step
//! 2), publishes encrypted quotes, and rotates the payload group key as
//! membership changes.

use crate::engine::MAX_DRAIN;
use crate::error::ScbrError;
use crate::ids::ClientId;
use crate::ids::SubscriptionId;
use crate::protocol::admission::ClientDirectory;
use crate::protocol::group::GroupKeyManager;
use crate::protocol::keys::ProducerCrypto;
use crate::protocol::messages::{encode_publish_batch, Message, PublishItem};
use crate::publication::PublicationSpec;
use crate::roles::ConnEvent;
use crate::roles::{pump_connection, pump_listener, send_best_effort};
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::x25519::KEY_LEN;
use scbr_net::{Connection, Listener};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Operator commands accepted by a running [`Producer`].
#[derive(Debug)]
pub enum ProducerCommand {
    /// Admit a client: agree its pairwise key, add it to the payload
    /// group and push the current group key if the client is connected.
    /// A low-order key is refused and the client is not admitted.
    Admit {
        /// The client to admit.
        client: ClientId,
        /// The client's X25519 public key.
        public_key: [u8; KEY_LEN],
    },
    /// Suspend a client (its subscriptions are refused).
    Suspend(ClientId),
    /// Revoke a client: removed from the group, key rotated, fresh key
    /// pushed to remaining members.
    Revoke(ClientId),
    /// Rotate the group key without membership change.
    Rekey,
    /// Publish a quote: header encrypted under SK, payload under the group
    /// key.
    Publish(PublicationSpec),
    /// Publish a whole batch of quotes as one wire frame
    /// ([`Message::PublishBatch`]): the router matches the batch through a
    /// single enclave crossing, amortising the call-gate cost.
    PublishBatch(Vec<PublicationSpec>),
    /// Stop the event loop.
    Shutdown,
}

/// Which kind of router request a queued ack slot belongs to (router
/// replies are FIFO over one connection, but ack and error shapes differ
/// per kind).
#[derive(Debug, Clone, Copy)]
enum PendingKind {
    Register,
    Unregister,
}

/// What the producer loop waits on: operator commands and connection
/// traffic share one queue.
enum ProducerEvent {
    Command(ProducerCommand),
    Conn(ConnEvent),
}

impl From<ConnEvent> for ProducerEvent {
    fn from(event: ConnEvent) -> Self {
        ProducerEvent::Conn(event)
    }
}

/// Control handle to a running producer.
#[derive(Debug, Clone)]
pub struct ProducerHandle {
    tx: Sender<ProducerEvent>,
}

impl ProducerHandle {
    /// Sends a command; returns whether the producer is still running.
    pub fn send(&self, cmd: ProducerCommand) -> bool {
        self.tx.send(ProducerEvent::Command(cmd)).is_ok()
    }
}

/// A running producer node.
#[derive(Debug)]
pub struct Producer {
    handle: Option<JoinHandle<()>>,
    control: ProducerHandle,
}

impl Producer {
    /// Starts the producer loop.
    ///
    /// * `listener` — endpoint clients connect to (submissions + key
    ///   updates).
    /// * `router` — established connection to the router.
    /// * `crypto` — the producer's key material (`PK`, `SK`, `X_P`).
    pub fn spawn(
        listener: Box<dyn Listener>,
        router: Box<dyn Connection>,
        crypto: ProducerCrypto,
        rng: CryptoRng,
    ) -> Producer {
        let (events_tx, events_rx) = channel();
        const ROUTER_CONN: u64 = 0;
        let router: Arc<dyn Connection> = Arc::from(router);
        pump_connection(ROUTER_CONN, router.clone(), events_tx.clone());
        pump_listener(listener, events_tx.clone(), 1);

        let handle = std::thread::spawn(move || {
            let mut rng = rng;
            let mut directory = ClientDirectory::new();
            let mut group = GroupKeyManager::new(&mut rng);
            let mut conns: HashMap<u64, Arc<dyn Connection>> = HashMap::new();
            let mut client_conns: HashMap<ClientId, u64> = HashMap::new();
            // Requests in flight to the router, oldest first. One queue
            // for both kinds: the router processes its connection in FIFO
            // order and replies (ack *or* error) once per request, so the
            // front entry always tells us which client — and which kind of
            // request — the next router reply belongs to.
            let mut pending_acks: Vec<(u64, PendingKind)> = Vec::new();

            while let Ok(event) = events_rx.recv() {
                match event {
                    ProducerEvent::Command(cmd) => match cmd {
                        ProducerCommand::Admit { client, public_key } => {
                            let Ok(key) = crypto.pairwise_key(client, &public_key) else {
                                continue;
                            };
                            directory.admit(client, key);
                            group.add_member(client);
                            // Push the current key if connected.
                            let updates = group.key_updates(&directory, &mut rng);
                            push_key_updates(&updates, &client_conns, &conns, &[client]);
                        }
                        ProducerCommand::Suspend(c) => {
                            let _ = directory.suspend(c);
                        }
                        ProducerCommand::Revoke(c) => {
                            let _ = directory.revoke(c);
                            group.remove_member(c);
                            group.rekey(&mut rng);
                            let updates = group.key_updates(&directory, &mut rng);
                            push_key_updates(&updates, &client_conns, &conns, &group.members());
                        }
                        ProducerCommand::Rekey => {
                            group.rekey(&mut rng);
                            let updates = group.key_updates(&directory, &mut rng);
                            push_key_updates(&updates, &client_conns, &conns, &group.members());
                        }
                        ProducerCommand::Publish(publication) => {
                            let publications = std::slice::from_ref(&publication);
                            publish(router.as_ref(), &crypto, &group, &mut rng, publications);
                        }
                        ProducerCommand::PublishBatch(publications) => {
                            publish(router.as_ref(), &crypto, &group, &mut rng, &publications);
                        }
                        ProducerCommand::Shutdown => {
                            send_best_effort(router.as_ref(), &Message::Shutdown);
                            break;
                        }
                    },
                    ProducerEvent::Conn(ConnEvent::Opened { conn, connection }) => {
                        conns.insert(conn, connection);
                    }
                    ProducerEvent::Conn(ConnEvent::Gone { conn }) => {
                        conns.remove(&conn);
                        client_conns.retain(|_, c| *c != conn);
                    }
                    ProducerEvent::Conn(ConnEvent::Msg { conn, message }) => match message {
                        Message::Hello { client } => {
                            client_conns.insert(client, conn);
                            // If already admitted, push the current key.
                            if directory.check_admitted(client).is_ok() {
                                let updates = group.key_updates(&directory, &mut rng);
                                push_key_updates(&updates, &client_conns, &conns, &[client]);
                            }
                        }
                        Message::SubmitSubscription { client, encrypted_subscription } => {
                            let reply = handle_submission(
                                &crypto,
                                &mut directory,
                                client,
                                &encrypted_subscription,
                                router.as_ref(),
                                &mut rng,
                            );
                            match reply {
                                Ok(()) => pending_acks.push((conn, PendingKind::Register)),
                                Err(e) => {
                                    if let Some(c) = conns.get(&conn) {
                                        send_best_effort(
                                            c.as_ref(),
                                            &Message::SubscriptionRejected {
                                                reason: e.to_string(),
                                            },
                                        );
                                    }
                                }
                            }
                        }
                        Message::Unsubscribe { client, id, tag } => {
                            let reply = handle_unsubscription(
                                &crypto,
                                &mut directory,
                                client,
                                id,
                                &tag,
                                router.as_ref(),
                                &mut rng,
                            );
                            match reply {
                                Ok(()) => pending_acks.push((conn, PendingKind::Unregister)),
                                Err(e) => {
                                    if let Some(c) = conns.get(&conn) {
                                        send_best_effort(
                                            c.as_ref(),
                                            &Message::Error { message: e.to_string() },
                                        );
                                    }
                                }
                            }
                        }
                        // Router acknowledgements map onto the oldest
                        // pending submission (the router processes
                        // registrations in order).
                        Message::RegisterAck { id } if conn == ROUTER_CONN => {
                            if !pending_acks.is_empty() {
                                let (client_conn, _) = pending_acks.remove(0);
                                if let Some(c) = conns.get(&client_conn) {
                                    send_best_effort(
                                        c.as_ref(),
                                        &Message::SubscriptionAccepted { id },
                                    );
                                }
                            }
                        }
                        Message::UnregisterAck { id } if conn == ROUTER_CONN => {
                            if !pending_acks.is_empty() {
                                let (client_conn, _) = pending_acks.remove(0);
                                if let Some(c) = conns.get(&client_conn) {
                                    send_best_effort(c.as_ref(), &Message::Unsubscribed { id });
                                }
                            }
                        }
                        // A router error refuses the *oldest* in-
                        // flight request, whichever kind it was —
                        // the stored kind picks the reply shape the
                        // waiting client understands.
                        Message::Error { message } if conn == ROUTER_CONN => {
                            if !pending_acks.is_empty() {
                                let (client_conn, kind) = pending_acks.remove(0);
                                if let Some(c) = conns.get(&client_conn) {
                                    let reply = match kind {
                                        PendingKind::Register => {
                                            Message::SubscriptionRejected { reason: message }
                                        }
                                        PendingKind::Unregister => Message::Error { message },
                                    };
                                    send_best_effort(c.as_ref(), &reply);
                                }
                            }
                        }
                        other => {
                            if let Some(c) = conns.get(&conn) {
                                send_best_effort(
                                    c.as_ref(),
                                    &Message::Error {
                                        message: format!("unexpected {}", other.kind()),
                                    },
                                );
                            }
                        }
                    },
                }
            }
        });
        Producer { handle: Some(handle), control: ProducerHandle { tx: events_tx } }
    }

    /// The control handle.
    pub fn handle(&self) -> ProducerHandle {
        self.control.clone()
    }

    /// Stops the loop and waits for it.
    ///
    /// # Errors
    ///
    /// [`ScbrError::NotFound`] if already joined or the thread panicked.
    pub fn shutdown(mut self) -> Result<(), ScbrError> {
        let _ = self.control.send(ProducerCommand::Shutdown);
        self.handle
            .take()
            .ok_or(ScbrError::NotFound { what: "producer thread" })?
            .join()
            .map_err(|_| ScbrError::NotFound { what: "producer thread (panicked)" })
    }
}

/// A producer dropped without [`Producer::shutdown`] still stops: its
/// connection pumps hold the event queue open, so the loop would
/// otherwise wait on it until the process ends.
impl Drop for Producer {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.control.send(ProducerCommand::Shutdown);
            let _ = handle.join();
        }
    }
}

/// Encrypts `publications` and sends them to the router as
/// `PublishBatch` frames, in order. Frames are chunked: never more than
/// the router's per-crossing drain bound ([`MAX_DRAIN`]) per frame, and
/// far inside the wire-level frame limit, so an oversized command
/// degrades into more frames instead of killing the event loop. A single
/// outsized publication rides alone in a one-item frame. An empty
/// command sends nothing.
fn publish(
    router: &dyn Connection,
    crypto: &ProducerCrypto,
    group: &GroupKeyManager,
    rng: &mut CryptoRng,
    publications: &[PublicationSpec],
) {
    const MAX_BATCH_BYTES: usize = 4 << 20;
    let mut items: Vec<PublishItem> = Vec::new();
    let mut batch_bytes = 0usize;
    for publication in publications {
        let header_ct = crypto.encrypt_header(publication, rng);
        let (epoch, payload_ct) = group.encrypt_payload(publication.payload_bytes(), rng);
        let item = PublishItem { header_ct, epoch, payload_ct };
        let item_bytes = item.header_ct.len() + item.payload_ct.len() + 32;
        if item_bytes > MAX_BATCH_BYTES {
            send_batch(router, std::slice::from_ref(&item));
            continue;
        }
        batch_bytes += item_bytes;
        items.push(item);
        if items.len() >= MAX_DRAIN || batch_bytes >= MAX_BATCH_BYTES {
            send_batch(router, &items);
            items.clear();
            batch_bytes = 0;
        }
    }
    if !items.is_empty() {
        send_batch(router, &items);
    }
}

/// Sends `items` as one `PublishBatch` frame, best effort like every
/// producer send: a frame the wire cannot carry (a publication beyond
/// [`scbr_net::frame::MAX_FRAME`]) is dropped.
fn send_batch(router: &dyn Connection, items: &[PublishItem]) {
    let mut wire = Vec::new();
    if encode_publish_batch(items.iter().map(PublishItem::view), &mut wire).is_ok() {
        let _ = router.send(&wire);
    }
}

/// Validates and forwards one client submission (protocol step 2): it
/// must open under the pairwise key of the admitted client it names.
fn handle_submission(
    crypto: &ProducerCrypto,
    directory: &mut ClientDirectory,
    client: ClientId,
    encrypted_subscription: &[u8],
    router: &dyn Connection,
    rng: &mut CryptoRng,
) -> Result<(), ScbrError> {
    let record = directory.check_admitted(client)?;
    let spec = record.pairwise_key().open_subscription(encrypted_subscription)?;
    let id = directory.issue_subscription(client)?;
    let envelope = crypto.seal_registration(&spec, id, client, rng)?;
    send_best_effort(router, &Message::Register { envelope });
    Ok(())
}

/// Validates and forwards one client unsubscribe request: the client must
/// be admitted, the request must carry a valid tag under the client's
/// pairwise key, and the subscription must belong to that client. Only
/// then does the producer seal an unregistration envelope for the router.
fn handle_unsubscription(
    crypto: &ProducerCrypto,
    directory: &mut ClientDirectory,
    client: ClientId,
    id: SubscriptionId,
    tag: &[u8],
    router: &dyn Connection,
    rng: &mut CryptoRng,
) -> Result<(), ScbrError> {
    let record = directory.check_admitted(client)?;
    record.pairwise_key().check_unsubscribe(client, id, tag)?;
    directory.retire_subscription(client, id)?;
    let envelope = crypto.seal_unregistration(id, client, rng)?;
    send_best_effort(router, &Message::Unregister { envelope });
    Ok(())
}

/// Pushes key updates to the subset `targets` of connected clients.
fn push_key_updates(
    updates: &[(ClientId, Vec<u8>)],
    client_conns: &HashMap<ClientId, u64>,
    conns: &HashMap<u64, Arc<dyn Connection>>,
    targets: &[ClientId],
) {
    for (client, wrapped) in updates {
        if !targets.contains(client) {
            continue;
        }
        if let Some(conn_id) = client_conns.get(client) {
            if let Some(conn) = conns.get(conn_id) {
                send_best_effort(conn.as_ref(), &Message::KeyUpdate { wrapped: wrapped.clone() });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scbr_crypto::ctr::AesCtr;
    use scbr_net::{InProcNetwork, Transport};
    use std::time::Duration;

    /// Dropping a producer stops its loop, which tells its router to shut
    /// down: `Shutdown` is the last message on the router connection.
    #[test]
    fn dropping_a_producer_stops_it_and_its_router() {
        let net = InProcNetwork::new();
        let router = net.bind("router").unwrap();
        let mut rng = CryptoRng::from_seed(6);
        let crypto = ProducerCrypto::generate(512, &mut rng).unwrap();
        let producer = Producer::spawn(
            net.bind("producer").unwrap(),
            net.connect("router").unwrap(),
            crypto,
            rng,
        );
        let from_producer = router.accept().unwrap();
        drop(producer);
        let frame = from_producer.recv_timeout(Duration::from_secs(5)).unwrap();
        let message = frame.map(|f| Message::from_wire(&f).unwrap());
        assert!(
            matches!(message, Some(Message::Shutdown)),
            "the dropped producer's Shutdown reaches the router, got {message:?}"
        );
    }

    /// A `PublishBatch` command longer than the router's drain bound
    /// reaches the router as frames of at most [`MAX_DRAIN`] items, in
    /// publish order.
    #[test]
    fn a_long_publish_batch_is_chunked_into_drain_sized_frames() {
        let net = InProcNetwork::new();
        let router = net.bind("router").unwrap();
        // Two producers from one seed hold the same `SK`: this one reads
        // the headers the spawned one encrypts.
        let keys = |seed| ProducerCrypto::generate(512, &mut CryptoRng::from_seed(seed)).unwrap();
        let reader = keys(7);
        let producer = Producer::spawn(
            net.bind("producer").unwrap(),
            net.connect("router").unwrap(),
            keys(7),
            CryptoRng::from_seed(8),
        );
        let from_producer = router.accept().unwrap();
        let n = 2 * MAX_DRAIN + 1;
        let batch = (0..n).map(|i| PublicationSpec::new().attr("seq", i as i64)).collect();
        assert!(producer.handle().send(ProducerCommand::PublishBatch(batch)));
        let mut sizes = Vec::new();
        let mut seqs = Vec::new();
        while seqs.len() < n {
            let frame = from_producer.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            let Message::PublishBatch { items } = Message::from_wire(&frame).unwrap() else {
                panic!("only publication frames before the last one");
            };
            sizes.push(items.len());
            for item in items {
                let plain = AesCtr::decrypt_with_nonce(reader.sk(), &item.header_ct).unwrap();
                seqs.push(crate::codec::decode_header(&plain).unwrap());
            }
        }
        assert_eq!(sizes, vec![MAX_DRAIN, MAX_DRAIN, 1]);
        let expected: Vec<PublicationSpec> =
            (0..n).map(|i| PublicationSpec::new().attr("seq", i as i64)).collect();
        assert_eq!(seqs, expected, "publish order survives the chunking");
        producer.shutdown().unwrap();
    }
}
