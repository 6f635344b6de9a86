//! The producer role: owns the data, the keys and the clients.
//!
//! The producer (service provider) is trusted by clients. It admits
//! clients, validates and re-encrypts their subscriptions (protocol step
//! 2), publishes encrypted quotes, and rotates the payload group key as
//! membership changes. Each of those decisions is [`ProducerCore::step`]'s;
//! [`Producer`] is the socket driver that feeds it ([`crate::roles`]).

use crate::engine::MAX_DRAIN;
use crate::error::ScbrError;
use crate::ids::{ClientId, SubscriptionId};
use crate::protocol::admission::ClientDirectory;
use crate::protocol::group::GroupKeyManager;
use crate::protocol::keys::ProducerCrypto;
use crate::protocol::messages::{Message, PublishItem};
use crate::publication::PublicationSpec;
use crate::roles::{pump_connection, pump_listener, send_best_effort, ConnEvent};
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::x25519::KEY_LEN;
use scbr_net::frame::MAX_FRAME;
use scbr_net::{Connection, Listener};
use std::collections::{HashMap, VecDeque};
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

/// A peer of the producer: where an output of [`ProducerCore::step`]
/// goes, or where an input came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum To {
    /// The producer's one router connection.
    Router,
    /// A client connection, by its pump-local id.
    Conn(u64),
}

/// One input of [`ProducerCore::step`].
#[derive(Debug)]
pub enum Input {
    /// An operator command.
    Command(ProducerCommand),
    /// A decoded message from a peer.
    Msg(To, Message),
    /// A peer's connection closed.
    Gone(To),
}

/// The kind of a request in flight to the router, which picks the shape
/// of the client's reply.
#[derive(Debug, Clone, Copy)]
enum PendingKind {
    Register,
    Unregister,
}

impl PendingKind {
    /// The refusal a client waiting on this kind of request understands.
    fn refusal(self, reason: String) -> Message {
        match self {
            PendingKind::Register => Message::SubscriptionRejected { reason },
            PendingKind::Unregister => Message::Error { message: reason },
        }
    }
}

/// The producer's half of the Fig. 4 protocol as a sans-IO machine: its
/// keys, clients and group key, and the requests that wait on the router.
/// Each [`ProducerCore::step`] is deterministic in the inputs and the
/// seed of the `rng` it was built with.
#[derive(Debug)]
pub struct ProducerCore {
    crypto: ProducerCrypto,
    rng: CryptoRng,
    directory: ClientDirectory,
    group: GroupKeyManager,
    /// The connection each client said `Hello` on.
    client_conns: HashMap<ClientId, u64>,
    /// Requests in flight to the router, oldest first. The router answers
    /// each request in order, once (ack *or* error), so the front entry is
    /// the client connection and kind the next router reply belongs to.
    pending: VecDeque<(u64, PendingKind)>,
}

impl ProducerCore {
    /// A producer with no clients, holding `crypto`. Its first group key
    /// is the first draw of `rng`.
    pub fn new(crypto: ProducerCrypto, mut rng: CryptoRng) -> Self {
        let group = GroupKeyManager::new(&mut rng);
        ProducerCore {
            crypto,
            rng,
            directory: ClientDirectory::new(),
            group,
            client_conns: HashMap::new(),
            pending: VecDeque::new(),
        }
    }

    /// Handles one input, appending what it sends to `out` in send order.
    pub fn step(&mut self, input: Input, out: &mut Vec<(To, Message)>) {
        match input {
            Input::Command(command) => self.command(command, out),
            Input::Msg(To::Router, message) => self.router_reply(message, out),
            Input::Msg(To::Conn(conn), message) => self.client_message(conn, message, out),
            Input::Gone(To::Conn(conn)) => self.client_conns.retain(|_, c| *c != conn),
            Input::Gone(To::Router) => {}
        }
    }

    fn command(&mut self, command: ProducerCommand, out: &mut Vec<(To, Message)>) {
        match command {
            ProducerCommand::Admit { client, public_key } => {
                let Ok(key) = self.crypto.pairwise_key(client, &public_key) else { return };
                self.directory.admit(client, key);
                self.group.add_member(client);
                self.push_key(client, out);
            }
            ProducerCommand::Suspend(client) => {
                let _ = self.directory.suspend(client);
            }
            ProducerCommand::Revoke(client) => {
                let _ = self.directory.revoke(client);
                self.group.remove_member(client);
                self.rekey(out);
            }
            ProducerCommand::Rekey => self.rekey(out),
            ProducerCommand::Publish(publication) => {
                self.publish(std::slice::from_ref(&publication), out);
            }
            ProducerCommand::PublishBatch(publications) => self.publish(&publications, out),
            ProducerCommand::Shutdown => out.push((To::Router, Message::Shutdown)),
        }
    }

    /// A client's message. A checked submission or unsubscribe goes to
    /// the router and `conn` waits for its answer; one that fails a check
    /// is refused on `conn` in the shape its kind calls for.
    fn client_message(&mut self, conn: u64, message: Message, out: &mut Vec<(To, Message)>) {
        let (kind, request) = match message {
            Message::Hello { client } => {
                self.client_conns.insert(client, conn);
                if self.directory.check_admitted(client).is_ok() {
                    self.push_key(client, out);
                }
                return;
            }
            Message::SubmitSubscription { client, encrypted_subscription } => {
                (PendingKind::Register, self.submission(client, &encrypted_subscription))
            }
            Message::Unsubscribe { client, id, tag } => {
                (PendingKind::Unregister, self.unsubscription(client, id, &tag))
            }
            other => {
                let message = format!("unexpected {}", other.kind());
                return out.push((To::Conn(conn), Message::Error { message }));
            }
        };
        match request {
            Ok(request) => {
                self.pending.push_back((conn, kind));
                out.push((To::Router, request));
            }
            Err(e) => out.push((To::Conn(conn), kind.refusal(e.to_string()))),
        }
    }

    /// Answers the oldest request in flight with the router's reply to
    /// it (the router handles registrations in order). Anything else the
    /// router sends is ignored.
    fn router_reply(&mut self, message: Message, out: &mut Vec<(To, Message)>) {
        let answer = match message {
            Message::RegisterAck { id } => Ok(Message::SubscriptionAccepted { id }),
            Message::UnregisterAck { id } => Ok(Message::Unsubscribed { id }),
            Message::Error { message } => Err(message),
            _ => return,
        };
        if let Some((conn, kind)) = self.pending.pop_front() {
            out.push((To::Conn(conn), answer.unwrap_or_else(|reason| kind.refusal(reason))));
        }
    }

    /// Validates one client submission (protocol step 2) into its
    /// registration: it must open under the pairwise key of the admitted
    /// client it names, with a submission number above that client's last.
    fn submission(&mut self, client: ClientId, sealed: &[u8]) -> Result<Message, ScbrError> {
        let record = self.directory.check_admitted(client)?;
        let (seq, spec) = record.pairwise_key().open_subscription(sealed)?;
        let id = self.directory.issue_subscription(client, seq)?;
        let envelope = self.crypto.seal_registration(&spec, id, client, &mut self.rng)?;
        Ok(Message::Register { envelope })
    }

    /// Validates one unsubscribe request into its unregistration: the
    /// client must be admitted, the tag valid under its pairwise key, and
    /// the subscription the client's own.
    fn unsubscription(
        &mut self,
        client: ClientId,
        id: SubscriptionId,
        tag: &[u8],
    ) -> Result<Message, ScbrError> {
        let record = self.directory.check_admitted(client)?;
        record.pairwise_key().check_unsubscribe(client, id, tag)?;
        self.directory.retire_subscription(client, id)?;
        let envelope = self.crypto.seal_unregistration(id, client, &mut self.rng)?;
        Ok(Message::Unregister { envelope })
    }

    /// Seals the current group key for `client` and sends it, if the
    /// client is a connected member.
    fn push_key(&mut self, client: ClientId, out: &mut Vec<(To, Message)>) {
        let Some(&conn) = self.client_conns.get(&client) else { return };
        if let Some(wrapped) = self.group.key_update(client, &self.directory, &mut self.rng) {
            out.push((To::Conn(conn), Message::KeyUpdate { wrapped }));
        }
    }

    /// Rotates the group key and sends the new one to each connected
    /// member.
    fn rekey(&mut self, out: &mut Vec<(To, Message)>) {
        self.group.rekey(&mut self.rng);
        for client in self.group.members() {
            self.push_key(client, out);
        }
    }

    /// Encrypts `publications` into `PublishBatch` messages for the
    /// router, in order. Batches are chunked: never more than the router's
    /// per-crossing drain bound ([`MAX_DRAIN`]) per frame, and far inside
    /// the wire-level frame limit, so an oversized command degrades into
    /// more frames. A single outsized publication rides alone in a
    /// one-item frame, and one the wire cannot carry ([`MAX_FRAME`]) is
    /// dropped. An empty command sends nothing.
    fn publish(&mut self, publications: &[PublicationSpec], out: &mut Vec<(To, Message)>) {
        const MAX_BATCH_BYTES: usize = 4 << 20;
        let mut items: Vec<PublishItem> = Vec::new();
        let mut batch_bytes = 0usize;
        for publication in publications {
            let header_ct = self.crypto.encrypt_header(publication, &mut self.rng);
            let payload = publication.payload_bytes();
            let (epoch, payload_ct) = self.group.encrypt_payload(payload, &mut self.rng);
            // The item's bytes in a `PublishBatch` body.
            let item_bytes = 20 + header_ct.len() + payload_ct.len();
            let item = PublishItem { header_ct, epoch, payload_ct };
            if item_bytes > MAX_BATCH_BYTES {
                if 4 + item_bytes <= MAX_FRAME {
                    out.push((To::Router, Message::PublishBatch { items: vec![item] }));
                }
                continue;
            }
            batch_bytes += item_bytes;
            items.push(item);
            if items.len() >= MAX_DRAIN || batch_bytes >= MAX_BATCH_BYTES {
                out.push((To::Router, Message::PublishBatch { items: std::mem::take(&mut items) }));
                batch_bytes = 0;
            }
        }
        if !items.is_empty() {
            out.push((To::Router, Message::PublishBatch { items }));
        }
    }
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
    /// Starts the producer loop: a [`ProducerCore`] behind the connection
    /// pumps.
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
        let (events_tx, events) = channel();
        const ROUTER_CONN: u64 = 0;
        let router: Arc<dyn Connection> = Arc::from(router);
        pump_connection(ROUTER_CONN, router.clone(), events_tx.clone());
        pump_listener(listener, events_tx.clone(), 1);
        let mut core = ProducerCore::new(crypto, rng);

        let handle = std::thread::spawn(move || {
            let peer = |conn| if conn == ROUTER_CONN { To::Router } else { To::Conn(conn) };
            let mut conns: HashMap<u64, Arc<dyn Connection>> =
                HashMap::from([(ROUTER_CONN, router)]);
            let mut outs = Vec::new();
            while let Ok(event) = events.recv() {
                let stop = matches!(event, ProducerEvent::Command(ProducerCommand::Shutdown));
                let input = match event {
                    ProducerEvent::Command(command) => Input::Command(command),
                    ProducerEvent::Conn(ConnEvent::Opened { conn, connection }) => {
                        conns.insert(conn, connection);
                        continue;
                    }
                    ProducerEvent::Conn(ConnEvent::Msg { conn, message }) => {
                        Input::Msg(peer(conn), message)
                    }
                    ProducerEvent::Conn(ConnEvent::Gone { conn }) => {
                        conns.remove(&conn);
                        Input::Gone(peer(conn))
                    }
                };
                core.step(input, &mut outs);
                for (to, message) in outs.drain(..) {
                    let conn = if let To::Conn(conn) = to { conn } else { ROUTER_CONN };
                    if let Some(conn) = conns.get(&conn) {
                        send_best_effort(conn.as_ref(), &message);
                    }
                }
                if stop {
                    break;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::KeyEpoch;
    use crate::protocol::keys::PairwiseKey;
    use crate::subscription::SubscriptionSpec;
    use scbr_crypto::ctr::{AesCtr, SymmetricKey, NONCE_LEN};
    use scbr_crypto::x25519::X25519Secret;
    use scbr_net::{InProcNetwork, Transport};
    use std::time::Duration;

    /// A core whose keys come from `seed` and whose own draws from
    /// `seed + 1`.
    fn core(seed: u64) -> ProducerCore {
        let crypto = ProducerCrypto::generate(512, &mut CryptoRng::from_seed(seed)).unwrap();
        ProducerCore::new(crypto, CryptoRng::from_seed(seed + 1))
    }

    fn step(core: &mut ProducerCore, input: Input) -> Vec<(To, Message)> {
        let mut out = Vec::new();
        core.step(input, &mut out);
        out
    }

    /// Connects `client` on `conn` and admits it: its pairwise key as the
    /// client derives it, and what the admission sent.
    fn admit(core: &mut ProducerCore, client: u64, conn: u64) -> (PairwiseKey, Vec<(To, Message)>) {
        let secret = X25519Secret::generate(&mut CryptoRng::from_seed(1000 + client));
        let hello = Message::Hello { client: ClientId(client) };
        assert!(step(core, Input::Msg(To::Conn(conn), hello)).is_empty(), "not admitted yet");
        let admit =
            ProducerCommand::Admit { client: ClientId(client), public_key: *secret.public_key() };
        let out = step(core, Input::Command(admit));
        let producer_key = core.crypto.exchange_key();
        (PairwiseKey::for_client(&secret, ClientId(client), producer_key).unwrap(), out)
    }

    fn submit(key: &PairwiseKey, client: u64, seq: u64, rng: &mut CryptoRng) -> Message {
        let spec = SubscriptionSpec::new().eq("symbol", "HAL");
        let encrypted_subscription = key.seal_subscription(seq, &spec, rng);
        Message::SubmitSubscription { client: ClientId(client), encrypted_subscription }
    }

    /// The epoch of each key update in `out`, by the connection it goes
    /// to, opened with the client key `keys` holds for that connection.
    fn updates(out: &[(To, Message)], keys: &HashMap<u64, PairwiseKey>) -> Vec<(u64, KeyEpoch)> {
        out.iter()
            .map(|(to, message)| match (to, message) {
                (To::Conn(conn), Message::KeyUpdate { wrapped }) => {
                    (*conn, keys[conn].open_key_update(wrapped).unwrap().0)
                }
                other => panic!("expected a key update, got {other:?}"),
            })
            .collect()
    }

    /// One sealed submission fed three times registers once: the first
    /// reaches the router and is accepted, the two replays are refused on
    /// the sender's connection before an id is issued.
    #[test]
    fn a_replayed_submission_registers_once() {
        let mut core = core(10);
        let (alice, _) = admit(&mut core, 1, 11);
        let submission = submit(&alice, 1, 1, &mut CryptoRng::from_seed(12));
        let out = step(&mut core, Input::Msg(To::Conn(11), submission.clone()));
        assert!(matches!(&out[..], [(To::Router, Message::Register { .. })]), "{out:?}");
        let ack = Message::RegisterAck { id: SubscriptionId(0) };
        let out = step(&mut core, Input::Msg(To::Router, ack));
        let accepted = Message::SubscriptionAccepted { id: SubscriptionId(0) };
        assert_eq!(out, vec![(To::Conn(11), accepted)]);
        for _ in 0..2 {
            let out = step(&mut core, Input::Msg(To::Conn(11), submission.clone()));
            match &out[..] {
                [(To::Conn(11), Message::SubscriptionRejected { reason })] => {
                    assert!(reason.contains("replayed"), "{reason}")
                }
                other => panic!("expected one rejection, got {other:?}"),
            }
        }
        assert_eq!(core.directory.get(ClientId(1)).unwrap().subscriptions(), &[SubscriptionId(0)]);
        assert!(core.pending.is_empty());
        // The client's next number is still good.
        let next = submit(&alice, 1, 2, &mut CryptoRng::from_seed(13));
        let out = step(&mut core, Input::Msg(To::Conn(11), next));
        assert!(matches!(&out[..], [(To::Router, Message::Register { .. })]), "{out:?}");
    }

    /// Admitting 64 connected clients sends 64 key updates, each to its
    /// own client's connection, and seals no more than those: the core's
    /// RNG stands where the group key and 64 nonces leave a fresh one.
    #[test]
    fn admitting_n_connected_clients_seals_n_key_updates() {
        let mut core = core(20);
        let mut keys = HashMap::new();
        for client in 0..64 {
            let (key, out) = admit(&mut core, client, 100 + client);
            keys.insert(100 + client, key);
            assert_eq!(updates(&out, &keys), vec![(100 + client, KeyEpoch(0))]);
        }
        let mut replay = CryptoRng::from_seed(21);
        SymmetricKey::generate(&mut replay);
        for _ in 0..64 {
            replay.fill(&mut [0u8; NONCE_LEN]);
        }
        assert_eq!(core.rng.next_u64(), replay.next_u64(), "one seal per update sent");
    }

    /// A revoke rekeys: every remaining connected member gets one update
    /// for the new epoch, the revoked client none.
    #[test]
    fn a_revoke_sends_the_new_epoch_to_each_remaining_member() {
        let mut core = core(30);
        let keys: HashMap<u64, PairwiseKey> =
            (1..=3).map(|client| (10 + client, admit(&mut core, client, 10 + client).0)).collect();
        // A member that is not connected gets nothing either.
        let _ = admit(&mut core, 4, 14);
        assert!(step(&mut core, Input::Gone(To::Conn(14))).is_empty());
        let out = step(&mut core, Input::Command(ProducerCommand::Revoke(ClientId(2))));
        assert_eq!(updates(&out, &keys), vec![(11, KeyEpoch(1)), (13, KeyEpoch(1))]);
    }

    /// An unsubscribe tagged under another client's key is refused: the
    /// subscription stays, and nothing reaches the router.
    #[test]
    fn a_forged_unsubscribe_retires_nothing() {
        let mut core = core(40);
        let mut rng = CryptoRng::from_seed(41);
        let (alice, _) = admit(&mut core, 1, 11);
        let (mallory, _) = admit(&mut core, 2, 12);
        step(&mut core, Input::Msg(To::Conn(11), submit(&alice, 1, 1, &mut rng)));
        step(&mut core, Input::Msg(To::Router, Message::RegisterAck { id: SubscriptionId(0) }));
        let id = SubscriptionId(0);
        // Sent on mallory's connection, and on alice's.
        for conn in [12, 11] {
            let tag = mallory.unsubscribe_tag(ClientId(1), id, &mut rng);
            let forged = Message::Unsubscribe { client: ClientId(1), id, tag };
            let out = step(&mut core, Input::Msg(To::Conn(conn), forged));
            assert!(matches!(&out[..], [(To::Conn(c), Message::Error { .. })] if *c == conn));
        }
        assert_eq!(core.directory.get(ClientId(1)).unwrap().subscriptions(), &[id]);
        assert!(core.pending.is_empty());
        let tag = alice.unsubscribe_tag(ClientId(1), id, &mut rng);
        let genuine = Message::Unsubscribe { client: ClientId(1), id, tag };
        let out = step(&mut core, Input::Msg(To::Conn(11), genuine));
        assert!(matches!(&out[..], [(To::Router, Message::Unregister { .. })]), "{out:?}");
    }

    /// A router error answers the oldest request in flight, in the reply
    /// shape of that request's kind.
    #[test]
    fn a_router_error_refuses_the_oldest_request_by_its_kind() {
        let mut core = core(50);
        let mut rng = CryptoRng::from_seed(51);
        let (alice, _) = admit(&mut core, 1, 11);
        let (bob, _) = admit(&mut core, 2, 12);
        step(&mut core, Input::Msg(To::Conn(12), submit(&bob, 2, 1, &mut rng)));
        step(&mut core, Input::Msg(To::Router, Message::RegisterAck { id: SubscriptionId(0) }));
        let tag = bob.unsubscribe_tag(ClientId(2), SubscriptionId(0), &mut rng);
        let unsubscribe = Message::Unsubscribe { client: ClientId(2), id: SubscriptionId(0), tag };
        step(&mut core, Input::Msg(To::Conn(11), submit(&alice, 1, 1, &mut rng)));
        step(&mut core, Input::Msg(To::Conn(12), unsubscribe));
        let error = |message: &str| Message::Error { message: message.into() };
        let out = step(&mut core, Input::Msg(To::Router, error("first")));
        let rejected = Message::SubscriptionRejected { reason: "first".into() };
        assert_eq!(out, vec![(To::Conn(11), rejected)]);
        let out = step(&mut core, Input::Msg(To::Router, error("second")));
        assert_eq!(out, vec![(To::Conn(12), error("second"))]);
        assert!(step(&mut core, Input::Msg(To::Router, error("third"))).is_empty());
    }

    /// A router reply from a client connection is refused, not taken for
    /// the router's.
    #[test]
    fn a_register_ack_from_a_client_is_unexpected() {
        let mut core = core(60);
        let ack = Message::RegisterAck { id: SubscriptionId(0) };
        let out = step(&mut core, Input::Msg(To::Conn(11), ack));
        assert_eq!(
            out,
            vec![(To::Conn(11), Message::Error { message: "unexpected register-ack".into() })]
        );
    }

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
        let mut core = core(7);
        let n = 2 * MAX_DRAIN + 1;
        let batch = (0..n).map(|i| PublicationSpec::new().attr("seq", i as i64)).collect();
        let out = step(&mut core, Input::Command(ProducerCommand::PublishBatch(batch)));
        let mut sizes = Vec::new();
        let mut seqs = Vec::new();
        for (to, message) in out {
            let (To::Router, Message::PublishBatch { items }) = (to, message) else {
                panic!("only publication frames to the router");
            };
            sizes.push(items.len());
            for item in items {
                let plain = AesCtr::decrypt_with_nonce(core.crypto.sk(), &item.header_ct).unwrap();
                seqs.push(crate::codec::decode_header(&plain).unwrap());
            }
        }
        assert_eq!(sizes, vec![MAX_DRAIN, MAX_DRAIN, 1]);
        let expected: Vec<PublicationSpec> =
            (0..n).map(|i| PublicationSpec::new().attr("seq", i as i64)).collect();
        assert_eq!(seqs, expected, "publish order survives the chunking");
    }
}
