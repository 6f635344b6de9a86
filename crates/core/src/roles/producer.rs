//! The producer role: owns the data, the keys and the clients.
//!
//! The producer (service provider) is trusted by clients. It admits
//! clients, validates and re-encrypts their subscriptions (protocol step
//! 2), publishes encrypted quotes, and rotates the payload group key as
//! membership changes.

use crate::error::ScbrError;
use crate::ids::ClientId;
use crate::ids::SubscriptionId;
use crate::protocol::admission::ClientDirectory;
use crate::protocol::group::GroupKeyManager;
use crate::protocol::keys::{unsubscribe_signing_bytes, ProducerCrypto};
use crate::protocol::messages::{Message, PublishItem};
use crate::publication::PublicationSpec;
use crate::roles::ConnEvent;
use crate::roles::{pump_connection, pump_listener, send_best_effort};
use crossbeam::channel::{unbounded, Sender};
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::rsa::RsaPublicKey;
use scbr_net::{Connection, Listener};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Operator commands accepted by a running [`Producer`].
#[derive(Debug)]
pub enum ProducerCommand {
    /// Admit a client (adds it to the payload group and pushes the current
    /// group key if the client is connected).
    Admit {
        /// The client to admit.
        client: ClientId,
        /// The client's public key.
        public_key: RsaPublicKey,
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

/// Control handle to a running producer.
#[derive(Debug, Clone)]
pub struct ProducerHandle {
    tx: Sender<ProducerCommand>,
}

impl ProducerHandle {
    /// Sends a command; returns whether the producer is still running.
    pub fn send(&self, cmd: ProducerCommand) -> bool {
        self.tx.send(cmd).is_ok()
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
    /// * `crypto` — the producer's key material (`PK`, `SK`).
    pub fn spawn(
        listener: Box<dyn Listener>,
        router: Box<dyn Connection>,
        crypto: ProducerCrypto,
        rng: CryptoRng,
    ) -> Producer {
        let (control_tx, control_rx) = unbounded();
        let (events_tx, events_rx) = unbounded();
        const ROUTER_CONN: u64 = 0;
        let router: Arc<dyn Connection> = Arc::from(router);
        pump_connection(ROUTER_CONN, router.clone(), events_tx.clone());
        let accepted = pump_listener(listener, events_tx, 1);

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

            loop {
                crossbeam::channel::select! {
                    recv(control_rx) -> cmd => {
                        let Ok(cmd) = cmd else { break };
                        match cmd {
                            ProducerCommand::Admit { client, public_key } => {
                                directory.admit(client, public_key.clone());
                                group.add_member(client, public_key);
                                // Push the current key if connected.
                                if let Ok(updates) = group.key_updates(&mut rng) {
                                    push_key_updates(&updates, &client_conns, &conns, &[client]);
                                }
                            }
                            ProducerCommand::Suspend(c) => {
                                let _ = directory.suspend(c);
                            }
                            ProducerCommand::Revoke(c) => {
                                let _ = directory.revoke(c);
                                group.remove_member(c);
                                group.rekey(&mut rng);
                                if let Ok(updates) = group.key_updates(&mut rng) {
                                    let members = group.members();
                                    push_key_updates(&updates, &client_conns, &conns, &members);
                                }
                            }
                            ProducerCommand::Rekey => {
                                group.rekey(&mut rng);
                                if let Ok(updates) = group.key_updates(&mut rng) {
                                    let members = group.members();
                                    push_key_updates(&updates, &client_conns, &conns, &members);
                                }
                            }
                            ProducerCommand::Publish(publication) => {
                                let header_ct = crypto.encrypt_header(&publication, &mut rng);
                                let (epoch, payload_ct) =
                                    group.encrypt_payload(publication.payload_bytes(), &mut rng);
                                send_best_effort(
                                    router.as_ref(),
                                    &Message::Publish { header_ct, epoch, payload_ct },
                                );
                            }
                            ProducerCommand::PublishBatch(publications) => {
                                // Chunk the outgoing frames: never exceed
                                // the router's per-crossing drain bound per
                                // frame, and stay far inside the wire-level
                                // frame limit so encoding cannot fail (an
                                // oversized batch must degrade into more
                                // frames, not kill the event loop). An
                                // empty command sends nothing.
                                const MAX_BATCH_BYTES: usize = 4 << 20;
                                let mut items: Vec<PublishItem> = Vec::new();
                                let mut batch_bytes = 0usize;
                                for publication in &publications {
                                    let header_ct = crypto.encrypt_header(publication, &mut rng);
                                    let (epoch, payload_ct) =
                                        group.encrypt_payload(publication.payload_bytes(), &mut rng);
                                    let item_bytes = header_ct.len() + payload_ct.len() + 32;
                                    if item_bytes > MAX_BATCH_BYTES {
                                        // A single outsized publication
                                        // cannot ride in a batch frame; ship
                                        // it alone so the wire layer applies
                                        // its own size policy (exactly like
                                        // ProducerCommand::Publish).
                                        send_best_effort(
                                            router.as_ref(),
                                            &Message::Publish { header_ct, epoch, payload_ct },
                                        );
                                        continue;
                                    }
                                    batch_bytes += item_bytes;
                                    items.push(PublishItem { header_ct, epoch, payload_ct });
                                    if items.len() >= crate::roles::router::MAX_DRAIN
                                        || batch_bytes >= MAX_BATCH_BYTES
                                    {
                                        send_best_effort(
                                            router.as_ref(),
                                            &Message::PublishBatch {
                                                items: std::mem::take(&mut items),
                                            },
                                        );
                                        batch_bytes = 0;
                                    }
                                }
                                if !items.is_empty() {
                                    send_best_effort(
                                        router.as_ref(),
                                        &Message::PublishBatch { items },
                                    );
                                }
                            }
                            ProducerCommand::Shutdown => {
                                send_best_effort(router.as_ref(), &Message::Shutdown);
                                break;
                            }
                        }
                    }
                    recv(events_rx) -> event => {
                        let Ok(event) = event else { break };
                        while let Ok((id, conn)) = accepted.try_recv() {
                            conns.insert(id, conn);
                        }
                        match event {
                            ConnEvent::Gone { conn } => {
                                conns.remove(&conn);
                                client_conns.retain(|_, c| *c != conn);
                            }
                            ConnEvent::Msg { conn, message } => match message {
                                Message::Hello { client } => {
                                    client_conns.insert(client, conn);
                                    // If already admitted, push the current key.
                                    if directory.check_admitted(client).is_ok() {
                                        if let Ok(updates) = group.key_updates(&mut rng) {
                                            push_key_updates(
                                                &updates, &client_conns, &conns, &[client],
                                            );
                                        }
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
                                Message::Unsubscribe { client, id, signature } => {
                                    let reply = handle_unsubscription(
                                        &crypto,
                                        &mut directory,
                                        client,
                                        id,
                                        &signature,
                                        router.as_ref(),
                                        &mut rng,
                                    );
                                    match reply {
                                        Ok(()) => {
                                            pending_acks.push((conn, PendingKind::Unregister))
                                        }
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
                                            send_best_effort(
                                                c.as_ref(),
                                                &Message::Unsubscribed { id },
                                            );
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
                                                    Message::SubscriptionRejected {
                                                        reason: message,
                                                    }
                                                }
                                                PendingKind::Unregister => {
                                                    Message::Error { message }
                                                }
                                            };
                                            send_best_effort(c.as_ref(), &reply);
                                        }
                                    }
                                }
                                Message::Shutdown => break,
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
                }
            }
        });
        Producer { handle: Some(handle), control: ProducerHandle { tx: control_tx } }
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

/// Validates and forwards one client submission (protocol step 2).
fn handle_submission(
    crypto: &ProducerCrypto,
    directory: &mut ClientDirectory,
    client: ClientId,
    encrypted_subscription: &[u8],
    router: &dyn Connection,
    rng: &mut CryptoRng,
) -> Result<(), ScbrError> {
    directory.check_admitted(client)?;
    let spec = crypto.open_client_subscription(encrypted_subscription)?;
    let id = directory.issue_subscription(client)?;
    let envelope = crypto.seal_registration(&spec, id, client, rng)?;
    send_best_effort(router, &Message::Register { envelope });
    Ok(())
}

/// Validates and forwards one client unsubscribe request: the client must
/// be admitted, the request must carry a valid signature under the
/// client's admission key, and the subscription must belong to that
/// client. Only then does the producer seal an unregistration envelope
/// for the router.
fn handle_unsubscription(
    crypto: &ProducerCrypto,
    directory: &mut ClientDirectory,
    client: ClientId,
    id: SubscriptionId,
    signature: &[u8],
    router: &dyn Connection,
    rng: &mut CryptoRng,
) -> Result<(), ScbrError> {
    let record = directory.check_admitted(client)?;
    record.public_key().verify(&unsubscribe_signing_bytes(client, id), signature)?;
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
