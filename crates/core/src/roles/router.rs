//! The router role: hosts the matching engine (ideally inside an enclave)
//! on untrusted infrastructure.
//!
//! The router never sees plaintext subscriptions or headers — decryption
//! happens in [`crate::engine::MatchingEngine`] behind the enclave call
//! gate. What the untrusted router code *does* see, by design (§3.3), is
//! the client identity attached to each delivery so it can maintain
//! delivery channels.
//!
//! ## Batch-first event loop
//!
//! The loop treats **batches as the unit of work**. When a publication
//! arrives it opportunistically drains whatever other publications are
//! already queued on the event channel (stopping at the first non-publish
//! event so message order is preserved), flattens
//! [`Message::PublishBatch`] frames into the same batch, and matches it
//! in [`MAX_DRAIN`]-bounded **single enclave crossings**
//! ([`RouterEngine::match_batch_into`]) — at most one publication-free
//! wakeup per crossing, never more than `MAX_DRAIN` publications pinned
//! by one ECALL, even when a single wire frame carries more. The header
//! batch and the flat [`BatchMatches`] it is matched into live across
//! wakeups, so a warmed-up loop allocates nothing per publication on the
//! match path, and each publication is dispatched from its own span or
//! its own error: one corrupt header bounces alone. Under light
//! load the batch degenerates to one message and behaves exactly like the
//! classic per-message loop; under heavy load the EENTER/EEXIT cost is
//! amortised across everything the producers managed to queue — the
//! paper's "message batching" future-work optimisation.

use crate::engine::{BatchMatches, RouterEngine};
use crate::error::ScbrError;
use crate::ids::{ClientId, KeyEpoch};
use crate::protocol::messages::{Message, PublishItem};
use crate::roles::{pump_listener, send_best_effort, ConnEvent};
use crossbeam::channel::unbounded;
use scbr_net::{Connection, Listener};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Maximum publications matched per enclave crossing by the drain loop.
/// Bounds both delivery latency under saturation and the working set a
/// single ECALL pins inside the enclave.
pub const MAX_DRAIN: usize = 128;

/// Delivery metadata for one drained publication (its header travels
/// separately, in the batch handed to the engine).
struct PendingPublish {
    /// Connection the publication arrived on (error replies go here).
    conn: u64,
    epoch: KeyEpoch,
    payload_ct: Vec<u8>,
}

/// A running router node.
#[derive(Debug)]
pub struct Router {
    handle: Option<JoinHandle<RouterEngine>>,
}

impl Router {
    /// Starts the router's event loop on `listener`, serving `engine`.
    ///
    /// The engine should already be provisioned with keys (see
    /// [`crate::protocol::keys::provision_sk_via_attestation`]).
    pub fn spawn(listener: Box<dyn Listener>, engine: RouterEngine) -> Router {
        let (events_tx, events_rx) = unbounded();
        let accepted = pump_listener(listener, events_tx, 0);
        let handle = std::thread::spawn(move || {
            let mut engine = engine;
            let mut conns: HashMap<u64, Arc<dyn Connection>> = HashMap::new();
            let mut delivery: HashMap<ClientId, u64> = HashMap::new();
            // An event pulled off the channel while draining a publication
            // batch; processed before blocking on the channel again.
            let mut stashed: Option<ConnEvent> = None;
            // The in-flight publication batch and its match result,
            // reused across wakeups.
            let mut headers: Vec<Vec<u8>> = Vec::new();
            let mut pending: Vec<PendingPublish> = Vec::new();
            let mut matches = BatchMatches::new();
            loop {
                // Collect any newly accepted connections.
                while let Ok((id, conn)) = accepted.try_recv() {
                    conns.insert(id, conn);
                }
                let event = match stashed.take() {
                    Some(event) => event,
                    None => {
                        let Ok(event) = events_rx.recv() else { break };
                        event
                    }
                };
                match event {
                    ConnEvent::Gone { conn } => {
                        conns.remove(&conn);
                        delivery.retain(|_, c| *c != conn);
                    }
                    ConnEvent::Msg { conn, message } => {
                        // The connection may have been accepted after its
                        // first frame was pumped.
                        while let Ok((id, c)) = accepted.try_recv() {
                            conns.insert(id, c);
                        }
                        match message {
                            Message::Hello { client } => {
                                delivery.insert(client, conn);
                            }
                            Message::Register { envelope } => {
                                let result = engine.call(|e| e.register_envelope(&envelope));
                                if let Some(c) = conns.get(&conn) {
                                    let reply = match result {
                                        Ok(id) => Message::RegisterAck { id },
                                        Err(e) => Message::Error { message: e.to_string() },
                                    };
                                    send_best_effort(c.as_ref(), &reply);
                                }
                            }
                            Message::Unregister { envelope } => {
                                // Removal is idempotent at the engine: an
                                // already-gone id still acks (the producer
                                // retired it either way); only broken
                                // envelopes error.
                                let result = engine.call(|e| e.unregister_envelope(&envelope));
                                if let Some(c) = conns.get(&conn) {
                                    let reply = match result {
                                        Ok((id, _, _)) => Message::UnregisterAck { id },
                                        Err(e) => Message::Error { message: e.to_string() },
                                    };
                                    send_best_effort(c.as_ref(), &reply);
                                }
                            }
                            message @ (Message::Publish { .. } | Message::PublishBatch { .. }) => {
                                // Drain the channel into one batch, then
                                // match it in MAX_DRAIN-bounded enclave
                                // crossings.
                                collect_publishes(&mut headers, &mut pending, conn, message);
                                while headers.len() < MAX_DRAIN {
                                    match events_rx.try_recv() {
                                        Ok(ConnEvent::Msg {
                                            conn: c,
                                            message:
                                                m @ (Message::Publish { .. }
                                                | Message::PublishBatch { .. }),
                                        }) => collect_publishes(&mut headers, &mut pending, c, m),
                                        Ok(other) => {
                                            stashed = Some(other);
                                            break;
                                        }
                                        Err(_) => break,
                                    }
                                }
                                // A single wire frame may exceed MAX_DRAIN
                                // (the net layer allows up to 65 536
                                // members): chunking re-imposes the
                                // per-crossing bound, and an empty frame
                                // yields no chunks — no wasted crossing.
                                for (chunk, info) in
                                    headers.chunks(MAX_DRAIN).zip(pending.chunks(MAX_DRAIN))
                                {
                                    engine.match_batch_into(chunk, &mut matches);
                                    for (publish, outcome) in info.iter().zip(matches.iter()) {
                                        dispatch_outcome(publish, outcome, &conns, &delivery);
                                    }
                                }
                                headers.clear();
                                pending.clear();
                            }
                            Message::Shutdown => {
                                // Surface the transition counters the
                                // batch-first loop exists to amortise.
                                let stats = engine.stats();
                                eprintln!(
                                    "router: shutdown after {} enclave crossings \
                                     ({} ocalls, {:.0} virtual ns)",
                                    stats.ecalls, stats.ocalls, stats.elapsed_ns
                                );
                                break;
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
                        }
                    }
                }
            }
            engine
        });
        Router { handle: Some(handle) }
    }

    /// Waits for the router loop to exit (after a `Shutdown` message),
    /// returning the engine for inspection.
    ///
    /// # Errors
    ///
    /// [`ScbrError::NotFound`] if already joined or the thread panicked.
    pub fn join(mut self) -> Result<RouterEngine, ScbrError> {
        self.handle
            .take()
            .ok_or(ScbrError::NotFound { what: "router thread" })?
            .join()
            .map_err(|_| ScbrError::NotFound { what: "router thread (panicked)" })
    }
}

/// Appends the publication(s) in `message` to the in-flight batch.
fn collect_publishes(
    headers: &mut Vec<Vec<u8>>,
    pending: &mut Vec<PendingPublish>,
    conn: u64,
    message: Message,
) {
    match message {
        Message::Publish { header_ct, epoch, payload_ct } => {
            headers.push(header_ct);
            pending.push(PendingPublish { conn, epoch, payload_ct });
        }
        Message::PublishBatch { items } => {
            for PublishItem { header_ct, epoch, payload_ct } in items {
                headers.push(header_ct);
                pending.push(PendingPublish { conn, epoch, payload_ct });
            }
        }
        _ => unreachable!("only publish traffic is collected"),
    }
}

/// Delivers one matched publication (or reports its failure to the
/// publishing connection).
fn dispatch_outcome(
    publish: &PendingPublish,
    outcome: Result<&[ClientId], &ScbrError>,
    conns: &HashMap<u64, Arc<dyn Connection>>,
    delivery: &HashMap<ClientId, u64>,
) {
    match outcome {
        Ok(clients) => {
            let msg =
                Message::Deliver { epoch: publish.epoch, payload_ct: publish.payload_ct.clone() };
            for client in clients {
                if let Some(conn_id) = delivery.get(client) {
                    if let Some(c) = conns.get(conn_id) {
                        send_best_effort(c.as_ref(), &msg);
                    }
                }
            }
        }
        Err(e) => {
            if let Some(c) = conns.get(&publish.conn) {
                send_best_effort(c.as_ref(), &Message::Error { message: e.to_string() });
            }
        }
    }
}
