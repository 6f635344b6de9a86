//! The router role: one provisioned, neighbour-less [`Broker`] served
//! over [`scbr_net`] connections.
//!
//! The paper deploys one routing enclave, and its §3.4 overlay is built
//! from copies of it. [`Router`] is that one enclave on real sockets: a
//! thin driver that turns each connection message into one broker
//! [`Input`] and each [`Output`] back into messages, so the TCP role runs
//! the broker's admission, covering, matching, delivery and
//! sealed-checkpoint code and has no routing loop of its own. The
//! untrusted driver sees what the broker's host sees: the client identity
//! of each delivery, which it needs to keep delivery channels (§3.3).
//!
//! | message                 | broker input          | replies                        |
//! |-------------------------|-----------------------|--------------------------------|
//! | `Hello { client }`      | none                  | none: records the client's connection |
//! | `Register`              | `Input::Subscribe`    | `RegisterAck` or one `Error`   |
//! | `Unregister`            | `Input::Unsubscribe`  | `UnregisterAck` or one `Error` |
//! | `PublishBatch`          | `Input::Publish`      | a `Deliver` per matched client; one `Error` to the sender if a header was refused |
//! | `Shutdown`              | none                  | ends the loop                  |
//!
//! The loop blocks on one event queue ([`scbr::roles`]). When a
//! `PublishBatch` arrives it drains the frames the *same* connection has
//! queued right behind it into one input, until it holds [`MAX_DRAIN`]
//! publications: the broker matches them in one enclave crossing per
//! [`MAX_DRAIN`] chunk, and a refused header is reported to the one
//! connection that sent it. The first other event ends the drain and is
//! handled next, so message order holds.

use crate::broker::{Broker, Input, LinkEvent, Output};
use crate::error::OverlayError;
use scbr::engine::MAX_DRAIN;
use scbr::ids::ClientId;
use scbr::protocol::messages::Message;
use scbr::roles::{pump_listener, send_best_effort, ConnEvent};
use scbr_net::{Connection, Listener};
use scbr_telemetry::TraceId;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running router node.
#[derive(Debug)]
pub struct Router {
    handle: JoinHandle<Broker>,
}

impl Router {
    /// Starts the router's event loop on `listener`, serving `broker`,
    /// which should already be provisioned
    /// ([`Broker::provision_attested`]) and have no neighbours.
    pub fn spawn(listener: Box<dyn Listener>, broker: Broker) -> Router {
        let (events_tx, events) = channel();
        pump_listener(listener, events_tx, 0);
        let driver = Driver {
            broker,
            conns: HashMap::new(),
            delivery: HashMap::new(),
            outs: Vec::new(),
            now: 0,
        };
        Router { handle: std::thread::spawn(move || driver.run(&events)) }
    }

    /// Waits for the router loop to exit (after a `Shutdown` message),
    /// returning the broker for inspection.
    ///
    /// # Errors
    ///
    /// [`OverlayError::Lifecycle`] if the loop panicked.
    pub fn join(self) -> Result<Broker, OverlayError> {
        self.handle.join().map_err(|_| OverlayError::Lifecycle { reason: "router thread panicked" })
    }
}

/// The loop's state: the broker and the connections it answers on.
struct Driver {
    broker: Broker,
    conns: HashMap<u64, Arc<dyn Connection>>,
    /// The connection each client's deliveries go to (its `Hello`).
    delivery: HashMap<ClientId, u64>,
    /// The outputs of the step in flight, reused across steps.
    outs: Vec<Output>,
    /// The broker's clock: one tick per step.
    now: u64,
}

impl Driver {
    fn run(mut self, events: &Receiver<ConnEvent>) -> Broker {
        // An event pulled off the queue while draining a publication
        // batch; handled before blocking on the queue again.
        let mut stashed: Option<ConnEvent> = None;
        loop {
            let event = match stashed.take() {
                Some(event) => event,
                None => {
                    let Ok(event) = events.recv() else { break };
                    event
                }
            };
            let (conn, message) = match event {
                ConnEvent::Opened { conn, connection } => {
                    self.conns.insert(conn, connection);
                    continue;
                }
                ConnEvent::Gone { conn } => {
                    self.conns.remove(&conn);
                    self.delivery.retain(|_, c| *c != conn);
                    continue;
                }
                ConnEvent::Msg { conn, message } => (conn, message),
            };
            match message {
                Message::Hello { client } => {
                    self.delivery.insert(client, conn);
                }
                Message::Register { envelope } => self.step(conn, Input::Subscribe { envelope }),
                Message::Unregister { envelope } => {
                    self.step(conn, Input::Unsubscribe { envelope })
                }
                Message::PublishBatch { mut items } => {
                    while items.len() < MAX_DRAIN {
                        match events.try_recv() {
                            Ok(ConnEvent::Msg {
                                conn: from,
                                message: Message::PublishBatch { items: more },
                            }) if from == conn => items.extend(more),
                            Ok(other) => {
                                stashed = Some(other);
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    self.step(conn, Input::Publish { items, trace: TraceId::NONE });
                }
                Message::Shutdown => {
                    let stats = self.broker.stats();
                    eprintln!(
                        "router: shutdown after {} enclave crossings \
                         ({} ocalls, {:.0} virtual ns)",
                        stats.ecalls, stats.ocalls, stats.elapsed_ns
                    );
                    break;
                }
                other => {
                    let message = format!("unexpected {}", other.kind());
                    self.reply(conn, &Message::Error { message });
                }
            }
        }
        self.broker
    }

    /// Feeds `input`, which arrived on `conn`, to the broker and sends
    /// what the step produced: deliveries to their clients, acks and at
    /// most one `Error` to `conn`.
    fn step(&mut self, conn: u64, input: Input) {
        let refused = self.broker.stats().refused;
        let stepped = self.broker.step_into(self.now, input, &mut self.outs);
        self.now += 1;
        let error = match stepped {
            Err(e) => Some(e.to_string()),
            Ok(()) => match self.broker.stats().refused - refused {
                0 => None,
                n => Some(format!("{n} publication header(s) refused")),
            },
        };
        let mut outs = std::mem::take(&mut self.outs);
        for out in outs.drain(..) {
            match out {
                Output::Deliveries(record) => {
                    let item = record.item();
                    let wire = Message::Deliver {
                        epoch: item.epoch,
                        payload_ct: item.payload_ct.to_vec(),
                    }
                    .to_wire();
                    for client in record.clients() {
                        if let Some(c) = self.delivery.get(client).and_then(|c| self.conns.get(c)) {
                            let _ = c.send(&wire);
                        }
                    }
                }
                Output::Event(LinkEvent::Subscribed { id }) => {
                    self.reply(conn, &Message::RegisterAck { id })
                }
                Output::Event(LinkEvent::Unsubscribed { id, .. }) => {
                    self.reply(conn, &Message::UnregisterAck { id })
                }
                // A neighbour-less broker sends no frames, and its other
                // events are the operator's, not a client's.
                Output::Frame(_) | Output::Event(_) => {}
            }
        }
        self.outs = outs;
        if let Some(message) = error {
            self.reply(conn, &Message::Error { message });
        }
    }

    fn reply(&self, conn: u64, message: &Message) {
        if let Some(c) = self.conns.get(&conn) {
            send_best_effort(c.as_ref(), message);
        }
    }
}
