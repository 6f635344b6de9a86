//! Runnable SCBR nodes: producer and client, and the connection pumps
//! every role loop is fed by.
//!
//! Each role is an event loop over [`scbr_net`] connections speaking
//! [`crate::protocol::messages::Message`]. The wiring matches the paper's
//! Figure 3: clients talk to the producer to subscribe (and receive group
//! keys), the producer talks to the router to register subscriptions and
//! publish, and the router pushes matched payloads to clients over their
//! delivery channels. The router role is `scbr_overlay::Router`: one
//! attested overlay broker driven by the same pumps.
//!
//! The roles are transport-agnostic: tests and benchmarks use
//! [`scbr_net::InProcNetwork`]; the examples also run over TCP.
//!
//! ## The producer machine
//!
//! Every role is a deterministic machine behind a thin socket driver. The
//! producer's is [`producer::ProducerCore`]: its driver, [`Producer`],
//! owns the connections and turns each queued event into one input, and
//! sends each `(To, Message)` output where it says. Nothing else in the
//! driver decides anything.
//!
//! | input                         | outputs                                                        |
//! |-------------------------------|----------------------------------------------------------------|
//! | `Admit { client, public_key }` | one `KeyUpdate` to the client if connected; none for a low-order key (a known client keeps its submission floor and subscriptions) |
//! | `Suspend(client)`             | none: the client stays a group member                          |
//! | `Revoke(client)`, `Rekey`     | one `KeyUpdate` of the new epoch to each connected member       |
//! | `Publish`, `PublishBatch`     | `PublishBatch`es to the router, at most [`crate::engine::MAX_DRAIN`] items each |
//! | `Shutdown`                    | `Shutdown` to the router (the driver then ends its loop)       |
//! | client `Hello`                | one `KeyUpdate` if the client is a group member, suspended or not |
//! | client `SubmitSubscription`   | `Register` to the router, or `SubscriptionRejected` (bad key, standing or a replayed number) |
//! | client `Unsubscribe`          | `Unregister` to the router, or `Error` (bad tag, standing or owner) |
//! | client, anything else         | `Error { "unexpected <kind>" }`                                |
//! | router `RegisterAck`          | `SubscriptionAccepted` to the oldest waiting client           |
//! | router `UnregisterAck`        | `Unsubscribed` to the oldest waiting client                   |
//! | router `Error`                | the oldest waiting request's refusal: `SubscriptionRejected` or `Error` |
//! | router, anything else         | none                                                           |
//! | connection gone               | none: a client on it gets no more key updates                  |
//!
//! ## One event queue per role
//!
//! Each role loop blocks on exactly one `std::sync::mpsc::Receiver`. A
//! reader thread per connection and one acceptor thread per listener feed
//! it connection events; the producer's operator handle sends its
//! commands into the same queue. The acceptor queues a connection's
//! `Opened` event before it starts that connection's reader, so a loop
//! always holds the connection by the time the connection's first
//! message reaches it.

pub mod client;
pub mod producer;

use crate::protocol::messages::Message;
use scbr_net::Connection;
use std::sync::mpsc::Sender;
use std::sync::Arc;

pub use client::ClientNode;
pub use producer::{Producer, ProducerCommand, ProducerHandle};

/// An event produced by a connection pump.
pub enum ConnEvent {
    /// The listener accepted `connection`; the loop writes to it by `conn`.
    Opened {
        /// Pump-local connection identifier.
        conn: u64,
        /// The accepted connection.
        connection: Arc<dyn Connection>,
    },
    /// A decoded message arrived on connection `conn`.
    Msg {
        /// Pump-local connection identifier.
        conn: u64,
        /// The decoded message.
        message: Message,
    },
    /// The connection closed or failed.
    Gone {
        /// Pump-local connection identifier.
        conn: u64,
    },
}

/// Spawns a reader thread that decodes frames from `connection` into
/// [`ConnEvent`]s on `events`.
pub(crate) fn pump_connection<E: From<ConnEvent> + Send + 'static>(
    conn_id: u64,
    connection: Arc<dyn Connection>,
    events: Sender<E>,
) {
    std::thread::spawn(move || loop {
        match connection.recv() {
            Ok(frame) => match Message::from_wire(&frame) {
                Ok(message) => {
                    if events.send(ConnEvent::Msg { conn: conn_id, message }.into()).is_err() {
                        return;
                    }
                }
                Err(_) => {
                    // Malformed traffic: drop the frame, keep the
                    // connection (robustness against garbage).
                }
            },
            Err(_) => {
                let _ = events.send(ConnEvent::Gone { conn: conn_id }.into());
                return;
            }
        }
    });
}

/// Spawns an acceptor thread that announces every accepted connection on
/// `events` ([`ConnEvent::Opened`], ids starting at `first_id`) and then
/// pumps its frames into the same queue.
pub fn pump_listener<E: From<ConnEvent> + Send + 'static>(
    listener: Box<dyn scbr_net::Listener>,
    events: Sender<E>,
    first_id: u64,
) {
    std::thread::spawn(move || {
        for conn in first_id.. {
            let Ok(connection) = listener.accept() else { return };
            let connection: Arc<dyn Connection> = Arc::from(connection);
            let opened = ConnEvent::Opened { conn, connection: connection.clone() };
            if events.send(opened.into()).is_err() {
                return;
            }
            pump_connection(conn, connection, events.clone());
        }
    });
}

/// Sends a message on a connection, ignoring disconnects (the pump reports
/// those separately).
pub fn send_best_effort(conn: &dyn Connection, msg: &Message) {
    let _ = conn.send(&msg.to_wire());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use scbr_net::{InProcNetwork, Transport};
    use std::sync::mpsc::channel;

    /// A connection's first frame, sent the moment it connects, still
    /// reaches the role's queue after the connection itself.
    #[test]
    fn opened_precedes_the_connections_first_message() {
        let net = InProcNetwork::new();
        let (tx, rx) = channel::<ConnEvent>();
        pump_listener(net.bind("role").unwrap(), tx, 7);
        for round in 0..20u64 {
            let conn = net.connect("role").unwrap();
            send_best_effort(conn.as_ref(), &Message::Hello { client: ClientId(round) });
            match rx.recv().unwrap() {
                ConnEvent::Opened { conn, .. } => assert_eq!(conn, 7 + round),
                _ => panic!("round {round}: an event came before Opened"),
            }
            match rx.recv().unwrap() {
                ConnEvent::Msg { conn, message: Message::Hello { client } } => {
                    assert_eq!((conn, client), (7 + round, ClientId(round)));
                }
                _ => panic!("round {round}: expected the connection's Hello"),
            }
            drop(conn);
            assert!(matches!(rx.recv().unwrap(), ConnEvent::Gone { conn } if conn == 7 + round));
        }
    }
}
