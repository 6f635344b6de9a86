//! # scbr-net
//!
//! Messaging substrate for the SCBR reproduction.
//!
//! The paper's prototype used ZeroMQ and serialised messages "in Base64
//! text format". This crate provides the equivalent plumbing with no
//! external dependency, and one deliberate deviation: messages travel as
//! binary (`u8 tag ‖ body`, see `scbr::protocol::messages`), not as
//! Base64 text. Base64 suited ZeroMQ's text frames; here every transport
//! already frames length-prefixed binary, so the text form only inflated
//! each message by 4/3 — and on a sealed overlay link every hop
//! re-encrypted and re-MACed that inflation.
//!
//! * [`frame`] — length-prefixed binary framing over any byte stream;
//! * [`batch`] — many sub-frames packed into one wire unit, the transport
//!   of the batch-first routing pipeline;
//! * [`link`] — sealed broker-to-broker channels (AEAD with direction and
//!   sequence bound as associated data), the transport of the overlay
//!   fabric's inter-router links;
//! * [`transport`] — a blocking connection/listener abstraction with two
//!   implementations: an in-process network ([`transport::InProcNetwork`])
//!   for deterministic tests and benchmarks, and TCP
//!   ([`transport::TcpTransport`]) for the runnable examples.
//!
//! ## Example
//!
//! ```
//! use scbr_net::transport::{InProcNetwork, Transport};
//!
//! let net = InProcNetwork::new();
//! let listener = net.bind("router")?;
//! let client = net.connect("router")?;
//! client.send(b"subscribe")?;
//! let server_side = listener.accept()?;
//! assert_eq!(server_side.recv()?, b"subscribe");
//! # Ok::<(), scbr_net::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod error;
pub mod frame;
pub mod link;
pub mod transport;

pub use error::NetError;
pub use link::SecureLink;
pub use transport::{Connection, InProcNetwork, Listener, TcpTransport, Transport};
