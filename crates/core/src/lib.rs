//! # scbr — Secure Content-Based Routing
//!
//! A full reimplementation of **SCBR** ([Pires, Pasin, Felber & Fetzer,
//! Middleware 2016]): a privacy-preserving content-based publish/subscribe
//! router whose matching engine runs inside an Intel SGX enclave (simulated
//! here by [`sgx_sim`]), so the infrastructure hosting it never sees
//! subscriptions or publication headers in the clear.
//!
//! ## Architecture
//!
//! * **Data model** — typed attribute values ([`value`]), publications as
//!   header + opaque payload ([`publication`]), subscriptions as
//!   conjunctions of equality/range predicates ([`subscription`],
//!   [`predicate`]).
//! * **Matching** — three interchangeable indexes ([`index`]); the default
//!   is the paper's containment poset, which prunes matching using the
//!   covering partial order.
//! * **Engine** — [`engine::MatchingEngine`] decrypts and matches inside
//!   the trust boundary; [`engine::RouterEngine`] places it inside or
//!   outside an enclave (the axis of the paper's experiments).
//! * **Protocol** — the Figure 4 key exchange, admission control and group
//!   key rotation ([`protocol`]).
//! * **Roles** — runnable producer / router / client nodes over
//!   [`scbr_net`] transports ([`roles`]).
//!
//! ## Quickstart
//!
//! ```
//! use scbr::engine::MatchingEngine;
//! use scbr::index::IndexKind;
//! use scbr::ids::{ClientId, SubscriptionId};
//! use scbr::publication::PublicationSpec;
//! use scbr::subscription::SubscriptionSpec;
//! use sgx_sim::MemorySim;
//!
//! let mem = MemorySim::native_default();
//! let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
//! engine.register_plain(
//!     SubscriptionId(1),
//!     ClientId(42),
//!     &SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0),
//! )?;
//! let quote = PublicationSpec::new().attr("symbol", "HAL").attr("price", 49.5);
//! assert_eq!(engine.match_plain(&quote)?, vec![ClientId(42)]);
//! # Ok::<(), scbr::ScbrError>(())
//! ```
//!
//! [Pires, Pasin, Felber & Fetzer, Middleware 2016]: https://doi.org/10.1145/2988336.2988346

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod cluster;
pub mod codec;
pub mod engine;
pub mod error;
pub mod ids;
pub mod index;
pub mod predicate;
pub mod protocol;
pub mod publication;
pub mod roles;
pub mod subscription;
pub mod value;

pub use engine::{MatchingEngine, RouterEngine};
pub use error::ScbrError;
pub use ids::{ClientId, KeyEpoch, SubscriptionId};
pub use index::{IndexKind, SubscriptionIndex};
pub use publication::PublicationSpec;
pub use subscription::{CompiledSubscription, SubscriptionSpec};
