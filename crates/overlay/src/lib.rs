//! # scbr-overlay — a multi-hop network of attested SCBR routers
//!
//! The paper evaluates one SGX-hosted router; its §3.4 and conclusion
//! point at the real deployment shape: a *network* of routing enclaves
//! spread across untrusted hosts. This crate builds that overlay on top of
//! the single-router engine:
//!
//! * [`topology`] — the broker graph: a validated spanning tree, so
//!   reverse-path forwarding is loop-free by construction.
//! * [`sgx_sim::link`] + [`scbr_net::SecureLink`] — every tree edge is
//!   bootstrapped by a mutual-quote attestation handshake (both routers
//!   prove measurement and platform before contributing key material) and
//!   then sealed with the derived link key.
//! * [`scbr_enclave::forwarding`] — covering-pruned subscription
//!   propagation, inside the enclave: a router
//!   forwards a subscription up a link only if nothing already forwarded
//!   there covers it, reusing the containment relation the poset index is
//!   built on. Removal is symmetric (Siena's *uncovering* rule): an
//!   unregistration travels only on links the subscription was actually
//!   forwarded on, and any still-live subscriptions it had covered are
//!   re-forwarded ahead of it, so upstream interest never dips below the
//!   live set.
//! * [`broker`] — one overlay node as a **sans-IO lifecycle state
//!   machine** (`Cold → Attesting → Linking → Serving → Crashed →
//!   Rejoining`): its whole surface is [`broker::Broker::step`]`(now,
//!   Input) -> Vec<Output>`. What it runs inside its enclave is
//!   [`scbr_enclave::broker::BrokerCore`], reached only through that
//!   core's ecall table. The broker's one matching engine (inside
//!   the enclave) indexes link interfaces alongside edge clients, so each hop
//!   decrypts and matches a whole publication batch in **one enclave
//!   crossing** and learns local deliveries and outgoing links together.
//!   At the end of any `step` that mutated subscriptions the enclave
//!   seals what the step changed as one delta onto a rollback-protected
//!   recovery record — a sealed base plus an append-only chain of sealed
//!   deltas, one seal per step however many mutations the step carried;
//!   a crashed broker restarts from it (base, then the deltas redone
//!   through the live admission code) and asks its neighbours to replay
//!   their live forwarded sets.
//! * [`fabric`] — a thin deterministic scheduler: build, attest, link,
//!   then [`fabric::OverlayFabric::subscribe`],
//!   [`fabric::OverlayFabric::publish`],
//!   [`fabric::OverlayFabric::unsubscribe`] — and the failure path,
//!   [`fabric::OverlayFabric::crash`] /
//!   [`fabric::OverlayFabric::restart`]. Every broker heartbeats each
//!   link once a tick and runs its liveness timers
//!   ([`broker::SUSPECT_AFTER`], [`broker::GAP_GRACE`]), so the fabric
//!   is also the liveness
//!   oracle: [`fabric::OverlayFabric::run_detection`] aggregates
//!   per-link silence suspicion into quorum and fences + restarts
//!   crashed brokers automatically — adjacent concurrent crashes
//!   included — with no operator call.
//!
//! ## Example
//!
//! ```
//! use scbr::ids::ClientId;
//! use scbr::{PublicationSpec, SubscriptionSpec};
//! use scbr_overlay::fabric::{FabricConfig, OverlayFabric};
//! use scbr_overlay::topology::Topology;
//!
//! // A 3-broker chain: each broker attested, every link sealed.
//! let mut fabric = OverlayFabric::build(Topology::line(3), FabricConfig::attested(1))?;
//! fabric.subscribe(0, ClientId(7), &SubscriptionSpec::new().eq("symbol", "HAL"))?;
//! let deliveries = fabric.publish(2, &[PublicationSpec::new().attr("symbol", "HAL")])?;
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!(deliveries[0].client, ClientId(7));
//! # Ok::<(), scbr_overlay::OverlayError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod error;
pub mod fabric;
pub mod router;
pub mod topology;

pub use broker::{Broker, BrokerStats, Input, Lifecycle, LinkEvent, Origin, Output, SuspectReason};
pub use error::OverlayError;
pub use fabric::{AutoRejoin, Delivery, FabricConfig, OverlayFabric, Propagation, RejoinReport};
pub use router::Router;
pub use scbr_telemetry::{BrokerTelemetry, HopRecord, StageSummary, TelemetrySnapshot, TraceId};
pub use topology::Topology;
