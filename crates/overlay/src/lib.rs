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
//! * [`forwarding`] — covering-pruned subscription propagation: a router
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
//!   Input) -> Vec<Output>`. The matching engine (inside the enclave)
//!   indexes link interfaces alongside edge clients, so each hop
//!   decrypts and matches a whole publication batch in **one enclave
//!   crossing** and learns local deliveries and outgoing links together.
//!   At the end of any `step` that mutated subscriptions the enclave
//!   seals what the step changed as one delta onto a rollback-protected
//!   recovery record — a sealed base plus an append-only chain of sealed
//!   deltas, one seal per step however many mutations the step carried;
//!   a crashed broker restarts from it (base, then the deltas redone
//!   through the live admission code) and asks its neighbours to replay
//!   their live forwarded sets.
//! * [`partition`] — the matcher inside each broker can be sharded into
//!   N [`partition::PartitionedMatcher`] slices behind the same
//!   admit/remove/route surface: subscriptions hash-placed per slice by
//!   [`scbr::cluster::home_slice`] (the scale-out router's rule, so the
//!   tree has one), each publication fanned across all slices inside the
//!   same single
//!   enclave crossing and merged, and a serving-tick rebalancer that
//!   watches `occupancy_skew` and migrates subscriptions fullest →
//!   emptiest make-before-break
//!   ([`partition::PartitionConfig::skew_threshold`]).
//! * [`fabric`] — a thin deterministic scheduler: build, attest, link,
//!   then [`fabric::OverlayFabric::subscribe`],
//!   [`fabric::OverlayFabric::publish`],
//!   [`fabric::OverlayFabric::unsubscribe`] — and the failure path,
//!   [`fabric::OverlayFabric::crash`] /
//!   [`fabric::OverlayFabric::restart`]. With heartbeats enabled
//!   ([`broker::HeartbeatConfig`]), the fabric is also the liveness
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
//! // A 3-broker chain with pre-shared trust (fast; see
//! // `FabricConfig::attested` for the fully attested mode).
//! let mut fabric = OverlayFabric::build(Topology::line(3), FabricConfig::preshared(1))?;
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
pub mod forwarding;
mod journal;
pub mod partition;
pub mod topology;

pub use broker::{
    Broker, BrokerStats, HeartbeatConfig, Input, Lifecycle, LinkEvent, Origin, Output,
    SuspectReason,
};
pub use error::OverlayError;
pub use fabric::{
    AutoRejoin, Delivery, FabricConfig, OverlayFabric, Propagation, RejoinReport, Trust,
};
pub use forwarding::ForwardingTable;
pub use partition::{PartitionConfig, PartitionedMatcher, RebalanceReport};
pub use scbr_telemetry::{BrokerTelemetry, HopRecord, StageSummary, TelemetrySnapshot, TraceId};
pub use topology::Topology;
