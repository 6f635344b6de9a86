//! One overlay broker: an enclave-hosted matching core on an untrusted,
//! failure-prone host, modelled as a **sans-IO lifecycle state machine**.
//!
//! ## Lifecycle
//!
//! A broker is always in exactly one [`Lifecycle`] state:
//!
//! ```text
//!  Cold ──provision──▶ Attesting ──▶ Linking ──▶ Serving ◀─────────┐
//!                                                   │              │
//!                                                 Crash         replay
//!                                                   ▼              │
//!                                                Crashed ──Restart──▶ Rejoining
//! ```
//!
//! Its entire runtime surface is [`Broker::step`]`(now, Input) ->
//! Vec<Output>`: inputs are wire frames, local edge traffic, admin
//! commands ([`Input::Crash`], [`Input::Restart`]) and timer ticks;
//! outputs are frames-to-links, local deliveries and typed
//! [`LinkEvent`]s. The broker performs **no IO** — the caller (normally
//! [`crate::fabric::OverlayFabric`], a thin deterministic scheduler)
//! shuttles outputs back in as inputs.
//!
//! ## Crash and sealed recovery
//!
//! [`Input::Crash`] drops *all* volatile state: the enclave, the index,
//! the live-subscription set, the covering tables, the link keys, any
//! half-open handshakes and the journal of not-yet-checkpointed
//! admissions. What survives is the host's disk: the **recovery record**,
//! a sealed *base* plus an append-only chain of sealed *deltas*.
//!
//! **File format.** One byte string (read and replaced through
//! [`Broker::sealed_record`] / [`Broker::set_sealed_record`]): entries of
//! `u32` big-endian length + blob; the first is the base, the rest are
//! deltas in the order they were written. On an attested broker each
//! blob is one [`VersionedSeal::seal_link`] link — a clear header
//! `version ‖ kind ‖ base version`, then the sealed payload with that
//! header as associated data; without a platform (pre-shared trust) the
//! blobs are the bare payloads. The *base payload* is the whole record:
//! the engine snapshot (with per-subscription *delivery identities*, so
//! link interfaces are restored as interfaces, not edge clients), the
//! live envelope set with origins, and every per-link
//! [`ForwardingTable`] (rows + churn counters). It opens with a
//! `u32::MAX` magic and the record version; a base in any other layout is
//! refused with a codec error. A *delta payload* is the journal: one
//! entry per admission (origin, replay flag, opened registration body,
//! envelope) and per retirement (id, origin) since the previous
//! checkpoint.
//!
//! **Checkpoints.** At the end of any [`Broker::step`] that mutated
//! subscription state the enclave seals **once** — however many
//! mutations the step carried — in one crossing and on one fresh
//! monotonic-counter value. Admissions and retirements both append:
//! the step's journal — a few hundred bytes per admission, ten to
//! twenty per retirement — is sealed as a delta the host appends. A
//! whole base, which replaces the file, is written only when the fixed
//! **compaction rule** says so — there is no base yet; by size, the
//! deltas on disk plus this one would reach the base's size; by retired
//! quarter, the registrations retired since the base was written (still
//! on the host's disk, in the base or in a delta) reach a quarter of
//! it; or the step closed a rejoin/heal reconciliation. Each base write is
//! thus paid for by at least a quarter base of retired or one base of
//! appended bytes, so a mutation of either kind costs O(what it
//! changed) amortised; a retired registration leaves the disk within a
//! quarter base of further retirements, the file stays under twice its
//! base, and a restart redoes at most one base's worth of journal.
//!
//! **Chain rule.** Every blob takes its own counter value, and
//! [`VersionedSeal::unseal_chain`] accepts only a base at `v_b` followed
//! by deltas at exactly `v_b+1 … v_live`, each naming `v_b`, the last at
//! the live counter. The host can withhold the file (a disk-loss
//! restart, recovered by neighbour replay) but cannot edit it: a stale
//! file, a cut tail, a dropped, swapped or repeated delta, deltas
//! spliced across a compaction, a delta offered as base or a flipped
//! bit are all detected and the broker **refuses to rejoin**.
//!
//! On [`Input::Restart`] the broker relaunches its enclave and, in one
//! crossing, opens the chain, restores the base and **redoes the
//! deltas through the same admission and removal code live traffic
//! runs** (`BrokerCore::propagate`, `BrokerCore::uncover_after_removal`)
//! — there is no second copy of the covering logic and no table
//! diffing, and the restored core is byte-for-byte the one that took the
//! last checkpoint (`checkpoint_proptests`). Redo
//! needs no `SK`: the relaunched enclave has not been re-attested yet,
//! so admissions are journalled with the registration body the enclave
//! had already opened
//! ([`scbr::engine::MatchingEngine::register_retained_as`]). Then — in
//! `Rejoining` — it re-runs the attested link handshake with every
//! neighbour and asks each one to **replay** the live registration
//! envelopes it had forwarded on the link
//! ([`scbr::protocol::messages::Message::ReplayRequest`]). Replayed
//! envelopes re-admit idempotently; subscriptions in the restored
//! record that the neighbour no longer vouches for were removed during
//! the outage and are dropped with the same *uncovering* bookkeeping as
//! a live unsubscription, propagated down the reverse path as
//! authenticated `sub-drop` frames. Recovery traffic therefore touches
//! only the broker's incident links — the tree never re-propagates.
//!
//! ## Trust split
//!
//! The in-enclave state is `BrokerCore`: the matching engine (holding
//! `SK` and the plaintext compiled subscriptions) plus the per-link
//! covering tables and the live envelope set. The untrusted shell only
//! ever handles ciphertext — registration envelopes, encrypted headers,
//! sealed link frames, sealed recovery records — and the *routing
//! decisions* the enclave intentionally reveals, exactly the §3.3 leak
//! the paper accepts for the single-router case. The checkpoint
//! counters [`BrokerStats`] exports (`seals`, `sealed_bytes`,
//! `compactions`, `log_entries`) add nothing to that: the host is handed
//! every blob and stores the file, so it already knows how many there
//! were, how long each is (ciphertext length is plaintext length plus a
//! constant) and which ones replaced the file. Journalling retirements
//! moved one of those observations, it did not add one: the host told
//! an admission from a retirement by delta-versus-base before and tells
//! them by the delta's length now. A compaction by retired quarter says
//! only that the retired envelopes — every one of which the host has
//! handled as ciphertext, length in clear — now add up to a quarter of
//! the base; which envelopes those are stays inside. Like the hop
//! records' bucketed match counts, nothing exported is finer than what
//! the host observes on its own.
//!
//! ## Interfaces
//!
//! The engine's index is shared by local subscribers and links: a
//! subscription learnt from neighbour `n` is registered under the
//! synthetic delivery identity [`link_interface`]`(n)` (top bit set), so
//! **one decrypt+match per publication** yields local deliveries *and*
//! the outgoing link set in the same enclave crossing. Per-hop batches go
//! through the gate in [`MAX_DRAIN`]-bounded chunks, mirroring the
//! single-router event loop.

use crate::error::OverlayError;
use crate::forwarding::ForwardingTable;
use crate::journal::{self, Journal, Redo, RedoReader};
use scbr::codec;
use scbr::engine::MatchingEngine;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::{IndexKind, SubscriptionIndex};
use scbr::protocol::keys::{provision_sk_via_attestation, ProducerCrypto};
use scbr::protocol::messages::{
    encode_publish_batch, Message, PublishBatchView, PublishItem, PublishItemRef,
};
use scbr::roles::router::MAX_DRAIN;
use scbr::ScbrError;
use scbr_crypto::rng::CryptoRng;
use scbr_net::{NetError, SecureLink};
use scbr_telemetry::{
    count_bucket, FlightRecorder, HopRecord, Stage, StageHistograms, StageSummary, TraceId,
};
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::enclave::EnclaveBuilder;
use sgx_sim::link::{LinkAccept, LinkFinish, LinkHello, LinkInitiator, LinkKey, LinkResponder};
use sgx_sim::platform::CounterId;
use sgx_sim::seal::{SealPolicy, VersionedSeal};
use sgx_sim::{CacheConfig, CostModel, Enclave, MemStats, MemorySim, SgxPlatform};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The synthetic delivery identity for subscriptions learnt from
/// neighbour `n`: [`ClientId::INTERFACE_BIT`] over the neighbour number.
pub fn link_interface(neighbor: usize) -> ClientId {
    ClientId(ClientId::INTERFACE_BIT | neighbor as u64)
}

/// Compaction by retired quarter: a base is rewritten once the retired
/// registrations still on the host's disk reach one part in this many of
/// it. A constant beside the size rule, not a knob (see
/// [`Broker::checkpoint`]).
const RETIRED_DIVISOR: usize = 4;

/// Version byte of the recovery-record layout, written after a `u32::MAX`
/// magic by every base: `u32::MAX ‖ 2 ‖ engine snapshot ‖ live set ‖
/// tables`. Version 1 carried a slice count and one engine snapshot per
/// matcher slice; the oldest layout began with its one engine snapshot's
/// byte length instead (never `u32::MAX`). A base in either is refused
/// with a codec error rather than misread.
const RECORD_VERSION: u8 = 2;

/// Timer-driven liveness configuration, in tick units. Host-side
/// configuration: survives crashes, like the trust anchors.
///
/// With heartbeats enabled, a `Serving` broker emits one
/// [`Message::Heartbeat`] per established link every `interval` ticks
/// (sealed and sequence-numbered like any data frame), and raises
/// [`LinkEvent::Suspect`] against a link that has carried no authentic
/// frame for `suspect_after` ticks — or whose sequence gap has stood
/// unhealed for `gap_grace` ticks. With `None` (the default) the broker
/// keeps the legacy behaviour: no steady-state timer work at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Ticks between heartbeats on each established link.
    pub interval: u64,
    /// Ticks of silence (no authentic inbound frame) before a link is
    /// declared [`SuspectReason::Silence`]. Must comfortably exceed
    /// `interval` (plus any expected delivery delay) or a slow-but-alive
    /// peer will be falsely accused.
    pub suspect_after: u64,
    /// Ticks an observed sequence gap may stand before the link is
    /// declared [`SuspectReason::Gap`] and proactively re-keyed.
    pub gap_grace: u64,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig { interval: 2, suspect_after: 8, gap_grace: 4 }
    }
}

impl HeartbeatConfig {
    /// An aggressive profile for tests and benches: heartbeat every
    /// tick, suspect after four silent ticks, re-key a wedged link after
    /// two.
    pub fn fast() -> Self {
        HeartbeatConfig { interval: 1, suspect_after: 4, gap_grace: 2 }
    }
}

/// Why a link was declared [`LinkEvent::Suspect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspectReason {
    /// No authentic frame for at least `suspect_after` ticks: the peer
    /// (or the whole path to it) may be dead. This is the signal the
    /// fabric aggregates into quorum and answers with an automatic
    /// crash-observed → restart.
    Silence,
    /// A sequence gap has stood unhealed for at least `gap_grace` ticks:
    /// the peer is provably alive (gap frames authenticate) but the
    /// channel is wedged on lost frames. Healed at link level — re-key
    /// and replay — never counted toward node-death quorum.
    Gap,
}

/// The broker lifecycle states (see the module docs for the diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Constructed; no keys, no links.
    Cold,
    /// Remote attestation / key provisioning in flight.
    Attesting,
    /// Provisioned; attested link handshakes in flight.
    Linking,
    /// Fully operational: accepting traffic on every input.
    Serving,
    /// All volatile state lost; only the host's sealed record survives.
    Crashed,
    /// Restarted from the sealed record; re-linking and replaying
    /// neighbour live sets before serving again.
    Rejoining,
}

/// One step input to the broker state machine.
#[derive(Debug, Clone)]
pub enum Input {
    /// A wire frame received from neighbour `from` (sealed on attested
    /// links, plaintext handshake frames during link establishment).
    Frame {
        /// The sending neighbour.
        from: usize,
        /// The raw frame bytes.
        bytes: Vec<u8>,
    },
    /// A producer-sealed registration envelope from a local edge client.
    Subscribe {
        /// `{s}SK` + producer signature.
        envelope: Vec<u8>,
    },
    /// A producer-sealed unregistration envelope from a local edge
    /// client.
    Unsubscribe {
        /// `{id, client}SK` + producer signature.
        envelope: Vec<u8>,
    },
    /// A publication batch injected at this broker.
    Publish {
        /// The batch, in publish order.
        items: Vec<PublishItem>,
        /// Cross-hop trace id assigned at the producer
        /// ([`TraceId::NONE`] when telemetry is off). Carried in clear
        /// as link-frame metadata — routing metadata, not content (see
        /// [`scbr_telemetry::trace`]).
        trace: TraceId,
    },
    /// Admin: kill the broker, dropping all volatile state.
    Crash,
    /// Admin: restart a crashed broker from its sealed recovery record.
    Restart {
        /// Neighbours the operator knows are down right now: the rejoin
        /// skips their handshake and replay (their own later rejoin
        /// replays from *us* and reconciles both sides). Liveness
        /// detection is the scheduler's job — the broker itself is
        /// sans-IO and cannot probe.
        dead_links: Vec<usize>,
    },
    /// A timer tick: drives handshake initiation and replay kick-off
    /// while linking or rejoining, and — with heartbeats configured —
    /// steady-state liveness work while serving (heartbeat emission,
    /// dead-link probing, suspicion timeouts).
    Tick,
}

/// One step output from the broker state machine.
#[derive(Debug, Clone)]
pub enum Output {
    /// A frame to hand to a neighbour.
    Frame(LinkFrame),
    /// A publication delivered to a local edge client.
    Delivery(LocalDelivery),
    /// A typed lifecycle / link event for the operator.
    Event(LinkEvent),
}

/// Typed events surfaced by [`Broker::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkEvent {
    /// An authentic frame skipped ahead of the link's receive counter:
    /// the frames in between were lost. This is the liveness signal the
    /// rejoin protocol keys off (see [`scbr_net::SecureLink`]).
    Gap {
        /// The link the gap was observed on.
        link: usize,
        /// The sequence number expected next.
        expected: u64,
        /// The (authenticated) sequence number that arrived.
        got: u64,
    },
    /// A sealed channel to `link` is established (or re-established).
    LinkUp {
        /// The neighbour.
        link: usize,
    },
    /// A local registration was admitted.
    Subscribed {
        /// The subscription id.
        id: SubscriptionId,
    },
    /// A local unregistration was processed.
    Unsubscribed {
        /// The subscription id.
        id: SubscriptionId,
        /// False for an idempotent double-unsubscribe.
        removed: bool,
    },
    /// The broker dropped all volatile state.
    Crashed,
    /// A restart unsealed the recovery record and entered `Rejoining`.
    RejoinStarted {
        /// Live subscriptions restored from the sealed record.
        restored: usize,
    },
    /// Every neighbour finished replaying; the broker is serving again.
    Rejoined {
        /// Envelopes replayed by neighbours during the rejoin.
        replayed: usize,
        /// Restored subscriptions the neighbours no longer vouched for
        /// (removed during the outage) that were dropped and propagated.
        dropped_stale: usize,
        /// Virtual time spent between crash and rejoin completion.
        downtime: u64,
    },
    /// A liveness timer expired on a link: no authentic frame for
    /// `suspect_after` ticks, or a sequence gap unhealed past
    /// `gap_grace`. Emitted once per suspicion episode; the fabric
    /// aggregates silence suspicions into quorum.
    Suspect {
        /// The suspected link.
        link: usize,
        /// Why the timer expired.
        reason: SuspectReason,
    },
    /// A previously suspected link proved alive again (an authentic
    /// frame arrived, or the link re-keyed). Retracts the accusation.
    Cleared {
        /// The link whose suspicion was retracted.
        link: usize,
    },
    /// A serving broker finished a *late* replay over a link it had
    /// wrongly believed dead (stale restart view) or had to re-key after
    /// a gap: both sides are reconciled without a restart.
    Healed {
        /// The healed link.
        link: usize,
        /// Envelopes the neighbour replayed during the heal.
        replayed: usize,
        /// Restored subscriptions the neighbour no longer vouched for,
        /// dropped and propagated.
        dropped_stale: usize,
    },
}

impl LinkEvent {
    /// Stable, machine-readable kind label — the key telemetry
    /// aggregates event counts under (`events.gap`, `events.suspect`,
    /// …). Part of the observability surface: new variants may add
    /// labels, but existing ones must not change.
    pub fn label(&self) -> &'static str {
        match self {
            LinkEvent::Gap { .. } => "gap",
            LinkEvent::LinkUp { .. } => "link-up",
            LinkEvent::Subscribed { .. } => "subscribed",
            LinkEvent::Unsubscribed { .. } => "unsubscribed",
            LinkEvent::Crashed => "crashed",
            LinkEvent::RejoinStarted { .. } => "rejoin-started",
            LinkEvent::Rejoined { .. } => "rejoined",
            LinkEvent::Suspect { .. } => "suspect",
            LinkEvent::Cleared { .. } => "cleared",
            LinkEvent::Healed { .. } => "healed",
        }
    }
}

impl std::fmt::Display for LinkEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkEvent::Gap { link, expected, got } => {
                write!(f, "gap on link {link}: expected seq {expected}, got {got}")
            }
            LinkEvent::LinkUp { link } => write!(f, "link {link} up"),
            LinkEvent::Subscribed { id } => write!(f, "subscribed id {}", id.0),
            LinkEvent::Unsubscribed { id, removed } => {
                write!(f, "unsubscribed id {} (removed: {removed})", id.0)
            }
            LinkEvent::Crashed => write!(f, "crashed"),
            LinkEvent::RejoinStarted { restored } => {
                write!(f, "rejoin started ({restored} subscriptions restored)")
            }
            LinkEvent::Rejoined { replayed, dropped_stale, downtime } => write!(
                f,
                "rejoined ({replayed} replayed, {dropped_stale} stale dropped, \
                 downtime {downtime})"
            ),
            LinkEvent::Suspect { link, reason } => write!(f, "link {link} suspect ({reason})"),
            LinkEvent::Cleared { link } => write!(f, "link {link} cleared"),
            LinkEvent::Healed { link, replayed, dropped_stale } => {
                write!(f, "link {link} healed ({replayed} replayed, {dropped_stale} stale dropped)")
            }
        }
    }
}

impl std::fmt::Display for SuspectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SuspectReason::Silence => "silence",
            SuspectReason::Gap => "gap",
        })
    }
}

/// Where a message entered this broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Injected locally (an edge client or producer attached here).
    Local,
    /// Received on the link from this neighbour.
    Link(usize),
}

impl Origin {
    /// The delivery identity a subscription that entered here is indexed
    /// under: its own edge client (`None`) or the link's interface.
    fn deliver_to(self) -> Option<ClientId> {
        match self {
            Origin::Local => None,
            Origin::Link(l) => Some(link_interface(l)),
        }
    }
}

/// What the enclave decided for a batch of publications, flat: every
/// publication's edge clients and outgoing links (ascending, origin
/// excluded) in two shared buffers, plus where each publication's spans
/// end. One per broker, reused across every hop.
#[derive(Debug, Default)]
struct RouteSpans {
    locals: Vec<ClientId>,
    links: Vec<usize>,
    /// Per publication, the end of its `locals` and of its `links` span;
    /// each span starts where the previous publication's ends.
    ends: Vec<(u32, u32)>,
}

impl RouteSpans {
    fn clear(&mut self) {
        self.locals.clear();
        self.links.clear();
        self.ends.clear();
    }

    /// Publication `i`'s edge clients and outgoing links.
    fn get(&self, i: usize) -> (&[ClientId], &[usize]) {
        let (local_start, link_start) = if i == 0 { (0, 0) } else { self.ends[i - 1] };
        let (local_end, link_end) = self.ends[i];
        (
            &self.locals[local_start as usize..local_end as usize],
            &self.links[link_start as usize..link_end as usize],
        )
    }
}

/// Outcome of admitting one subscription envelope.
struct AdmitOutcome {
    id: SubscriptionId,
    /// Links the admission propagates on. Links where it was pruned, or
    /// already held the identical filter, are absent.
    links: Vec<LinkUpdate>,
}

/// One live subscription as the broker's enclave tracks it: where it
/// entered, its compiled (plaintext — never leaves the enclave) form, and
/// the producer-signed envelope that proves it — kept so an uncovering
/// promotion (or a neighbour replay) can re-forward the subscription
/// with a unit the next hop authenticates independently.
struct LiveSub {
    origin: Origin,
    compiled: scbr::CompiledSubscription,
    envelope: Vec<u8>,
}

/// What a removal — or a re-registration that replaced a forwarded row —
/// requires on one link: the envelopes of newly uncovered subscriptions
/// to forward first (make-before-break — upstream interest never dips),
/// then the removal or the replacement itself.
struct LinkUpdate {
    neighbor: usize,
    uncovered: Vec<Vec<u8>>,
}

/// Outcome of processing one unregistration.
struct RemoveOutcome {
    id: SubscriptionId,
    /// False when the id was unknown here (double-unsubscribe): nothing
    /// changed, no traffic due.
    removed: bool,
    /// Links the subscription had actually been forwarded on. Links where
    /// it was pruned are absent — a pruned removal is free.
    links: Vec<LinkUpdate>,
}

/// The enclave-resident routing state.
struct BrokerCore {
    matcher: MatchingEngine,
    /// Per neighbour (ascending), the covering table of subscriptions
    /// forwarded on that link.
    upstream: Vec<(usize, ForwardingTable)>,
    /// Every live subscription, keyed by id (the uncovering candidates).
    live: BTreeMap<SubscriptionId, LiveSub>,
    /// Flood mode: forward every subscription on every link (the
    /// equivalence oracle for tests; covering-pruned is the real mode).
    flood: bool,
    /// Reusable match buffer for the per-hop routing path: one `Vec` per
    /// broker instead of one per publication per hop.
    route_buf: Vec<ClientId>,
    /// In-enclave flight recorder for cross-hop publication tracing.
    /// Volatile by design: hop records die with a crash (never sealed
    /// into the recovery record) and leave the enclave only through the
    /// explicit, costed drain ocall ([`Broker::drain_trace`]).
    recorder: FlightRecorder,
    /// Broker-level stage histograms (seal, per-hop crossing); the
    /// engine's own scratch holds the decrypt/index-match ones. Fixed
    /// arrays with epoch-stamped clears — recording never allocates.
    stages: StageHistograms,
    /// Subscription mutations since the last checkpoint, flushed as one
    /// sealed delta by the next one.
    journal: Journal,
    /// Envelope bytes of the registrations retired since the current base
    /// was written — dead weight still on the host's disk, in the base or
    /// in a delta, until the next compaction. Recomputed by the restart
    /// redo.
    retired_bytes: usize,
    /// Counter value the current base record was sealed at — what every
    /// delta must name. 0 until a base exists (counter values start at 1)
    /// and on brokers without a platform.
    base_version: u64,
}

impl BrokerCore {
    fn fresh(mem: &MemorySim, flood: bool, neighbors: &[usize]) -> Self {
        BrokerCore {
            matcher: MatchingEngine::new(mem, IndexKind::Poset),
            upstream: neighbors.iter().map(|&n| (n, ForwardingTable::new())).collect(),
            live: BTreeMap::new(),
            flood,
            route_buf: Vec::new(),
            recorder: FlightRecorder::default(),
            stages: StageHistograms::new(),
            journal: Journal::default(),
            retired_bytes: 0,
            base_version: 0,
        }
    }

    /// Registers an envelope and decides which links to propagate it on.
    /// `replay` marks a neighbour-replay re-admission: covering decisions
    /// for subscriptions that were already live before the crash were
    /// counted in the sealed ledger, so they must not increment the
    /// pruned counter a second time.
    fn admit(
        &mut self,
        envelope: &[u8],
        origin: Origin,
        replay: bool,
    ) -> Result<AdmitOutcome, ScbrError> {
        let (id, compiled) = self.matcher.register_envelope_as(envelope, origin.deliver_to())?;
        let body = self.matcher.retained_body(id).expect("just registered");
        self.journal.admit(origin, replay, body, envelope);
        Ok(self.propagate(id, compiled, envelope, origin, replay))
    }

    /// The covering half of an admission, shared by live traffic
    /// ([`BrokerCore::admit`]) and the restart redo
    /// ([`BrokerCore::redo`]): `id` is registered in the engine; decide
    /// per link whether it is forwarded, replaced or pruned, and record
    /// it live.
    fn propagate(
        &mut self,
        id: SubscriptionId,
        compiled: scbr::CompiledSubscription,
        envelope: &[u8],
        origin: Origin,
        replay: bool,
    ) -> AdmitOutcome {
        let already_counted = replay && self.live.contains_key(&id);
        let (flood, live) = (self.flood, &self.live);
        let mut links = Vec::new();
        for (neighbor, table) in &mut self.upstream {
            if origin == Origin::Link(*neighbor) {
                continue; // never forward back where it came from
            }
            let mut uncovered = Vec::new();
            match table.get(id) {
                // Re-registration of an id already forwarded there with
                // its filter *unchanged* — the common case during a
                // neighbour replay: the upstream copy is already exact and
                // no traffic is due.
                Some(old) if *old == compiled => continue,
                // The filter changed: replace the row *and* re-forward —
                // the next hop replaces its copy the same way,
                // recursively, and never matches a stale spec. (The
                // coverage check must not run here: the id's own stale row
                // could "cover" its replacement.) What the old filter
                // covered and the new one does not is uncovered exactly as
                // if the old row had been removed.
                Some(old) => {
                    let old = old.clone();
                    table.record(id, compiled.clone());
                    uncovered = promote(table, &dependants(table, live, *neighbor, &old));
                }
                // Flood mode records everything (the table *is* the
                // forwarded set, and the counters stay comparable across
                // modes) — it never consults coverage.
                None if !flood && table.covered(&compiled) => {
                    if !already_counted {
                        table.note_pruned();
                    }
                    continue;
                }
                None => {
                    table.record(id, compiled.clone());
                }
            }
            links.push(LinkUpdate { neighbor: *neighbor, uncovered });
        }
        self.live.insert(id, LiveSub { origin, compiled, envelope: envelope.to_vec() });
        AdmitOutcome { id, links }
    }

    /// Processes an authenticated unregistration envelope.
    fn remove(&mut self, envelope: &[u8], origin: Origin) -> Result<RemoveOutcome, ScbrError> {
        let (id, _client, existed) = self.matcher.unregister_envelope(envelope)?;
        if !existed {
            return Ok(RemoveOutcome { id, removed: false, links: Vec::new() });
        }
        self.journal.remove(id, origin);
        Ok(self.uncover_after_removal(id, origin))
    }

    /// Removes `id` without an envelope (the rejoin reconciliation path:
    /// link authentication of the attested peer stands in for the
    /// producer signature, which may have been lost with the outage).
    fn remove_by_id(&mut self, id: SubscriptionId, origin: Origin) -> RemoveOutcome {
        if !self.matcher.unregister(id) {
            return RemoveOutcome { id, removed: false, links: Vec::new() };
        }
        self.journal.remove(id, origin);
        self.uncover_after_removal(id, origin)
    }

    /// Redoes one sealed delta on top of the state restored so far, in
    /// journal order, through the same [`BrokerCore::propagate`] and
    /// [`BrokerCore::uncover_after_removal`] live traffic runs — the
    /// engine, the covering tables, their counters, the live
    /// set and the retired-bytes figure end up exactly where the crashed
    /// core had them at its last checkpoint. Registrations come from
    /// their journalled bodies (the relaunched enclave holds no `SK`
    /// yet). Nothing is re-journalled and the frames the mutations once
    /// produced are not produced again. The live core only journals the
    /// removal of an id it holds, so a delta that removes an unknown one
    /// is not a record this enclave wrote: refused, not skipped.
    fn redo(&mut self, delta: &[u8]) -> Result<(), ScbrError> {
        let mut entries = RedoReader::new(delta);
        while let Some(entry) = entries.next()? {
            match entry {
                Redo::Admit { origin, replay, body, envelope } => {
                    let (id, compiled) =
                        self.matcher.register_retained_as(body.to_vec(), origin.deliver_to())?;
                    self.propagate(id, compiled, envelope, origin, replay);
                }
                Redo::Remove { id, origin } => {
                    if !self.matcher.unregister(id) {
                        return Err(ScbrError::Codec { context: "recovery journal removed id" });
                    }
                    self.uncover_after_removal(id, origin);
                }
            }
        }
        Ok(())
    }

    /// The recorded origin of a live subscription.
    fn origin_of(&self, id: SubscriptionId) -> Option<Origin> {
        self.live.get(&id).map(|s| s.origin)
    }

    /// Applies Siena's **uncovering rule** per link after `id` left the
    /// index — any still-live subscription the removed one had covered
    /// (and therefore pruned) must now be promoted into the forwarding
    /// table and sent upstream, while links that only ever saw the
    /// subscription pruned stay silent.
    fn uncover_after_removal(&mut self, id: SubscriptionId, origin: Origin) -> RemoveOutcome {
        if let Some(gone) = self.live.remove(&id) {
            self.retired_bytes += gone.envelope.len();
        }
        let live = &self.live;
        let mut links = Vec::new();
        for (neighbor, table) in &mut self.upstream {
            if origin == Origin::Link(*neighbor) {
                continue; // the removal came from there; it already knows
            }
            let Some(row) = table.remove(id) else {
                continue; // pruned on this link: upstream never saw it
            };
            let uncovered = promote(table, &dependants(table, live, *neighbor, &row));
            links.push(LinkUpdate { neighbor: *neighbor, uncovered });
        }
        RemoveOutcome { id, removed: true, links }
    }

    /// Decrypts and matches each header, appending to `routes` its local
    /// deliveries and outgoing links. The match buffer is the broker's
    /// own, reused across every header of every hop (the engine's
    /// decrypt/decode/traversal scratch is reused inside
    /// `match_encrypted_append`).
    fn route_into<'a>(
        &mut self,
        headers: impl Iterator<Item = &'a [u8]>,
        origin: Origin,
        routes: &mut RouteSpans,
    ) -> Result<(), ScbrError> {
        for ct in headers {
            self.route_buf.clear();
            self.matcher.match_encrypted_append(ct, &mut self.route_buf)?;
            for client in &self.route_buf {
                if !client.is_interface() {
                    routes.locals.push(*client);
                } else {
                    let neighbor = (client.0 & !ClientId::INTERFACE_BIT) as usize;
                    if origin != Origin::Link(neighbor) {
                        routes.links.push(neighbor);
                    }
                }
            }
            routes.ends.push((routes.locals.len() as u32, routes.links.len() as u32));
        }
        Ok(())
    }

    /// The live registration envelopes recorded as forwarded on the link
    /// to `neighbor`, in table order — what a rejoining peer replays.
    fn replay_rows(&self, neighbor: usize) -> Vec<Vec<u8>> {
        let Some((_, table)) = self.upstream.iter().find(|(n, _)| *n == neighbor) else {
            return Vec::new();
        };
        table
            .row_ids()
            .iter()
            .filter_map(|id| self.live.get(id).map(|sub| sub.envelope.clone()))
            .collect()
    }

    /// Serialises the full recovery record — the *base* a compaction
    /// seals: the engine snapshot (bodies + delivery identities), the
    /// live envelope set with origins, and every per-link covering table
    /// (rows + counters). Runs inside the enclave; the result is only
    /// ever persisted sealed.
    fn serialize_record(&self) -> Vec<u8> {
        self.record_with(&self.matcher.snapshot())
    }

    /// The record [`BrokerCore::serialize_record`] writes, around the
    /// given engine snapshot.
    fn record_with(&self, snapshot: &[u8]) -> Vec<u8> {
        let mut w = codec::Writer::new();
        w.u32(u32::MAX).u8(RECORD_VERSION).bytes(snapshot);
        w.u32(self.live.len() as u32);
        for (id, sub) in &self.live {
            w.u64(id.0);
            journal::write_origin(&mut w, sub.origin);
            w.bytes(&sub.envelope);
        }
        w.u32(self.upstream.len() as u32);
        for (neighbor, table) in &self.upstream {
            w.u64(*neighbor as u64);
            let rows = table.row_ids();
            w.u32(rows.len() as u32);
            for id in rows {
                w.u64(id.0);
            }
            let (pruned, forwarded_total, removed, uncovered) = table.counters();
            w.u64(pruned).u64(forwarded_total).u64(removed).u64(uncovered);
        }
        w.into_bytes()
    }

    /// What the next checkpoint seals, and the base version it must name
    /// (`None` for a base, which names itself): the whole record when
    /// compacting — the pending journal is then part of it and dropped —
    /// else the pending journal as one delta.
    fn checkpoint_payload(&mut self, compact: bool) -> (Vec<u8>, Option<u64>) {
        if compact {
            self.journal.clear();
            self.retired_bytes = 0;
            (self.serialize_record(), None)
        } else {
            (self.journal.take(), Some(self.base_version))
        }
    }

    /// Rebuilds a core from an opened recovery record — `record[0]` the
    /// base, the rest its deltas in order — or fresh when the host has
    /// no record (a disk-loss restart). The base restores the engine,
    /// the live set and the tables, and the deltas are then redone on
    /// top ([`BrokerCore::redo`]). A base without the record magic and
    /// version is a codec error.
    fn restore(
        record: &[&[u8]],
        mem: &MemorySim,
        flood: bool,
        neighbors: &[usize],
    ) -> Result<Self, ScbrError> {
        let mut core = BrokerCore::fresh(mem, flood, neighbors);
        let Some((bytes, deltas)) = record.split_first() else {
            return Ok(core);
        };
        let mut r = codec::Reader::new(bytes);
        if r.u32()? != u32::MAX || r.u8()? != RECORD_VERSION {
            return Err(ScbrError::Codec { context: "recovery record version" });
        }
        core.matcher.restore(&r.bytes()?)?;
        let n_live = r.u32()?;
        for _ in 0..n_live {
            let id = SubscriptionId(r.u64()?);
            let origin = journal::read_origin(&mut r)?;
            let envelope = r.bytes()?;
            let Some((_, compiled)) = core.matcher.compiled_of(id)? else {
                return Err(ScbrError::Codec { context: "recovery live set" });
            };
            core.live.insert(id, LiveSub { origin, compiled, envelope });
        }
        let n_links = r.u32()?;
        for _ in 0..n_links {
            let neighbor = r.u64()? as usize;
            let n_rows = r.u32()?;
            let mut entries = Vec::with_capacity(n_rows as usize);
            for _ in 0..n_rows {
                let id = SubscriptionId(r.u64()?);
                let Some(sub) = core.live.get(&id) else {
                    return Err(ScbrError::Codec { context: "recovery table row" });
                };
                entries.push((id, sub.compiled.clone()));
            }
            let counters = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
            let Some(slot) = core.upstream.iter_mut().find(|(n, _)| *n == neighbor) else {
                return Err(ScbrError::Codec { context: "recovery table neighbour" });
            };
            slot.1 = ForwardingTable::rebuild(entries, counters)
                .ok_or(ScbrError::Codec { context: "recovery table ledger" })?;
        }
        if !r.is_exhausted() {
            return Err(ScbrError::Codec { context: "recovery trailing bytes" });
        }
        for delta in deltas {
            core.redo(delta)?;
        }
        Ok(core)
    }
}

/// The subscriptions that may need promoting onto the link to `neighbor`
/// now that `row` has left its `table`: live, routed toward that link,
/// not forwarded there, and covered by `row`. Every other pruned
/// subscription was covered by a row that is still in the table, and
/// still is. (In flood mode everything is already in the table, so this
/// is empty and no uncovering ever happens — correct, nothing was ever
/// pruned.)
fn dependants<'a>(
    table: &ForwardingTable,
    live: &'a BTreeMap<SubscriptionId, LiveSub>,
    neighbor: usize,
    row: &scbr::CompiledSubscription,
) -> Vec<(SubscriptionId, &'a LiveSub)> {
    live.iter()
        .filter(|(id, sub)| {
            sub.origin != Origin::Link(neighbor)
                && !table.contains(**id)
                && row.covers(&sub.compiled)
        })
        .map(|(id, sub)| (*id, sub))
        .collect()
}

/// Promotes into `table` the `candidates` nothing in it covers any more,
/// broadest first, so one promotion can keep narrower candidates pruned
/// (ties broken by id for determinism); returns the promoted envelopes
/// in promotion order. Breadth is the coverage count among the
/// candidates themselves. Covering is transitive, so whatever a
/// dependant of a departed row covers is itself a dependant of that row:
/// ranking [`dependants`] gives each of them the count, and so the
/// order, that ranking every pruned subscription of the link would.
fn promote(table: &mut ForwardingTable, candidates: &[(SubscriptionId, &LiveSub)]) -> Vec<Vec<u8>> {
    let coverage: Vec<usize> = candidates
        .iter()
        .map(|(_, a)| candidates.iter().filter(|(_, b)| a.compiled.covers(&b.compiled)).count())
        .collect();
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&i, &j| {
        coverage[j].cmp(&coverage[i]).then(candidates[i].0 .0.cmp(&candidates[j].0 .0))
    });
    let mut uncovered = Vec::new();
    for &i in &order {
        let (id, sub) = candidates[i];
        if table.covered(&sub.compiled) {
            continue; // still covered by the remaining interest
        }
        table.record_uncovered(id, sub.compiled.clone());
        uncovered.push(sub.envelope.clone());
    }
    uncovered
}

/// One sealed frame to hand to a neighbour.
#[derive(Debug, Clone)]
pub struct LinkFrame {
    /// Destination router.
    pub to: usize,
    /// Source router (the receiver selects its inbound channel by this).
    pub from: usize,
    /// The sealed wire bytes.
    pub bytes: Vec<u8>,
}

/// A publication delivered to an edge client of this broker.
#[derive(Debug, Clone)]
pub struct LocalDelivery {
    /// The delivering broker.
    pub router: usize,
    /// The edge client.
    pub client: ClientId,
    /// The delivered item (payload still encrypted under the group key),
    /// one allocation shared by every client the publication reaches
    /// here.
    pub item: Arc<PublishItem>,
}

/// The two halves of one established link at one endpoint. `Sealed` is
/// the production (and by far the common) variant, so its size is the
/// collection's working size either way — boxing it would just add a
/// pointer chase to every frame.
#[allow(clippy::large_enum_variant)]
enum LinkChannel {
    /// Sealed under an attested link key.
    Sealed { outbound: SecureLink, inbound: SecureLink },
    /// Pre-shared-trust mode: frames pass in the clear.
    Plain,
}

/// Per-broker counters (cumulative unless reset).
#[derive(Debug, Clone, Copy)]
pub struct BrokerStats {
    /// The broker's router id.
    pub router: usize,
    /// The broker's lifecycle state.
    pub state: Lifecycle,
    /// Live subscriptions in the index (local + link interfaces).
    pub subscriptions: usize,
    /// Enclave crossings since the last reset.
    pub ecalls: u64,
    /// OCALL round-trips since the last reset.
    pub ocalls: u64,
    /// Virtual nanoseconds elapsed since the last reset.
    pub elapsed_ns: f64,
    /// Live forwarding-table rows, summed over links (equals
    /// `forwarded_total − removed`).
    pub forwarded: u64,
    /// Subscriptions covering-pruned, summed over links (cumulative).
    pub pruned: u64,
    /// Subscriptions ever forwarded upstream, summed over links
    /// (cumulative; includes uncovering promotions).
    pub forwarded_total: u64,
    /// Forwarding-table rows removed again, summed over links
    /// (cumulative).
    pub removed: u64,
    /// Uncovering promotions (previously-pruned subscriptions forwarded
    /// after a removal exposed them), summed over links (cumulative).
    pub uncovered: u64,
    /// Sequence-number gaps observed on inbound links (cumulative; the
    /// liveness signal — each one is a [`LinkEvent::Gap`]).
    pub gaps: u64,
    /// Heartbeat frames emitted (cumulative; zero with heartbeats
    /// disabled).
    pub heartbeats: u64,
    /// Recovery-record seals performed (cumulative). At most one per
    /// [`Broker::step`], however many mutations the step carried.
    pub seals: u64,
    /// Seals the per-step coalescing avoided (cumulative): mutations
    /// that found the record already marked dirty in the same step and
    /// would each have paid a seal ECALL before coalescing.
    pub seals_saved: u64,
    /// Plaintext bytes that went through the checkpoint seal
    /// (cumulative): delta payloads plus every compaction's whole base.
    pub sealed_bytes: u64,
    /// Checkpoints that wrote a whole base record instead of a delta
    /// (cumulative; the first checkpoint is one).
    pub compactions: u64,
    /// Deltas currently chained onto the base in the host's file.
    pub log_entries: u64,
}

impl BrokerStats {
    /// Uniform counter snapshot for the metrics registry (stable label
    /// set; `elapsed_ns` is excluded as non-integral — read it from the
    /// struct directly).
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("subscriptions", self.subscriptions as u64),
            ("ecalls", self.ecalls),
            ("ocalls", self.ocalls),
            ("forwarded", self.forwarded),
            ("pruned", self.pruned),
            ("forwarded_total", self.forwarded_total),
            ("removed", self.removed),
            ("uncovered", self.uncovered),
            ("gaps", self.gaps),
            ("heartbeats", self.heartbeats),
            ("seals", self.seals),
            ("seals_saved", self.seals_saved),
            ("sealed_bytes", self.sealed_bytes),
            ("compactions", self.compactions),
            ("log_entries", self.log_entries),
        ]
    }
}

/// Result of opening an inbound frame, lifted out of the borrow on the
/// link map.
enum Opened {
    Wire { wire: Vec<u8>, meta: u64 },
    Gap { expected: u64, got: u64 },
    Failed(NetError),
    NoChannel,
}

/// The shape of the recovery file as the host sees it on its own disk:
/// the size of the base entry, and how many deltas of what total size
/// have been appended since. Drives the compaction rule.
#[derive(Debug, Clone, Copy, Default)]
struct LogShape {
    base_bytes: usize,
    delta_bytes: usize,
    deltas: u64,
}

/// One overlay broker (untrusted shell + enclave-resident core), driven
/// exclusively through [`Broker::step`].
pub struct Broker {
    id: usize,
    state: Lifecycle,
    platform: Option<SgxPlatform>,
    enclave: Option<Enclave>,
    /// The measured routing binary, kept for enclave relaunch on restart.
    code: Vec<u8>,
    flood: bool,
    core: BrokerCore,
    links: BTreeMap<usize, LinkChannel>,
    neighbors: Vec<usize>,
    /// Half-open handshakes we initiated (awaiting link-accept).
    initiations: BTreeMap<usize, LinkInitiator>,
    /// Half-open handshakes we responded to (awaiting link-finish).
    responses: BTreeMap<usize, LinkResponder>,
    /// Trust anchors for verifying peer quotes during link handshakes.
    service: Option<AttestationService>,
    policy: Option<VerifierPolicy>,
    /// The sealed recovery record, as stored on the untrusted host
    /// disk: one length-prefixed base entry, then the deltas appended
    /// since.
    sealed: Option<Vec<u8>>,
    /// The shape of `sealed` as last written or restored.
    log: LogShape,
    /// The platform monotonic counter keying the record's rollback
    /// protection.
    counter: Option<CounterId>,
    /// Rejoin bookkeeping: links still owing a replay, replay requests
    /// already sent, per-link ids confirmed by the replay so far, and
    /// neighbours the operator declared dead at restart (skipped until
    /// they rejoin on their own).
    pending_replays: BTreeSet<usize>,
    requested: BTreeSet<usize>,
    confirmed: BTreeMap<usize, BTreeSet<SubscriptionId>>,
    dead_links: BTreeSet<usize>,
    replayed_subs: usize,
    dropped_stale: usize,
    crashed_at: u64,
    now: u64,
    gaps: u64,
    /// Liveness timers (host configuration; `None` disables all
    /// steady-state tick work).
    heartbeats: Option<HeartbeatConfig>,
    /// Ticks processed over the broker's lifetime (the liveness clock).
    ticks: u64,
    /// Per link, the tick of the last *authentic* inbound frame
    /// (including gap frames — a gap proves the peer alive).
    last_rx: BTreeMap<usize, u64>,
    /// Per link, the tick of the last heartbeat we emitted.
    last_hb: BTreeMap<usize, u64>,
    /// Per link, the tick a sequence gap was first observed (cleared on
    /// re-key — the gapped channel can never advance on its own).
    gap_since: BTreeMap<usize, u64>,
    /// Links currently under suspicion (one `Suspect` per episode).
    suspects: BTreeSet<usize>,
    /// Links needing a pull-replay once their channel re-keys (set by
    /// the gap-heal path).
    resync: BTreeSet<usize>,
    /// Replay requests received while not yet serving (a neighbour
    /// rejoining concurrently with us); served on our own transition to
    /// `Serving`.
    parked_replays: BTreeSet<usize>,
    /// Per link, the tick of our last handshake initiation (probe
    /// retry pacing).
    initiated_at: BTreeMap<usize, u64>,
    /// Per link, the tick of our last replay request (pull-retry
    /// pacing: a request toward a neighbour that was dead when we sent
    /// it is re-sent once its age exceeds the suspicion window).
    requested_at: BTreeMap<usize, u64>,
    /// Heartbeat frames emitted (cumulative).
    heartbeats_sent: u64,
    /// Stage-latency and hop-trace instrumentation. Host configuration
    /// (like the trust anchors): survives crashes, re-applied to the
    /// rebuilt core on restart. Off by default — the uninstrumented hot
    /// path stays byte-for-byte identical.
    telemetry: bool,
    /// Subscription state mutated during the current `step`; flushed to
    /// (at most) one [`Broker::checkpoint`] on the way out.
    dirty: bool,
    /// The pending checkpoint must write a whole base: the step closed a
    /// replay reconciliation.
    force_base: bool,
    /// Recovery-record seals performed (cumulative).
    seals: u64,
    /// Seals avoided by per-step coalescing (cumulative).
    seals_saved: u64,
    /// Plaintext bytes sealed by checkpoints (cumulative).
    sealed_bytes: u64,
    /// Checkpoints that wrote a base (cumulative).
    compactions: u64,
    rng: CryptoRng,
    /// Route results of the publication batch in flight; the enclave
    /// fills it, the shell turns it into outputs. Reused across batches.
    routes: RouteSpans,
    /// Encoding buffer for outgoing publication batches, reused across
    /// links and batches.
    batch_wire: Vec<u8>,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("attested", &self.enclave.is_some())
            .field("links", &self.links.len())
            .field("subscriptions", &self.subscriptions())
            .finish()
    }
}

impl Broker {
    /// Launches an attested broker: own platform (its own machine), the
    /// routing enclave measured from `code`, index in enclave memory, a
    /// platform monotonic counter reserved for its recovery record.
    ///
    /// # Errors
    ///
    /// Propagates enclave-launch failures.
    pub fn attested(id: usize, seed: u64, code: &[u8], flood: bool) -> Result<Self, OverlayError> {
        let platform = SgxPlatform::for_testing(seed);
        let enclave = platform.launch(router_builder(code))?;
        let counter = platform.create_counter();
        let core = BrokerCore::fresh(enclave.memory(), flood, &[]);
        Ok(Broker {
            id,
            state: Lifecycle::Cold,
            platform: Some(platform),
            enclave: Some(enclave),
            code: code.to_vec(),
            flood,
            core,
            links: BTreeMap::new(),
            neighbors: Vec::new(),
            initiations: BTreeMap::new(),
            responses: BTreeMap::new(),
            service: None,
            policy: None,
            sealed: None,
            log: LogShape::default(),
            counter: Some(counter),
            pending_replays: BTreeSet::new(),
            requested: BTreeSet::new(),
            confirmed: BTreeMap::new(),
            dead_links: BTreeSet::new(),
            replayed_subs: 0,
            dropped_stale: 0,
            crashed_at: 0,
            now: 0,
            gaps: 0,
            heartbeats: None,
            ticks: 0,
            last_rx: BTreeMap::new(),
            last_hb: BTreeMap::new(),
            gap_since: BTreeMap::new(),
            suspects: BTreeSet::new(),
            resync: BTreeSet::new(),
            parked_replays: BTreeSet::new(),
            initiated_at: BTreeMap::new(),
            requested_at: BTreeMap::new(),
            heartbeats_sent: 0,
            telemetry: false,
            dirty: false,
            force_base: false,
            seals: 0,
            seals_saved: 0,
            sealed_bytes: 0,
            compactions: 0,
            rng: CryptoRng::from_seed(seed ^ 0x6c69_6e6b),
            routes: RouteSpans::default(),
            batch_wire: Vec::new(),
        })
    }

    /// Builds a plain broker for pre-shared-trust deployments and tests:
    /// no enclave, free-cost native memory, unsealed links. Crash/rejoin
    /// still works — the recovery record is stored unsealed (no rollback
    /// protection without a platform).
    pub fn preshared(id: usize, seed: u64, flood: bool) -> Self {
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        Broker {
            id,
            state: Lifecycle::Cold,
            platform: None,
            enclave: None,
            code: Vec::new(),
            flood,
            core: BrokerCore::fresh(&mem, flood, &[]),
            links: BTreeMap::new(),
            neighbors: Vec::new(),
            initiations: BTreeMap::new(),
            responses: BTreeMap::new(),
            service: None,
            policy: None,
            sealed: None,
            log: LogShape::default(),
            counter: None,
            pending_replays: BTreeSet::new(),
            requested: BTreeSet::new(),
            confirmed: BTreeMap::new(),
            dead_links: BTreeSet::new(),
            replayed_subs: 0,
            dropped_stale: 0,
            crashed_at: 0,
            now: 0,
            gaps: 0,
            heartbeats: None,
            ticks: 0,
            last_rx: BTreeMap::new(),
            last_hb: BTreeMap::new(),
            gap_since: BTreeMap::new(),
            suspects: BTreeSet::new(),
            resync: BTreeSet::new(),
            parked_replays: BTreeSet::new(),
            initiated_at: BTreeMap::new(),
            requested_at: BTreeMap::new(),
            heartbeats_sent: 0,
            telemetry: false,
            dirty: false,
            force_base: false,
            seals: 0,
            seals_saved: 0,
            sealed_bytes: 0,
            compactions: 0,
            rng: CryptoRng::from_seed(seed ^ 0x6c69_6e6b),
            routes: RouteSpans::default(),
            batch_wire: Vec::new(),
        }
    }

    /// The broker's router id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The broker's lifecycle state.
    pub fn lifecycle(&self) -> Lifecycle {
        self.state
    }

    /// The broker's platform (attested brokers only).
    pub fn platform(&self) -> Option<&SgxPlatform> {
        self.platform.as_ref()
    }

    /// The broker's enclave (attested brokers only; `None` while
    /// crashed).
    pub fn enclave(&self) -> Option<&Enclave> {
        self.enclave.as_ref()
    }

    /// The sealed recovery record currently on the host's disk (base
    /// entry + appended deltas, each `u32` length-prefixed) — exposed
    /// because the disk is *outside* the trust boundary: tests (and
    /// adversaries) may read, cut up or swap it; the seal chain, not the
    /// accessor, provides the protection.
    pub fn sealed_record(&self) -> Option<&[u8]> {
        self.sealed.as_deref()
    }

    /// Overwrites the host-disk recovery record (models a malicious or
    /// restored-from-backup host). A stale, truncated or re-spliced
    /// record is caught by the monotonic counter at restart.
    pub fn set_sealed_record(&mut self, record: Vec<u8>) {
        self.sealed = Some(record);
    }

    /// Runs `f` on the enclave-resident core, crossing the call gate when
    /// attested.
    fn call<R>(&mut self, f: impl FnOnce(&mut BrokerCore) -> R) -> R {
        let core = &mut self.core;
        match &self.enclave {
            Some(enclave) => enclave.ecall(|_ctx| f(core)),
            None => f(core),
        }
    }

    /// Current virtual-clock reading of the broker's memory simulator.
    /// A pure f64 read — charges nothing, so instrumented and
    /// uninstrumented runs observe identical cost models.
    fn mem_elapsed_ns(&self) -> f64 {
        self.core.matcher.memory().elapsed_ns()
    }

    /// Declares the broker's neighbour set, creating one (empty) covering
    /// table per link. Call once, before provisioning.
    pub fn set_neighbors(&mut self, neighbors: &[usize]) {
        self.neighbors = neighbors.to_vec();
        self.core.upstream = neighbors.iter().map(|&n| (n, ForwardingTable::new())).collect();
    }

    /// Installs the trust anchors (attestation service + verifier
    /// policy) the broker uses to verify peer quotes during link
    /// handshakes. Host-side configuration: survives crashes.
    pub fn configure_trust(&mut self, service: AttestationService, policy: VerifierPolicy) {
        self.service = Some(service);
        self.policy = Some(policy);
    }

    /// Installs `SK` and the producer key directly (pre-shared trust).
    /// Moves a cold broker straight to `Serving` (plain links carry no
    /// handshake).
    pub fn provision_preshared(&mut self, producer: &ProducerCrypto) {
        let sk = producer.sk().clone();
        let pk = producer.public_key().clone();
        self.call(|c| c.matcher.provision_keys(sk, pk));
        if self.state == Lifecycle::Cold {
            self.state = Lifecycle::Serving;
        }
    }

    /// Provisions `SK` into the broker's enclave via remote attestation
    /// (the producer releases the key only to the expected measurement).
    /// Moves a cold broker through `Attesting` into `Linking` (or
    /// straight to `Serving` with no neighbours); a rejoining broker
    /// stays `Rejoining`.
    ///
    /// # Errors
    ///
    /// Any attestation, policy or crypto failure — the broker is left in
    /// `Attesting`; also fails on a pre-shared broker (nothing to
    /// attest).
    pub fn provision_attested(
        &mut self,
        service: &AttestationService,
        policy: &VerifierPolicy,
        producer: &ProducerCrypto,
        producer_rng: &mut CryptoRng,
    ) -> Result<(), OverlayError> {
        if self.state == Lifecycle::Cold {
            self.state = Lifecycle::Attesting;
        }
        let platform = self
            .platform
            .as_ref()
            .ok_or(OverlayError::Link { reason: "broker has no platform" })?;
        let enclave =
            self.enclave.as_ref().ok_or(OverlayError::Link { reason: "broker has no enclave" })?;
        let (sk, pk) = provision_sk_via_attestation(
            platform,
            enclave,
            service,
            policy,
            producer,
            &mut self.rng,
            producer_rng,
        )?;
        self.call(|c| c.matcher.provision_keys(sk, pk));
        if self.state == Lifecycle::Attesting {
            self.state =
                if self.neighbors.is_empty() { Lifecycle::Serving } else { Lifecycle::Linking };
        }
        Ok(())
    }

    /// Configures (or disables, with `None`) the liveness timers. Host
    /// configuration: survives crashes. Takes effect on the next tick.
    pub fn set_heartbeats(&mut self, config: Option<HeartbeatConfig>) {
        self.heartbeats = config;
    }

    /// The configured liveness timers, if any.
    pub fn heartbeat_config(&self) -> Option<HeartbeatConfig> {
        self.heartbeats
    }

    /// Installs an unsealed link to `neighbor` (pre-shared trust).
    pub fn install_plain_link(&mut self, neighbor: usize) {
        self.links.insert(neighbor, LinkChannel::Plain);
        self.last_rx.insert(neighbor, self.ticks);
        self.gap_since.remove(&neighbor);
    }

    fn install_sealed_link(&mut self, neighbor: usize, key: &LinkKey) {
        let local = self.id as u64;
        self.links.insert(
            neighbor,
            LinkChannel::Sealed {
                outbound: SecureLink::outbound(key.as_bytes(), local, neighbor as u64),
                inbound: SecureLink::inbound(key.as_bytes(), local, neighbor as u64),
            },
        );
        // A fresh key resets the liveness view of the link: the silence
        // clock restarts and any wedge died with the old channel.
        self.last_rx.insert(neighbor, self.ticks);
        self.gap_since.remove(&neighbor);
        self.initiated_at.remove(&neighbor);
    }

    fn seal_to(&mut self, neighbor: usize, wire: &[u8]) -> Result<Vec<u8>, OverlayError> {
        self.seal_to_meta(neighbor, wire, 0)
    }

    /// [`Broker::seal_to`] with a clear-text metadata word (the trace id
    /// of a publication batch). The word is bound into the sealed
    /// frame's AAD, so tampering is detected on open; plain links have
    /// no frame header to carry it, so there it is dropped — cross-hop
    /// traces need sealed links.
    fn seal_to_meta(
        &mut self,
        neighbor: usize,
        wire: &[u8],
        meta: u64,
    ) -> Result<Vec<u8>, OverlayError> {
        match self.links.get_mut(&neighbor) {
            Some(LinkChannel::Sealed { outbound, .. }) => Ok(outbound.seal_meta(wire, meta)),
            Some(LinkChannel::Plain) => Ok(wire.to_vec()),
            None => Err(OverlayError::Link { reason: "no link to neighbour" }),
        }
    }

    // ---- the state machine ---------------------------------------------

    /// Advances the state machine by one input at virtual time `now`.
    /// This is the broker's **entire** runtime surface: frames, local
    /// traffic, admin commands and timer ticks all enter here, and every
    /// effect — frames to send, local deliveries, lifecycle events —
    /// comes back as an [`Output`] for the caller to dispatch.
    ///
    /// # Errors
    ///
    /// Inputs invalid for the current [`Lifecycle`] state are
    /// [`OverlayError::Lifecycle`]; frame authentication, routing and
    /// sealing failures propagate with their own kinds.
    pub fn step(&mut self, now: u64, input: Input) -> Result<Vec<Output>, OverlayError> {
        self.now = now;
        let outs = match input {
            Input::Crash => self.on_crash(),
            Input::Restart { dead_links } => self.on_restart(&dead_links),
            Input::Tick => self.on_tick(),
            Input::Frame { from, bytes } => self.on_frame(from, &bytes),
            Input::Subscribe { envelope } => self.on_subscribe(&envelope),
            Input::Unsubscribe { envelope } => self.on_unsubscribe(&envelope),
            Input::Publish { items, trace } => self.on_publish(&items, trace),
        }?;
        self.flush_checkpoint()?;
        Ok(outs)
    }

    /// Marks the recovery record stale. Every subscription-state
    /// mutation calls this instead of sealing on the spot; the flag is
    /// flushed to at most **one** [`Broker::checkpoint`] at the end of
    /// the step, so an N-mutation step (a replayed-link reconciliation)
    /// pays one seal ECALL instead of N.
    fn mark_dirty(&mut self) {
        if self.dirty {
            self.seals_saved += 1;
        } else {
            self.dirty = true;
        }
    }

    /// [`Broker::mark_dirty`], suppressed while rejoining: the replay
    /// burst arrives as one frame per step, and one mark at the end of
    /// each link's replay ([`Broker::reconcile_replay`]) covers it —
    /// re-sealing per replayed envelope would make recovery quadratic in
    /// the live set.
    fn mark_dirty_if_serving(&mut self) {
        if self.state == Lifecycle::Serving {
            self.mark_dirty();
        }
    }

    /// Seals the recovery record if this step mutated subscription
    /// state.
    fn flush_checkpoint(&mut self) -> Result<(), OverlayError> {
        if !self.dirty {
            return Ok(());
        }
        self.dirty = false;
        self.checkpoint()
    }

    fn require_serving(&self, what: &'static str) -> Result<(), OverlayError> {
        if self.state != Lifecycle::Serving {
            return Err(OverlayError::Lifecycle { reason: what });
        }
        Ok(())
    }

    fn require_traffic(&self) -> Result<(), OverlayError> {
        match self.state {
            Lifecycle::Serving | Lifecycle::Rejoining => Ok(()),
            _ => Err(OverlayError::Lifecycle { reason: "subscription frame outside serving" }),
        }
    }

    // ---- admin ---------------------------------------------------------

    /// Drops every piece of volatile state. The platform (machine), the
    /// host disk (sealed record), the measured binary and the trust
    /// anchors survive; everything else — enclave, keys, index, live
    /// set, covering tables, link keys, half-open handshakes — is gone.
    fn on_crash(&mut self) -> Result<Vec<Output>, OverlayError> {
        if self.state == Lifecycle::Crashed {
            return Ok(Vec::new()); // idempotent
        }
        self.enclave = None;
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        self.core = BrokerCore::fresh(&mem, self.flood, &self.neighbors);
        // Telemetry is host configuration: the flag survives the crash,
        // but the flight recorder and stage histograms (volatile, never
        // sealed) restart empty with the rebuilt core.
        self.core.matcher.set_telemetry(self.telemetry);
        // Whatever was marked dirty this step died with the enclave, and
        // so did the journal (it lived in the core just replaced); the
        // last *flushed* record on the host disk is the recovery truth.
        self.dirty = false;
        self.force_base = false;
        self.links.clear();
        self.initiations.clear();
        self.responses.clear();
        self.pending_replays.clear();
        self.requested.clear();
        self.confirmed.clear();
        self.dead_links.clear();
        self.last_rx.clear();
        self.last_hb.clear();
        self.gap_since.clear();
        self.suspects.clear();
        self.resync.clear();
        self.parked_replays.clear();
        self.initiated_at.clear();
        self.requested_at.clear();
        self.crashed_at = self.now;
        self.state = Lifecycle::Crashed;
        Ok(vec![Output::Event(LinkEvent::Crashed)])
    }

    /// Restarts a crashed broker: relaunch the enclave, unseal and
    /// restore the recovery record, enter `Rejoining`. Re-attestation
    /// (key provisioning) and link re-establishment follow as separate
    /// inputs, driven by the scheduler. Neighbours listed in
    /// `dead_links` are skipped entirely — no handshake, no replay; the
    /// rows toward them stay recorded, and consistency is restored when
    /// *they* rejoin and replay from us (their reconciliation
    /// `sub-drop`s cover removals we both missed).
    fn on_restart(&mut self, dead_links: &[usize]) -> Result<Vec<Output>, OverlayError> {
        if self.state != Lifecycle::Crashed {
            return Err(OverlayError::Lifecycle {
                reason: "restart of a broker that is not crashed",
            });
        }
        // The host's file: the base entry, then the deltas appended
        // since. Nothing below touches `self` until the whole record has
        // been accepted — a refused restart leaves the broker crashed
        // and the file where it was.
        let entries = journal::split_entries(self.sealed.as_deref().unwrap_or_default())?;
        let flood = self.flood;
        let neighbors = &self.neighbors;
        if let Some(platform) = &self.platform {
            // Relaunch the (same, identically measured) routing enclave;
            // one crossing opens the chain (one key derivation for all
            // its blobs), restores the base and redoes the deltas.
            let enclave = platform.launch(router_builder(&self.code))?;
            let counter = self.counter;
            let core = enclave.ecall(|ctx| -> Result<BrokerCore, OverlayError> {
                let (base_version, opened) = match counter {
                    Some(counter) if !entries.is_empty() => VersionedSeal::unseal_chain(
                        ctx,
                        SealPolicy::MrEnclave,
                        platform,
                        counter,
                        &entries,
                    )?,
                    _ => (0, Vec::new()),
                };
                let record: Vec<&[u8]> = opened.iter().map(Vec::as_slice).collect();
                let mut core = BrokerCore::restore(&record, ctx.memory(), flood, neighbors)?;
                core.base_version = base_version;
                Ok(core)
            })?;
            self.enclave = Some(enclave);
            self.core = core;
        } else {
            let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
            self.core = BrokerCore::restore(&entries, &mem, flood, neighbors)?;
        }
        self.log = match entries.split_first() {
            Some((base, deltas)) => LogShape {
                base_bytes: base.len(),
                delta_bytes: deltas.iter().map(|d| d.len()).sum(),
                deltas: deltas.len() as u64,
            },
            None => LogShape::default(),
        };
        self.core.matcher.set_telemetry(self.telemetry);
        self.dirty = false;
        self.force_base = false;
        let restored = self.core.live.len();
        self.replayed_subs = 0;
        self.dropped_stale = 0;
        self.requested.clear();
        self.requested_at.clear();
        self.confirmed.clear();
        self.dead_links =
            dead_links.iter().copied().filter(|n| self.neighbors.contains(n)).collect();
        self.pending_replays =
            self.neighbors.iter().copied().filter(|n| !self.dead_links.contains(n)).collect();
        let mut outs = vec![Output::Event(LinkEvent::RejoinStarted { restored })];
        if self.pending_replays.is_empty() {
            // No (live) neighbours to replay from: recovery is the seal
            // alone.
            self.state = Lifecycle::Serving;
            outs.push(Output::Event(LinkEvent::Rejoined {
                replayed: 0,
                dropped_stale: 0,
                downtime: self.now.saturating_sub(self.crashed_at),
            }));
        } else {
            self.state = Lifecycle::Rejoining;
        }
        Ok(outs)
    }

    /// Timer tick, dispatched per lifecycle state. While linking or
    /// rejoining it drives handshake initiation and replay kick-off;
    /// while serving (with heartbeats configured) it runs the
    /// steady-state liveness work — heartbeat emission, dead-link
    /// probing and suspicion timeouts. Cold, attesting and crashed
    /// brokers have no timer work.
    fn on_tick(&mut self) -> Result<Vec<Output>, OverlayError> {
        self.ticks += 1;
        match self.state {
            Lifecycle::Cold | Lifecycle::Attesting | Lifecycle::Crashed => Ok(Vec::new()),
            Lifecycle::Linking => self.tick_handshakes(false),
            Lifecycle::Rejoining => {
                let mut outs = self.tick_handshakes(true)?;
                outs.extend(self.tick_replay_kickoff()?);
                Ok(outs)
            }
            Lifecycle::Serving => self.tick_serving(),
        }
    }

    /// Initiates pending link handshakes: at bring-up the lower id
    /// initiates each edge; a rejoining broker initiates every incident
    /// link, since only *it* lost the keys.
    fn tick_handshakes(&mut self, rejoining: bool) -> Result<Vec<Output>, OverlayError> {
        let mut outs = Vec::new();
        let targets: Vec<usize> = self
            .neighbors
            .iter()
            .copied()
            .filter(|n| {
                !self.links.contains_key(n)
                    && !self.initiations.contains_key(n)
                    && !self.responses.contains_key(n)
                    && !self.dead_links.contains(n)
                    && (rejoining || self.id < *n)
            })
            .collect();
        for neighbor in targets {
            let (wire, state) = self.initiate_handshake()?;
            self.initiations.insert(neighbor, state);
            self.initiated_at.insert(neighbor, self.ticks);
            outs.push(Output::Frame(LinkFrame { to: neighbor, from: self.id, bytes: wire }));
        }
        Ok(outs)
    }

    /// Plain links (pre-shared trust) need no handshake: a rejoining
    /// broker requests the replay as soon as the host has reinstalled
    /// them.
    fn tick_replay_kickoff(&mut self) -> Result<Vec<Output>, OverlayError> {
        let mut outs = Vec::new();
        let ready: Vec<usize> = self
            .pending_replays
            .iter()
            .copied()
            .filter(|n| self.links.contains_key(n) && !self.requested.contains(n))
            .collect();
        for neighbor in ready {
            self.requested.insert(neighbor);
            self.requested_at.insert(neighbor, self.ticks);
            let bytes = self.seal_to(neighbor, &Message::ReplayRequest.to_wire())?;
            outs.push(Output::Frame(LinkFrame { to: neighbor, from: self.id, bytes }));
        }
        Ok(outs)
    }

    /// Steady-state liveness work (with heartbeats disabled, a serving
    /// tick is still accepted but does nothing — the legacy behaviour).
    /// Per neighbour:
    ///
    /// * an established, trusted link gets a heartbeat every `interval`
    ///   ticks;
    /// * a believed-dead neighbour whose plain link the host reinstalled
    ///   is healed immediately (pull-replay — the stale-liveness-view
    ///   fix);
    /// * an unkeyed link is probed with a fresh handshake (attested
    ///   brokers; retried every `suspect_after` ticks);
    /// * a link wedged on a sequence gap past `gap_grace` is declared
    ///   [`SuspectReason::Gap`] and proactively re-keyed + resynced;
    /// * a link silent past `suspect_after` is declared
    ///   [`SuspectReason::Silence`] — the fabric aggregates these into
    ///   quorum and auto-restarts the peer.
    fn tick_serving(&mut self) -> Result<Vec<Output>, OverlayError> {
        let Some(config) = self.heartbeats else {
            return Ok(Vec::new());
        };
        let mut outs = Vec::new();
        let hb_wire = Message::Heartbeat.to_wire();
        for n in self.neighbors.clone() {
            // Every neighbour is on the liveness clock from its first
            // serving tick — silence toward a neighbour we have never
            // heard from (because it is dead) must accrue too.
            let seen = *self.last_rx.entry(n).or_insert(self.ticks);
            let keyed = self.links.contains_key(&n);
            if keyed && self.dead_links.contains(&n) {
                // Stale liveness view: the host reinstalled a plain link
                // to a neighbour we believed dead — it is reachable, so
                // reconcile what we missed while ignoring it.
                outs.extend(self.heal_dead_link(n)?);
                continue;
            }
            if keyed {
                let due = self.last_hb.get(&n).is_none_or(|&t| self.ticks - t >= config.interval);
                if due {
                    self.last_hb.insert(n, self.ticks);
                    self.heartbeats_sent += 1;
                    let bytes = self.seal_to(n, &hb_wire)?;
                    outs.push(Output::Frame(LinkFrame { to: n, from: self.id, bytes }));
                }
                if self.pending_replays.contains(&n) {
                    // An unanswered pull: the neighbour was dead (or
                    // still rejoining) when we asked. Re-send once the
                    // request outlives the suspicion window, so a heal
                    // attempted against a corpse completes when the
                    // corpse is itself fenced and restarted.
                    let stale = self
                        .requested_at
                        .get(&n)
                        .is_none_or(|&t| self.ticks - t >= config.suspect_after);
                    if stale {
                        self.requested.insert(n);
                        self.requested_at.insert(n, self.ticks);
                        let bytes = self.seal_to(n, &Message::ReplayRequest.to_wire())?;
                        outs.push(Output::Frame(LinkFrame { to: n, from: self.id, bytes }));
                    }
                }
            } else if self.platform.is_some() && !self.responses.contains_key(&n) {
                // No channel (the neighbour was dead at our restart, or
                // its key died with it): probe with a fresh handshake.
                // An unanswered probe is retried once its age exceeds
                // the suspicion window.
                let stale = self
                    .initiated_at
                    .get(&n)
                    .is_none_or(|&t| self.ticks - t >= config.suspect_after);
                if stale {
                    let (wire, state) = self.initiate_handshake()?;
                    self.initiations.insert(n, state);
                    self.initiated_at.insert(n, self.ticks);
                    outs.push(Output::Frame(LinkFrame { to: n, from: self.id, bytes: wire }));
                }
            }
            if self.suspects.contains(&n) {
                continue; // one Suspect per episode
            }
            if let Some(&since) = self.gap_since.get(&n) {
                if self.ticks - since >= config.gap_grace {
                    self.suspects.insert(n);
                    outs.push(Output::Event(LinkEvent::Suspect {
                        link: n,
                        reason: SuspectReason::Gap,
                    }));
                    // The peer is provably alive — gap frames
                    // authenticate — only the channel is wedged on lost
                    // frames. Heal at link level: re-key, then pull a
                    // replay on the fresh channel to recover whatever
                    // subscription traffic the gap swallowed.
                    if self.platform.is_some() && !self.initiations.contains_key(&n) {
                        self.resync.insert(n);
                        let (wire, state) = self.initiate_handshake()?;
                        self.initiations.insert(n, state);
                        self.initiated_at.insert(n, self.ticks);
                        outs.push(Output::Frame(LinkFrame { to: n, from: self.id, bytes: wire }));
                    }
                    continue;
                }
            }
            if self.ticks.saturating_sub(seen) >= config.suspect_after {
                self.suspects.insert(n);
                outs.push(Output::Event(LinkEvent::Suspect {
                    link: n,
                    reason: SuspectReason::Silence,
                }));
            }
        }
        Ok(outs)
    }

    /// A believed-dead neighbour turned out reachable: forget the dead
    /// mark and pull a replay over the link to pick up every interest
    /// change we missed while skipping it.
    fn heal_dead_link(&mut self, neighbor: usize) -> Result<Vec<Output>, OverlayError> {
        self.dead_links.remove(&neighbor);
        self.pending_replays.insert(neighbor);
        self.requested.insert(neighbor);
        self.requested_at.insert(neighbor, self.ticks);
        let bytes = self.seal_to(neighbor, &Message::ReplayRequest.to_wire())?;
        Ok(vec![Output::Frame(LinkFrame { to: neighbor, from: self.id, bytes })])
    }

    // ---- link handshake ------------------------------------------------

    fn initiate_handshake(&mut self) -> Result<(Vec<u8>, LinkInitiator), OverlayError> {
        let (Some(platform), Some(enclave)) = (&self.platform, &self.enclave) else {
            return Err(OverlayError::Link {
                reason: "link handshake requires an attested broker",
            });
        };
        let (hello, state) = sgx_sim::link::initiate(platform, enclave, &mut self.rng)?;
        Ok((Message::LinkHello { payload: hello.to_bytes() }.to_wire(), state))
    }

    /// Responds to a neighbour's hello after verifying its quote against
    /// the configured trust anchors.
    fn hs_hello(&mut self, from: usize, payload: &[u8]) -> Result<Vec<Output>, OverlayError> {
        if !self.neighbors.contains(&from) {
            return Err(OverlayError::Link { reason: "handshake from a non-neighbour" });
        }
        let hello = LinkHello::from_bytes(payload)?;
        let (Some(platform), Some(enclave)) = (&self.platform, &self.enclave) else {
            return Err(OverlayError::Link {
                reason: "link handshake requires an attested broker",
            });
        };
        let (Some(service), Some(policy)) = (&self.service, &self.policy) else {
            return Err(OverlayError::Link { reason: "link trust anchors not configured" });
        };
        let (accept, state) =
            sgx_sim::link::accept(platform, enclave, service, policy, &hello, &mut self.rng)?;
        self.responses.insert(from, state);
        Ok(vec![Output::Frame(LinkFrame {
            to: from,
            from: self.id,
            bytes: Message::LinkAccept { payload: accept.to_bytes() }.to_wire(),
        })])
    }

    /// Completes the initiator side: verify the responder's quote,
    /// derive the link key, install the sealed channels.
    fn hs_accept(&mut self, from: usize, payload: &[u8]) -> Result<Vec<Output>, OverlayError> {
        let Some(state) = self.initiations.remove(&from) else {
            return Err(OverlayError::Link { reason: "unexpected link-accept" });
        };
        let accept = LinkAccept::from_bytes(payload)?;
        let enclave =
            self.enclave.as_ref().ok_or(OverlayError::Link { reason: "broker has no enclave" })?;
        let (Some(service), Some(policy)) = (&self.service, &self.policy) else {
            return Err(OverlayError::Link { reason: "link trust anchors not configured" });
        };
        let (finish, key) =
            sgx_sim::link::finish(state, &accept, service, policy, enclave, &mut self.rng)?;
        self.install_sealed_link(from, &key);
        let mut outs = vec![Output::Frame(LinkFrame {
            to: from,
            from: self.id,
            bytes: Message::LinkFinish { payload: finish.to_bytes() }.to_wire(),
        })];
        outs.extend(self.post_link_up(from)?);
        Ok(outs)
    }

    /// Completes the responder side, deriving the same link key.
    fn hs_finish(&mut self, from: usize, payload: &[u8]) -> Result<Vec<Output>, OverlayError> {
        let Some(state) = self.responses.remove(&from) else {
            return Err(OverlayError::Link { reason: "unexpected link-finish" });
        };
        let finish = LinkFinish::from_bytes(payload)?;
        let enclave =
            self.enclave.as_ref().ok_or(OverlayError::Link { reason: "broker has no enclave" })?;
        let key = sgx_sim::link::complete(state, &finish, enclave)?;
        self.install_sealed_link(from, &key);
        self.post_link_up(from)
    }

    /// Bookkeeping after a sealed channel (re-)establishes: transition
    /// `Linking → Serving` once every neighbour is up, during a rejoin
    /// request the replay on the fresh channel, and while serving heal a
    /// believed-dead or gap-wedged link by pulling a replay over the new
    /// key. A fresh channel also retracts any standing suspicion.
    fn post_link_up(&mut self, link: usize) -> Result<Vec<Output>, OverlayError> {
        let mut outs = vec![Output::Event(LinkEvent::LinkUp { link })];
        if self.suspects.remove(&link) {
            outs.push(Output::Event(LinkEvent::Cleared { link }));
        }
        match self.state {
            Lifecycle::Linking if self.neighbors.iter().all(|n| self.links.contains_key(n)) => {
                self.state = Lifecycle::Serving;
            }
            Lifecycle::Rejoining
                if self.pending_replays.contains(&link) && self.requested.insert(link) =>
            {
                self.requested_at.insert(link, self.ticks);
                let bytes = self.seal_to(link, &Message::ReplayRequest.to_wire())?;
                outs.push(Output::Frame(LinkFrame { to: link, from: self.id, bytes }));
            }
            Lifecycle::Serving
                if self.dead_links.contains(&link) || self.resync.contains(&link) =>
            {
                self.resync.remove(&link);
                outs.extend(self.heal_dead_link(link)?);
            }
            _ => {}
        }
        Ok(outs)
    }

    // ---- frames --------------------------------------------------------

    fn on_frame(&mut self, from: usize, bytes: &[u8]) -> Result<Vec<Output>, OverlayError> {
        if matches!(self.state, Lifecycle::Cold | Lifecycle::Attesting | Lifecycle::Crashed) {
            return Err(OverlayError::Lifecycle {
                reason: "frame for a broker that is not linked",
            });
        }
        let opened = match self.links.get_mut(&from) {
            Some(LinkChannel::Sealed { inbound, .. }) => match inbound.open(bytes) {
                // The metadata word (a publication's trace id) rides in
                // clear but is AAD-bound, so a successful open vouches
                // for it.
                Ok(wire) => Opened::Wire { wire, meta: inbound.last_meta() },
                Err(NetError::Gap { expected, got }) => Opened::Gap { expected, got },
                Err(err) => Opened::Failed(err),
            },
            Some(LinkChannel::Plain) => Opened::Wire { wire: bytes.to_vec(), meta: 0 },
            None => Opened::NoChannel,
        };
        match opened {
            Opened::Wire { wire, meta } => {
                // An authentic frame is proof of life: refresh the
                // liveness clock and retract any standing suspicion.
                self.last_rx.insert(from, self.ticks);
                let cleared = self.suspects.remove(&from);
                let mut outs = self.dispatch_wire(from, &wire, meta)?;
                if cleared {
                    outs.insert(0, Output::Event(LinkEvent::Cleared { link: from }));
                }
                Ok(outs)
            }
            Opened::Gap { expected, got } => {
                self.gaps += 1;
                // A gap frame authenticates, so the *peer* is alive —
                // but the channel is wedged. Start (or keep) the
                // gap-grace clock; `tick_serving` escalates it to a
                // `Suspect { reason: Gap }` re-key if it outlives the
                // grace window.
                self.last_rx.insert(from, self.ticks);
                self.gap_since.entry(from).or_insert(self.ticks);
                Ok(vec![Output::Event(LinkEvent::Gap { link: from, expected, got })])
            }
            Opened::Failed(err) => {
                // Not a frame the sealed channel can open. A *restarted*
                // peer re-keys its links with plaintext handshake frames;
                // accept exactly those (each is quote-authenticated —
                // a forgery cannot complete the handshake, and the old
                // channel stays installed until the new key proves out).
                match Message::from_wire(bytes) {
                    Ok(Message::LinkHello { payload }) => self.hs_hello(from, &payload),
                    Ok(Message::LinkAccept { payload }) if self.initiations.contains_key(&from) => {
                        self.hs_accept(from, &payload)
                    }
                    Ok(Message::LinkFinish { payload }) if self.responses.contains_key(&from) => {
                        self.hs_finish(from, &payload)
                    }
                    _ => Err(err.into()),
                }
            }
            Opened::NoChannel => {
                if !self.neighbors.contains(&from) {
                    return Err(OverlayError::Link { reason: "no link to neighbour" });
                }
                match Message::from_wire(bytes) {
                    Ok(Message::LinkHello { payload }) => self.hs_hello(from, &payload),
                    Ok(Message::LinkAccept { payload }) => self.hs_accept(from, &payload),
                    Ok(Message::LinkFinish { payload }) => self.hs_finish(from, &payload),
                    _ if self.dead_links.contains(&from) || self.state == Lifecycle::Rejoining => {
                        // Sealed traffic under a key we no longer hold:
                        // either our liveness view is stale (the sender
                        // is alive and still using its pre-restart key
                        // toward us) or we are mid-rejoin and the sender
                        // has not re-keyed with us yet. Swallow the
                        // undecipherable frame — the probe/rejoin
                        // handshake heals the link.
                        Ok(Vec::new())
                    }
                    _ => Err(OverlayError::Link { reason: "no link to neighbour" }),
                }
            }
        }
    }

    fn dispatch_wire(
        &mut self,
        from: usize,
        wire: &[u8],
        meta: u64,
    ) -> Result<Vec<Output>, OverlayError> {
        // Publication batches are routed straight out of the opened frame.
        if let Some(batch) = PublishBatchView::from_wire(wire)? {
            self.require_serving("publication for a broker that is not serving")?;
            return self.route_batch(|| batch.clone(), Origin::Link(from), TraceId(meta));
        }
        match Message::from_wire(wire)? {
            Message::SubForward { envelope } => {
                self.require_traffic()?;
                // A link with an outstanding replay request is in replay
                // mode whatever our own lifecycle state: a rejoining
                // broker replays from every neighbour, a serving broker
                // replays over a single healed link.
                let replaying = self.pending_replays.contains(&from);
                let outcome = self.call(|c| c.admit(&envelope, Origin::Link(from), replaying))?;
                if replaying {
                    self.confirmed.entry(from).or_default().insert(outcome.id);
                    self.replayed_subs += 1;
                }
                let wire = Message::SubForward { envelope }.to_wire();
                let outs = self.link_frames(outcome.links, &wire)?;
                // While replaying, one mark at the end of the link's
                // replay (reconcile_replay) covers the whole burst.
                if !replaying {
                    self.mark_dirty_if_serving();
                }
                Ok(outs)
            }
            Message::SubRemove { envelope } => {
                self.require_traffic()?;
                let outcome = self.call(|c| c.remove(&envelope, Origin::Link(from)))?;
                if !outcome.removed {
                    return Ok(Vec::new());
                }
                let wire = Message::SubRemove { envelope }.to_wire();
                let outs = self.link_frames(outcome.links, &wire)?;
                self.mark_dirty_if_serving();
                Ok(outs)
            }
            Message::SubDrop { id } => {
                self.require_traffic()?;
                match self.call(|c| c.origin_of(id)) {
                    None => Ok(Vec::new()), // already gone: idempotent
                    Some(Origin::Link(l)) if l == from => {
                        let outcome = self.call(|c| c.remove_by_id(id, Origin::Link(from)));
                        let wire = Message::SubDrop { id }.to_wire();
                        let outs = self.link_frames(outcome.links, &wire)?;
                        self.mark_dirty_if_serving();
                        Ok(outs)
                    }
                    Some(_) => Err(OverlayError::Link { reason: "sub-drop from wrong direction" }),
                }
            }
            Message::Publish { header_ct, epoch, payload_ct } => {
                self.require_serving("publication for a broker that is not serving")?;
                let item = PublishItemRef { header_ct: &header_ct, epoch, payload_ct: &payload_ct };
                self.route_batch(|| std::iter::once(item), Origin::Link(from), TraceId(meta))
            }
            Message::ReplayRequest => {
                if self.state != Lifecycle::Serving {
                    // A neighbour that rejoined concurrently with us is
                    // asking for a replay we cannot serve yet. Park the
                    // request — it drains the moment we reach Serving —
                    // so two adjacent brokers crashed in the same window
                    // both recover instead of wedging on each other.
                    self.parked_replays.insert(from);
                    return Ok(Vec::new());
                }
                self.serve_replay(from)
            }
            Message::ReplayDone { count } => self.reconcile_replay(from, count),
            Message::Heartbeat => {
                // Pure liveness beacon: opening it already refreshed
                // `last_rx`; there is nothing to route.
                Ok(Vec::new())
            }
            _ => Err(OverlayError::Link { reason: "unexpected message kind on link" }),
        }
    }

    /// Serves a replay towards `from`: re-send every subscription the
    /// neighbour should hold from us, closed with a count-carrying
    /// `ReplayDone` marker.
    fn serve_replay(&mut self, from: usize) -> Result<Vec<Output>, OverlayError> {
        let envelopes = self.call(|c| c.replay_rows(from));
        let count = envelopes.len() as u32;
        let mut outs = Vec::with_capacity(envelopes.len() + 1);
        for envelope in envelopes {
            let wire = Message::SubForward { envelope }.to_wire();
            let bytes = self.seal_to(from, &wire)?;
            outs.push(Output::Frame(LinkFrame { to: from, from: self.id, bytes }));
        }
        let bytes = self.seal_to(from, &Message::ReplayDone { count }.to_wire())?;
        outs.push(Output::Frame(LinkFrame { to: from, from: self.id, bytes }));
        Ok(outs)
    }

    /// Serves every replay request that arrived while we were not yet
    /// serving. Called on the Rejoining → Serving transition.
    fn drain_parked(&mut self) -> Result<Vec<Output>, OverlayError> {
        let parked = std::mem::take(&mut self.parked_replays);
        let mut outs = Vec::new();
        for neighbor in parked {
            if self.links.contains_key(&neighbor) {
                outs.extend(self.serve_replay(neighbor)?);
            }
        }
        Ok(outs)
    }

    /// Ends the replay from `from`: every restored subscription learnt
    /// from that link which the neighbour did *not* re-confirm was
    /// removed during the outage — drop it with full uncovering
    /// bookkeeping and propagate authenticated `sub-drop`s down the
    /// reverse path. When a rejoining broker's last neighbour finishes,
    /// start serving; a serving broker finishing a single healed link's
    /// replay reports `Healed` instead.
    fn reconcile_replay(&mut self, from: usize, count: u32) -> Result<Vec<Output>, OverlayError> {
        let healing = self.state == Lifecycle::Serving;
        if !(self.state == Lifecycle::Rejoining || healing) || !self.pending_replays.contains(&from)
        {
            return Err(OverlayError::Lifecycle { reason: "unexpected replay-done" });
        }
        let confirmed = self.confirmed.remove(&from).unwrap_or_default();
        if confirmed.len() != count as usize {
            return Err(OverlayError::Link { reason: "replay count mismatch" });
        }
        let stale: Vec<SubscriptionId> = self.call(|c| {
            c.live
                .iter()
                .filter(|(id, sub)| sub.origin == Origin::Link(from) && !confirmed.contains(id))
                .map(|(id, _)| *id)
                .collect()
        });
        let replayed_here = confirmed.len();
        let mut outs = Vec::new();
        for id in &stale {
            let outcome = self.call(|c| c.remove_by_id(*id, Origin::Link(from)));
            let wire = Message::SubDrop { id: *id }.to_wire();
            outs.extend(self.link_frames(outcome.links, &wire)?);
            self.dropped_stale += 1;
            self.mark_dirty();
        }
        // One checkpoint per completed link replay: covers the replayed
        // admissions (whose per-frame marks are suppressed while
        // replaying) and the stale drops marked above. It writes a base:
        // a replay re-journals the link's whole live set, so a delta
        // would cost as much and restart redo twice over.
        self.mark_dirty();
        self.force_base = true;
        self.pending_replays.remove(&from);
        self.requested.remove(&from);
        self.requested_at.remove(&from);
        if healing {
            outs.push(Output::Event(LinkEvent::Healed {
                link: from,
                replayed: replayed_here,
                dropped_stale: stale.len(),
            }));
        } else if self.pending_replays.is_empty() {
            self.state = Lifecycle::Serving;
            outs.push(Output::Event(LinkEvent::Rejoined {
                replayed: self.replayed_subs,
                dropped_stale: self.dropped_stale,
                downtime: self.now.saturating_sub(self.crashed_at),
            }));
            // Neighbours that rejoined concurrently with us asked for
            // their replays while we could not serve them: drain the
            // parked requests now that we can.
            outs.extend(self.drain_parked()?);
        }
        Ok(outs)
    }

    // ---- local traffic -------------------------------------------------

    fn on_subscribe(&mut self, envelope: &[u8]) -> Result<Vec<Output>, OverlayError> {
        self.require_serving("subscription for a broker that is not serving")?;
        let outcome = self.call(|c| c.admit(envelope, Origin::Local, false))?;
        let wire = Message::SubForward { envelope: envelope.to_vec() }.to_wire();
        let mut outs = self.link_frames(outcome.links, &wire)?;
        self.mark_dirty();
        outs.push(Output::Event(LinkEvent::Subscribed { id: outcome.id }));
        Ok(outs)
    }

    fn on_unsubscribe(&mut self, envelope: &[u8]) -> Result<Vec<Output>, OverlayError> {
        self.require_serving("unsubscription for a broker that is not serving")?;
        let outcome = self.call(|c| c.remove(envelope, Origin::Local))?;
        let mut outs = Vec::new();
        if outcome.removed {
            let wire = Message::SubRemove { envelope: envelope.to_vec() }.to_wire();
            outs = self.link_frames(outcome.links, &wire)?;
            self.mark_dirty();
        }
        outs.push(Output::Event(LinkEvent::Unsubscribed {
            id: outcome.id,
            removed: outcome.removed,
        }));
        Ok(outs)
    }

    fn on_publish(
        &mut self,
        items: &[PublishItem],
        trace: TraceId,
    ) -> Result<Vec<Output>, OverlayError> {
        self.require_serving("publication for a broker that is not serving")?;
        self.route_batch(|| items.iter().map(PublishItem::view), Origin::Local, trace)
    }

    /// Routes a batch of publications: decrypt+match the whole batch in
    /// [`MAX_DRAIN`]-bounded single enclave crossings, deliver locally —
    /// every client a publication reaches here shares one copy of it —
    /// and forward each item on every matching link (origin excluded),
    /// each link's batch encoded from the borrowed items into one reused
    /// buffer. `items` yields the batch afresh on every call.
    ///
    /// With telemetry enabled the batch is timed through three waypoints
    /// (arrival, matched, forwarded) and committed as one
    /// [`HopRecord`] + two stage samples in a *single extra* enclave
    /// crossing at the end — the timestamps are read before that
    /// crossing, so the recording cost never pollutes the measurements,
    /// and with telemetry off the crossing count is exactly the
    /// uninstrumented one.
    fn route_batch<'a, I>(
        &mut self,
        items: impl Fn() -> I,
        origin: Origin,
        trace: TraceId,
    ) -> Result<Vec<Output>, OverlayError>
    where
        I: ExactSizeIterator<Item = PublishItemRef<'a>>,
    {
        let timing = self.telemetry;
        let t_arrival = if timing { self.mem_elapsed_ns() } else { 0.0 };
        let mut routes = std::mem::take(&mut self.routes);
        routes.clear();
        for start in (0..items().len()).step_by(MAX_DRAIN) {
            let headers = items().skip(start).take(MAX_DRAIN).map(|item| item.header_ct);
            self.call(|c| c.route_into(headers, origin, &mut routes))?;
        }
        let t_matched = if timing { self.mem_elapsed_ns() } else { 0.0 };
        let matched_here = routes.locals.len();
        // lint: allow(SL03, owned output construction - deliveries and frames leave this fn)
        let mut outs = Vec::with_capacity(matched_here + self.links.len());
        for (i, item) in items().enumerate() {
            let (locals, _) = routes.get(i);
            if locals.is_empty() {
                continue;
            }
            let shared = Arc::new(item.to_item());
            outs.extend(locals.iter().map(|&client| {
                Output::Delivery(LocalDelivery {
                    router: self.id,
                    client,
                    item: Arc::clone(&shared),
                })
            }));
        }
        // One batch per keyed link with interest, in ascending neighbour
        // order. Interest toward a dead (not yet re-keyed) neighbour is
        // lost here, like the wire would lose the frame.
        let mut wire = std::mem::take(&mut self.batch_wire);
        let mut next = 0;
        while let Some(neighbor) = self.links.range(next..).next().map(|(&n, _)| n) {
            next = neighbor + 1;
            let mut routed = items()
                .enumerate()
                .filter(|(i, _)| routes.get(*i).1.contains(&neighbor))
                .map(|(_, item)| item)
                .peekable();
            if routed.peek().is_none() {
                continue;
            }
            encode_publish_batch(routed, &mut wire)?;
            let bytes = self.seal_to_meta(neighbor, &wire, trace.0)?;
            outs.push(Output::Frame(LinkFrame { to: neighbor, from: self.id, bytes }));
        }
        self.batch_wire = wire;
        self.routes = routes;
        if timing {
            let t_forwarded = self.mem_elapsed_ns();
            let record = HopRecord {
                trace,
                broker: self.id as u64,
                tick: self.now,
                arrival_ns: t_arrival.max(0.0) as u64,
                match_ns: t_matched.max(0.0) as u64,
                forward_ns: t_forwarded.max(0.0) as u64,
                // Only the log₂ bucket crosses the boundary: the exact
                // matched count would leak subscription selectivity.
                matched_bucket: count_bucket(matched_here),
            };
            let seal_ns = (t_forwarded - t_matched).max(0.0) as u64;
            let hop_ns = (t_forwarded - t_arrival).max(0.0) as u64;
            self.call(|c| {
                c.stages.record(Stage::Seal, seal_ns);
                c.stages.record(Stage::HopCrossing, hop_ns);
                if record.trace.is_some() {
                    c.recorder.push(record);
                }
            });
        }
        Ok(outs)
    }

    // ---- frame builders ------------------------------------------------

    /// Seals a subscription mutation's traffic per affected link: first
    /// the `SubForward`s of newly *uncovered* subscriptions
    /// (make-before-break — the upstream covering set never dips below
    /// the live interest), then the mutation itself (`terminal`: the
    /// admission's `SubForward`, or a removal's `SubRemove` or `SubDrop`
    /// wire), which recurses at the next hop.
    fn link_frames(
        &mut self,
        links: Vec<LinkUpdate>,
        terminal: &[u8],
    ) -> Result<Vec<Output>, OverlayError> {
        let mut outs = Vec::new();
        for link in links {
            if !self.links.contains_key(&link.neighbor) {
                // Dead neighbour (declared so at restart), no channel
                // yet: the covering table is up to date, and its rejoin
                // replay will see that instead of these frames.
                continue;
            }
            for envelope in &link.uncovered {
                let wire = Message::SubForward { envelope: envelope.clone() }.to_wire();
                let bytes = self.seal_to(link.neighbor, &wire)?;
                outs.push(Output::Frame(LinkFrame { to: link.neighbor, from: self.id, bytes }));
            }
            let bytes = self.seal_to(link.neighbor, terminal)?;
            outs.push(Output::Frame(LinkFrame { to: link.neighbor, from: self.id, bytes }));
        }
        Ok(outs)
    }

    /// Checkpoints the recovery record after a subscription-state
    /// mutation: inside the enclave, take the journal — or, when the
    /// compaction rule says so, serialise the whole record — and seal it
    /// as the next link of the chain, bound to a fresh monotonic-counter
    /// value (so every older or shorter file is rollback-detected); the
    /// host appends a delta to its file and replaces the file with a
    /// base. Without a platform (pre-shared trust) the same entries are
    /// stored unsealed. Reached only through
    /// [`Broker::flush_checkpoint`], so each step seals at most once.
    ///
    /// Admissions and retirements both append. The compaction rule is
    /// fixed: write a base when there is none, by size — the deltas on
    /// disk plus this one would reach the base's size — by retired
    /// quarter — the envelopes of the registrations retired since the
    /// base was written, all still on the host's disk, add up to
    /// [`RETIRED_DIVISOR`] of it — and whenever the step forced one
    /// (`force_base`: it closed a replay reconciliation). Between forced
    /// bases every base write is paid for by a quarter base of retired or
    /// one base of appended bytes — amortised O(entry) per mutation — a retired
    /// registration leaves the disk within a quarter base of further
    /// retirements, the file stays under twice its base, and a restart
    /// redoes at most one base's worth of journal.
    fn checkpoint(&mut self) -> Result<(), OverlayError> {
        self.seals += 1;
        let compact = self.force_base
            || self.sealed.is_none()
            || self.log.delta_bytes + self.core.journal.len() >= self.log.base_bytes
            || self.core.retired_bytes >= self.log.base_bytes / RETIRED_DIVISOR;
        let core = &mut self.core;
        let (plain_bytes, entry) = match (&self.enclave, &self.platform, self.counter) {
            (Some(enclave), Some(platform), Some(counter)) => {
                let rng = &mut self.rng;
                enclave.ecall(|ctx| -> Result<(usize, Vec<u8>), OverlayError> {
                    let (payload, base) = core.checkpoint_payload(compact);
                    let (version, blob) = VersionedSeal::seal_link(
                        ctx,
                        SealPolicy::MrEnclave,
                        platform,
                        counter,
                        base,
                        &payload,
                        rng,
                    )?;
                    if compact {
                        core.base_version = version;
                    }
                    Ok((payload.len(), blob))
                })?
            }
            _ => {
                let (payload, _) = core.checkpoint_payload(compact);
                (payload.len(), payload)
            }
        };
        self.sealed_bytes += plain_bytes as u64;
        let file = self.sealed.get_or_insert_default();
        if compact {
            file.clear();
            self.log = LogShape { base_bytes: entry.len(), delta_bytes: 0, deltas: 0 };
            self.compactions += 1;
            self.force_base = false;
        } else {
            self.log.delta_bytes += entry.len();
            self.log.deltas += 1;
        }
        journal::append_entry(file, &entry);
        Ok(())
    }

    // ---- inspection ----------------------------------------------------

    /// Live subscriptions in the index (edge clients + link interfaces).
    pub fn subscriptions(&self) -> usize {
        self.core.matcher.index().len()
    }

    /// Counters for this broker.
    pub fn stats(&self) -> BrokerStats {
        let mem = self.core.matcher.memory().stats();
        let (mut forwarded, mut pruned) = (0u64, 0u64);
        let (mut forwarded_total, mut removed, mut uncovered) = (0u64, 0u64, 0u64);
        for (_, table) in &self.core.upstream {
            forwarded += table.forwarded() as u64;
            pruned += table.pruned();
            forwarded_total += table.forwarded_total();
            removed += table.removed();
            uncovered += table.uncovered();
        }
        BrokerStats {
            router: self.id,
            state: self.state,
            subscriptions: self.subscriptions(),
            ecalls: mem.ecalls,
            ocalls: mem.ocalls,
            elapsed_ns: mem.elapsed_ns,
            forwarded,
            pruned,
            forwarded_total,
            removed,
            uncovered,
            gaps: self.gaps,
            heartbeats: self.heartbeats_sent,
            seals: self.seals,
            seals_saved: self.seals_saved,
            sealed_bytes: self.sealed_bytes,
            compactions: self.compactions,
            log_entries: self.log.deltas,
        }
    }

    // ---- telemetry -----------------------------------------------------

    /// Enables or disables hot-path telemetry (host configuration,
    /// survives crashes). On: per-stage latency histograms, hop records
    /// for traced publications, and one extra enclave crossing per
    /// routed batch to commit them. Off (the default): the hot path is
    /// byte-for-byte the uninstrumented one.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
        self.core.matcher.set_telemetry(on);
    }

    /// Whether hot-path telemetry is enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry
    }

    /// Per-stage latency summaries: the in-enclave engine stages
    /// (decrypt, index match, ASPE gate) followed by the broker shell's (seal, hop crossing). Empty with
    /// telemetry off.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        let mut out = self.core.matcher.stage_summaries();
        out.extend(self.core.stages.summaries());
        out
    }

    /// Drains the in-enclave flight recorder through an explicit,
    /// costed ocall (the records leave the enclave exactly once, and
    /// the exit is charged like any other). Plain brokers drain
    /// directly. Returns the hop records in arrival order.
    pub fn drain_trace(&mut self) -> Vec<HopRecord> {
        let core = &mut self.core;
        match &self.enclave {
            Some(enclave) => enclave.ecall(|ctx| {
                let records = core.recorder.drain();
                ctx.ocall(move || records)
            }),
            None => core.recorder.drain(),
        }
    }

    /// Hop records the bounded flight recorder overwrote before they
    /// were drained (cumulative).
    pub fn trace_drops(&self) -> u64 {
        self.core.recorder.dropped()
    }

    /// The broker's memory-simulator counters (paging, cache, enclave
    /// transitions).
    pub fn mem_stats(&self) -> MemStats {
        self.core.matcher.memory().stats()
    }

    /// Per-link forwarding-table counter snapshots, keyed by neighbour
    /// id, for the metrics registry.
    pub fn link_snapshots(&self) -> Vec<(usize, Vec<(&'static str, u64)>)> {
        self.core.upstream.iter().map(|(n, table)| (*n, table.snapshot())).collect()
    }

    /// True when the broker is fully caught up: serving, with no replay
    /// in flight, no believed-dead links, and no unhealed gap. The
    /// fabric's detection loop runs until every broker settles.
    pub fn settled(&self) -> bool {
        self.state == Lifecycle::Serving
            && self.pending_replays.is_empty()
            && self.dead_links.is_empty()
            && self.gap_since.is_empty()
    }

    /// Resets the broker's memory counters (between measurement phases).
    /// Cumulative protocol counters (forwarding ledger, gaps) are not
    /// reset.
    pub fn reset_counters(&self) {
        self.core.matcher.memory().reset_counters();
    }
}

/// The canonical routing-enclave builder: all genuine overlay routers
/// share this measurement (`code` is the measured routing binary).
pub fn router_builder(code: &[u8]) -> EnclaveBuilder {
    EnclaveBuilder::new("scbr-overlay-router").add_page(code).isv_prod_id(2)
}

#[cfg(test)]
mod checkpoint_proptests;

#[cfg(test)]
mod uncover_proptests;

#[cfg(test)]
mod tests {
    use super::*;
    use scbr::ids::KeyEpoch;
    use scbr::{PublicationSpec, SubscriptionSpec};

    fn producer(rng: &mut CryptoRng) -> ProducerCrypto {
        ProducerCrypto::generate(512, rng).unwrap()
    }

    fn frames(outputs: &[Output]) -> Vec<&LinkFrame> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Output::Frame(f) => Some(f),
                _ => None,
            })
            .collect()
    }

    fn deliveries(outputs: &[Output]) -> Vec<&LocalDelivery> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Output::Delivery(d) => Some(d),
                _ => None,
            })
            .collect()
    }

    fn item(producer: &ProducerCrypto, spec: &PublicationSpec, rng: &mut CryptoRng) -> PublishItem {
        PublishItem {
            header_ct: producer.encrypt_header(spec, rng),
            epoch: KeyEpoch(0),
            payload_ct: vec![0xaa],
        }
    }

    #[test]
    fn link_interface_encoding() {
        let iface = link_interface(5);
        assert!(iface.is_interface());
        assert_eq!(iface.0 & !ClientId::INTERFACE_BIT, 5);
    }

    #[test]
    fn preshared_broker_admits_and_routes_through_step() {
        let mut rng = CryptoRng::from_seed(1);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 1, false);
        broker.set_neighbors(&[1, 2]);
        broker.install_plain_link(1);
        broker.install_plain_link(2);
        assert_eq!(broker.lifecycle(), Lifecycle::Cold);
        broker.provision_preshared(&producer);
        assert_eq!(broker.lifecycle(), Lifecycle::Serving);

        // A local subscription propagates to both neighbours.
        let spec = SubscriptionSpec::new().gt("price", 10.0);
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(1), ClientId(7), &mut rng).unwrap();
        let outs = broker.step(0, Input::Subscribe { envelope }).unwrap();
        assert_eq!(frames(&outs).iter().map(|f| f.to).collect::<Vec<_>>(), vec![1, 2]);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(LinkEvent::Subscribed { id }) if id.0 == 1)));

        // A covered subscription from link 1 is pruned towards 2 but the
        // index still records it (for reverse-path delivery).
        let narrow = SubscriptionSpec::new().gt("price", 50.0);
        let envelope2 =
            producer.seal_registration(&narrow, SubscriptionId(2), ClientId(8), &mut rng).unwrap();
        let wire = Message::SubForward { envelope: envelope2 }.to_wire();
        let outs = broker.step(1, Input::Frame { from: 1, bytes: wire }).unwrap();
        assert!(frames(&outs).is_empty(), "covered subscription is pruned");
        assert_eq!(broker.subscriptions(), 2);
        assert_eq!(broker.stats().pruned, 1);

        // Publications from a link split into local delivery + link
        // forwarding; the origin link is excluded.
        let publication = PublicationSpec::new().attr("price", 60.0);
        let batch = Message::PublishBatch { items: vec![item(&producer, &publication, &mut rng)] }
            .to_wire();
        let outs = broker.step(2, Input::Frame { from: 2, bytes: batch }).unwrap();
        let delivered = deliveries(&outs);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].client, ClientId(7));
        // price>10 came locally; price>50 came from link 1 → forward to 1.
        let fwd = frames(&outs);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].to, 1);
    }

    #[test]
    fn flood_mode_skips_pruning() {
        let mut rng = CryptoRng::from_seed(2);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 2, true);
        broker.set_neighbors(&[1]);
        broker.install_plain_link(1);
        broker.provision_preshared(&producer);
        for (i, spec) in
            [SubscriptionSpec::new().gt("price", 0.0), SubscriptionSpec::new().gt("price", 10.0)]
                .iter()
                .enumerate()
        {
            let envelope = producer
                .seal_registration(spec, SubscriptionId(i as u64), ClientId(i as u64), &mut rng)
                .unwrap();
            let outs = broker.step(i as u64, Input::Subscribe { envelope }).unwrap();
            assert_eq!(frames(&outs).len(), 1, "flood forwards everything");
        }
    }

    #[test]
    fn removing_a_covering_sub_uncovers_and_reforwards() {
        let mut rng = CryptoRng::from_seed(5);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 5, false);
        broker.set_neighbors(&[1]);
        broker.install_plain_link(1);
        broker.provision_preshared(&producer);

        let broad = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("price", 0.0),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        let narrow = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("price", 10.0),
                SubscriptionId(2),
                ClientId(2),
                &mut rng,
            )
            .unwrap();
        let outs = broker.step(0, Input::Subscribe { envelope: broad }).unwrap();
        assert_eq!(frames(&outs).len(), 1, "broad forwards");
        let outs = broker.step(1, Input::Subscribe { envelope: narrow }).unwrap();
        assert!(frames(&outs).is_empty(), "narrow is pruned under broad");

        // Removing the broad one uncovers the narrow one: the link sees a
        // SubForward (narrow) *then* a SubRemove (broad).
        let unreg = producer.seal_unregistration(SubscriptionId(1), ClientId(1), &mut rng).unwrap();
        let outs = broker.step(2, Input::Unsubscribe { envelope: unreg }).unwrap();
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Event(LinkEvent::Unsubscribed { id, removed: true }) if id.0 == 1
        )));
        let kinds: Vec<String> = frames(&outs)
            .iter()
            .map(|f| Message::from_wire(&f.bytes).unwrap().kind().to_owned())
            .collect();
        assert_eq!(kinds, vec!["sub-forward", "sub-remove"], "make-before-break ordering");
        let stats = broker.stats();
        assert_eq!(stats.uncovered, 1);
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.forwarded, stats.forwarded_total - stats.removed);
        assert_eq!(broker.subscriptions(), 1, "only the narrow subscription remains");
    }

    #[test]
    fn serving_tick_dispatches_liveness_work() {
        // Regression: `Input::Tick` used to early-return unless the
        // broker was Linking or Rejoining, so a Serving broker could
        // never run steady-state timer work.
        let mut rng = CryptoRng::from_seed(11);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 11, false);
        broker.set_neighbors(&[1]);
        broker.install_plain_link(1);
        broker.provision_preshared(&producer);
        assert_eq!(broker.lifecycle(), Lifecycle::Serving);

        // Without heartbeats configured, a serving tick stays a no-op
        // (the legacy behaviour).
        assert!(broker.step(0, Input::Tick).unwrap().is_empty());

        broker.set_heartbeats(Some(HeartbeatConfig::fast()));
        let outs = broker.step(1, Input::Tick).unwrap();
        let hb = frames(&outs);
        assert_eq!(hb.len(), 1, "one heartbeat on the established link");
        assert_eq!(hb[0].to, 1);
        assert!(matches!(Message::from_wire(&hb[0].bytes).unwrap(), Message::Heartbeat));
        assert_eq!(broker.stats().heartbeats, 1);

        // The neighbour stays silent: after `suspect_after` silent ticks
        // the link is declared suspect, exactly once per episode.
        let mut suspects = Vec::new();
        for now in 2..10u64 {
            let outs = broker.step(now, Input::Tick).unwrap();
            suspects.extend(outs.iter().filter_map(|o| match o {
                Output::Event(LinkEvent::Suspect { link, reason }) => Some((*link, *reason)),
                _ => None,
            }));
        }
        assert_eq!(suspects, vec![(1, SuspectReason::Silence)], "one accusation per episode");

        // An authentic inbound frame retracts the accusation.
        let outs =
            broker.step(10, Input::Frame { from: 1, bytes: Message::Heartbeat.to_wire() }).unwrap();
        assert!(
            outs.iter().any(|o| matches!(o, Output::Event(LinkEvent::Cleared { link: 1 }))),
            "proof of life clears the suspect, got {outs:?}"
        );
    }

    /// Two linked serving brokers: a (0, the edge) — b (1).
    fn linked_pair(producer: &ProducerCrypto) -> (Broker, Broker) {
        let mut a = Broker::preshared(0, 7, false);
        let mut b = Broker::preshared(1, 8, false);
        a.set_neighbors(&[1]);
        b.set_neighbors(&[0]);
        a.install_plain_link(1);
        b.install_plain_link(0);
        a.provision_preshared(producer);
        b.provision_preshared(producer);
        (a, b)
    }

    #[test]
    fn re_registration_reforwards_only_when_the_filter_changed() {
        // Two linked brokers: a (edge) — b. A re-registered id with a
        // *broader* filter must replace the upstream copy, or b keeps
        // matching the stale narrow spec and drops deliveries. An
        // *unchanged* re-registration (the neighbour-replay case) must
        // stay silent.
        let mut rng = CryptoRng::from_seed(7);
        let producer = producer(&mut rng);
        let (mut a, mut b) = linked_pair(&producer);

        let narrow = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("price", 10.0),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        let outs = a.step(0, Input::Subscribe { envelope: narrow.clone() }).unwrap();
        for f in frames(&outs) {
            b.step(0, Input::Frame { from: f.from, bytes: f.bytes.clone() }).unwrap();
        }

        // Same id, same filter: the upstream copy is already exact.
        let outs = a.step(1, Input::Subscribe { envelope: narrow }).unwrap();
        assert!(frames(&outs).is_empty(), "unchanged re-registration stays silent");

        // Same id, broader filter: must travel again and replace b's copy.
        let broad = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("price", 0.0),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        let outs = a.step(2, Input::Subscribe { envelope: broad }).unwrap();
        assert_eq!(frames(&outs).len(), 1, "the replacement is re-forwarded");
        for f in frames(&outs) {
            b.step(2, Input::Frame { from: f.from, bytes: f.bytes.clone() }).unwrap();
        }
        assert_eq!(a.subscriptions(), 1, "replaced, not duplicated");
        assert_eq!(b.subscriptions(), 1, "replaced, not duplicated");

        // A publication matching only the broad spec, entering at b, must
        // now cross the link and deliver at a.
        let outs = b
            .step(
                3,
                Input::Publish {
                    items: vec![item(
                        &producer,
                        &PublicationSpec::new().attr("price", 5.0),
                        &mut rng,
                    )],
                    trace: TraceId::NONE,
                },
            )
            .unwrap();
        let fwd = frames(&outs);
        assert_eq!(fwd.len(), 1, "b forwards under the replaced (broad) spec");
        let outs = a.step(3, Input::Frame { from: 1, bytes: fwd[0].bytes.clone() }).unwrap();
        let local = deliveries(&outs);
        assert_eq!(local.len(), 1);
        assert_eq!(local[0].client, ClientId(1));
    }

    #[test]
    fn narrowing_re_registration_uncovers_what_the_old_filter_covered() {
        // Regression: re-registering a *forwarded* id replaced its row
        // and re-forwarded, but never uncovered — a subscription pruned
        // behind the old, broader filter was stranded: upstream held
        // only the narrowed copy and stopped sending what it wanted.
        let mut rng = CryptoRng::from_seed(17);
        let producer = producer(&mut rng);
        let (mut a, mut b) = linked_pair(&producer);
        let mut register = |a: &mut Broker, b: &mut Broker, id: u64, above: f64| {
            let spec = SubscriptionSpec::new().gt("price", above);
            let envelope = producer
                .seal_registration(&spec, SubscriptionId(id), ClientId(id), &mut rng)
                .unwrap();
            let outs = a.step(id, Input::Subscribe { envelope }).unwrap();
            let kinds: Vec<String> = frames(&outs)
                .iter()
                .map(|f| Message::from_wire(&f.bytes).unwrap().kind().to_owned())
                .collect();
            for f in frames(&outs) {
                b.step(id, Input::Frame { from: f.from, bytes: f.bytes.clone() }).unwrap();
            }
            kinds
        };
        assert_eq!(register(&mut a, &mut b, 1, 0.0).len(), 1, "id 1 forwards");
        assert!(register(&mut a, &mut b, 2, 5.0).is_empty(), "id 2 is pruned behind it");
        // Narrowing id 1 to price > 50: id 2 goes upstream *first*, then
        // the replacement (make-before-break), and counts as uncovered.
        assert_eq!(register(&mut a, &mut b, 1, 50.0), vec!["sub-forward", "sub-forward"]);
        let stats = a.stats();
        assert_eq!((stats.forwarded, stats.uncovered, stats.removed), (2, 1, 0));
        assert_eq!(a.core.upstream[0].1.row_ids(), vec![SubscriptionId(1), SubscriptionId(2)]);
        assert_eq!(b.subscriptions(), 2);

        // price = 10 entering at b matches only id 2 and must reach it.
        let publication = PublicationSpec::new().attr("price", 10.0);
        let items = vec![item(&producer, &publication, &mut rng)];
        let outs = b.step(9, Input::Publish { items, trace: TraceId::NONE }).unwrap();
        let fwd = frames(&outs);
        assert_eq!(fwd.len(), 1, "b still knows about id 2's interest");
        let outs = a.step(9, Input::Frame { from: 1, bytes: fwd[0].bytes.clone() }).unwrap();
        let clients: Vec<ClientId> = deliveries(&outs).iter().map(|d| d.client).collect();
        assert_eq!(clients, vec![ClientId(2)]);
    }

    #[test]
    fn pruned_removal_is_silent_and_double_remove_is_idempotent() {
        let mut rng = CryptoRng::from_seed(6);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 6, false);
        broker.set_neighbors(&[1]);
        broker.install_plain_link(1);
        broker.provision_preshared(&producer);
        let broad = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("price", 0.0),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        let narrow = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("price", 10.0),
                SubscriptionId(2),
                ClientId(2),
                &mut rng,
            )
            .unwrap();
        broker.step(0, Input::Subscribe { envelope: broad }).unwrap();
        broker.step(1, Input::Subscribe { envelope: narrow }).unwrap();

        // The narrow sub was pruned: its removal must not touch the link.
        let unreg = producer.seal_unregistration(SubscriptionId(2), ClientId(2), &mut rng).unwrap();
        let outs = broker.step(2, Input::Unsubscribe { envelope: unreg }).unwrap();
        assert!(frames(&outs).is_empty(), "a pruned removal generates no network traffic");
        assert_eq!(broker.subscriptions(), 1);

        // Removing it again: idempotent, no error, still silent.
        let unreg2 =
            producer.seal_unregistration(SubscriptionId(2), ClientId(2), &mut rng).unwrap();
        let outs = broker.step(3, Input::Unsubscribe { envelope: unreg2 }).unwrap();
        assert!(frames(&outs).is_empty());
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(LinkEvent::Unsubscribed { removed: false, .. }))));

        // A forged unregistration is refused outright.
        let rogue = ProducerCrypto::generate(512, &mut rng).unwrap();
        let forged = rogue.seal_unregistration(SubscriptionId(1), ClientId(1), &mut rng).unwrap();
        assert!(broker.step(4, Input::Unsubscribe { envelope: forged }).is_err());
        assert_eq!(broker.subscriptions(), 1, "forgery removed nothing");
    }

    #[test]
    fn attested_broker_counts_one_crossing_per_batch() {
        let mut rng = CryptoRng::from_seed(3);
        let producer = producer(&mut rng);
        let mut broker = Broker::attested(0, 33, b"router v1", false).unwrap();
        broker.set_neighbors(&[]);
        // Install keys directly (attestation is exercised in the fabric
        // tests; this test is about crossing accounting).
        broker.provision_preshared(&producer);
        let envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("p", 1.0),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        broker.step(0, Input::Subscribe { envelope }).unwrap();
        broker.reset_counters();
        let items: Vec<PublishItem> = (0..10)
            .map(|i| item(&producer, &PublicationSpec::new().attr("p", 2.0 + i as f64), &mut rng))
            .collect();
        let outs = broker.step(1, Input::Publish { items, trace: TraceId::NONE }).unwrap();
        assert_eq!(deliveries(&outs).len(), 10);
        assert!(frames(&outs).is_empty());
        assert_eq!(broker.stats().ecalls, 1, "whole batch in one crossing");
    }

    #[test]
    fn lifecycle_gates_inputs() {
        let mut rng = CryptoRng::from_seed(9);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 9, false);
        let envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("p", 1.0),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        // Cold: no traffic.
        assert!(matches!(
            broker.step(0, Input::Subscribe { envelope: envelope.clone() }),
            Err(OverlayError::Lifecycle { .. })
        ));
        // Restart only applies to a crashed broker.
        assert!(matches!(
            broker.step(0, Input::Restart { dead_links: vec![] }),
            Err(OverlayError::Lifecycle { .. })
        ));
        broker.provision_preshared(&producer);
        broker.step(1, Input::Subscribe { envelope }).unwrap();
        // Crash is idempotent; crashed brokers refuse traffic.
        broker.step(2, Input::Crash).unwrap();
        assert_eq!(broker.lifecycle(), Lifecycle::Crashed);
        assert!(broker.step(3, Input::Crash).unwrap().is_empty());
        assert!(matches!(
            broker.step(4, Input::Publish { items: vec![], trace: TraceId::NONE }),
            Err(OverlayError::Lifecycle { .. })
        ));
        assert!(matches!(
            broker.step(5, Input::Frame { from: 1, bytes: vec![1] }),
            Err(OverlayError::Lifecycle { .. })
        ));
        // Ticks are always safe.
        assert!(broker.step(6, Input::Tick).unwrap().is_empty());
    }

    #[test]
    fn crash_drops_volatile_state_and_restart_restores_from_the_record() {
        // A neighbour-less broker: recovery comes from the (sealed)
        // record alone, so the restart transitions straight to Serving.
        let mut rng = CryptoRng::from_seed(10);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 10, false);
        broker.provision_preshared(&producer);
        for i in 0..3u64 {
            let envelope = producer
                .seal_registration(
                    &SubscriptionSpec::new().gt("p", i as f64),
                    SubscriptionId(i),
                    ClientId(i),
                    &mut rng,
                )
                .unwrap();
            broker.step(i, Input::Subscribe { envelope }).unwrap();
        }
        assert_eq!(broker.subscriptions(), 3);
        broker.step(10, Input::Crash).unwrap();
        assert_eq!(broker.subscriptions(), 0, "volatile state is gone");
        let outs = broker.step(20, Input::Restart { dead_links: vec![] }).unwrap();
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(LinkEvent::RejoinStarted { restored: 3 }))));
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Event(LinkEvent::Rejoined { replayed: 0, dropped_stale: 0, downtime: 10 })
        )));
        assert_eq!(broker.lifecycle(), Lifecycle::Serving);
        // Keys are volatile: the host must re-provision before traffic.
        broker.provision_preshared(&producer);
        let outs = broker
            .step(
                21,
                Input::Publish {
                    items: vec![item(&producer, &PublicationSpec::new().attr("p", 2.5), &mut rng)],
                    trace: TraceId::NONE,
                },
            )
            .unwrap();
        assert_eq!(deliveries(&outs).len(), 3, "restored index matches as before the crash");
    }

    #[test]
    fn frames_on_unknown_links_are_refused() {
        let mut rng = CryptoRng::from_seed(4);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 4, false);
        broker.provision_preshared(&producer);
        assert!(matches!(
            broker.step(0, Input::Frame { from: 9, bytes: b"junk".to_vec() }),
            Err(OverlayError::Link { reason: "no link to neighbour" })
        ));
    }

    fn subscribe_n(
        broker: &mut Broker,
        producer: &ProducerCrypto,
        rng: &mut CryptoRng,
        ids: std::ops::Range<u64>,
    ) {
        for i in ids {
            let envelope = producer
                .seal_registration(
                    &SubscriptionSpec::new().gt("p", i as f64),
                    SubscriptionId(i),
                    ClientId(i),
                    rng,
                )
                .unwrap();
            broker.step(i, Input::Subscribe { envelope }).unwrap();
        }
    }

    #[test]
    fn checkpoints_append_deltas_and_compact_by_the_fixed_rule() {
        let mut rng = CryptoRng::from_seed(13);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 13, false);
        broker.provision_preshared(&producer);
        assert!(broker.sealed_record().is_none());

        let mut appended = 0;
        for i in 0..40u64 {
            let before = (broker.stats(), broker.sealed_record().map_or(0, <[u8]>::len));
            subscribe_n(&mut broker, &producer, &mut rng, i..i + 1);
            let (after, file) = (broker.stats(), broker.sealed_record().unwrap());
            assert_eq!(after.seals, before.0.seals + 1, "one checkpoint per mutating step");
            let entries = journal::split_entries(file).unwrap();
            assert_eq!(entries.len() as u64, 1 + after.log_entries);
            if after.compactions == before.0.compactions {
                // A delta: the file only grew, by a few hundred bytes.
                assert_eq!(after.log_entries, before.0.log_entries + 1);
                assert!(file.len() > before.1 && file.len() - before.1 < 400);
                appended += 1;
            } else {
                assert_eq!(after.log_entries, 0, "a base replaces the whole file");
                assert_eq!(entries[0], broker.core.serialize_record());
            }
            // The file never reaches twice its base.
            assert!(file.len() < 2 * (entries[0].len() + 4));
            assert_eq!(
                after.sealed_bytes - before.0.sealed_bytes,
                entries.last().unwrap().len() as u64,
                "unsealed brokers store exactly the bytes they would have sealed"
            );
        }
        let stats = broker.stats();
        assert!(appended >= 30, "most checkpoints are deltas, got {appended}");
        assert!((3..=10).contains(&stats.compactions), "doubling rule: {}", stats.compactions);

        // A retiring step appends too — ten bytes — and the retired
        // envelope stays on the host's disk, counted.
        subscribe_n(&mut broker, &producer, &mut rng, 40..41);
        let retired = broker.core.live[&SubscriptionId(40)].envelope.clone();
        let holds = |file: &[u8]| file.windows(retired.len()).any(|w| w == retired);
        let mut retire = |broker: &mut Broker, id: u64| {
            let unreg =
                producer.seal_unregistration(SubscriptionId(id), ClientId(id), &mut rng).unwrap();
            broker.step(41 + id, Input::Unsubscribe { envelope: unreg }).unwrap();
        };
        let before = (broker.stats(), broker.sealed_record().unwrap().len());
        assert!(before.0.log_entries > 0 && holds(broker.sealed_record().unwrap()));
        retire(&mut broker, 40);
        let after = broker.stats();
        assert_eq!((after.seals, after.compactions), (stats.seals + 2, stats.compactions));
        assert_eq!(after.log_entries, before.0.log_entries + 1);
        assert_eq!(broker.sealed_record().unwrap().len(), before.1 + 4 + 10);
        assert_eq!(broker.core.retired_bytes, retired.len());
        assert!(holds(broker.sealed_record().unwrap()));

        // Retirements alone then cross the retired quarter, long before
        // their deltas could reach the base's size. That compaction takes
        // the retired envelopes off the disk.
        let mut by_retired_quarter = false;
        for id in 0..40 {
            let (log, compactions) = (broker.log, broker.stats().compactions);
            let retired_bytes =
                broker.core.retired_bytes + broker.core.live[&SubscriptionId(id)].envelope.len();
            retire(&mut broker, id);
            let file = broker.sealed_record().unwrap();
            assert!(file.len() < 2 * (broker.log.base_bytes + 4));
            let quarter_reached = retired_bytes >= log.base_bytes / RETIRED_DIVISOR;
            if broker.stats().compactions == compactions {
                assert!(!quarter_reached && broker.core.retired_bytes == retired_bytes);
                continue;
            }
            assert_eq!((broker.stats().log_entries, broker.core.retired_bytes), (0, 0));
            assert!(!holds(file), "a compaction drops every retired envelope");
            if log.delta_bytes + 10 < log.base_bytes {
                assert!(quarter_reached, "neither rule was due");
                by_retired_quarter = true;
                break;
            }
        }
        assert!(by_retired_quarter, "retirements never compacted by the retired quarter");
    }

    #[test]
    fn attested_checkpoint_is_one_crossing_and_one_counter_value() {
        let mut rng = CryptoRng::from_seed(14);
        let producer = producer(&mut rng);
        let mut broker = Broker::attested(0, 14, b"router v1", false).unwrap();
        broker.set_neighbors(&[]);
        broker.provision_preshared(&producer);
        let counter = broker.counter.unwrap();
        let (mut bases, mut deltas) = (0, 0);
        for i in 0..12u64 {
            let before = broker.stats();
            broker.reset_counters();
            subscribe_n(&mut broker, &producer, &mut rng, i..i + 1);
            let after = broker.stats();
            assert_eq!(after.ecalls, 2, "admission + checkpoint, base or delta");
            assert_eq!(
                broker.platform().unwrap().read_counter(counter).unwrap(),
                i + 1,
                "each checkpoint takes exactly one counter value"
            );
            if after.compactions > before.compactions {
                bases += 1;
            } else {
                deltas += 1;
            }
        }
        assert!(bases >= 2 && deltas >= 2, "both kinds exercised: {bases} bases, {deltas} deltas");

        // The chain restores in one crossing, to the same record.
        let record = broker.core.serialize_record();
        broker.step(20, Input::Crash).unwrap();
        broker.step(21, Input::Restart { dead_links: vec![] }).unwrap();
        assert_eq!(broker.enclave().unwrap().ecall_count(), 1, "unseal + restore + redo");
        assert_eq!(broker.core.serialize_record(), record);
        let on_disk = journal::split_entries(broker.sealed_record().unwrap()).unwrap().len();
        assert_eq!(broker.stats().log_entries, on_disk as u64 - 1);
    }

    #[test]
    fn a_crash_discards_the_pending_journal_with_the_mutations_it_describes() {
        let mut rng = CryptoRng::from_seed(15);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 15, false);
        broker.provision_preshared(&producer);
        subscribe_n(&mut broker, &producer, &mut rng, 0..5);
        let flushed = broker.core.serialize_record();
        let file = broker.sealed_record().unwrap().to_vec();

        // A mutation that reached the core but no checkpoint (the step
        // that carried it died first).
        let envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("p", 99.0),
                SubscriptionId(99),
                ClientId(99),
                &mut rng,
            )
            .unwrap();
        broker.call(|c| c.admit(&envelope, Origin::Local, false)).unwrap();
        broker.mark_dirty();
        assert!(broker.core.journal.len() > 0);
        broker.step(10, Input::Crash).unwrap();
        assert_eq!(broker.core.journal.len(), 0);
        assert!(!broker.dirty && !broker.force_base);
        assert_eq!(broker.sealed_record().unwrap(), file, "a crash writes nothing");

        broker.step(11, Input::Restart { dead_links: vec![] }).unwrap();
        assert_eq!(broker.core.serialize_record(), flushed, "the last flushed state, exactly");
        assert_eq!(broker.subscriptions(), 5);
    }

    #[test]
    fn an_edited_unsealed_file_is_refused_not_trusted() {
        // Pre-shared brokers store the chain unsealed: no rollback
        // protection, but a file that does not parse or does not redo
        // must still fail the restart cleanly.
        let mut rng = CryptoRng::from_seed(16);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 16, false);
        broker.provision_preshared(&producer);
        subscribe_n(&mut broker, &producer, &mut rng, 0..6);
        let genuine = broker.sealed_record().unwrap().to_vec();
        let entries = journal::split_entries(&genuine).unwrap();
        assert!(entries.len() >= 2, "a base and at least one delta");
        broker.step(10, Input::Crash).unwrap();

        let mut cut = genuine.clone();
        cut.truncate(genuine.len() - 3);
        let mut unknown_kind = genuine.clone();
        journal::append_entry(&mut unknown_kind, &[3, 0, 0, 0, 0, 0, 0, 0, 77, 0]);
        let mut unknown_id = genuine.clone();
        journal::append_entry(&mut unknown_id, &[2, 0, 0, 0, 0, 0, 0, 0, 77, 0]);
        let mut delta_first = Vec::new();
        journal::append_entry(&mut delta_first, entries[1]);
        for (bad, what) in [
            (cut, "torn tail"),
            (unknown_kind, "delta entry of a kind the journal does not have"),
            (unknown_id, "removal of an id that was never admitted"),
            (delta_first, "delta in base position"),
        ] {
            broker.set_sealed_record(bad);
            assert!(broker.step(11, Input::Restart { dead_links: vec![] }).is_err(), "{what}");
            assert_eq!(broker.lifecycle(), Lifecycle::Crashed, "{what}");
            assert_eq!(broker.subscriptions(), 0, "{what}");
        }
        broker.set_sealed_record(genuine);
        broker.step(12, Input::Restart { dead_links: vec![] }).unwrap();
        assert_eq!(broker.subscriptions(), 6);
    }

    #[test]
    fn a_record_in_the_old_single_slice_layout_is_refused() {
        let mut rng = CryptoRng::from_seed(17);
        let producer = producer(&mut rng);
        let mut broker = Broker::preshared(0, 17, false);
        broker.provision_preshared(&producer);
        subscribe_n(&mut broker, &producer, &mut rng, 0..3);
        let record = broker.core.serialize_record();
        // The layout opens `u32::MAX ‖ version`, then the engine snapshot,
        // length first. The oldest layout began directly with that
        // snapshot; version 1 put a slice count before it.
        assert_eq!(record[..5], [0xff, 0xff, 0xff, 0xff, RECORD_VERSION]);
        let unversioned = &record[5..];
        let mut counted = vec![0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 1];
        counted.extend_from_slice(unversioned);
        broker.step(10, Input::Crash).unwrap();
        for (layout, what) in [(unversioned, "unversioned"), (&counted[..], "version 1, counted")] {
            let mut old = Vec::new();
            journal::append_entry(&mut old, layout);
            broker.set_sealed_record(old);
            let refused = broker.step(11, Input::Restart { dead_links: vec![] });
            assert!(
                matches!(refused, Err(OverlayError::Routing(ScbrError::Codec { .. }))),
                "{what}: {refused:?}"
            );
            assert_eq!(broker.lifecycle(), Lifecycle::Crashed, "{what}");
            assert_eq!(broker.subscriptions(), 0, "{what}");
        }
    }
}
