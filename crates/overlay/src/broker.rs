//! One overlay broker: an enclave-hosted matching core on an untrusted,
//! failure-prone host, modelled as a **sans-IO lifecycle state machine**.
//!
//! ## Lifecycle
//!
//! A broker is always in exactly one [`Lifecycle`] state:
//!
//! ```text
//!  Cold ──provision──▶ Linking ──▶ Serving ◀─────────┐
//!                                     │              │
//!                                   Crash         replay
//!                                     ▼              │
//!                                  Crashed ──Restart──▶ Rejoining
//! ```
//!
//! Each phase owns the data that only means something in it, so a
//! transition is one assignment. Every input is gated by the phase
//! (`lifecycle_gates_inputs` pins this table):
//!
//! | Phase | Owns | Accepts | Leaves by |
//! |---|---|---|---|
//! | `Cold` | the enclave | `Tick`, `Crash` | provisioned → `Linking` (→ `Serving` with no neighbours); `Crash` |
//! | `Linking` | the enclave | `Tick`, `Crash`, frames: handshakes and heartbeats (replay requests are parked) | last link up → `Serving`; `Crash` |
//! | `Serving` | the enclave | everything but `Restart` | `Crash` |
//! | `Rejoining` | the enclave, the crash time, what the rejoin replayed and dropped | `Tick`, `Crash`, frames: handshakes, subscription traffic, replays (undecipherable ones are dropped) | last replay closed → `Serving`; `Crash` |
//! | `Crashed` | the crash time | `Tick`, `Crash`, `Restart` | `Restart` → `Rejoining` (→ `Serving` when no replay is owed) |
//!
//! `Serving` is entered after bring-up through one transition, which
//! reports a finished rejoin and serves the replay requests neighbours
//! parked while the broker could not.
//!
//! Its entire runtime surface is [`Broker::step_into`]`(now, Input,
//! &mut Vec<Output>)`, which [`Broker::step`] wraps: inputs are wire
//! frames, local edge traffic, admin commands ([`Input::Crash`],
//! [`Input::Restart`]) and timer ticks; outputs are frames-to-links,
//! local deliveries (one record per delivered publication) and typed
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
//! deltas in the order they were written. Each blob is one
//! [`VersionedSeal::seal_link`] link — a clear header
//! `version ‖ kind ‖ base version`, then the sealed payload with that
//! header as associated data. The *base payload* is the whole record:
//! the engine snapshot (with per-subscription *delivery identities*, so
//! link interfaces are restored as interfaces, not edge clients), the
//! live envelope set with origins, and every per-link
//! [`scbr_enclave::forwarding::ForwardingTable`] (rows + churn
//! counters). It opens with a
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
//! quarter base of further retirements, the deltas on disk stay under
//! the base's size plus one entry's seal, and a restart redoes at most
//! one base's worth of journal.
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
//! had already opened (`MatchingEngine::register_retained_as`). Then — in
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
//! ## What the enclave holds
//!
//! The in-enclave state is [`BrokerCore`], in the `scbr-enclave` crate
//! with everything else the enclave runs. Its module docs say what it
//! holds, what the host learns from it, and the ecall table through
//! which this shell reaches it.
//!
//! ## Interfaces
//!
//! The engine's index is shared by local subscribers and links: a
//! subscription learnt from neighbour `n` is registered under the
//! synthetic delivery identity
//! [`scbr_enclave::broker::link_interface`]`(n)` (top bit set), so
//! **one decrypt+match per publication** yields local deliveries *and*
//! the outgoing link set in the same enclave crossing. Per-hop batches go
//! through the gate in [`MAX_DRAIN`]-bounded chunks, mirroring the
//! single-router event loop.
//!
//! ## Neighbours
//!
//! The untrusted shell keeps **one record per neighbour** (`Peer`): the
//! sealed channel, the handshakes in flight on it, the replay the link
//! owes and its liveness clocks. No per-link state lives anywhere else,
//! so each reset happens in one place: a crash returns every record to
//! its default, and installing a fresh key (`Peer::install`) restarts
//! the link's silence clock, forgets its gap and drops any handshake of
//! ours still open on it. When two brokers open a handshake toward each
//! other at once, the **higher id's wins**: the lower one withdraws its
//! own on the other's hello (and still answers it), so both ends install
//! the one key instead of each other's crosswise, whatever order the
//! host delivers the frames in.

use crate::error::OverlayError;
use scbr::engine::MAX_DRAIN;
use scbr::ids::{ClientId, KeyEpoch, SubscriptionId};
#[cfg(test)]
use scbr::protocol::keys::ProducerCrypto;
use scbr::protocol::keys::{provision_sk_via_attestation, SkIssuer};
use scbr::protocol::messages::{
    encode_publish_batch, Message, PublishBatchView, PublishItem, PublishItemRef,
};
use scbr_crypto::rng::CryptoRng;
pub use scbr_enclave::broker::Origin;
use scbr_enclave::broker::{BrokerCore, LinkUpdate, RouteSpans};
use scbr_enclave::journal;
use scbr_net::{NetError, SecureLink};
use scbr_telemetry::{count_bucket, HopRecord, StageSummary, TraceId};
use sgx_sim::attest::{AttestationService, QuotedKey, VerifierPolicy};
use sgx_sim::enclave::EnclaveBuilder;
use sgx_sim::link::{LinkAccept, LinkFinish, LinkInitiator, LinkResponder};
use sgx_sim::platform::CounterId;
use sgx_sim::seal::{SealPolicy, VersionedSeal};
use sgx_sim::{CacheConfig, CostModel, Enclave, EpcConfig, MemStats, MemorySim, SgxPlatform};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Liveness timers, in ticks (one tick is one scheduler round). Every
/// `Serving` broker emits one [`Message::Heartbeat`] per established
/// link on every tick (sealed and sequence-numbered like any data
/// frame), and raises [`LinkEvent::Suspect`] against a link that has
/// carried no authentic frame for [`SUSPECT_AFTER`] ticks — or whose
/// sequence gap has stood unhealed for [`GAP_GRACE`] ticks.
///
/// Ticks of silence before a link is declared
/// [`SuspectReason::Silence`]: four heartbeats missed in a row, so a
/// peer whose frames arrive a round late is not falsely accused.
pub const SUSPECT_AFTER: u64 = 4;

/// Ticks an observed sequence gap may stand before the link is declared
/// [`SuspectReason::Gap`] and proactively re-keyed.
pub const GAP_GRACE: u64 = 2;

/// Why a link was declared [`LinkEvent::Suspect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspectReason {
    /// No authentic frame for at least [`SUSPECT_AFTER`] ticks: the peer
    /// (or the whole path to it) may be dead. This is the signal the
    /// fabric aggregates into quorum and answers with an automatic
    /// crash-observed → restart.
    Silence,
    /// A sequence gap has stood unhealed for at least [`GAP_GRACE`] ticks:
    /// the peer is provably alive (gap frames authenticate) but the
    /// channel is wedged on lost frames. Healed at link level — re-key
    /// and replay — never counted toward node-death quorum.
    Gap,
}

/// The broker lifecycle states (see the module docs for the diagram and
/// the phase table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lifecycle {
    /// Constructed; no keys, no links.
    #[default]
    Cold,
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
    /// while linking or rejoining, and steady-state liveness work while
    /// serving (heartbeat emission, dead-link probing, suspicion
    /// timeouts).
    Tick,
}

/// One step output from the broker state machine.
#[derive(Debug, Clone)]
pub enum Output {
    /// A frame to hand to a neighbour.
    Frame(LinkFrame),
    /// A publication delivered to the local edge clients it matched.
    Deliveries(LocalDeliveries),
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
    /// [`SUSPECT_AFTER`] ticks, or a sequence gap unhealed past
    /// [`GAP_GRACE`]. Emitted once per suspicion episode; the fabric
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

/// One publication delivered at this broker: the item once, and every
/// edge client the enclave matched it to here, ascending. A publication
/// yields one record however many clients it reaches.
///
/// The bytes live in one buffer per routed batch that the batch's
/// records share. The broker refills that buffer for its next batch once
/// every record of this one is dropped, so a caller that drops them
/// before stepping the broker again costs it no allocation.
#[derive(Debug, Clone)]
pub struct LocalDeliveries {
    router: usize,
    batch: Arc<Delivered>,
    index: usize,
}

impl LocalDeliveries {
    /// The delivering broker.
    pub fn router(&self) -> usize {
        self.router
    }

    /// The delivered item, its payload still encrypted under the group
    /// key.
    pub fn item(&self) -> PublishItemRef<'_> {
        self.batch.item(self.index)
    }

    /// The edge clients the item reached, ascending and distinct.
    pub fn clients(&self) -> &[ClientId] {
        self.batch.clients(self.index)
    }
}

/// The items one routed batch delivered at a broker, and the clients
/// each reached, flat: the storage every [`LocalDeliveries`] of that
/// batch points into.
#[derive(Debug, Default)]
struct Delivered {
    /// Each item's header, then its payload ciphertext, back to back.
    bytes: Vec<u8>,
    /// Each item's clients, back to back.
    clients: Vec<ClientId>,
    /// Per item, in batch order.
    items: Vec<DeliveredItem>,
}

/// Where one delivered item ends in [`Delivered`]'s buffers; it starts
/// where the item before it ends.
#[derive(Debug, Clone, Copy)]
struct DeliveredItem {
    epoch: KeyEpoch,
    header_end: usize,
    payload_end: usize,
    clients_end: usize,
}

impl Delivered {
    fn clear(&mut self) {
        self.bytes.clear();
        self.clients.clear();
        self.items.clear();
    }

    /// Appends `item`, delivered to `clients`.
    fn push(&mut self, item: PublishItemRef<'_>, clients: &[ClientId]) {
        self.bytes.extend_from_slice(item.header_ct);
        let header_end = self.bytes.len();
        self.bytes.extend_from_slice(item.payload_ct);
        self.clients.extend_from_slice(clients);
        self.items.push(DeliveredItem {
            epoch: item.epoch,
            header_end,
            payload_end: self.bytes.len(),
            clients_end: self.clients.len(),
        });
    }

    /// Where item `i`'s bytes and clients start.
    fn starts(&self, i: usize) -> (usize, usize) {
        i.checked_sub(1).map_or((0, 0), |p| (self.items[p].payload_end, self.items[p].clients_end))
    }

    fn item(&self, i: usize) -> PublishItemRef<'_> {
        let (start, _) = self.starts(i);
        let DeliveredItem { epoch, header_end, payload_end, .. } = self.items[i];
        PublishItemRef {
            header_ct: &self.bytes[start..header_end],
            epoch,
            payload_ct: &self.bytes[header_end..payload_end],
        }
    }

    fn clients(&self, i: usize) -> &[ClientId] {
        let (_, start) = self.starts(i);
        &self.clients[start..self.items[i].clients_end]
    }
}

/// The two halves of one established link at one endpoint, sealed under
/// the key its attested handshake agreed.
struct LinkChannel {
    outbound: SecureLink,
    inbound: SecureLink,
}

/// Everything the untrusted shell keeps about one neighbour: the sealed
/// channel, the handshakes in flight on it, the replay it owes and its
/// liveness clocks. A crash resets every record to the default; so the
/// only state that outlives a crash is the set of neighbours itself.
#[derive(Default)]
struct Peer {
    /// The sealed channel, once a handshake agreed a key.
    link: Option<LinkChannel>,
    /// Our half-open handshake toward the neighbour (awaiting
    /// link-accept).
    initiation: Option<LinkInitiator>,
    /// The tick of our last handshake initiation (probe retry pacing).
    initiated_at: Option<u64>,
    /// The neighbour's half-open handshake we answered (awaiting
    /// link-finish).
    response: Option<LinkResponder>,
    /// The replay the link still owes us: during a rejoin, or while a
    /// serving broker heals the link.
    replay: Option<Replay>,
    /// Declared dead by the operator at restart: no handshake and no
    /// replay until it re-keys the link from its own side.
    dead: bool,
    /// Pull a replay once the channel re-keys (set by the gap-heal path).
    resync: bool,
    /// A replay request received while we were not yet serving (the
    /// neighbour rejoined concurrently with us); served on our own
    /// transition to `Serving`.
    parked_replay: bool,
    /// The tick of the last *authentic* inbound frame (gap frames
    /// included — a gap proves the peer alive).
    last_rx: Option<u64>,
    /// The tick a sequence gap was first observed (cleared on re-key —
    /// the gapped channel can never advance on its own).
    gap_since: Option<u64>,
    /// Under suspicion (one `Suspect` per episode).
    suspect: bool,
}

/// A replay a link owes us.
#[derive(Default)]
struct Replay {
    /// The tick of our last replay request, `None` before the first
    /// (pull-retry pacing: a request toward a neighbour that was dead
    /// when we sent it is re-sent once its age exceeds the suspicion
    /// window).
    requested_at: Option<u64>,
    /// The ids the neighbour has re-confirmed so far.
    confirmed: BTreeSet<SubscriptionId>,
}

impl Peer {
    /// Installs the channel a handshake just agreed. A fresh key resets
    /// the liveness view of the link: the silence clock restarts and any
    /// wedge died with the old channel. So does any handshake of ours
    /// still open toward the neighbour — a probe sent while it was down,
    /// say, that it re-keyed past from its own side. Left in place, it
    /// would stop the next gap from re-keying.
    fn install(&mut self, link: LinkChannel, now: u64) {
        self.link = Some(link);
        self.last_rx = Some(now);
        self.gap_since = None;
        self.initiation = None;
        self.initiated_at = None;
    }
}

/// Per-broker counters (cumulative unless reset).
#[derive(Debug, Clone, Copy, Default)]
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
    /// Heartbeat frames emitted (cumulative; one per established link
    /// per serving tick).
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
    /// Publication items refused because their header failed to decrypt
    /// or decode (cumulative); each one is dropped alone, its batch-mates
    /// still route.
    pub refused: u64,
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
            ("refused", self.refused),
        ]
    }
}

/// Result of opening an inbound frame, lifted out of the borrow on the
/// link map. An opened frame's plaintext is in `Broker::wire`.
enum Opened {
    Wire { meta: u64 },
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

/// The host's recovery file and the checkpoint the current step owes it.
struct RecoveryFile {
    /// The sealed record as stored on the untrusted host disk: one
    /// length-prefixed base entry, then the deltas appended since.
    sealed: Option<Vec<u8>>,
    /// The shape of `sealed` as last written or restored.
    log: LogShape,
    /// The platform monotonic counter keying the record's rollback
    /// protection.
    counter: CounterId,
    /// The seal this step owes, flushed to one [`Broker::checkpoint`] on
    /// the way out. A failed delta is dropped; a failed base stays owed
    /// until a checkpoint writes it or a crash clears it.
    pending: Option<Seal>,
}

/// What a pending checkpoint must write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seal {
    /// Whatever the compaction rule picks; a delta when it picks none.
    Delta,
    /// A whole base: the step closed a replay reconciliation.
    Base,
}

/// Where the broker is in its lifecycle, with the data that only means
/// something there (the phase table in the module docs). Every phase but
/// `Crashed` owns the enclave; [`Lifecycle`] is the public tag.
enum Phase {
    Cold(Enclave),
    Linking(Enclave),
    Serving(Enclave),
    /// Restarted from the sealed record, re-linking and replaying.
    Rejoining {
        enclave: Enclave,
        /// When the broker crashed: the rejoin reports its downtime.
        crashed_at: u64,
        /// Envelopes the neighbours replayed since the restart.
        replayed: usize,
        /// Restored subscriptions dropped as stale since the restart.
        dropped: usize,
    },
    /// The enclave is gone; only the host's sealed record survives.
    Crashed {
        at: u64,
    },
}

impl Phase {
    fn lifecycle(&self) -> Lifecycle {
        match self {
            Phase::Cold(_) => Lifecycle::Cold,
            Phase::Linking(_) => Lifecycle::Linking,
            Phase::Serving(_) => Lifecycle::Serving,
            Phase::Rejoining { .. } => Lifecycle::Rejoining,
            Phase::Crashed { .. } => Lifecycle::Crashed,
        }
    }

    /// The enclave. No input that needs one reaches a crashed broker.
    fn enclave(&self) -> Result<&Enclave, OverlayError> {
        match self {
            Phase::Cold(enclave)
            | Phase::Linking(enclave)
            | Phase::Serving(enclave)
            | Phase::Rejoining { enclave, .. } => Ok(enclave),
            Phase::Crashed { .. } => {
                Err(OverlayError::Lifecycle { reason: "a crashed broker has no enclave" })
            }
        }
    }

    /// Moves the enclave into the phase `next` builds around it. A
    /// crashed broker has none and stays crashed.
    fn advance(&mut self, next: fn(Enclave) -> Phase) {
        *self = match std::mem::replace(self, Phase::Crashed { at: 0 }) {
            Phase::Cold(enclave)
            | Phase::Linking(enclave)
            | Phase::Serving(enclave)
            | Phase::Rejoining { enclave, .. } => next(enclave),
            crashed => crashed,
        };
    }
}

/// One overlay broker (untrusted shell + enclave-resident core), driven
/// exclusively through [`Broker::step`].
pub struct Broker {
    id: usize,
    phase: Phase,
    platform: SgxPlatform,
    /// The measured routing binary, kept for enclave relaunch on restart.
    code: Vec<u8>,
    core: BrokerCore,
    /// One record per neighbour, in ascending id order.
    peers: BTreeMap<usize, Peer>,
    /// The trust anchors for verifying peer quotes during link
    /// handshakes: the attestation service and policy the broker was last
    /// provisioned under. Host configuration: survives crashes.
    trust: Option<(AttestationService, VerifierPolicy)>,
    file: RecoveryFile,
    now: u64,
    /// Ticks processed over the broker's lifetime (the liveness clock).
    ticks: u64,
    /// Stage-latency and hop-trace instrumentation. Host configuration
    /// (like the trust anchors): survives crashes, re-applied to the
    /// rebuilt core on restart. Off by default — the uninstrumented hot
    /// path stays byte-for-byte identical.
    telemetry: bool,
    /// Flood mode, handed to every core the broker builds: forward every
    /// subscription on every link (the equivalence oracle for tests;
    /// covering-pruned is the real mode).
    flood: bool,
    /// The cumulative counters [`Broker::stats`] reports as they are:
    /// gaps, heartbeats, seals, seals saved, sealed bytes, compactions.
    counters: BrokerStats,
    rng: CryptoRng,
    /// Route results of the publication batch in flight; the enclave
    /// fills it, the shell turns it into outputs. Reused across batches.
    routes: RouteSpans,
    /// What the last batch delivered here, shared by its delivery
    /// records; refilled in place once they are all dropped.
    delivered: Arc<Delivered>,
    /// The plaintext of the inbound frame in flight, opened into one
    /// buffer reused across frames.
    wire: Vec<u8>,
    /// Encoding buffer for outgoing publication batches, reused across
    /// links and batches.
    batch_wire: Vec<u8>,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("id", &self.id)
            .field("state", &self.lifecycle())
            .field("links", &self.peers.values().filter(|p| p.link.is_some()).count())
            .field("subscriptions", &self.subscriptions())
            .finish()
    }
}

/// Refusal of a link handshake by a broker never provisioned, so holding
/// no trust anchors.
const UNTRUSTED: OverlayError = OverlayError::Link { reason: "link trust anchors not configured" };

impl Broker {
    /// Launches an attested broker: own platform (its own machine, with
    /// an EPC of geometry `epc`), the routing enclave measured from
    /// `code`, index in enclave memory, a platform monotonic counter
    /// reserved for its recovery record.
    ///
    /// # Errors
    ///
    /// Propagates enclave-launch failures.
    pub fn attested(
        id: usize,
        seed: u64,
        code: &[u8],
        flood: bool,
        epc: EpcConfig,
    ) -> Result<Self, OverlayError> {
        let platform =
            SgxPlatform::with_config(seed, CacheConfig::default(), epc, CostModel::default());
        let enclave = platform.launch(router_builder(code))?;
        let counter = platform.create_counter();
        let core = BrokerCore::fresh(enclave.memory(), flood, &[]);
        Ok(Broker {
            id,
            phase: Phase::Cold(enclave),
            platform,
            code: code.to_vec(),
            core,
            peers: BTreeMap::new(),
            trust: None,
            file: RecoveryFile { sealed: None, log: LogShape::default(), counter, pending: None },
            now: 0,
            ticks: 0,
            telemetry: false,
            flood,
            counters: BrokerStats::default(),
            rng: CryptoRng::from_seed(seed ^ 0x6c69_6e6b),
            routes: RouteSpans::default(),
            delivered: Arc::default(),
            wire: Vec::new(),
            batch_wire: Vec::new(),
        })
    }

    /// The broker's router id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The broker's lifecycle state.
    pub fn lifecycle(&self) -> Lifecycle {
        self.phase.lifecycle()
    }

    /// The broker's platform (its machine, which survives crashes).
    pub fn platform(&self) -> &SgxPlatform {
        &self.platform
    }

    /// The sealed recovery record currently on the host's disk (base
    /// entry + appended deltas, each `u32` length-prefixed) — exposed
    /// because the disk is *outside* the trust boundary: tests (and
    /// adversaries) may read, cut up or swap it; the seal chain, not the
    /// accessor, provides the protection.
    pub fn sealed_record(&self) -> Option<&[u8]> {
        self.file.sealed.as_deref()
    }

    /// Overwrites the host-disk recovery record (models a malicious or
    /// restored-from-backup host). A stale, truncated or re-spliced
    /// record is caught by the monotonic counter at restart.
    pub fn set_sealed_record(&mut self, record: Vec<u8>) {
        self.file.sealed = Some(record);
    }

    /// Runs `f` on the enclave-resident core, crossing the call gate (a
    /// crashed broker, with no enclave, holds only an empty core).
    fn call<R>(&mut self, f: impl FnOnce(&mut BrokerCore) -> R) -> R {
        let core = &mut self.core;
        match self.phase.enclave() {
            Ok(enclave) => enclave.ecall(|_ctx| f(core)),
            Err(_) => f(core),
        }
    }

    /// Current virtual-clock reading of the broker's memory simulator.
    /// A pure f64 read — charges nothing, so instrumented and
    /// uninstrumented runs observe identical cost models.
    fn mem_elapsed_ns(&self) -> f64 {
        self.core.memory().elapsed_ns()
    }

    /// Declares the broker's neighbour set: the core is built afresh with
    /// one (empty) covering table per link. Call once, before
    /// provisioning.
    pub fn set_neighbors(&mut self, neighbors: &[usize]) {
        self.peers = neighbors.iter().map(|&n| (n, Peer::default())).collect();
        self.core = BrokerCore::fresh(self.core.memory(), self.flood, neighbors);
        self.core.set_telemetry(self.telemetry);
    }

    /// The neighbours, ascending.
    fn neighbors(&self) -> Vec<usize> {
        self.peers.keys().copied().collect()
    }

    /// The record of neighbour `n`, which the caller knows is one.
    fn peer(&mut self, n: usize) -> &mut Peer {
        self.peers.get_mut(&n).expect("a neighbour")
    }

    /// True while some link still owes us a replay.
    fn replays_owed(&self) -> bool {
        self.peers.values().any(|p| p.replay.is_some())
    }

    /// Provisions `SK` into the broker's enclave via remote attestation
    /// (the producer releases the key only to the expected measurement).
    /// `service` and `policy` become the broker's link trust anchors: a
    /// peer's quote must pass what the broker's own passed. Moves a cold
    /// broker into `Linking` (or straight to `Serving` with no
    /// neighbours); a rejoining broker stays `Rejoining`.
    ///
    /// # Errors
    ///
    /// Any attestation, policy or crypto failure — the broker is left
    /// where it was, so a cold one can retry; also fails on a crashed
    /// broker (no enclave).
    pub fn provision_attested(
        &mut self,
        service: &AttestationService,
        policy: &VerifierPolicy,
        producer: &impl SkIssuer,
        producer_rng: &mut CryptoRng,
    ) -> Result<(), OverlayError> {
        let (sk, pk) = provision_sk_via_attestation(
            &self.platform,
            self.phase.enclave()?,
            service,
            policy,
            producer,
            &mut self.rng,
            producer_rng,
        )?;
        self.call(|c| c.provision_keys(sk, pk));
        self.trust = Some((service.clone(), policy.clone()));
        if let Phase::Cold(_) = self.phase {
            self.phase.advance(if self.peers.is_empty() { Phase::Serving } else { Phase::Linking });
        }
        Ok(())
    }

    /// Installs the sealed channel to `neighbor` under `key`, the link
    /// key a handshake just agreed ([`Peer::install`]).
    fn install_sealed_link(&mut self, neighbor: usize, key: &[u8]) {
        let (local, now) = (self.id as u64, self.ticks);
        self.peer(neighbor).install(
            LinkChannel {
                outbound: SecureLink::outbound(key, local, neighbor as u64),
                inbound: SecureLink::inbound(key, local, neighbor as u64),
            },
            now,
        );
    }

    /// Seals `wire` on the link to `to` into the frame that carries it.
    fn send(&mut self, to: usize, wire: &[u8]) -> Result<Output, OverlayError> {
        let link = self.peers.get_mut(&to).and_then(|p| p.link.as_mut());
        let link = link.ok_or(OverlayError::Link { reason: "no link to neighbour" })?;
        Ok(Output::Frame(LinkFrame { to, from: self.id, bytes: link.outbound.seal_meta(wire, 0) }))
    }

    // ---- the state machine ---------------------------------------------

    /// Advances the state machine by one input at virtual time `now`,
    /// returning its outputs: [`Broker::step_into`] into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// As [`Broker::step_into`].
    pub fn step(&mut self, now: u64, input: Input) -> Result<Vec<Output>, OverlayError> {
        let mut outs = Vec::new();
        self.step_into(now, input, &mut outs)?;
        Ok(outs)
    }

    /// Advances the state machine by one input at virtual time `now`.
    /// This is the broker's **entire** runtime surface: frames, local
    /// traffic, admin commands and timer ticks all enter here, and every
    /// effect — frames to send, local deliveries, lifecycle events — is
    /// appended to `outs` as an [`Output`] for the caller to dispatch. A
    /// caller that reuses `outs` across steps costs the hop path no
    /// allocation for it.
    ///
    /// # Errors
    ///
    /// Inputs invalid for the current [`Lifecycle`] state are
    /// [`OverlayError::Lifecycle`]; frame authentication, routing and
    /// sealing failures propagate with their own kinds. A failed step
    /// appends nothing to `outs`. A failed delta seal is dropped — the
    /// journal it took went with it — but a failed base stays owed, so
    /// every later step retries it (and fails while sealing does) until
    /// it is written or the broker crashes.
    pub fn step_into(
        &mut self,
        now: u64,
        input: Input,
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        self.now = now;
        let start = outs.len();
        let stepped = match input {
            Input::Crash => self.on_crash(outs),
            Input::Restart { dead_links } => self.on_restart(&dead_links, outs),
            Input::Tick => self.on_tick(outs),
            Input::Frame { from, bytes } => self.on_frame(from, &bytes, outs),
            Input::Subscribe { envelope } => self.on_subscribe(&envelope, outs),
            Input::Unsubscribe { envelope } => self.on_unsubscribe(&envelope, outs),
            Input::Publish { items, trace } => self.on_publish(&items, trace, outs),
        };
        let flushed = stepped.and_then(|()| self.flush_checkpoint());
        if flushed.is_err() {
            outs.truncate(start);
        }
        flushed
    }

    /// Writes the checkpoint the step owes, if any. A failed base stays
    /// owed.
    fn flush_checkpoint(&mut self) -> Result<(), OverlayError> {
        let Some(seal) = self.file.pending.take() else {
            return Ok(());
        };
        self.checkpoint(seal).inspect_err(|_| {
            if seal == Seal::Base {
                self.file.pending = Some(seal);
            }
        })
    }

    /// Marks the recovery record stale. Every subscription-state
    /// mutation calls this instead of sealing on the spot; the pending
    /// seal is flushed to at most **one** [`Broker::checkpoint`] at the
    /// end of the step, so an N-mutation step (a replayed-link
    /// reconciliation) pays one seal ECALL instead of N.
    fn mark_dirty(&mut self) {
        if self.file.pending.is_some() {
            self.counters.seals_saved += 1;
        } else {
            self.file.pending = Some(Seal::Delta);
        }
    }

    /// [`Broker::mark_dirty`], suppressed while rejoining: the replay
    /// burst arrives as one frame per step, and one mark at the end of
    /// each link's replay ([`Broker::reconcile_replay`]) covers it —
    /// re-sealing per replayed envelope would make recovery quadratic in
    /// the live set.
    fn mark_dirty_if_serving(&mut self) {
        if let Phase::Serving(_) = self.phase {
            self.mark_dirty();
        }
    }

    fn require_serving(&self, what: &'static str) -> Result<(), OverlayError> {
        match self.phase {
            Phase::Serving(_) => Ok(()),
            _ => Err(OverlayError::Lifecycle { reason: what }),
        }
    }

    fn require_traffic(&self) -> Result<(), OverlayError> {
        match self.phase {
            Phase::Serving(_) | Phase::Rejoining { .. } => Ok(()),
            _ => Err(OverlayError::Lifecycle { reason: "subscription frame outside serving" }),
        }
    }

    // ---- admin ---------------------------------------------------------

    /// Drops every piece of volatile state. The platform (machine), the
    /// host disk (sealed record), the measured binary and the trust
    /// anchors survive; everything else — enclave, keys, index, live
    /// set, covering tables, link keys, half-open handshakes — is gone.
    fn on_crash(&mut self, outs: &mut Vec<Output>) -> Result<(), OverlayError> {
        if let Phase::Crashed { .. } = self.phase {
            return Ok(()); // idempotent
        }
        self.phase = Phase::Crashed { at: self.now };
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        self.core = BrokerCore::fresh(&mem, self.flood, &self.neighbors());
        // Telemetry is host configuration: the flag survives the crash,
        // but the flight recorder and stage histograms (volatile, never
        // sealed) restart empty with the rebuilt core.
        self.core.set_telemetry(self.telemetry);
        // Whatever was marked dirty this step died with the enclave, and
        // so did the journal (it lived in the core just replaced); the
        // last *flushed* record on the host disk is the recovery truth.
        self.file.pending = None;
        self.peers.values_mut().for_each(|peer| *peer = Peer::default());
        outs.push(Output::Event(LinkEvent::Crashed));
        Ok(())
    }

    /// Restarts a crashed broker: relaunch the enclave, unseal and
    /// restore the recovery record, enter `Rejoining`. Re-attestation
    /// (key provisioning) and link re-establishment follow as separate
    /// inputs, driven by the scheduler. Neighbours listed in
    /// `dead_links` are skipped entirely — no handshake, no replay; the
    /// rows toward them stay recorded, and consistency is restored when
    /// *they* rejoin and replay from us (their reconciliation
    /// `sub-drop`s cover removals we both missed).
    fn on_restart(
        &mut self,
        dead_links: &[usize],
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        let Phase::Crashed { at: crashed_at } = self.phase else {
            return Err(OverlayError::Lifecycle {
                reason: "restart of a broker that is not crashed",
            });
        };
        // The host's file: the base entry, then the deltas appended
        // since. Nothing below touches `self` until the whole record has
        // been accepted — a refused restart leaves the broker crashed
        // and the file where it was.
        let entries = journal::split_entries(self.file.sealed.as_deref().unwrap_or_default())?;
        let (flood, neighbors, platform, counter) =
            (self.flood, self.neighbors(), &self.platform, self.file.counter);
        // Relaunch the (same, identically measured) routing enclave; one
        // crossing opens the chain (one key derivation for all its
        // blobs), restores the base and redoes the deltas.
        let enclave = platform.launch(router_builder(&self.code))?;
        let (core, restored) =
            enclave.ecall(|ctx| -> Result<(BrokerCore, usize), OverlayError> {
                let (base_version, opened) = if entries.is_empty() {
                    (0, Vec::new())
                } else {
                    VersionedSeal::unseal_chain(
                        ctx,
                        SealPolicy::MrEnclave,
                        platform,
                        counter,
                        &entries,
                    )?
                };
                let record: Vec<&[u8]> = opened.iter().map(Vec::as_slice).collect();
                let mut core = BrokerCore::restore(&record, ctx.memory(), flood, &neighbors)?;
                core.set_base_version(base_version);
                let restored = core.live_count();
                Ok((core, restored))
            })?;
        self.core = core;
        self.file.log = match entries.split_first() {
            Some((base, deltas)) => LogShape {
                base_bytes: base.len(),
                delta_bytes: deltas.iter().map(|d| d.len()).sum(),
                deltas: deltas.len() as u64,
            },
            None => LogShape::default(),
        };
        self.core.set_telemetry(self.telemetry);
        self.phase = Phase::Rejoining { enclave, crashed_at, replayed: 0, dropped: 0 };
        // Every record is at its default since the crash: mark the dead,
        // and owe a replay from every other neighbour.
        for (n, peer) in &mut self.peers {
            peer.dead = dead_links.contains(n);
            peer.replay = (!peer.dead).then(Replay::default);
        }
        outs.push(Output::Event(LinkEvent::RejoinStarted { restored }));
        if !self.replays_owed() {
            // No (live) neighbours to replay from: recovery is the seal
            // alone.
            self.serve(outs)?;
        }
        Ok(())
    }

    /// Timer tick, dispatched per lifecycle state. While linking or
    /// rejoining it drives handshake initiation (a rejoining broker's
    /// replay request follows each of its handshakes); while serving it
    /// runs the steady-state liveness work — heartbeat emission,
    /// dead-link probing and suspicion timeouts. Cold and crashed brokers
    /// have no timer work.
    fn on_tick(&mut self, outs: &mut Vec<Output>) -> Result<(), OverlayError> {
        self.ticks += 1;
        match self.phase {
            Phase::Cold(_) | Phase::Crashed { .. } => Ok(()),
            Phase::Linking(_) => self.tick_handshakes(false, outs),
            Phase::Rejoining { .. } => self.tick_handshakes(true, outs),
            Phase::Serving(_) => self.tick_serving(outs),
        }
    }

    /// Initiates pending link handshakes: at bring-up the lower id
    /// initiates each edge; a rejoining broker initiates every incident
    /// link, since only *it* lost the keys.
    fn tick_handshakes(
        &mut self,
        rejoining: bool,
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        let targets: Vec<usize> = self
            .peers
            .iter()
            .filter(|&(&n, p)| {
                p.link.is_none()
                    && p.initiation.is_none()
                    && p.response.is_none()
                    && !p.dead
                    && (rejoining || self.id < n)
            })
            .map(|(&n, _)| n)
            .collect();
        for n in targets {
            outs.push(self.initiate(n)?);
        }
        Ok(())
    }

    /// Steady-state liveness work. Per neighbour:
    ///
    /// * an established, trusted link gets a heartbeat;
    /// * a believed-dead neighbour that re-keyed the link from its own
    ///   side is healed immediately (pull-replay — the
    ///   stale-liveness-view fix);
    /// * an unkeyed link is probed with a fresh handshake (retried every
    ///   [`SUSPECT_AFTER`] ticks);
    /// * a link wedged on a sequence gap past [`GAP_GRACE`] is declared
    ///   [`SuspectReason::Gap`] and proactively re-keyed + resynced;
    /// * a link silent past [`SUSPECT_AFTER`] is declared
    ///   [`SuspectReason::Silence`] — the fabric aggregates these into
    ///   quorum and auto-restarts the peer.
    fn tick_serving(&mut self, outs: &mut Vec<Output>) -> Result<(), OverlayError> {
        let (now, hb_wire) = (self.ticks, Message::Heartbeat.to_wire());
        for n in self.neighbors() {
            let peer = self.peer(n);
            // Every neighbour is on the liveness clock from its first
            // serving tick — silence toward a neighbour we have never
            // heard from (because it is dead) must accrue too.
            let seen = *peer.last_rx.get_or_insert(now);
            let keyed = peer.link.is_some();
            if keyed && peer.dead {
                // Stale liveness view: a neighbour we believed dead
                // re-keyed the link while we were still rejoining — it is
                // reachable, so reconcile what we missed while ignoring
                // it.
                outs.push(self.heal_link(n)?);
                continue;
            }
            if keyed {
                self.counters.heartbeats += 1;
                outs.push(self.send(n, &hb_wire)?);
                // An unanswered pull: the neighbour was dead (or still
                // rejoining) when we asked. Re-send once the request
                // outlives the suspicion window, so a heal attempted
                // against a corpse completes when the corpse is itself
                // fenced and restarted.
                let replay = self.peer(n).replay.as_ref();
                if replay.is_some_and(|r| r.requested_at.is_none_or(|t| now - t >= SUSPECT_AFTER)) {
                    outs.push(self.request_replay(n)?);
                }
            } else if peer.response.is_none()
                && peer.initiated_at.is_none_or(|t| now - t >= SUSPECT_AFTER)
            {
                // No channel (the neighbour was dead at our restart, or
                // its key died with it): probe with a fresh handshake.
                // An unanswered probe is retried once its age exceeds
                // the suspicion window.
                outs.push(self.initiate(n)?);
            }
            let peer = self.peer(n);
            if peer.suspect {
                continue; // one Suspect per episode
            }
            if peer.gap_since.is_some_and(|since| now - since >= GAP_GRACE) {
                peer.suspect = true;
                outs.push(Output::Event(LinkEvent::Suspect {
                    link: n,
                    reason: SuspectReason::Gap,
                }));
                // The peer is provably alive — gap frames authenticate —
                // only the channel is wedged on lost frames. Heal at link
                // level: re-key, then pull a replay on the fresh channel
                // to recover whatever subscription traffic the gap
                // swallowed.
                if peer.initiation.is_none() {
                    peer.resync = true;
                    outs.push(self.initiate(n)?);
                }
            } else if now.saturating_sub(seen) >= SUSPECT_AFTER {
                peer.suspect = true;
                outs.push(Output::Event(LinkEvent::Suspect {
                    link: n,
                    reason: SuspectReason::Silence,
                }));
            }
        }
        Ok(())
    }

    /// A believed-dead or gap-wedged neighbour is reachable on a fresh
    /// key: forget the dead mark and pull a replay over the link to pick
    /// up every interest change we missed.
    fn heal_link(&mut self, neighbor: usize) -> Result<Output, OverlayError> {
        let peer = self.peer(neighbor);
        peer.dead = false;
        peer.resync = false;
        self.request_replay(neighbor)
    }

    /// Asks `neighbor` to replay what it forwarded on the link, recording
    /// the request on the replay the link owes (opening one if none is).
    fn request_replay(&mut self, neighbor: usize) -> Result<Output, OverlayError> {
        let now = self.ticks;
        self.peer(neighbor).replay.get_or_insert_default().requested_at = Some(now);
        self.send(neighbor, &Message::ReplayRequest.to_wire())
    }

    // ---- link handshake ------------------------------------------------

    /// Opens a handshake toward `neighbor`: records it and returns the
    /// hello frame.
    fn initiate(&mut self, neighbor: usize) -> Result<Output, OverlayError> {
        let (hello, state) =
            sgx_sim::link::initiate(&self.platform, self.phase.enclave()?, &mut self.rng)?;
        let now = self.ticks;
        let peer = self.peer(neighbor);
        peer.initiation = Some(state);
        peer.initiated_at = Some(now);
        Ok(self.handshake_frame(neighbor, Message::LinkQuote { payload: hello.to_bytes() }))
    }

    /// The plaintext frame carrying handshake `message` to `to`.
    fn handshake_frame(&self, to: usize, message: Message) -> Output {
        Output::Frame(LinkFrame { to, from: self.id, bytes: message.to_wire() })
    }

    /// Responds to a neighbour's hello after verifying its quoted key
    /// against the broker's trust anchors.
    ///
    /// When both ends open a handshake at once, the higher id's wins: a
    /// broker whose id is lower than the sender's drops its own
    /// initiation toward it, so the two ends install the one key the
    /// winner's handshake agrees instead of each other's crosswise. It
    /// still answers every hello, so a lost one cannot wedge the link.
    fn hs_hello(
        &mut self,
        from: usize,
        payload: &[u8],
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        if !self.peers.contains_key(&from) {
            return Err(OverlayError::Link { reason: "handshake from a non-neighbour" });
        }
        let hello = QuotedKey::from_bytes(payload)?;
        let enclave = self.phase.enclave()?;
        let (service, policy) = self.trust.as_ref().ok_or(UNTRUSTED)?;
        let (accept, state) =
            sgx_sim::link::accept(&self.platform, enclave, service, policy, &hello, &mut self.rng)?;
        let yields = self.id < from;
        let peer = self.peer(from);
        peer.response = Some(state);
        if yields {
            peer.initiation = None;
        }
        outs.push(self.handshake_frame(from, Message::LinkAccept { payload: accept.to_bytes() }));
        Ok(())
    }

    /// Completes the initiator side: verify the responder's quote,
    /// derive the link key, install the sealed channels. An accept for a
    /// handshake of ours that is gone is dropped: the link outran it
    /// (the neighbour re-keyed from its own side first) or the tie-break
    /// in [`Broker::hs_hello`] withdrew it. Nothing is left to finish.
    fn hs_accept(
        &mut self,
        from: usize,
        payload: &[u8],
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        let Some(state) = self.peers.get_mut(&from).and_then(|p| p.initiation.take()) else {
            return Ok(());
        };
        let accept = LinkAccept::from_bytes(payload)?;
        let enclave = self.phase.enclave()?;
        let (service, policy) = self.trust.as_ref().ok_or(UNTRUSTED)?;
        let (finish, key) =
            sgx_sim::link::finish(state, &accept, service, policy, enclave, &mut self.rng)?;
        self.install_sealed_link(from, key.as_bytes());
        outs.push(self.handshake_frame(from, Message::LinkFinish { payload: finish.to_bytes() }));
        self.post_link_up(from, outs)
    }

    /// Completes the responder side, deriving the same link key.
    fn hs_finish(
        &mut self,
        from: usize,
        payload: &[u8],
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        let Some(state) = self.peers.get_mut(&from).and_then(|p| p.response.take()) else {
            return Err(OverlayError::Link { reason: "unexpected link-finish" });
        };
        let finish = LinkFinish::from_bytes(payload)?;
        let key = sgx_sim::link::complete(state, &finish, self.phase.enclave()?)?;
        self.install_sealed_link(from, key.as_bytes());
        self.post_link_up(from, outs)
    }

    /// Bookkeeping after a sealed channel (re-)establishes: start
    /// serving ([`Broker::serve`]) once every neighbour of a linking
    /// broker is up, during a rejoin request the replay on the fresh
    /// channel, and while serving heal a believed-dead or gap-wedged link
    /// by pulling a replay over the new key. A fresh channel also
    /// retracts any standing suspicion.
    fn post_link_up(&mut self, link: usize, outs: &mut Vec<Output>) -> Result<(), OverlayError> {
        outs.push(Output::Event(LinkEvent::LinkUp { link }));
        let peer = self.peer(link);
        if std::mem::take(&mut peer.suspect) {
            outs.push(Output::Event(LinkEvent::Cleared { link }));
        }
        let unrequested = peer.replay.as_ref().is_some_and(|r| r.requested_at.is_none());
        let heal = peer.dead || peer.resync;
        match self.phase {
            Phase::Linking(_) if self.peers.values().all(|p| p.link.is_some()) => {
                self.serve(outs)?;
            }
            Phase::Rejoining { .. } if unrequested => outs.push(self.request_replay(link)?),
            Phase::Serving(_) if heal => outs.push(self.heal_link(link)?),
            _ => {}
        }
        Ok(())
    }

    // ---- frames --------------------------------------------------------

    fn on_frame(
        &mut self,
        from: usize,
        bytes: &[u8],
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        if let Phase::Cold(_) | Phase::Crashed { .. } = self.phase {
            return Err(OverlayError::Lifecycle {
                reason: "frame for a broker that is not linked",
            });
        }
        let Some(peer) = self.peers.get_mut(&from) else {
            return Err(OverlayError::Link { reason: "no link to neighbour" });
        };
        self.wire.clear();
        let opened = match &mut peer.link {
            Some(LinkChannel { inbound, .. }) => match inbound.open_into(bytes, &mut self.wire) {
                // The metadata word (a publication's trace id) rides in
                // clear but is AAD-bound, so a successful open vouches
                // for it.
                Ok(()) => Opened::Wire { meta: inbound.last_meta() },
                Err(NetError::Gap { expected, got }) => Opened::Gap { expected, got },
                Err(err) => Opened::Failed(err),
            },
            None => Opened::NoChannel,
        };
        match opened {
            Opened::Wire { meta } => {
                // An authentic frame is proof of life: refresh the
                // liveness clock and retract any standing suspicion.
                peer.last_rx = Some(self.ticks);
                if std::mem::take(&mut peer.suspect) {
                    outs.push(Output::Event(LinkEvent::Cleared { link: from }));
                }
                let wire = std::mem::take(&mut self.wire);
                let dispatched = self.dispatch_wire(from, &wire, meta, outs);
                self.wire = wire;
                dispatched
            }
            Opened::Gap { expected, got } => {
                self.counters.gaps += 1;
                // A gap frame authenticates, so the *peer* is alive —
                // but the channel is wedged. Start (or keep) the
                // gap-grace clock; `tick_serving` escalates it to a
                // `Suspect { reason: Gap }` re-key if it outlives the
                // grace window.
                peer.last_rx = Some(self.ticks);
                peer.gap_since.get_or_insert(self.ticks);
                outs.push(Output::Event(LinkEvent::Gap { link: from, expected, got }));
                Ok(())
            }
            opened @ (Opened::Failed(_) | Opened::NoChannel) => {
                // Not a frame a sealed channel can open. A peer that lost
                // its key (restarted, or never linked) re-keys with
                // plaintext handshake frames; accept exactly those (each
                // is quote-authenticated — a forgery cannot complete the
                // handshake, and an installed channel stays until the new
                // key proves out). On an installed channel a finish is one
                // only while a response of ours is in flight.
                let finishes = peer.response.is_some() || matches!(opened, Opened::NoChannel);
                let swallow = peer.dead || matches!(self.phase, Phase::Rejoining { .. });
                match Message::from_wire(bytes) {
                    Ok(Message::LinkQuote { payload }) => self.hs_hello(from, &payload, outs),
                    Ok(Message::LinkAccept { payload }) => self.hs_accept(from, &payload, outs),
                    Ok(Message::LinkFinish { payload }) if finishes => {
                        self.hs_finish(from, &payload, outs)
                    }
                    _ => match opened {
                        Opened::Failed(err) => Err(err.into()),
                        // Sealed traffic under a key we no longer hold:
                        // either our liveness view is stale (the sender
                        // is alive and still using its pre-restart key
                        // toward us) or we are mid-rejoin and the sender
                        // has not re-keyed with us yet. Swallow the
                        // undecipherable frame — the probe/rejoin
                        // handshake heals the link.
                        _ if swallow => Ok(()),
                        _ => Err(OverlayError::Link { reason: "no link to neighbour" }),
                    },
                }
            }
        }
    }

    fn dispatch_wire(
        &mut self,
        from: usize,
        wire: &[u8],
        meta: u64,
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        // Publication batches are routed straight out of the opened frame.
        if let Some(batch) = PublishBatchView::from_wire(wire)? {
            self.require_serving("publication for a broker that is not serving")?;
            return self.route_batch(|| batch.clone(), Origin::Link(from), TraceId(meta), outs);
        }
        match Message::from_wire(wire)? {
            Message::SubForward { envelope } => {
                self.require_traffic()?;
                // A link with an outstanding replay request is in replay
                // mode whatever our own lifecycle state: a rejoining
                // broker replays from every neighbour, a serving broker
                // replays over a single healed link.
                let replaying = self.peer(from).replay.is_some();
                let outcome = self.call(|c| c.admit(&envelope, Origin::Link(from), replaying))?;
                if let Some(replay) = &mut self.peer(from).replay {
                    replay.confirmed.insert(outcome.id);
                    if let Phase::Rejoining { replayed, .. } = &mut self.phase {
                        *replayed += 1;
                    }
                }
                let wire = Message::SubForward { envelope }.to_wire();
                self.link_frames(outcome.links, &wire, outs)?;
                // While replaying, one mark at the end of the link's
                // replay (reconcile_replay) covers the whole burst.
                if !replaying {
                    self.mark_dirty_if_serving();
                }
                Ok(())
            }
            Message::SubRemove { envelope } => {
                self.require_traffic()?;
                let outcome = self.call(|c| c.remove(&envelope, Origin::Link(from)))?;
                if !outcome.removed {
                    return Ok(());
                }
                let wire = Message::SubRemove { envelope }.to_wire();
                self.link_frames(outcome.links, &wire, outs)?;
                self.mark_dirty_if_serving();
                Ok(())
            }
            Message::SubDrop { id } => {
                self.require_traffic()?;
                match self.call(|c| c.origin_of(id)) {
                    None => Ok(()), // already gone: idempotent
                    Some(Origin::Link(l)) if l == from => {
                        let outcome = self.call(|c| c.remove_by_id(id, Origin::Link(from)));
                        let wire = Message::SubDrop { id }.to_wire();
                        self.link_frames(outcome.links, &wire, outs)?;
                        self.mark_dirty_if_serving();
                        Ok(())
                    }
                    Some(_) => Err(OverlayError::Link { reason: "sub-drop from wrong direction" }),
                }
            }
            Message::ReplayRequest => {
                if !matches!(self.phase, Phase::Serving(_)) {
                    // A neighbour that rejoined concurrently with us is
                    // asking for a replay we cannot serve yet. Park the
                    // request — it drains the moment we reach Serving —
                    // so two adjacent brokers crashed in the same window
                    // both recover instead of wedging on each other.
                    self.peer(from).parked_replay = true;
                    return Ok(());
                }
                self.serve_replay(from, outs)
            }
            Message::ReplayDone { count } => self.reconcile_replay(from, count, outs),
            Message::Heartbeat => {
                // Pure liveness beacon: opening it already refreshed
                // `last_rx`; there is nothing to route.
                Ok(())
            }
            _ => Err(OverlayError::Link { reason: "unexpected message kind on link" }),
        }
    }

    /// Serves a replay towards `from`: re-send every subscription the
    /// neighbour should hold from us, closed with a count-carrying
    /// `ReplayDone` marker.
    fn serve_replay(&mut self, from: usize, outs: &mut Vec<Output>) -> Result<(), OverlayError> {
        let envelopes = self.call(|c| c.replay_rows(from));
        let count = envelopes.len() as u32;
        for envelope in envelopes {
            outs.push(self.send(from, &Message::SubForward { envelope }.to_wire())?);
        }
        outs.push(self.send(from, &Message::ReplayDone { count }.to_wire())?);
        Ok(())
    }

    /// Ends the replay from `from`: every restored subscription learnt
    /// from that link which the neighbour did *not* re-confirm was
    /// removed during the outage — drop it with full uncovering
    /// bookkeeping and propagate authenticated `sub-drop`s down the
    /// reverse path. When a rejoining broker's last neighbour finishes,
    /// start serving; a serving broker finishing a single healed link's
    /// replay reports `Healed` instead.
    fn reconcile_replay(
        &mut self,
        from: usize,
        count: u32,
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        let healing = matches!(self.phase, Phase::Serving(_));
        let open = healing || matches!(self.phase, Phase::Rejoining { .. });
        let Some(replay) = self.peer(from).replay.as_mut().filter(|_| open) else {
            return Err(OverlayError::Lifecycle { reason: "unexpected replay-done" });
        };
        let confirmed = std::mem::take(&mut replay.confirmed);
        if confirmed.len() != count as usize {
            return Err(OverlayError::Link { reason: "replay count mismatch" });
        }
        let stale = self.call(|c| c.unconfirmed(from, &confirmed));
        let replayed_here = confirmed.len();
        for id in &stale {
            let outcome = self.call(|c| c.remove_by_id(*id, Origin::Link(from)));
            let wire = Message::SubDrop { id: *id }.to_wire();
            self.link_frames(outcome.links, &wire, outs)?;
            self.mark_dirty();
        }
        if let Phase::Rejoining { dropped, .. } = &mut self.phase {
            *dropped += stale.len();
        }
        // One checkpoint per completed link replay: covers the replayed
        // admissions (whose per-frame marks are suppressed while
        // replaying) and the stale drops marked above. It writes a base:
        // a replay re-journals the link's whole live set, so a delta
        // would cost as much and restart redo twice over.
        self.mark_dirty();
        self.file.pending = Some(Seal::Base);
        self.peer(from).replay = None;
        if healing {
            outs.push(Output::Event(LinkEvent::Healed {
                link: from,
                replayed: replayed_here,
                dropped_stale: stale.len(),
            }));
        } else if !self.replays_owed() {
            self.serve(outs)?;
        }
        Ok(())
    }

    /// Enters `Serving`: the one transition into it after bring-up, from
    /// `Linking` once every link is up and from `Rejoining` once no
    /// replay is owed. Leaving `Rejoining` reports the rejoin. Either
    /// way, neighbours that asked for a replay while we could not serve
    /// it (they restarted while we were linking or rejoining) are served
    /// now.
    fn serve(&mut self, outs: &mut Vec<Output>) -> Result<(), OverlayError> {
        if let Phase::Rejoining { crashed_at, replayed, dropped, .. } = self.phase {
            outs.push(Output::Event(LinkEvent::Rejoined {
                replayed,
                dropped_stale: dropped,
                downtime: self.now.saturating_sub(crashed_at),
            }));
        }
        self.phase.advance(Phase::Serving);
        let parked: Vec<usize> = self
            .peers
            .iter_mut()
            .filter_map(|(&n, p)| {
                (std::mem::take(&mut p.parked_replay) && p.link.is_some()).then_some(n)
            })
            .collect();
        for neighbor in parked {
            self.serve_replay(neighbor, outs)?;
        }
        Ok(())
    }

    // ---- local traffic -------------------------------------------------

    fn on_subscribe(
        &mut self,
        envelope: &[u8],
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        self.require_serving("subscription for a broker that is not serving")?;
        let outcome = self.call(|c| c.admit(envelope, Origin::Local, false))?;
        let wire = Message::SubForward { envelope: envelope.to_vec() }.to_wire();
        self.link_frames(outcome.links, &wire, outs)?;
        self.mark_dirty();
        outs.push(Output::Event(LinkEvent::Subscribed { id: outcome.id }));
        Ok(())
    }

    fn on_unsubscribe(
        &mut self,
        envelope: &[u8],
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        self.require_serving("unsubscription for a broker that is not serving")?;
        let outcome = self.call(|c| c.remove(envelope, Origin::Local))?;
        if outcome.removed {
            let wire = Message::SubRemove { envelope: envelope.to_vec() }.to_wire();
            self.link_frames(outcome.links, &wire, outs)?;
            self.mark_dirty();
        }
        outs.push(Output::Event(LinkEvent::Unsubscribed {
            id: outcome.id,
            removed: outcome.removed,
        }));
        Ok(())
    }

    fn on_publish(
        &mut self,
        items: &[PublishItem],
        trace: TraceId,
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        self.require_serving("publication for a broker that is not serving")?;
        self.route_batch(|| items.iter().map(PublishItem::view), Origin::Local, trace, outs)
    }

    /// Routes a batch of publications: decrypt+match the whole batch in
    /// [`MAX_DRAIN`]-bounded single enclave crossings, deliver locally —
    /// one [`LocalDeliveries`] record per publication that reaches a
    /// client here, carrying the item once and its matched clients — and
    /// forward each item on every matching link (origin excluded), each
    /// link's batch encoded from the borrowed items into one reused
    /// buffer. The records share the broker's one delivery buffer, which
    /// is refilled in place when the previous batch's records are gone.
    /// `items` yields the batch afresh on every call.
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
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError>
    where
        I: ExactSizeIterator<Item = PublishItemRef<'a>>,
    {
        let timing = self.telemetry;
        let t_arrival = if timing { self.mem_elapsed_ns() } else { 0.0 };
        let mut routes = std::mem::take(&mut self.routes);
        routes.clear();
        for start in (0..items().len()).step_by(MAX_DRAIN) {
            let headers = items().skip(start).take(MAX_DRAIN).map(|item| item.header_ct);
            self.counters.refused += self.call(|c| c.route_into(headers, origin, &mut routes));
        }
        let t_matched = if timing { self.mem_elapsed_ns() } else { 0.0 };
        let matched_here = routes.local_count();
        if matched_here > 0 {
            // The last batch's records may still be held: then they keep
            // its buffer, and this batch starts a fresh one.
            if Arc::get_mut(&mut self.delivered).is_none() {
                self.delivered = Arc::default();
            }
            let delivered = Arc::get_mut(&mut self.delivered).expect("unshared");
            delivered.clear();
            for (i, item) in items().enumerate() {
                let (locals, _) = routes.get(i);
                if !locals.is_empty() {
                    delivered.push(item, locals);
                }
            }
            for index in 0..delivered.items.len() {
                let batch = Arc::clone(&self.delivered);
                outs.push(Output::Deliveries(LocalDeliveries { router: self.id, batch, index }));
            }
        }
        // One batch per keyed link with interest, in ascending neighbour
        // order. Interest toward a dead (not yet re-keyed) neighbour is
        // lost here, like the wire would lose the frame.
        let wire = &mut self.batch_wire;
        let links = self.peers.iter_mut().filter_map(|(&n, p)| Some((n, p.link.as_mut()?)));
        for (neighbor, link) in links {
            let mut routed = items()
                .enumerate()
                .filter(|(i, _)| routes.get(*i).1.contains(&neighbor))
                .map(|(_, item)| item)
                .peekable();
            if routed.peek().is_none() {
                continue;
            }
            encode_publish_batch(routed, wire)?;
            // The trace id rides in clear, bound into the frame's AAD.
            let bytes = link.outbound.seal_meta(wire, trace.0);
            outs.push(Output::Frame(LinkFrame { to: neighbor, from: self.id, bytes }));
        }
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
            self.call(|c| c.record_hop(seal_ns, hop_ns, record));
        }
        Ok(())
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
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        for link in links {
            if self.peers.get(&link.neighbor).is_none_or(|p| p.link.is_none()) {
                // Dead neighbour (declared so at restart), no channel
                // yet: the covering table is up to date, and its rejoin
                // replay will see that instead of these frames.
                continue;
            }
            for envelope in &link.uncovered {
                let wire = Message::SubForward { envelope: envelope.clone() }.to_wire();
                outs.push(self.send(link.neighbor, &wire)?);
            }
            outs.push(self.send(link.neighbor, terminal)?);
        }
        Ok(())
    }

    /// Checkpoints the recovery record after a subscription-state
    /// mutation: inside the enclave, take the journal — or, when the
    /// compaction rule says so, serialise the whole record — and seal it
    /// as the next link of the chain, bound to a fresh monotonic-counter
    /// value (so every older or shorter file is rollback-detected); the
    /// host appends a delta to its file and replaces the file with a
    /// base. Reached only from the end of [`Broker::step`], so each step
    /// seals at most once.
    ///
    /// Admissions and retirements both append. The enclave applies the
    /// fixed compaction rule ([`BrokerCore::checkpoint_payload`]) to the
    /// file's shape; a base is forced when there is none yet and whenever
    /// the step owes one ([`Seal::Base`]: it closed a replay
    /// reconciliation).
    fn checkpoint(&mut self, seal: Seal) -> Result<(), OverlayError> {
        self.counters.seals += 1;
        let log = self.file.log;
        let forced = seal == Seal::Base || self.file.sealed.is_none();
        let enclave = self.phase.enclave()?;
        let (core, platform, counter, rng) =
            (&mut self.core, &self.platform, self.file.counter, &mut self.rng);
        let (plain_bytes, entry, compact) =
            enclave.ecall(|ctx| -> Result<(usize, Vec<u8>, bool), OverlayError> {
                let (payload, base) =
                    core.checkpoint_payload(forced, log.delta_bytes, log.base_bytes);
                let (version, blob) = VersionedSeal::seal_link(
                    ctx,
                    SealPolicy::MrEnclave,
                    platform,
                    counter,
                    base,
                    &payload,
                    rng,
                )?;
                if base.is_none() {
                    core.set_base_version(version);
                }
                Ok((payload.len(), blob, base.is_none()))
            })?;
        self.counters.sealed_bytes += plain_bytes as u64;
        let file = &mut self.file;
        let sealed = file.sealed.get_or_insert_default();
        if compact {
            sealed.clear();
            file.log = LogShape { base_bytes: entry.len(), delta_bytes: 0, deltas: 0 };
            self.counters.compactions += 1;
        } else {
            file.log.delta_bytes += entry.len();
            file.log.deltas += 1;
        }
        journal::append_entry(sealed, &entry);
        Ok(())
    }

    // ---- inspection ----------------------------------------------------

    /// Live subscriptions in the index (edge clients + link interfaces).
    pub fn subscriptions(&self) -> usize {
        self.core.subscriptions()
    }

    /// Counters for this broker.
    pub fn stats(&self) -> BrokerStats {
        let mem = self.core.memory().stats();
        let (mut forwarded, mut pruned) = (0u64, 0u64);
        let (mut forwarded_total, mut removed, mut uncovered) = (0u64, 0u64, 0u64);
        for (_, table) in self.core.ledgers() {
            forwarded += table.forwarded() as u64;
            pruned += table.pruned();
            forwarded_total += table.forwarded_total();
            removed += table.removed();
            uncovered += table.uncovered();
        }
        BrokerStats {
            router: self.id,
            state: self.lifecycle(),
            subscriptions: self.subscriptions(),
            ecalls: mem.ecalls,
            ocalls: mem.ocalls,
            elapsed_ns: mem.elapsed_ns,
            forwarded,
            pruned,
            forwarded_total,
            removed,
            uncovered,
            log_entries: self.file.log.deltas,
            ..self.counters
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
        self.core.set_telemetry(on);
    }

    /// Per-stage latency summaries: the in-enclave engine stages
    /// (decrypt, index match) followed by the broker shell's (seal, hop
    /// crossing). Empty with telemetry off.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        self.core.stage_summaries()
    }

    /// Drains the in-enclave flight recorder through an explicit,
    /// costed ocall (the records leave the enclave exactly once, and
    /// the exit is charged like any other). A crashed broker's empty
    /// recorder drains directly. Returns the hop records in arrival order.
    pub fn drain_trace(&mut self) -> Vec<HopRecord> {
        let core = &mut self.core;
        match self.phase.enclave() {
            Ok(enclave) => enclave.ecall(|ctx| {
                let records = core.drain_trace();
                ctx.ocall(move || records)
            }),
            Err(_) => core.drain_trace(),
        }
    }

    /// Hop records the bounded flight recorder overwrote before they
    /// were drained (cumulative).
    pub fn trace_drops(&self) -> u64 {
        self.core.trace_drops()
    }

    /// The broker's memory-simulator counters (paging, cache, enclave
    /// transitions).
    pub fn mem_stats(&self) -> MemStats {
        self.core.memory().stats()
    }

    /// Per-link forwarding-table counter snapshots, keyed by neighbour
    /// id, for the metrics registry.
    pub fn link_snapshots(&self) -> Vec<(usize, Vec<(&'static str, u64)>)> {
        self.core.ledgers().iter().map(|(n, table)| (*n, table.snapshot())).collect()
    }

    /// True when the broker is fully caught up: serving, with no replay
    /// in flight, no believed-dead links, and no unhealed gap. The
    /// fabric's detection loop runs until every broker settles.
    pub fn settled(&self) -> bool {
        matches!(self.phase, Phase::Serving(_))
            && self.peers.values().all(|p| p.replay.is_none() && !p.dead && p.gap_since.is_none())
    }

    /// Resets the broker's memory counters (between measurement phases).
    /// Cumulative protocol counters (forwarding ledger, gaps) are not
    /// reset.
    pub fn reset_counters(&self) {
        self.core.memory().reset_counters();
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
mod test_broker;

#[cfg(test)]
mod tests {
    use super::test_broker::{provision, provision_under, relink, serving};
    use super::*;
    use crate::fabric::ROUTER_ENCLAVE_CODE;
    use scbr::ids::KeyEpoch;
    use scbr::ScbrError;
    use scbr::{PublicationSpec, SubscriptionSpec};
    use scbr_enclave::broker::{link_interface, RECORD_VERSION, RETIRED_DIVISOR};

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

    /// The clients the outputs deliver to, one entry per client per
    /// publication.
    fn deliveries(outputs: &[Output]) -> Vec<ClientId> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Output::Deliveries(d) => Some(d.clients()),
                _ => None,
            })
            .flatten()
            .copied()
            .collect()
    }

    fn item(producer: &ProducerCrypto, spec: &PublicationSpec, rng: &mut CryptoRng) -> PublishItem {
        PublishItem {
            header_ct: producer.encrypt_header(spec, rng),
            epoch: KeyEpoch(0),
            payload_ct: vec![0xaa],
        }
    }

    /// A memory simulator for restoring a core outside any enclave.
    fn native() -> MemorySim {
        MemorySim::native(CacheConfig::default(), CostModel::free())
    }

    #[test]
    fn link_interface_encoding() {
        let iface = link_interface(5);
        assert!(iface.is_interface());
        assert_eq!(iface.0 & !ClientId::INTERFACE_BIT, 5);
    }

    #[test]
    fn broker_admits_and_routes_through_step() {
        let mut rng = CryptoRng::from_seed(1);
        let producer = producer(&mut rng);
        let (mut broker, mut peers) = serving(0, 1, false, &[1, 2], &producer);

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
        let outs = broker.step(1, peers.frame(1, &wire)).unwrap();
        assert!(frames(&outs).is_empty(), "covered subscription is pruned");
        assert_eq!(broker.subscriptions(), 2);
        assert_eq!(broker.stats().pruned, 1);

        // Publications from a link split into local delivery + link
        // forwarding; the origin link is excluded.
        let publication = PublicationSpec::new().attr("price", 60.0);
        let batch = Message::PublishBatch { items: vec![item(&producer, &publication, &mut rng)] }
            .to_wire();
        let outs = broker.step(2, peers.frame(2, &batch)).unwrap();
        assert_eq!(deliveries(&outs), vec![ClientId(7)]);
        // price>10 came locally; price>50 came from link 1 → forward to 1.
        let fwd = frames(&outs);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].to, 1);
    }

    #[test]
    fn flood_mode_skips_pruning() {
        let mut rng = CryptoRng::from_seed(2);
        let producer = producer(&mut rng);
        let (mut broker, _) = serving(0, 2, true, &[1], &producer);
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
        let (mut broker, mut peers) = serving(0, 5, false, &[1], &producer);

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
        assert_eq!(peers.open(frames(&outs)[0]).kind(), "sub-forward");
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
        let kinds: Vec<String> =
            frames(&outs).iter().map(|f| peers.open(f).kind().to_owned()).collect();
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
        let (mut broker, mut peers) = serving(0, 11, false, &[1], &producer);

        let outs = broker.step(1, Input::Tick).unwrap();
        let hb = frames(&outs);
        assert_eq!(hb.len(), 1, "one heartbeat on the established link");
        assert_eq!(hb[0].to, 1);
        assert!(matches!(peers.open(hb[0]), Message::Heartbeat));
        assert_eq!(broker.stats().heartbeats, 1);

        // The neighbour stays silent: after `SUSPECT_AFTER` silent ticks
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
        let outs = broker.step(10, peers.frame(1, &Message::Heartbeat.to_wire())).unwrap();
        assert!(
            outs.iter().any(|o| matches!(o, Output::Event(LinkEvent::Cleared { link: 1 }))),
            "proof of life clears the suspect, got {outs:?}"
        );
    }

    /// The key of the link between [`linked_pair`]'s brokers.
    const PAIR_KEY: [u8; 32] = [0x5a; 32];

    /// Two linked serving brokers: a (0, the edge) — b (1), on
    /// [`PAIR_KEY`].
    fn linked_pair(producer: &ProducerCrypto) -> (Broker, Broker) {
        let (mut a, _) = serving(0, 7, false, &[1], producer);
        let (mut b, _) = serving(1, 8, false, &[0], producer);
        a.install_sealed_link(1, &PAIR_KEY);
        b.install_sealed_link(0, &PAIR_KEY);
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
        assert_eq!(deliveries(&outs), vec![ClientId(1)]);
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
        // Reads the kinds of what a sends b, in order, off the shared key.
        let mut tap = SecureLink::inbound(&PAIR_KEY, 1, 0);
        let mut register = |a: &mut Broker, b: &mut Broker, id: u64, above: f64| {
            let spec = SubscriptionSpec::new().gt("price", above);
            let envelope = producer
                .seal_registration(&spec, SubscriptionId(id), ClientId(id), &mut rng)
                .unwrap();
            let outs = a.step(id, Input::Subscribe { envelope }).unwrap();
            let kinds: Vec<String> = frames(&outs)
                .iter()
                .map(|f| {
                    Message::from_wire(&tap.open(&f.bytes).unwrap()).unwrap().kind().to_owned()
                })
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
        assert_eq!(a.core.ledgers()[0].1.row_ids(), vec![SubscriptionId(1), SubscriptionId(2)]);
        assert_eq!(b.subscriptions(), 2);

        // price = 10 entering at b matches only id 2 and must reach it.
        let publication = PublicationSpec::new().attr("price", 10.0);
        let items = vec![item(&producer, &publication, &mut rng)];
        let outs = b.step(9, Input::Publish { items, trace: TraceId::NONE }).unwrap();
        let fwd = frames(&outs);
        assert_eq!(fwd.len(), 1, "b still knows about id 2's interest");
        let outs = a.step(9, Input::Frame { from: 1, bytes: fwd[0].bytes.clone() }).unwrap();
        assert_eq!(deliveries(&outs), vec![ClientId(2)]);
    }

    #[test]
    fn pruned_removal_is_silent_and_double_remove_is_idempotent() {
        let mut rng = CryptoRng::from_seed(6);
        let producer = producer(&mut rng);
        let (mut broker, _) = serving(0, 6, false, &[1], &producer);
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
        let (mut broker, _) = serving(0, 33, false, &[], &producer);
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

    /// A batch yields one record per publication delivered here, holding
    /// the item and its clients ascending. Records still held when the
    /// next batch routes keep reading their own batch; once dropped, the
    /// broker refills the same buffer.
    #[test]
    fn one_record_per_delivered_publication_and_held_records_stay_intact() {
        let mut rng = CryptoRng::from_seed(5);
        let producer = producer(&mut rng);
        let (mut broker, _) = serving(0, 35, false, &[], &producer);
        for (id, client, above) in [(1, 9, 0.0), (2, 4, 5.0), (3, 0, 0.0)] {
            let spec = SubscriptionSpec::new().gt("p", above);
            let envelope = producer
                .seal_registration(&spec, SubscriptionId(id), ClientId(client), &mut rng)
                .unwrap();
            broker.step(0, Input::Subscribe { envelope }).unwrap();
        }
        let batch = |rng: &mut CryptoRng, prices: &[f64]| -> Vec<PublishItem> {
            prices
                .iter()
                .map(|&p| {
                    let mut item = item(&producer, &PublicationSpec::new().attr("p", p), rng);
                    item.payload_ct = p.to_be_bytes().to_vec();
                    item
                })
                .collect()
        };
        let records = |outs: &[Output]| -> Vec<LocalDeliveries> {
            outs.iter()
                .filter_map(|o| match o {
                    Output::Deliveries(d) => Some(d.clone()),
                    _ => None,
                })
                .collect()
        };
        let first = batch(&mut rng, &[6.0, -1.0, 2.0]);
        let held = records(
            &broker.step(1, Input::Publish { items: first.clone(), trace: TraceId::NONE }).unwrap(),
        );
        let read = |records: &[LocalDeliveries]| -> Vec<(Vec<u8>, Vec<u8>, Vec<ClientId>)> {
            records
                .iter()
                .map(|r| {
                    assert_eq!(r.router(), 0);
                    let item = r.item();
                    (item.header_ct.to_vec(), item.payload_ct.to_vec(), r.clients().to_vec())
                })
                .collect()
        };
        let expected = vec![
            (
                first[0].header_ct.clone(),
                first[0].payload_ct.clone(),
                vec![ClientId(0), ClientId(4), ClientId(9)],
            ),
            (
                first[2].header_ct.clone(),
                first[2].payload_ct.clone(),
                vec![ClientId(0), ClientId(9)],
            ),
        ];
        assert_eq!(read(&held), expected, "the unmatched publication yields no record");
        let buffer = Arc::as_ptr(&broker.delivered);
        let second = batch(&mut rng, &[7.0]);
        let outs = broker.step(2, Input::Publish { items: second, trace: TraceId::NONE }).unwrap();
        assert_eq!(read(&held), expected, "a held batch is not overwritten");
        assert_ne!(Arc::as_ptr(&broker.delivered), buffer);
        drop((held, outs));
        let buffer = Arc::as_ptr(&broker.delivered);
        let third = batch(&mut rng, &[8.0]);
        let outs =
            broker.step(3, Input::Publish { items: third.clone(), trace: TraceId::NONE }).unwrap();
        assert_eq!(Arc::as_ptr(&broker.delivered), buffer, "a released buffer is refilled");
        assert_eq!(read(&records(&outs))[0].1, third[0].payload_ct);
        assert_eq!(records(&outs)[0].item().epoch, third[0].epoch);
    }

    /// A header that fails to decrypt costs only itself: its batch-mates
    /// are still delivered and forwarded, and the refusal is counted.
    #[test]
    fn a_poisoned_item_costs_only_itself() {
        let mut rng = CryptoRng::from_seed(4);
        let producer = producer(&mut rng);
        let (mut broker, mut peers) = serving(0, 34, false, &[1], &producer);
        let spec = SubscriptionSpec::new().gt("price", 10.0);
        let local =
            producer.seal_registration(&spec, SubscriptionId(1), ClientId(7), &mut rng).unwrap();
        let outs = broker.step(0, Input::Subscribe { envelope: local }).unwrap();
        for frame in frames(&outs) {
            peers.open(frame);
        }
        let remote =
            producer.seal_registration(&spec, SubscriptionId(2), ClientId(8), &mut rng).unwrap();
        let wire = Message::SubForward { envelope: remote }.to_wire();
        broker.step(1, peers.frame(1, &wire)).unwrap();

        let good = PublicationSpec::new().attr("price", 60.0);
        let mut poisoned = item(&producer, &good, &mut rng);
        poisoned.header_ct.truncate(3);
        let items =
            vec![item(&producer, &good, &mut rng), poisoned, item(&producer, &good, &mut rng)];
        let outs = broker.step(2, Input::Publish { items, trace: TraceId::NONE }).unwrap();
        assert_eq!(deliveries(&outs).len(), 2, "both good items are delivered");
        let fwd = frames(&outs);
        assert_eq!(fwd.len(), 1);
        match peers.open(fwd[0]) {
            Message::PublishBatch { items } => assert_eq!(items.len(), 2, "and forwarded"),
            other => panic!("expected a publish batch, got {other:?}"),
        }
        assert_eq!(broker.stats().refused, 1);

        let items = vec![item(&producer, &good, &mut rng)];
        let outs = broker.step(3, Input::Publish { items, trace: TraceId::NONE }).unwrap();
        assert_eq!(deliveries(&outs).len(), 1);
        assert_eq!(broker.stats().refused, 1);
    }

    /// Broker 0, with neighbour 1, in `phase` (one a test can reach).
    fn in_phase(phase: Lifecycle, producer: &ProducerCrypto) -> Broker {
        let mut broker = match phase {
            Lifecycle::Cold | Lifecycle::Linking => {
                let mut broker =
                    Broker::attested(0, 9, ROUTER_ENCLAVE_CODE, false, EpcConfig::default())
                        .unwrap();
                broker.set_neighbors(&[1]);
                if phase == Lifecycle::Linking {
                    provision(&mut broker, producer);
                }
                broker
            }
            _ => serving(0, 9, false, &[1], producer).0,
        };
        if matches!(phase, Lifecycle::Crashed | Lifecycle::Rejoining) {
            broker.step(0, Input::Crash).unwrap();
        }
        if phase == Lifecycle::Rejoining {
            broker.step(0, Input::Restart { dead_links: vec![] }).unwrap();
        }
        assert_eq!(broker.lifecycle(), phase);
        broker
    }

    /// Which inputs each phase accepts (`ok`) and which it refuses, by
    /// the refusal's error label: `lifecycle` is the phase gate; `link`
    /// and `net` are refusals past it (a frame on a link with no channel,
    /// or one the channel cannot open).
    #[test]
    fn lifecycle_gates_inputs() {
        let mut rng = CryptoRng::from_seed(9);
        let producer = producer(&mut rng);
        let spec = SubscriptionSpec::new().gt("p", 1.0);
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(1), ClientId(1), &mut rng).unwrap();
        let unreg = producer.seal_unregistration(SubscriptionId(1), ClientId(1), &mut rng).unwrap();
        let inputs = [
            ("subscribe", Input::Subscribe { envelope }),
            ("unsubscribe", Input::Unsubscribe { envelope: unreg }),
            ("publish", Input::Publish { items: vec![], trace: TraceId::NONE }),
            ("tick", Input::Tick),
            ("crash", Input::Crash),
            ("restart", Input::Restart { dead_links: vec![] }),
            ("frame", Input::Frame { from: 1, bytes: vec![1] }),
        ];
        use Lifecycle::*;
        #[rustfmt::skip]
        let table = [
            //          subscribe    unsubscribe  publish      tick  crash restart      frame
            (Cold,      ["lifecycle", "lifecycle", "lifecycle", "ok", "ok", "lifecycle", "lifecycle"]),
            (Linking,   ["lifecycle", "lifecycle", "lifecycle", "ok", "ok", "lifecycle", "link"]),
            (Serving,   ["ok",        "ok",        "ok",        "ok", "ok", "lifecycle", "net"]),
            (Crashed,   ["lifecycle", "lifecycle", "lifecycle", "ok", "ok", "ok",        "lifecycle"]),
            (Rejoining, ["lifecycle", "lifecycle", "lifecycle", "ok", "ok", "lifecycle", "ok"]),
        ];
        for (phase, row) in table {
            for ((what, input), expected) in inputs.iter().zip(row) {
                let mut broker = in_phase(phase, &producer);
                let got = match broker.step(1, input.clone()) {
                    Ok(_) => "ok",
                    Err(err) => err.label(),
                };
                assert_eq!(got, expected, "{what} in {phase:?}");
            }
        }
        // Crash is idempotent: a second one emits nothing and keeps the
        // first crash's time, so the rejoin reports the whole downtime.
        // Ticks on a crashed broker are quiet.
        let (mut broker, _) = serving(0, 9, false, &[], &producer);
        broker.step(2, Input::Crash).unwrap();
        assert!(broker.step(3, Input::Crash).unwrap().is_empty());
        assert!(broker.step(4, Input::Tick).unwrap().is_empty());
        let outs = broker.step(12, Input::Restart { dead_links: vec![] }).unwrap();
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(LinkEvent::Rejoined { downtime: 10, .. }))));
    }

    /// A host that rewrites the producer's `SK` grant on its way into the
    /// enclave — swaps the producer key under CTR, or flips one sealed
    /// byte — fails provisioning: the broker stays `Cold`, with no trust
    /// anchors. The honest grant then provisions it.
    #[test]
    fn a_tampered_grant_leaves_the_broker_cold() {
        struct Host<'a>(&'a ProducerCrypto, &'a dyn Fn(&mut Vec<u8>));
        impl SkIssuer for Host<'_> {
            fn grant_sk(
                &self,
                request: &QuotedKey,
                service: &AttestationService,
                policy: &VerifierPolicy,
                rng: &mut CryptoRng,
            ) -> Result<Vec<u8>, ScbrError> {
                let mut grant = self.0.grant_sk(request, service, policy, rng)?;
                (self.1)(&mut grant);
                Ok(grant)
            }
        }
        let mut rng = CryptoRng::from_seed(10);
        let attacker = producer(&mut rng).public_key().to_bytes();
        let producer = producer(&mut rng);
        let honest = producer.public_key().to_bytes();
        // The producer key ends the plaintext, just before the tag.
        let swap = |grant: &mut Vec<u8>| {
            let at = grant.len() - scbr_crypto::poly1305::TAG_LEN - honest.len();
            for (i, (h, a)) in honest.iter().zip(&attacker).enumerate() {
                grant[at + i] ^= h ^ a;
            }
        };
        let flip = |grant: &mut Vec<u8>| grant[40] ^= 1;
        let mut broker = in_phase(Lifecycle::Cold, &producer);
        let mut service = AttestationService::new();
        service.trust_platform(broker.platform().attestation_public_key().clone());
        let policy = VerifierPolicy::require_mr_enclave(router_builder(&broker.code).measurement());
        for tamper in [&swap as &dyn Fn(&mut Vec<u8>), &flip] {
            let host = Host(&producer, tamper);
            assert!(broker.provision_attested(&service, &policy, &host, &mut rng).is_err());
            assert_eq!(broker.lifecycle(), Lifecycle::Cold);
            assert!(broker.trust.is_none());
        }
        broker.provision_attested(&service, &policy, &producer, &mut rng).unwrap();
        assert_eq!(broker.lifecycle(), Lifecycle::Linking);
    }

    /// Broker 0 has neighbours 1 and 2. Its link to 1 is up, its
    /// handshake with 2 is not, so it is still `Linking` when 1 —
    /// restarted and re-keyed — asks for a replay. The request is parked,
    /// and served when the link to 2 comes up and 0 starts serving.
    #[test]
    fn a_replay_request_parked_while_linking_is_served() {
        let mut rng = CryptoRng::from_seed(21);
        let producer = producer(&mut rng);
        let mut broker =
            Broker::attested(0, 21, ROUTER_ENCLAVE_CODE, false, EpcConfig::default()).unwrap();
        broker.set_neighbors(&[1, 2]);
        provision(&mut broker, &producer);
        let mut peers = relink(&mut broker);
        broker.peer(2).link = None; // the handshake with 2 is still open
        assert_eq!(broker.lifecycle(), Lifecycle::Linking);
        let request = peers.frame(1, &Message::ReplayRequest.to_wire());
        assert!(broker.step(0, request).unwrap().is_empty(), "parked, not served");

        broker.install_sealed_link(2, &[7; 32]);
        let mut outs = Vec::new();
        broker.post_link_up(2, &mut outs).unwrap();
        assert_eq!(broker.lifecycle(), Lifecycle::Serving);
        for now in 1..=50 {
            broker.step_into(now, Input::Tick, &mut outs).unwrap();
        }
        let to_one: Vec<Message> =
            frames(&outs).into_iter().filter(|f| f.to == 1).map(|f| peers.open(f)).collect();
        assert!(
            to_one.iter().any(|m| matches!(m, Message::ReplayDone { count: 0 })),
            "the parked replay was never served ({} frames to 1)",
            to_one.len()
        );
    }

    #[test]
    fn crash_drops_volatile_state_and_restart_restores_from_the_record() {
        // A neighbour-less broker: recovery comes from the sealed record
        // alone, so the restart transitions straight to Serving.
        let mut rng = CryptoRng::from_seed(10);
        let producer = producer(&mut rng);
        let (mut broker, _) = serving(0, 10, false, &[], &producer);
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
        // Keys are volatile: the relaunched enclave is attested again
        // before traffic.
        provision(&mut broker, &producer);
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
        let (mut broker, _) = serving(0, 4, false, &[], &producer);
        assert!(matches!(
            broker.step(0, Input::Frame { from: 9, bytes: b"junk".to_vec() }),
            Err(OverlayError::Link { reason: "no link to neighbour" })
        ));
    }

    /// Provisions both brokers against a service that trusts both
    /// platforms, so each accepts the other's quotes.
    fn trust_each_other(a: &mut Broker, b: &mut Broker, producer: &ProducerCrypto) {
        let mut service = AttestationService::new();
        service.trust_platform(a.platform().attestation_public_key().clone());
        service.trust_platform(b.platform().attestation_public_key().clone());
        provision_under(a, producer, &service);
        provision_under(b, producer, &service);
    }

    /// Steps `to` on every frame in `outs` addressed to it, in order, and
    /// returns everything those steps put out.
    fn deliver(to: &mut Broker, outs: &[Output]) -> Vec<Output> {
        let id = to.id();
        frames(outs)
            .into_iter()
            .filter(|f| f.to == id)
            .flat_map(|f| {
                to.step(0, Input::Frame { from: f.from, bytes: f.bytes.clone() }).unwrap()
            })
            .collect()
    }

    /// Two serving brokers open a handshake toward each other at once.
    /// b's completes first; a's own initiation is gone by then, and the
    /// answer to a's hello, arriving after that, is a no-op: a stays on
    /// the key both ends hold and the step does not fail.
    #[test]
    fn a_late_accept_for_a_handshake_the_link_outran_is_dropped() {
        let mut rng = CryptoRng::from_seed(18);
        let producer = producer(&mut rng);
        let (mut a, _) = serving(0, 18, false, &[1], &producer);
        let (mut b, _) = serving(1, 19, false, &[0], &producer);
        trust_each_other(&mut a, &mut b, &producer);

        let hello_a = frames(&[a.initiate(1).unwrap()])[0].bytes.clone();
        let hello_b = frames(&[b.initiate(0).unwrap()])[0].bytes.clone();
        let answer = |broker: &mut Broker, from: usize, bytes: Vec<u8>| -> Vec<u8> {
            let outs = broker.step(0, Input::Frame { from, bytes }).unwrap();
            frames(&outs)
                .into_iter()
                .find(|f| f.to == from)
                .expect("a handshake reply")
                .bytes
                .clone()
        };
        let accept_from_a = answer(&mut a, 1, hello_b);
        let accept_from_b = answer(&mut b, 0, hello_a);
        let finish_from_b = answer(&mut b, 0, accept_from_a);
        assert!(a.step(1, Input::Frame { from: 1, bytes: finish_from_b }).is_ok());
        assert!(a.peers[&1].initiation.is_none(), "the fresh channel dropped a's handshake");

        let late = a.step(2, Input::Frame { from: 1, bytes: accept_from_b }).unwrap();
        assert!(late.is_empty(), "nothing is left to finish: {late:?}");
        let envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("p", 1.0),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        let outs = a.step(3, Input::Subscribe { envelope }).unwrap();
        let forward = frames(&outs)[0];
        b.step(3, Input::Frame { from: 0, bytes: forward.bytes.clone() }).unwrap();
        assert_eq!(b.subscriptions(), 1, "both ends kept the same key");
    }

    /// Two brokers open a handshake toward each other at once and both
    /// accepts arrive before either finish. The higher id's handshake
    /// wins: a (0) withdrew its own on b's hello, so it drops b's answer
    /// to it, and both ends install the one key b's handshake agreed —
    /// on a link both already held (a re-key), and on one neither holds
    /// yet (two restarted brokers).
    #[test]
    fn crossed_handshakes_settle_on_one_key() {
        let mut rng = CryptoRng::from_seed(20);
        let producer = producer(&mut rng);
        let spec = SubscriptionSpec::new().gt("p", 1.0);
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(1), ClientId(1), &mut rng).unwrap();
        let publication = PublicationSpec::new().attr("p", 2.0);

        // Keyed: two serving brokers re-key their link at once.
        let (mut a, mut b) = linked_pair(&producer);
        trust_each_other(&mut a, &mut b, &producer);
        let (hello_a, hello_b) = (a.initiate(1).unwrap(), b.initiate(0).unwrap());
        let accept_a = deliver(&mut a, &[hello_b]);
        let accept_b = deliver(&mut b, &[hello_a]);
        let finish_a = deliver(&mut a, &accept_b);
        let finish_b = deliver(&mut b, &accept_a);
        deliver(&mut a, &finish_b);
        deliver(&mut b, &finish_a);
        // a's subscription crosses to b, and b's publication back to a.
        let outs = a.step(1, Input::Subscribe { envelope }).unwrap();
        deliver(&mut b, &outs);
        assert_eq!(b.subscriptions(), 1);
        let items = vec![item(&producer, &publication, &mut rng)];
        let outs = b.step(2, Input::Publish { items, trace: TraceId::NONE }).unwrap();
        assert_eq!(deliveries(&deliver(&mut a, &outs)).len(), 1, "one key, both directions");

        // Unkeyed: both crash. b restarts first, with a (still down) in
        // its dead view: it serves at once and probes a. a restarts into
        // `Rejoining` and opens its own handshake; the two cross.
        a.step(3, Input::Crash).unwrap();
        b.step(3, Input::Crash).unwrap();
        b.step(4, Input::Restart { dead_links: vec![0] }).unwrap();
        a.step(5, Input::Restart { dead_links: vec![] }).unwrap();
        trust_each_other(&mut a, &mut b, &producer);
        assert_eq!((a.lifecycle(), b.lifecycle()), (Lifecycle::Rejoining, Lifecycle::Serving));
        let hello_a = a.step(6, Input::Tick).unwrap();
        let hello_b = b.step(6, Input::Tick).unwrap();
        let accept_a = deliver(&mut a, &hello_b);
        let accept_b = deliver(&mut b, &hello_a);
        assert!(deliver(&mut a, &accept_b).is_empty(), "a withdrew the handshake b accepted");
        // b finishes its handshake and, its dead view proved stale, pulls
        // a replay; a installs b's key and asks for its own replay.
        let up_b = deliver(&mut b, &accept_a);
        let up_a = deliver(&mut a, &up_b);
        let requested = a.peers[&1].replay.as_ref().is_some_and(|r| r.requested_at.is_some());
        assert!(requested && frames(&up_a).len() == 1, "a asked for its replay on the new key");
        let replay_to_a = deliver(&mut b, &up_a);
        let replay_to_b = deliver(&mut a, &replay_to_a);
        assert!(replay_to_b.iter().any(|o| matches!(o, Output::Event(LinkEvent::Rejoined { .. }))));
        let healed = deliver(&mut b, &replay_to_b);
        assert!(healed.iter().any(|o| matches!(
            o,
            Output::Event(LinkEvent::Healed { link: 0, replayed: 1, dropped_stale: 0 })
        )));
        assert!(a.settled() && b.settled());
        let items = vec![item(&producer, &publication, &mut rng)];
        let outs = b.step(7, Input::Publish { items, trace: TraceId::NONE }).unwrap();
        assert_eq!(deliveries(&deliver(&mut a, &outs)).len(), 1, "one key after the rejoin");
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
        let (mut broker, _) = serving(0, 13, false, &[], &producer);
        assert!(broker.sealed_record().is_none());

        // Sealing adds the same few bytes to every entry, base or delta:
        // the entry is the payload the step sealed, plus that overhead.
        let mut overhead = None;
        let mut appended = 0;
        for i in 0..40u64 {
            let before = (broker.stats(), broker.sealed_record().map_or(0, <[u8]>::len));
            subscribe_n(&mut broker, &producer, &mut rng, i..i + 1);
            let (after, file) = (broker.stats(), broker.sealed_record().unwrap());
            assert_eq!(after.seals, before.0.seals + 1, "one checkpoint per mutating step");
            let entries = journal::split_entries(file).unwrap();
            assert_eq!(entries.len() as u64, 1 + after.log_entries);
            let payload = (after.sealed_bytes - before.0.sealed_bytes) as usize;
            let sealing = entries.last().unwrap().len() - payload;
            assert_eq!(*overhead.get_or_insert(sealing), sealing);
            if after.compactions == before.0.compactions {
                // A delta: the file only grew, by a few hundred bytes.
                assert_eq!(after.log_entries, before.0.log_entries + 1);
                assert!(file.len() > before.1 && payload < 400);
                appended += 1;
            } else {
                assert_eq!(after.log_entries, 0, "a base replaces the whole file");
                assert_eq!(payload, broker.core.serialize_record().len());
            }
            // The deltas never outgrow the base by more than one seal.
            let deltas: usize = entries[1..].iter().map(|d| d.len()).sum();
            assert!(deltas < entries[0].len() + sealing);
        }
        let stats = broker.stats();
        assert!(appended >= 30, "most checkpoints are deltas, got {appended}");
        assert!((3..=10).contains(&stats.compactions), "doubling rule: {}", stats.compactions);

        // A retiring step appends too — ten bytes, sealed — and the
        // retired envelope stays on the host's disk, counted.
        let overhead = overhead.unwrap();
        subscribe_n(&mut broker, &producer, &mut rng, 40..41);
        let retired = broker.core.live_envelope(SubscriptionId(40)).unwrap().len();
        let mut retire = |broker: &mut Broker, id: u64| {
            let unreg =
                producer.seal_unregistration(SubscriptionId(id), ClientId(id), &mut rng).unwrap();
            broker.step(41 + id, Input::Unsubscribe { envelope: unreg }).unwrap();
        };
        let before = (broker.stats(), broker.sealed_record().unwrap().len());
        assert!(before.0.log_entries > 0, "the envelope went to disk in a delta");
        retire(&mut broker, 40);
        let after = broker.stats();
        assert_eq!((after.seals, after.compactions), (stats.seals + 2, stats.compactions));
        assert_eq!(after.log_entries, before.0.log_entries + 1);
        assert_eq!(broker.sealed_record().unwrap().len(), before.1 + 4 + 10 + overhead);
        assert_eq!(broker.core.retired_bytes(), retired);

        // Retirements alone then cross the retired quarter, long before
        // their deltas could reach the base's size. That compaction takes
        // the retired envelopes off the disk.
        let mut by_retired_quarter = false;
        for id in 0..40 {
            let (log, compactions) = (broker.file.log, broker.stats().compactions);
            let retired_bytes = broker.core.retired_bytes()
                + broker.core.live_envelope(SubscriptionId(id)).unwrap().len();
            retire(&mut broker, id);
            assert!(broker.file.log.delta_bytes < broker.file.log.base_bytes + overhead);
            let quarter_reached = retired_bytes >= log.base_bytes / RETIRED_DIVISOR;
            if broker.stats().compactions == compactions {
                assert!(!quarter_reached && broker.core.retired_bytes() == retired_bytes);
                continue;
            }
            assert_eq!((broker.stats().log_entries, broker.core.retired_bytes()), (0, 0));
            assert_eq!(
                broker.file.log.base_bytes,
                broker.core.serialize_record().len() + overhead,
                "a compaction leaves one base, of the live set alone"
            );
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
        let (mut broker, _) = serving(0, 14, false, &[], &producer);
        let counter = broker.file.counter;
        let (mut bases, mut deltas) = (0, 0);
        for i in 0..12u64 {
            let before = broker.stats();
            broker.reset_counters();
            subscribe_n(&mut broker, &producer, &mut rng, i..i + 1);
            let after = broker.stats();
            assert_eq!(after.ecalls, 2, "admission + checkpoint, base or delta");
            assert_eq!(
                broker.platform().read_counter(counter).unwrap(),
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
        assert_eq!(broker.phase.enclave().unwrap().ecall_count(), 1, "unseal + restore + redo");
        assert_eq!(broker.core.serialize_record(), record);
        let on_disk = journal::split_entries(broker.sealed_record().unwrap()).unwrap().len();
        assert_eq!(broker.stats().log_entries, on_disk as u64 - 1);
    }

    #[test]
    fn a_crash_discards_the_pending_journal_with_the_mutations_it_describes() {
        let mut rng = CryptoRng::from_seed(15);
        let producer = producer(&mut rng);
        let (mut broker, _) = serving(0, 15, false, &[], &producer);
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
        assert!(broker.core.journal_len() > 0);
        broker.step(10, Input::Crash).unwrap();
        assert_eq!(broker.core.journal_len(), 0);
        assert_eq!(broker.file.pending, None);
        assert_eq!(broker.sealed_record().unwrap(), file, "a crash writes nothing");

        broker.step(11, Input::Restart { dead_links: vec![] }).unwrap();
        assert_eq!(broker.core.serialize_record(), flushed, "the last flushed state, exactly");
        assert_eq!(broker.subscriptions(), 5);
    }

    /// A failed delta seal is dropped: the next step seals nothing and
    /// succeeds. Closing a rejoin's last replay owes a base; when that
    /// checkpoint fails, the base stays owed, every later step retries
    /// it, and the first one that can seal writes it.
    #[test]
    fn a_failed_checkpoint_still_owes_its_base() {
        let mut rng = CryptoRng::from_seed(22);
        let producer = producer(&mut rng);
        let (mut broker, _) = serving(0, 22, false, &[1], &producer);
        subscribe_n(&mut broker, &producer, &mut rng, 0..3);
        let other = SgxPlatform::for_testing(0);
        other.create_counter();
        let missing = other.create_counter();
        assert!(broker.platform().read_counter(missing).is_err());
        let counter = std::mem::replace(&mut broker.file.counter, missing);

        let envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("p", 50.0),
                SubscriptionId(50),
                ClientId(50),
                &mut rng,
            )
            .unwrap();
        assert!(broker.step(3, Input::Subscribe { envelope }).is_err(), "the delta failed");
        assert_eq!(broker.file.pending, None, "a failed delta is not owed");
        let seals = broker.stats().seals;
        broker.step(4, Input::Tick).unwrap();
        assert_eq!(broker.stats().seals, seals, "nothing retried");
        broker.file.counter = counter;

        broker.step(5, Input::Crash).unwrap();
        broker.step(6, Input::Restart { dead_links: vec![] }).unwrap();
        let mut peers = relink(&mut broker);
        let counter = std::mem::replace(&mut broker.file.counter, missing);
        let done = peers.frame(1, &Message::ReplayDone { count: 0 }.to_wire());
        assert!(broker.step(7, done).is_err(), "the base could not be sealed");
        assert_eq!(broker.lifecycle(), Lifecycle::Serving);
        assert_eq!(broker.file.pending, Some(Seal::Base));
        assert!(broker.step(8, Input::Tick).is_err(), "the owed base is retried");
        assert_eq!(broker.file.pending, Some(Seal::Base));

        broker.file.counter = counter;
        let compactions = broker.stats().compactions;
        broker.step(9, Input::Tick).unwrap();
        let stats = broker.stats();
        assert_eq!((stats.compactions, stats.log_entries), (compactions + 1, 0));
        assert_eq!(broker.file.pending, None);
    }

    #[test]
    fn an_edited_journal_is_refused_by_the_redo() {
        // The seal chain keeps the host from editing the file at all
        // (`failover.rs`). Behind it, redo still refuses a journal the
        // live core could not have written instead of skipping an entry:
        // the live core journals a retirement only for an id it holds.
        let mut rng = CryptoRng::from_seed(16);
        let producer = producer(&mut rng);
        let (mut broker, _) = serving(0, 16, false, &[], &producer);
        subscribe_n(&mut broker, &producer, &mut rng, 0..6);
        let base = broker.core.serialize_record();
        // A journalled retirement: kind 2 ‖ id ‖ origin (0, local).
        let removal = |id: u64| [&[2][..], &id.to_be_bytes(), &[0]].concat();
        let mut torn = removal(1);
        torn.truncate(torn.len() - 3);
        let (unknown_kind, never_admitted) = ([3, 0, 0, 0, 0, 0, 0, 0, 77, 0], removal(77));
        let once = removal(0);
        for (record, what) in [
            (vec![&base[..], &unknown_kind], "delta entry of a kind the journal does not have"),
            (vec![&base[..], &never_admitted], "removal of an id that was never admitted"),
            (vec![&base[..], &once, &once], "removal of an id already removed"),
            (vec![&base[..], &torn], "torn delta"),
            (vec![&once[..]], "delta in base position"),
        ] {
            let refused = BrokerCore::restore(&record, &native(), false, &[]);
            assert!(matches!(refused, Err(ScbrError::Codec { .. })), "{what}: {:?}", refused.err());
        }
        let genuine = BrokerCore::restore(&[&base, &once], &native(), false, &[]).unwrap();
        assert_eq!(genuine.live_count(), 5);
    }

    #[test]
    fn a_record_in_the_old_single_slice_layout_is_refused() {
        // The seal does not know layouts: an old record opens, and the
        // restore then refuses it.
        let mut rng = CryptoRng::from_seed(17);
        let producer = producer(&mut rng);
        let (mut broker, _) = serving(0, 17, false, &[], &producer);
        subscribe_n(&mut broker, &producer, &mut rng, 0..3);
        let record = broker.core.serialize_record();
        // The layout opens `u32::MAX ‖ version`, then the engine snapshot,
        // length first. The oldest layout began directly with that
        // snapshot; version 1 put a slice count before it.
        assert_eq!(record[..5], [0xff, 0xff, 0xff, 0xff, RECORD_VERSION]);
        let unversioned = &record[5..];
        let mut counted = vec![0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 1];
        counted.extend_from_slice(unversioned);
        for (layout, what) in [(unversioned, "unversioned"), (&counted[..], "version 1, counted")] {
            let refused = BrokerCore::restore(&[layout], &native(), false, &[]);
            assert!(matches!(refused, Err(ScbrError::Codec { .. })), "{what}: {:?}", refused.err());
        }
        assert_eq!(BrokerCore::restore(&[&record], &native(), false, &[]).unwrap().live_count(), 3);
    }
}
