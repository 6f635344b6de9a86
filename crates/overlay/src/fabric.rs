//! The overlay fabric: a thin deterministic scheduler over broker state
//! machines.
//!
//! [`OverlayFabric`] owns one [`Broker`] per router of a [`Topology`] and
//! drives the deployment by shuttling [`Output`]s back in as [`Input`]s:
//!
//! 1. **Bootstrap** — every broker runs on its own simulated SGX
//!    machine; the producer provisions `SK` into each enclave via remote
//!    attestation, and a timer tick makes every tree
//!    edge's lower endpoint initiate the mutual-quote handshake of
//!    [`sgx_sim::link`]. The fabric forwards the handshake frames until
//!    every broker reports `Serving`; all subsequent frames on an edge
//!    travel through sealed channels ([`scbr_net::SecureLink`]).
//! 2. **Traffic** — subscriptions, unsubscriptions and publication
//!    batches enter at an edge broker as local inputs; the fabric pumps
//!    the resulting frames breadth-first until the tree is quiescent, so
//!    traffic order is deterministic for a given seed.
//! 3. **Failure** — [`OverlayFabric::crash`] feeds a broker the `Crash`
//!    admin command (all volatile state gone; frames to it are dropped
//!    and counted), and [`OverlayFabric::restart`] drives the full
//!    rejoin: restart from the sealed record, re-attestation, link
//!    re-keying, neighbour replay, stale-subscription reconciliation.
//!    The per-edge frame counters expose exactly which links carried
//!    recovery traffic.
//! 4. **Detection** — [`OverlayFabric::tick_round`] drives every
//!    broker's liveness timers (one heartbeat per link per tick, the
//!    fixed [`SUSPECT_AFTER`](crate::broker::SUSPECT_AFTER) and
//!    [`GAP_GRACE`](crate::broker::GAP_GRACE)) and aggregates their
//!    [`LinkEvent::Suspect`] accusations: once a majority of a broker's
//!    *live* neighbours accuse it of silence, the fabric fences it
//!    (`Crash` observed) and starts its rejoin automatically — no
//!    operator call. [`OverlayFabric::run_detection`] loops rounds until
//!    every broker has settled, recovering any number of concurrently
//!    crashed brokers, adjacent ones included.

use crate::broker::{
    Broker, BrokerStats, Input, Lifecycle, LinkEvent, LinkFrame, LocalDeliveries, Output,
    SuspectReason,
};
use crate::error::OverlayError;
use crate::topology::Topology;
use scbr::ids::{ClientId, KeyEpoch, SubscriptionId};
use scbr::protocol::keys::ProducerCrypto;
use scbr::protocol::messages::PublishItem;
use scbr::{PublicationSpec, ScbrError, SubscriptionSpec};
use scbr_crypto::rng::CryptoRng;
use scbr_telemetry::{BrokerTelemetry, MetricsRegistry, TelemetrySnapshot, TraceId};
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::EpcConfig;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The measured content of the genuine overlay routing enclave. A broker
/// built from different code has a different `MRENCLAVE` and is refused
/// by every honest peer's link policy.
pub const ROUTER_ENCLAVE_CODE: &[u8] = b"scbr overlay routing engine v1";

/// The `MRENCLAVE` all genuine overlay routers share.
pub fn router_measurement() -> sgx_sim::enclave::Measurement {
    crate::broker::router_builder(ROUTER_ENCLAVE_CODE).measurement()
}

/// How subscriptions propagate through the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Propagation {
    /// Forward a subscription on a link only when nothing already
    /// forwarded there covers it (the real mode).
    CoveringPruned,
    /// Forward every subscription on every link (the equivalence oracle).
    Flood,
}

/// Fabric construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Seed for all deterministic key material and workload encryption.
    pub seed: u64,
    /// Subscription-propagation mode.
    pub propagation: Propagation,
    /// Hot-path telemetry on every broker: per-stage latency histograms,
    /// trace ids on published batches, per-hop flight records. Off by
    /// default — the instrumented and uninstrumented hot paths are
    /// behaviourally identical, but off keeps the crossing counts
    /// byte-for-byte those of the seed fabric.
    pub telemetry: bool,
    /// EPC geometry of every broker's machine. The scale-out experiments
    /// shrink it so one broker's index overflows the usable EPC while a
    /// star's leaves each fit.
    pub epc: EpcConfig,
}

impl FabricConfig {
    /// The default production-shaped configuration: attested brokers,
    /// covering-pruned propagation.
    pub fn attested(seed: u64) -> Self {
        FabricConfig {
            seed,
            propagation: Propagation::CoveringPruned,
            telemetry: false,
            epc: EpcConfig::default(),
        }
    }

    /// Enables hot-path telemetry (stage histograms + cross-hop tracing)
    /// on every broker.
    #[must_use]
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }
}

/// One delivered publication: which edge client received which
/// publication of a [`OverlayFabric::publish`] call, at which router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Delivery {
    /// The broker that delivered.
    pub router: usize,
    /// The receiving edge client.
    pub client: ClientId,
    /// Index of the publication within the published batch.
    pub publication: usize,
}

/// What a completed [`OverlayFabric::restart`] cost and recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinReport {
    /// Live subscriptions restored from the sealed recovery record.
    pub restored: usize,
    /// Registration envelopes replayed by the surviving neighbours.
    pub replayed: usize,
    /// Restored subscriptions the neighbours no longer vouched for
    /// (unsubscribed during the outage), dropped and propagated.
    pub dropped_stale: usize,
    /// Total frames the rejoin put on the wire (handshakes, replay,
    /// reconciliation), summed over all links.
    pub recovery_frames: u64,
}

/// One automatic fence-and-restart performed by the detection loop: the
/// fabric observed quorum suspicion against `router` during detection
/// round `round` and started its rejoin with no operator call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoRejoin {
    /// The broker that was fenced and restarted.
    pub router: usize,
    /// The detection round (see [`OverlayFabric::tick_round`]) in which
    /// quorum was reached.
    pub round: u64,
}

/// A running overlay of attested brokers.
pub struct OverlayFabric {
    topology: Topology,
    brokers: Vec<Broker>,
    producer: ProducerCrypto,
    rng: CryptoRng,
    next_sub: u64,
    /// Every subscription ever issued: id → (edge router, client). Kept
    /// across removal so a double-unsubscribe is recognised (idempotent)
    /// while a never-issued id is a clean error.
    issued: BTreeMap<SubscriptionId, (usize, ClientId)>,
    epoch: KeyEpoch,
    /// The trust anchors, kept for re-attestation on restart.
    service: AttestationService,
    policy: VerifierPolicy,
    /// The scheduler's virtual clock: one tick per dispatched input.
    clock: u64,
    /// Frames put on each directed edge, cumulative.
    edge_frames: BTreeMap<(usize, usize), u64>,
    /// Frames dropped (crashed destination or injected loss), cumulative.
    dropped_frames: u64,
    /// Frames dropped per directed edge, cumulative (the loss-injection
    /// ledger: sums to `dropped_frames`).
    edge_drops: BTreeMap<(usize, usize), u64>,
    /// One-shot frame-loss injection per directed edge (test hook for
    /// the sequence-gap liveness signal).
    drop_plan: BTreeSet<(usize, usize)>,
    /// Typed events surfaced by brokers, in dispatch order.
    events: Vec<(usize, LinkEvent)>,
    /// Standing silence accusations: suspect → the neighbours currently
    /// accusing it. Fed by `Suspect { reason: Silence }` events, drained
    /// by `Cleared` events and by accuser crashes; `Gap` suspicions heal
    /// at link level and never enter.
    suspicions: BTreeMap<usize, BTreeSet<usize>>,
    /// Detection rounds run so far ([`OverlayFabric::tick_round`]).
    rounds: u64,
    /// Whether the fabric was built with telemetry enabled.
    telemetry: bool,
    /// Next trace id handed out by [`OverlayFabric::publish_traced`]
    /// (starts at 1; 0 is the untraced sentinel).
    next_trace: u64,
    /// Per-broker tick stride: a broker with stride `s` receives a timer
    /// tick only every `s`-th detection round (models a slow-but-alive
    /// host whose heartbeats are delayed, not lost). Default 1.
    strides: BTreeMap<usize, u64>,
    /// The scheduler's buffers, reused across dispatches: the frames in
    /// flight, one step's outputs, the delivery records a dispatch
    /// collects, and the sort keys a publication's deliveries are
    /// ordered by.
    queue: VecDeque<LinkFrame>,
    outs: Vec<Output>,
    delivered: Vec<LocalDeliveries>,
    keys: Vec<u128>,
}

impl std::fmt::Debug for OverlayFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlayFabric")
            .field("routers", &self.topology.routers())
            .field("subscriptions", &self.next_sub)
            .finish()
    }
}

impl OverlayFabric {
    /// Builds, attests and links a fabric over `topology`, generating a
    /// fresh producer identity from the config seed.
    ///
    /// # Errors
    ///
    /// Enclave-launch, attestation, provisioning or handshake failures.
    pub fn build(topology: Topology, config: FabricConfig) -> Result<Self, OverlayError> {
        let mut rng = CryptoRng::from_seed(config.seed);
        let producer = ProducerCrypto::new(&mut rng);
        Self::build_with_producer(topology, config, producer)
    }

    /// Builds, attests and links a fabric around an existing producer
    /// identity (whose `SK` the enclaves will share). Useful when one
    /// service provider runs several fabrics, and for tests that compare
    /// fabrics without regenerating keys.
    ///
    /// # Errors
    ///
    /// Enclave-launch, attestation, provisioning or handshake failures.
    pub fn build_with_producer(
        topology: Topology,
        config: FabricConfig,
        producer: ProducerCrypto,
    ) -> Result<Self, OverlayError> {
        let mut rng = CryptoRng::from_seed(config.seed);
        let flood = config.propagation == Propagation::Flood;
        let n = topology.routers();
        let mut brokers = Vec::with_capacity(n);
        // Each broker is its own machine; the attestation service (the
        // producer's trust anchor) knows all their platforms.
        let mut service = AttestationService::new();
        for id in 0..n {
            let seed = config.seed.wrapping_mul(7919).wrapping_add(id as u64 + 1);
            let mut broker = Broker::attested(id, seed, ROUTER_ENCLAVE_CODE, flood, config.epc)?;
            broker.set_neighbors(topology.neighbors(id));
            service.trust_platform(broker.platform().attestation_public_key().clone());
            brokers.push(broker);
        }
        let policy = VerifierPolicy::require_mr_enclave(router_measurement());
        for broker in &mut brokers {
            broker.provision_attested(&service, &policy, &producer, &mut rng)?;
        }
        if config.telemetry {
            for broker in &mut brokers {
                broker.set_telemetry(true);
            }
        }
        let mut fabric = OverlayFabric {
            topology,
            brokers,
            producer,
            rng,
            next_sub: 0,
            issued: BTreeMap::new(),
            epoch: KeyEpoch(0),
            service,
            policy,
            clock: 0,
            edge_frames: BTreeMap::new(),
            dropped_frames: 0,
            edge_drops: BTreeMap::new(),
            drop_plan: BTreeSet::new(),
            events: Vec::new(),
            suspicions: BTreeMap::new(),
            rounds: 0,
            telemetry: config.telemetry,
            next_trace: 1,
            strides: BTreeMap::new(),
            queue: VecDeque::new(),
            outs: Vec::new(),
            delivered: Vec::new(),
            keys: Vec::new(),
        };
        // One tick round: every edge's lower endpoint initiates; the pump
        // completes all handshakes synchronously.
        fabric.tick_all()?;
        for broker in &fabric.brokers {
            debug_assert_eq!(broker.lifecycle(), Lifecycle::Serving, "bring-up incomplete");
        }
        Ok(fabric)
    }

    /// The broker tree.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The producer whose `SK` the fabric's enclaves share.
    pub fn producer(&self) -> &ProducerCrypto {
        &self.producer
    }

    /// The group-key epoch currently stamped onto publications.
    pub fn epoch(&self) -> KeyEpoch {
        self.epoch
    }

    /// Advances the publication epoch (operator-driven key rotation).
    // lint: allow(SL08, epoch_advances_across_a_restart in tests/failover.rs)
    pub fn set_epoch(&mut self, epoch: KeyEpoch) {
        self.epoch = epoch;
    }

    /// The lifecycle state of router `at`.
    ///
    /// # Panics
    ///
    /// Panics when `at` is out of range.
    pub fn lifecycle(&self, at: usize) -> Lifecycle {
        self.brokers[at].lifecycle()
    }

    /// Checks an injection point against the topology.
    fn check_router(&self, at: usize) -> Result<(), OverlayError> {
        if at >= self.brokers.len() {
            return Err(OverlayError::Topology { reason: "router out of range" });
        }
        Ok(())
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Feeds every broker one timer tick and pumps the fallout.
    fn tick_all(&mut self) -> Result<(), OverlayError> {
        for id in 0..self.brokers.len() {
            if self.brokers[id].lifecycle() != Lifecycle::Crashed {
                self.dispatch(id, Input::Tick)?;
            }
        }
        Ok(())
    }

    /// Dispatches one input to one broker and pumps the resulting frames
    /// breadth-first until the tree is quiescent, collecting the local
    /// delivery records made along the way in `self.delivered`.
    fn dispatch(&mut self, at: usize, input: Input) -> Result<(), OverlayError> {
        self.delivered.clear();
        let (mut queue, mut outs) =
            (std::mem::take(&mut self.queue), std::mem::take(&mut self.outs));
        let pumped = self.pump(at, input, &mut queue, &mut outs);
        queue.clear();
        outs.clear();
        (self.queue, self.outs) = (queue, outs);
        pumped
    }

    /// The scheduler core: frames out of one broker become inputs to the
    /// next; deliveries and events are collected. Frames to crashed
    /// brokers (and frames scheduled for loss injection) are dropped and
    /// counted — the sender finds out the way a real deployment does.
    fn pump(
        &mut self,
        at: usize,
        input: Input,
        queue: &mut VecDeque<LinkFrame>,
        outs: &mut Vec<Output>,
    ) -> Result<(), OverlayError> {
        let now = self.tick();
        self.brokers[at].step_into(now, input, outs)?;
        self.absorb(at, outs, queue);
        while let Some(frame) = queue.pop_front() {
            let edge = (frame.from, frame.to);
            *self.edge_frames.entry(edge).or_default() += 1;
            let doomed = self.brokers[frame.to].lifecycle() == Lifecycle::Crashed
                || self.drop_plan.remove(&edge);
            if doomed {
                self.dropped_frames += 1;
                *self.edge_drops.entry(edge).or_default() += 1;
                continue;
            }
            let now = self.tick();
            let input = Input::Frame { from: frame.from, bytes: frame.bytes };
            self.brokers[frame.to].step_into(now, input, outs)?;
            self.absorb(frame.to, outs, queue);
        }
        Ok(())
    }

    /// Takes one step's outputs at `router`: frames join the queue,
    /// delivery records are collected and events are logged.
    fn absorb(&mut self, router: usize, outs: &mut Vec<Output>, queue: &mut VecDeque<LinkFrame>) {
        for out in outs.drain(..) {
            match out {
                Output::Frame(frame) => queue.push_back(frame),
                Output::Deliveries(records) => self.delivered.push(records),
                Output::Event(event) => {
                    // Mirror the liveness accusations into the fabric's
                    // aggregate view. Only silence counts toward node
                    // death; a gap accuses the channel, not the peer
                    // (which provably sent the frame).
                    match &event {
                        LinkEvent::Suspect { link, reason: SuspectReason::Silence } => {
                            self.suspicions.entry(*link).or_default().insert(router);
                        }
                        LinkEvent::Cleared { link } => {
                            if let Some(accusers) = self.suspicions.get_mut(link) {
                                accusers.remove(&router);
                                if accusers.is_empty() {
                                    self.suspicions.remove(link);
                                }
                            }
                        }
                        _ => {}
                    }
                    self.events.push((router, event));
                }
            }
        }
    }

    /// Registers `client`'s subscription at edge router `at` and
    /// propagates it through the tree.
    ///
    /// # Errors
    ///
    /// An out-of-range `at`, a crashed (or otherwise not-serving) edge
    /// broker, or registration/link failures anywhere along the
    /// propagation.
    pub fn subscribe(
        &mut self,
        at: usize,
        client: ClientId,
        spec: &SubscriptionSpec,
    ) -> Result<SubscriptionId, OverlayError> {
        self.check_router(at)?;
        let id = SubscriptionId(self.next_sub);
        self.next_sub += 1;
        let envelope = self
            .producer
            .seal_registration(spec, id, client, &mut self.rng)
            .map_err(OverlayError::Routing)?;
        self.dispatch(at, Input::Subscribe { envelope })?;
        self.issued.insert(id, (at, client));
        Ok(id)
    }

    /// Re-registers subscription `id` with a new filter at its home
    /// router — same id and client, a freshly sealed envelope. The
    /// new filter replaces the old one at every broker the subscription
    /// had reached, and on every link it had been forwarded on,
    /// subscriptions pruned behind the old filter that the new one no
    /// longer covers are re-forwarded ahead of the replacement.
    ///
    /// # Errors
    ///
    /// As [`OverlayFabric::unsubscribe`].
    // lint: allow(SL08, lifecycle_proptests.rs lifecycle_interleavings_stay_oracle_equivalent)
    pub fn resubscribe(
        &mut self,
        id: SubscriptionId,
        spec: &SubscriptionSpec,
    ) -> Result<(), OverlayError> {
        let &(at, client) = self
            .issued
            .get(&id)
            .ok_or(OverlayError::Routing(ScbrError::NotFound { what: "subscription" }))?;
        let envelope = self
            .producer
            .seal_registration(spec, id, client, &mut self.rng)
            .map_err(OverlayError::Routing)?;
        self.dispatch(at, Input::Subscribe { envelope })?;
        Ok(())
    }

    /// Retires subscription `id`, propagating the removal through the
    /// tree: each broker drops the entry from its index, and on every
    /// link the subscription had been forwarded on, newly *uncovered*
    /// subscriptions are re-forwarded ahead of the removal (Siena's
    /// uncovering rule). Returns whether the subscription was still live —
    /// a second unsubscribe of the same id is an idempotent `Ok(false)`.
    ///
    /// # Errors
    ///
    /// An id this fabric never issued is a clean
    /// [`ScbrError::NotFound`] error; a crashed home broker is a
    /// lifecycle error; link/authentication failures propagate.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<bool, OverlayError> {
        let &(at, client) = self
            .issued
            .get(&id)
            .ok_or(OverlayError::Routing(ScbrError::NotFound { what: "subscription" }))?;
        let envelope = self
            .producer
            .seal_unregistration(id, client, &mut self.rng)
            .map_err(OverlayError::Routing)?;
        let before = self.events.len();
        self.dispatch(at, Input::Unsubscribe { envelope })?;
        let removed = self.events[before..].iter().any(|(router, event)| {
            *router == at
                && matches!(event, LinkEvent::Unsubscribed { id: rid, removed: true } if *rid == id)
        });
        Ok(removed)
    }

    /// Publishes a batch at router `at`, forwarding it hop by hop, and
    /// returns every edge delivery (sorted by router, client,
    /// publication index). Frames toward crashed brokers are dropped —
    /// their subtree is unreachable until it rejoins.
    ///
    /// # Errors
    ///
    /// An out-of-range `at`, a not-serving injection broker, or
    /// matching/link failures anywhere along the forwarding paths.
    pub fn publish(
        &mut self,
        at: usize,
        publications: &[PublicationSpec],
    ) -> Result<Vec<Delivery>, OverlayError> {
        self.publish_traced(at, publications).map(|(_, deliveries)| deliveries)
    }

    /// [`OverlayFabric::publish`], also returning the batch's trace id.
    /// With telemetry enabled the producer assigns a fresh id (carried
    /// in clear alongside the sealed frames and recorded per hop — read
    /// the hops back via [`OverlayFabric::telemetry`]); with telemetry
    /// off the id is [`TraceId::NONE`].
    ///
    /// # Errors
    ///
    /// As [`OverlayFabric::publish`].
    pub fn publish_traced(
        &mut self,
        at: usize,
        publications: &[PublicationSpec],
    ) -> Result<(TraceId, Vec<Delivery>), OverlayError> {
        self.check_router(at)?;
        let trace = if self.telemetry {
            let trace = TraceId(self.next_trace);
            self.next_trace += 1;
            trace
        } else {
            TraceId::NONE
        };
        let epoch = self.epoch;
        let items: Vec<PublishItem> = publications
            .iter()
            .enumerate()
            .map(|(i, p)| PublishItem {
                header_ct: self.producer.encrypt_header(p, &mut self.rng),
                epoch,
                // The payload is opaque to routers; the fabric tags it
                // with the batch index so tests can identify deliveries.
                payload_ct: (i as u32).to_be_bytes().to_vec(),
            })
            .collect();
        let mut deliveries = Vec::new();
        let expanded = self
            .dispatch(at, Input::Publish { items, trace })
            .and_then(|()| expand_deliveries(&self.delivered, &mut self.keys, &mut deliveries));
        // Dropping the records hands each broker its delivery buffer back.
        self.delivered.clear();
        expanded?;
        Ok((trace, deliveries))
    }

    // ---- failure and recovery ------------------------------------------

    /// Crashes router `at`: every piece of volatile state is gone, and
    /// until [`OverlayFabric::restart`] completes, frames toward it are
    /// dropped (and counted in [`OverlayFabric::dropped_frames`]).
    ///
    /// # Errors
    ///
    /// An out-of-range `at`.
    pub fn crash(&mut self, at: usize) -> Result<(), OverlayError> {
        self.check_router(at)?;
        self.dispatch(at, Input::Crash)?;
        // A dead broker's standing accusations die with its state.
        self.suspicions.retain(|_, accusers| {
            accusers.remove(&at);
            !accusers.is_empty()
        });
        Ok(())
    }

    /// Restarts crashed router `at` and drives the full rejoin to
    /// completion: unseal + restore, re-attestation,
    /// link re-keying with every neighbour, neighbour replay of the live
    /// forwarded sets, and reconciliation of subscriptions removed
    /// during the outage. Returns what the recovery restored and cost.
    ///
    /// # Errors
    ///
    /// A broker that is not crashed, a stale (rolled-back) sealed
    /// record — the broker then *stays crashed* — or any attestation,
    /// handshake or replay failure.
    pub fn restart(&mut self, at: usize) -> Result<RejoinReport, OverlayError> {
        self.check_router(at)?;
        // The scheduler is the liveness oracle: neighbours that are not
        // serving cannot answer a replay right now, so the rejoiner skips
        // them — their own rejoin replays from `at` and reconciles both
        // sides, and `at`'s liveness timers heal the skipped link the
        // moment it is re-keyed. Adjacent concurrent crashes recover in
        // any order: a replay request toward a still-rejoining neighbour
        // parks there and drains when that neighbour starts serving.
        let dead_links: Vec<usize> = self
            .topology
            .neighbors(at)
            .iter()
            .copied()
            .filter(|&n| self.brokers[n].lifecycle() != Lifecycle::Serving)
            .collect();
        self.restart_with_liveness_view(at, &dead_links)
    }

    /// [`OverlayFabric::restart`] with an explicit (possibly wrong)
    /// liveness view instead of the scheduler-oracle one: `dead_links`
    /// is what the operator *believes* is down. Neighbours named there
    /// are skipped at rejoin — a stale entry naming a live neighbour
    /// leaves that link un-rekeyed until the heartbeat timers heal it
    /// (probe handshake + pull replay), which is exactly what the
    /// stale-view regression tests pin.
    ///
    /// # Errors
    ///
    /// As [`OverlayFabric::restart`].
    pub fn restart_with_liveness_view(
        &mut self,
        at: usize,
        dead_links: &[usize],
    ) -> Result<RejoinReport, OverlayError> {
        self.check_router(at)?;
        let frames_before: u64 = self.edge_frames.values().sum();
        let events_before = self.events.len();
        self.begin_restart(at, dead_links)?;
        // One tick initiates every incident handshake, each followed by
        // its replay request; the pump completes the rejoin
        // synchronously. The extra iterations cover multi-round heal
        // chains (e.g. a neighbour pulling its own replay back).
        for _ in 0..4 {
            if self.brokers[at].lifecycle() == Lifecycle::Serving {
                break;
            }
            self.dispatch(at, Input::Tick)?;
        }
        if self.brokers[at].lifecycle() != Lifecycle::Serving {
            // Leave a cleanly restartable state rather than a broker
            // wedged mid-rejoin: re-crash it (the sealed record on the
            // host disk is untouched) so the caller can retry.
            self.dispatch(at, Input::Crash)?;
            return Err(OverlayError::Lifecycle {
                reason: "rejoin did not complete; broker re-crashed for a clean retry",
            });
        }
        let mut restored = 0;
        let mut replayed = 0;
        let mut dropped_stale = 0;
        for (router, event) in &self.events[events_before..] {
            if *router != at {
                continue;
            }
            match event {
                LinkEvent::RejoinStarted { restored: r } => restored = *r,
                LinkEvent::Rejoined { replayed: r, dropped_stale: d, .. } => {
                    replayed = *r;
                    dropped_stale = *d;
                }
                _ => {}
            }
        }
        let recovery_frames = self.edge_frames.values().sum::<u64>() - frames_before;
        Ok(RejoinReport { restored, replayed, dropped_stale, recovery_frames })
    }

    /// Dispatches the `Restart` input and re-attests the relaunched
    /// enclave *without* driving the rejoin to completion — subsequent
    /// timer ticks carry it forward. Splitting this off is what lets the
    /// detection loop hold several adjacent brokers mid-rejoin at once.
    fn begin_restart(&mut self, at: usize, dead_links: &[usize]) -> Result<(), OverlayError> {
        self.dispatch(at, Input::Restart { dead_links: dead_links.to_vec() })?;
        let producer = self.producer.clone();
        self.brokers[at].provision_attested(&self.service, &self.policy, &producer, &mut self.rng)
    }

    // ---- timer-driven failure detection --------------------------------

    /// Runs one detection round: every broker (respecting its tick
    /// stride) receives a timer tick — driving heartbeats, suspicion
    /// timeouts, probes and replay kick-offs — and the fabric then
    /// converts quorum suspicion into automatic fence-and-restart. A
    /// broker is fenced once a **majority of its currently-serving
    /// neighbours** accuse it of silence; the fence (`Crash` observed)
    /// is idempotent for a genuinely dead broker, and the restart is
    /// incremental — an adjacent broker may be fenced in the same round,
    /// and both rejoins proceed concurrently across subsequent rounds
    /// (replay requests toward a still-rejoining neighbour park there
    /// and drain when it starts serving).
    ///
    /// Returns the fence-and-restarts performed this round.
    ///
    /// # Errors
    ///
    /// Tick, pump or restart failures.
    pub fn tick_round(&mut self) -> Result<Vec<AutoRejoin>, OverlayError> {
        self.rounds += 1;
        for id in 0..self.brokers.len() {
            if self.brokers[id].lifecycle() == Lifecycle::Crashed {
                continue;
            }
            let stride = self.strides.get(&id).copied().unwrap_or(1).max(1);
            if self.rounds.is_multiple_of(stride) {
                self.dispatch(id, Input::Tick)?;
            }
        }
        let mut rejoins = Vec::new();
        let candidates: Vec<usize> = self.suspicions.keys().copied().collect();
        for suspect in candidates {
            if self.brokers[suspect].lifecycle() == Lifecycle::Rejoining {
                continue; // restart already in flight
            }
            let serving_accusers = self
                .suspicions
                .get(&suspect)
                .map_or(0, |a| a.iter().filter(|&&n| self.is_serving(n)).count());
            let live_neighbors =
                self.topology.neighbors(suspect).iter().filter(|&&n| self.is_serving(n)).count();
            // Majority of the *live* neighbourhood: a single partitioned
            // edge cannot fence a well-connected broker, but a broker
            // whose only live neighbour accuses it is fenced — that is
            // what unwedges cascades of adjacent crashes.
            let quorum = live_neighbors / 2 + 1;
            if live_neighbors == 0 || serving_accusers < quorum {
                continue;
            }
            // Fence: observe the crash (idempotent if the broker really
            // is dead) so the restart starts from a clean slate, then
            // begin the rejoin. Dead-link view for the rejoiner: only
            // neighbours that are *crashed right now* are skipped — a
            // rejoining neighbour will serve the parked replay later.
            self.crash(suspect)?;
            let dead_links: Vec<usize> = self
                .topology
                .neighbors(suspect)
                .iter()
                .copied()
                .filter(|&n| self.brokers[n].lifecycle() == Lifecycle::Crashed)
                .collect();
            self.begin_restart(suspect, &dead_links)?;
            self.suspicions.remove(&suspect);
            rejoins.push(AutoRejoin { router: suspect, round: self.rounds });
        }
        Ok(rejoins)
    }

    /// Runs detection rounds until every broker has settled (serving,
    /// no replay in flight, no believed-dead link, no unhealed gap) and
    /// no suspicion stands, returning every automatic fence-and-restart
    /// performed. This is the zero-operator recovery path: crash any set
    /// of brokers — adjacent ones included — silently, call this, and
    /// the fabric detects and repairs the damage on its own.
    ///
    /// # Errors
    ///
    /// [`OverlayError::Detection`] when the fabric has not settled
    /// within `max_rounds` rounds; tick/pump/restart failures propagate.
    pub fn run_detection(&mut self, max_rounds: u64) -> Result<Vec<AutoRejoin>, OverlayError> {
        let mut rejoins = Vec::new();
        for _ in 0..max_rounds {
            if self.settled() {
                return Ok(rejoins);
            }
            rejoins.extend(self.tick_round()?);
        }
        if self.settled() {
            return Ok(rejoins);
        }
        Err(OverlayError::Detection { reason: "fabric did not settle within the round budget" })
    }

    /// True when every broker is settled (serving with no recovery work
    /// outstanding) and no silence accusation stands.
    pub fn settled(&self) -> bool {
        self.brokers.iter().all(Broker::settled) && self.suspicions.is_empty()
    }

    /// Sets broker `at`'s tick stride: it receives a timer tick only
    /// every `stride`-th detection round (models a slow-but-alive host —
    /// its heartbeats are delayed, not lost; with `stride` below
    /// `SUSPECT_AFTER` its neighbours never accuse it).
    // lint: allow(SL08, tests/failover.rs and tests/lifecycle_proptests.rs slow a clock with it)
    pub fn set_tick_stride(&mut self, at: usize, stride: u64) {
        self.strides.insert(at, stride.max(1));
    }

    /// Standing silence accusations: suspect → accusing neighbours.
    pub fn suspicions(&self) -> &BTreeMap<usize, BTreeSet<usize>> {
        &self.suspicions
    }

    /// Detection rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    fn is_serving(&self, at: usize) -> bool {
        self.brokers[at].lifecycle() == Lifecycle::Serving
    }

    /// The sealed recovery record on router `at`'s host disk (the disk
    /// is untrusted — reading it reveals only sealed bytes).
    ///
    /// # Panics
    ///
    /// Panics when `at` is out of range.
    pub fn sealed_record(&self, at: usize) -> Option<Vec<u8>> {
        self.brokers[at].sealed_record().map(<[u8]>::to_vec)
    }

    /// Overwrites router `at`'s host-disk recovery record (models a
    /// malicious host serving a stale-but-authentic sealed file; the
    /// monotonic counter catches it at restart).
    ///
    /// # Panics
    ///
    /// Panics when `at` is out of range.
    pub fn set_sealed_record(&mut self, at: usize, record: Vec<u8>) {
        self.brokers[at].set_sealed_record(record);
    }

    /// Schedules the next frame on the directed edge `from → to` to be
    /// lost in transit (test hook: downstream of the loss, the receiver
    /// observes a sequence gap — the liveness signal).
    // lint: allow(SL08, tests/failover.rs and tests/lifecycle_proptests.rs lose frames with it)
    pub fn drop_next_frame(&mut self, from: usize, to: usize) {
        self.drop_plan.insert((from, to));
    }

    /// Frames dropped so far (crashed destinations + injected losses).
    pub fn dropped_frames(&self) -> u64 {
        self.dropped_frames
    }

    /// Cumulative frame counts per directed edge.
    pub fn edge_frames(&self) -> &BTreeMap<(usize, usize), u64> {
        &self.edge_frames
    }

    /// Cumulative dropped-frame counts per directed edge (crashed
    /// destinations + injected losses; sums to
    /// [`OverlayFabric::dropped_frames`]).
    pub fn edge_drops(&self) -> &BTreeMap<(usize, usize), u64> {
        &self.edge_drops
    }

    /// Drains the typed events surfaced by brokers since the last call.
    // lint: allow(SL08, the recovery tests in tests/failover.rs read link events through it)
    pub fn take_events(&mut self) -> Vec<(usize, LinkEvent)> {
        std::mem::take(&mut self.events)
    }

    // ---- aggregate inspection ------------------------------------------

    /// Per-broker counters, in router order.
    pub fn broker_stats(&self) -> Vec<BrokerStats> {
        self.brokers.iter().map(|b| b.stats()).collect()
    }

    /// Sum of enclave crossings across brokers since the last reset.
    pub fn total_ecalls(&self) -> u64 {
        self.brokers.iter().map(|b| b.stats().ecalls).sum()
    }

    /// Slowest broker's virtual clock since the last reset: the
    /// bottleneck that bounds pipelined throughput when brokers run
    /// concurrently. It is not one publication's latency, which through a
    /// star is the hub's time plus a leaf's; the `scaleout` and
    /// `batching` bins report that as `path_us_per_pub` and
    /// `path_us_per_msg`.
    pub fn max_elapsed_ns(&self) -> f64 {
        self.brokers.iter().map(|b| b.stats().elapsed_ns).fold(0.0, f64::max)
    }

    /// Total live forwarding-table rows across links (upstream interest
    /// currently recorded; shrinks again as subscriptions are removed).
    pub fn total_forwarded(&self) -> u64 {
        self.brokers.iter().map(|b| b.stats().forwarded).sum()
    }

    /// Total covering-pruned subscription-forwards (traffic avoided).
    pub fn total_pruned(&self) -> u64 {
        self.brokers.iter().map(|b| b.stats().pruned).sum()
    }

    /// Total subscription-forwards ever sent on links (cumulative
    /// propagation traffic, including uncovering re-forwards).
    pub fn total_forwarded_cumulative(&self) -> u64 {
        self.brokers.iter().map(|b| b.stats().forwarded_total).sum()
    }

    /// Total forwarding-table removals (cumulative).
    pub fn total_removed(&self) -> u64 {
        self.brokers.iter().map(|b| b.stats().removed).sum()
    }

    /// Total uncovering promotions (cumulative re-forwards caused by
    /// removals).
    pub fn total_uncovered(&self) -> u64 {
        self.brokers.iter().map(|b| b.stats().uncovered).sum()
    }

    /// Total sequence-number gaps observed across brokers (cumulative).
    pub fn total_gaps(&self) -> u64 {
        self.brokers.iter().map(|b| b.stats().gaps).sum()
    }

    /// Total heartbeat frames emitted across brokers (cumulative).
    pub fn total_heartbeats(&self) -> u64 {
        self.brokers.iter().map(|b| b.stats().heartbeats).sum()
    }

    /// Total index entries across brokers (edge + link-interface copies).
    pub fn total_index_entries(&self) -> usize {
        self.brokers.iter().map(|b| b.subscriptions()).sum()
    }

    /// Compatibility shim for the benchmark harness, which reads it as
    /// `overlay.slice_skew_milli`: always 1.0, what a broker with one
    /// matcher reports. Goes with the next benchmark change.
    pub fn occupancy_skew(&self, _at: usize) -> f64 {
        1.0
    }

    /// Compatibility shim for the benchmark harness, which reads it as
    /// `overlay.migrations`: always 0, since a broker's one matcher never
    /// migrates anything. Goes with the next benchmark change.
    pub fn total_migrations(&self) -> u64 {
        0
    }

    /// Resets every broker's counters (between measurement phases).
    pub fn reset_counters(&self) {
        for broker in &self.brokers {
            broker.reset_counters();
        }
    }

    // ---- telemetry ------------------------------------------------------

    /// The fabric's full telemetry view: per-broker counter registries
    /// (broker, memory-simulator and per-link forwarding counters under
    /// stable prefixes), per-broker stage latency summaries, fabric-level
    /// aggregates (frame/drop ledgers, event-label counts, cross-broker
    /// totals), and every hop record drained from the brokers' flight
    /// recorders.
    ///
    /// Draining is destructive for hop records (each record is reported
    /// exactly once — the in-enclave rings empty through their costed
    /// ocall) but counters and standing events are left in place.
    pub fn telemetry(&mut self) -> TelemetrySnapshot {
        let mut fabric_registry = MetricsRegistry::new();
        let mut brokers = Vec::with_capacity(self.brokers.len());
        let mut hops = Vec::new();
        for (id, broker) in self.brokers.iter_mut().enumerate() {
            let stats = broker.stats();
            let mut registry = MetricsRegistry::new();
            registry.absorb("broker", &stats.snapshot());
            registry.absorb("mem", &broker.mem_stats().snapshot());
            for (neighbor, counters) in broker.link_snapshots() {
                registry.absorb(&format!("link.{neighbor}"), &counters);
            }
            registry.set("trace.dropped", broker.trace_drops());
            fabric_registry.absorb("total", &stats.snapshot());
            hops.extend(broker.drain_trace());
            brokers.push(BrokerTelemetry {
                broker: id as u64,
                counters: registry.snapshot(),
                stages: broker.stage_summaries(),
            });
        }
        hops.sort_by_key(|h| (h.tick, h.broker));
        fabric_registry.set("fabric.dropped_frames", self.dropped_frames);
        fabric_registry.set("fabric.edges", self.edge_frames.len() as u64);
        fabric_registry.set("fabric.rounds", self.rounds);
        for (_, event) in &self.events {
            fabric_registry.add(&format!("events.{}", event.label()), 1);
        }
        TelemetrySnapshot { fabric: fabric_registry.snapshot(), brokers, hops }
    }
}

/// Expands per-publication delivery records into `out`, one
/// [`Delivery`] per client, ordered by router, client, then publication.
/// Each record's payload tag (the batch index the fabric wrote) is
/// decoded once; the order comes from sorting packed `router ‖ client ‖
/// publication` keys (32, 64 and 32 bits) in `keys`, a buffer reused
/// across calls.
fn expand_deliveries(
    records: &[LocalDeliveries],
    keys: &mut Vec<u128>,
    out: &mut Vec<Delivery>,
) -> Result<(), OverlayError> {
    keys.clear();
    for record in records {
        let tag = record.item().payload_ct.try_into();
        let tag = tag.map_err(|_| OverlayError::Link { reason: "unexpected payload tag" })?;
        let router = u32::try_from(record.router())
            .map_err(|_| OverlayError::Topology { reason: "router out of range" })?;
        let high = u128::from(router) << 96 | u128::from(u32::from_be_bytes(tag));
        keys.extend(record.clients().iter().map(|c| high | u128::from(c.0) << 32));
    }
    keys.sort_unstable();
    out.extend(keys.iter().map(|&key| Delivery {
        router: (key >> 96) as usize,
        client: ClientId((key >> 32) as u64),
        publication: key as u32 as usize,
    }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_routes_end_to_end() {
        let mut fabric =
            OverlayFabric::build(Topology::line(3), FabricConfig::attested(7)).unwrap();
        fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 10.0)).unwrap();
        fabric.subscribe(2, ClientId(2), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();
        let deliveries = fabric
            .publish(
                1,
                &[
                    PublicationSpec::new().attr("price", 20.0).attr("symbol", "HAL"),
                    PublicationSpec::new().attr("price", 5.0).attr("symbol", "IBM"),
                ],
            )
            .unwrap();
        assert_eq!(
            deliveries,
            vec![
                Delivery { router: 0, client: ClientId(1), publication: 0 },
                Delivery { router: 2, client: ClientId(2), publication: 0 },
            ]
        );
    }

    #[test]
    fn covering_prunes_propagation_traffic() {
        let mut fabric =
            OverlayFabric::build(Topology::line(4), FabricConfig::attested(8)).unwrap();
        // A broad subscription at router 0 travels all 3 links; narrower
        // ones behind it are pruned at the first hop.
        fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
        assert_eq!(fabric.total_forwarded(), 3);
        fabric.subscribe(0, ClientId(2), &SubscriptionSpec::new().gt("price", 10.0)).unwrap();
        fabric.subscribe(0, ClientId(3), &SubscriptionSpec::new().gt("price", 20.0)).unwrap();
        assert_eq!(fabric.total_forwarded(), 3, "covered subscriptions never leave router 0");
        assert_eq!(fabric.total_pruned(), 2);
        // Index copies: every sub at router 0, one interface copy per hop
        // for the broad one only.
        assert_eq!(fabric.total_index_entries(), 3 + 3);
        // Deliveries are still exact.
        let deliveries = fabric.publish(3, &[PublicationSpec::new().attr("price", 15.0)]).unwrap();
        assert_eq!(
            deliveries,
            vec![
                Delivery { router: 0, client: ClientId(1), publication: 0 },
                Delivery { router: 0, client: ClientId(2), publication: 0 },
            ]
        );
    }

    #[test]
    fn flood_mode_forwards_everything() {
        let mut fabric = OverlayFabric::build(
            Topology::line(3),
            FabricConfig { propagation: Propagation::Flood, ..FabricConfig::attested(9) },
        )
        .unwrap();
        fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
        fabric.subscribe(0, ClientId(2), &SubscriptionSpec::new().gt("price", 10.0)).unwrap();
        assert_eq!(fabric.total_index_entries(), 2 * 3, "every broker holds every subscription");
    }

    #[test]
    fn unsubscribe_uncovers_across_hops_and_drains_state() {
        use scbr::ids::SubscriptionId;
        let mut fabric =
            OverlayFabric::build(Topology::line(3), FabricConfig::attested(12)).unwrap();
        let broad =
            fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
        let narrow =
            fabric.subscribe(0, ClientId(2), &SubscriptionSpec::new().gt("price", 10.0)).unwrap();
        assert_eq!(fabric.total_forwarded(), 2, "only the broad one crossed the two links");
        assert_eq!(fabric.total_pruned(), 1, "the narrow one is pruned once, at its edge");

        // Removing the broad subscription must re-forward the narrow one
        // along the whole chain before withdrawing the broad interest.
        assert!(fabric.unsubscribe(broad).unwrap());
        assert_eq!(fabric.total_uncovered(), 2, "one promotion per link of the chain");
        assert_eq!(fabric.total_forwarded(), 2, "narrow rows replaced broad rows");
        // Delivery reflects only the narrow interest now.
        let deliveries = fabric
            .publish(
                2,
                &[
                    PublicationSpec::new().attr("price", 5.0),
                    PublicationSpec::new().attr("price", 15.0),
                ],
            )
            .unwrap();
        assert_eq!(deliveries, vec![Delivery { router: 0, client: ClientId(2), publication: 1 }]);

        // Removing the last subscription drains every broker and table.
        assert!(fabric.unsubscribe(narrow).unwrap());
        assert_eq!(fabric.total_index_entries(), 0, "no leaked index entries");
        assert_eq!(fabric.total_forwarded(), 0, "no leaked forwarding rows");
        assert!(fabric
            .publish(0, &[PublicationSpec::new().attr("price", 99.0)])
            .unwrap()
            .is_empty());

        // Idempotent double-unsubscribe; unknown ids are clean errors.
        assert!(!fabric.unsubscribe(broad).unwrap());
        assert!(matches!(
            fabric.unsubscribe(SubscriptionId(999)),
            Err(OverlayError::Routing(scbr::ScbrError::NotFound { .. }))
        ));
    }

    #[test]
    fn out_of_range_routers_are_an_error_not_a_panic() {
        let mut fabric =
            OverlayFabric::build(Topology::line(2), FabricConfig::attested(11)).unwrap();
        assert!(matches!(
            fabric.subscribe(5, ClientId(1), &SubscriptionSpec::new()),
            Err(OverlayError::Topology { reason: "router out of range" })
        ));
        assert!(matches!(
            fabric.publish(2, &[PublicationSpec::new().attr("x", 1.0)]),
            Err(OverlayError::Topology { reason: "router out of range" })
        ));
    }

    #[test]
    fn publications_do_not_echo_to_their_origin() {
        let mut fabric =
            OverlayFabric::build(Topology::line(2), FabricConfig::attested(10)).unwrap();
        fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("x", 0.0)).unwrap();
        // Published at the subscriber's own router: delivered locally,
        // no frame crosses the link and comes back.
        let deliveries = fabric.publish(0, &[PublicationSpec::new().attr("x", 1.0)]).unwrap();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].router, 0);
    }

    #[test]
    fn epoch_starts_at_zero_and_advances() {
        let mut fabric =
            OverlayFabric::build(Topology::line(2), FabricConfig::attested(13)).unwrap();
        assert_eq!(fabric.epoch(), KeyEpoch(0));
        fabric.set_epoch(KeyEpoch(4));
        assert_eq!(fabric.epoch(), KeyEpoch(4));
    }

    #[test]
    fn traced_publication_records_every_hop_on_attested_fabric() {
        let mut fabric =
            OverlayFabric::build(Topology::line(3), FabricConfig::attested(31).with_telemetry())
                .unwrap();
        fabric.subscribe(2, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
        let (trace, deliveries) =
            fabric.publish_traced(0, &[PublicationSpec::new().attr("price", 9.0)]).unwrap();
        assert!(trace.is_some());
        assert_eq!(deliveries.len(), 1);
        let snap = fabric.telemetry();
        // The batch crossed 0 → 1 → 2: one hop record per broker, in
        // arrival order, and only the terminal broker matched anything.
        let path = snap.trace_path(trace);
        assert_eq!(path.iter().map(|h| h.broker).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(path.iter().map(|h| h.matched_bucket).collect::<Vec<_>>(), vec![0, 0, 1]);
        for hop in &path {
            assert!(hop.arrival_ns <= hop.match_ns && hop.match_ns <= hop.forward_ns);
        }
        // Per-broker registries carry the absorbed counter namespaces.
        assert_eq!(snap.brokers.len(), 3);
        for broker in &snap.brokers {
            assert!(broker.counters.get("broker.ecalls").unwrap() > 0);
            assert!(broker.counters.get("mem.ecalls").is_some());
            assert_eq!(broker.counters.get("trace.dropped"), Some(0));
            assert!(!broker.stages.is_empty(), "stage histograms populated");
        }
        // Fabric-level aggregates fold the same exports across brokers.
        assert_eq!(
            snap.fabric.get("total.ecalls").unwrap(),
            snap.brokers.iter().map(|b| b.counters.get("broker.ecalls").unwrap()).sum::<u64>()
        );
        assert!(snap.fabric.get("events.subscribed").unwrap() >= 1);
        // Draining is destructive: a second snapshot has no hops.
        assert!(fabric.telemetry().trace_path(trace).is_empty());
    }

    #[test]
    fn telemetry_off_publishes_untraced_with_no_records() {
        let mut fabric =
            OverlayFabric::build(Topology::line(2), FabricConfig::attested(32)).unwrap();
        fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("x", 0.0)).unwrap();
        let (trace, deliveries) =
            fabric.publish_traced(1, &[PublicationSpec::new().attr("x", 1.0)]).unwrap();
        assert_eq!(trace, TraceId::NONE);
        assert_eq!(deliveries.len(), 1);
        let snap = fabric.telemetry();
        assert!(snap.hops.is_empty());
        assert!(snap.brokers.iter().all(|b| b.stages.is_empty()));
    }

    #[test]
    fn telemetry_survives_crash_but_flight_records_do_not() {
        let mut fabric = OverlayFabric::build(
            Topology::line(2),
            FabricConfig { telemetry: true, ..FabricConfig::attested(33) },
        )
        .unwrap();
        fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("x", 0.0)).unwrap();
        let (before, _) =
            fabric.publish_traced(1, &[PublicationSpec::new().attr("x", 1.0)]).unwrap();
        fabric.crash(1).unwrap();
        fabric.restart(1).unwrap();
        // Telemetry is host configuration and is re-applied after the
        // rejoin, but the un-drained flight record at broker 1 died with
        // the crash (volatile by design): of the earlier trace, only the
        // hop at broker 0 is left.
        let (after, _) =
            fabric.publish_traced(1, &[PublicationSpec::new().attr("x", 2.0)]).unwrap();
        assert!(after.is_some() && after != before);
        let snap = fabric.telemetry();
        let brokers = |trace| snap.trace_path(trace).iter().map(|h| h.broker).collect::<Vec<_>>();
        assert_eq!(brokers(before), vec![0], "broker 1's pre-crash record was volatile");
        assert_eq!(brokers(after), vec![1, 0], "sealed links carry the trace id");
    }
}
