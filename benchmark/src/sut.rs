//! The system under test behind one facade with two implementations.
//!
//! An operation means the same thing on both: *subscribe* = the producer
//! seals the registration and the router(s) admit it; *publish* = the
//! producer encrypts each header and the system routes/matches until every
//! delivery is out. Only public functions of the workspace crates are
//! called (the list is frozen in `benchmark/README.md`).

use crate::workloads::Shape;
use scbr::engine::{BatchMatches, RouterEngine};
use scbr::index::IndexKind;
use scbr::protocol::keys::{provision_sk_via_attestation, ProducerCrypto};
use scbr::{ClientId, PublicationSpec, SubscriptionId, SubscriptionSpec};
use scbr_crypto::rng::CryptoRng;
use scbr_overlay::{FabricConfig, OverlayFabric, Topology};
use scbr_telemetry::StageSummary;
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::SgxPlatform;
use std::collections::BTreeMap;

/// One delivery: `(router, client, index of the publication in its batch)`.
pub type Delivery = (usize, u64, usize);

/// The router of every fabric workload that the recover phase crashes: an
/// inner (relay) broker in both topologies.
const CRASHED_ROUTER: usize = 1;

/// Cumulative counters that can be read without disturbing the system.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Enclave crossings, summed over enclaves.
    pub ecalls: u64,
    /// Virtual nanoseconds charged, summed over enclaves.
    pub virtual_ns: f64,
    /// Frames put on broker-to-broker links.
    pub frames: u64,
}

/// The system's exported telemetry view: memory-simulator counters on
/// every workload, overlay gauges (0 on the engine workloads), and what
/// the system's own instrumentation recorded. On a fabric, reading it
/// costs each broker an enclave crossing and drains the hop records, so
/// it is never read between two [`Counters`] readings.
#[derive(Debug, Clone, Default)]
pub struct Gauges {
    /// Tracked memory reads (cache-line granularity), cumulative.
    pub mem_reads: u64,
    /// Simulated LLC hits, cumulative.
    pub cache_hits: u64,
    /// Simulated LLC misses, cumulative.
    pub cache_misses: u64,
    /// EPC swap-ins, cumulative.
    pub epc_swaps: u64,
    /// Brokers in the fabric.
    pub routers: u64,
    /// Live forwarding-table rows, summed over links.
    pub forwarded: u64,
    /// Subscription forwards covering avoided (cumulative).
    pub pruned: u64,
    /// Uncovering promotions caused by removals (cumulative).
    pub uncovered: u64,
    /// Recovery-record seals performed (cumulative).
    pub seals: u64,
    /// Seals the per-step coalescing avoided (cumulative).
    pub seals_saved: u64,
    /// Bytes of sealed recovery record on the brokers' host disks.
    pub sealed_record_bytes: u64,
    /// Frames the last rejoin put on the wire.
    pub recovery_frames: u64,
    /// Registrations the neighbours replayed in the last rejoin.
    pub replayed: u64,
    /// Worst edge-occupancy skew across brokers, in thousandths.
    pub slice_skew_milli: u64,
    /// Cross-slice migrations (cumulative, volatile).
    pub migrations: u64,
    /// Hop records drained from the flight recorders by this reading.
    pub hop_records: u64,
    /// Per-stage virtual-clock summaries recorded with telemetry on (per
    /// stage, from the broker that recorded the most samples).
    pub stages: Vec<StageSummary>,
}

/// The facade every phase drives.
pub trait Sut {
    /// Producer seals the registration; the router(s) admit it.
    fn subscribe(
        &mut self,
        at: usize,
        client: ClientId,
        spec: &SubscriptionSpec,
    ) -> Result<SubscriptionId, String>;

    /// Producer seals the removal; the router(s) retire the subscription.
    /// Removing one that is not live is an error.
    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), String>;

    /// Producer encrypts each header; the system routes until every
    /// delivery is out. `out` is cleared and left sorted.
    fn publish(
        &mut self,
        at: usize,
        publications: &[PublicationSpec],
        out: &mut Vec<Delivery>,
    ) -> Result<(), String>;

    /// Loses the volatile state of one router.
    fn crash(&mut self) -> Result<(), String>;

    /// Brings the crashed router back to serving.
    fn restart(&mut self) -> Result<(), String>;

    /// Crossings, virtual time and link frames so far; free of side effects.
    fn counters(&self) -> Counters;

    /// The telemetry view (see [`Gauges`] for what reading it costs).
    fn gauges(&mut self) -> Gauges;
}

/// Builds the system for `shape`. `telemetry` switches the system's own
/// hot-path instrumentation on (the traced run).
pub fn build(shape: Shape, seed: u64, telemetry: bool) -> Result<Box<dyn Sut>, String> {
    Ok(match shape {
        Shape::Engine => Box::new(EngineSut::build(seed, telemetry)?),
        Shape::Chain | Shape::Tree => Box::new(FabricSut::build(shape, seed, telemetry)?),
    })
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The paper's single router: a [`RouterEngine`] in a simulated enclave,
/// provisioned through remote attestation.
pub struct EngineSut {
    platform: SgxPlatform,
    service: AttestationService,
    producer: ProducerCrypto,
    producer_rng: CryptoRng,
    enclave_rng: CryptoRng,
    engine: Option<RouterEngine>,
    telemetry: bool,
    /// The state a restart restores: taken by [`Sut::crash`] just before
    /// the engine is dropped.
    snapshot: Vec<u8>,
    issued: BTreeMap<SubscriptionId, ClientId>,
    next_id: u64,
    headers: Vec<Vec<u8>>,
    matches: BatchMatches,
}

impl EngineSut {
    fn build(seed: u64, telemetry: bool) -> Result<Self, String> {
        let platform = SgxPlatform::for_testing(seed);
        let mut service = AttestationService::new();
        service.trust_platform(platform.attestation_public_key().clone());
        let mut producer_rng = CryptoRng::from_seed(seed ^ 0x70_726f_6475_6365);
        let producer = ProducerCrypto::generate(512, &mut producer_rng).map_err(text)?;
        let mut sut = EngineSut {
            platform,
            service,
            producer,
            producer_rng,
            enclave_rng: CryptoRng::from_seed(seed ^ 0x65_6e63_6c61_7665),
            engine: None,
            telemetry,
            snapshot: Vec::new(),
            issued: BTreeMap::new(),
            next_id: 0,
            headers: Vec::new(),
            matches: BatchMatches::new(),
        };
        sut.launch()?;
        Ok(sut)
    }

    /// Launches a fresh enclave and provisions `SK` into it.
    fn launch(&mut self) -> Result<(), String> {
        let mut engine =
            RouterEngine::in_enclave(&self.platform, IndexKind::Poset).map_err(text)?;
        let enclave = engine.enclave().expect("in_enclave placement has an enclave");
        let policy = VerifierPolicy::require_mr_enclave(enclave.identity().mr_enclave);
        let (sk, pk) = provision_sk_via_attestation(
            &self.platform,
            enclave,
            &self.service,
            &policy,
            &self.producer,
            &mut self.enclave_rng,
            &mut self.producer_rng,
        )
        .map_err(text)?;
        engine.call(|e| e.provision_keys(sk, pk));
        engine.set_telemetry(self.telemetry);
        self.engine = Some(engine);
        Ok(())
    }

    fn engine(&mut self) -> Result<&mut RouterEngine, String> {
        self.engine.as_mut().ok_or_else(|| "router is crashed".to_owned())
    }
}

impl Sut for EngineSut {
    fn subscribe(
        &mut self,
        _at: usize,
        client: ClientId,
        spec: &SubscriptionSpec,
    ) -> Result<SubscriptionId, String> {
        let id = SubscriptionId(self.next_id);
        self.next_id += 1;
        let envelope = self
            .producer
            .seal_registration(spec, id, client, &mut self.producer_rng)
            .map_err(text)?;
        self.engine()?.call(|e| e.register_envelope(&envelope)).map_err(text)?;
        self.issued.insert(id, client);
        Ok(id)
    }

    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), String> {
        let client = *self.issued.get(&id).ok_or("subscription was never issued")?;
        let envelope =
            self.producer.seal_unregistration(id, client, &mut self.producer_rng).map_err(text)?;
        let (_, _, existed) =
            self.engine()?.call(|e| e.unregister_envelope(&envelope)).map_err(text)?;
        if existed {
            Ok(())
        } else {
            Err("subscription was not live".to_owned())
        }
    }

    fn publish(
        &mut self,
        _at: usize,
        publications: &[PublicationSpec],
        out: &mut Vec<Delivery>,
    ) -> Result<(), String> {
        out.clear();
        self.headers.clear();
        for publication in publications {
            self.headers.push(self.producer.encrypt_header(publication, &mut self.producer_rng));
        }
        let engine = self.engine.as_mut().ok_or("router is crashed")?;
        engine.match_batch_into(&self.headers, &mut self.matches);
        for (i, outcome) in self.matches.iter().enumerate() {
            out.extend(outcome.map_err(text)?.iter().map(|client| (0, client.0, i)));
        }
        Ok(())
    }

    fn crash(&mut self) -> Result<(), String> {
        self.snapshot = self.engine()?.call(|e| e.snapshot());
        self.engine = None;
        Ok(())
    }

    fn restart(&mut self) -> Result<(), String> {
        if self.engine.is_some() {
            return Err("router is not crashed".to_owned());
        }
        self.launch()?;
        let snapshot = std::mem::take(&mut self.snapshot);
        self.engine()?.call(|e| e.restore(&snapshot)).map_err(text)?;
        Ok(())
    }

    fn counters(&self) -> Counters {
        let stats = self.engine.as_ref().map(RouterEngine::stats).unwrap_or_default();
        Counters { ecalls: stats.ecalls, virtual_ns: stats.elapsed_ns, frames: 0 }
    }

    fn gauges(&mut self) -> Gauges {
        let Some(engine) = &self.engine else { return Gauges::default() };
        let stats = engine.stats();
        Gauges {
            mem_reads: stats.reads,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            epc_swaps: stats.epc_swaps,
            stages: engine.stage_summaries(),
            ..Gauges::default()
        }
    }
}

/// An attested [`OverlayFabric`].
pub struct FabricSut {
    fabric: OverlayFabric,
    recovery_frames: u64,
    replayed: u64,
}

impl FabricSut {
    fn build(shape: Shape, seed: u64, telemetry: bool) -> Result<Self, String> {
        let topology = match shape {
            Shape::Tree => Topology::tree(5, &[(0, 1), (0, 2), (1, 3), (1, 4)]).map_err(text)?,
            _ => Topology::line(4),
        };
        // Matchers stay unpartitioned: with `PartitionConfig::sliced(n > 1)`
        // every slice interns attribute names into its own `AttrSchema`, yet
        // the brokers' covering check compares compiled subscriptions across
        // slices, so market-recipe populations lose deliveries (the oracle
        // caught it on `tree_spread`; see CHANGES.md). A workload must not
        // fail, so slices come back with the fix.
        let mut config = FabricConfig::attested(seed);
        if telemetry {
            config = config.with_telemetry();
        }
        let fabric = OverlayFabric::build(topology, config).map_err(text)?;
        Ok(FabricSut { fabric, recovery_frames: 0, replayed: 0 })
    }
}

impl Sut for FabricSut {
    fn subscribe(
        &mut self,
        at: usize,
        client: ClientId,
        spec: &SubscriptionSpec,
    ) -> Result<SubscriptionId, String> {
        self.fabric.subscribe(at, client, spec).map_err(text)
    }

    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), String> {
        if self.fabric.unsubscribe(id).map_err(text)? {
            Ok(())
        } else {
            Err("subscription was not live".to_owned())
        }
    }

    fn publish(
        &mut self,
        at: usize,
        publications: &[PublicationSpec],
        out: &mut Vec<Delivery>,
    ) -> Result<(), String> {
        out.clear();
        let deliveries = self.fabric.publish(at, publications).map_err(text)?;
        out.extend(deliveries.iter().map(|d| (d.router, d.client.0, d.publication)));
        Ok(())
    }

    fn crash(&mut self) -> Result<(), String> {
        self.fabric.crash(CRASHED_ROUTER).map_err(text)
    }

    fn restart(&mut self) -> Result<(), String> {
        let report = self.fabric.restart(CRASHED_ROUTER).map_err(text)?;
        self.recovery_frames = report.recovery_frames;
        self.replayed = report.replayed as u64;
        Ok(())
    }

    fn counters(&self) -> Counters {
        let mut counters = Counters::default();
        for stats in self.fabric.broker_stats() {
            counters.ecalls += stats.ecalls;
            counters.virtual_ns += stats.elapsed_ns;
        }
        counters.frames = self.fabric.edge_frames().values().sum();
        counters
    }

    fn gauges(&mut self) -> Gauges {
        let stats = self.fabric.broker_stats();
        let routers = stats.len();
        let sum = |f: fn(&scbr_overlay::BrokerStats) -> u64| stats.iter().map(f).sum::<u64>();
        let skew = (0..routers).map(|r| self.fabric.occupancy_skew(r)).fold(1.0, f64::max);
        let mut gauges = Gauges {
            routers: routers as u64,
            forwarded: sum(|s| s.forwarded),
            pruned: sum(|s| s.pruned),
            uncovered: sum(|s| s.uncovered),
            seals: sum(|s| s.seals),
            seals_saved: sum(|s| s.seals_saved),
            sealed_record_bytes: (0..routers)
                .map(|r| self.fabric.sealed_record(r).map_or(0, |record| record.len() as u64))
                .sum(),
            recovery_frames: self.recovery_frames,
            replayed: self.replayed,
            slice_skew_milli: (skew * 1000.0).round() as u64,
            migrations: self.fabric.total_migrations(),
            ..Gauges::default()
        };
        // The memory simulators, stage histograms and hop records are
        // exported only through the telemetry registry view.
        let telemetry = self.fabric.telemetry();
        gauges.hop_records = telemetry.hops.len() as u64;
        for broker in telemetry.brokers {
            let get = |name: &str| broker.counters.get(name).unwrap_or(0);
            gauges.mem_reads += get("mem.reads");
            gauges.cache_hits += get("mem.cache_hits");
            gauges.cache_misses += get("mem.cache_misses");
            gauges.epc_swaps += get("mem.epc_swaps");
            for summary in broker.stages {
                match gauges.stages.iter_mut().find(|s| s.stage == summary.stage) {
                    Some(slot) if slot.count < summary.count => *slot = summary,
                    Some(_) => {}
                    None => gauges.stages.push(summary),
                }
            }
        }
        gauges
    }
}
