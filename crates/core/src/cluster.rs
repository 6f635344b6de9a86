//! Horizontal scaling: a StreamHub-style partitioned router on real
//! worker threads.
//!
//! The paper's conclusion points out that the EPC limit "can be overcome
//! through horizontal scalability", and §3.4 advocates a StreamHub-like
//! architecture of specialised components over a broker overlay. This
//! module implements that extension: subscriptions are *partitioned*
//! across several enclave-hosted matcher slices, and publications are
//! fanned out to every slice, whose results are merged.
//!
//! Each slice holds `1/n`-th of the index, so a database that would
//! overflow one enclave's EPC (and fall off the Figure 8 cliff) stays
//! within budget on `n` slices.
//!
//! ## Execution model
//!
//! Every slice owns a dedicated OS worker thread fed by a job channel;
//! fan-out genuinely runs the slices concurrently and the dispatcher
//! merges replies as they arrive. Two clocks describe a fan-out:
//!
//! * [`PartitionedRouter::parallel_elapsed_ns`] — the *virtual* critical
//!   path: the slowest slice's simulated clock (deterministic, what the
//!   figures report);
//! * [`PartitionedRouter::fanout_wall_ns`] — accumulated *wall-clock*
//!   time from dispatch to merge, measured on the host. With N worker
//!   threads this drops below the single-slice wall time once per-slice
//!   matching work dominates dispatch overhead.
//!
//! Batches are the unit of work: [`PartitionedRouter::match_encrypted_batch`]
//! ships the whole batch to each slice, which matches it through a
//! **single enclave crossing** ([`RouterEngine::match_batch_into`]) into
//! its own reused flat [`BatchMatches`], so the per-message transition
//! cost scales as `slices / batch_size` and the only per-publication
//! allocation left is the merged client list handed back to the caller.
//!
//! ## Placement and rebalancing
//!
//! Registrations are placed round-robin, which balances slice *occupancy*
//! without inspecting ciphertexts (the router must not learn which
//! subscriptions are related). Re-registering a live id replaces it: a
//! plaintext registration goes back to the slice that holds the id, and
//! an envelope — whose id the router learns only from the slice's reply —
//! retires the stale copy on the previous slice once the new one is in.
//! Unregistrations can still skew slices over time: nothing else moves a
//! live subscription, so a slice whose tenants happen to unsubscribe ends
//! up under-filled while the others carry its share of the EPC budget.
//! [`PartitionedRouter::slice_stats`] and
//! [`PartitionedRouter::occupancy_skew`] expose the imbalance
//! (subscriptions, index bytes, EPC swaps per slice) so an operator — or
//! the overlay's auto-rebalancer — can detect it. Through the telemetry
//! registry these surface as the `slice.<n>.subscriptions`,
//! `slice.<n>.index_bytes` and `slice.<n>.epc_swaps` metrics (one
//! [`SliceStats::snapshot`] absorbed per slice) — watch the spread of
//! `slice.*.subscriptions` (the skew ratio) and `slice.*.epc_swaps` (a
//! hot slice thrashing the EPC while its siblings idle) to decide when
//! to intervene. The correct remedy in this architecture is
//! *re-registration*: pick the fullest slice, unregister a batch of its
//! subscriptions and replay their stored registration envelopes on the
//! emptiest slice (the envelopes are producer-signed, so the move needs
//! no client involvement). That closed loop now ships inside the overlay
//! broker (`scbr-overlay`'s `partition` module): its skew-threshold
//! rebalancer watches exactly these metrics and migrates subscription
//! batches fullest → emptiest, make-before-break. This thread-based
//! router keeps the simpler contract — it detects, and an operator (or
//! the overlay's rebalancer, when the slices live inside a broker)
//! corrects. Skew is measured over *edge-client* load only:
//! link-interface registrations are pinned to whichever broker owns the
//! link, so counting them would make a high-degree broker read as
//! permanently skewed and trigger futile rebalancing.

use crate::engine::{BatchMatches, RouterEngine};
use crate::error::ScbrError;
use crate::ids::{ClientId, SubscriptionId};
use crate::index::IndexKind;
use crate::subscription::SubscriptionSpec;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use scbr_crypto::ctr::SymmetricKey;
use scbr_crypto::rsa::RsaPublicKey;
use sgx_sim::{MemStats, SgxPlatform};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of work executed on a slice's worker thread.
type SliceJob = Box<dyn FnOnce(&mut RouterEngine) + Send + 'static>;

/// One enclave-hosted matcher slice and its worker thread.
#[derive(Debug)]
struct SliceWorker {
    /// Job queue feeding the worker thread (`None` once shut down).
    jobs: Option<Sender<SliceJob>>,
    /// The slice's engine. The worker thread holds the lock while running
    /// jobs; the dispatcher locks it only between fan-outs (inspection).
    engine: Arc<Mutex<RouterEngine>>,
    /// The slice's flat match result, reused across fan-outs: the worker
    /// fills it during a fan-out, the dispatcher's merge reads it after.
    matches: Arc<Mutex<BatchMatches>>,
    handle: Option<JoinHandle<()>>,
}

impl SliceWorker {
    fn spawn(engine: RouterEngine) -> Self {
        let engine = Arc::new(Mutex::new(engine));
        let (tx, rx) = unbounded::<SliceJob>();
        let thread_engine = engine.clone();
        let handle = std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                let mut engine = thread_engine.lock();
                job(&mut engine);
            }
        });
        SliceWorker { jobs: Some(tx), engine, matches: Arc::default(), handle: Some(handle) }
    }

    fn send(&self, job: SliceJob) {
        let accepted = self.jobs.as_ref().expect("slice worker running").send(job).is_ok();
        assert!(accepted, "slice worker accepts jobs");
    }
}

/// Per-slice occupancy and memory counters (see the module docs'
/// rebalancing story).
#[derive(Debug, Clone, Copy)]
pub struct SliceStats {
    /// Slice position in the fan-out order.
    pub slice: usize,
    /// Live subscriptions placed on this slice (edge + interface copies).
    pub subscriptions: usize,
    /// Live subscriptions delivering to real edge clients — the
    /// occupancy figure skew detection and rebalancing read
    /// (link-interface copies are pinned, not movable load).
    pub edge_subscriptions: usize,
    /// Structural nodes in the slice's index.
    pub nodes: usize,
    /// Simulated index footprint in bytes (what presses on the EPC).
    pub index_bytes: u64,
    /// The slice memory's counters since the last reset (includes
    /// `ecalls`, `epc_swaps`, virtual `elapsed_ns`).
    pub mem: MemStats,
    /// Lifetime enclave crossings (not reset by
    /// [`PartitionedRouter::reset_counters`]), or `None` when the slice
    /// runs gateless (outside an enclave) — an absent counter, unlike a
    /// silent 0, lets telemetry tell a gateless slice from an idle
    /// enclave.
    pub lifetime_ecalls: Option<u64>,
}

impl SliceStats {
    /// Uniform counter export for the telemetry registry (absorbed under
    /// a `slice.<n>` prefix; the memory counters most relevant to the
    /// rebalancing decision are folded in alongside the occupancy).
    /// `gated` reports the gate mode (1 = enclave-hosted); the
    /// `lifetime_ecalls` counter is emitted only when a gate exists, so
    /// a gateless slice exports no crossing count at all instead of a
    /// misleading 0.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let mut pairs = vec![
            ("subscriptions", self.subscriptions as u64),
            ("edge_subscriptions", self.edge_subscriptions as u64),
            ("nodes", self.nodes as u64),
            ("index_bytes", self.index_bytes),
            ("ecalls", self.mem.ecalls),
            ("epc_swaps", self.mem.epc_swaps),
            ("gated", u64::from(self.lifetime_ecalls.is_some())),
        ];
        if let Some(lifetime) = self.lifetime_ecalls {
            pairs.push(("lifetime_ecalls", lifetime));
        }
        pairs
    }
}

/// A router made of `n` enclave-hosted matcher slices, each on its own
/// worker thread.
#[derive(Debug)]
pub struct PartitionedRouter {
    workers: Vec<SliceWorker>,
    /// Which slice holds each subscription (for unregistration).
    placement: HashMap<SubscriptionId, usize>,
    next: usize,
    /// Wall-clock nanoseconds spent in fan-out/merge since the last reset.
    fanout_wall_ns: AtomicU64,
}

impl PartitionedRouter {
    /// Launches `n` matcher enclaves on `platform`, one worker thread
    /// each.
    ///
    /// # Errors
    ///
    /// Propagates enclave-launch failures.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn in_enclaves(
        platform: &SgxPlatform,
        kind: IndexKind,
        n: usize,
    ) -> Result<Self, ScbrError> {
        assert!(n > 0, "at least one slice required");
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            workers.push(SliceWorker::spawn(RouterEngine::in_enclave(platform, kind)?));
        }
        Ok(PartitionedRouter {
            workers,
            placement: HashMap::new(),
            next: 0,
            fanout_wall_ns: AtomicU64::new(0),
        })
    }

    /// Number of slices.
    pub fn slice_count(&self) -> usize {
        self.workers.len()
    }

    /// Runs `job` on one slice's worker thread and waits for its result.
    fn run_on<R: Send + 'static>(
        &self,
        slice: usize,
        job: impl FnOnce(&mut RouterEngine) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = unbounded();
        self.workers[slice].send(Box::new(move |engine| {
            let _ = tx.send(job(engine));
        }));
        rx.recv().expect("slice worker replies")
    }

    /// Provisions every slice with the shared keys (each slice would run
    /// its own attestation in a real deployment; the producer-side key
    /// management "could be simply replicated", §3.4).
    pub fn provision_keys(&mut self, sk: &SymmetricKey, producer_key: &RsaPublicKey) {
        let (tx, rx) = unbounded();
        for worker in &self.workers {
            let (sk, pk, tx) = (sk.clone(), producer_key.clone(), tx.clone());
            worker.send(Box::new(move |engine| {
                engine.call(move |e| e.provision_keys(sk, pk));
                let _ = tx.send(());
            }));
        }
        drop(tx);
        for _ in &self.workers {
            rx.recv().expect("slice provisions");
        }
    }

    /// The next slice in round-robin order.
    fn next_slice(&mut self) -> usize {
        let slice = self.next % self.workers.len();
        self.next += 1;
        slice
    }

    /// Registers an encrypted envelope on the next slice (round-robin
    /// placement keeps slices balanced without inspecting ciphertexts).
    /// The id is only known once that slice has opened the envelope; if
    /// it was already live on another slice, that stale copy is retired
    /// (make-before-break), so re-registration replaces here exactly as it
    /// does on a single engine.
    ///
    /// # Errors
    ///
    /// Propagates the slice engine's verification/decryption failures.
    pub fn register_envelope(&mut self, envelope: &[u8]) -> Result<SubscriptionId, ScbrError> {
        let slice = self.next_slice();
        let envelope = envelope.to_vec();
        let id =
            self.run_on(slice, move |engine| engine.call(|e| e.register_envelope(&envelope)))?;
        if let Some(previous) = self.placement.insert(id, slice) {
            if previous != slice {
                self.run_on(previous, move |engine| engine.call(|e| e.unregister(id)));
            }
        }
        Ok(id)
    }

    /// Registers a plaintext subscription (baseline path): a live id goes
    /// back to the slice that holds it, a new one to the next slice.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures.
    pub fn register_plain(
        &mut self,
        id: SubscriptionId,
        client: ClientId,
        spec: &SubscriptionSpec,
    ) -> Result<(), ScbrError> {
        let slice = match self.placement.get(&id) {
            Some(&slice) => slice,
            None => self.next_slice(),
        };
        let spec = spec.clone();
        self.run_on(slice, move |engine| engine.call(|e| e.register_plain(id, client, &spec)))?;
        self.placement.insert(id, slice);
        Ok(())
    }

    /// Unregisters a subscription wherever it lives.
    pub fn unregister(&mut self, id: SubscriptionId) -> bool {
        match self.placement.remove(&id) {
            Some(slice) => self.run_on(slice, move |engine| engine.call(|e| e.unregister(id))),
            None => false,
        }
    }

    /// Matches one encrypted header against every slice and merges the
    /// client lists (sorted, deduplicated). Shorthand for a one-element
    /// [`PartitionedRouter::match_encrypted_batch`].
    ///
    /// # Errors
    ///
    /// Fails if any slice fails.
    pub fn match_encrypted(&mut self, header_ct: &[u8]) -> Result<Vec<ClientId>, ScbrError> {
        let mut results = self.match_encrypted_batch(std::slice::from_ref(&header_ct.to_vec()))?;
        Ok(results.pop().expect("one result per header"))
    }

    /// Fans a whole batch of encrypted headers out to every slice
    /// **concurrently** — each slice matches the batch through a single
    /// enclave crossing into its own reused flat buffer — and merges the
    /// slices' spans per publication (sorted, deduplicated).
    ///
    /// Wall-clock time from dispatch to merge is accumulated in
    /// [`PartitionedRouter::fanout_wall_ns`].
    ///
    /// # Errors
    ///
    /// Fails if any slice fails on any header (all-or-nothing: the caller
    /// gets one merged list per header or none).
    pub fn match_encrypted_batch(
        &mut self,
        headers: &[Vec<u8>],
    ) -> Result<Vec<Vec<ClientId>>, ScbrError> {
        let shared: Arc<[Vec<u8>]> = headers.to_vec().into();
        // The fan-out runs on untrusted host worker threads; real wall
        // time is the *point* of `fanout_wall_ns` (per-slice virtual
        // clocks cannot observe cross-thread concurrency).
        // lint: allow(SL01, host-side dispatcher measuring thread fan-out wall time)
        let started = Instant::now();
        let (tx, rx) = unbounded();
        for worker in &self.workers {
            let (shared, matches, tx) = (shared.clone(), worker.matches.clone(), tx.clone());
            worker.send(Box::new(move |engine| {
                let mut matches = matches.lock();
                engine.match_batch_into(&shared, &mut matches);
                let _ = tx.send(matches.take_first_error());
            }));
        }
        drop(tx);
        let mut first_err = None;
        for _ in &self.workers {
            first_err = first_err.or(rx.recv().expect("slice worker replies"));
        }
        let merged = match first_err {
            Some(e) => Err(e),
            None => {
                let slices: Vec<_> = self.workers.iter().map(|w| w.matches.lock()).collect();
                let merge = |i| {
                    let mut clients: Vec<ClientId> = Vec::new();
                    for slice in &slices {
                        clients.extend_from_slice(slice.get(i).expect("no slice failed"));
                    }
                    clients.sort_unstable_by_key(|c| c.0);
                    clients.dedup();
                    clients
                };
                Ok((0..headers.len()).map(merge).collect())
            }
        };
        self.fanout_wall_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        merged
    }

    /// Total subscriptions across slices.
    pub fn len(&self) -> usize {
        self.workers.iter().map(|w| w.engine.lock().engine().index().len()).sum()
    }

    /// True when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Virtual critical path of the fan-out deployment: slices run in
    /// parallel, so matching latency is the slowest slice's virtual time.
    pub fn parallel_elapsed_ns(&self) -> f64 {
        self.workers.iter().map(|w| w.engine.lock().elapsed_ns()).fold(0.0, f64::max)
    }

    /// Aggregate virtual time (total energy/work across slices).
    pub fn total_elapsed_ns(&self) -> f64 {
        self.workers.iter().map(|w| w.engine.lock().elapsed_ns()).sum()
    }

    /// Wall-clock nanoseconds spent in fan-out dispatch + merge since the
    /// last [`PartitionedRouter::reset_counters`] — host-measured truth,
    /// complementing the virtual clocks.
    pub fn fanout_wall_ns(&self) -> u64 {
        self.fanout_wall_ns.load(Ordering::Relaxed)
    }

    /// Total EPC page swaps across slices (the Figure 8 failure mode this
    /// architecture avoids).
    pub fn total_epc_swaps(&self) -> u64 {
        self.workers.iter().map(|w| w.engine.lock().stats().epc_swaps).sum()
    }

    /// Total enclave crossings across slices since the last reset.
    pub fn total_ecalls(&self) -> u64 {
        self.workers.iter().map(|w| w.engine.lock().stats().ecalls).sum()
    }

    /// Total OCALL round-trips across slices since the last reset.
    pub fn total_ocalls(&self) -> u64 {
        self.workers.iter().map(|w| w.engine.lock().stats().ocalls).sum()
    }

    /// Per-slice occupancy and memory counters, in fan-out order.
    pub fn slice_stats(&self) -> Vec<SliceStats> {
        self.workers
            .iter()
            .enumerate()
            .map(|(slice, w)| {
                let engine = w.engine.lock();
                let index = engine.engine().index();
                SliceStats {
                    slice,
                    subscriptions: index.len(),
                    edge_subscriptions: engine.engine().edge_subscriptions(),
                    nodes: index.node_count(),
                    index_bytes: index.logical_bytes(),
                    mem: engine.stats(),
                    lifetime_ecalls: engine.enclave().map(sgx_sim::Enclave::ecall_count),
                }
            })
            .collect()
    }

    /// Occupancy skew: the fullest slice's *edge-client* subscription
    /// count over the mean (1.0 = perfectly balanced; grows as
    /// unregistrations cluster). Link-interface copies are excluded —
    /// they are pinned to the broker that owns the link, so counting
    /// them would report permanent skew on high-degree brokers. Returns
    /// 1.0 for an empty router.
    pub fn occupancy_skew(&self) -> f64 {
        let counts: Vec<usize> =
            self.workers.iter().map(|w| w.engine.lock().engine().edge_subscriptions()).collect();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / counts.len() as f64;
        counts.iter().copied().max().unwrap_or(0) as f64 / mean
    }

    /// Resets every slice's counters and the wall-clock accumulator
    /// (between measurement phases).
    pub fn reset_counters(&self) {
        for worker in &self.workers {
            worker.engine.lock().reset_counters();
        }
        self.fanout_wall_ns.store(0, Ordering::Relaxed);
    }

    /// Runs `f` with read access to one slice's engine (inspection; the
    /// lock excludes the worker thread while held).
    ///
    /// # Panics
    ///
    /// Panics if `slice` is out of bounds.
    pub fn with_slice<R>(&self, slice: usize, f: impl FnOnce(&RouterEngine) -> R) -> R {
        f(&self.workers[slice].engine.lock())
    }
}

impl Drop for PartitionedRouter {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            worker.jobs = None; // close the queue; the worker loop exits
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Convenience: a single-enclave router exposed through the same API, for
/// apples-to-apples comparisons in tests and benchmarks.
pub fn single(platform: &SgxPlatform, kind: IndexKind) -> Result<PartitionedRouter, ScbrError> {
    PartitionedRouter::in_enclaves(platform, kind, 1)
}

/// Re-exported for the module's tests and benches.
pub use crate::engine::Placement as SlicePlacement;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::keys::ProducerCrypto;
    use crate::publication::PublicationSpec;
    use scbr_crypto::rng::CryptoRng;
    use sgx_sim::{CacheConfig, CostModel, EpcConfig};

    fn producer() -> (ProducerCrypto, CryptoRng) {
        let mut rng = CryptoRng::from_seed(1);
        let crypto = ProducerCrypto::generate(512, &mut rng).unwrap();
        (crypto, rng)
    }

    #[test]
    fn partitioned_matches_like_single() {
        let platform = SgxPlatform::for_testing(2);
        let (crypto, mut rng) = producer();
        let mut one = single(&platform, IndexKind::Poset).unwrap();
        let mut four = PartitionedRouter::in_enclaves(&platform, IndexKind::Poset, 4).unwrap();
        one.provision_keys(crypto.sk(), crypto.public_key());
        four.provision_keys(crypto.sk(), crypto.public_key());

        for i in 0..40u64 {
            let spec = SubscriptionSpec::new().gt("price", (i % 10) as f64);
            let env =
                crypto.seal_registration(&spec, SubscriptionId(i), ClientId(i), &mut rng).unwrap();
            one.register_envelope(&env).unwrap();
            four.register_envelope(&env).unwrap();
        }
        assert_eq!(one.len(), 40);
        assert_eq!(four.len(), 40);

        for price in [0.5f64, 5.5, 9.5, 20.0] {
            let publication = PublicationSpec::new().attr("price", price);
            let ct = crypto.encrypt_header(&publication, &mut rng);
            assert_eq!(
                one.match_encrypted(&ct).unwrap(),
                four.match_encrypted(&ct).unwrap(),
                "price {price}"
            );
        }
    }

    #[test]
    fn batch_fanout_merges_like_per_message() {
        let platform = SgxPlatform::for_testing(7);
        let (crypto, mut rng) = producer();
        let mut router = PartitionedRouter::in_enclaves(&platform, IndexKind::Poset, 3).unwrap();
        router.provision_keys(crypto.sk(), crypto.public_key());
        for i in 0..30u64 {
            let spec = SubscriptionSpec::new().gt("price", (i % 10) as f64);
            let env =
                crypto.seal_registration(&spec, SubscriptionId(i), ClientId(i), &mut rng).unwrap();
            router.register_envelope(&env).unwrap();
        }
        let headers: Vec<Vec<u8>> = [0.5f64, 3.5, 7.5, 11.0]
            .iter()
            .map(|p| crypto.encrypt_header(&PublicationSpec::new().attr("price", *p), &mut rng))
            .collect();

        router.reset_counters();
        let batched = router.match_encrypted_batch(&headers).unwrap();
        // One crossing per slice for the whole batch.
        assert_eq!(router.total_ecalls(), 3);
        assert!(router.fanout_wall_ns() > 0, "wall clock measured");
        for (i, ct) in headers.iter().enumerate() {
            assert_eq!(batched[i], router.match_encrypted(ct).unwrap());
        }
        // A poisoned header fails the whole batch.
        let mut bad = headers.clone();
        bad[1].truncate(3);
        assert!(router.match_encrypted_batch(&bad).is_err());
    }

    #[test]
    fn unregister_routes_to_owning_slice() {
        let platform = SgxPlatform::for_testing(3);
        let (crypto, _rng) = producer();
        let mut router = PartitionedRouter::in_enclaves(&platform, IndexKind::Poset, 3).unwrap();
        router.provision_keys(crypto.sk(), crypto.public_key());
        for i in 0..9u64 {
            router
                .register_plain(
                    SubscriptionId(i),
                    ClientId(i),
                    &SubscriptionSpec::new().eq("s", i as i64),
                )
                .unwrap();
        }
        assert!(router.unregister(SubscriptionId(4)));
        assert!(!router.unregister(SubscriptionId(4)));
        assert_eq!(router.len(), 8);
    }

    #[test]
    fn re_registration_replaces_across_slices() {
        // Regression: every registration used to take the next
        // round-robin slice, so re-registering a live id stranded the old
        // copy on another slice — still matched, and out of `unregister`'s
        // reach.
        let platform = SgxPlatform::for_testing(9);
        let (crypto, mut rng) = producer();
        let mut router = PartitionedRouter::in_enclaves(&platform, IndexKind::Poset, 3).unwrap();
        router.provision_keys(crypto.sk(), crypto.public_key());
        let wide = SubscriptionSpec::new().gt("price", 1.0);
        let narrow = SubscriptionSpec::new().gt("price", 100.0);
        let seal = |spec: &SubscriptionSpec, rng: &mut CryptoRng| {
            crypto.seal_registration(spec, SubscriptionId(7), ClientId(7), rng).unwrap()
        };
        router.register_envelope(&seal(&wide, &mut rng)).unwrap();
        router.register_envelope(&seal(&narrow, &mut rng)).unwrap();
        router.register_plain(SubscriptionId(8), ClientId(8), &wide).unwrap();
        router.register_plain(SubscriptionId(8), ClientId(8), &narrow).unwrap();
        assert_eq!(router.len(), 2, "one row per id, not one per registration");

        let mut at = |price: f64, router: &mut PartitionedRouter| {
            let header =
                crypto.encrypt_header(&PublicationSpec::new().attr("price", price), &mut rng);
            router.match_encrypted(&header).unwrap()
        };
        assert!(at(50.0, &mut router).is_empty(), "the wide filters are gone");
        assert_eq!(at(150.0, &mut router), vec![ClientId(7), ClientId(8)]);
        assert!(router.unregister(SubscriptionId(7)));
        assert!(router.unregister(SubscriptionId(8)));
        assert!(at(150.0, &mut router).is_empty(), "unregister reaches the only copy");
        assert!(router.is_empty());
    }

    #[test]
    fn slices_split_the_footprint_and_report_stats() {
        let platform = SgxPlatform::for_testing(4);
        let mut router = PartitionedRouter::in_enclaves(&platform, IndexKind::Poset, 4).unwrap();
        for i in 0..400u64 {
            router
                .register_plain(
                    SubscriptionId(i),
                    ClientId(i),
                    &SubscriptionSpec::new().eq("s", i as i64),
                )
                .unwrap();
        }
        let stats = router.slice_stats();
        assert_eq!(stats.len(), 4);
        for s in &stats {
            assert_eq!(s.subscriptions, 100, "round-robin balances slices");
            assert_eq!(s.edge_subscriptions, 100, "plain registrations are all edge load");
            assert!(s.index_bytes > 0);
            let lifetime = s.lifetime_ecalls.expect("enclave-hosted slices report a gate");
            assert!(lifetime >= 100, "one crossing per registration");
            let snap = s.snapshot();
            assert!(snap.contains(&("gated", 1)));
            assert!(snap.iter().any(|(name, _)| *name == "lifetime_ecalls"));
        }
        assert!((router.occupancy_skew() - 1.0).abs() < 1e-9);

        // Clustered unregistrations skew one slice; the stats expose it.
        for i in (0..400u64).filter(|i| i % 4 == 0).take(50) {
            router.unregister(SubscriptionId(i));
        }
        assert!(router.occupancy_skew() > 1.1, "skew detected after churn");
    }

    #[test]
    fn gateless_slice_omits_the_lifetime_counter() {
        // Regression: a gateless slice used to export `lifetime_ecalls: 0`
        // via `unwrap_or_default`, indistinguishable from an idle enclave.
        let stats = SliceStats {
            slice: 0,
            subscriptions: 3,
            edge_subscriptions: 3,
            nodes: 1,
            index_bytes: 64,
            mem: MemStats::default(),
            lifetime_ecalls: None,
        };
        let snap = stats.snapshot();
        assert!(snap.contains(&("gated", 0)));
        assert!(snap.iter().all(|(name, _)| *name != "lifetime_ecalls"));
    }

    #[test]
    fn partitioning_avoids_the_epc_cliff() {
        // The conclusion's claim: a database that thrashes one enclave's
        // EPC fits comfortably when split across slices.
        let tiny_epc = EpcConfig { total_bytes: 2 << 20, usable_bytes: 1 << 20, page_size: 4096 };
        let platform = SgxPlatform::with_config(
            5,
            CacheConfig::default(),
            tiny_epc,
            CostModel::default(),
            512,
        );
        let n = 6_000u64; // ~2.5 MB of nodes vs 1 MB usable EPC per enclave
        let specs: Vec<SubscriptionSpec> = (0..n)
            .map(|i| {
                // 37 is coprime with 6000, so every (symbol, bound) pair is
                // distinct: no node sharing, a full-size index.
                SubscriptionSpec::new()
                    .eq("symbol", format!("S{}", i % 40).as_str())
                    .gt("price", (i * 37 % n) as f64 / 10.0)
            })
            .collect();

        let mut one = single(&platform, IndexKind::Poset).unwrap();
        let mut four = PartitionedRouter::in_enclaves(&platform, IndexKind::Poset, 4).unwrap();
        for (i, spec) in specs.iter().enumerate() {
            one.register_plain(SubscriptionId(i as u64), ClientId(i as u64), spec).unwrap();
            four.register_plain(SubscriptionId(i as u64), ClientId(i as u64), spec).unwrap();
        }
        assert!(one.total_epc_swaps() > 0, "single enclave pages");
        assert_eq!(four.total_epc_swaps(), 0, "partitioned index fits per-slice EPC");
        assert!(four.parallel_elapsed_ns() < one.total_elapsed_ns());
    }
}
