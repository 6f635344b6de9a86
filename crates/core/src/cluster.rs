//! Horizontal scaling: subscriptions partitioned across enclave-hosted
//! matcher slices.
//!
//! The paper's conclusion points out that the EPC limit "can be overcome
//! through horizontal scalability", and §3.4 advocates a StreamHub-like
//! architecture of specialised components over a broker overlay.
//! [`PartitionedRouter`] implements that extension: `n` slices, each a
//! [`RouterEngine`] in its own enclave holding `1/n`-th of the index, so
//! a database that would overflow one enclave's EPC (and fall off the
//! Figure 8 cliff) stays within budget on `n` slices. Every publication
//! batch is fanned out to all slices and their spans are merged per
//! publication.
//!
//! ## One partitioning rule
//!
//! [`home_slice`] places a subscription by a Fibonacci hash of its id.
//! The overlay broker's `PartitionedMatcher` places fresh ids by the same
//! function, and both partitioners account skew with [`occupancy_skew`]
//! and report per-slice figures through [`SliceStats::of`], so each rule
//! exists once. Placement reads nothing but the id, and the router keeps
//! no placement map: a subscription's slice is always
//! `home_slice(id, n)`, so a re-registration replaces in place and an
//! unregistration goes straight to the one slice that can hold the id.
//!
//! The router never migrates a subscription and runs no rebalancer. Its
//! slices are separate enclaves, so moving a subscription would carry
//! its plaintext across the untrusted host. (A broker's slices share one
//! enclave, which is why only the broker rebalances.) Hash placement
//! balances the slices in expectation; clustered unregistrations can
//! still skew them, and [`PartitionedRouter::slice_stats`] and
//! [`PartitionedRouter::occupancy_skew`] expose it. Through the
//! telemetry registry the stats surface as `slice.<n>.*` metrics (one
//! [`SliceStats::snapshot`] per slice): the spread of
//! `slice.*.subscriptions` is the skew, and the spread of
//! `slice.*.epc_swaps` shows a hot slice thrashing the EPC while its
//! siblings idle. Skew counts *edge-client* load only: link-interface
//! registrations are pinned to whichever broker owns the link, so
//! counting them would read a high-degree broker as permanently skewed.
//!
//! ## Execution model
//!
//! [`PartitionedRouter::match_batch_into`] fans a batch out on
//! [`std::thread::scope`]: the calling thread matches one slice and a
//! scoped thread each of the others, every slice through a **single
//! enclave crossing** ([`RouterEngine::match_batch_into`]) into its own
//! reused [`BatchMatches`]. Per-message transition cost therefore scales
//! as `slices / batch_size`. The merge commits one span per header; a
//! header a slice could not decrypt records that error alone, as it does
//! on one engine. Two clocks describe a fan-out:
//!
//! * [`PartitionedRouter::parallel_elapsed_ns`] — the *virtual* critical
//!   path: the slowest slice's simulated clock (deterministic, what the
//!   figures report);
//! * [`PartitionedRouter::fanout_wall_ns`] — accumulated *wall-clock*
//!   time from spawn to merge, measured on the host.

use crate::engine::{BatchMatches, MatchingEngine, RouterEngine};
use crate::error::ScbrError;
use crate::ids::{ClientId, SubscriptionId};
use crate::index::IndexKind;
use crate::subscription::SubscriptionSpec;
use scbr_crypto::ctr::SymmetricKey;
use scbr_crypto::rsa::RsaPublicKey;
use sgx_sim::{Enclave, MemStats, SgxPlatform};
use std::time::Instant;

/// The slice subscription `id` lives on among `slices`: Fibonacci
/// hashing on the id bits, so sequential ids spread instead of
/// clustering. Sealed broker records store their slices' contents, so
/// this formula must not change.
///
/// # Panics
///
/// Panics if `slices` is zero.
pub fn home_slice(id: SubscriptionId, slices: usize) -> usize {
    ((id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % slices as u64) as usize
}

/// Occupancy skew of per-slice edge-subscription counts: the fullest
/// slice over the mean (1.0 = perfectly balanced, or empty).
pub fn occupancy_skew(edge_counts: &[usize]) -> f64 {
    let total: usize = edge_counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / edge_counts.len() as f64;
    edge_counts.iter().copied().max().unwrap_or(0) as f64 / mean
}

/// Per-slice occupancy and memory counters (see the module docs).
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
    /// The slice's own memory counters since the last reset (`ecalls`,
    /// `epc_swaps`, virtual `elapsed_ns`), or `None` when the slices
    /// share one memory, as a broker's do: those counters are the
    /// broker's, and repeating them per slice would count them once per
    /// slice.
    pub mem: Option<MemStats>,
    /// Lifetime enclave crossings (not reset by
    /// [`PartitionedRouter::reset_counters`]), or `None` when the slice
    /// has no call gate of its own — an absent counter, unlike a silent
    /// 0, lets telemetry tell a gateless slice from an idle enclave.
    pub lifetime_ecalls: Option<u64>,
}

impl SliceStats {
    /// The occupancy of slice `slice`'s engine, with the counters only a
    /// slice that owns its memory (`mem`) or its call gate
    /// (`lifetime_ecalls`) can attribute.
    pub fn of(
        slice: usize,
        engine: &MatchingEngine,
        mem: Option<MemStats>,
        lifetime_ecalls: Option<u64>,
    ) -> Self {
        let index = engine.index();
        SliceStats {
            slice,
            subscriptions: index.len(),
            edge_subscriptions: engine.edge_subscriptions(),
            nodes: index.node_count(),
            index_bytes: index.logical_bytes(),
            mem,
            lifetime_ecalls,
        }
    }

    /// Uniform counter export for the telemetry registry (absorbed under
    /// a `slice.<n>` prefix). `gated` reports the gate mode (1 =
    /// enclave-hosted). The memory counters and `lifetime_ecalls` are
    /// emitted only when the slice owns them, so a shared-memory or
    /// gateless slice exports no such counter at all instead of a
    /// misleading copy or 0.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let mut pairs = vec![
            ("subscriptions", self.subscriptions as u64),
            ("edge_subscriptions", self.edge_subscriptions as u64),
            ("nodes", self.nodes as u64),
            ("index_bytes", self.index_bytes),
        ];
        if let Some(mem) = self.mem {
            pairs.extend([("ecalls", mem.ecalls), ("epc_swaps", mem.epc_swaps)]);
        }
        pairs.push(("gated", u64::from(self.lifetime_ecalls.is_some())));
        if let Some(lifetime) = self.lifetime_ecalls {
            pairs.push(("lifetime_ecalls", lifetime));
        }
        pairs
    }
}

/// A router made of `n` enclave-hosted matcher slices, hash-placed and
/// fanned out on scoped threads (see the module docs).
#[derive(Debug)]
pub struct PartitionedRouter {
    slices: Vec<RouterEngine>,
    /// Each slice's result of the current fan-out, reused across batches.
    matches: Vec<BatchMatches>,
    /// One header's clients gathered from every slice, reused per header.
    merged: Vec<ClientId>,
    /// Wall-clock nanoseconds spent in fan-out and merge since the last
    /// reset.
    fanout_wall_ns: u64,
}

impl PartitionedRouter {
    /// Launches `n` matcher enclaves on `platform`.
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
        let slices =
            (0..n).map(|_| RouterEngine::in_enclave(platform, kind)).collect::<Result<_, _>>()?;
        Ok(PartitionedRouter {
            slices,
            matches: (0..n).map(|_| BatchMatches::new()).collect(),
            merged: Vec::new(),
            fanout_wall_ns: 0,
        })
    }

    /// Number of slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Provisions every slice with the shared keys (each slice would run
    /// its own attestation in a real deployment; the producer-side key
    /// management "could be simply replicated", §3.4).
    pub fn provision_keys(&mut self, sk: &SymmetricKey, producer_key: &RsaPublicKey) {
        for slice in &mut self.slices {
            let (sk, pk) = (sk.clone(), producer_key.clone());
            slice.call(move |e| e.provision_keys(sk, pk));
        }
    }

    /// Registers a plaintext subscription on its home slice; a live id
    /// is always there, so re-registration replaces it.
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
        let slice = home_slice(id, self.slices.len());
        self.slices[slice].call(|e| e.register_plain(id, client, spec))
    }

    /// Unregisters a subscription from its home slice.
    pub fn unregister(&mut self, id: SubscriptionId) -> bool {
        let slice = home_slice(id, self.slices.len());
        self.slices[slice].call(|e| e.unregister(id))
    }

    /// Matches a batch of encrypted headers on every slice
    /// **concurrently**, one enclave crossing per slice, and replaces
    /// `out` with one merged (sorted, deduplicated) span per header. A
    /// header any slice failed on records that slice's error and sinks
    /// alone.
    ///
    /// Wall-clock time from spawn to merge is accumulated in
    /// [`PartitionedRouter::fanout_wall_ns`].
    pub fn match_batch_into(&mut self, headers: &[Vec<u8>], out: &mut BatchMatches) {
        // The fan-out runs on untrusted host threads; real wall time is
        // the *point* of `fanout_wall_ns` (per-slice virtual clocks
        // cannot observe cross-thread concurrency).
        // lint: allow(SL01, host-side dispatcher measuring thread fan-out wall time)
        let started = Instant::now();
        let (first, rest) = self.slices.split_first_mut().expect("at least one slice");
        let (first_out, rest_out) = self.matches.split_first_mut().expect("one buffer per slice");
        // Each thread takes its own `&mut RouterEngine`: the index is
        // `Send` but not `Sync`.
        std::thread::scope(|scope| {
            for (slice, matches) in rest.iter_mut().zip(rest_out) {
                scope.spawn(move || slice.match_batch_into(headers, matches));
            }
            first.match_batch_into(headers, first_out);
        });
        out.clear();
        for i in 0..headers.len() {
            match self.matches.iter_mut().find_map(|m| m.take_error(i)) {
                Some(error) => out.push_error(error),
                None => {
                    self.merged.clear();
                    for matches in &self.matches {
                        self.merged.extend_from_slice(matches.get(i).unwrap_or_default());
                    }
                    out.push_span(&mut self.merged);
                }
            }
        }
        self.fanout_wall_ns += started.elapsed().as_nanos() as u64;
    }

    /// Total subscriptions across slices.
    pub fn len(&self) -> usize {
        self.slices.iter().map(|s| s.engine().index().len()).sum()
    }

    /// True when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Virtual critical path of the fan-out deployment: slices run in
    /// parallel, so matching latency is the slowest slice's virtual time.
    pub fn parallel_elapsed_ns(&self) -> f64 {
        self.slices.iter().map(RouterEngine::elapsed_ns).fold(0.0, f64::max)
    }

    /// Aggregate virtual time (total energy/work across slices).
    pub fn total_elapsed_ns(&self) -> f64 {
        self.slices.iter().map(RouterEngine::elapsed_ns).sum()
    }

    /// Wall-clock nanoseconds spent in fan-out and merge since the last
    /// [`PartitionedRouter::reset_counters`] — host-measured truth,
    /// complementing the virtual clocks.
    pub fn fanout_wall_ns(&self) -> u64 {
        self.fanout_wall_ns
    }

    /// Total EPC page swaps across slices (the Figure 8 failure mode this
    /// architecture avoids).
    pub fn total_epc_swaps(&self) -> u64 {
        self.slices.iter().map(|s| s.stats().epc_swaps).sum()
    }

    /// Total enclave crossings across slices since the last reset.
    pub fn total_ecalls(&self) -> u64 {
        self.slices.iter().map(|s| s.stats().ecalls).sum()
    }

    /// Total OCALL round-trips across slices since the last reset.
    pub fn total_ocalls(&self) -> u64 {
        self.slices.iter().map(|s| s.stats().ocalls).sum()
    }

    /// Per-slice occupancy and memory counters, in fan-out order.
    pub fn slice_stats(&self) -> Vec<SliceStats> {
        self.slices
            .iter()
            .enumerate()
            .map(|(i, s)| {
                SliceStats::of(
                    i,
                    s.engine(),
                    Some(s.stats()),
                    s.enclave().map(Enclave::ecall_count),
                )
            })
            .collect()
    }

    /// Occupancy skew over the slices' *edge-client* subscriptions (see
    /// [`occupancy_skew`]; link-interface copies are pinned to the broker
    /// that owns the link, so they are excluded).
    pub fn occupancy_skew(&self) -> f64 {
        let counts: Vec<usize> =
            self.slices.iter().map(|s| s.engine().edge_subscriptions()).collect();
        occupancy_skew(&counts)
    }

    /// Resets every slice's counters and the wall-clock accumulator
    /// (between measurement phases).
    pub fn reset_counters(&mut self) {
        for slice in &self.slices {
            slice.reset_counters();
        }
        self.fanout_wall_ns = 0;
    }

    /// Runs `f` with read access to one slice's engine (inspection).
    ///
    /// # Panics
    ///
    /// Panics if `slice` is out of bounds.
    pub fn with_slice<R>(&self, slice: usize, f: impl FnOnce(&RouterEngine) -> R) -> R {
        f(&self.slices[slice])
    }
}

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

    fn router(platform: &SgxPlatform, crypto: &ProducerCrypto, n: usize) -> PartitionedRouter {
        let mut router = PartitionedRouter::in_enclaves(platform, IndexKind::Poset, n).unwrap();
        router.provision_keys(crypto.sk(), crypto.public_key());
        router
    }

    fn headers(crypto: &ProducerCrypto, rng: &mut CryptoRng, prices: &[f64]) -> Vec<Vec<u8>> {
        prices
            .iter()
            .map(|p| crypto.encrypt_header(&PublicationSpec::new().attr("price", *p), rng))
            .collect()
    }

    /// The merged spans of a batch in which every header matched.
    fn spans(router: &mut PartitionedRouter, headers: &[Vec<u8>]) -> Vec<Vec<ClientId>> {
        let mut out = BatchMatches::new();
        router.match_batch_into(headers, &mut out);
        out.iter().map(|span| span.expect("valid header").to_vec()).collect()
    }

    #[test]
    fn partitioned_matches_like_single() {
        let platform = SgxPlatform::for_testing(2);
        let (crypto, mut rng) = producer();
        let mut one = router(&platform, &crypto, 1);
        let mut four = router(&platform, &crypto, 4);
        for i in 0..40u64 {
            let spec = SubscriptionSpec::new().gt("price", (i % 10) as f64);
            // Collide clients across slices: the merge deduplicates.
            for r in [&mut one, &mut four] {
                r.register_plain(SubscriptionId(i), ClientId(i % 13), &spec).unwrap();
            }
        }
        assert_eq!(one.len(), 40);
        assert_eq!(four.len(), 40);

        let batch = headers(&crypto, &mut rng, &[0.5, 5.5, 9.5, 20.0]);
        let expected = spans(&mut one, &batch);
        assert_eq!(expected, spans(&mut four, &batch));
        assert_eq!(expected[3].len(), 13, "every client once");
    }

    #[test]
    fn batch_fanout_merges_like_per_message() {
        let platform = SgxPlatform::for_testing(7);
        let (crypto, mut rng) = producer();
        let mut router = router(&platform, &crypto, 3);
        for i in 0..30u64 {
            let spec = SubscriptionSpec::new().gt("price", (i % 10) as f64);
            router.register_plain(SubscriptionId(i), ClientId(i), &spec).unwrap();
        }
        let batch = headers(&crypto, &mut rng, &[0.5, 3.5, 7.5, 11.0]);

        router.reset_counters();
        let batched = spans(&mut router, &batch);
        // One crossing per slice for the whole batch.
        assert_eq!(router.total_ecalls(), 3);
        assert!(router.fanout_wall_ns() > 0, "wall clock measured");
        for (i, header) in batch.iter().enumerate() {
            assert_eq!(batched[i], spans(&mut router, std::slice::from_ref(header))[0]);
        }
        // A poisoned header fails alone; its batch-mates keep their spans.
        let mut bad = batch.clone();
        bad[1].truncate(3);
        let mut out = BatchMatches::new();
        router.match_batch_into(&bad, &mut out);
        assert_eq!(out.len(), 4);
        for (i, outcome) in out.iter().enumerate() {
            match i {
                1 => assert!(outcome.is_err()),
                _ => assert_eq!(outcome.unwrap(), batched[i].as_slice()),
            }
        }
    }

    #[test]
    fn unregister_routes_to_owning_slice() {
        let platform = SgxPlatform::for_testing(3);
        let (crypto, _rng) = producer();
        let mut router = router(&platform, &crypto, 3);
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
        // Regression: round-robin placement once sent a re-registration
        // to another slice, stranding the old copy — still matched, and
        // out of `unregister`'s reach. Hash placement sends every
        // registration of an id to the same slice.
        let platform = SgxPlatform::for_testing(9);
        let (crypto, mut rng) = producer();
        let mut router = router(&platform, &crypto, 3);
        let wide = SubscriptionSpec::new().gt("price", 1.0);
        let narrow = SubscriptionSpec::new().gt("price", 100.0);
        for id in [7u64, 8] {
            router.register_plain(SubscriptionId(id), ClientId(id), &wide).unwrap();
            router.register_plain(SubscriptionId(id), ClientId(id), &narrow).unwrap();
        }
        assert_eq!(router.len(), 2, "one row per id, not one per registration");

        let batch = headers(&crypto, &mut rng, &[50.0, 150.0]);
        assert_eq!(spans(&mut router, &batch), [vec![], vec![ClientId(7), ClientId(8)]]);
        assert!(router.unregister(SubscriptionId(7)));
        assert!(router.unregister(SubscriptionId(8)));
        assert!(spans(&mut router, &batch)[1].is_empty(), "unregister reaches the only copy");
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
        assert_eq!(stats.iter().map(|s| s.subscriptions).sum::<usize>(), 400);
        for s in &stats {
            assert!((85..=115).contains(&s.subscriptions), "hash placement balances slices");
            assert_eq!(s.edge_subscriptions, s.subscriptions, "plain registrations are edge load");
            assert!(s.index_bytes > 0);
            let lifetime = s.lifetime_ecalls.expect("enclave-hosted slices report a gate");
            assert!(lifetime >= s.subscriptions as u64, "one crossing per registration");
            let snap = s.snapshot();
            assert!(snap.contains(&("gated", 1)));
            assert!(snap.iter().any(|(name, _)| *name == "lifetime_ecalls"));
            assert!(snap.iter().any(|(name, _)| *name == "epc_swaps"), "own memory exported");
        }
        assert!(router.occupancy_skew() < 1.15);

        // Clustered unregistrations skew one slice; the stats expose it.
        for i in (0..400u64).filter(|&i| home_slice(SubscriptionId(i), 4) == 0).take(50) {
            assert!(router.unregister(SubscriptionId(i)));
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
            mem: None,
            lifetime_ecalls: None,
        };
        let snap = stats.snapshot();
        assert!(snap.contains(&("gated", 0)));
        assert!(snap.iter().all(|(name, _)| !matches!(*name, "lifetime_ecalls" | "epc_swaps")));
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

        let mut one = PartitionedRouter::in_enclaves(&platform, IndexKind::Poset, 1).unwrap();
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
