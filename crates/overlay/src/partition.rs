//! Partitioned matching inside one broker: N engine slices behind the
//! single-matcher API, with a skew-driven migration primitive.
//!
//! The paper's routing enclave is a single matcher; at large scale a hot
//! overlay broker becomes the bottleneck. [`PartitionedMatcher`] shards
//! the broker's subscriptions across `N` [`MatchingEngine`] slices —
//! each with its own arena poset, ASPE gate state and match scratch —
//! while presenting exactly the register/unregister/match surface
//! [`crate::broker::Broker`] already drives:
//!
//! * **Placement** — a fresh subscription id is hash-placed by
//!   [`scbr::cluster::home_slice`], the one placement rule it shares with
//!   the scale-out router; a re-registration or removal routes to the
//!   id's *current* slice through the placement map, so a migrated
//!   subscription is never duplicated by later churn. (The map exists
//!   only because migration can move an id off its home slice.) Learning
//!   the id before picking a slice uses
//!   [`MatchingEngine::peek_registration`] (verify + decrypt + decode
//!   without mutating); with one slice the matcher delegates directly
//!   and the hot path is byte-for-byte the single-engine one.
//! * **Fan-out** — one publication header is matched by every slice via
//!   [`MatchingEngine::match_encrypted_append`] into a shared buffer,
//!   then the combined span is sorted and deduplicated. All slices share
//!   the broker's one [`MemorySim`], so the whole fan-out stays inside
//!   the broker's existing one-ECALL-per-hop crossing and is charged on
//!   the same virtual clock.
//! * **Migration** — [`PartitionedMatcher::migrate`] moves one live
//!   subscription between slices *make-before-break*: register on the
//!   target under the same delivery identity (link interfaces keep their
//!   top-bit-tagged [`ClientId`]s), then unregister from the source. In
//!   the window where both slices hold the id, the fan-out merge
//!   deduplicates the double match — no publication is lost or delivered
//!   twice mid-migration.
//!
//! The skew signal and the closed rebalancing loop live in the broker
//! (which owns the registration envelopes a migration replays); this
//! module provides the mechanism. The skew arithmetic
//! ([`scbr::cluster::occupancy_skew`]) and the per-slice stats
//! ([`scbr::cluster::SliceStats::of`]) are `scbr`'s cluster-level ones.
//! Unlike the router's slices, which are separate enclaves and never
//! migrate, these slices share the broker's one enclave, so a migration
//! never carries plaintext across the host.

use scbr::cluster::{home_slice, SliceStats};
use scbr::engine::MatchingEngine;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::IndexKind;
use scbr::ScbrError;
use scbr_crypto::{RsaPublicKey, SymmetricKey};
use scbr_telemetry::StageSummary;
use sgx_sim::MemorySim;
use std::collections::BTreeMap;

/// How a broker partitions its matcher. Host-side configuration (like
/// the trust anchors): survives crashes, `Copy` so it rides inside
/// [`crate::fabric::FabricConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Matcher slices per broker. `1` (the default) keeps the exact
    /// single-engine hot path — no peek, no fan-out, no merge.
    pub slices: usize,
    /// The `occupancy_skew` (max slice edge-load over mean) above which
    /// the broker's serving-tick rebalancer starts migrating.
    pub skew_threshold: f64,
    /// Subscriptions migrated fullest → emptiest per rebalancing pass.
    pub migration_batch: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig { slices: 1, skew_threshold: 1.5, migration_batch: 8 }
    }
}

impl PartitionConfig {
    /// A partitioned configuration with `slices` slices and the default
    /// skew threshold and migration batch.
    pub fn sliced(slices: usize) -> Self {
        PartitionConfig { slices: slices.max(1), ..PartitionConfig::default() }
    }

    /// Sets the skew threshold the auto-rebalancer reacts to.
    #[must_use]
    pub fn with_skew_threshold(mut self, threshold: f64) -> Self {
        self.skew_threshold = threshold.max(1.0);
        self
    }

    /// Sets the per-pass migration batch size.
    #[must_use]
    pub fn with_migration_batch(mut self, batch: usize) -> Self {
        self.migration_batch = batch.max(1);
        self
    }
}

/// What one rebalancing run did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceReport {
    /// Subscriptions migrated (0 when the skew was already below the
    /// threshold).
    pub migrated: usize,
    /// Fullest → emptiest passes performed.
    pub passes: usize,
    /// `occupancy_skew` before the run.
    pub skew_before: f64,
    /// `occupancy_skew` after the run.
    pub skew_after: f64,
}

/// N matching-engine slices behind the single-matcher API (see the
/// module docs). All slices share one [`MemorySim`]: inside a broker the
/// partition is a *concurrency and cache structure*, not a trust
/// boundary — there is still exactly one enclave, one clock and one
/// crossing ledger.
pub struct PartitionedMatcher {
    slices: Vec<MatchingEngine>,
    /// Current owning slice of every live subscription id. `BTreeMap`
    /// for deterministic migration candidate order.
    placement: BTreeMap<SubscriptionId, usize>,
    /// Subscriptions migrated between slices over the matcher's
    /// lifetime.
    migrations: u64,
}

impl std::fmt::Debug for PartitionedMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedMatcher")
            .field("slices", &self.slices.len())
            .field("subscriptions", &self.placement.len())
            .finish()
    }
}

impl PartitionedMatcher {
    /// Builds `slices` engine slices (at least one), all indexing into
    /// `mem`.
    pub fn new(mem: &MemorySim, kind: IndexKind, slices: usize) -> Self {
        let n = slices.max(1);
        // One interning table for all slices: the broker's covering check
        // compares compiled subscriptions across them.
        let schema = scbr::attr::AttrSchema::new();
        PartitionedMatcher {
            slices: (0..n)
                .map(|_| MatchingEngine::with_schema(mem, kind, schema.clone()))
                .collect(),
            placement: BTreeMap::new(),
            migrations: 0,
        }
    }

    /// Number of slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// The slice currently holding `id`, if live.
    pub fn slice_of(&self, id: SubscriptionId) -> Option<usize> {
        self.placement.get(&id).copied()
    }

    /// Subscriptions migrated between slices over the matcher's lifetime.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The shared memory simulator (slice 0's handle; all slices clone
    /// the same one).
    pub fn memory(&self) -> &MemorySim {
        self.slices[0].memory()
    }

    /// Installs `SK` and the producer signature key into every slice.
    pub fn provision_keys(&mut self, sk: SymmetricKey, producer_key: RsaPublicKey) {
        for slice in &mut self.slices {
            slice.provision_keys(sk.clone(), producer_key.clone());
        }
    }

    /// Enables or disables stage-latency telemetry on every slice.
    pub fn set_telemetry(&mut self, on: bool) {
        for slice in &mut self.slices {
            slice.set_telemetry(on);
        }
    }

    /// Per-slice stage summaries, in slice order (one slice's decrypt
    /// and index-match stages after another's).
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        self.slices.iter().flat_map(MatchingEngine::stage_summaries).collect()
    }

    /// Total live subscriptions across slices (edge + link interfaces).
    pub fn subscriptions(&self) -> usize {
        self.slices.iter().map(|s| s.index().len()).sum()
    }

    /// Registers an envelope on the id's owning slice (current placement
    /// for a live id, hash placement for a fresh one), with an optional
    /// delivery-identity override — the partitioned form of
    /// [`MatchingEngine::register_envelope_as`].
    ///
    /// # Errors
    ///
    /// Signature/decryption failures, malformed bodies, missing keys.
    pub fn register_envelope_as(
        &mut self,
        envelope: &[u8],
        deliver_to: Option<ClientId>,
    ) -> Result<(SubscriptionId, scbr::CompiledSubscription), ScbrError> {
        if self.slices.len() == 1 {
            let out = self.slices[0].register_envelope_as(envelope, deliver_to)?;
            self.placement.insert(out.0, 0);
            return Ok(out);
        }
        // The slice is keyed by the id, which is inside the sealed body:
        // peek (verify + decrypt + decode, no mutation) to learn it, then
        // register for real on the owner.
        let (id, _) = self.slices[0].peek_registration(envelope)?;
        let slice = self.slice_of(id).unwrap_or_else(|| home_slice(id, self.slices.len()));
        let out = self.slices[slice].register_envelope_as(envelope, deliver_to)?;
        self.placement.insert(id, slice);
        Ok(out)
    }

    /// Registers an already-opened registration body on the id's owning
    /// slice — the partitioned form of
    /// [`MatchingEngine::register_retained_as`], and the redo path of a
    /// restart: same placement rule as
    /// [`PartitionedMatcher::register_envelope_as`], no keys needed.
    ///
    /// # Errors
    ///
    /// Malformed bodies or invalid subscriptions.
    pub fn register_retained_as(
        &mut self,
        body: Vec<u8>,
        deliver_to: Option<ClientId>,
    ) -> Result<(SubscriptionId, scbr::CompiledSubscription), ScbrError> {
        let slice = if self.slices.len() == 1 {
            0
        } else {
            let (_, id, _) = scbr::codec::decode_registration(&body)?;
            self.slice_of(id).unwrap_or_else(|| home_slice(id, self.slices.len()))
        };
        let out = self.slices[slice].register_retained_as(body, deliver_to)?;
        self.placement.insert(out.0, slice);
        Ok(out)
    }

    /// The retained (plaintext) registration body of a live id, from its
    /// owning slice.
    pub fn retained_body(&self, id: SubscriptionId) -> Option<&[u8]> {
        self.slices[self.slice_of(id)?].retained_body(id)
    }

    /// Processes an unregistration envelope against the id's owning
    /// slice. Idempotent like the engine's: an id no slice holds
    /// authenticates normally and reports `existed = false`.
    ///
    /// # Errors
    ///
    /// Signature/decryption failures, malformed bodies, missing keys.
    pub fn unregister_envelope(
        &mut self,
        envelope: &[u8],
    ) -> Result<(SubscriptionId, ClientId, bool), ScbrError> {
        if self.slices.len() == 1 {
            let out = self.slices[0].unregister_envelope(envelope)?;
            if out.2 {
                self.placement.remove(&out.0);
            }
            return Ok(out);
        }
        // The peek authenticates the envelope; the owning slice then
        // drops the id directly (no second decrypt).
        let (id, client) = self.slices[0].peek_unregistration(envelope)?;
        let Some(slice) = self.slice_of(id) else {
            return Ok((id, client, false));
        };
        let existed = self.slices[slice].unregister(id);
        self.placement.remove(&id);
        Ok((id, client, existed))
    }

    /// Unregisters `id` without an envelope (the broker's reconciliation
    /// path).
    pub fn unregister(&mut self, id: SubscriptionId) -> bool {
        let Some(slice) = self.placement.remove(&id) else {
            return false;
        };
        self.slices[slice].unregister(id)
    }

    /// The compiled form and delivery identity of a live id, from its
    /// owning slice (see [`MatchingEngine::compiled_of`]).
    ///
    /// # Errors
    ///
    /// Malformed retained bodies or compilation failures.
    pub fn compiled_of(
        &self,
        id: SubscriptionId,
    ) -> Result<Option<(ClientId, scbr::CompiledSubscription)>, ScbrError> {
        match self.slice_of(id) {
            Some(slice) => self.slices[slice].compiled_of(id),
            None => Ok(None),
        }
    }

    /// The delivery identity a live id is indexed under.
    pub fn delivery_identity(&self, id: SubscriptionId) -> Option<ClientId> {
        self.slices[self.slice_of(id)?].delivery_identity(id)
    }

    /// Decrypts and matches one header across every slice, replacing
    /// `out` with the merged, sorted, deduplicated client set: clear,
    /// then one [`MatchingEngine::match_encrypted_append`] per slice. One
    /// slice's span is already sorted and deduplicated; with several the
    /// merge deduplicates — which is also what makes the
    /// make-before-break migration window deliver exactly once.
    ///
    /// # Errors
    ///
    /// Decryption or decoding failures, or missing keys; `out` is left
    /// empty on error.
    pub fn match_into(&self, header_ct: &[u8], out: &mut Vec<ClientId>) -> Result<(), ScbrError> {
        out.clear();
        for slice in &self.slices {
            if let Err(err) = slice.match_encrypted_append(header_ct, out) {
                out.clear();
                return Err(err);
            }
        }
        if self.slices.len() > 1 {
            out.sort_unstable_by_key(|c| c.0);
            out.dedup();
        }
        Ok(())
    }

    /// Moves a live subscription to slice `to`, make-before-break:
    /// register the envelope on the target under the *same* delivery
    /// identity first, then unregister from the source. A no-op when the
    /// id is not live or already there.
    ///
    /// # Errors
    ///
    /// Envelope authentication/compilation failures (the source slice is
    /// left untouched — the subscription never goes dark).
    pub fn migrate(
        &mut self,
        id: SubscriptionId,
        envelope: &[u8],
        to: usize,
    ) -> Result<bool, ScbrError> {
        let Some(from) = self.slice_of(id) else {
            return Ok(false);
        };
        if from == to || to >= self.slices.len() {
            return Ok(false);
        }
        let identity = self.slices[from].delivery_identity(id);
        self.slices[to].register_envelope_as(envelope, identity)?;
        self.slices[from].unregister(id);
        self.placement.insert(id, to);
        self.migrations += 1;
        Ok(true)
    }

    /// Per-slice edge-client occupancy (link-interface copies excluded —
    /// they are pinned to the broker that owns the link).
    pub fn edge_counts(&self) -> Vec<usize> {
        self.slices.iter().map(MatchingEngine::edge_subscriptions).collect()
    }

    /// Max-over-mean edge occupancy across slices (1.0 = perfectly
    /// balanced or empty; see [`scbr::cluster::occupancy_skew`]).
    pub fn occupancy_skew(&self) -> f64 {
        scbr::cluster::occupancy_skew(&self.edge_counts())
    }

    /// The fullest and emptiest slices by edge occupancy (ties broken by
    /// slice number, deterministically).
    pub fn extremes(&self) -> (usize, usize) {
        let counts = self.edge_counts();
        let fullest = (0..counts.len()).max_by_key(|&i| (counts[i], usize::MAX - i)).unwrap_or(0);
        let emptiest = (0..counts.len()).min_by_key(|&i| (counts[i], i)).unwrap_or(0);
        (fullest, emptiest)
    }

    /// Up to `limit` edge-subscription ids currently on `slice`, in id
    /// order — the migration candidates (interface copies never move:
    /// they are pinned to the link's broker, and they are excluded from
    /// the skew figure anyway).
    pub fn edge_ids_on(&self, slice: usize, limit: usize) -> Vec<SubscriptionId> {
        self.placement
            .iter()
            .filter(|&(id, s)| {
                *s == slice
                    && self.slices[slice].delivery_identity(*id).is_some_and(|c| !c.is_interface())
            })
            .map(|(id, _)| *id)
            .take(limit)
            .collect()
    }

    /// Per-slice stats in [`SliceStats`] form (the cluster module's
    /// schema, so the same telemetry labels apply). `mem` and
    /// `lifetime_ecalls` are `None`: the slices share the broker's one
    /// memory and call gate, whose counters the broker reports once.
    pub fn slice_stats(&self) -> Vec<SliceStats> {
        self.slices
            .iter()
            .enumerate()
            .map(|(slice, engine)| SliceStats::of(slice, engine, None, None))
            .collect()
    }

    /// Serialises every slice's engine snapshot, in slice order. The
    /// per-slice assignment *is* the snapshot layout: each retained body
    /// sits inside its owning slice's section, so a restore rebuilds the
    /// sharding exactly.
    pub fn snapshot_slices(&self) -> Vec<Vec<u8>> {
        self.slices.iter().map(MatchingEngine::snapshot).collect()
    }

    /// Restores slice `slice` from an engine snapshot and records the
    /// placement of every id it holds.
    ///
    /// # Errors
    ///
    /// Malformed snapshots or invalid subscriptions abort the restore.
    pub fn restore_slice(&mut self, slice: usize, snapshot: &[u8]) -> Result<usize, ScbrError> {
        if slice >= self.slices.len() {
            return Err(ScbrError::Codec { context: "recovery slice out of range" });
        }
        let restored = self.slices[slice].restore(snapshot)?;
        self.placement.extend(self.slices[slice].ids().map(|id| (id, slice)));
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scbr::protocol::keys::ProducerCrypto;
    use scbr::{PublicationSpec, SubscriptionSpec};
    use scbr_crypto::rng::CryptoRng;
    use sgx_sim::{CacheConfig, CostModel};

    fn setup(slices: usize) -> (PartitionedMatcher, ProducerCrypto, CryptoRng) {
        let mut rng = CryptoRng::from_seed(0x70617274);
        let producer = ProducerCrypto::generate(512, &mut rng).unwrap();
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut matcher = PartitionedMatcher::new(&mem, IndexKind::Poset, slices);
        matcher.provision_keys(producer.sk().clone(), producer.public_key().clone());
        (matcher, producer, rng)
    }

    fn register(
        matcher: &mut PartitionedMatcher,
        producer: &ProducerCrypto,
        rng: &mut CryptoRng,
        id: u64,
        spec: &SubscriptionSpec,
    ) -> Vec<u8> {
        let envelope =
            producer.seal_registration(spec, SubscriptionId(id), ClientId(id), rng).unwrap();
        matcher.register_envelope_as(&envelope, None).unwrap();
        envelope
    }

    #[test]
    fn partitioned_matches_like_a_single_engine() {
        let (mut one, producer, mut rng) = setup(1);
        let (mut four, _, _) = setup(4);
        four.provision_keys(producer.sk().clone(), producer.public_key().clone());
        let mut envelopes = Vec::new();
        for i in 0..40u64 {
            let spec = SubscriptionSpec::new().gt("price", (i % 7) as f64);
            let envelope = producer
                .seal_registration(&spec, SubscriptionId(i), ClientId(i), &mut rng)
                .unwrap();
            one.register_envelope_as(&envelope, None).unwrap();
            four.register_envelope_as(&envelope, None).unwrap();
            envelopes.push(envelope);
        }
        assert!(four.edge_counts().iter().all(|&c| c > 0), "hash placement spreads");
        let header = producer.encrypt_header(&PublicationSpec::new().attr("price", 3.5), &mut rng);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        one.match_into(&header, &mut a).unwrap();
        four.match_into(&header, &mut b).unwrap();
        assert_eq!(a, b, "partitioned ≡ single-engine match set");
        assert!(!a.is_empty());
    }

    #[test]
    fn slices_compile_into_one_attribute_numbering() {
        // Regression: each slice used to intern attribute names into its
        // own schema, so two slices that first saw "price" and "volume"
        // in opposite orders numbered them oppositely — and the broker's
        // cross-slice covering check compared price bounds with volume
        // bounds.
        let (mut matcher, producer, mut rng) = setup(2);
        let on = |slice: usize, matcher: &PartitionedMatcher| {
            (0..64u64)
                .find(|&i| home_slice(SubscriptionId(i), matcher.slice_count()) == slice)
                .unwrap()
        };
        let (a, b) = (on(0, &matcher), on(1, &matcher));
        let broad = SubscriptionSpec::new().gt("price", 3.0);
        let narrow = SubscriptionSpec::new().gt("volume", 1.0).gt("price", 5.0);
        let (_, broad_c) = matcher
            .register_envelope_as(
                &producer
                    .seal_registration(&broad, SubscriptionId(a), ClientId(a), &mut rng)
                    .unwrap(),
                None,
            )
            .unwrap();
        let (_, narrow_c) = matcher
            .register_envelope_as(
                &producer
                    .seal_registration(&narrow, SubscriptionId(b), ClientId(b), &mut rng)
                    .unwrap(),
                None,
            )
            .unwrap();
        assert_ne!(matcher.slice_of(SubscriptionId(a)), matcher.slice_of(SubscriptionId(b)));
        assert!(broad_c.covers(&narrow_c), "price > 3 covers volume > 1 ∧ price > 5");
        assert!(!narrow_c.covers(&broad_c));
    }

    #[test]
    fn migration_is_make_before_break_and_rechurn_safe() {
        let (mut matcher, producer, mut rng) = setup(3);
        let spec = SubscriptionSpec::new().gt("price", 1.0);
        let envelope = register(&mut matcher, &producer, &mut rng, 7, &spec);
        let from = matcher.slice_of(SubscriptionId(7)).unwrap();
        let to = (from + 1) % 3;
        assert!(matcher.migrate(SubscriptionId(7), &envelope, to).unwrap());
        assert_eq!(matcher.slice_of(SubscriptionId(7)), Some(to));
        assert_eq!(matcher.migrations(), 1);
        let header = producer.encrypt_header(&PublicationSpec::new().attr("price", 2.0), &mut rng);
        let mut out = Vec::new();
        matcher.match_into(&header, &mut out).unwrap();
        assert_eq!(out, vec![ClientId(7)], "delivered exactly once after migration");

        // Later churn routes to the *new* slice, not the hash home.
        let broad = SubscriptionSpec::new().gt("price", 0.0);
        let re =
            producer.seal_registration(&broad, SubscriptionId(7), ClientId(7), &mut rng).unwrap();
        matcher.register_envelope_as(&re, None).unwrap();
        assert_eq!(matcher.slice_of(SubscriptionId(7)), Some(to));
        assert_eq!(matcher.subscriptions(), 1, "re-registration replaced, not duplicated");
        let unreg = producer.seal_unregistration(SubscriptionId(7), ClientId(7), &mut rng).unwrap();
        let (_, _, existed) = matcher.unregister_envelope(&unreg).unwrap();
        assert!(existed);
        assert_eq!(matcher.subscriptions(), 0);
    }

    #[test]
    fn interface_identity_survives_migration() {
        let (mut matcher, producer, mut rng) = setup(2);
        let iface = ClientId(ClientId::INTERFACE_BIT | 3);
        let spec = SubscriptionSpec::new().gt("price", 1.0);
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(1), ClientId(9), &mut rng).unwrap();
        matcher.register_envelope_as(&envelope, Some(iface)).unwrap();
        let from = matcher.slice_of(SubscriptionId(1)).unwrap();
        assert!(matcher.migrate(SubscriptionId(1), &envelope, 1 - from).unwrap());
        assert_eq!(matcher.delivery_identity(SubscriptionId(1)), Some(iface));
        assert_eq!(matcher.edge_counts(), vec![0, 0], "interface copies never count as edge load");
        assert!(matcher.edge_ids_on(1 - from, 8).is_empty(), "interfaces are not candidates");
    }

    #[test]
    fn skew_arithmetic_and_extremes() {
        let (mut matcher, producer, mut rng) = setup(2);
        assert!((matcher.occupancy_skew() - 1.0).abs() < 1e-9, "empty matcher is balanced");
        let mut on0 = 0;
        for i in 0..16u64 {
            let spec = SubscriptionSpec::new().gt("p", i as f64);
            register(&mut matcher, &producer, &mut rng, i, &spec);
            if matcher.slice_of(SubscriptionId(i)) == Some(0) {
                on0 += 1;
            }
        }
        let counts = matcher.edge_counts();
        assert_eq!(counts[0], on0);
        assert_eq!(counts[0] + counts[1], 16);
        let (fullest, emptiest) = matcher.extremes();
        assert!(counts[fullest] >= counts[emptiest]);
        let expected = counts.iter().copied().max().unwrap() as f64 / 8.0;
        assert!((matcher.occupancy_skew() - expected).abs() < 1e-9);
    }

    #[test]
    fn snapshot_restore_preserves_the_sharding() {
        let (mut matcher, producer, mut rng) = setup(3);
        let mut placed = BTreeMap::new();
        for i in 0..30u64 {
            let spec = SubscriptionSpec::new().gt("p", (i % 5) as f64);
            let envelope = register(&mut matcher, &producer, &mut rng, i, &spec);
            if i == 4 {
                // Make the layout diverge from pure hash placement.
                let from = matcher.slice_of(SubscriptionId(4)).unwrap();
                matcher.migrate(SubscriptionId(4), &envelope, (from + 1) % 3).unwrap();
            }
            placed.insert(SubscriptionId(i), matcher.slice_of(SubscriptionId(i)).unwrap());
        }
        placed.insert(SubscriptionId(4), matcher.slice_of(SubscriptionId(4)).unwrap());
        let snapshots = matcher.snapshot_slices();

        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut restored = PartitionedMatcher::new(&mem, IndexKind::Poset, 3);
        restored.provision_keys(producer.sk().clone(), producer.public_key().clone());
        for (slice, snap) in snapshots.iter().enumerate() {
            restored.restore_slice(slice, snap).unwrap();
        }
        for (id, slice) in placed {
            assert_eq!(restored.slice_of(id), Some(slice), "{id} restored to its exact slice");
        }
        let header = producer.encrypt_header(&PublicationSpec::new().attr("p", 2.5), &mut rng);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        matcher.match_into(&header, &mut a).unwrap();
        restored.match_into(&header, &mut b).unwrap();
        assert_eq!(a, b);
    }
}
