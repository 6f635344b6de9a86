//! The overlay broker's in-enclave core.
//!
//! ## What the enclave holds
//!
//! [`BrokerCore`]: the matching engine (holding `SK` and the plaintext
//! compiled subscriptions) plus the per-link covering tables, the live
//! envelope set and the journal of mutations not yet checkpointed. The
//! untrusted shell (`scbr_overlay::broker::Broker`) only ever handles
//! ciphertext — registration envelopes, encrypted headers, sealed link
//! frames, sealed recovery records — and the *routing decisions* the
//! enclave intentionally reveals, exactly the §3.3 leak the paper accepts
//! for the single-router case. The checkpoint counters the shell exports
//! (`seals`, `sealed_bytes`, `compactions`, `log_entries`) add nothing
//! to that: the host is handed every blob and stores the file, so it
//! already knows how many there were, how long each is (ciphertext length
//! is plaintext length plus a constant) and which ones replaced the file.
//! Journalling retirements moved one of those observations, it did not
//! add one: the host told an admission from a retirement by
//! delta-versus-base before and tells them by the delta's length now. A
//! compaction by retired quarter says only that the retired envelopes —
//! every one of which the host has handled as ciphertext, length in clear
//! — now add up to a quarter of the base; which envelopes those are stays
//! inside. Like the hop records' bucketed match counts, nothing exported
//! is finer than what the host observes on its own.
//!
//! ## The ecall table
//!
//! The fields are private; the shell changes them only through these
//! methods, called inside a crossing. `Broker::call` runs one per
//! crossing: `provision`, `admit`, `remove`, `remove_by_id`,
//! `origin_of`, `unconfirmed`, `replay_rows`, `route_into` and
//! `record_hop`; the trace drain runs `drain_trace` and hands the records
//! out through an ocall. The checkpoint's crossing runs
//! [`BrokerCore::checkpoint_payload`] (the compaction rule), seals, and
//! after a base `set_base_version`; the restart's unseals the chain and
//! runs [`BrokerCore::restore`], `set_base_version` and `live_count`.
//! Outside any crossing the shell only builds empty cores
//! ([`BrokerCore::fresh`]), flips the telemetry flag and reads the
//! counters it reports: `subscriptions`, `ledgers`, `stage_summaries`,
//! `trace_drops` and `memory`.

use crate::codec;
use crate::engine::{BatchMatches, MatchingEngine, REGISTER_AD};
use crate::forwarding::ForwardingTable;
use crate::ids::{ClientId, SubscriptionId};
use crate::index::{IndexKind, SubscriptionIndex};
use crate::journal::{self, Journal, Redo, RedoReader};
use crate::subscription::CompiledSubscription;
use crate::ScbrError;
use scbr_crypto::ctr::SymmetricKey;
use scbr_telemetry::{FlightRecorder, HopRecord, Stage, StageHistograms, StageSummary};
use sgx_sim::MemorySim;
use std::collections::{BTreeMap, BTreeSet};

/// The synthetic delivery identity for subscriptions learnt from
/// neighbour `n`: [`ClientId::INTERFACE_BIT`] over the neighbour number.
pub fn link_interface(neighbor: usize) -> ClientId {
    ClientId(ClientId::INTERFACE_BIT | neighbor as u64)
}

/// Compaction by retired quarter: a base is rewritten once the retired
/// registrations still on the host's disk reach one part in this many of
/// it. A constant beside the size rule, not a knob (see
/// [`BrokerCore::checkpoint_payload`]).
pub const RETIRED_DIVISOR: usize = 4;

/// Version byte of the recovery-record layout, written after a `u32::MAX`
/// magic by every base: `u32::MAX ‖ 2 ‖ engine snapshot ‖ live set ‖
/// tables`. Version 1 carried a slice count and one engine snapshot per
/// matcher slice; the oldest layout began with its one engine snapshot's
/// byte length instead (never `u32::MAX`). A base in either is refused
/// with a codec error rather than misread.
pub const RECORD_VERSION: u8 = 2;

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
pub struct RouteSpans {
    locals: Vec<ClientId>,
    links: Vec<usize>,
    /// Per publication, the end of its `locals` and of its `links` span;
    /// each span starts where the previous publication's ends.
    ends: Vec<(u32, u32)>,
}

impl RouteSpans {
    /// Forgets the previous batch, keeping the buffers.
    #[inline]
    pub fn clear(&mut self) {
        self.locals.clear();
        self.links.clear();
        self.ends.clear();
    }

    /// Publication `i`'s edge clients and outgoing links.
    #[inline]
    pub fn get(&self, i: usize) -> (&[ClientId], &[usize]) {
        let (local_start, link_start) = if i == 0 { (0, 0) } else { self.ends[i - 1] };
        let (local_end, link_end) = self.ends[i];
        (
            &self.locals[local_start as usize..local_end as usize],
            &self.links[link_start as usize..link_end as usize],
        )
    }

    /// Edge-client deliveries over the whole batch.
    #[inline]
    pub fn local_count(&self) -> usize {
        self.locals.len()
    }
}

/// Outcome of admitting one subscription envelope.
pub struct AdmitOutcome {
    /// The admitted subscription.
    pub id: SubscriptionId,
    /// Links the admission propagates on. Links where it was pruned, or
    /// already held the identical filter, are absent.
    pub links: Vec<LinkUpdate>,
}

/// One live subscription as the broker's enclave tracks it: where it
/// entered, its compiled (plaintext — never leaves the enclave) form, and
/// the envelope sealed under the registration key that proves it — kept
/// so an uncovering promotion (or a neighbour replay) can re-forward the
/// subscription with a unit the next hop authenticates independently.
struct LiveSub {
    origin: Origin,
    compiled: CompiledSubscription,
    envelope: Vec<u8>,
}

/// What a removal — or a re-registration that replaced a forwarded row —
/// requires on one link: the envelopes of newly uncovered subscriptions
/// to forward first (make-before-break — upstream interest never dips),
/// then the removal or the replacement itself.
pub struct LinkUpdate {
    /// The link.
    pub neighbor: usize,
    /// Registration envelopes to forward on it ahead of the update.
    pub uncovered: Vec<Vec<u8>>,
}

/// Outcome of processing one unregistration.
pub struct RemoveOutcome {
    /// The unregistered subscription.
    pub id: SubscriptionId,
    /// False when the id was unknown here (double-unsubscribe): nothing
    /// changed, no traffic due.
    pub removed: bool,
    /// Links the subscription had actually been forwarded on. Links where
    /// it was pruned are absent — a pruned removal is free.
    pub links: Vec<LinkUpdate>,
}

/// The enclave-resident routing state (the module docs list its ecall
/// table).
pub struct BrokerCore {
    matcher: MatchingEngine,
    /// Per neighbour (ascending), the covering table of subscriptions
    /// forwarded on that link.
    upstream: Vec<(usize, ForwardingTable)>,
    /// Every live subscription, keyed by id (the uncovering candidates).
    live: BTreeMap<SubscriptionId, LiveSub>,
    /// Flood mode: forward every subscription on every link (the
    /// equivalence oracle for tests; covering-pruned is the real mode).
    flood: bool,
    /// Reusable match buffer for the per-hop routing path: one per
    /// broker instead of one per publication per hop.
    route_matches: BatchMatches,
    /// In-enclave flight recorder for cross-hop publication tracing.
    /// Volatile by design: hop records die with a crash (never sealed
    /// into the recovery record) and leave the enclave only through the
    /// explicit, costed drain ocall ([`BrokerCore::drain_trace`]).
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
    /// delta must name. 0 until a base exists (counter values start at 1).
    base_version: u64,
}

impl BrokerCore {
    /// An empty core over `mem`, with one empty covering table per
    /// neighbour (ascending). `flood` forwards every subscription on
    /// every link.
    pub fn fresh(mem: &MemorySim, flood: bool, neighbors: &[usize]) -> Self {
        BrokerCore {
            matcher: MatchingEngine::new(mem, IndexKind::Poset),
            upstream: neighbors.iter().map(|&n| (n, ForwardingTable::new())).collect(),
            live: BTreeMap::new(),
            flood,
            route_matches: BatchMatches::new(),
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
    pub fn admit(
        &mut self,
        envelope: &[u8],
        origin: Origin,
        replay: bool,
    ) -> Result<AdmitOutcome, ScbrError> {
        let body = self.matcher.open_envelope(envelope, REGISTER_AD)?;
        let (id, compiled) = self.matcher.register_retained_as(body, origin.deliver_to())?;
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
        compiled: CompiledSubscription,
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
    pub fn remove(&mut self, envelope: &[u8], origin: Origin) -> Result<RemoveOutcome, ScbrError> {
        let (id, _client, existed) = self.matcher.unregister_envelope(envelope)?;
        if !existed {
            return Ok(RemoveOutcome { id, removed: false, links: Vec::new() });
        }
        self.journal.remove(id, origin);
        Ok(self.uncover_after_removal(id, origin))
    }

    /// Removes `id` without an envelope (the rejoin reconciliation path:
    /// link authentication of the attested peer stands in for the
    /// unregistration envelope, which may have been lost with the outage).
    pub fn remove_by_id(&mut self, id: SubscriptionId, origin: Origin) -> RemoveOutcome {
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
    pub fn origin_of(&self, id: SubscriptionId) -> Option<Origin> {
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

    /// Decrypts and matches the headers of one crossing as one batch,
    /// appending to `routes` each one's local deliveries and outgoing
    /// links; returns how many headers were refused. A header that fails
    /// to decrypt or decode gets an empty span and costs only itself. The
    /// batch's match buffer is the broker's own, reused across every hop,
    /// and the engine walks the covering forest once for the whole batch
    /// ([`MatchingEngine::match_encrypted_batch_into`]).
    pub fn route_into<'a>(
        &mut self,
        headers: impl Iterator<Item = &'a [u8]>,
        origin: Origin,
        routes: &mut RouteSpans,
    ) -> u64 {
        self.matcher.match_encrypted_batch_into(headers, &mut self.route_matches);
        let mut refused = 0;
        for outcome in self.route_matches.iter() {
            let clients = outcome.unwrap_or_else(|_| {
                refused += 1;
                &[]
            });
            for client in clients {
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
        refused
    }

    /// The live registration envelopes recorded as forwarded on the link
    /// to `neighbor`, in table order — what a rejoining peer replays.
    pub fn replay_rows(&self, neighbor: usize) -> Vec<Vec<u8>> {
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
    pub fn serialize_record(&self) -> Vec<u8> {
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
    /// else the pending journal as one delta. `delta_bytes` and
    /// `base_bytes` are the shape of the host's file.
    ///
    /// The compaction rule is fixed: write a base when `forced` (there is
    /// no base yet, or the step closed a replay reconciliation), by size —
    /// the deltas on disk plus this one would reach the base's size — or
    /// by retired quarter — the envelopes of the registrations retired
    /// since the base was written, all still on the host's disk, add up
    /// to [`RETIRED_DIVISOR`] of it. Between forced bases every base write
    /// is paid for by a quarter base of retired or one base of appended
    /// bytes — amortised O(entry) per mutation — a retired registration
    /// leaves the disk within a quarter base of further retirements, the
    /// deltas on disk stay under the base's size plus one entry's seal,
    /// and a restart redoes at most one base's worth of journal.
    pub fn checkpoint_payload(
        &mut self,
        forced: bool,
        delta_bytes: usize,
        base_bytes: usize,
    ) -> (Vec<u8>, Option<u64>) {
        let compact = forced
            || delta_bytes + self.journal.len() >= base_bytes
            || self.retired_bytes >= base_bytes / RETIRED_DIVISOR;
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
    /// top (`BrokerCore::redo`). A base without the record magic and
    /// version is a codec error.
    pub fn restore(
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
        let mut compiled_by_id = core.matcher.restore_compiled(&r.bytes()?)?;
        let n_live = r.u32()?;
        for _ in 0..n_live {
            let id = SubscriptionId(r.u64()?);
            let origin = journal::read_origin(&mut r)?;
            let envelope = r.bytes()?;
            let Some(compiled) = compiled_by_id.remove(&id) else {
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

    /// Installs `SK` (and the registration key derived from it).
    pub fn provision(&mut self, sk: SymmetricKey) {
        self.matcher.provision(sk);
    }

    /// The live subscriptions learnt from the link to `neighbor` that its
    /// replay did not re-confirm: removed there during the outage.
    pub fn unconfirmed(
        &self,
        neighbor: usize,
        confirmed: &BTreeSet<SubscriptionId>,
    ) -> Vec<SubscriptionId> {
        self.live
            .iter()
            .filter(|(id, sub)| sub.origin == Origin::Link(neighbor) && !confirmed.contains(id))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Records a routed batch's seal and hop-crossing samples, and its
    /// hop record when the batch is traced.
    pub fn record_hop(&mut self, seal_ns: u64, hop_ns: u64, record: HopRecord) {
        self.stages.record(Stage::Seal, seal_ns);
        self.stages.record(Stage::HopCrossing, hop_ns);
        if record.trace.is_some() {
            self.recorder.push(record);
        }
    }

    /// Takes the flight recorder's hop records, in arrival order.
    pub fn drain_trace(&mut self) -> Vec<HopRecord> {
        self.recorder.drain()
    }

    /// The counter value the current base was sealed at.
    pub fn set_base_version(&mut self, version: u64) {
        self.base_version = version;
    }

    /// Live subscriptions.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Enables or disables the engine's stage instrumentation.
    pub fn set_telemetry(&mut self, on: bool) {
        self.matcher.set_telemetry(on);
    }

    /// Live subscriptions in the index (edge clients + link interfaces).
    pub fn subscriptions(&self) -> usize {
        self.matcher.index().len()
    }

    /// Per neighbour (ascending), the link's covering table.
    pub fn ledgers(&self) -> &[(usize, ForwardingTable)] {
        &self.upstream
    }

    /// Per-stage latency summaries: the engine's stages (decrypt, index
    /// match), then the broker's (seal, hop crossing).
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        let mut out = self.matcher.stage_summaries();
        out.extend(self.stages.summaries());
        out
    }

    /// Hop records the flight recorder overwrote before a drain.
    pub fn trace_drops(&self) -> u64 {
        self.recorder.dropped()
    }

    /// The memory simulator backing the engine.
    pub fn memory(&self) -> &MemorySim {
        self.matcher.memory()
    }

    /// Envelope bytes of the registrations retired since the current base.
    // lint: allow(SL08, the compaction tests in scbr-overlay's broker and checkpoint_proptests read it)
    pub fn retired_bytes(&self) -> usize {
        self.retired_bytes
    }

    /// Bytes of journal not yet checkpointed.
    // lint: allow(SL08, a_crash_discards_the_pending_journal_with_the_mutations_it_describes reads it)
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The registration envelope of live subscription `id`.
    // lint: allow(SL08, checkpoints_append_deltas_and_compact_by_the_fixed_rule reads it)
    pub fn live_envelope(&self, id: SubscriptionId) -> Option<&[u8]> {
        self.live.get(&id).map(|sub| sub.envelope.as_slice())
    }

    /// The record with the forest-shape column masked
    /// (`strip_anchors`).
    // lint: allow(SL08, checkpoint_proptests compares a restarted core with its twin through it)
    pub fn record_without_anchors(&self) -> Result<Vec<u8>, ScbrError> {
        Ok(self.record_with(&crate::engine::strip_anchors(&self.matcher.snapshot())?))
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
    row: &CompiledSubscription,
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

#[cfg(test)]
mod uncover_proptests;
