//! The SCBR matching engine and its enclave placement.
//!
//! [`MatchingEngine`] is the trusted core: it holds the symmetric key `SK`,
//! decrypts registrations and publication headers, and matches them against
//! a [`SubscriptionIndex`]. [`RouterEngine`] wraps it in a *placement*:
//! inside a simulated SGX enclave (every operation crosses the call gate
//! and the index lives in EPC-backed memory) or outside (native memory) —
//! the two configurations the paper's Figures 5 and 7 compare, optionally
//! with encryption disabled for the plaintext baselines.
//!
//! ## Match surface
//!
//! One allocation-free core behind every encrypted entry point:
//! [`MatchingEngine::match_plain`] and [`MatchingEngine::match_encrypted`]
//! are the single-shot conveniences that return an owned client list
//! (figure binaries, examples, test oracles);
//! [`MatchingEngine::match_encrypted_append`] matches one header into a
//! caller-owned buffer (what a partitioned matcher builds its merge on);
//! [`MatchingEngine::match_encrypted_batch_into`] matches a batch into a
//! reused flat [`BatchMatches`] with per-header fault isolation, and
//! [`RouterEngine::match_batch_into`] is that same call behind a single
//! enclave crossing — the path the TCP router, the partitioned router
//! and the benchmark all run.

use crate::attr::AttrSchema;
use crate::codec;
use crate::error::ScbrError;
use crate::ids::{ClientId, SubscriptionId};
use crate::index::{new_index, Anchor, IndexKind, MatchScratch, SubscriptionIndex};
use crate::publication::{CompiledHeader, PublicationSpec};
use crate::subscription::SubscriptionSpec;
use parking_lot::Mutex;
use scbr_crypto::ctr::{AesCtr, SymmetricKey};
use scbr_crypto::rsa::RsaPublicKey;
use scbr_telemetry::{Stage, StageHistograms, StageSummary};
use sgx_sim::enclave::EnclaveBuilder;
use sgx_sim::{Enclave, MemStats, MemorySim, SgxPlatform};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Per-engine reusable buffers for the hot matching path. All match entry
/// points are `&self`, so the scratch sits behind a mutex; matching is
/// serialised per engine anyway (the enclave model admits one ecall at a
/// time) and an uncontended `parking_lot` lock never allocates.
#[derive(Debug, Default)]
struct EngineScratch {
    /// Index traversal state (DFS stack, counting epochs).
    index: MatchScratch,
    /// Decrypted header plaintext, reused across publications.
    plain: Vec<u8>,
    /// Compiled header, decoded in place without `String`/`Value` churn.
    header: CompiledHeader,
    /// CTR cipher with the session key's schedule already expanded, keyed
    /// by the `SymmetricKey` it was built from so re-provisioning cannot
    /// serve a stale schedule. `AesCtr::new` expands the key per call; at
    /// one key for millions of headers that is pure hot-path churn.
    cipher: Option<(SymmetricKey, AesCtr)>,
    /// Per-stage latency histograms (decrypt, index match) — fixed-size
    /// arrays with epoch-stamped clears, so recording a sample in the hot
    /// path never allocates. Populated only when telemetry is enabled.
    stages: StageHistograms,
}

/// Flat result of a batch match: one shared client buffer plus per-header
/// spans, so a steady-state batch produces **zero** per-publication heap
/// allocation (no `Vec<Vec<ClientId>>` churn). Reuse one instance across
/// batches via [`MatchingEngine::match_encrypted_batch_into`].
#[derive(Debug, Default)]
pub struct BatchMatches {
    clients: Vec<ClientId>,
    spans: Vec<Result<(u32, u32), ScbrError>>,
}

impl BatchMatches {
    /// An empty result buffer; capacity grows on first use and is reused.
    pub fn new() -> Self {
        BatchMatches::default()
    }

    /// Drops all results, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.clients.clear();
        self.spans.clear();
    }

    /// Number of headers in the last batch.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no batch has been recorded (or the batch was empty).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The outcome for header `i`: its sorted, deduplicated client span,
    /// or the error that sank it.
    pub fn get(&self, i: usize) -> Result<&[ClientId], &ScbrError> {
        match &self.spans[i] {
            Ok((start, end)) => Ok(&self.clients[*start as usize..*end as usize]),
            Err(e) => Err(e),
        }
    }

    /// Iterates the per-header outcomes in batch order.
    pub fn iter(&self) -> impl Iterator<Item = Result<&[ClientId], &ScbrError>> {
        (0..self.spans.len()).map(|i| self.get(i))
    }

    /// Total clients matched across the batch (duplicates across headers
    /// counted separately).
    pub fn total_clients(&self) -> usize {
        self.clients.len()
    }

    /// Commits one header's merged client span: `clients` is sorted and
    /// deduplicated in place, appended to the shared buffer, and recorded
    /// as the next header's outcome. This is how a partitioned router
    /// folds several slices' results for one header into the same flat
    /// shape a single engine produces.
    pub fn push_span(&mut self, clients: &mut Vec<ClientId>) {
        clients.sort_unstable_by_key(|c| c.0);
        clients.dedup();
        let start = self.clients.len() as u32;
        self.clients.extend_from_slice(clients);
        self.spans.push(Ok((start, self.clients.len() as u32)));
    }

    /// Records the next header's outcome as a failure (no clients).
    pub fn push_error(&mut self, error: ScbrError) {
        self.spans.push(Err(error));
    }

    /// Moves header `i`'s failure out, if it failed, leaving an empty
    /// span in its place — how a partitioned router hands one slice's
    /// error on to its merged result.
    pub(crate) fn take_error(&mut self, i: usize) -> Option<ScbrError> {
        let span = self.spans.get_mut(i).filter(|span| span.is_err())?;
        std::mem::replace(span, Ok((0, 0))).err()
    }
}

/// Opens every engine snapshot. It names the layout, so a snapshot in any
/// other layout — one written before the anchor column existed — is
/// refused with a codec error instead of being misread.
const SNAPSHOT_FORMAT: u64 = u64::from_be_bytes(*b"scbr-sn2");

/// One row of an engine snapshot, its body borrowed from the snapshot.
struct SnapshotRow<'a> {
    deliver_to: Option<ClientId>,
    anchor: Anchor,
    body: &'a [u8],
}

impl<'a> SnapshotRow<'a> {
    fn write(&self, w: &mut codec::Writer) {
        match self.deliver_to {
            Some(client) => w.u8(1).u64(client.0),
            None => w.u8(0),
        };
        match self.anchor {
            Anchor::Unknown => w.u8(0),
            Anchor::Root => w.u8(1),
            Anchor::Under(at) => w.u8(2).u64(at.0),
        };
        w.bytes(self.body);
    }

    /// Every row of `snapshot`, after checking its format tag and that
    /// nothing trails the last row.
    fn parse_all(snapshot: &'a [u8]) -> Result<Vec<Self>, ScbrError> {
        let mut r = codec::Reader::new(snapshot);
        if r.u64()? != SNAPSHOT_FORMAT {
            return Err(ScbrError::Codec { context: "snapshot format" });
        }
        let n = r.u32()?;
        let mut rows = Vec::new();
        for _ in 0..n {
            let deliver_to = match r.u8()? {
                0 => None,
                1 => Some(ClientId(r.u64()?)),
                _ => return Err(ScbrError::Codec { context: "snapshot delivery tag" }),
            };
            let anchor = match r.u8()? {
                0 => Anchor::Unknown,
                1 => Anchor::Root,
                2 => Anchor::Under(SubscriptionId(r.u64()?)),
                _ => return Err(ScbrError::Codec { context: "snapshot anchor tag" }),
            };
            rows.push(SnapshotRow { deliver_to, anchor, body: r.bytes_ref()? });
        }
        if !r.is_exhausted() {
            return Err(ScbrError::Codec { context: "snapshot trailing bytes" });
        }
        Ok(rows)
    }
}

/// `snapshot` with every anchor set to [`Anchor::Unknown`]. It restores
/// to the same subscriptions and matches (by search), and it compares
/// equal between two engines that hold the same registrations in the same
/// order, whatever shapes their covering forests grew into.
///
/// # Errors
///
/// Whatever [`MatchingEngine::restore`] refuses to parse.
pub fn strip_anchors(snapshot: &[u8]) -> Result<Vec<u8>, ScbrError> {
    let rows = SnapshotRow::parse_all(snapshot)?;
    let mut w = codec::Writer::new();
    w.u64(SNAPSHOT_FORMAT).u32(rows.len() as u32);
    for row in rows {
        SnapshotRow { anchor: Anchor::Unknown, ..row }.write(&mut w);
    }
    Ok(w.into_bytes())
}

/// The rows `0..n` ordered so that each comes after the row its anchor
/// names (`anchor_row`), when there is one: a restore that inserts in this
/// order finds every parent node already in place. A cycle — only a
/// corrupted snapshot has one — is cut where the walk meets it, and the
/// row there falls back to the covering search.
fn parents_first(n: usize, anchor_row: impl Fn(usize) -> Option<usize>) -> Vec<usize> {
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut chain = Vec::new();
    for start in 0..n {
        let mut row = Some(start);
        while let Some(i) = row.filter(|&i| !seen[i]) {
            seen[i] = true;
            chain.push(i);
            row = anchor_row(i);
        }
        order.extend(chain.drain(..).rev());
    }
    order
}

/// The trusted matching core (runs inside the enclave when placed there).
pub struct MatchingEngine {
    schema: AttrSchema,
    index: Box<dyn SubscriptionIndex>,
    mem: MemorySim,
    sk: Option<SymmetricKey>,
    producer_key: Option<RsaPublicKey>,
    /// Raw registration bodies keyed by subscription id, retained for
    /// sealing snapshots alongside their *delivery identity* override
    /// (`None` = the envelope's embedded edge client; `Some` = a link
    /// interface assigned by the overlay). Unregistration purges the
    /// matching body so a restore never resurrects removed interest.
    registered: Vec<(SubscriptionId, Option<ClientId>, Vec<u8>)>,
    /// Position of each live id in `registered` — keeps registration
    /// churn O(1) instead of a linear scan per (un)register at 1M subs.
    registered_pos: HashMap<SubscriptionId, usize>,
    /// Reusable hot-path buffers (see [`EngineScratch`]).
    scratch: Mutex<EngineScratch>,
    /// When true, the hot path records per-stage latencies into the
    /// scratch-resident histograms. Timing reads the virtual clock
    /// (which charges nothing), so enabling telemetry cannot change
    /// matching results, costs, or allocation behaviour.
    telemetry: bool,
}

impl std::fmt::Debug for MatchingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchingEngine")
            .field("index_kind", &self.index.kind())
            .field("subscriptions", &self.index.len())
            .field("provisioned", &self.sk.is_some())
            .finish()
    }
}

impl MatchingEngine {
    /// Creates an engine whose index lives in `mem`.
    pub fn new(mem: &MemorySim, kind: IndexKind) -> Self {
        Self::with_schema(mem, kind, AttrSchema::new())
    }

    /// Creates an engine that interns attribute names into `schema`.
    /// Engines whose compiled subscriptions are compared with each other
    /// — the slices of one partitioned matcher, whose broker checks
    /// covering across them — must share one table: [`AttrId`]s from
    /// different tables name different attributes.
    ///
    /// [`AttrId`]: crate::attr::AttrId
    pub fn with_schema(mem: &MemorySim, kind: IndexKind, schema: AttrSchema) -> Self {
        MatchingEngine {
            schema,
            index: new_index(kind, mem),
            mem: mem.clone(),
            sk: None,
            producer_key: None,
            registered: Vec::new(),
            registered_pos: HashMap::new(),
            scratch: Mutex::new(EngineScratch::default()),
            telemetry: false,
        }
    }

    /// Enables or disables per-stage latency instrumentation. Off by
    /// default; switching it on must never change matching behaviour
    /// (the `instrumented ≡ uninstrumented` proptest holds it to that).
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// Summaries of every stage that recorded at least one sample.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        self.scratch.lock().stages.summaries()
    }

    /// Installs the symmetric key `SK` and the producer's signature key
    /// (normally delivered via remote attestation; see
    /// [`crate::protocol::keys`]).
    pub fn provision_keys(&mut self, sk: SymmetricKey, producer_key: RsaPublicKey) {
        self.sk = Some(sk);
        self.producer_key = Some(producer_key);
    }

    /// Registers a plaintext subscription (baseline path and tests).
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
        self.mem.charge_message_parse();
        let compiled = spec.compile(&self.schema)?;
        self.retain_body(id, None, codec::encode_registration(spec, id, client));
        self.index.insert(id, client, compiled);
        Ok(())
    }

    /// Retains a registration body (and its delivery-identity override)
    /// for snapshots, displacing any previous registration under the same
    /// id (re-registration replaces, so the index never accumulates
    /// duplicate rows for one id).
    fn retain_body(&mut self, id: SubscriptionId, deliver_to: Option<ClientId>, body: Vec<u8>) {
        match self.registered_pos.entry(id) {
            Entry::Occupied(slot) => {
                // Re-registration: displace the old index row and
                // overwrite the retained body in place.
                self.index.remove(id);
                self.registered[*slot.get()] = (id, deliver_to, body);
            }
            Entry::Vacant(slot) => {
                slot.insert(self.registered.len());
                self.registered.push((id, deliver_to, body));
            }
        }
    }

    /// Registers an encrypted, signed registration envelope
    /// (`{s}SK` + producer signature), the paper's step 3.
    ///
    /// # Errors
    ///
    /// Signature or decryption failures, malformed bodies, or missing keys.
    pub fn register_envelope(&mut self, envelope: &[u8]) -> Result<SubscriptionId, ScbrError> {
        self.register_envelope_as(envelope, None).map(|(id, _)| id)
    }

    /// Registers an envelope, optionally overriding the delivery identity
    /// recorded in the index — the overlay's re-registration path: a
    /// router that learnt a subscription from a neighbour link indexes it
    /// under the *link's* interface id rather than the edge client, so a
    /// matched publication is forwarded down that link instead of
    /// delivered locally. Returns the compiled form alongside the id so
    /// in-enclave callers can maintain covering-pruned forwarding tables
    /// without re-deriving it. The compiled subscription is plaintext:
    /// it must not leave the trust boundary.
    ///
    /// Snapshots record the override alongside the body, so a restored
    /// engine re-registers link interfaces as *interfaces*, not edge
    /// clients (the overlay's sealed-recovery path depends on this).
    ///
    /// # Errors
    ///
    /// Signature or decryption failures, malformed bodies, or missing keys.
    pub fn register_envelope_as(
        &mut self,
        envelope: &[u8],
        deliver_to: Option<ClientId>,
    ) -> Result<(SubscriptionId, crate::subscription::CompiledSubscription), ScbrError> {
        let body = self.open_envelope(envelope)?;
        self.register_retained_as(body, deliver_to)
    }

    /// Registers an already-opened registration body (the plaintext a
    /// registration envelope decrypts to) under `deliver_to` — what
    /// [`MatchingEngine::register_envelope_as`] does once the envelope
    /// has authenticated, and how a broker redoes the registrations its
    /// sealed journal holds. It needs neither `SK` nor the producer key,
    /// so an enclave relaunched after a crash can redo registrations from
    /// its own sealed state before it has been re-attested. The body is
    /// trusted input: callers hand in only what they unsealed or
    /// decrypted themselves.
    ///
    /// # Errors
    ///
    /// Malformed bodies or invalid subscriptions.
    pub fn register_retained_as(
        &mut self,
        body: Vec<u8>,
        deliver_to: Option<ClientId>,
    ) -> Result<(SubscriptionId, crate::subscription::CompiledSubscription), ScbrError> {
        let (spec, id, client) = codec::decode_registration(&body)?;
        let compiled = spec.compile(&self.schema)?;
        self.retain_body(id, deliver_to, body);
        self.index.insert(id, deliver_to.unwrap_or(client), compiled.clone());
        Ok((id, compiled))
    }

    /// The retained (plaintext) registration body of a live id — what a
    /// snapshot would store for it. Must not leave the trust boundary.
    pub fn retained_body(&self, id: SubscriptionId) -> Option<&[u8]> {
        self.registered_pos.get(&id).map(|&pos| self.registered[pos].2.as_slice())
    }

    /// The ids of every live subscription, in no particular order.
    pub fn ids(&self) -> impl Iterator<Item = SubscriptionId> + '_ {
        self.registered.iter().map(|(id, _, _)| *id)
    }

    /// Unregisters a subscription (and drops its retained snapshot body).
    pub fn unregister(&mut self, id: SubscriptionId) -> bool {
        if let Some(pos) = self.registered_pos.remove(&id) {
            self.registered.swap_remove(pos);
            if let Some((moved, _, _)) = self.registered.get(pos) {
                self.registered_pos.insert(*moved, pos);
            }
        }
        self.index.remove(id)
    }

    /// Processes a signed, encrypted unregistration envelope
    /// (`{id, client}SK` + producer signature, built by
    /// [`crate::protocol::keys::ProducerCrypto::seal_unregistration`]).
    /// Removal is **idempotent**: retiring an id that is not (or no
    /// longer) in the index authenticates and decrypts normally but
    /// reports `existed = false` — the caller decides whether that is an
    /// error.
    ///
    /// # Errors
    ///
    /// Signature or decryption failures, malformed bodies, or missing
    /// keys. An unknown id is *not* an error (see above).
    pub fn unregister_envelope(
        &mut self,
        envelope: &[u8],
    ) -> Result<(SubscriptionId, ClientId, bool), ScbrError> {
        let body = self.open_envelope(envelope)?;
        let (id, client) = codec::decode_unregistration(&body)?;
        let existed = self.unregister(id);
        Ok((id, client, existed))
    }

    /// Verifies, decrypts and decodes a registration envelope *without*
    /// registering anything, returning the subscription id and the edge
    /// client embedded in it. A partitioned matcher must learn the id
    /// before it can pick (or look up) the owning slice; the owning
    /// slice's engine then does the real registration.
    ///
    /// # Errors
    ///
    /// Signature or decryption failures, malformed bodies, or missing keys.
    pub fn peek_registration(
        &self,
        envelope: &[u8],
    ) -> Result<(SubscriptionId, ClientId), ScbrError> {
        let body = self.open_envelope(envelope)?;
        let (_, id, client) = codec::decode_registration(&body)?;
        Ok((id, client))
    }

    /// Verifies, decrypts and decodes an unregistration envelope without
    /// removing anything — the placement lookup of a partitioned matcher
    /// (see [`MatchingEngine::peek_registration`]).
    ///
    /// # Errors
    ///
    /// Signature or decryption failures, malformed bodies, or missing keys.
    pub fn peek_unregistration(
        &self,
        envelope: &[u8],
    ) -> Result<(SubscriptionId, ClientId), ScbrError> {
        let body = self.open_envelope(envelope)?;
        let (id, client) = codec::decode_unregistration(&body)?;
        Ok((id, client))
    }

    /// Shared envelope authentication: verify the producer signature,
    /// charge the parse/crypto work, and decrypt the body.
    fn open_envelope(&self, envelope: &[u8]) -> Result<Vec<u8>, ScbrError> {
        let sk = self.sk.as_ref().ok_or(ScbrError::MissingKeys { which: "SK" })?;
        let producer = self
            .producer_key
            .as_ref()
            .ok_or(ScbrError::MissingKeys { which: "producer signature key" })?;
        let mut r = codec::Reader::new(envelope);
        let body_ct = r.bytes()?;
        let signature = r.bytes()?;
        producer.verify(&body_ct, &signature)?;
        self.mem.charge_message_parse();
        self.mem.charge_crypto_op(body_ct.len() as u64);
        Ok(AesCtr::decrypt_with_nonce(sk, &body_ct)?)
    }

    /// Serialises the registered subscriptions for sealing: the enclave
    /// can persist this via [`sgx_sim::seal::VersionedSeal`] and
    /// re-register after a restart without a new remote attestation (the
    /// paper's §2 restart flow).
    ///
    /// Layout: a format tag, a row count, then one row per live
    /// subscription in registration order — its delivery identity, its
    /// [`Anchor`] and its raw registration body. A subscription
    /// registered under a link-interface identity keeps that identity
    /// through the round trip (a restored broker must not collapse its
    /// neighbours' interest into edge clients). The anchor column records
    /// where the row sits in the index ([`SubscriptionIndex::anchor`]:
    /// a forest root, or the first subscription of its parent or shared
    /// node; `Unknown` for indexes without a forest), so that
    /// [`MatchingEngine::restore`] can relink the forest instead of
    /// searching it. Rows stay in registration order, not forest order:
    /// two engines holding the same registrations then write the same
    /// bytes apart from the anchors (see [`strip_anchors`]).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = codec::Writer::new();
        w.u64(SNAPSHOT_FORMAT).u32(self.registered.len() as u32);
        for (id, deliver_to, body) in &self.registered {
            SnapshotRow { deliver_to: *deliver_to, anchor: self.index.anchor(*id), body }
                .write(&mut w);
        }
        w.into_bytes()
    }

    /// Restores a snapshot produced by [`MatchingEngine::snapshot`],
    /// re-registering every subscription under its recorded delivery
    /// identity, and returns the number of rows.
    ///
    /// Every row is decoded and compiled before anything is registered,
    /// and bodies are retained in row order, so the restored engine's
    /// next snapshot lists them as this one did. The index is then filled
    /// parents-first along the anchor column, each row placed with
    /// [`SubscriptionIndex::insert_anchored`]: one covering comparison
    /// against the node its anchor names, where a fresh insert would run
    /// the whole covering search. The anchor is checked even though the
    /// snapshot comes sealed from this same code: it describes a forest
    /// the bytes do not carry (the rows are recompiled here, under this
    /// engine's attribute numbering, possibly into an index of another
    /// kind or one already holding subscriptions), and the index rests
    /// its pruning on parents covering children. So an anchor that is
    /// unknown, not placed yet, names no live subscription, or does not
    /// cover its row falls back to the search: a wrong anchor costs time,
    /// never a delivery.
    ///
    /// # Errors
    ///
    /// A snapshot without the current format tag (one written before
    /// anchors existed, say), a malformed row or an invalid subscription
    /// aborts the restore before anything is registered.
    pub fn restore(&mut self, snapshot: &[u8]) -> Result<usize, ScbrError> {
        let rows = SnapshotRow::parse_all(snapshot)?;
        let mut pending = Vec::with_capacity(rows.len());
        for row in &rows {
            let (spec, id, client) = codec::decode_registration(row.body)?;
            let compiled = spec.compile(&self.schema)?;
            pending.push((id, Some((row.deliver_to.unwrap_or(client), compiled))));
        }
        // A repeated id re-registers, as it would live: the last row wins.
        let mut row_of = HashMap::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let id = pending[i].0;
            if let Some(earlier) = row_of.insert(id, i) {
                pending[earlier].1 = None;
            }
            self.retain_body(id, row.deliver_to, row.body.to_vec());
        }
        let anchor_row = |i: usize| match rows[i].anchor {
            Anchor::Under(at) => row_of.get(&at).copied(),
            _ => None,
        };
        for i in parents_first(rows.len(), anchor_row) {
            let (id, entry) = &mut pending[i];
            if let Some((client, compiled)) = entry.take() {
                self.index.insert_anchored(*id, client, compiled, rows[i].anchor);
            }
        }
        Ok(rows.len())
    }

    /// Recompiles the retained registration body of `id` (if live),
    /// returning the delivery identity it is indexed under and the
    /// compiled form. Used by the overlay's sealed-recovery path to
    /// rebuild in-enclave covering tables after [`MatchingEngine::restore`]
    /// without re-decrypting envelopes (the retained bodies are already
    /// plaintext inside the enclave).
    ///
    /// # Errors
    ///
    /// Malformed retained bodies (impossible for bodies that registered
    /// successfully) or compilation failures.
    pub fn compiled_of(
        &self,
        id: SubscriptionId,
    ) -> Result<Option<(ClientId, crate::subscription::CompiledSubscription)>, ScbrError> {
        let Some((_, deliver_to, body)) =
            self.registered_pos.get(&id).map(|&pos| &self.registered[pos])
        else {
            return Ok(None);
        };
        let (spec, _, client) = codec::decode_registration(body)?;
        let compiled = spec.compile(&self.schema)?;
        Ok(Some((deliver_to.unwrap_or(client), compiled)))
    }

    /// Matches a plaintext publication header (baseline path), returning
    /// the sorted, deduplicated client list.
    ///
    /// # Errors
    ///
    /// Propagates header-compilation failures.
    pub fn match_plain(&self, publication: &PublicationSpec) -> Result<Vec<ClientId>, ScbrError> {
        self.mem.charge_message_parse();
        let header = publication.compile_header(&self.schema)?;
        let mut out = Vec::new();
        let mut scratch = self.scratch.lock();
        self.index.match_into(&header, &mut scratch.index, &mut out);
        drop(scratch);
        out.sort_unstable_by_key(|c| c.0);
        out.dedup();
        Ok(out)
    }

    /// Decrypt-decode-match one header, appending its sorted, deduplicated
    /// clients to `out` — the shared allocation-free core of every
    /// encrypted match path. Errors occur strictly before anything is
    /// appended.
    fn match_decrypt_append(
        &self,
        header_ct: &[u8],
        scratch: &mut EngineScratch,
        out: &mut Vec<ClientId>,
    ) -> Result<(), ScbrError> {
        let sk = self.sk.as_ref().ok_or(ScbrError::MissingKeys { which: "SK" })?;
        // Stage timings read the virtual clock without charging it, so
        // the instrumented path is behaviourally identical to the
        // uninstrumented one (and recording into the fixed-array
        // histograms allocates nothing).
        let t_start = if self.telemetry { self.mem.elapsed_ns() } else { 0.0 };
        self.mem.charge_crypto_op(header_ct.len() as u64);
        let EngineScratch { plain, cipher, .. } = scratch;
        if !matches!(cipher, Some((key, _)) if key == sk) {
            *cipher = Some((sk.clone(), AesCtr::new(sk, [0u8; scbr_crypto::ctr::NONCE_LEN])));
        }
        let (_, ctr) = cipher.as_mut().expect("just populated");
        ctr.decrypt_into(header_ct, plain)?;
        let t_decrypted = if self.telemetry { self.mem.elapsed_ns() } else { 0.0 };
        self.mem.charge_message_parse();
        codec::decode_header_into(&scratch.plain, &self.schema, &mut scratch.header)?;
        let start = out.len();
        self.index.match_into(&scratch.header, &mut scratch.index, out);
        out[start..].sort_unstable_by_key(|c| c.0);
        // Dedup within the freshly appended span (Vec::dedup would also
        // touch earlier spans).
        let mut keep = start;
        for i in start..out.len() {
            if keep == start || out[keep - 1] != out[i] {
                out[keep] = out[i];
                keep += 1;
            }
        }
        out.truncate(keep);
        if self.telemetry {
            let t_matched = self.mem.elapsed_ns();
            scratch.stages.record(Stage::Decrypt, (t_decrypted - t_start).max(0.0) as u64);
            scratch.stages.record(Stage::IndexMatch, (t_matched - t_decrypted).max(0.0) as u64);
        }
        Ok(())
    }

    /// Decrypts `{header}SK` and matches it (the paper's step 5).
    ///
    /// # Errors
    ///
    /// Decryption or decoding failures, or missing keys.
    pub fn match_encrypted(&self, header_ct: &[u8]) -> Result<Vec<ClientId>, ScbrError> {
        let mut out = Vec::new();
        self.match_encrypted_append(header_ct, &mut out)?;
        Ok(out)
    }

    /// Like [`MatchingEngine::match_encrypted`], but *appends* the
    /// header's sorted, deduplicated clients to a caller-owned buffer
    /// without clearing it: a warmed-up caller reusing one buffer sees no
    /// heap allocation per publication, and a partitioned matcher has
    /// every slice append its matches for one header into a shared buffer
    /// and merges the combined span. Nothing is appended on error.
    ///
    /// # Errors
    ///
    /// Decryption or decoding failures, or missing keys.
    pub fn match_encrypted_append(
        &self,
        header_ct: &[u8],
        out: &mut Vec<ClientId>,
    ) -> Result<(), ScbrError> {
        let mut scratch = self.scratch.lock();
        self.match_decrypt_append(header_ct, &mut scratch, out)
    }

    /// Matches a batch of encrypted headers into a reusable flat
    /// [`BatchMatches`] — the zero-allocation spine of
    /// [`RouterEngine::match_batch_into`]. Each header's outcome is
    /// independent (a poisoned header records its error and the batch
    /// continues), and in steady state — buffers at their high-water mark,
    /// schema warm — the call performs no heap allocation at all.
    pub fn match_encrypted_batch_into(&self, headers: &[Vec<u8>], out: &mut BatchMatches) {
        out.clear();
        let mut guard = self.scratch.lock();
        let scratch = &mut *guard;
        for ct in headers {
            let start = out.clients.len() as u32;
            let span = self
                .match_decrypt_append(ct, scratch, &mut out.clients)
                .map(|()| (start, out.clients.len() as u32));
            out.spans.push(span);
        }
    }

    /// Live subscriptions whose delivery identity is a real edge client —
    /// link-interface copies ([`ClientId::is_interface`]) excluded. This
    /// is the occupancy figure load balancing must read: interface copies
    /// are pinned to whichever broker owns the link, so counting them
    /// makes a high-degree broker look permanently skewed.
    pub fn edge_subscriptions(&self) -> usize {
        self.registered
            .iter()
            .filter(|(_, deliver_to, _)| deliver_to.is_none_or(|c| !c.is_interface()))
            .count()
    }

    /// The delivery identity subscription `id` is currently indexed
    /// under, if live (the envelope's embedded edge client unless an
    /// override was recorded at registration).
    pub fn delivery_identity(&self, id: SubscriptionId) -> Option<ClientId> {
        let &pos = self.registered_pos.get(&id)?;
        let (_, deliver_to, body) = &self.registered[pos];
        match deliver_to {
            Some(client) => Some(*client),
            None => codec::decode_registration(body).ok().map(|(_, _, client)| client),
        }
    }

    /// The engine's interning schema.
    pub fn schema(&self) -> &AttrSchema {
        &self.schema
    }

    /// The underlying index.
    pub fn index(&self) -> &dyn SubscriptionIndex {
        self.index.as_ref()
    }

    /// The memory simulator backing the index.
    pub fn memory(&self) -> &MemorySim {
        &self.mem
    }
}

/// A matching engine bound to a placement — the unit the benchmarks drive.
#[derive(Debug)]
pub struct RouterEngine {
    enclave: Option<Enclave>,
    engine: MatchingEngine,
}

impl RouterEngine {
    /// Builds an engine hosted inside a new enclave on `platform`.
    ///
    /// # Errors
    ///
    /// Propagates enclave-launch failures.
    pub fn in_enclave(platform: &SgxPlatform, kind: IndexKind) -> Result<Self, ScbrError> {
        let enclave = platform.launch(
            EnclaveBuilder::new("scbr-router").add_page(b"scbr matching engine v1").isv_prod_id(1),
        )?;
        let engine = MatchingEngine::new(enclave.memory(), kind);
        Ok(RouterEngine { enclave: Some(enclave), engine })
    }

    /// Builds an engine in native memory shaped by `platform`'s cache and
    /// cost model (the outside-enclave baseline on the same machine).
    pub fn outside(platform: &SgxPlatform, kind: IndexKind) -> Self {
        let mem = MemorySim::native(*platform.cache_config(), platform.cost_model().clone());
        RouterEngine { enclave: None, engine: MatchingEngine::new(&mem, kind) }
    }

    /// The enclave, when placed inside one.
    pub fn enclave(&self) -> Option<&Enclave> {
        self.enclave.as_ref()
    }

    /// Runs `f` on the engine, crossing the call gate when in an enclave.
    pub fn call<R>(&mut self, f: impl FnOnce(&mut MatchingEngine) -> R) -> R {
        let engine = &mut self.engine;
        match &self.enclave {
            Some(enclave) => enclave.ecall(|_ctx| f(engine)),
            None => f(engine),
        }
    }

    /// Matches a batch of encrypted headers in a **single enclave
    /// crossing** into a reusable flat result buffer — the paper's
    /// future-work optimisation ("message batching … to reduce the
    /// frequency of enclave enters/exits"): the EENTER/EEXIT pair (and its
    /// [`MemStats::ecalls`] tick) is paid once for the whole slice of
    /// headers, so per-message transition cost scales as `1/batch_size`.
    /// Each header's outcome is independent and a steady-state call
    /// allocates nothing (see
    /// [`MatchingEngine::match_encrypted_batch_into`]).
    pub fn match_batch_into(&mut self, headers: &[Vec<u8>], out: &mut BatchMatches) {
        self.call(|e| e.match_encrypted_batch_into(headers, out))
    }

    /// Read-only access without crossing the gate (setup/inspection).
    pub fn engine(&self) -> &MatchingEngine {
        &self.engine
    }

    /// Virtual nanoseconds elapsed on the engine's memory.
    pub fn elapsed_ns(&self) -> f64 {
        self.engine.memory().elapsed_ns()
    }

    /// Memory counters of the engine's memory.
    pub fn stats(&self) -> MemStats {
        self.engine.memory().stats()
    }

    /// Resets time and counters (between measurement phases).
    pub fn reset_counters(&self) {
        self.engine.memory().reset_counters()
    }

    /// Enables or disables the inner engine's per-stage latency
    /// instrumentation (no enclave crossing: a configuration flip, not
    /// trusted work).
    pub fn set_telemetry(&mut self, on: bool) {
        self.engine.set_telemetry(on);
    }

    /// Per-stage latency summaries recorded by the inner engine.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        self.engine.stage_summaries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::keys::ProducerCrypto;
    use scbr_crypto::CryptoRng;

    fn producer(rng: &mut CryptoRng) -> ProducerCrypto {
        ProducerCrypto::generate(512, rng).unwrap()
    }

    #[test]
    fn plain_register_and_match() {
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine
            .register_plain(
                SubscriptionId(1),
                ClientId(10),
                &SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0),
            )
            .unwrap();
        let matching = PublicationSpec::new().attr("symbol", "HAL").attr("price", 49.0);
        let not_matching = PublicationSpec::new().attr("symbol", "HAL").attr("price", 51.0);
        assert_eq!(engine.match_plain(&matching).unwrap(), vec![ClientId(10)]);
        assert!(engine.match_plain(&not_matching).unwrap().is_empty());
    }

    #[test]
    fn telemetry_records_stages_without_changing_results_or_cost() {
        let mut rng = CryptoRng::from_seed(77);
        let producer = producer(&mut rng);
        let spec = SubscriptionSpec::new().eq("symbol", "HAL");
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(1), ClientId(2), &mut rng).unwrap();
        let publication = PublicationSpec::new().attr("symbol", "HAL").attr("price", 3.0);
        let header_ct = producer.encrypt_header(&publication, &mut rng);

        let run = |telemetry: bool| {
            // A real cost model so the virtual clock actually advances.
            let mem =
                MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::default());
            let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
            engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
            engine.set_telemetry(telemetry);
            engine.register_envelope(&envelope).unwrap();
            let clients = engine.match_encrypted(&header_ct).unwrap();
            (clients, mem.elapsed_ns(), engine.stage_summaries())
        };

        let (plain_clients, plain_ns, plain_stages) = run(false);
        let (instr_clients, instr_ns, instr_stages) = run(true);
        assert_eq!(plain_clients, instr_clients, "telemetry must not change matches");
        assert_eq!(plain_ns, instr_ns, "reading the clock must not charge it");
        assert!(plain_stages.is_empty(), "disabled telemetry records nothing");
        let stages: Vec<_> = instr_stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![Stage::Decrypt, Stage::IndexMatch]);
        assert!(instr_stages.iter().all(|s| s.count == 1 && s.p50_ns > 0));
    }

    #[test]
    fn encrypted_round_trip() {
        let mut rng = CryptoRng::from_seed(1);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());

        let spec = SubscriptionSpec::new().eq("symbol", "INTC");
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(7), ClientId(3), &mut rng).unwrap();
        assert_eq!(engine.register_envelope(&envelope).unwrap(), SubscriptionId(7));

        let publication = PublicationSpec::new().attr("symbol", "INTC").attr("price", 1.0);
        let header_ct = producer.encrypt_header(&publication, &mut rng);
        assert_eq!(engine.match_encrypted(&header_ct).unwrap(), vec![ClientId(3)]);
    }

    #[test]
    fn register_envelope_as_overrides_delivery_identity() {
        let mut rng = CryptoRng::from_seed(31);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        let spec = SubscriptionSpec::new().eq("symbol", "HAL");
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(4), ClientId(9), &mut rng).unwrap();
        // Registered under a link interface, not the edge client.
        let link = ClientId((1 << 63) | 2);
        let (id, compiled) = engine.register_envelope_as(&envelope, Some(link)).unwrap();
        assert_eq!(id, SubscriptionId(4));
        assert_eq!(compiled, spec.compile(engine.schema()).unwrap());
        let publication = PublicationSpec::new().attr("symbol", "HAL");
        assert_eq!(engine.match_plain(&publication).unwrap(), vec![link]);
    }

    #[test]
    fn unregister_envelope_removes_and_is_idempotent() {
        let mut rng = CryptoRng::from_seed(41);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        let spec = SubscriptionSpec::new().eq("symbol", "HAL");
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(3), ClientId(5), &mut rng).unwrap();
        engine.register_envelope(&envelope).unwrap();
        assert_eq!(engine.index().len(), 1);

        let unreg = producer.seal_unregistration(SubscriptionId(3), ClientId(5), &mut rng).unwrap();
        assert_eq!(
            engine.unregister_envelope(&unreg).unwrap(),
            (SubscriptionId(3), ClientId(5), true)
        );
        assert_eq!(engine.index().len(), 0);
        let publication = PublicationSpec::new().attr("symbol", "HAL");
        assert!(engine.match_plain(&publication).unwrap().is_empty());
        // Second removal authenticates but reports "did not exist".
        let unreg2 =
            producer.seal_unregistration(SubscriptionId(3), ClientId(5), &mut rng).unwrap();
        assert_eq!(
            engine.unregister_envelope(&unreg2).unwrap(),
            (SubscriptionId(3), ClientId(5), false)
        );
    }

    #[test]
    fn forged_unregistration_rejected_and_changes_nothing() {
        let mut rng = CryptoRng::from_seed(42);
        let producer = producer(&mut rng);
        let rogue = ProducerCrypto::generate(512, &mut rng).unwrap();
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        let envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().eq("s", 1i64),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        engine.register_envelope(&envelope).unwrap();
        // Signed by the wrong key: refused, index untouched.
        let forged = rogue.seal_unregistration(SubscriptionId(1), ClientId(1), &mut rng).unwrap();
        assert!(engine.unregister_envelope(&forged).is_err());
        // Tampered ciphertext: refused too.
        let mut bent =
            producer.seal_unregistration(SubscriptionId(1), ClientId(1), &mut rng).unwrap();
        bent[6] ^= 1;
        assert!(engine.unregister_envelope(&bent).is_err());
        // A registration envelope fed to the unregister path is a codec
        // error, not a removal.
        assert!(engine.unregister_envelope(&envelope).is_err());
        assert_eq!(engine.index().len(), 1, "nothing was removed");
    }

    #[test]
    fn unregistered_subscriptions_never_survive_a_snapshot() {
        let mut rng = CryptoRng::from_seed(43);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        engine
            .register_plain(SubscriptionId(1), ClientId(1), &SubscriptionSpec::new().eq("s", "A"))
            .unwrap();
        engine
            .register_plain(SubscriptionId(2), ClientId(2), &SubscriptionSpec::new().eq("s", "B"))
            .unwrap();
        assert!(engine.unregister(SubscriptionId(1)));
        let snapshot = engine.snapshot();
        let mem2 = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut restored = MatchingEngine::new(&mem2, IndexKind::Poset);
        assert_eq!(restored.restore(&snapshot).unwrap(), 1, "only the live subscription");
        assert!(restored.match_plain(&PublicationSpec::new().attr("s", "A")).unwrap().is_empty());
        assert_eq!(
            restored.match_plain(&PublicationSpec::new().attr("s", "B")).unwrap(),
            vec![ClientId(2)]
        );
    }

    #[test]
    fn re_registration_replaces_instead_of_duplicating() {
        let mut rng = CryptoRng::from_seed(44);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        let envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().eq("s", "X"),
                SubscriptionId(7),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        engine.register_envelope(&envelope).unwrap();
        engine.register_envelope(&envelope).unwrap();
        assert_eq!(engine.index().len(), 1, "same id registered twice keeps one row");
        // One removal fully clears it.
        assert!(engine.unregister(SubscriptionId(7)));
        assert_eq!(engine.index().len(), 0);
        assert_eq!(engine.snapshot(), MatchingEngine::new(&mem, IndexKind::Poset).snapshot());
    }

    #[test]
    fn register_envelope_requires_keys() {
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        assert!(matches!(
            engine.register_envelope(b"whatever"),
            Err(ScbrError::MissingKeys { .. })
        ));
    }

    #[test]
    fn tampered_envelope_rejected() {
        let mut rng = CryptoRng::from_seed(2);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        let mut envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().eq("s", 1i64),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        envelope[6] ^= 1;
        assert!(engine.register_envelope(&envelope).is_err());
        assert_eq!(engine.index().len(), 0, "nothing was inserted");
    }

    #[test]
    fn unsigned_registration_rejected() {
        // A malicious infrastructure (or client bypassing the producer)
        // cannot register subscriptions: it lacks the signature key.
        let mut rng = CryptoRng::from_seed(3);
        let producer = producer(&mut rng);
        let rogue = ProducerCrypto::generate(512, &mut rng).unwrap();
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        let envelope = rogue
            .seal_registration(
                &SubscriptionSpec::new().eq("s", 1i64),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        assert!(engine.register_envelope(&envelope).is_err());
    }

    #[test]
    fn match_encrypted_with_wrong_key_fails_or_mismatches() {
        let mut rng = CryptoRng::from_seed(4);
        let producer_a = producer(&mut rng);
        let producer_b = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer_a.sk().clone(), producer_a.public_key().clone());
        engine
            .register_plain(SubscriptionId(1), ClientId(1), &SubscriptionSpec::new().eq("s", "X"))
            .unwrap();
        // Header encrypted under the wrong SK decrypts to garbage: the codec
        // rejects it (or it simply never matches).
        let publication = PublicationSpec::new().attr("s", "X");
        let ct = producer_b.encrypt_header(&publication, &mut rng);
        match engine.match_encrypted(&ct) {
            Err(_) => {}
            Ok(clients) => assert!(clients.is_empty()),
        }
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut rng = CryptoRng::from_seed(21);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        // Mix of plaintext and envelope registrations.
        engine
            .register_plain(SubscriptionId(1), ClientId(1), &SubscriptionSpec::new().eq("s", "A"))
            .unwrap();
        let env = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("p", 5.0),
                SubscriptionId(2),
                ClientId(2),
                &mut rng,
            )
            .unwrap();
        engine.register_envelope(&env).unwrap();

        let snapshot = engine.snapshot();
        // A fresh engine (fresh schema!) restores and matches identically.
        let mem2 = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut restored = MatchingEngine::new(&mem2, IndexKind::Poset);
        assert_eq!(restored.restore(&snapshot).unwrap(), 2);
        let publication = PublicationSpec::new().attr("s", "A").attr("p", 9.0);
        assert_eq!(
            restored.match_plain(&publication).unwrap(),
            engine.match_plain(&publication).unwrap()
        );
        assert_eq!(restored.index().len(), 2);
        // Corrupt snapshots are rejected.
        assert!(restored.restore(&snapshot[..snapshot.len() - 2]).is_err());
    }

    #[test]
    fn restore_survives_hand_edited_anchors() {
        let specs = [
            SubscriptionSpec::new().gt("p", 0.0),
            SubscriptionSpec::new().gt("p", 10.0),
            SubscriptionSpec::new().gt("p", 10.0),
            SubscriptionSpec::new().eq("s", "A").gt("p", 20.0),
            SubscriptionSpec::new().eq("s", "A"),
            SubscriptionSpec::new().eq("s", "B").lt("q", 5i64),
            SubscriptionSpec::new(),
        ];
        let free =
            || MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mem = free();
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        let mut naive = MatchingEngine::new(&mem, IndexKind::Naive);
        for (i, spec) in specs.iter().enumerate() {
            let (id, client) = (SubscriptionId(i as u64), ClientId(i as u64));
            engine.register_plain(id, client, spec).unwrap();
            naive.register_plain(id, client, spec).unwrap();
        }
        let snapshot = engine.snapshot();
        let rows = SnapshotRow::parse_all(&snapshot).unwrap();
        let n = rows.len() as u64;
        let under = |i: u64| Anchor::Under(SubscriptionId(i));
        let edits: [(&str, &dyn Fn(u64) -> Anchor); 6] = [
            ("an id that is not in the snapshot", &|_| under(99)),
            ("forward references, closing a cycle", &|i| under((i + 1) % n)),
            ("anchors that do not cover their rows", &|_| under(3)),
            ("self-anchors", &|i| under(i)),
            ("roots everywhere", &|_| Anchor::Root),
            ("the shared node of a covered row", &|i| if i == 0 { under(1) } else { under(0) }),
        ];
        let publications: Vec<PublicationSpec> = ["A", "B", "C"]
            .iter()
            .flat_map(|s| {
                [-1.0, 5.0, 15.0, 25.0].map(|p| {
                    PublicationSpec::new().attr("s", *s).attr("p", p).attr("q", p as i64 - 10)
                })
            })
            .collect();
        for (what, anchor_of) in edits {
            let mut w = codec::Writer::new();
            w.u64(SNAPSHOT_FORMAT).u32(rows.len() as u32);
            for (i, row) in rows.iter().enumerate() {
                let anchor = anchor_of(i as u64);
                SnapshotRow { deliver_to: row.deliver_to, anchor, body: row.body }.write(&mut w);
            }
            let mem = free();
            let mut restored = MatchingEngine::new(&mem, IndexKind::Poset);
            assert_eq!(restored.restore(&w.into_bytes()).unwrap(), specs.len(), "{what}");
            assert_eq!(restored.index().len(), specs.len(), "{what}");
            for publication in &publications {
                assert_eq!(
                    restored.match_plain(publication).unwrap(),
                    naive.match_plain(publication).unwrap(),
                    "{what}: {publication:?}"
                );
            }
            // Whatever shape the edit left, the forest reports anchors
            // that restore again.
            let again = restored.snapshot();
            let mut twice = MatchingEngine::new(&free(), IndexKind::Poset);
            assert_eq!(twice.restore(&again).unwrap(), specs.len(), "{what}");
            assert_eq!(strip_anchors(&again).unwrap(), strip_anchors(&snapshot).unwrap(), "{what}");
        }
    }

    #[test]
    fn snapshot_without_the_format_tag_is_refused() {
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine
            .register_plain(SubscriptionId(1), ClientId(1), &SubscriptionSpec::new().eq("s", "A"))
            .unwrap();
        let body = engine.retained_body(SubscriptionId(1)).unwrap().to_vec();
        // The layout before anchors: a row count, then delivery tag + body.
        let mut old = codec::Writer::new();
        old.u32(1).u8(0).bytes(&body);
        let mut restored = MatchingEngine::new(&mem, IndexKind::Poset);
        for snapshot in [old.into_bytes(), vec![0, 0, 0, 0], Vec::new()] {
            assert!(matches!(restored.restore(&snapshot), Err(ScbrError::Codec { .. })));
        }
        assert_eq!(restored.index().len(), 0, "nothing was registered");
        assert!(strip_anchors(&[0, 0, 0, 0]).is_err());
    }

    #[test]
    fn snapshot_survives_sealing_through_enclave_restart() {
        // The full §2 restart story: seal the snapshot with a monotonic
        // counter, restart the enclave, unseal and restore.
        use sgx_sim::seal::{SealPolicy, VersionedSeal};
        let platform = SgxPlatform::for_testing(22);
        let mut rng = CryptoRng::from_seed(23);
        let counter = platform.create_counter();

        let build = || {
            platform
                .launch(sgx_sim::enclave::EnclaveBuilder::new("scbr-router").add_page(b"engine v1"))
                .unwrap()
        };
        let enclave = build();
        let mut engine = MatchingEngine::new(enclave.memory(), IndexKind::Poset);
        engine
            .register_plain(SubscriptionId(1), ClientId(7), &SubscriptionSpec::new().eq("x", 1i64))
            .unwrap();
        let sealed = enclave
            .ecall(|ctx| {
                VersionedSeal::seal(
                    ctx,
                    SealPolicy::MrEnclave,
                    &platform,
                    counter,
                    &engine.snapshot(),
                    &mut rng,
                )
            })
            .unwrap();

        // "Reboot": a new enclave with the same measurement restores.
        let restarted = build();
        let mut engine2 = MatchingEngine::new(restarted.memory(), IndexKind::Poset);
        let snapshot = restarted
            .ecall(|ctx| {
                VersionedSeal::unseal(ctx, SealPolicy::MrEnclave, &platform, counter, &sealed)
            })
            .unwrap();
        assert_eq!(engine2.restore(&snapshot).unwrap(), 1);
        let publication = PublicationSpec::new().attr("x", 1i64);
        assert_eq!(engine2.match_plain(&publication).unwrap(), vec![ClientId(7)]);
    }

    #[test]
    fn snapshot_preserves_link_interface_semantics() {
        // Regression: snapshots used to keep only the envelope's embedded
        // client identity, so a restored broker re-registered everything
        // with *edge* semantics — a link interface silently became a
        // local client and multi-hop forwarding broke after recovery.
        let mut rng = CryptoRng::from_seed(45);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        let edge = producer
            .seal_registration(
                &SubscriptionSpec::new().eq("s", "E"),
                SubscriptionId(1),
                ClientId(7),
                &mut rng,
            )
            .unwrap();
        let learnt = producer
            .seal_registration(
                &SubscriptionSpec::new().eq("s", "L"),
                SubscriptionId(2),
                ClientId(8),
                &mut rng,
            )
            .unwrap();
        let interface = ClientId((1 << 63) | 3);
        engine.register_envelope(&edge).unwrap();
        engine.register_envelope_as(&learnt, Some(interface)).unwrap();

        let mem2 = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut restored = MatchingEngine::new(&mem2, IndexKind::Poset);
        assert_eq!(restored.restore(&engine.snapshot()).unwrap(), 2);
        // The edge client stays an edge client …
        assert_eq!(
            restored.match_plain(&PublicationSpec::new().attr("s", "E")).unwrap(),
            vec![ClientId(7)]
        );
        // … and the link interface stays an interface, not ClientId(8).
        assert_eq!(
            restored.match_plain(&PublicationSpec::new().attr("s", "L")).unwrap(),
            vec![interface]
        );
        // `compiled_of` reports the same identity and the compiled form.
        let (identity, compiled) = restored.compiled_of(SubscriptionId(2)).unwrap().unwrap();
        assert_eq!(identity, interface);
        assert_eq!(
            compiled,
            SubscriptionSpec::new().eq("s", "L").compile(engine.schema()).unwrap()
        );
        assert!(restored.compiled_of(SubscriptionId(99)).unwrap().is_none());
    }

    #[test]
    fn match_batch_into_agrees_with_vec_batch_and_isolates_errors() {
        let mut rng = CryptoRng::from_seed(26);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        for i in 0..10u64 {
            engine
                .register_plain(
                    SubscriptionId(i),
                    ClientId(i),
                    &SubscriptionSpec::new().gt("p", i as f64),
                )
                .unwrap();
        }
        let headers: Vec<Vec<u8>> = (0..6)
            .map(|i| {
                let publication = PublicationSpec::new().attr("p", 2.5 + i as f64);
                producer.encrypt_header(&publication, &mut rng)
            })
            .collect();
        let mut out = BatchMatches::new();
        engine.match_encrypted_batch_into(&headers, &mut out);
        assert_eq!(out.len(), headers.len());
        assert!(!out.is_empty());
        for (i, ct) in headers.iter().enumerate() {
            assert_eq!(out.get(i).unwrap(), engine.match_encrypted(ct).unwrap().as_slice());
        }
        assert_eq!(out.total_clients(), out.iter().map(|r| r.unwrap().len()).sum::<usize>());

        // A poisoned header records its error without sinking batch-mates,
        // and the reused buffer fully forgets the previous batch.
        let mut mixed = headers.clone();
        mixed[2].truncate(3);
        engine.match_encrypted_batch_into(&mixed, &mut out);
        assert_eq!(out.len(), mixed.len());
        assert!(out.get(2).is_err());
        for (i, ct) in headers.iter().enumerate() {
            if i != 2 {
                assert_eq!(out.get(i).unwrap(), engine.match_encrypted(ct).unwrap().as_slice());
            }
        }
    }

    #[test]
    fn peeks_authenticate_without_mutating() {
        let mut rng = CryptoRng::from_seed(46);
        let producer = producer(&mut rng);
        let rogue = ProducerCrypto::generate(512, &mut rng).unwrap();
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        let spec = SubscriptionSpec::new().eq("s", "X");
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(5), ClientId(6), &mut rng).unwrap();
        assert_eq!(engine.peek_registration(&envelope).unwrap(), (SubscriptionId(5), ClientId(6)));
        assert_eq!(engine.index().len(), 0, "a peek registers nothing");
        let unreg = producer.seal_unregistration(SubscriptionId(5), ClientId(6), &mut rng).unwrap();
        assert_eq!(engine.peek_unregistration(&unreg).unwrap(), (SubscriptionId(5), ClientId(6)));
        // The peeks enforce the same authentication as registration.
        let forged = rogue.seal_registration(&spec, SubscriptionId(5), ClientId(6), &mut rng);
        assert!(engine.peek_registration(&forged.unwrap()).is_err());
        // Envelope kinds are not interchangeable.
        assert!(engine.peek_registration(&unreg).is_err());
        assert!(engine.peek_unregistration(&envelope).is_err());
    }

    #[test]
    fn edge_subscriptions_excludes_interface_copies() {
        let mut rng = CryptoRng::from_seed(47);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision_keys(producer.sk().clone(), producer.public_key().clone());
        let edge = producer
            .seal_registration(
                &SubscriptionSpec::new().eq("s", "E"),
                SubscriptionId(1),
                ClientId(7),
                &mut rng,
            )
            .unwrap();
        let learnt = producer
            .seal_registration(
                &SubscriptionSpec::new().eq("s", "L"),
                SubscriptionId(2),
                ClientId(8),
                &mut rng,
            )
            .unwrap();
        let interface = ClientId(ClientId::INTERFACE_BIT | 3);
        engine.register_envelope(&edge).unwrap();
        engine.register_envelope_as(&learnt, Some(interface)).unwrap();
        assert_eq!(engine.index().len(), 2);
        assert_eq!(engine.edge_subscriptions(), 1, "the interface copy is not edge load");
        assert_eq!(engine.delivery_identity(SubscriptionId(1)), Some(ClientId(7)));
        assert_eq!(engine.delivery_identity(SubscriptionId(2)), Some(interface));
        assert_eq!(engine.delivery_identity(SubscriptionId(9)), None);
    }

    #[test]
    fn push_span_merges_like_a_single_engine() {
        let mut out = BatchMatches::new();
        let mut merged = vec![ClientId(4), ClientId(1), ClientId(4), ClientId(2)];
        out.push_span(&mut merged);
        out.push_error(ScbrError::NotFound { what: "header" });
        let mut empty = Vec::new();
        out.push_span(&mut empty);
        assert_eq!(out.len(), 3);
        assert_eq!(out.get(0).unwrap(), &[ClientId(1), ClientId(2), ClientId(4)]);
        assert!(out.get(1).is_err());
        assert!(out.get(2).unwrap().is_empty());
        assert_eq!(out.total_clients(), 3);
    }

    #[test]
    fn match_batch_is_one_enclave_crossing() {
        let platform = SgxPlatform::for_testing(8);
        let mut rng = CryptoRng::from_seed(25);
        let producer = producer(&mut rng);
        let mut engine = RouterEngine::in_enclave(&platform, IndexKind::Poset).unwrap();
        engine.call(|e| e.provision_keys(producer.sk().clone(), producer.public_key().clone()));
        for i in 0..8u64 {
            let spec = SubscriptionSpec::new().gt("p", i as f64);
            engine.call(|e| e.register_plain(SubscriptionId(i), ClientId(i), &spec)).unwrap();
        }
        let headers: Vec<Vec<u8>> = (0..16)
            .map(|i| {
                producer.encrypt_header(&PublicationSpec::new().attr("p", i as f64 + 0.5), &mut rng)
            })
            .collect();

        engine.reset_counters();
        let sequential: Vec<_> =
            headers.iter().map(|ct| engine.call(|e| e.match_encrypted(ct)).unwrap()).collect();
        let seq_stats = engine.stats();
        assert_eq!(seq_stats.ecalls, headers.len() as u64);

        engine.reset_counters();
        let mut batched = BatchMatches::new();
        engine.match_batch_into(&headers, &mut batched);
        let batch_stats = engine.stats();
        assert_eq!(batch_stats.ecalls, 1, "whole batch crosses the gate once");
        let spans: Vec<_> = batched.iter().map(|span| span.unwrap().to_vec()).collect();
        assert_eq!(spans, sequential, "batching never changes the match set");
        assert!(
            batch_stats.elapsed_ns < seq_stats.elapsed_ns,
            "amortised transitions are cheaper: {} vs {}",
            batch_stats.elapsed_ns,
            seq_stats.elapsed_ns
        );

        // A poisoned header is isolated behind the gate too, still in
        // one crossing.
        let mut mixed = headers.clone();
        mixed[3].truncate(2);
        engine.reset_counters();
        engine.match_batch_into(&mixed, &mut batched);
        assert_eq!(engine.stats().ecalls, 1);
        assert!(batched.get(3).is_err());
        for (i, outcome) in batched.iter().enumerate() {
            if i != 3 {
                assert_eq!(outcome.unwrap(), sequential[i].as_slice());
            }
        }
    }

    #[test]
    fn enclave_placement_charges_transitions() {
        let platform = SgxPlatform::for_testing(5);
        let mut inside = RouterEngine::in_enclave(&platform, IndexKind::Poset).unwrap();
        let mut outside = RouterEngine::outside(&platform, IndexKind::Poset);
        assert!(inside.enclave().is_some());
        assert!(outside.enclave().is_none());

        let spec = SubscriptionSpec::new().eq("s", "X");
        inside.call(|e| e.register_plain(SubscriptionId(1), ClientId(1), &spec)).unwrap();
        outside.call(|e| e.register_plain(SubscriptionId(1), ClientId(1), &spec)).unwrap();
        assert_eq!(inside.enclave().unwrap().ecall_count(), 1);
        assert!(
            inside.elapsed_ns() > outside.elapsed_ns(),
            "enclave pays call-gate and EPC admission costs"
        );
    }

    #[test]
    fn inside_and_outside_agree_on_results() {
        let platform = SgxPlatform::for_testing(6);
        let mut rng = CryptoRng::from_seed(7);
        let producer = producer(&mut rng);
        let mut inside = RouterEngine::in_enclave(&platform, IndexKind::Poset).unwrap();
        let mut outside = RouterEngine::outside(&platform, IndexKind::Poset);
        for engine in [&mut inside, &mut outside] {
            engine.call(|e| e.provision_keys(producer.sk().clone(), producer.public_key().clone()));
        }
        for i in 0..20u64 {
            let spec = SubscriptionSpec::new().gt("price", i as f64);
            let env = producer
                .seal_registration(&spec, SubscriptionId(i), ClientId(i), &mut rng)
                .unwrap();
            inside.call(|e| e.register_envelope(&env)).unwrap();
            outside.call(|e| e.register_envelope(&env)).unwrap();
        }
        let publication = PublicationSpec::new().attr("price", 10.5);
        let ct = producer.encrypt_header(&publication, &mut rng);
        let a = inside.call(|e| e.match_encrypted(&ct)).unwrap();
        let b = outside.call(|e| e.match_encrypted(&ct)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 11); // price > 0 .. price > 10
    }
}
