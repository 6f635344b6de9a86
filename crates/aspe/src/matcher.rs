//! The ASPE pub/sub matcher: the paper's software-only baseline router.
//!
//! Split into a trusted [`AspeAuthority`] (producer side: owns the matrix
//! key and the Bloom key, encrypts publications and subscriptions) and an
//! untrusted [`AspeMatcher`] (router side: stores encrypted subscriptions
//! and matches encrypted publications with no key material at all).
//!
//! Matching cost is charged to a [`sgx_sim::MemorySim`] exactly like the
//! SCBR engine's, so Figure 7's "Out ASPE" curves come off the same
//! virtual clock: per subscription, a Bloom prefilter probe, then — for
//! candidates — one `D²` quadratic form per range predicate, with all the
//! memory traffic that implies.

use crate::bloom::BloomFilter;
use crate::error::AspeError;
use crate::matrix::Matrix;
use crate::scheme::{form_between, form_ge, form_le, AspeKey};
use scbr::ids::{ClientId, SubscriptionId};
use scbr::predicate::Op;
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr::value::Value;
use scbr_crypto::rng::CryptoRng;
use sgx_sim::MemorySim;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bloom-filter geometry carried by every publication (bits, hashes).
/// Sized so that realistic headers (≤ ~50 equality items) keep the false
/// positive rate negligible.
const BLOOM_BITS: usize = 16_384;
const BLOOM_HASHES: u32 = 7;

/// An encrypted publication: Bloom filter over equality items plus the
/// ASPE-encrypted attribute point.
#[derive(Debug, Clone)]
pub struct EncryptedPublication {
    /// Keyed Bloom filter of the publication's equality-attribute values.
    pub bloom: BloomFilter,
    /// `Mᵀ·(r·p̂)`.
    pub point: Vec<f64>,
}

/// One encrypted subscription: Bloom bit positions for its equality
/// constraints plus encrypted quadratic forms for its ranges.
#[derive(Debug, Clone)]
pub struct EncryptedSubscription {
    /// For each equality predicate, the `k` filter positions to test.
    pub eq_positions: Vec<Vec<usize>>,
    /// Encrypted range forms (`M⁻¹·W·M⁻ᵀ` each).
    pub forms: Vec<Matrix>,
}

impl EncryptedSubscription {
    /// Logical size in bytes (what the router must store and touch).
    pub fn logical_bytes(&self, dim: usize) -> u64 {
        let eq = self.eq_positions.iter().map(|p| p.len() * 4).sum::<usize>() as u64;
        let forms = (self.forms.len() * dim * dim * 8) as u64;
        48 + eq + forms
    }
}

/// The trusted side: key owner and encryptor.
#[derive(Debug, Clone)]
pub struct AspeAuthority {
    key: AspeKey,
    bloom_key: [u8; 32],
    /// Numeric attribute name -> point slot.
    slots: HashMap<String, usize>,
    /// Attributes whose equality constraints go through the Bloom filter.
    eq_attrs: Vec<String>,
    const_slot: usize,
    noise_slot: usize,
    dim: usize,
}

impl AspeAuthority {
    /// Creates an authority for a fixed schema: `numeric_attrs` are
    /// range-testable (one point slot each), `eq_attrs` are
    /// equality-testable through the Bloom filter.
    pub fn new(numeric_attrs: &[&str], eq_attrs: &[&str], rng: &mut CryptoRng) -> Self {
        let mut slots = HashMap::new();
        for (i, name) in numeric_attrs.iter().enumerate() {
            slots.insert((*name).to_owned(), i);
        }
        let const_slot = numeric_attrs.len();
        let noise_slot = const_slot + 1;
        let dim = noise_slot + 1;
        let mut bloom_key = [0u8; 32];
        rng.fill(&mut bloom_key);
        AspeAuthority {
            key: AspeKey::generate(dim, rng),
            bloom_key,
            slots,
            eq_attrs: eq_attrs.iter().map(|s| (*s).to_owned()).collect(),
            const_slot,
            noise_slot,
            dim,
        }
    }

    /// The embedding dimension `D` (numeric attributes + 2).
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn bloom_item(attr: &str, value: &Value) -> Vec<u8> {
        let mut item = Vec::with_capacity(attr.len() + 24);
        item.extend_from_slice(attr.as_bytes());
        item.push(0);
        match value {
            Value::Int(i) => item.extend_from_slice(&i.to_be_bytes()),
            Value::Float(f) => item.extend_from_slice(&f.to_be_bytes()),
            Value::Str(s) => item.extend_from_slice(s.as_bytes()),
        }
        item
    }

    /// Positions a value's Bloom item maps to (computed with the secret
    /// key; the router only ever sees the positions).
    fn positions_for(&self, attr: &str, value: &Value) -> Vec<usize> {
        probe_positions(&self.bloom_key, &Self::bloom_item(attr, value))
    }

    /// Encrypts a publication.
    ///
    /// # Errors
    ///
    /// [`AspeError::UnknownAttribute`] if a schema numeric attribute is
    /// missing from the header (ASPE requires a fixed schema).
    pub fn encrypt_publication(
        &self,
        publication: &PublicationSpec,
        rng: &mut CryptoRng,
    ) -> Result<EncryptedPublication, AspeError> {
        let mut point = vec![0.0f64; self.dim];
        let mut present = vec![false; self.dim];
        let mut bloom = BloomFilter::new(BLOOM_BITS, BLOOM_HASHES);
        for (name, value) in publication.header() {
            if let Some(&slot) = self.slots.get(name) {
                point[slot] = match value {
                    Value::Int(i) => *i as f64,
                    Value::Float(f) => *f,
                    Value::Str(_) => {
                        return Err(AspeError::Unsupported {
                            what: "string value in a numeric slot",
                        })
                    }
                };
                present[slot] = true;
            }
            if self.eq_attrs.iter().any(|a| a == name) {
                bloom.insert(&self.bloom_key, &Self::bloom_item(name, value));
            }
        }
        for (name, &slot) in &self.slots {
            if !present[slot] {
                return Err(AspeError::UnknownAttribute { name: name.clone() });
            }
        }
        point[self.const_slot] = 1.0;
        point[self.noise_slot] = rng.unit_f64();
        Ok(EncryptedPublication { bloom, point: self.key.encrypt_point(&point, rng)? })
    }

    /// Encrypts a subscription.
    ///
    /// # Errors
    ///
    /// [`AspeError::Unsupported`] for constructs ASPE cannot express,
    /// [`AspeError::UnknownAttribute`] for attributes outside the schema.
    pub fn encrypt_subscription(
        &self,
        spec: &SubscriptionSpec,
        _rng: &mut CryptoRng,
    ) -> Result<EncryptedSubscription, AspeError> {
        let mut eq_positions = Vec::new();
        let mut forms = Vec::new();
        for pred in spec.predicates() {
            let is_eq_attr = self.eq_attrs.contains(&pred.attr);
            match (pred.op, &pred.value) {
                (Op::Eq, value) if is_eq_attr => {
                    eq_positions.push(self.positions_for(&pred.attr, value));
                }
                (Op::Eq, Value::Str(_)) => {
                    return Err(AspeError::Unsupported {
                        what: "string equality outside the bloom schema",
                    })
                }
                (op, value) => {
                    let &slot = self
                        .slots
                        .get(&pred.attr)
                        .ok_or_else(|| AspeError::UnknownAttribute { name: pred.attr.clone() })?;
                    let v = match value {
                        Value::Int(i) => *i as f64,
                        Value::Float(f) => *f,
                        Value::Str(_) => {
                            return Err(AspeError::Unsupported {
                                what: "range over string attribute",
                            })
                        }
                    };
                    let w = match op {
                        Op::Eq => form_between(self.dim, slot, self.const_slot, v, v),
                        Op::Ge => form_ge(self.dim, slot, self.const_slot, v),
                        // Strict bounds collapse to their closed forms:
                        // quadratic-form signs cannot distinguish open from
                        // closed endpoints (a measure-zero difference the
                        // DEXA'10 scheme also ignores).
                        Op::Gt => form_ge(self.dim, slot, self.const_slot, v),
                        Op::Le => form_le(self.dim, slot, self.const_slot, v),
                        Op::Lt => form_le(self.dim, slot, self.const_slot, v),
                    };
                    forms.push(self.key.encrypt_form(&w)?);
                }
            }
        }
        Ok(EncryptedSubscription { eq_positions, forms })
    }
}

/// Recomputes the filter positions for an item (key holder only).
fn probe_positions(key: &[u8], item: &[u8]) -> Vec<usize> {
    // Mirror BloomFilter::positions: HMAC -> (h1, h2) -> k positions.
    let digest = {
        let mut mac = scbr_crypto::hmac::HmacSha256::new(key);
        mac.update(item);
        mac.finalize()
    };
    let h1 = u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"));
    let h2 = u64::from_be_bytes(digest[8..16].try_into().expect("8 bytes"));
    (0..BLOOM_HASHES as u64)
        .map(|i| (h1.wrapping_add(i.wrapping_mul(h2)) % BLOOM_BITS as u64) as usize)
        .collect()
}

struct StoredSub {
    id: SubscriptionId,
    client: ClientId,
    sub: EncryptedSubscription,
    addr: u64,
    bytes: u64,
    alive: bool,
}

/// Counters proving the Bloom gate's effect on the matching hot path:
/// every live subscription is `checked` against the publication's Bloom
/// filter, gate failures are `skipped` before any matrix work, and only
/// survivors contribute to `forms_evaluated` (one O(d²) quadratic form
/// each). A healthy selective workload shows `skipped / checked` close
/// to 1 and `forms_evaluated` far below `checked × forms-per-sub`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BloomGateStats {
    /// Subscriptions that entered the Bloom gate.
    pub bloom_checked: u64,
    /// Subscriptions the gate rejected before form evaluation.
    pub bloom_skipped: u64,
    /// Quadratic forms actually evaluated (gate survivors only).
    pub forms_evaluated: u64,
}

impl BloomGateStats {
    /// Fraction of gate entrants rejected before any O(d²) work.
    pub fn skip_rate(&self) -> f64 {
        if self.bloom_checked == 0 {
            0.0
        } else {
            self.bloom_skipped as f64 / self.bloom_checked as f64
        }
    }

    /// Uniform counter export for the telemetry registry.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("bloom_checked", self.bloom_checked),
            ("bloom_skipped", self.bloom_skipped),
            ("forms_evaluated", self.forms_evaluated),
        ]
    }
}

/// The untrusted matcher: stores encrypted subscriptions and matches
/// encrypted publications, charging its work to a virtual clock.
pub struct AspeMatcher {
    mem: MemorySim,
    subs: Vec<StoredSub>,
    by_id: HashMap<SubscriptionId, usize>,
    dim: usize,
    live: usize,
    bloom_checked: AtomicU64,
    bloom_skipped: AtomicU64,
    forms_evaluated: AtomicU64,
}

impl std::fmt::Debug for AspeMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AspeMatcher")
            .field("subscriptions", &self.live)
            .field("dim", &self.dim)
            .finish()
    }
}

impl AspeMatcher {
    /// Creates an empty matcher charging costs to `mem`.
    pub fn new(mem: &MemorySim) -> Self {
        AspeMatcher {
            mem: mem.clone(),
            subs: Vec::new(),
            by_id: HashMap::new(),
            dim: 0,
            live: 0,
            bloom_checked: AtomicU64::new(0),
            bloom_skipped: AtomicU64::new(0),
            forms_evaluated: AtomicU64::new(0),
        }
    }

    /// Stores an encrypted subscription.
    pub fn insert(&mut self, id: SubscriptionId, client: ClientId, sub: EncryptedSubscription) {
        self.dim = self.dim.max(sub.forms.first().map(|f| f.rows()).unwrap_or(0));
        let bytes = sub.logical_bytes(self.dim.max(1));
        let addr = self.mem.alloc(bytes);
        self.mem.touch_write(addr, bytes);
        self.by_id.insert(id, self.subs.len());
        self.subs.push(StoredSub { id, client, sub, addr, bytes, alive: true });
        self.live += 1;
    }

    /// Removes a subscription. Returns whether it existed.
    pub fn remove(&mut self, id: SubscriptionId) -> bool {
        match self.by_id.remove(&id) {
            Some(idx) => {
                debug_assert_eq!(self.subs[idx].id, id);
                self.subs[idx].alive = false;
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no subscription is stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Simulated memory footprint in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.subs.iter().map(|s| s.bytes).sum()
    }

    /// Matches an encrypted publication, returning sorted, deduplicated
    /// clients. Allocating convenience wrapper around
    /// [`AspeMatcher::match_publication_into`].
    pub fn match_publication(&self, publication: &EncryptedPublication) -> Vec<ClientId> {
        let mut out = Vec::new();
        self.match_publication_into(publication, &mut out);
        out
    }

    /// Matches an encrypted publication into a caller-owned buffer
    /// (cleared first, then filled with sorted, deduplicated clients).
    ///
    /// The Bloom filter is a **mandatory gate**: every live subscription
    /// passes through it first, and the O(d²) quadratic forms only run on
    /// gate survivors. [`AspeMatcher::bloom_stats`] exposes counters
    /// proving the skip rate. With a warmed buffer the call performs no
    /// heap allocation.
    pub fn match_publication_into(
        &self,
        publication: &EncryptedPublication,
        out: &mut Vec<ClientId>,
    ) {
        out.clear();
        let point_norm2: f64 = publication.point.iter().map(|v| v * v).sum();
        for stored in &self.subs {
            if !stored.alive {
                continue;
            }
            // Bloom gate: touch the subscription header + eq positions and
            // probe the publication's filter. Nothing below this block runs
            // unless every equality constraint survives.
            self.bloom_checked.fetch_add(1, Ordering::Relaxed);
            let eq_bytes =
                48 + stored.sub.eq_positions.iter().map(|p| p.len() as u64 * 4).sum::<u64>();
            self.mem.touch_read(stored.addr, eq_bytes.min(stored.bytes));
            let mut candidate = true;
            for positions in &stored.sub.eq_positions {
                // One hash-position probe per bit.
                self.mem.charge_predicate_evals(positions.len() as u64);
                if !positions.iter().all(|&b| bloom_bit(&publication.bloom, b)) {
                    candidate = false;
                    break;
                }
            }
            if !candidate {
                self.bloom_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Full evaluation: one quadratic form per range predicate.
            // Boundary values sit at exactly zero in plaintext; after the
            // matrix transform they accumulate rounding error, so accept
            // within a tolerance scaled by the operand magnitudes
            // (inclusive-endpoint semantics).
            let mut matched = true;
            for form in &stored.sub.forms {
                self.forms_evaluated.fetch_add(1, Ordering::Relaxed);
                let d = form.rows() as u64;
                self.mem.touch_read(stored.addr, (d * d * 8).min(stored.bytes));
                self.mem.charge_flops(d * d + d);
                let value = form
                    .quadratic_form(&publication.point)
                    .expect("authority produced consistent dimensions");
                let tolerance = 1e-10 * form.max_abs() * point_norm2.max(1.0);
                if value < -tolerance {
                    matched = false;
                    break;
                }
            }
            if matched {
                out.push(stored.client);
            }
        }
        out.sort_unstable_by_key(|c| c.0);
        out.dedup();
    }

    /// Bloom-gate counters accumulated since creation (or the last
    /// [`AspeMatcher::reset_bloom_stats`]).
    pub fn bloom_stats(&self) -> BloomGateStats {
        BloomGateStats {
            bloom_checked: self.bloom_checked.load(Ordering::Relaxed),
            bloom_skipped: self.bloom_skipped.load(Ordering::Relaxed),
            forms_evaluated: self.forms_evaluated.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the Bloom-gate counters (between measurement phases).
    // lint: allow(SL08, bloom_gate_never_drops_a_true_match in tests/proptests.rs zeroes it)
    pub fn reset_bloom_stats(&self) {
        self.bloom_checked.store(0, Ordering::Relaxed);
        self.bloom_skipped.store(0, Ordering::Relaxed);
        self.forms_evaluated.store(0, Ordering::Relaxed);
    }

    /// The memory simulator charged by this matcher.
    pub fn memory(&self) -> &MemorySim {
        &self.mem
    }
}

/// Reads one bit of a Bloom filter (router-side primitive).
fn bloom_bit(filter: &BloomFilter, position: usize) -> bool {
    // The filter only exposes keyed queries; routers check raw positions.
    // Reconstruct via the public bit API.
    filter.bit(position)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::{CacheConfig, CostModel};

    fn free_mem() -> MemorySim {
        MemorySim::native(CacheConfig::default(), CostModel::free())
    }

    fn authority(rng: &mut CryptoRng) -> AspeAuthority {
        AspeAuthority::new(&["price", "volume"], &["symbol", "day"], rng)
    }

    #[test]
    fn range_matching_agrees_with_plaintext() {
        let mut rng = CryptoRng::from_seed(1);
        let auth = authority(&mut rng);
        let mem = free_mem();
        let mut matcher = AspeMatcher::new(&mem);
        let sub = SubscriptionSpec::new().between("price", 10.0, 20.0).ge("volume", 100i64);
        matcher.insert(
            SubscriptionId(1),
            ClientId(1),
            auth.encrypt_subscription(&sub, &mut rng).unwrap(),
        );
        let cases = [
            (15.0, 150i64, true),
            (15.0, 50, false),
            (25.0, 150, false),
            (5.0, 150, false),
            (10.0, 100, true), // inclusive endpoints
        ];
        for (price, volume, expected) in cases {
            let publication = PublicationSpec::new()
                .attr("symbol", "HAL")
                .attr("price", price)
                .attr("volume", volume);
            let enc = auth.encrypt_publication(&publication, &mut rng).unwrap();
            let got = !matcher.match_publication(&enc).is_empty();
            assert_eq!(got, expected, "price {price} volume {volume}");
        }
    }

    #[test]
    fn equality_prefilter_blocks_wrong_symbol() {
        let mut rng = CryptoRng::from_seed(2);
        let auth = authority(&mut rng);
        let mem = free_mem();
        let mut matcher = AspeMatcher::new(&mem);
        let sub = SubscriptionSpec::new().eq("symbol", "HAL").ge("price", 0.0);
        matcher.insert(
            SubscriptionId(1),
            ClientId(1),
            auth.encrypt_subscription(&sub, &mut rng).unwrap(),
        );
        let hal =
            PublicationSpec::new().attr("symbol", "HAL").attr("price", 10.0).attr("volume", 5i64);
        let ibm =
            PublicationSpec::new().attr("symbol", "IBM").attr("price", 10.0).attr("volume", 5i64);
        let enc_hal = auth.encrypt_publication(&hal, &mut rng).unwrap();
        let enc_ibm = auth.encrypt_publication(&ibm, &mut rng).unwrap();
        assert_eq!(matcher.match_publication(&enc_hal), vec![ClientId(1)]);
        assert!(matcher.match_publication(&enc_ibm).is_empty());
    }

    #[test]
    fn bloom_gate_skips_form_evaluation_and_counts_it() {
        let mut rng = CryptoRng::from_seed(9);
        let auth = authority(&mut rng);
        let mem = free_mem();
        let mut matcher = AspeMatcher::new(&mem);
        for i in 0..8u64 {
            let sub = SubscriptionSpec::new().eq("symbol", "HAL").ge("price", i as f64);
            matcher.insert(
                SubscriptionId(i),
                ClientId(i),
                auth.encrypt_subscription(&sub, &mut rng).unwrap(),
            );
        }
        let ibm =
            PublicationSpec::new().attr("symbol", "IBM").attr("price", 99.0).attr("volume", 1i64);
        let enc_ibm = auth.encrypt_publication(&ibm, &mut rng).unwrap();
        let mut out = Vec::new();
        matcher.match_publication_into(&enc_ibm, &mut out);
        assert!(out.is_empty());
        let after_miss = matcher.bloom_stats();
        assert_eq!(after_miss.bloom_checked, 8);
        assert_eq!(after_miss.bloom_skipped, 8, "gate rejects every wrong-symbol sub");
        assert_eq!(after_miss.forms_evaluated, 0, "no O(d²) work behind a failed gate");
        assert!((after_miss.skip_rate() - 1.0).abs() < f64::EPSILON);

        matcher.reset_bloom_stats();
        let hal =
            PublicationSpec::new().attr("symbol", "HAL").attr("price", 99.0).attr("volume", 1i64);
        let enc_hal = auth.encrypt_publication(&hal, &mut rng).unwrap();
        matcher.match_publication_into(&enc_hal, &mut out);
        assert_eq!(out.len(), 8, "buffer reuse: previous results fully replaced");
        let after_hit = matcher.bloom_stats();
        assert_eq!(after_hit.bloom_checked, 8);
        assert_eq!(after_hit.bloom_skipped, 0);
        assert_eq!(after_hit.forms_evaluated, 8, "one range form per surviving sub");
    }

    #[test]
    fn numeric_equality_is_exact() {
        let mut rng = CryptoRng::from_seed(3);
        let auth = authority(&mut rng);
        let mem = free_mem();
        let mut matcher = AspeMatcher::new(&mem);
        // Equality on a numeric attribute outside the bloom schema becomes
        // a degenerate interval [v, v].
        let sub = SubscriptionSpec::new().eq("price", 12.5);
        matcher.insert(
            SubscriptionId(1),
            ClientId(1),
            auth.encrypt_subscription(&sub, &mut rng).unwrap(),
        );
        let mut make = |p: f64| {
            let publication =
                PublicationSpec::new().attr("symbol", "X").attr("price", p).attr("volume", 1i64);
            auth.encrypt_publication(&publication, &mut rng).unwrap()
        };
        let hit = make(12.5);
        let miss = make(12.6);
        assert_eq!(matcher.match_publication(&hit).len(), 1);
        assert!(matcher.match_publication(&miss).is_empty());
    }

    #[test]
    fn missing_schema_attribute_rejected() {
        let mut rng = CryptoRng::from_seed(4);
        let auth = authority(&mut rng);
        let incomplete = PublicationSpec::new().attr("price", 1.0); // no volume
        assert!(matches!(
            auth.encrypt_publication(&incomplete, &mut rng),
            Err(AspeError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn unknown_subscription_attribute_rejected() {
        let mut rng = CryptoRng::from_seed(5);
        let auth = authority(&mut rng);
        let sub = SubscriptionSpec::new().ge("mystery", 1.0);
        assert!(auth.encrypt_subscription(&sub, &mut rng).is_err());
        let s2 = SubscriptionSpec::new().eq("mystery", "str-value");
        assert!(auth.encrypt_subscription(&s2, &mut rng).is_err());
    }

    #[test]
    fn removal_works() {
        let mut rng = CryptoRng::from_seed(6);
        let auth = authority(&mut rng);
        let mem = free_mem();
        let mut matcher = AspeMatcher::new(&mem);
        let sub = SubscriptionSpec::new().ge("price", 0.0);
        matcher.insert(
            SubscriptionId(1),
            ClientId(1),
            auth.encrypt_subscription(&sub, &mut rng).unwrap(),
        );
        assert!(matcher.remove(SubscriptionId(1)));
        assert!(!matcher.remove(SubscriptionId(1)));
        let publication =
            PublicationSpec::new().attr("symbol", "A").attr("price", 10.0).attr("volume", 1i64);
        let enc = auth.encrypt_publication(&publication, &mut rng).unwrap();
        assert!(matcher.match_publication(&enc).is_empty());
        assert!(matcher.is_empty());
    }

    #[test]
    fn matching_charges_time_and_memory() {
        let mut rng = CryptoRng::from_seed(7);
        let auth = authority(&mut rng);
        let mem = MemorySim::native(CacheConfig::default(), CostModel::default());
        let mut matcher = AspeMatcher::new(&mem);
        for i in 0..100u64 {
            let sub = SubscriptionSpec::new().between("price", i as f64, (i + 10) as f64);
            matcher.insert(
                SubscriptionId(i),
                ClientId(i),
                auth.encrypt_subscription(&sub, &mut rng).unwrap(),
            );
        }
        let t0 = mem.elapsed_ns();
        let publication =
            PublicationSpec::new().attr("symbol", "A").attr("price", 50.0).attr("volume", 1i64);
        let enc = auth.encrypt_publication(&publication, &mut rng).unwrap();
        let clients = matcher.match_publication(&enc);
        assert!(!clients.is_empty());
        assert!(mem.elapsed_ns() > t0, "matching costs virtual time");
        assert!(matcher.logical_bytes() > 0);
    }

    #[test]
    fn ciphertexts_leak_no_plaintext() {
        let mut rng = CryptoRng::from_seed(8);
        let auth = authority(&mut rng);
        let publication = PublicationSpec::new()
            .attr("symbol", "HAL")
            .attr("price", 123.0)
            .attr("volume", 456i64);
        let enc = auth.encrypt_publication(&publication, &mut rng).unwrap();
        assert!(enc.point.iter().all(|&v| (v - 123.0).abs() > 0.5 && (v - 456.0).abs() > 0.5));
    }
}
