//! Per-link covering-pruned forwarding tables.
//!
//! A router forwards a subscription up a link only when no subscription
//! already forwarded on that link **covers** it (every publication the new
//! subscription matches, the old one matches too — the partial order the
//! poset index is built on, `CompiledSubscription::covers`). Covered
//! subscriptions are pruned: the upstream router's interest is already
//! broad enough to send every relevant publication back down, and the
//! local index delivers from there. Over skewed workloads (many narrow
//! subscriptions under a few broad ones) this collapses the propagation
//! traffic and the upstream routers' index sizes — the same effect
//! covering has *inside* the poset index, lifted to the network.
//!
//! Removal is the mirror image (Siena's *uncovering* rule): dropping a
//! forwarded entry may leave previously-pruned subscriptions uncovered,
//! and the broker must then promote them into the table (and forward them
//! upstream) to keep the link's recorded interest complete. The table
//! tracks the churn with monotone counters so the invariant
//! `rows == forwarded_total − removed` is checkable from outside.
//!
//! The table lives inside the broker's enclave: entries are plaintext
//! compiled subscriptions and must never cross the trust boundary.

use scbr::attr::AttrId;
use scbr::ids::SubscriptionId;
use scbr::predicate::ConstraintSet;
use scbr::CompiledSubscription;
use std::collections::HashMap;

/// Covering-candidate bucket of one forwarded row, derived from its first
/// (minimum-id) constraint — the same seeding rule as the poset index's
/// root directory. A row can only cover subscriptions that constrain the
/// row's first attribute at least as tightly, so `covered()` probes only
/// the buckets compatible with the queried subscription instead of
/// scanning the whole table.
// lint: allow(SL02, covering bucket key - no cryptographic material)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CoverKey {
    /// Unconstrained row: covers everything.
    Top,
    /// First constraint is a string equality with this hash; only rows
    /// with the identical equality can cover (string sets never nest).
    Eq(AttrId, u64),
    /// First constraint is a range over this attribute.
    Range(AttrId),
}

fn cover_key(sub: &CompiledSubscription) -> CoverKey {
    match sub.constraints().first() {
        None => CoverKey::Top,
        Some((attr, ConstraintSet::StrEq(h))) => CoverKey::Eq(*attr, *h),
        Some((attr, ConstraintSet::Range { .. })) => CoverKey::Range(*attr),
    }
}

/// The subscriptions a broker has forwarded on one link, plus churn
/// counters.
#[derive(Debug, Default)]
pub struct ForwardingTable {
    entries: Vec<(SubscriptionId, CompiledSubscription)>,
    /// Position of each live id in `entries` — O(1) lookups and removals.
    pos: HashMap<SubscriptionId, usize>,
    /// Covering candidates bucketed by [`CoverKey`].
    buckets: HashMap<CoverKey, Vec<SubscriptionId>>,
    /// Covering-pruned (withheld) subscriptions, cumulative.
    pruned: u64,
    /// Subscriptions ever recorded as forwarded, cumulative.
    forwarded_total: u64,
    /// Entries removed again (unsubscription), cumulative.
    removed: u64,
    /// Records that were *uncovering promotions* — previously-pruned
    /// subscriptions forwarded because a removal exposed them. A subset
    /// of `forwarded_total`.
    uncovered: u64,
}

impl ForwardingTable {
    /// An empty table.
    pub fn new() -> Self {
        ForwardingTable::default()
    }

    fn any_covers(&self, ids: &[SubscriptionId], sub: &CompiledSubscription) -> bool {
        ids.iter().any(|id| {
            let &p = self.pos.get(id).expect("bucketed id is live");
            self.entries[p].1.covers(sub)
        })
    }

    /// Is `sub` covered by a subscription already forwarded on this link?
    ///
    /// Sub-linear: only the `CoverKey` buckets compatible with `sub`'s
    /// own constraints are probed (unconstrained rows, the identical
    /// string equality per attribute, and ranges over `sub`'s attributes);
    /// every other row provably cannot cover `sub`.
    pub fn covered(&self, sub: &CompiledSubscription) -> bool {
        if let Some(ids) = self.buckets.get(&CoverKey::Top) {
            if self.any_covers(ids, sub) {
                return true;
            }
        }
        for (attr, cs) in sub.constraints() {
            let key = match cs {
                ConstraintSet::StrEq(h) => CoverKey::Eq(*attr, *h),
                ConstraintSet::Range { .. } => CoverKey::Range(*attr),
            };
            if let Some(ids) = self.buckets.get(&key) {
                if self.any_covers(ids, sub) {
                    return true;
                }
            }
        }
        false
    }

    /// Is `id` currently recorded as forwarded on this link?
    pub fn contains(&self, id: SubscriptionId) -> bool {
        self.pos.contains_key(&id)
    }

    /// The compiled subscription recorded for `id`, if any.
    pub fn get(&self, id: SubscriptionId) -> Option<&CompiledSubscription> {
        self.pos.get(&id).map(|&p| &self.entries[p].1)
    }

    /// The ids currently recorded as forwarded, in table order.
    pub fn row_ids(&self) -> Vec<SubscriptionId> {
        self.entries.iter().map(|(id, _)| *id).collect()
    }

    /// The cumulative churn counters, in the order
    /// `(pruned, forwarded_total, removed, uncovered)` — what a broker
    /// seals alongside the rows so the counter ledger survives a restart.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.pruned, self.forwarded_total, self.removed, self.uncovered)
    }

    /// Uniform telemetry export: every counter (plus the live row count)
    /// as `(name, value)` pairs for a
    /// [`scbr_telemetry::MetricsRegistry`] to absorb under a per-link
    /// prefix.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("forwarded", self.entries.len() as u64),
            ("pruned", self.pruned),
            ("forwarded_total", self.forwarded_total),
            ("removed", self.removed),
            ("uncovered", self.uncovered),
        ]
    }

    /// Rebuilds a table from sealed recovery state: the live rows plus
    /// the counters captured by [`ForwardingTable::counters`]. The record
    /// may come from an untrusted host (pre-shared mode stores it
    /// unsealed), so the ledger invariants are *validated*, not assumed:
    /// `rows == forwarded_total − removed` (without underflow) and
    /// `uncovered ≤ forwarded_total`. Returns `None` on a corrupt
    /// ledger.
    pub fn rebuild(
        entries: Vec<(SubscriptionId, CompiledSubscription)>,
        counters: (u64, u64, u64, u64),
    ) -> Option<Self> {
        let (pruned, forwarded_total, removed, uncovered) = counters;
        if forwarded_total.checked_sub(removed)? != entries.len() as u64 {
            return None;
        }
        if uncovered > forwarded_total {
            return None;
        }
        let mut pos = HashMap::with_capacity(entries.len());
        let mut buckets: HashMap<CoverKey, Vec<SubscriptionId>> = HashMap::new();
        for (p, (id, sub)) in entries.iter().enumerate() {
            pos.insert(*id, p);
            buckets.entry(cover_key(sub)).or_default().push(*id);
        }
        Some(ForwardingTable { entries, pos, buckets, pruned, forwarded_total, removed, uncovered })
    }

    fn bucket_remove(&mut self, key: CoverKey, id: SubscriptionId) {
        if let Some(ids) = self.buckets.get_mut(&key) {
            if let Some(i) = ids.iter().position(|e| *e == id) {
                ids.swap_remove(i);
            }
        }
    }

    /// Records a subscription as forwarded on this link. Idempotent per
    /// [`SubscriptionId`]: re-recording an id replaces its entry instead
    /// of stacking a stale duplicate row, and returns `false` so the
    /// caller knows no new forward is due.
    pub fn record(&mut self, id: SubscriptionId, sub: CompiledSubscription) -> bool {
        if let Some(&p) = self.pos.get(&id) {
            let old_key = cover_key(&self.entries[p].1);
            let new_key = cover_key(&sub);
            if old_key != new_key {
                self.bucket_remove(old_key, id);
                self.buckets.entry(new_key).or_default().push(id);
            }
            self.entries[p].1 = sub;
            return false;
        }
        self.pos.insert(id, self.entries.len());
        self.buckets.entry(cover_key(&sub)).or_default().push(id);
        self.entries.push((id, sub));
        self.forwarded_total += 1;
        true
    }

    /// Records an uncovering promotion: a previously-pruned subscription
    /// forwarded because a removal exposed it.
    pub fn record_uncovered(&mut self, id: SubscriptionId, sub: CompiledSubscription) -> bool {
        let fresh = self.record(id, sub);
        if fresh {
            self.uncovered += 1;
        }
        fresh
    }

    /// Removes a forwarded entry and hands the row back — what it covered
    /// is what its removal may uncover. `None` when it was not present (a
    /// pruned subscription was never in the table, so removing it is a
    /// no-op and — crucially — generates no upstream traffic).
    pub fn remove(&mut self, id: SubscriptionId) -> Option<CompiledSubscription> {
        let p = self.pos.remove(&id)?;
        let (_, sub) = self.entries.swap_remove(p);
        if let Some((moved, _)) = self.entries.get(p) {
            self.pos.insert(*moved, p);
        }
        self.bucket_remove(cover_key(&sub), id);
        self.removed += 1;
        Some(sub)
    }

    /// Counts one covering-pruned (not forwarded) subscription.
    pub fn note_pruned(&mut self) {
        self.pruned += 1;
    }

    /// Number of subscriptions currently forwarded on this link (live
    /// rows; equals [`ForwardingTable::forwarded_total`] −
    /// [`ForwardingTable::removed`]).
    pub fn forwarded(&self) -> usize {
        self.entries.len()
    }

    /// Number of subscriptions pruned on this link, cumulative.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Subscriptions ever recorded as forwarded, cumulative.
    pub fn forwarded_total(&self) -> u64 {
        self.forwarded_total
    }

    /// Entries removed again, cumulative.
    pub fn removed(&self) -> u64 {
        self.removed
    }

    /// Uncovering promotions, cumulative.
    pub fn uncovered(&self) -> u64 {
        self.uncovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scbr::attr::AttrSchema;
    use scbr::SubscriptionSpec;

    fn compiled(spec: SubscriptionSpec, schema: &AttrSchema) -> CompiledSubscription {
        spec.compile(schema).unwrap()
    }

    #[test]
    fn covering_prunes_and_non_covering_forwards() {
        let schema = AttrSchema::new();
        let broad = compiled(SubscriptionSpec::new().gt("price", 0.0), &schema);
        let narrow = compiled(SubscriptionSpec::new().gt("price", 10.0), &schema);
        let other = compiled(SubscriptionSpec::new().eq("symbol", "HAL"), &schema);

        let mut table = ForwardingTable::new();
        assert!(!table.covered(&broad), "empty table covers nothing");
        table.record(SubscriptionId(1), broad.clone());
        assert!(table.covered(&narrow), "broad covers narrow");
        assert!(table.covered(&broad), "covering is reflexive");
        assert!(!table.covered(&other), "unrelated attribute is not covered");
        table.note_pruned();
        assert_eq!(table.forwarded(), 1);
        assert_eq!(table.pruned(), 1);
    }

    #[test]
    fn narrow_first_does_not_block_broad() {
        let schema = AttrSchema::new();
        let narrow = compiled(SubscriptionSpec::new().between("price", 5.0, 6.0), &schema);
        let broad = compiled(SubscriptionSpec::new().ge("price", 0.0), &schema);
        let mut table = ForwardingTable::new();
        table.record(SubscriptionId(1), narrow);
        assert!(!table.covered(&broad), "the broader subscription must still be forwarded");
    }

    #[test]
    fn record_is_idempotent_per_id() {
        // Regression: `record` used to append unconditionally, so
        // re-registering an id left a stale duplicate row that a single
        // `remove` could not clear.
        let schema = AttrSchema::new();
        let sub = compiled(SubscriptionSpec::new().gt("price", 1.0), &schema);
        let wider = compiled(SubscriptionSpec::new().gt("price", 0.0), &schema);
        let mut table = ForwardingTable::new();
        assert!(table.record(SubscriptionId(1), sub.clone()));
        assert!(!table.record(SubscriptionId(1), sub.clone()), "same id again: no new forward");
        assert_eq!(table.forwarded(), 1, "one row, not two");
        assert_eq!(table.forwarded_total(), 1);
        // Re-recording replaces the stored subscription.
        assert!(!table.record(SubscriptionId(1), wider.clone()));
        assert!(table.covered(&wider));
        // One removal fully clears the id.
        assert_eq!(table.remove(SubscriptionId(1)), Some(wider), "the replaced row comes back");
        assert_eq!(table.forwarded(), 0);
        assert!(!table.contains(SubscriptionId(1)));
    }

    #[test]
    fn rebuild_round_trips_rows_and_counters() {
        let schema = AttrSchema::new();
        let a = compiled(SubscriptionSpec::new().gt("price", 0.0), &schema);
        let b = compiled(SubscriptionSpec::new().gt("price", 5.0), &schema);
        let mut table = ForwardingTable::new();
        table.record(SubscriptionId(1), a.clone());
        table.record(SubscriptionId(2), b.clone());
        table.note_pruned();
        table.remove(SubscriptionId(2));
        table.record_uncovered(SubscriptionId(3), b.clone());
        let rows: Vec<_> =
            table.row_ids().iter().map(|id| (*id, table.get(*id).unwrap().clone())).collect();
        let rebuilt = ForwardingTable::rebuild(rows.clone(), table.counters()).unwrap();
        assert_eq!(rebuilt.row_ids(), table.row_ids());
        assert_eq!(rebuilt.counters(), table.counters());
        assert_eq!(rebuilt.forwarded(), table.forwarded());
        assert!(rebuilt.covered(&b), "rebuilt rows still drive covering decisions");
        assert_eq!(rebuilt.get(SubscriptionId(1)), Some(&a));
        assert_eq!(rebuilt.get(SubscriptionId(9)), None);

        // Corrupt ledgers (a hostile host rewriting an unsealed record)
        // are rejected, including underflowing counters.
        assert!(ForwardingTable::rebuild(rows.clone(), (0, 99, 0, 0)).is_none());
        assert!(ForwardingTable::rebuild(rows.clone(), (0, 1, 5, 0)).is_none(), "underflow");
        assert!(ForwardingTable::rebuild(rows, (0, 2, 0, 7)).is_none(), "uncovered > total");
    }

    #[test]
    fn bucketed_covering_agrees_with_a_full_scan() {
        // The bucketed `covered()` must answer exactly like the old
        // linear scan on a mixed population of topic-equality rows, range
        // rows and a re-recorded row whose bucket key changed.
        let schema = AttrSchema::new();
        let mut table = ForwardingTable::new();
        let mut rows: Vec<CompiledSubscription> = Vec::new();
        for i in 0..20u64 {
            let spec = if i % 2 == 0 {
                SubscriptionSpec::new().eq("topic", format!("t{i}").as_str())
            } else {
                SubscriptionSpec::new().ge("priority", i as f64)
            };
            let sub = compiled(spec, &schema);
            table.record(SubscriptionId(i), sub.clone());
            rows.push(sub);
        }
        // Move one id from a topic bucket to a range bucket.
        let moved = compiled(SubscriptionSpec::new().ge("priority", 0.0), &schema);
        table.record(SubscriptionId(0), moved.clone());
        rows[0] = moved;

        let queries = [
            SubscriptionSpec::new().eq("topic", "t2").gt("priority", 5.0),
            SubscriptionSpec::new().eq("topic", "t999"),
            SubscriptionSpec::new().ge("priority", 30.0),
            SubscriptionSpec::new().lt("priority", 2.0),
            SubscriptionSpec::new().eq("other", "x"),
            SubscriptionSpec::new(),
        ];
        for q in queries {
            let q = compiled(q, &schema);
            let naive = rows.iter().any(|fwd| fwd.covers(&q));
            assert_eq!(table.covered(&q), naive, "bucketed covering diverged");
        }
    }

    #[test]
    fn removal_and_counters_stay_consistent() {
        let schema = AttrSchema::new();
        let a = compiled(SubscriptionSpec::new().gt("price", 0.0), &schema);
        let b = compiled(SubscriptionSpec::new().gt("price", 5.0), &schema);
        let mut table = ForwardingTable::new();
        table.record(SubscriptionId(1), a.clone());
        assert!(table.remove(SubscriptionId(9)).is_none(), "absent id: no-op");
        assert_eq!(table.removed(), 0);
        assert_eq!(table.remove(SubscriptionId(1)), Some(a));
        assert!(table.remove(SubscriptionId(1)).is_none(), "second removal is a no-op");
        table.record_uncovered(SubscriptionId(2), b);
        assert_eq!(table.forwarded_total(), 2);
        assert_eq!(table.removed(), 1);
        assert_eq!(table.uncovered(), 1);
        assert_eq!(table.forwarded() as u64, table.forwarded_total() - table.removed());
    }
}
