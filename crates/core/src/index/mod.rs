//! Subscription indexes: the data structures the routing engine matches
//! against.
//!
//! Three implementations with one interface:
//!
//! * [`poset::PosetIndex`] — the paper's containment-based
//!   index (à la Siena) rebuilt on an arena layout: subscriptions form a
//!   forest ordered by covering, matching prunes entire subtrees whose
//!   root fails, and the root directory seeds each match with only the
//!   buckets compatible with the publication's attributes.
//! * [`naive::NaiveIndex`] — a linear scan, the correctness
//!   oracle and worst-case baseline.
//! * [`counting::CountingIndex`] — a classic
//!   counting-algorithm engine with per-attribute posting lists, used for
//!   the `ablation_index` bench.
//!
//! All indexes store their nodes in [`sgx_sim::SimArena`]s so every probe
//! is charged to the owning [`sgx_sim::MemorySim`] — that is what lets the
//! benchmarks observe cache-miss knees and EPC paging exactly where the
//! paper does.
//!
//! The one match entry point is [`SubscriptionIndex::match_into`]: it
//! threads a caller-owned [`MatchScratch`] through the traversal so
//! steady-state matching performs no heap allocation.
//!
//! An index may also report an [`Anchor`] per subscription — where it sits
//! in the structure — and take it back through
//! [`SubscriptionIndex::insert_anchored`]; that is how an engine snapshot
//! lets a restored poset skip its covering search. The naive and counting
//! indexes keep the defaults (no anchor, plain insert).

pub mod counting;
pub mod naive;
pub mod poset;

use crate::ids::{ClientId, SubscriptionId};
use crate::publication::CompiledHeader;
use crate::subscription::CompiledSubscription;

pub use counting::CountingIndex;
pub use naive::NaiveIndex;
pub use poset::PosetIndex;

/// Reusable per-engine traversal state threaded through
/// [`SubscriptionIndex::match_into`].
///
/// Holds the poset DFS stack and the counting index's epoch-stamped
/// satisfaction counters (its dedup "bitmap"): after a short warm-up the
/// buffers reach their high-water mark and matching allocates nothing.
/// One scratch may be shared across index kinds; each implementation
/// resizes only the parts it uses.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// DFS work list (poset traversal).
    pub(crate) stack: Vec<u32>,
    /// `(epoch, satisfied)` per arena entry (counting index). A stale
    /// epoch reads as zero, so clearing between matches is O(1).
    pub(crate) counts: Vec<(u64, u16)>,
    /// Current stamp for `counts` validity.
    pub(crate) epoch: u64,
}

impl MatchScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity currently retained by the scratch, in entries.
    pub fn retained(&self) -> usize {
        self.stack.capacity() + self.counts.capacity()
    }
}

/// Logical bytes charged for a node header (ids, counts, links).
pub(crate) const NODE_HEADER_BYTES: u64 = 48;
/// Logical bytes charged per stored constraint.
pub(crate) const CONSTRAINT_BYTES: u64 = 24;
/// Logical node stride: header plus the full inline constraint array. With
/// [`crate::subscription::MAX_CONSTRAINTS`] = 16 this is 432 bytes — the
/// paper reports 10 k subscriptions ≈ 4.37 MB, i.e. ~437 B each.
pub(crate) const NODE_STRIDE: u64 =
    NODE_HEADER_BYTES + crate::subscription::MAX_CONSTRAINTS as u64 * CONSTRAINT_BYTES;

/// Which index implementation to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Containment poset (the paper's engine), arena-backed.
    Poset,
    /// Linear scan baseline.
    Naive,
    /// Counting algorithm with per-attribute postings.
    Counting,
}

/// Where a live subscription sits in an index's structure, as an engine
/// snapshot records it so that a restore can put the row back without
/// searching for its place (see [`SubscriptionIndex::insert_anchored`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Anchor {
    /// Nothing a restore could reuse: the index keeps no structure, or
    /// the id is not live.
    Unknown,
    /// A root of the covering forest.
    Root,
    /// Below or beside the node whose first subscription is this id: its
    /// parent node, or its own shared node when it is not that node's
    /// first subscription.
    Under(SubscriptionId),
}

/// Common interface of all subscription indexes.
pub trait SubscriptionIndex: Send {
    /// Registers a subscription for `client`.
    fn insert(&mut self, id: SubscriptionId, client: ClientId, sub: CompiledSubscription);

    /// Where `id` sits, for a snapshot to record. Indexes without a
    /// structure worth restoring report [`Anchor::Unknown`].
    fn anchor(&self, _id: SubscriptionId) -> Anchor {
        Anchor::Unknown
    }

    /// Registers a subscription at the place `anchor` names, as a restore
    /// does. The anchor is a hint: an index that cannot confirm it with
    /// the subscription itself falls back to [`SubscriptionIndex::insert`],
    /// so a wrong anchor may cost time but never changes a match.
    fn insert_anchored(
        &mut self,
        id: SubscriptionId,
        client: ClientId,
        sub: CompiledSubscription,
        _anchor: Anchor,
    ) {
        self.insert(id, client, sub);
    }

    /// The covering forest, when this index is one (shape inspection:
    /// [`PosetIndex::root_count`], [`PosetIndex::depth`]).
    fn as_poset(&self) -> Option<&PosetIndex> {
        None
    }

    /// Unregisters subscription `id`. Returns whether it existed.
    fn remove(&mut self, id: SubscriptionId) -> bool;

    /// Appends the clients whose subscriptions match `header` to `out`
    /// (duplicates possible when one client registered several matching
    /// subscriptions; callers dedup), reusing `scratch` for all traversal
    /// state. Steady-state calls must not allocate.
    fn match_into(
        &self,
        header: &CompiledHeader,
        scratch: &mut MatchScratch,
        out: &mut Vec<ClientId>,
    );

    /// Number of live subscriptions.
    fn len(&self) -> usize;

    /// True when no subscription is registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of structural nodes (≤ `len` when equal subscriptions share a
    /// node; ≥ `len` only never).
    fn node_count(&self) -> usize;

    /// Simulated memory footprint in bytes.
    fn logical_bytes(&self) -> u64;

    /// Which implementation this is.
    fn kind(&self) -> IndexKind;
}

/// Constructs an index of the requested kind on the given memory.
pub fn new_index(kind: IndexKind, mem: &sgx_sim::MemorySim) -> Box<dyn SubscriptionIndex> {
    match kind {
        IndexKind::Poset => Box::new(PosetIndex::new(mem)),
        IndexKind::Naive => Box::new(NaiveIndex::new(mem)),
        IndexKind::Counting => Box::new(CountingIndex::new(mem)),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for index tests.

    use super::*;
    use crate::attr::AttrSchema;
    use crate::publication::PublicationSpec;
    use crate::subscription::SubscriptionSpec;
    use sgx_sim::{CostModel, MemorySim};

    /// A memory simulator with zero costs (functional tests).
    pub fn free_mem() -> MemorySim {
        MemorySim::native(sgx_sim::CacheConfig::default(), CostModel::free())
    }

    /// Compiles a subscription spec.
    pub fn sub(schema: &AttrSchema, spec: SubscriptionSpec) -> CompiledSubscription {
        spec.compile(schema).unwrap()
    }

    /// Compiles a header from name/value pairs.
    pub fn header(schema: &AttrSchema, attrs: &[(&str, crate::value::Value)]) -> CompiledHeader {
        let mut spec = PublicationSpec::new();
        for (n, v) in attrs {
            spec = spec.attr(n, v.clone());
        }
        spec.compile_header(schema).unwrap()
    }

    /// Matches and returns sorted, deduplicated client ids.
    pub fn matches(index: &dyn SubscriptionIndex, header: &CompiledHeader) -> Vec<u64> {
        let mut out = Vec::new();
        index.match_into(header, &mut MatchScratch::new(), &mut out);
        let mut ids: Vec<u64> = out.into_iter().map(|c| c.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Exercises one index implementation against a fixed scenario; used by
    /// each implementation's test module so all three stay in lockstep.
    pub fn conformance_scenario(make: impl Fn(&MemorySim) -> Box<dyn SubscriptionIndex>) {
        let schema = AttrSchema::new();
        let mem = free_mem();
        let mut index = make(&mem);

        // A containment chain plus unrelated subscriptions.
        index.insert(
            SubscriptionId(1),
            ClientId(1),
            sub(&schema, SubscriptionSpec::new().gt("price", 0.0)),
        );
        index.insert(
            SubscriptionId(2),
            ClientId(2),
            sub(&schema, SubscriptionSpec::new().gt("price", 10.0)),
        );
        index.insert(
            SubscriptionId(3),
            ClientId(3),
            sub(&schema, SubscriptionSpec::new().gt("price", 10.0).eq("symbol", "HAL")),
        );
        index.insert(
            SubscriptionId(4),
            ClientId(4),
            sub(&schema, SubscriptionSpec::new().eq("symbol", "IBM")),
        );
        index.insert(
            SubscriptionId(5),
            ClientId(5),
            sub(&schema, SubscriptionSpec::new()), // matches everything
        );
        assert_eq!(index.len(), 5);

        let h = header(&schema, &[("price", 15.0.into()), ("symbol", "HAL".into())]);
        assert_eq!(matches(index.as_ref(), &h), vec![1, 2, 3, 5]);

        let h2 = header(&schema, &[("price", 5.0.into()), ("symbol", "IBM".into())]);
        assert_eq!(matches(index.as_ref(), &h2), vec![1, 4, 5]);

        let h3 = header(&schema, &[("volume", 1i64.into())]);
        assert_eq!(matches(index.as_ref(), &h3), vec![5]);

        // Removal.
        assert!(index.remove(SubscriptionId(2)));
        assert!(!index.remove(SubscriptionId(2)), "double remove is false");
        assert_eq!(index.len(), 4);
        assert_eq!(matches(index.as_ref(), &h), vec![1, 3, 5]);

        // Removing an inner node must not orphan its descendants.
        assert!(index.remove(SubscriptionId(1)));
        assert_eq!(matches(index.as_ref(), &h), vec![3, 5]);

        // Duplicate subscriptions from different clients.
        index.insert(
            SubscriptionId(6),
            ClientId(6),
            sub(&schema, SubscriptionSpec::new().eq("symbol", "IBM")),
        );
        assert_eq!(matches(index.as_ref(), &h2), vec![4, 5, 6]);
    }
}
