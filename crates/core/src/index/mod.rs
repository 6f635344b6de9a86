//! Subscription indexes: the data structures the routing engine matches
//! against.
//!
//! Two implementations:
//!
//! * [`poset::PosetIndex`] — the paper's containment-based
//!   index (à la Siena) rebuilt on an arena layout: subscriptions form a
//!   forest ordered by covering, matching prunes entire subtrees whose
//!   root fails, and the root directory seeds each match with only the
//!   buckets compatible with the publication's attributes. It is the one
//!   index the engine holds.
//! * [`naive::NaiveIndex`] — a linear scan, the reference the forest is
//!   checked against and the worst-case baseline. [`naive::FlatOracle`]
//!   puts the engine's plaintext signatures on it for the equivalence
//!   tests.
//!
//! [`SubscriptionIndex`] is their shared surface: insert, remove, match,
//! and the size figures the benches read. Both store their nodes in
//! [`sgx_sim::SimArena`]s so every probe is charged to the owning
//! [`sgx_sim::MemorySim`] — that is what lets the benchmarks observe
//! cache-miss knees and EPC paging exactly where the paper does.
//!
//! The one match entry point is [`SubscriptionIndex::match_into`]: it
//! threads a caller-owned [`MatchScratch`] through the traversal so
//! steady-state matching performs no heap allocation.
//!
//! The forest also reports an [`Anchor`] per subscription — where it sits
//! in the structure — and takes it back through
//! [`PosetIndex::insert_anchored`]; that is how an engine snapshot lets a
//! restored forest skip its covering search.

pub mod naive;
pub mod poset;

use crate::ids::{ClientId, SubscriptionId};
use crate::publication::CompiledHeader;
use crate::subscription::CompiledSubscription;

pub use naive::{FlatOracle, NaiveIndex};
pub use poset::PosetIndex;

/// Reusable per-engine traversal state threaded through
/// [`SubscriptionIndex::match_into`]: the forest's DFS stack. After a
/// short warm-up it reaches its high-water mark and matching allocates
/// nothing. The linear scan needs none of it.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// DFS work list (poset traversal).
    pub(crate) stack: Vec<u32>,
}

impl MatchScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity currently retained by the scratch, in entries (a
    /// unit-test helper).
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.stack.capacity()
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

/// The index an engine is built with. A shim that goes with the next
/// benchmark change: the frozen harness still names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Containment poset (the paper's engine), arena-backed.
    Poset,
}

/// Where a live subscription sits in the covering forest, as an engine
/// snapshot records it so that a restore can put the row back without
/// searching for its place (see [`PosetIndex::insert_anchored`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Anchor {
    /// Nothing a restore could reuse: the id is not live.
    Unknown,
    /// A root of the covering forest.
    Root,
    /// Below or beside the node whose first subscription is this id: its
    /// parent node, or its own shared node when it is not that node's
    /// first subscription.
    Under(SubscriptionId),
}

/// What the covering forest and the linear scan share.
pub trait SubscriptionIndex: Send {
    /// Registers a subscription for `client`.
    fn insert(&mut self, id: SubscriptionId, client: ClientId, sub: CompiledSubscription);

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
}

/// A covering forest on the given memory, boxed. The `kind` parameter is
/// a shim that goes with the next benchmark change.
pub fn new_index(_kind: IndexKind, mem: &sgx_sim::MemorySim) -> Box<dyn SubscriptionIndex> {
    Box::new(PosetIndex::new(mem))
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
    /// each implementation's test module so both stay in lockstep.
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
