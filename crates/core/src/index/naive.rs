//! Linear-scan subscription index.
//!
//! Every registered subscription is checked against every publication.
//! Used as the correctness oracle for the covering forest and as the
//! unoptimised baseline in the ablation benchmarks. [`FlatOracle`] wraps
//! it in the engine's plaintext signatures, so a test can hold a flat
//! oracle beside a [`MatchingEngine`](crate::engine::MatchingEngine)
//! without sharing any of the forest's code.

use super::{MatchScratch, SubscriptionIndex, CONSTRAINT_BYTES, NODE_HEADER_BYTES, NODE_STRIDE};
use crate::attr::AttrSchema;
use crate::error::ScbrError;
use crate::ids::{ClientId, SubscriptionId};
use crate::publication::{CompiledHeader, PublicationSpec};
use crate::subscription::{CompiledSubscription, SubscriptionSpec};
use sgx_sim::{MemorySim, SimArena};
use std::collections::HashMap;

#[derive(Debug)]
struct Entry {
    id: SubscriptionId,
    client: ClientId,
    sub: CompiledSubscription,
    alive: bool,
}

/// A subscription index that scans all entries on every match.
#[derive(Debug)]
pub struct NaiveIndex {
    entries: SimArena<Entry>,
    by_id: HashMap<SubscriptionId, u32>,
    live: usize,
}

impl NaiveIndex {
    /// Creates an empty index storing entries in `mem`.
    pub fn new(mem: &MemorySim) -> Self {
        NaiveIndex {
            entries: SimArena::with_stride(mem, NODE_STRIDE),
            by_id: HashMap::new(),
            live: 0,
        }
    }
}

impl SubscriptionIndex for NaiveIndex {
    fn insert(&mut self, id: SubscriptionId, client: ClientId, sub: CompiledSubscription) {
        let idx = self.entries.push(Entry { id, client, sub, alive: true });
        self.by_id.insert(id, idx);
        self.live += 1;
    }

    fn remove(&mut self, id: SubscriptionId) -> bool {
        match self.by_id.remove(&id) {
            Some(idx) => {
                let entry = self.entries.write(idx);
                debug_assert_eq!(entry.id, id, "id map out of sync");
                entry.alive = false;
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    fn match_into(
        &self,
        header: &CompiledHeader,
        _scratch: &mut MatchScratch,
        out: &mut Vec<ClientId>,
    ) {
        // The linear scan needs no traversal state; it is allocation-free
        // by construction.
        for idx in 0..self.entries.len() as u32 {
            // Evaluate as many predicates as this entry holds, touching the
            // header plus those constraints.
            let n_constraints = self.entries.peek(idx).sub.len() as u64;
            let touched = NODE_HEADER_BYTES + n_constraints * CONSTRAINT_BYTES;
            let entry = self.entries.read_partial(idx, touched, n_constraints.max(1));
            if entry.alive && entry.sub.matches(header) {
                out.push(entry.client);
            }
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn node_count(&self) -> usize {
        self.entries.len()
    }

    fn logical_bytes(&self) -> u64 {
        self.entries.len() as u64 * NODE_STRIDE
    }
}

/// A flat matcher with the engine's plaintext signatures: an attribute
/// table plus a [`NaiveIndex`]. What the equivalence tests check the
/// engine and the overlay against.
#[derive(Debug)]
pub struct FlatOracle {
    schema: AttrSchema,
    index: NaiveIndex,
}

impl FlatOracle {
    /// An empty oracle storing its entries in `mem`.
    pub fn new(mem: &MemorySim) -> Self {
        FlatOracle { schema: AttrSchema::new(), index: NaiveIndex::new(mem) }
    }

    /// Registers a subscription; a live `id` is replaced, as the engine
    /// replaces it.
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
        let compiled = spec.compile(&self.schema)?;
        self.index.remove(id);
        self.index.insert(id, client, compiled);
        Ok(())
    }

    /// Unregisters `id`. Returns whether it was live.
    pub fn unregister(&mut self, id: SubscriptionId) -> bool {
        self.index.remove(id)
    }

    /// The sorted, deduplicated clients `publication` matches.
    ///
    /// # Errors
    ///
    /// Propagates header-compilation failures.
    pub fn match_plain(&self, publication: &PublicationSpec) -> Result<Vec<ClientId>, ScbrError> {
        let header = publication.compile_header(&self.schema)?;
        let mut out = Vec::new();
        self.index.match_into(&header, &mut MatchScratch::new(), &mut out);
        out.sort_unstable_by_key(|c| c.0);
        out.dedup();
        Ok(out)
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn conformance() {
        conformance_scenario(|mem| Box::new(NaiveIndex::new(mem)));
    }

    #[test]
    fn empty_index_matches_nothing() {
        let mem = free_mem();
        let index = NaiveIndex::new(&mem);
        let schema = crate::attr::AttrSchema::new();
        let h = header(&schema, &[("x", 1i64.into())]);
        assert!(matches(&index, &h).is_empty());
        assert!(index.is_empty());
    }

    #[test]
    fn logical_bytes_grow_with_entries() {
        let mem = free_mem();
        let schema = crate::attr::AttrSchema::new();
        let mut index = NaiveIndex::new(&mem);
        assert_eq!(index.logical_bytes(), 0);
        for i in 0..10 {
            index.insert(
                SubscriptionId(i),
                ClientId(i),
                sub(&schema, crate::subscription::SubscriptionSpec::new().eq("s", i as i64)),
            );
        }
        assert_eq!(index.logical_bytes(), 10 * NODE_STRIDE);
        assert_eq!(index.node_count(), 10);
    }

    #[test]
    fn matching_charges_memory_traffic() {
        let mem = free_mem();
        let schema = crate::attr::AttrSchema::new();
        let mut index = NaiveIndex::new(&mem);
        for i in 0..100 {
            index.insert(
                SubscriptionId(i),
                ClientId(i),
                sub(&schema, crate::subscription::SubscriptionSpec::new().eq("s", i as i64)),
            );
        }
        let reads_before = mem.stats().reads;
        let h = header(&schema, &[("s", 5i64.into())]);
        let mut out = Vec::new();
        index.match_into(&h, &mut MatchScratch::new(), &mut out);
        assert!(mem.stats().reads > reads_before, "matching reads memory");
        assert_eq!(out, vec![ClientId(5)]);
    }

    #[test]
    fn flat_oracle_replaces_refuses_unknown_ids_and_sorts() {
        let mut oracle = FlatOracle::new(&free_mem());
        let quote = |price: f64| PublicationSpec::new().attr("symbol", "HAL").attr("price", price);
        for (id, client) in [(3u64, 9u64), (1, 2), (2, 9), (4, 5)] {
            let spec = SubscriptionSpec::new().eq("symbol", "HAL").gt("price", 1.0);
            oracle.register_plain(SubscriptionId(id), ClientId(client), &spec).unwrap();
        }
        assert_eq!(oracle.len(), 4);
        // Sorted by client and deduplicated: ids 3 and 2 both deliver to 9.
        let all = vec![ClientId(2), ClientId(5), ClientId(9)];
        assert_eq!(oracle.match_plain(&quote(50.0)).unwrap(), all);

        // Re-registering a live id with a narrower filter replaces it:
        // the old filter no longer matches, and no row is added.
        let narrow = SubscriptionSpec::new().eq("symbol", "HAL").gt("price", 100.0);
        oracle.register_plain(SubscriptionId(4), ClientId(5), &narrow).unwrap();
        assert_eq!(oracle.len(), 4);
        assert_eq!(oracle.match_plain(&quote(50.0)).unwrap(), vec![ClientId(2), ClientId(9)]);
        assert_eq!(oracle.match_plain(&quote(150.0)).unwrap(), all);

        assert!(!oracle.unregister(SubscriptionId(77)), "an unknown id was never live");
        assert!(oracle.unregister(SubscriptionId(3)));
        assert!(!oracle.unregister(SubscriptionId(3)), "a second removal finds nothing");
        assert_eq!(oracle.len(), 3);
        assert_eq!(oracle.match_plain(&quote(150.0)).unwrap(), all, "id 2 still delivers to 9");
        assert!(!oracle.is_empty());
    }
}
