//! Linear-scan subscription index.
//!
//! Every registered subscription is checked against every publication.
//! Used as the correctness oracle for the smarter indexes and as the
//! unoptimised baseline in the ablation benchmarks.

use super::{
    IndexKind, MatchScratch, SubscriptionIndex, CONSTRAINT_BYTES, NODE_HEADER_BYTES, NODE_STRIDE,
};
use crate::ids::{ClientId, SubscriptionId};
use crate::publication::CompiledHeader;
use crate::subscription::CompiledSubscription;
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
    mem: MemorySim,
    entries: SimArena<Entry>,
    by_id: HashMap<SubscriptionId, u32>,
    live: usize,
}

impl NaiveIndex {
    /// Creates an empty index storing entries in `mem`.
    pub fn new(mem: &MemorySim) -> Self {
        NaiveIndex {
            mem: mem.clone(),
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
            // Touch the header plus as many constraints as this entry holds.
            let peek = self.entries.peek(idx);
            let touched = NODE_HEADER_BYTES + peek.sub.len() as u64 * CONSTRAINT_BYTES;
            let entry = self.entries.read_partial(idx, touched);
            self.mem.charge_predicate_evals(entry.sub.len().max(1) as u64);
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

    fn kind(&self) -> IndexKind {
        IndexKind::Naive
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
}
