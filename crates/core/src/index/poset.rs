//! Containment-based subscription index (the paper's engine), rebuilt on a
//! cache-conscious arena layout for the million-subscriber hot path.
//!
//! Subscriptions are organised in a forest ordered by the *covering*
//! relation: a node's subscription covers every subscription in its
//! subtree. Two properties follow:
//!
//! 1. **Pruned matching.** If a publication fails a node's constraints it
//!    cannot match anything below it (child matches ⇒ parent matches, by
//!    covering), so the whole subtree is skipped. Workloads whose
//!    subscriptions form deep chains (many equality predicates on few hot
//!    values — `e100a1`, `e100a1zz100` in Table 1) match fastest; workloads
//!    with many attributes form wide, shallow forests and degrade towards a
//!    linear scan (`e80a4`, `extsub4`), exactly the spread Figure 6 shows.
//! 2. **Shared nodes.** Equal subscriptions (after canonicalisation) share
//!    one node, shrinking the enclave-resident footprint — valuable when
//!    memory beyond the EPC costs 1000× (Figure 8).
//!
//! Compared to the pre-arena poset it replaced (deleted; its last
//! measurement is `crates/bench/baselines/million-7ef4a61.json`) five
//! things changed:
//!
//! * **Sorted child runs.** A node's children are one *run*: a contiguous
//!   `Vec` of 16-byte entries `(child, attr, kind, key)` sorted by
//!   `(attr, kind, key)`, where the key is a string-equality gate's hash
//!   and 0 otherwise. The run sits in the node's payload beside its
//!   subscriber list, which matching has just read, and the parent is a
//!   `u32` column indexed by node id (`u32::MAX` = root). Linking a child
//!   is a binary search plus a shifting insert after its equal keys,
//!   unlinking a binary search to its key plus a scan of the equal keys
//!   for its id, and removing a node appends its re-gated children to the
//!   parent's run and sorts that once: O(run) each, where intrusive
//!   sibling lists were O(1), bought back on every match (below). A node
//!   that never had a child allocates no run. Insertion samples a wide
//!   node's children in run order, i.e. grouped by gate, not by recency.
//! * **Copyable directory keys.** A root's directory bucket (`DirKey`) is
//!   derived from its gate (below), which for a root is its first
//!   constraint, so root promotion/demotion never needs a `sub.clone()`;
//!   bucket membership is maintained with position-indexed `swap_remove`,
//!   O(1) per root flip.
//! * **Directory-seeded matching.** A root can only match a publication
//!   that carries its first (minimum-id) constrained attribute with a
//!   compatible kind, so matching seeds its DFS stack from the compatible
//!   buckets only — `top` roots plus, per publication attribute, the exact
//!   string-equality bucket and the numeric-range list. At one million
//!   mostly-unrelated subscriptions this replaces the full root-list walk
//!   with a handful of bucket probes, and the traversal stack itself comes
//!   from the caller's [`MatchScratch`], so steady-state matching performs
//!   zero heap allocation.
//! * **Gated descent.** A column index-parallel with `parent` holds each
//!   node's *gate*: for a child, its first constraint not identical to its
//!   parent's on the same attribute; for a root, its first constraint.
//!   Matching tests a candidate's gate against the publication before
//!   pushing it — the children of a matched node and the range roots the
//!   directory seeds — and a rejected candidate is never read. Sound
//!   because the gate is one of the node's own constraints, so a
//!   publication that lacks its attribute or fails it cannot match the
//!   node, nor (by covering) anything below it. It pays because a child
//!   shares most constraints with its matched parent, and these already
//!   hold: the gate is where siblings differ. The gate is recomputed
//!   whenever a node gets a new parent or becomes a root (linking,
//!   adoption, both splice paths of removal), at O(constraints) each. A
//!   gate fixed at insertion would stay sound but go blind: once its node
//!   is re-parented it may test a constraint the new parent already
//!   guarantees and pass siblings that fail elsewhere. A matched node's
//!   run is walked one `(attr, kind)` group at a time, with one header
//!   lookup per group: ungated children are pushed; a string-equality
//!   group is binary-searched for the value's hash and its equal-key
//!   range pushed (a value of any other kind rejects the whole group); a
//!   range group is tested entry by entry against the gate column. Each
//!   rejected child, tested or skipped by the search, is still charged one
//!   predicate evaluation, so on a given forest the simulated cost is that
//!   of testing every gate. On `router_scan` (12k `e80a1`) a publication
//!   reaches ~384 subscribers through matched nodes with ~5 700 children
//!   between them, most under ~16 wide range nodes whose children are
//!   gated on `symbol = X`; the gates keep all but a few hundred unread,
//!   and the binary search leaves most of them untested. Traced at the
//!   default seed on a 2-core VM, the walk took `index.match_us_per_msg`
//!   from ~145 µs (sibling lists) to ~88 µs, with the same matches and
//!   ~1 015 simulated line reads per message either way.
//! * **Restore.** [`PosetIndex::anchor`] names where a
//!   subscription sits: a root, or the first subscription of its parent
//!   node (of its own shared node, when it is not that node's first). An
//!   engine snapshot records it per row, and
//!   [`PosetIndex::insert_anchored`] puts the row back with one
//!   charged covering comparison against the anchor's node instead of the
//!   covering search: `Equal` joins the node, `NodeCoversNew` links a
//!   new child under it (its gate re-derived as on any link), and a root
//!   goes straight into its directory bucket. Anything else — an unknown
//!   or not-yet-placed anchor, or one that does not cover the row — falls
//!   back to [`SubscriptionIndex::insert`]. A restore that places rows
//!   parents-first rebuilds the author's forest exactly. A wrong anchor
//!   costs a search or a flatter forest, never a match: a row is linked
//!   under a node only once that node was seen to cover it, and any
//!   subscription may be a root.
//!
//! Node payloads still live in a [`SimArena`] with the paper's ~432-byte
//! stride, so probes surface as cache misses and EPC faults in the
//! simulator. Detached slots are recycled through a free list, keeping the
//! arena footprint proportional to *live* nodes under churn.

use super::{
    Anchor, MatchScratch, SubscriptionIndex, CONSTRAINT_BYTES, NODE_HEADER_BYTES, NODE_STRIDE,
};
use crate::attr::AttrId;
use crate::ids::{ClientId, SubscriptionId};
use crate::predicate::ConstraintSet;
use crate::publication::CompiledHeader;
use crate::subscription::CompiledSubscription;
use crate::value::Scalar;
use sgx_sim::{MemorySim, SimArena};
use std::collections::HashMap;

/// Sentinel for "no node" in the parent column.
const NONE: u32 = u32::MAX;

/// Upper bound on candidate nodes examined per child run or root bucket
/// during insertion. A missed cover or adoption only flattens the forest
/// (extra roots), never breaks the parent-covers-child invariant; the cap
/// keeps per-registration work — and therefore the *memory touches the
/// simulator charges per registration* — bounded, matching the modest
/// per-insert footprint the paper's Figure 8 implies.
const SCAN_CAP: usize = 16;

/// The one constraint a publication must pass before a node is read: for a
/// child, its first constraint not identical to its parent's on the same
/// attribute; for a root, its first constraint. `None` only for the
/// unconstrained root, which admits everything.
type Gate = Option<(AttrId, ConstraintSet)>;

/// The gate of `child` under `parent` (`None` parent: a root).
///
/// A child is strictly covered by its parent (equal subscriptions share a
/// node), so it tightens some parent constraint or adds an attribute, and
/// the merge-join below always finds one. Were it not to, `None` would
/// admit the child unconditionally — slower, never wrong.
fn gate_under(child: &CompiledSubscription, parent: Option<&CompiledSubscription>) -> Gate {
    let Some(parent) = parent else {
        return child.constraints().first().copied();
    };
    let theirs = parent.constraints();
    let mut t = 0usize;
    for &(attr, set) in child.constraints() {
        while t < theirs.len() && theirs[t].0 < attr {
            t += 1;
        }
        if theirs.get(t) != Some(&(attr, set)) {
            return Some((attr, set));
        }
    }
    None
}

/// How a child's gate is tested, in run order within one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum GateKind {
    /// No gate: the child is always pushed.
    Ungated,
    /// String equality: found by binary search on the hash.
    StrEq,
    /// Numeric range: tested against the gate column.
    Range,
}

/// One child in its parent's run, sorted by `(attr, kind, key)`. `key` is
/// the hash of a string-equality gate and 0 otherwise, so the children a
/// header value admits through string equality are one contiguous range.
#[derive(Debug, Clone, Copy)]
struct ChildEntry {
    key: u64,
    child: u32,
    attr: AttrId,
    kind: GateKind,
}

const _: () = assert!(std::mem::size_of::<ChildEntry>() == 16);

impl ChildEntry {
    fn new(child: u32, gate: &Gate) -> Self {
        let (attr, kind, key) = match *gate {
            None => (AttrId(0), GateKind::Ungated, 0),
            Some((attr, ConstraintSet::StrEq(h))) => (attr, GateKind::StrEq, h),
            Some((attr, ConstraintSet::Range { .. })) => (attr, GateKind::Range, 0),
        };
        ChildEntry { key, child, attr, kind }
    }

    /// The run's sort key.
    fn order(&self) -> (AttrId, GateKind, u64) {
        (self.attr, self.kind, self.key)
    }
}

/// Which root-directory bucket a root belongs to, derived from its gate
/// (its first, minimum-attribute-id constraint). Copyable, so root
/// bookkeeping never clones the subscription itself.
// lint: allow(SL02, directory lookup key - no cryptographic material)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirKey {
    /// No constraints: matches everything, always a candidate.
    Top,
    /// First constraint is a string equality on `(attr, hash)`.
    Eq(AttrId, u64),
    /// First constraint is a numeric range on `attr`.
    Range(AttrId),
}

impl DirKey {
    fn of(first: Option<&(AttrId, ConstraintSet)>) -> Self {
        match first {
            None => DirKey::Top,
            Some((attr, ConstraintSet::StrEq(h))) => DirKey::Eq(*attr, *h),
            Some((attr, ConstraintSet::Range { .. })) => DirKey::Range(*attr),
        }
    }
}

/// Root directory: buckets every root by its [`DirKey`].
///
/// Insertion consults only compatible buckets instead of scanning every
/// root, and — new with the arena layout — matching seeds its DFS stack
/// from the same buckets, making candidate work sub-linear in the root
/// count. Soundness rests on [`ConstraintSet::matches`] kind-strictness: a
/// string equality only matches `Scalar::Str` of the same hash, and a
/// range never matches a string, so a root bucketed elsewhere cannot match
/// the publication and skipping it is safe.
#[derive(Debug, Default)]
struct RootDirectory {
    /// Roots with no constraints (match everything).
    top: Vec<u32>,
    by_attr: HashMap<AttrId, AttrBucket>,
}

#[derive(Debug, Default)]
struct AttrBucket {
    /// Roots whose first constraint is a string equality, by hash.
    eq: HashMap<u64, Vec<u32>>,
    /// Roots whose first constraint is a numeric range.
    ranges: Vec<u32>,
}

impl RootDirectory {
    /// The bucket list a key lives in, created on demand.
    fn list_mut(&mut self, key: DirKey) -> &mut Vec<u32> {
        match key {
            DirKey::Top => &mut self.top,
            DirKey::Eq(attr, h) => self.by_attr.entry(attr).or_default().eq.entry(h).or_default(),
            DirKey::Range(attr) => &mut self.by_attr.entry(attr).or_default().ranges,
        }
    }

    /// Root indices that could possibly *cover* `sub`: a covering root's
    /// first attribute is one of `sub`'s, with a compatible kind. Each
    /// list contributes at most [`SCAN_CAP`] entries, sampled across the
    /// list with a subscription-dependent offset (see [`capped_into`]).
    fn cover_candidates_into(&self, sub: &CompiledSubscription, salt: u64, out: &mut Vec<u32>) {
        capped_into(&self.top, salt, out);
        for (attr, set) in sub.constraints() {
            if let Some(bucket) = self.by_attr.get(attr) {
                match set {
                    ConstraintSet::StrEq(h) => {
                        if let Some(list) = bucket.eq.get(h) {
                            capped_into(list, salt, out);
                        }
                    }
                    ConstraintSet::Range { .. } => capped_into(&bucket.ranges, salt, out),
                }
            }
        }
    }

    /// Root indices `sub` might *adopt* (heuristic: only roots sharing
    /// `sub`'s first attribute — missing an adoption keeps the forest
    /// flatter but never breaks the parent-covers-child invariant).
    fn adoption_candidates_into(&self, key: DirKey, salt: u64, out: &mut Vec<u32>) {
        match key {
            DirKey::Top => {
                // An empty subscription covers everything rooted anywhere.
                capped_into(&self.top, salt, out);
                for bucket in self.by_attr.values() {
                    for list in bucket.eq.values() {
                        capped_into(list, salt, out);
                    }
                    capped_into(&bucket.ranges, salt, out);
                }
            }
            DirKey::Eq(attr, h) => {
                if let Some(list) = self.by_attr.get(&attr).and_then(|b| b.eq.get(&h)) {
                    capped_into(list, salt, out);
                }
            }
            DirKey::Range(attr) => {
                if let Some(bucket) = self.by_attr.get(&attr) {
                    capped_into(&bucket.ranges, salt, out);
                }
            }
        }
    }

    /// Seeds a match with every root that could possibly accept `header`:
    /// the unconstrained `top` roots plus, for each publication attribute,
    /// the exact string-equality bucket (when the value is a string) and
    /// the numeric-range roots `admit` passes. Complete because a matching
    /// root's first constrained attribute must appear in the header with a
    /// compatible kind, and each root lives in exactly one bucket (no
    /// duplicates).
    fn seed_match(
        &self,
        header: &CompiledHeader,
        mut admit: impl FnMut(u32) -> bool,
        out: &mut Vec<u32>,
    ) {
        out.extend_from_slice(&self.top);
        for (attr, scalar) in header.entries() {
            if let Some(bucket) = self.by_attr.get(attr) {
                if let Scalar::Str(h) = scalar {
                    if let Some(list) = bucket.eq.get(h) {
                        out.extend_from_slice(list);
                    }
                }
                out.extend(bucket.ranges.iter().copied().filter(|&r| admit(r)));
            }
        }
    }
}

/// Appends at most [`SCAN_CAP`] entries sampled *across* a candidate list
/// (every ⌈len/CAP⌉-th element) to `out`. Sampling the whole list — rather
/// than only its most recent tail — mirrors a real poset insertion, whose
/// sibling checks land on nodes allocated throughout the index's lifetime.
/// That access pattern is what drives the paper's Figure 8: once the index
/// outgrows the EPC, insertion touches evicted pages and pays for swaps.
fn capped_into(list: &[u32], salt: u64, out: &mut Vec<u32>) {
    let (offset, stride) = sample_of(list.len(), salt);
    out.extend(list.iter().skip(offset).step_by(stride).copied());
}

/// `(offset, stride)` of the [`SCAN_CAP`]-entry sample of a `len`-entry
/// list: every element when it is short enough, else every
/// ⌈len/CAP⌉-th from a salt-dependent offset.
fn sample_of(len: usize, salt: u64) -> (usize, usize) {
    if len <= SCAN_CAP {
        return (0, 1);
    }
    let stride = len.div_ceil(SCAN_CAP);
    ((salt as usize) % stride, stride)
}

/// Relation between a resident node's subscription and an incoming one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Relation {
    Equal,
    NodeCoversNew,
    NewCoversNode,
    Unrelated,
}

/// Arena payload: the parts of a node with per-node size. Fixed-size
/// structure lives in the index's struct-of-arrays columns.
#[derive(Debug)]
struct NodeBody {
    sub: CompiledSubscription,
    subscribers: Vec<(SubscriptionId, ClientId)>,
    /// The node's children, one [`ChildEntry`] each, sorted by gate. It
    /// sits beside the subscriber list because a matched node is walked
    /// right after it is read; a node that never had a child allocates
    /// none.
    run: Vec<ChildEntry>,
}

/// The containment forest, arena-backed.
#[derive(Debug)]
pub struct PosetIndex {
    mem: MemorySim,
    nodes: SimArena<NodeBody>,
    // Struct-of-arrays columns, index-parallel with `nodes`.
    /// The node whose run holds this one; `NONE` (u32::MAX) for a root.
    parent: Vec<u32>,
    /// Each node's [`Gate`], recomputed whenever it gets a new parent or
    /// becomes a root. A root's gate is its first constraint, so it also
    /// names the root's directory bucket ([`DirKey::of`]).
    gate: Vec<Gate>,
    /// Position inside its directory bucket list while a root, else NONE.
    dir_pos: Vec<u32>,
    directory: RootDirectory,
    by_id: HashMap<SubscriptionId, u32>,
    /// Detached slots available for reuse (keeps footprint ∝ live nodes
    /// under churn — the arena itself is append-only).
    free: Vec<u32>,
    n_roots: usize,
    live: usize,
    // Reusable insertion/removal buffers (candidate probes, adoptions).
    cand_buf: Vec<u32>,
    adopt_buf: Vec<u32>,
}

impl PosetIndex {
    /// Creates an empty index storing nodes in `mem`.
    pub fn new(mem: &MemorySim) -> Self {
        PosetIndex {
            mem: mem.clone(),
            nodes: SimArena::with_stride(mem, NODE_STRIDE),
            parent: Vec::new(),
            gate: Vec::new(),
            dir_pos: Vec::new(),
            directory: RootDirectory::default(),
            by_id: HashMap::new(),
            free: Vec::new(),
            n_roots: 0,
            live: 0,
            cand_buf: Vec::new(),
            adopt_buf: Vec::new(),
        }
    }

    /// Number of root nodes (width of the forest).
    pub fn root_count(&self) -> usize {
        self.n_roots
    }

    /// Maximum depth of the forest (1 for a single layer; 0 when empty).
    pub fn depth(&self) -> usize {
        fn depth_of(index: &PosetIndex, node: u32) -> usize {
            let run = &index.nodes.peek(node).run;
            1 + run.iter().map(|e| depth_of(index, e.child)).max().unwrap_or(0)
        }
        let mut max = 0;
        self.each_root(|r| max = max.max(depth_of(self, r)));
        max
    }

    /// Calls `f` on every root (all directory buckets).
    fn each_root(&self, mut f: impl FnMut(u32)) {
        for &r in &self.directory.top {
            f(r);
        }
        for bucket in self.directory.by_attr.values() {
            for list in bucket.eq.values() {
                for &r in list {
                    f(r);
                }
            }
            for &r in &bucket.ranges {
                f(r);
            }
        }
    }

    /// Reads a node charging traffic proportional to its constraint count.
    fn visit(&self, idx: u32) -> &NodeBody {
        let n_constraints = self.nodes.peek(idx).sub.len() as u64;
        let bytes = NODE_HEADER_BYTES + n_constraints * CONSTRAINT_BYTES;
        self.mem.charge_predicate_evals(n_constraints.max(1));
        self.nodes.read_partial(idx, bytes)
    }

    /// Directory bucket of root `idx`.
    fn dir_key(&self, idx: u32) -> DirKey {
        DirKey::of(self.gate[idx as usize].as_ref())
    }

    /// Compares the incoming subscription with a node's, charging the two
    /// covering checks.
    fn relate(&self, idx: u32, sub: &CompiledSubscription) -> Relation {
        let node = self.visit(idx);
        let node_covers = node.sub.covers(sub);
        let new_covers = sub.covers(&node.sub);
        match (node_covers, new_covers) {
            (true, true) => Relation::Equal,
            (true, false) => Relation::NodeCoversNew,
            (false, true) => Relation::NewCoversNode,
            (false, false) => Relation::Unrelated,
        }
    }

    /// Registers `idx` as a root in its directory bucket. O(1) plus the
    /// gate copy.
    fn root_add(&mut self, idx: u32) {
        self.gate[idx as usize] = gate_under(&self.nodes.peek(idx).sub, None);
        let key = self.dir_key(idx);
        let list = self.directory.list_mut(key);
        self.dir_pos[idx as usize] = list.len() as u32;
        list.push(idx);
        self.parent[idx as usize] = NONE;
        self.n_roots += 1;
    }

    /// Removes root `idx` from its directory bucket via position-indexed
    /// swap_remove. O(1), no subscription clone.
    fn root_remove(&mut self, idx: u32) {
        let key = self.dir_key(idx);
        let pos = self.dir_pos[idx as usize] as usize;
        let list = self.directory.list_mut(key);
        list.swap_remove(pos);
        let moved = list.get(pos).copied();
        if let Some(m) = moved {
            self.dir_pos[m as usize] = pos as u32;
        }
        self.dir_pos[idx as usize] = NONE;
        self.n_roots -= 1;
    }

    /// Makes `p` the parent of `c` and recomputes `c`'s gate under it, at
    /// O(constraints). Returns `c`'s entry for `p`'s run.
    fn adopt(&mut self, p: u32, c: u32) -> ChildEntry {
        let gate = gate_under(&self.nodes.peek(c).sub, Some(&self.nodes.peek(p).sub));
        self.gate[c as usize] = gate;
        self.parent[c as usize] = p;
        ChildEntry::new(c, &gate)
    }

    /// Links `c` under `p`: its entry goes after the equal keys of `p`'s
    /// run.
    fn link_child(&mut self, p: u32, c: u32) {
        let entry = self.adopt(p, c);
        let run = &mut self.nodes.peek_mut(p).run;
        let at = run.partition_point(|e| e.order() <= entry.order());
        run.insert(at, entry);
    }

    /// Unlinks `c` from its parent's run: a binary search to its key, then
    /// a scan of the equal keys for its id.
    fn unlink_child(&mut self, c: u32) {
        let p = std::mem::replace(&mut self.parent[c as usize], NONE);
        let order = ChildEntry::new(c, &self.gate[c as usize]).order();
        let run = &mut self.nodes.peek_mut(p).run;
        let from = run.partition_point(|e| e.order() < order);
        let at = run[from..].iter().position(|e| e.child == c).expect("a child sits in its run");
        run.remove(from + at);
    }

    /// Appends a capped sample of `p`'s children, in run order, to `out`.
    fn children_capped_into(&self, p: u32, salt: u64, out: &mut Vec<u32>) {
        let run = &self.nodes.peek(p).run;
        let (offset, stride) = sample_of(run.len(), salt);
        out.extend(run.iter().skip(offset).step_by(stride).map(|e| e.child));
    }

    /// Pushes the children in a matched node's `run` whose gates `header`
    /// passes onto `stack`, one `(attr, kind)` group at a time, and
    /// returns how many it rejected. Each group looks its attribute up
    /// in the header once. A string-equality group is binary-searched for
    /// the value's hash and pushes the equal-key range; any other value
    /// kind fails the whole group. A range group is tested entry by entry.
    fn admit_children(
        &self,
        mut run: &[ChildEntry],
        header: &CompiledHeader,
        stack: &mut Vec<u32>,
    ) -> u64 {
        let mut rejected = 0;
        while let Some(first) = run.first() {
            let (attr, kind) = (first.attr, first.kind);
            let len = run.partition_point(|e| (e.attr, e.kind) == (attr, kind));
            let (group, rest) = run.split_at(len);
            run = rest;
            let pushed = stack.len();
            match kind {
                GateKind::Ungated => stack.extend(group.iter().map(|e| e.child)),
                GateKind::StrEq => {
                    if let Some(&Scalar::Str(h)) = header.get(attr) {
                        let lo = group.partition_point(|e| e.key < h);
                        let hi = group.partition_point(|e| e.key <= h);
                        stack.extend(group[lo..hi].iter().map(|e| e.child));
                    }
                }
                GateKind::Range => {
                    if let Some(value) = header.get(attr) {
                        stack.extend(group.iter().map(|e| e.child).filter(|&c| {
                            matches!(&self.gate[c as usize], Some((_, set)) if set.matches(value))
                        }));
                    }
                }
            }
            rejected += (len - (stack.len() - pushed)) as u64;
        }
        rejected
    }

    /// Allocates a node slot, recycling a detached one when available.
    fn alloc_node(
        &mut self,
        sub: CompiledSubscription,
        subscriber: (SubscriptionId, ClientId),
    ) -> u32 {
        if let Some(idx) = self.free.pop() {
            let body = self.nodes.write(idx);
            body.sub = sub;
            body.subscribers.clear();
            body.subscribers.push(subscriber);
            let i = idx as usize;
            self.parent[i] = NONE;
            self.gate[i] = None;
            self.dir_pos[i] = NONE;
            idx
        } else {
            let idx =
                self.nodes.push(NodeBody { sub, subscribers: vec![subscriber], run: Vec::new() });
            self.parent.push(NONE);
            self.gate.push(None);
            self.dir_pos.push(NONE);
            idx
        }
    }

    /// Gives `id` a node of its own under `parent` (`NONE`: as a root).
    fn place(
        &mut self,
        id: SubscriptionId,
        client: ClientId,
        sub: CompiledSubscription,
        parent: u32,
    ) -> u32 {
        let idx = self.alloc_node(sub, (id, client));
        if parent == NONE {
            self.root_add(idx);
        } else {
            self.link_child(parent, idx);
        }
        self.by_id.insert(id, idx);
        self.live += 1;
        idx
    }

    /// Adds `id` as a further subscriber of the existing node `node`.
    fn join(&mut self, node: u32, id: SubscriptionId, client: ClientId) {
        self.nodes.write(node).subscribers.push((id, client));
        self.by_id.insert(id, node);
        self.live += 1;
    }

    /// Where `id` sits, for a snapshot to record: a root, or the first
    /// subscription of its parent node (of its own shared node, when it is
    /// not that node's first). [`Anchor::Unknown`] when `id` is not live.
    pub fn anchor(&self, id: SubscriptionId) -> Anchor {
        let Some(&idx) = self.by_id.get(&id) else {
            return Anchor::Unknown;
        };
        let first_of = |node: u32| self.nodes.peek(node).subscribers[0].0;
        match (first_of(idx), self.parent[idx as usize]) {
            (first, _) if first != id => Anchor::Under(first),
            (_, NONE) => Anchor::Root,
            (_, parent) => Anchor::Under(first_of(parent)),
        }
    }

    /// Registers a subscription at the place `anchor` names, as a restore
    /// does. The anchor is a hint: one that this forest cannot confirm
    /// with the subscription itself falls back to
    /// [`SubscriptionIndex::insert`], so a wrong anchor may cost time but
    /// never changes a match.
    pub fn insert_anchored(
        &mut self,
        id: SubscriptionId,
        client: ClientId,
        sub: CompiledSubscription,
        anchor: Anchor,
    ) {
        let node = match anchor {
            Anchor::Root => {
                self.place(id, client, sub, NONE);
                return;
            }
            Anchor::Under(at) => self.by_id.get(&at).copied(),
            Anchor::Unknown => None,
        };
        match node.map(|node| (node, self.relate(node, &sub))) {
            Some((node, Relation::Equal)) => self.join(node, id, client),
            Some((node, Relation::NodeCoversNew)) => {
                self.place(id, client, sub, node);
            }
            _ => self.insert(id, client, sub),
        }
    }

    /// Detaches `idx` from the forest, splicing its children to its parent
    /// (or promoting them to roots), and returns the slot to the free list.
    /// A splice appends the re-gated children to the parent's run and
    /// sorts it once, rather than paying one shifting insert per child.
    fn detach(&mut self, idx: u32) {
        let p = self.parent[idx as usize];
        let kids = std::mem::take(&mut self.nodes.peek_mut(idx).run);
        if p != NONE {
            self.unlink_child(idx);
            for k in &kids {
                let entry = self.adopt(p, k.child);
                self.nodes.peek_mut(p).run.push(entry);
            }
            self.nodes.peek_mut(p).run.sort_by_key(ChildEntry::order);
        } else {
            self.root_remove(idx);
            for k in &kids {
                self.root_add(k.child);
            }
        }
        self.nodes.write(idx).subscribers.clear();
        self.free.push(idx);
    }
}

impl SubscriptionIndex for PosetIndex {
    fn insert(&mut self, id: SubscriptionId, client: ClientId, sub: CompiledSubscription) {
        // Descend to the deepest node covering `sub`. At the root level
        // only compatible directory buckets are consulted; below, children
        // lists are sampled directly.
        let salt = sub.fingerprint();
        let mut cands = std::mem::take(&mut self.cand_buf);
        let mut parent: u32 = NONE;
        let mut equal: u32 = NONE;
        loop {
            cands.clear();
            if parent == NONE {
                self.directory.cover_candidates_into(&sub, salt, &mut cands);
            } else {
                self.children_capped_into(parent, salt, &mut cands);
            }
            // Find a sibling that equals or covers the new subscription.
            let mut next: u32 = NONE;
            for &s in &cands {
                match self.relate(s, &sub) {
                    Relation::Equal => {
                        equal = s;
                        break;
                    }
                    Relation::NodeCoversNew => {
                        next = s;
                        break;
                    }
                    _ => {}
                }
            }
            if equal != NONE || next == NONE {
                break;
            }
            parent = next;
        }
        if equal != NONE {
            self.join(equal, id, client);
            self.cand_buf = cands;
            return;
        }

        // Place a new node under `parent`, adopting any siblings it covers.
        let key = DirKey::of(sub.constraints().first());
        cands.clear();
        if parent == NONE {
            self.directory.adoption_candidates_into(key, salt, &mut cands);
        } else {
            self.children_capped_into(parent, salt, &mut cands);
        }
        let mut adopted = std::mem::take(&mut self.adopt_buf);
        adopted.clear();
        for &s in &cands {
            if self.relate(s, &sub) == Relation::NewCoversNode {
                adopted.push(s);
            }
        }
        for &a in &adopted {
            if parent == NONE {
                self.root_remove(a);
            } else {
                self.unlink_child(a);
            }
        }
        let new_idx = self.place(id, client, sub, parent);
        for &a in &adopted {
            self.link_child(new_idx, a);
        }
        self.cand_buf = cands;
        self.adopt_buf = adopted;
    }

    fn remove(&mut self, id: SubscriptionId) -> bool {
        let Some(idx) = self.by_id.remove(&id) else {
            return false;
        };
        {
            let node = self.nodes.write(idx);
            node.subscribers.retain(|(sid, _)| *sid != id);
        }
        if self.nodes.peek(idx).subscribers.is_empty() {
            self.detach(idx);
        }
        self.live -= 1;
        true
    }

    fn match_into(
        &self,
        header: &CompiledHeader,
        scratch: &mut MatchScratch,
        out: &mut Vec<ClientId>,
    ) {
        // A candidate's gate is tested from the gate column or its run
        // entry, never the node. Each rejection, tested or skipped by a
        // binary search, is priced as one predicate evaluation, charged
        // once per match rather than once per candidate.
        let mut rejected = 0u64;
        let admit = |c: u32| {
            let pass = match &self.gate[c as usize] {
                None => true,
                Some((attr, set)) => header.get(*attr).is_some_and(|value| set.matches(value)),
            };
            rejected += u64::from(!pass);
            pass
        };
        scratch.stack.clear();
        self.directory.seed_match(header, admit, &mut scratch.stack);
        while let Some(idx) = scratch.stack.pop() {
            let node = self.visit(idx);
            if node.sub.matches(header) {
                out.extend(node.subscribers.iter().map(|(_, c)| *c));
                // Only children whose gate passes are read: the parent's
                // constraints already hold, so the gate is the child's
                // first chance to fail.
                rejected += self.admit_children(&node.run, header, &mut scratch.stack);
            }
            // A failed node prunes its whole subtree: every descendant is
            // covered by it, so none can match.
        }
        self.mem.charge_predicate_evals(rejected);
    }

    fn len(&self) -> usize {
        self.live
    }

    fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn logical_bytes(&self) -> u64 {
        self.nodes.len() as u64 * NODE_STRIDE
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::attr::AttrSchema;
    use crate::subscription::SubscriptionSpec;
    use std::collections::HashSet;

    /// Asserts the child-run invariants: every run is sorted; each entry's
    /// key is its child's current gate, which is the gate re-derived under
    /// the run's owner; `parent[child]` is that owner; every live non-root
    /// node sits in exactly one run, and no root or free slot in any; the
    /// run lengths sum to `node_count − root_count`.
    fn check_runs(index: &PosetIndex) {
        let mut placed = vec![0usize; index.nodes.len()];
        for (owner, body) in index.nodes.iter().enumerate() {
            let run = &body.run;
            assert!(run.windows(2).all(|w| w[0].order() <= w[1].order()), "run {owner} unsorted");
            let owner_sub = &index.nodes.peek(owner as u32).sub;
            for e in run {
                let c = e.child as usize;
                assert_eq!(index.parent[c], owner as u32, "node {c} in the run of {owner}");
                let gate = gate_under(&index.nodes.peek(e.child).sub, Some(owner_sub));
                assert_eq!(index.gate[c], gate, "stale gate on node {c}");
                assert_eq!(e.order(), ChildEntry::new(e.child, &gate).order(), "stale key on {c}");
                placed[c] += 1;
            }
        }
        let free: HashSet<u32> = index.free.iter().copied().collect();
        let mut roots = 0;
        for (i, &runs) in placed.iter().enumerate() {
            let live = !free.contains(&(i as u32));
            let linked = live && index.parent[i] != NONE;
            roots += usize::from(live && !linked);
            assert_eq!(runs, usize::from(linked), "node {i} sits in {runs} runs");
        }
        assert_eq!(roots, index.root_count(), "unlinked live nodes vs roots");
        let total: usize = index.nodes.iter().map(|b| b.run.len()).sum();
        assert_eq!(total, index.node_count() - index.root_count());
    }

    /// Simulated line reads of visiting exactly the nodes of `ids`.
    fn reads_of_visiting(index: &PosetIndex, mem: &MemorySim, ids: &[u64]) -> u64 {
        mem.reset_counters();
        for id in ids {
            index.visit(index.by_id[&SubscriptionId(*id)]);
        }
        mem.stats().reads
    }

    #[test]
    fn conformance() {
        conformance_scenario(|mem| Box::new(PosetIndex::new(mem)));
    }

    #[test]
    fn containment_chain_forms_single_root() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        // price > 0 ⊒ price > 10 ⊒ price > 20 ⊒ price > 30
        for (i, bound) in [0.0, 10.0, 20.0, 30.0].iter().enumerate() {
            index.insert(
                SubscriptionId(i as u64),
                ClientId(i as u64),
                sub(&schema, SubscriptionSpec::new().gt("price", *bound)),
            );
        }
        assert_eq!(index.root_count(), 1, "chain shares one root");
        assert_eq!(index.depth(), 4);
    }

    #[test]
    fn reverse_insertion_order_still_nests() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        // Most specific first: the general one must adopt it on arrival.
        for (i, bound) in [30.0, 20.0, 10.0, 0.0].iter().enumerate() {
            index.insert(
                SubscriptionId(i as u64),
                ClientId(i as u64),
                sub(&schema, SubscriptionSpec::new().gt("price", *bound)),
            );
        }
        assert_eq!(index.root_count(), 1);
        assert_eq!(index.depth(), 4);
        let h = header(&schema, &[("price", 25.0.into())]);
        assert_eq!(matches(&index, &h), vec![1, 2, 3]);
    }

    #[test]
    fn equal_subscriptions_share_a_node() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        for i in 0..5u64 {
            index.insert(
                SubscriptionId(i),
                ClientId(i),
                sub(&schema, SubscriptionSpec::new().eq("symbol", "HAL")),
            );
        }
        assert_eq!(index.len(), 5);
        assert_eq!(index.node_count(), 1, "five equal subs, one node");
        let h = header(&schema, &[("symbol", "HAL".into())]);
        assert_eq!(matches(&index, &h), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn canonically_equal_specs_share_a_node() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        // Written differently, canonicalises identically.
        index.insert(
            SubscriptionId(0),
            ClientId(0),
            sub(&schema, SubscriptionSpec::new().ge("p", 1.0).le("p", 2.0)),
        );
        index.insert(
            SubscriptionId(1),
            ClientId(1),
            sub(&schema, SubscriptionSpec::new().between("p", 1.0, 2.0)),
        );
        assert_eq!(index.node_count(), 1);
    }

    #[test]
    fn pruning_skips_subtrees() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        index.insert(
            SubscriptionId(0),
            ClientId(0),
            sub(&schema, SubscriptionSpec::new().eq("symbol", "HAL")),
        );
        for i in 1..=10u64 {
            index.insert(
                SubscriptionId(i),
                ClientId(i),
                sub(&schema, SubscriptionSpec::new().eq("symbol", "HAL").gt("price", i as f64)),
            );
        }
        // A non-HAL publication never leaves the directory: the HAL bucket
        // is skipped entirely, so no node is read at all.
        mem.reset_counters();
        let h = header(&schema, &[("symbol", "IBM".into()), ("price", 100.0.into())]);
        let mut out = Vec::new();
        index.match_into(&h, &mut MatchScratch::new(), &mut out);
        assert!(out.is_empty());
        let pruned_reads = mem.stats().reads;
        assert_eq!(pruned_reads, 0, "directory seeding skips the whole forest");
        // A HAL publication walks the full 11-node subtree.
        mem.reset_counters();
        let h2 = header(&schema, &[("symbol", "HAL".into()), ("price", 100.0.into())]);
        index.match_into(&h2, &mut MatchScratch::new(), &mut out);
        let full_reads = mem.stats().reads;
        assert!(full_reads >= 11, "full walk visits all nodes, saw {full_reads}");
    }

    #[test]
    fn removal_of_inner_node_reparents_children() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        index.insert(
            SubscriptionId(0),
            ClientId(0),
            sub(&schema, SubscriptionSpec::new().gt("p", 0.0)),
        );
        index.insert(
            SubscriptionId(1),
            ClientId(1),
            sub(&schema, SubscriptionSpec::new().gt("p", 10.0)),
        );
        index.insert(
            SubscriptionId(2),
            ClientId(2),
            sub(&schema, SubscriptionSpec::new().gt("p", 20.0)),
        );
        check_runs(&index);
        assert!(index.remove(SubscriptionId(1)));
        check_runs(&index);
        // Chain 0 -> 2 must still match correctly.
        let h = header(&schema, &[("p", 25.0.into())]);
        assert_eq!(matches(&index, &h), vec![0, 2]);
        assert_eq!(index.depth(), 2);
    }

    #[test]
    fn removal_of_root_promotes_children_to_roots() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        index.insert(
            SubscriptionId(0),
            ClientId(0),
            sub(&schema, SubscriptionSpec::new().gt("p", 0.0)),
        );
        index.insert(
            SubscriptionId(1),
            ClientId(1),
            sub(&schema, SubscriptionSpec::new().gt("p", 10.0)),
        );
        check_runs(&index);
        assert!(index.remove(SubscriptionId(0)));
        check_runs(&index);
        assert_eq!(index.root_count(), 1);
        let h = header(&schema, &[("p", 15.0.into())]);
        assert_eq!(matches(&index, &h), vec![1]);
    }

    #[test]
    fn shared_node_removal_keeps_other_subscriber() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        let spec = || SubscriptionSpec::new().eq("s", "X");
        index.insert(SubscriptionId(0), ClientId(0), sub(&schema, spec()));
        index.insert(SubscriptionId(1), ClientId(1), sub(&schema, spec()));
        check_runs(&index);
        assert!(index.remove(SubscriptionId(0)));
        check_runs(&index);
        let h = header(&schema, &[("s", "X".into())]);
        assert_eq!(matches(&index, &h), vec![1]);
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn unrelated_subscriptions_become_roots() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        for i in 0..10u64 {
            index.insert(
                SubscriptionId(i),
                ClientId(i),
                sub(&schema, SubscriptionSpec::new().eq("symbol", format!("S{i}").as_str())),
            );
        }
        assert_eq!(index.root_count(), 10, "distinct equalities don't nest");
        assert_eq!(index.depth(), 1);
    }

    #[test]
    fn churn_recycles_arena_slots() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        // Heavy churn over distinct topics: every removal detaches a node
        // and the free list must recycle its slot, keeping the append-only
        // arena's footprint proportional to the live set.
        for round in 0..100u64 {
            index.insert(
                SubscriptionId(round),
                ClientId(round),
                sub(&schema, SubscriptionSpec::new().eq("topic", format!("t{round}").as_str())),
            );
            check_runs(&index);
            if round >= 4 {
                assert!(index.remove(SubscriptionId(round - 4)));
                check_runs(&index);
            }
        }
        assert_eq!(index.len(), 4);
        assert_eq!(index.node_count(), 4);
        assert!(
            index.logical_bytes() <= 16 * NODE_STRIDE,
            "arena grew past recycling: {} bytes",
            index.logical_bytes()
        );
        let h = header(&schema, &[("topic", "t97".into())]);
        assert_eq!(matches(&index, &h), vec![97]);
    }

    #[test]
    fn directory_seeding_visits_only_compatible_buckets() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        // 200 distinct topic equalities plus one numeric-range root.
        for i in 0..200u64 {
            index.insert(
                SubscriptionId(i),
                ClientId(i),
                sub(&schema, SubscriptionSpec::new().eq("topic", format!("t{i}").as_str())),
            );
        }
        index.insert(
            SubscriptionId(1000),
            ClientId(1000),
            sub(&schema, SubscriptionSpec::new().gt("priority", 5i64)),
        );
        mem.reset_counters();
        let h = header(&schema, &[("topic", "t7".into()), ("priority", 9i64.into())]);
        assert_eq!(matches(&index, &h), vec![7, 1000]);
        // Two compatible roots seeded (t7's bucket + the priority range
        // list); each 72-byte visit touches two cache lines. The other 199
        // topic roots are never read — a full walk would cost ~400 reads.
        assert!(mem.stats().reads <= 6, "seeded match read {} lines", mem.stats().reads);
    }

    #[test]
    fn gated_descent_reads_only_the_matching_sibling() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        index.insert(
            SubscriptionId(0),
            ClientId(0),
            sub(&schema, SubscriptionSpec::new().eq("topic", "t")),
        );
        // 200 disjoint price bands, all children of the one topic root.
        for i in 1..=200u64 {
            let lo = (i * 10) as f64;
            index.insert(
                SubscriptionId(i),
                ClientId(i),
                sub(&schema, SubscriptionSpec::new().eq("topic", "t").between("p", lo, lo + 5.0)),
            );
        }
        assert_eq!(index.root_count(), 1);
        assert_eq!(index.depth(), 2);
        mem.reset_counters();
        let h = header(&schema, &[("topic", "t".into()), ("p", 72.0.into())]);
        assert_eq!(matches(&index, &h), vec![0, 7]);
        // The root and the one band containing 72 are read (two lines per
        // visit); the 199 other bands fail their gate and are never read —
        // an ungated walk reads ~400 lines.
        assert!(mem.stats().reads <= 8, "gated match read {} lines", mem.stats().reads);
    }

    #[test]
    fn removal_of_inner_node_regates_spliced_children() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        let root = SubscriptionSpec::new().eq("s", "X");
        index.insert(SubscriptionId(0), ClientId(0), sub(&schema, root.clone()));
        index.insert(SubscriptionId(1), ClientId(1), sub(&schema, root.clone().gt("a", 0.0)));
        index.insert(
            SubscriptionId(2),
            ClientId(2),
            sub(&schema, root.clone().gt("a", 0.0).gt("b", 0.0)),
        );
        check_runs(&index);
        assert_eq!(index.depth(), 3);
        let child = index.by_id[&SubscriptionId(2)];
        let a = schema.intern("a");
        let b = schema.intern("b");
        assert_eq!(index.gate[child as usize].map(|(attr, _)| attr), Some(b));
        // Splice the child up to the root: its gate moves to `a`, the
        // constraint the removed node used to guarantee.
        assert!(index.remove(SubscriptionId(1)));
        check_runs(&index);
        assert_eq!(index.depth(), 2);
        assert_eq!(index.gate[child as usize].map(|(attr, _)| attr), Some(a));
        // Passes the new parent, fails the old one: the child is gated out
        // unread, and the match set is right.
        mem.reset_counters();
        let h = header(&schema, &[("s", "X".into()), ("a", (-1.0).into()), ("b", 5.0.into())]);
        assert_eq!(matches(&index, &h), vec![0]);
        assert!(mem.stats().reads <= 2, "gated child was read: {} lines", mem.stats().reads);
        let h = header(&schema, &[("s", "X".into()), ("a", 1.0.into()), ("b", 5.0.into())]);
        assert_eq!(matches(&index, &h), vec![0, 2]);
    }

    #[test]
    fn removal_of_root_regates_promoted_children() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        index.insert(
            SubscriptionId(0),
            ClientId(0),
            sub(&schema, SubscriptionSpec::new().gt("a", 0.0)),
        );
        index.insert(
            SubscriptionId(1),
            ClientId(1),
            sub(&schema, SubscriptionSpec::new().gt("a", 0.0).gt("b", 0.0)),
        );
        check_runs(&index);
        let child = index.by_id[&SubscriptionId(1)];
        let a = schema.intern("a");
        assert_ne!(index.gate[child as usize].map(|(attr, _)| attr), Some(a));
        // Promoted to a root, the child is gated (and bucketed) by its
        // first constraint again.
        assert!(index.remove(SubscriptionId(0)));
        check_runs(&index);
        assert_eq!(index.root_count(), 1);
        assert_eq!(index.gate[child as usize].map(|(attr, _)| attr), Some(a));
        mem.reset_counters();
        let h = header(&schema, &[("a", (-1.0).into()), ("b", 5.0.into())]);
        assert!(matches(&index, &h).is_empty());
        assert_eq!(mem.stats().reads, 0, "a gated-out root is never read");
        let h = header(&schema, &[("a", 1.0.into()), ("b", 5.0.into())]);
        assert_eq!(matches(&index, &h), vec![1]);
        assert!(index.remove(SubscriptionId(1)));
        check_runs(&index);
        assert_eq!(index.root_count(), 0);
    }

    #[test]
    fn match_into_reuses_scratch_capacity() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut index = PosetIndex::new(&mem);
        for i in 0..50u64 {
            index.insert(
                SubscriptionId(i),
                ClientId(i),
                sub(&schema, SubscriptionSpec::new().gt("p", (50 - i as i64) as f64)),
            );
        }
        let h = header(&schema, &[("p", 100.0.into())]);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        index.match_into(&h, &mut scratch, &mut out);
        assert_eq!(out.len(), 50);
        let retained = scratch.retained();
        assert!(retained > 0);
        for _ in 0..10 {
            out.clear();
            index.match_into(&h, &mut scratch, &mut out);
            assert_eq!(out.len(), 50);
        }
        assert_eq!(scratch.retained(), retained, "scratch capacity is stable");
    }

    #[test]
    fn agrees_with_naive_on_random_workload() {
        use crate::index::naive::NaiveIndex;
        let mem = free_mem();
        let schema = AttrSchema::new();
        let mut poset = PosetIndex::new(&mem);
        let mut naive = NaiveIndex::new(&mem);
        let mut rng = scbr_crypto::CryptoRng::from_seed(99);
        let symbols = ["A", "B", "C"];
        for i in 0..300u64 {
            let mut spec = SubscriptionSpec::new();
            if rng.chance(0.8) {
                spec = spec.eq("symbol", symbols[rng.below(3) as usize]);
            }
            if rng.chance(0.7) {
                let lo = rng.below(50) as f64;
                spec = spec.ge("price", lo).le("price", lo + rng.below(30) as f64);
            }
            if rng.chance(0.3) {
                spec = spec.gt("volume", rng.below(1000) as i64);
            }
            let compiled = sub(&schema, spec);
            poset.insert(SubscriptionId(i), ClientId(i), compiled.clone());
            naive.insert(SubscriptionId(i), ClientId(i), compiled);
            check_runs(&poset);
            // Every fifth step also removes an earlier subscription, which
            // splices its node's run into its parent's when it was alone.
            if i % 5 == 4 {
                let gone = SubscriptionId(rng.below(i + 1));
                assert_eq!(poset.remove(gone), naive.remove(gone), "removing {gone:?}");
                check_runs(&poset);
            }
        }
        for t in 0..100 {
            let h = header(
                &schema,
                &[
                    ("symbol", symbols[(t % 3) as usize].into()),
                    ("price", (((t * 7) % 80) as f64).into()),
                    ("volume", (((t * 13) % 1200) as i64).into()),
                ],
            );
            assert_eq!(matches(&poset, &h), matches(&naive, &h), "trial {t}");
        }
    }

    #[test]
    fn equality_gated_children_are_found_by_binary_search() {
        let mem = free_mem();
        let schema = AttrSchema::new();
        // `topic` is interned before `p`, so a child's first constraint
        // not identical to the root's is its topic: the gate a wide
        // router_scan node's children carry.
        schema.intern("topic");
        let mut index = PosetIndex::new(&mem);
        index.insert(
            SubscriptionId(0),
            ClientId(0),
            sub(&schema, SubscriptionSpec::new().gt("p", -1.0)),
        );
        for i in 0..200u64 {
            let topic = format!("t{i}");
            let spec = SubscriptionSpec::new().gt("p", 0.0).eq("topic", topic.as_str());
            index.insert(SubscriptionId(100 + i), ClientId(100 + i), sub(&schema, spec));
        }
        // Three more t7 children whose bands neither nest in nor contain
        // `p > 0`: four equal keys in one group of the root's run.
        for (i, (lo, hi)) in [(-0.9, 1.0), (-0.8, 2.0), (-0.7, 3.0)].into_iter().enumerate() {
            let spec = SubscriptionSpec::new().between("p", lo, hi).eq("topic", "t7");
            index.insert(SubscriptionId(1 + i as u64), ClientId(1 + i as u64), sub(&schema, spec));
        }
        // A numeric gate on the same attribute: the range group right
        // after the string-equality group.
        let spec = SubscriptionSpec::new().gt("p", 0.0).gt("topic", 5i64);
        index.insert(SubscriptionId(4), ClientId(4), sub(&schema, spec));
        check_runs(&index);
        assert_eq!(index.root_count(), 1);
        assert_eq!(index.depth(), 2);
        let root = index.by_id[&SubscriptionId(0)];
        assert_eq!(index.nodes.peek(root).run.len(), 204);

        let expected = [0, 1, 2, 3, 107];
        let reads = reads_of_visiting(&index, &mem, &expected);
        mem.reset_counters();
        let h = header(&schema, &[("topic", "t7".into()), ("p", 0.5.into())]);
        assert_eq!(matches(&index, &h), expected);
        assert_eq!(mem.stats().reads, reads, "a node outside the t7 range was read");
        // A topic no child carries admits none of them; a number admits
        // no string-equality child, only the numeric one.
        let h = header(&schema, &[("topic", "t200".into()), ("p", 0.5.into())]);
        assert_eq!(matches(&index, &h), vec![0]);
        let h = header(&schema, &[("topic", 7i64.into()), ("p", 0.5.into())]);
        assert_eq!(matches(&index, &h), vec![0, 4]);
    }

    #[test]
    fn removing_a_wide_middle_node_splices_its_run() {
        use crate::index::naive::NaiveIndex;
        let mem = free_mem();
        let schema = AttrSchema::new();
        // `p` before `topic` before `q`: under the middle node (`q ∧ p`) a
        // topic child is gated on its topic and a `q`-band child on `q`,
        // under the root (`q`) both are gated on `p`, so the splice
        // changes their gate kind or attribute.
        for attr in ["p", "topic", "q", "r"] {
            schema.intern(attr);
        }
        let mut poset = PosetIndex::new(&mem);
        let mut naive = NaiveIndex::new(&mem);
        let mut insert = |poset: &mut PosetIndex, id: u64, spec: SubscriptionSpec| {
            let compiled = sub(&schema, spec);
            poset.insert(SubscriptionId(id), ClientId(id), compiled.clone());
            naive.insert(SubscriptionId(id), ClientId(id), compiled);
        };
        let root = || SubscriptionSpec::new().gt("q", -1.0);
        let middle = || root().gt("p", 0.0);
        insert(&mut poset, 0, root());
        insert(&mut poset, 1, middle());
        // Equal-width bands never nest, so all 120 stay the middle's
        // children; seven topics repeat keys inside the topic group.
        for i in 0..120u64 {
            let band = |attr| middle().between(attr, i as f64, i as f64 + 4.0);
            let spec = match i % 3 {
                0 => band("r").eq("topic", format!("t{}", i % 7).as_str()),
                1 => band("p"),
                _ => band("q"),
            };
            insert(&mut poset, 10 + i, spec);
        }
        check_runs(&poset);
        let middle_node = poset.by_id[&SubscriptionId(1)];
        assert_eq!(poset.nodes.peek(middle_node).run.len(), 120);
        assert_eq!(poset.depth(), 3);

        assert!(poset.remove(SubscriptionId(1)));
        assert!(naive.remove(SubscriptionId(1)));
        check_runs(&poset);
        assert_eq!(poset.depth(), 2);
        let root_node = poset.by_id[&SubscriptionId(0)];
        assert_eq!(poset.nodes.peek(root_node).run.len(), 120);
        for t in 0..90u64 {
            let h = header(
                &schema,
                &[
                    ("p", (t as f64 * 1.5 - 4.0).into()),
                    ("topic", format!("t{}", t % 8).as_str().into()),
                    ("q", (((t * 7) % 130) as f64).into()),
                    ("r", (((t * 11) % 125) as f64).into()),
                ],
            );
            assert_eq!(matches(&poset, &h), matches(&naive, &h), "probe {t}");
        }
    }
}
