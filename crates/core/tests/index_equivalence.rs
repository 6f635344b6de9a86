//! Property: both index implementations compute the **same match sets**
//! under arbitrary interleavings of inserts, removals, and matches.
//!
//! The arena poset must be behaviourally indistinguishable from the naive
//! scan — only cost may differ. These properties replay one random op
//! stream against both simultaneously and
//! compare outputs after every step, so structural divergence (a dropped
//! edge during detach, a stale directory bucket, a missed root promotion)
//! surfaces as a minimal counterexample.

use proptest::prelude::*;
use scbr::attr::AttrSchema;
use scbr::engine::MatchingEngine;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::{
    Anchor, FlatOracle, IndexKind, MatchScratch, NaiveIndex, PosetIndex, SubscriptionIndex,
};
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use sgx_sim::{CacheConfig, CostModel, MemorySim};

/// Both implementations on `mem`, named for failure messages; the
/// forest comes first.
fn both(mem: &MemorySim) -> Vec<(&'static str, Box<dyn SubscriptionIndex>)> {
    vec![("poset", Box::new(PosetIndex::new(mem))), ("naive", Box::new(NaiveIndex::new(mem)))]
}

const TOPICS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// A generated subscription: optional topic equality plus numeric bounds
/// over a small attribute pool, so covering chains and shared nodes are
/// common rather than rare.
#[derive(Debug, Clone)]
struct RawSub {
    topic: Option<usize>,
    bounds: Vec<(u8, u8, i8)>,
}

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum RawOp {
    /// Insert the next subscription from the generated pool.
    Insert,
    /// Remove the i-th live subscription (modulo live count).
    Remove(usize),
    /// Match a header and compare both implementations.
    Match { topic: usize, values: Vec<i8> },
}

fn sub_strategy() -> impl Strategy<Value = RawSub> {
    (
        proptest::option::of(0usize..TOPICS.len()),
        proptest::collection::vec((0u8..3, 0u8..4, -20i8..20), 0..3),
    )
        .prop_map(|(topic, bounds)| RawSub { topic, bounds })
}

fn op_strategy() -> impl Strategy<Value = RawOp> {
    (0u8..8, 0usize..64, 0usize..TOPICS.len(), proptest::collection::vec(-25i8..25, 3)).prop_map(
        |(roll, pick, topic, values)| match roll {
            0..=3 => RawOp::Insert,
            4..=5 => RawOp::Remove(pick),
            _ => RawOp::Match { topic, values },
        },
    )
}

fn build_sub(raw: &RawSub) -> SubscriptionSpec {
    let mut spec = SubscriptionSpec::new();
    if let Some(t) = raw.topic {
        spec = spec.eq("topic", TOPICS[t]);
    }
    let mut used = std::collections::HashSet::new();
    for (attr, op, bound) in &raw.bounds {
        if !used.insert(*attr) {
            continue; // one predicate per attribute avoids contradictions
        }
        let name = ["x", "y", "z"][*attr as usize];
        let b = *bound as i64;
        spec = match op {
            0 => spec.lt(name, b),
            1 => spec.le(name, b),
            2 => spec.gt(name, b),
            _ => spec.ge(name, b),
        };
    }
    spec
}

fn matches_of(
    index: &dyn SubscriptionIndex,
    header: &scbr::publication::CompiledHeader,
    scratch: &mut MatchScratch,
) -> Vec<u64> {
    let mut out = Vec::new();
    index.match_into(header, scratch, &mut out);
    let mut ids: Vec<u64> = out.into_iter().map(|c| c.0).collect();
    // Indexes report raw hits; ordering and multiplicity across shared
    // nodes is the engine's job, so compare as sorted sets.
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The parents of the wide fan-out arm, each with the grandparent
/// above it: `(parent, grandparent)`.
fn fan_parents(kind: usize) -> (SubscriptionSpec, SubscriptionSpec) {
    let topic = || SubscriptionSpec::new().eq("topic", TOPICS[0]);
    match kind {
        // An equality parent under the empty (match-all) subscription.
        0 => (topic(), SubscriptionSpec::new()),
        // A range parent under a looser range on the same attribute.
        1 => (SubscriptionSpec::new().gt("x", -5i64), SubscriptionSpec::new().gt("x", -15i64)),
        // An equality-and-range parent under its equality.
        _ => (topic().gt("x", -5i64), topic()),
    }
}

/// One step of the wide fan-out arm.
#[derive(Debug, Clone)]
enum FanOp {
    /// A sibling: the parent's filter plus a band `lo..=lo+width` on one
    /// of x/y/z. Bands on x stay inside the parent's `x > -5`.
    Child { attr: u8, lo: i8, width: u8 },
    /// A tagged sibling: the parent's filter plus `topic = TOPICS[topic]`
    /// plus a band. Under the range parent (kind 1) these are gated on
    /// their topic, and the four topics repeat keys inside that group of
    /// the parent's run; a topic parent keeps its own topic.
    Tagged { topic: usize, attr: u8, lo: i8, width: u8 },
    /// A sibling whose band on y or z has `f64` bounds: the attribute
    /// holds integers, so the gate never passes, and its range group
    /// mixes value kinds.
    FloatBand { attr: u8, lo: i8, width: u8 },
    /// A subscription between the parent and its children: the parent's
    /// filter plus `attr >= lo`, adopting whichever siblings it covers.
    Middle { attr: u8, lo: i8 },
    /// Remove the oldest live parent or middle subscription, splicing its
    /// children to the grandparent or promoting them to roots.
    RemoveInner,
    /// Remove the i-th live subscription (modulo live count).
    Remove(usize),
    /// Insert the parent again (a fresh node, or a shared one).
    Parent,
}

fn fan_op_strategy() -> impl Strategy<Value = FanOp> {
    (0u8..14, 0u8..3, -4i8..20, 0u8..8, 0usize..64).prop_map(|(roll, attr, lo, width, pick)| {
        match roll {
            0..=4 => FanOp::Child { attr, lo, width },
            5..=6 => FanOp::Middle { attr, lo: lo.min(10) },
            7 => FanOp::RemoveInner,
            8 => FanOp::Remove(pick),
            9 => FanOp::Parent,
            10..=12 => FanOp::Tagged { topic: pick % TOPICS.len(), attr, lo, width },
            _ => FanOp::FloatBand { attr: 1 + attr % 2, lo, width },
        }
    })
}

fn attr_name(attr: u8) -> &'static str {
    ["x", "y", "z"][attr as usize]
}

/// One step of the restore arm.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Register a fresh id with the next subscription from the pool.
    Insert,
    /// Re-register the i-th live id (modulo live count) with the next one.
    Reregister(usize),
    /// Remove the i-th live id (modulo live count).
    Remove(usize),
    /// Remove the i-th id (modulo their count) that another live id names
    /// as its anchor: a parent node's first subscription, so its removal
    /// splices children to the grandparent or promotes them to roots, or
    /// a shared node's, so the next subscriber becomes the node's first.
    RemoveAnchor(usize),
}

fn churn_op_strategy() -> impl Strategy<Value = ChurnOp> {
    (0u8..10, 0usize..64).prop_map(|(roll, pick)| match roll {
        0..=4 => ChurnOp::Insert,
        5 => ChurnOp::Reregister(pick),
        6..=7 => ChurnOp::Remove(pick),
        _ => ChurnOp::RemoveAnchor(pick),
    })
}

fn header_of(topic: usize, values: &[i8]) -> PublicationSpec {
    PublicationSpec::new()
        .attr("topic", TOPICS[topic])
        .attr("x", values[0] as i64)
        .attr("y", values[1] as i64)
        .attr("z", values[2] as i64)
}

/// Anchors of `live` in `engine`, in `live` order: the forest's parent
/// relation as a snapshot records it.
fn anchors_of(engine: &MatchingEngine, live: &[SubscriptionId]) -> Vec<Anchor> {
    live.iter().map(|&id| engine.index().anchor(id)).collect()
}

/// `(nodes, roots, depth)` of an engine's forest.
fn shape_of(engine: &MatchingEngine) -> (usize, usize, usize) {
    let forest = engine.index();
    (forest.node_count(), forest.root_count(), forest.depth())
}

/// A generated publication that may lack any of its four attributes.
type RawPublication = (Option<usize>, Vec<Option<i8>>);

fn publication_strategy() -> impl Strategy<Value = RawPublication> {
    (
        proptest::option::of(0usize..TOPICS.len()),
        proptest::collection::vec(proptest::option::of(-25i8..25), 3),
    )
}

fn publication_of((topic, values): &RawPublication) -> PublicationSpec {
    let mut spec = PublicationSpec::new();
    if let Some(t) = topic {
        spec = spec.attr("topic", TOPICS[*t]);
    }
    for (name, value) in ["x", "y", "z"].iter().zip(values) {
        if let Some(v) = value {
            spec = spec.attr(name, *v as i64);
        }
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wide fan-out and re-parenting: many sibling bands under one shared
    /// parent (on the parent's attribute and on others, topic-tagged, or
    /// with float bounds), broader subscriptions inserted between parent
    /// and children, and the parent removed under them. The poset
    /// re-derives each moved node's gate and re-sorts its run; a stale
    /// gate, a misplaced run entry or a wrong group bound drops a match,
    /// so the poset is compared with the naive scan on a fixed set of
    /// probes after every step.
    #[test]
    fn gated_descent_agrees_under_fan_out_and_reparenting(
        parent in 0usize..3,
        with_grandparent in any::<bool>(),
        siblings in proptest::collection::vec(
            (0u8..3, -4i8..20, 0u8..8, proptest::option::of(0usize..TOPICS.len())),
            8..48,
        ),
        ops in proptest::collection::vec(fan_op_strategy(), 1..40),
        probes in proptest::collection::vec(
            (0usize..TOPICS.len(), proptest::collection::vec(-8i8..30, 3)),
            8,
        ),
    ) {
        let schema = AttrSchema::new();
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut poset = PosetIndex::new(&mem);
        let mut naive = NaiveIndex::new(&mem);
        let headers: Vec<_> = probes
            .iter()
            .map(|(topic, values)| {
                header_of(*topic, values).compile_header(&schema).expect("header compiles")
            })
            .collect();
        let (parent_spec, grand_spec) = fan_parents(parent);

        let mut next_id = 0u64;
        let mut live: Vec<SubscriptionId> = Vec::new();
        // Parent and middle subscriptions, oldest first.
        let mut inner: Vec<SubscriptionId> = Vec::new();
        let mut insert = |spec: SubscriptionSpec,
                          poset: &mut PosetIndex,
                          naive: &mut NaiveIndex,
                          live: &mut Vec<SubscriptionId>| {
            let compiled = spec.compile(&schema).expect("generated subs compile");
            let id = SubscriptionId(next_id);
            next_id += 1;
            poset.insert(id, ClientId(id.0), compiled.clone());
            naive.insert(id, ClientId(id.0), compiled);
            live.push(id);
            id
        };
        let child = |attr: u8, lo: i8, width: u8| {
            parent_spec.clone().between(attr_name(attr), lo as i64, lo as i64 + width as i64)
        };

        if with_grandparent {
            insert(grand_spec, &mut poset, &mut naive, &mut live);
        }
        let id = insert(parent_spec.clone(), &mut poset, &mut naive, &mut live);
        inner.push(id);
        let mut steps: Vec<FanOp> = siblings
            .iter()
            .map(|&(attr, lo, width, tag)| match tag {
                Some(topic) => FanOp::Tagged { topic, attr, lo, width },
                None => FanOp::Child { attr, lo, width },
            })
            .collect();
        steps.extend(ops.iter().cloned());
        for (step, op) in steps.iter().enumerate() {
            match op {
                FanOp::Child { attr, lo, width } => {
                    insert(child(*attr, *lo, *width), &mut poset, &mut naive, &mut live);
                }
                FanOp::Tagged { topic, attr, lo, width } => {
                    let topic = if parent == 1 { *topic } else { 0 };
                    let spec = child(*attr, *lo, *width).eq("topic", TOPICS[topic]);
                    insert(spec, &mut poset, &mut naive, &mut live);
                }
                FanOp::FloatBand { attr, lo, width } => {
                    let (lo, hi) = (*lo as f64 - 0.5, *lo as f64 + *width as f64 + 0.5);
                    let spec = parent_spec.clone().between(attr_name(*attr), lo, hi);
                    insert(spec, &mut poset, &mut naive, &mut live);
                }
                FanOp::Middle { attr, lo } => {
                    let spec = parent_spec.clone().ge(attr_name(*attr), *lo as i64);
                    let id = insert(spec, &mut poset, &mut naive, &mut live);
                    inner.push(id);
                }
                FanOp::Parent => {
                    let id = insert(parent_spec.clone(), &mut poset, &mut naive, &mut live);
                    inner.push(id);
                }
                FanOp::RemoveInner | FanOp::Remove(_) => {
                    let id = match op {
                        FanOp::RemoveInner if !inner.is_empty() => inner.remove(0),
                        FanOp::Remove(pick) if !live.is_empty() => live[pick % live.len()],
                        _ => continue,
                    };
                    live.retain(|l| *l != id);
                    inner.retain(|l| *l != id);
                    prop_assert!(poset.remove(id), "poset lost subscription {:?}", id);
                    prop_assert!(naive.remove(id), "naive lost subscription {:?}", id);
                }
            }
            for (p, header) in headers.iter().enumerate() {
                let mut scratch = MatchScratch::default();
                prop_assert_eq!(
                    matches_of(&poset, header, &mut scratch),
                    matches_of(&naive, header, &mut scratch),
                    "probe {} disagrees after step {} ({:?})",
                    p, step, op
                );
            }
            prop_assert_eq!(poset.len(), live.len(), "poset live-count drift");
        }
    }

    /// Snapshot and restore after random churn. The restored engine
    /// matches like the original and like the flat oracle, and, placed
    /// from the anchor column rather than by the covering search, it
    /// rebuilds the original's forest: the same `(id, anchor)` pairs,
    /// node count, root count and depth.
    #[test]
    fn restore_relinks_the_same_forest_after_churn(
        pool in proptest::collection::vec(sub_strategy(), 1..24),
        ops in proptest::collection::vec(churn_op_strategy(), 1..80),
        probes in proptest::collection::vec(
            (0usize..TOPICS.len(), proptest::collection::vec(-25i8..25, 3)),
            8,
        ),
    ) {
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut original = MatchingEngine::new(&mem, IndexKind::Poset);
        let mut naive = FlatOracle::new(&mem);
        let mut live: Vec<SubscriptionId> = Vec::new();
        let (mut next_id, mut next_sub) = (0u64, 0usize);
        for op in &ops {
            let id = match *op {
                ChurnOp::Insert => {
                    next_id += 1;
                    live.push(SubscriptionId(next_id));
                    SubscriptionId(next_id)
                }
                ChurnOp::Reregister(pick) if !live.is_empty() => live[pick % live.len()],
                ChurnOp::Remove(pick) | ChurnOp::RemoveAnchor(pick) if !live.is_empty() => {
                    let named: Vec<SubscriptionId> = match op {
                        ChurnOp::RemoveAnchor(_) => anchors_of(&original, &live)
                            .into_iter()
                            .filter_map(|a| match a {
                                Anchor::Under(at) => Some(at),
                                _ => None,
                            })
                            .collect(),
                        _ => live.clone(),
                    };
                    let Some(&id) = named.get(pick % named.len().max(1)) else { continue };
                    live.retain(|l| *l != id);
                    prop_assert!(original.unregister(id), "poset lost {:?}", id);
                    prop_assert!(naive.unregister(id), "naive lost {:?}", id);
                    continue;
                }
                _ => continue,
            };
            let spec = build_sub(&pool[next_sub % pool.len()]);
            next_sub += 1;
            original.register_plain(id, ClientId(id.0), &spec).expect("generated subs compile");
            naive.register_plain(id, ClientId(id.0), &spec).expect("generated subs compile");
        }

        let fresh = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut restored = MatchingEngine::new(&fresh, IndexKind::Poset);
        prop_assert_eq!(restored.restore(&original.snapshot()).expect("restore"), live.len());
        prop_assert_eq!(anchors_of(&restored, &live), anchors_of(&original, &live));
        prop_assert_eq!(shape_of(&restored), shape_of(&original));
        for (topic, values) in &probes {
            let publication = header_of(*topic, values);
            let expected = naive.match_plain(&publication).expect("naive match");
            prop_assert_eq!(&original.match_plain(&publication).expect("match"), &expected);
            prop_assert_eq!(
                &restored.match_plain(&publication).expect("match"),
                &expected,
                "restored engine diverges on {:?}",
                publication
            );
        }
    }

    /// One walk per batch: over a forest churned by inserts,
    /// re-registrations and removals, a batch of 1 to 128 publications —
    /// repeated ones, and ones missing attributes, among them — walked
    /// once gives each publication the naive scan's clients, whichever
    /// publications the live mask leaves out.
    #[test]
    fn one_walk_per_batch_matches_like_the_naive_scan(
        pool in proptest::collection::vec(sub_strategy(), 1..24),
        ops in proptest::collection::vec(churn_op_strategy(), 1..80),
        publications in proptest::collection::vec(publication_strategy(), 1..24),
        picks in proptest::collection::vec(0usize..64, 1..129),
        skip in any::<u128>(),
    ) {
        let schema = AttrSchema::new();
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut poset = PosetIndex::new(&mem);
        let mut naive = NaiveIndex::new(&mem);
        let mut live: Vec<SubscriptionId> = Vec::new();
        let (mut next_id, mut next_sub) = (0u64, 0usize);
        for op in &ops {
            let id = match *op {
                ChurnOp::Insert => {
                    next_id += 1;
                    live.push(SubscriptionId(next_id));
                    SubscriptionId(next_id)
                }
                ChurnOp::Reregister(pick) if !live.is_empty() => {
                    let id = live[pick % live.len()];
                    prop_assert_eq!(poset.remove(id), naive.remove(id));
                    id
                }
                ChurnOp::Remove(pick) | ChurnOp::RemoveAnchor(pick) if !live.is_empty() => {
                    let named: Vec<SubscriptionId> = match op {
                        ChurnOp::RemoveAnchor(_) => live
                            .iter()
                            .filter_map(|&id| match poset.anchor(id) {
                                Anchor::Under(at) => Some(at),
                                _ => None,
                            })
                            .collect(),
                        _ => live.clone(),
                    };
                    let Some(&id) = named.get(pick % named.len().max(1)) else { continue };
                    live.retain(|l| *l != id);
                    prop_assert!(poset.remove(id), "poset lost {:?}", id);
                    prop_assert!(naive.remove(id), "naive lost {:?}", id);
                    continue;
                }
                _ => continue,
            };
            let compiled = build_sub(&pool[next_sub % pool.len()])
                .compile(&schema)
                .expect("generated subs compile");
            next_sub += 1;
            poset.insert(id, ClientId(id.0), compiled.clone());
            naive.insert(id, ClientId(id.0), compiled);
        }

        let headers: Vec<_> = picks
            .iter()
            .map(|&k| {
                publication_of(&publications[k % publications.len()])
                    .compile_header(&schema)
                    .expect("header compiles")
            })
            .collect();
        // A header the mask leaves out stands for one that failed to
        // decode: the walk must give it nothing and the others their own.
        let carried = !skip | 1;
        let mut scratch = MatchScratch::default();
        poset.match_batch_into(&headers, carried, &mut scratch);
        let mut alone = MatchScratch::default();
        for (i, header) in headers.iter().enumerate() {
            let mut got: Vec<u64> = scratch.matched(i).iter().map(|c| c.0).collect();
            got.sort_unstable();
            got.dedup();
            let expected = if carried >> i & 1 == 1 {
                matches_of(&naive, header, &mut alone)
            } else {
                Vec::new()
            };
            prop_assert_eq!(got, expected, "publication {} of {}", i, headers.len());
        }
    }

    /// Both implementations agree after every step of a random
    /// interleaving.
    #[test]
    fn all_index_kinds_agree_under_churn(
        pool in proptest::collection::vec(sub_strategy(), 1..24),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let schema = AttrSchema::new();
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut indexes = both(&mem);
        let mut scratch = MatchScratch::default();

        let mut next_id = 0u64;
        let mut next_sub = 0usize;
        let mut live: Vec<SubscriptionId> = Vec::new();
        for op in &ops {
            match op {
                RawOp::Insert => {
                    let raw = &pool[next_sub % pool.len()];
                    next_sub += 1;
                    let compiled = build_sub(raw).compile(&schema).expect("generated subs compile");
                    let id = SubscriptionId(next_id);
                    next_id += 1;
                    live.push(id);
                    for (_, index) in &mut indexes {
                        index.insert(id, ClientId(id.0), compiled.clone());
                    }
                }
                RawOp::Remove(pick) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live.swap_remove(pick % live.len());
                    for (name, index) in &mut indexes {
                        prop_assert!(index.remove(id), "{name} lost subscription {id:?}");
                    }
                }
                RawOp::Match { topic, values } => {
                    let header =
                        header_of(*topic, values).compile_header(&schema).expect("header compiles");
                    let reference = matches_of(indexes[0].1.as_ref(), &header, &mut scratch);
                    for (name, index) in &indexes[1..] {
                        let got = matches_of(index.as_ref(), &header, &mut scratch);
                        prop_assert_eq!(
                            &reference, &got,
                            "{} disagrees with {} after {} inserts",
                            name, indexes[0].0, next_id
                        );
                    }
                }
            }
            for (name, index) in &indexes {
                prop_assert_eq!(index.len(), live.len(), "{} live-count drift", name);
            }
        }
    }

    /// Draining every subscription leaves both implementations empty and matching
    /// nothing (no leaked arena slots or directory buckets).
    #[test]
    fn full_drain_leaves_all_kinds_empty(
        pool in proptest::collection::vec(sub_strategy(), 1..16),
        topic in 0usize..TOPICS.len(),
    ) {
        let schema = AttrSchema::new();
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut indexes = both(&mem);
        for (i, raw) in pool.iter().enumerate() {
            let compiled = build_sub(raw).compile(&schema).expect("compiles");
            for (_, index) in &mut indexes {
                index.insert(SubscriptionId(i as u64), ClientId(i as u64), compiled.clone());
            }
        }
        for i in 0..pool.len() {
            for (_, index) in &mut indexes {
                prop_assert!(index.remove(SubscriptionId(i as u64)));
            }
        }
        let header = PublicationSpec::new()
            .attr("topic", TOPICS[topic])
            .attr("x", 0i64)
            .compile_header(&schema)
            .expect("compiles");
        for (name, index) in &indexes {
            prop_assert_eq!(index.len(), 0, "{} not empty", name);
            let mut scratch = MatchScratch::default();
            let mut out = Vec::new();
            index.match_into(&header, &mut scratch, &mut out);
            prop_assert!(out.is_empty(), "{} matched after drain", name);
        }
    }
}
