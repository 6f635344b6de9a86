//! Property: **narrowed uncovering ≡ the quadratic routine it replaced.**
//!
//! `BrokerCore::uncover_after_removal` ranks only the subscriptions the
//! removed row itself covered. [`uncover_reference`] is the routine as it
//! stood before — every live subscription not yet on the link is a
//! candidate, ranked against every other — kept here, and only here, as
//! the oracle. Two cores take the same population (nested, disjoint and
//! identical ranges, equality-rooted filters, an unconstrained one; local
//! and link origins; pruned and flood mode) and retire it in the same
//! random order, one through each routine: after every removal the
//! promoted envelopes per link — the ids *and* their order — every table's
//! rows and every ledger counter must be the same.
//!
//! Plus the work pin: a removal ranks the removed row's dependants, not
//! the link's whole pruned population — asserted on the candidate count,
//! not on time.
//!
//! Registrations enter as opened bodies (`register_retained_as`), so no
//! case needs `SK` or seals an envelope. A child module of `broker` so it
//! can read `BrokerCore`'s private state.

use super::*;
use crate::subscription::SubscriptionSpec;
use proptest::prelude::*;
use sgx_sim::{CacheConfig, CostModel};

const NEIGHBORS: [usize; 2] = [1, 2];
const SYMBOLS: [&str; 3] = ["HAL", "IBM", "AMD"];

/// The uncovering routine before candidates were narrowed to the removed
/// row's dependants: O(c²) `covers()` calls per link over all `c` live
/// subscriptions not forwarded on it. `id` has already left the matcher.
fn uncover_reference(core: &mut BrokerCore, id: SubscriptionId, origin: Origin) -> Vec<LinkUpdate> {
    core.live.remove(&id);
    let live = &core.live;
    let mut links = Vec::new();
    for (neighbor, table) in &mut core.upstream {
        if origin == Origin::Link(*neighbor) {
            continue;
        }
        if table.remove(id).is_none() {
            continue;
        }
        let candidates: Vec<(&SubscriptionId, &LiveSub)> = live
            .iter()
            .filter(|(cid, sub)| sub.origin != Origin::Link(*neighbor) && !table.contains(**cid))
            .collect();
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
            let (cid, sub) = candidates[i];
            if table.covered(&sub.compiled) {
                continue;
            }
            table.record_uncovered(*cid, sub.compiled.clone());
            uncovered.push(sub.envelope.clone());
        }
        links.push(LinkUpdate { neighbor: *neighbor, uncovered });
    }
    links
}

fn new_core(flood: bool, neighbors: &[usize]) -> BrokerCore {
    let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
    BrokerCore::fresh(&mem, flood, neighbors)
}

/// Admits `spec` as `id` from `origin` without an envelope to open; the
/// stand-in envelope is the id, so promotions can be read back in order.
fn admit(core: &mut BrokerCore, id: u64, spec: &SubscriptionSpec, origin: Origin) {
    let body = codec::encode_registration(spec, SubscriptionId(id), ClientId(id));
    let (id, compiled) =
        core.matcher.register_retained_as(body, origin.deliver_to()).expect("register");
    core.propagate(id, compiled, &id.0.to_be_bytes(), origin, false);
}

/// What a removal did to one core, as far as the outside can tell.
type Observed = (Vec<(usize, Vec<Vec<u8>>)>, Vec<(Vec<SubscriptionId>, (u64, u64, u64, u64))>);

fn observe(core: &BrokerCore, links: Vec<LinkUpdate>) -> Observed {
    (
        links.into_iter().map(|l| (l.neighbor, l.uncovered)).collect(),
        core.upstream.iter().map(|(_, t)| (t.row_ids(), t.counters())).collect(),
    )
}

/// One generated subscription: a filter shape on a small grid, so that
/// covering chains, ties and exact duplicates are all common, and where
/// it entered.
#[derive(Debug, Clone)]
struct RawSub {
    shape: u8,
    a: u8,
    b: u8,
    origin: usize,
}

fn sub_strategy() -> impl Strategy<Value = RawSub> {
    (0u8..7, 0u8..6, 0u8..6, 0usize..4).prop_map(|(shape, a, b, origin)| RawSub {
        shape,
        a,
        b,
        origin,
    })
}

fn build_spec(raw: &RawSub) -> SubscriptionSpec {
    let (a, b) = (raw.a as f64, raw.b as f64);
    let spec = SubscriptionSpec::new();
    match raw.shape {
        0 => spec.gt("price", a),                             // nested
        1 => spec.between("price", 10.0 * a, 10.0 * a + 5.0), // disjoint
        2 => spec.ge("price", 3.0),                           // identical
        3 => spec.eq("symbol", SYMBOLS[raw.a as usize % 3]),  // equality-rooted
        4 => spec.eq("symbol", SYMBOLS[raw.a as usize % 3]).gt("price", b),
        5 => spec.gt("price", a).lt("volume", b), // two attributes
        _ => spec,                                // covers everything
    }
}

fn origin_of(raw: &RawSub) -> Origin {
    match raw.origin {
        0 | 1 => Origin::Local,
        n => Origin::Link(NEIGHBORS[n - 2]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn narrowed_uncovering_promotes_what_the_quadratic_reference_promotes(
        subs in proptest::collection::vec(sub_strategy(), 4..48),
        order in proptest::collection::vec(0usize..1_000, 48),
        mode in 0u8..4,
    ) {
        // One case in four floods: nothing is ever pruned, so nothing may
        // ever be promoted, by either routine.
        let flood = mode == 0;
        let mut narrowed = new_core(flood, &NEIGHBORS);
        let mut reference = new_core(flood, &NEIGHBORS);
        for (id, raw) in subs.iter().enumerate() {
            for core in [&mut narrowed, &mut reference] {
                admit(core, id as u64, &build_spec(raw), origin_of(raw));
            }
        }
        let mut remaining: Vec<usize> = (0..subs.len()).collect();
        for pick in order {
            if remaining.is_empty() {
                break;
            }
            let victim = remaining.swap_remove(pick % remaining.len());
            let (id, origin) = (SubscriptionId(victim as u64), origin_of(&subs[victim]));
            let outcome = narrowed.remove_by_id(id, origin);
            prop_assert!(outcome.removed);
            prop_assert!(reference.matcher.unregister(id));
            let expected = uncover_reference(&mut reference, id, origin);
            prop_assert_eq!(
                observe(&narrowed, outcome.links),
                observe(&reference, expected),
                "removing {:?} ({} left, flood {})", id, remaining.len(), flood
            );
        }
        prop_assert!(remaining.is_empty());
        for (_, table) in &narrowed.upstream {
            prop_assert_eq!(table.forwarded(), 0, "a drained core leaks no rows");
        }
    }
}

#[test]
fn a_removal_ranks_only_the_removed_rows_dependants() {
    // 2 000 subscriptions pruned behind one broad row; a *different*
    // forwarded row with three subscriptions pruned behind it.
    let mut core = new_core(false, &[1]);
    admit(&mut core, 0, &SubscriptionSpec::new().gt("price", 0.0), Origin::Local);
    for k in 1..=2_000u64 {
        admit(&mut core, k, &SubscriptionSpec::new().gt("price", k as f64), Origin::Local);
    }
    let other = SubscriptionId(3_000);
    admit(&mut core, other.0, &SubscriptionSpec::new().gt("volume", 0.0), Origin::Local);
    for k in 1..=3u64 {
        admit(
            &mut core,
            other.0 + k,
            &SubscriptionSpec::new().gt("volume", k as f64),
            Origin::Local,
        );
    }
    let table = &core.upstream[0].1;
    assert_eq!((table.forwarded(), table.pruned()), (2, 2_003));

    // What the removal is about to rank: the three, not the 2 003.
    let row = table.get(other).expect("forwarded").clone();
    let ranked: Vec<u64> =
        dependants(table, &core.live, 1, &row).iter().map(|(id, _)| id.0).collect();
    assert_eq!(ranked, vec![3_001, 3_002, 3_003]);

    // The broadest of them is promoted and keeps the other two pruned.
    assert!(core.matcher.unregister(other));
    let outcome = core.uncover_after_removal(other, Origin::Local);
    assert_eq!(outcome.links.len(), 1);
    assert_eq!(outcome.links[0].uncovered, vec![3_001u64.to_be_bytes().to_vec()]);
    let table = &core.upstream[0].1;
    assert_eq!(table.row_ids(), vec![SubscriptionId(0), SubscriptionId(3_001)]);
    assert_eq!((table.uncovered(), table.removed()), (1, 1));
}
