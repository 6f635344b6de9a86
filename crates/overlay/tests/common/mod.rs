//! Generators the overlay property tests share: random subscriptions and
//! publications on one discrete grid, and random trees.

use proptest::prelude::*;
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr_overlay::Topology;

pub const SYMBOLS: [&str; 3] = ["HAL", "IBM", "AMD"];
pub const NUMERIC: [&str; 2] = ["price", "volume"];

/// A generated subscription plus its edge-router placement.
#[derive(Debug, Clone)]
pub struct RawSub {
    pub router: usize,
    pub symbol: Option<usize>,
    pub bounds: Vec<(usize, u8, u8)>,
}

pub fn sub_strategy() -> impl Strategy<Value = RawSub> {
    (
        0usize..64,
        proptest::option::of(0usize..SYMBOLS.len()),
        // Discrete bounds so covering chains (and hence pruning and
        // *uncovering*) are frequent, not accidental.
        proptest::collection::vec((0usize..NUMERIC.len(), 0u8..4, 0u8..8), 0..3),
    )
        .prop_map(|(router, symbol, bounds)| RawSub { router, symbol, bounds })
}

pub fn build_sub(raw: &RawSub) -> SubscriptionSpec {
    let mut spec = SubscriptionSpec::new();
    if let Some(s) = raw.symbol {
        spec = spec.eq("symbol", SYMBOLS[s]);
    }
    let mut used = std::collections::HashSet::new();
    for (attr, op, bound) in &raw.bounds {
        if !used.insert(*attr) {
            continue; // one predicate per attribute avoids contradictions
        }
        let name = NUMERIC[*attr];
        let value = *bound as f64;
        spec = match op {
            0 => spec.lt(name, value),
            1 => spec.le(name, value),
            2 => spec.gt(name, value),
            _ => spec.ge(name, value),
        };
    }
    spec
}

/// A generated publication header on the same discrete grid.
#[derive(Debug, Clone)]
pub struct RawPub {
    pub symbol: usize,
    pub values: Vec<u8>,
}

pub fn pub_strategy() -> impl Strategy<Value = RawPub> {
    (0usize..SYMBOLS.len(), proptest::collection::vec(0u8..9, NUMERIC.len()))
        .prop_map(|(symbol, values)| RawPub { symbol, values })
}

pub fn build_pub(raw: &RawPub) -> PublicationSpec {
    let mut spec = PublicationSpec::new().attr("symbol", SYMBOLS[raw.symbol]);
    for (i, v) in raw.values.iter().enumerate() {
        spec = spec.attr(NUMERIC[i], *v as f64);
    }
    spec
}

/// Builds a random tree from parent choices: router `i`'s parent is
/// `parents[i-1] % i`, guaranteeing acyclicity and connectivity.
pub fn build_tree(parents: &[usize]) -> Topology {
    let n = parents.len() + 1;
    let edges: Vec<(usize, usize)> =
        parents.iter().enumerate().map(|(i, p)| (p % (i + 1), i + 1)).collect();
    Topology::tree(n, &edges).expect("parent construction always yields a tree")
}
