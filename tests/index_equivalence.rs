//! Property-based equivalence of the two subscription indexes on
//! workload-realistic data: whatever the insert/remove/match interleaving,
//! the covering forest agrees with the naive oracle.

use proptest::prelude::*;
use scbr::attr::AttrSchema;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::{MatchScratch, NaiveIndex, PosetIndex, SubscriptionIndex};
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use sgx_sim::{CacheConfig, CostModel, MemorySim};

/// A miniature attribute universe so generated operations collide often.
const SYMBOLS: [&str; 4] = ["HAL", "IBM", "NVDA", "AMD"];
const NUMERIC: [&str; 3] = ["price", "volume", "change"];

#[derive(Debug, Clone)]
enum Op {
    Insert { symbol: Option<usize>, ranges: Vec<(usize, f64, f64)> },
    Remove { nth: usize },
    Match { symbol: usize, values: Vec<f64> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (
            proptest::option::of(0usize..SYMBOLS.len()),
            proptest::collection::vec((0usize..NUMERIC.len(), 0.0f64..100.0, 0.0f64..50.0), 0..3)
        )
            .prop_map(|(symbol, ranges)| Op::Insert { symbol, ranges }),
        1 => (0usize..64).prop_map(|nth| Op::Remove { nth }),
        2 => (0usize..SYMBOLS.len(), proptest::collection::vec(0.0f64..160.0, 3))
            .prop_map(|(symbol, values)| Op::Match { symbol, values }),
    ]
}

fn run_scenario(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let schema = AttrSchema::new();
    let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
    let mut indexes: Vec<Box<dyn SubscriptionIndex>> =
        vec![Box::new(NaiveIndex::new(&mem)), Box::new(PosetIndex::new(&mem))];
    let mut inserted: Vec<SubscriptionId> = Vec::new();
    let mut next_id = 0u64;
    // One scratch shared by both (the naive scan leaves it alone).
    let mut scratch = MatchScratch::new();

    for op in ops {
        match op {
            Op::Insert { symbol, ranges } => {
                let mut spec = SubscriptionSpec::new();
                if let Some(s) = symbol {
                    spec = spec.eq("symbol", SYMBOLS[s]);
                }
                // Distinct attributes only: duplicate attrs could be
                // contradictory, which `compile` rejects.
                let mut seen = std::collections::HashSet::new();
                for (attr, lo, width) in ranges {
                    if seen.insert(attr) {
                        spec = spec.between(NUMERIC[attr], lo, lo + width);
                    }
                }
                let compiled = match spec.compile(&schema) {
                    Ok(c) => c,
                    Err(_) => continue,
                };
                let id = SubscriptionId(next_id);
                next_id += 1;
                for index in indexes.iter_mut() {
                    index.insert(id, ClientId(id.0), compiled.clone());
                }
                inserted.push(id);
            }
            Op::Remove { nth } => {
                if inserted.is_empty() {
                    continue;
                }
                let id = inserted.remove(nth % inserted.len());
                let removed: Vec<bool> = indexes.iter_mut().map(|i| i.remove(id)).collect();
                prop_assert!(removed.iter().all(|&r| r), "all indexes had {id}");
            }
            Op::Match { symbol, values } => {
                let publication = PublicationSpec::new()
                    .attr("symbol", SYMBOLS[symbol])
                    .attr("price", values[0])
                    .attr("volume", values[1])
                    .attr("change", values[2]);
                let header = publication.compile_header(&schema).expect("compiles");
                let mut results: Vec<Vec<u64>> = Vec::new();
                for index in &indexes {
                    let mut out = Vec::new();
                    index.match_into(&header, &mut scratch, &mut out);
                    let mut ids: Vec<u64> = out.into_iter().map(|c| c.0).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    results.push(ids);
                }
                prop_assert_eq!(&results[1], &results[0], "poset vs naive");
                // Lengths agree too.
                prop_assert_eq!(indexes[0].len(), indexes[1].len());
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn indexes_agree_under_arbitrary_interleavings(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        run_scenario(ops)?;
    }
}

/// Deterministic heavyweight case: a workload-scale cross-check.
#[test]
fn indexes_agree_on_workload_data() {
    use scbr_workloads::{MarketConfig, StockMarket, Workload, WorkloadName};
    let market = StockMarket::generate(&MarketConfig::small(), 1);
    let schema = AttrSchema::new();
    let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
    let mut naive = NaiveIndex::new(&mem);
    let mut poset = PosetIndex::new(&mem);

    for workload in [WorkloadName::E100A1, WorkloadName::ExtSub2, WorkloadName::E80A1Zz100] {
        let w = Workload::from_name(workload);
        for (i, spec) in w.subscriptions(&market, 2_000, 3).into_iter().enumerate() {
            let id = SubscriptionId(i as u64 + 1_000_000 * workload as u64);
            let compiled = spec.compile(&schema).expect("compiles");
            naive.insert(id, ClientId(id.0), compiled.clone());
            poset.insert(id, ClientId(id.0), compiled);
        }
        for publication in w.publications(&market, 40, 4) {
            let header = publication.compile_header(&schema).expect("compiles");
            let collect = |index: &dyn SubscriptionIndex| {
                let mut out = Vec::new();
                index.match_into(&header, &mut MatchScratch::new(), &mut out);
                let mut ids: Vec<u64> = out.into_iter().map(|c| c.0).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            };
            assert_eq!(collect(&poset), collect(&naive), "{workload:?}");
        }
    }
}
