//! Ablation: containment poset vs naive scan, measured
//! in **virtual time** on the simulated memory hierarchy (via
//! `iter_custom`), which is the quantity the paper's evaluation is about.
//!
//! Expected: the poset wins on equality-heavy workloads (deep trees, heavy
//! pruning) and the gap narrows on attribute-multiplied ones.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scbr::attr::AttrSchema;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::{MatchScratch, NaiveIndex, PosetIndex, SubscriptionIndex};
use scbr_workloads::{MarketConfig, StockMarket, Workload, WorkloadName};
use sgx_sim::{CacheConfig, CostModel, MemorySim};
use std::time::Duration;

struct Bench {
    index: Box<dyn SubscriptionIndex>,
    headers: Vec<scbr::publication::CompiledHeader>,
    mem: MemorySim,
}

/// An index on the given memory.
type Make = fn(&MemorySim) -> Box<dyn SubscriptionIndex>;

/// The two indexes, by row name.
const INDEXES: [(&str, Make); 2] = [
    ("Poset", |mem| Box::new(PosetIndex::new(mem))),
    ("Naive", |mem| Box::new(NaiveIndex::new(mem))),
];

fn setup(make: Make, workload: WorkloadName, n: usize) -> Bench {
    let market = StockMarket::generate(&MarketConfig::small(), 1);
    let workload = Workload::from_name(workload);
    let schema = AttrSchema::new();
    let mem = MemorySim::native(CacheConfig::default(), CostModel::default());
    let mut index = make(&mem);
    for (i, spec) in workload.subscriptions(&market, n, 2).into_iter().enumerate() {
        index.insert(
            SubscriptionId(i as u64),
            ClientId(i as u64),
            spec.compile(&schema).expect("compiles"),
        );
    }
    let headers = workload
        .publications(&market, 32, 3)
        .into_iter()
        .map(|p| p.compile_header(&schema).expect("compiles"))
        .collect();
    Bench { index, headers, mem }
}

fn bench_virtual_match(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_index_virtual_us");
    group.sample_size(10);
    for workload in [WorkloadName::E100A1, WorkloadName::E80A4] {
        for (name, make) in INDEXES {
            let bench = setup(make, workload, 5_000);
            group.bench_function(BenchmarkId::new(name, workload.as_str()), |b| {
                b.iter_custom(|iters| {
                    let mut out = Vec::new();
                    let mut scratch = MatchScratch::new();
                    bench.mem.reset_counters();
                    for i in 0..iters {
                        out.clear();
                        bench.index.match_into(
                            &bench.headers[i as usize % bench.headers.len()],
                            &mut scratch,
                            &mut out,
                        );
                    }
                    Duration::from_nanos(bench.mem.elapsed_ns() as u64)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_virtual_match);
criterion_main!(benches);
