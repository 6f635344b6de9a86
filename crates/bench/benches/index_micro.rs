//! Microbenchmarks of the subscription indexes (wall-clock) on realistic
//! workload data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scbr::attr::AttrSchema;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::{new_index, IndexKind, MatchScratch};
use scbr_workloads::{MarketConfig, StockMarket, Workload, WorkloadName};
use sgx_sim::{CacheConfig, CostModel, MemorySim};
use std::hint::black_box;

type Setup = (Box<dyn scbr::index::SubscriptionIndex>, Vec<scbr::publication::CompiledHeader>);

fn setup(kind: IndexKind, n: usize) -> Setup {
    let market = StockMarket::generate(&MarketConfig::small(), 1);
    let workload = Workload::from_name(WorkloadName::E80A1);
    let schema = AttrSchema::new();
    let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
    let mut index = new_index(kind, &mem);
    for (i, spec) in workload.subscriptions(&market, n, 2).into_iter().enumerate() {
        index.insert(
            SubscriptionId(i as u64),
            ClientId(i as u64),
            spec.compile(&schema).expect("compiles"),
        );
    }
    let headers = workload
        .publications(&market, 50, 3)
        .into_iter()
        .map(|p| p.compile_header(&schema).expect("compiles"))
        .collect();
    (index, headers)
}

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_match_e80a1");
    for kind in [IndexKind::Poset, IndexKind::Naive, IndexKind::Counting] {
        for n in [1_000usize, 10_000] {
            let (index, headers) = setup(kind, n);
            group.bench_with_input(BenchmarkId::new(format!("{kind:?}"), n), &n, |b, _| {
                let mut out = Vec::new();
                let mut scratch = MatchScratch::new();
                let mut i = 0;
                b.iter(|| {
                    out.clear();
                    index.match_into(
                        black_box(&headers[i % headers.len()]),
                        &mut scratch,
                        &mut out,
                    );
                    i += 1;
                    out.len()
                });
            });
        }
    }
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    let market = StockMarket::generate(&MarketConfig::small(), 1);
    let workload = Workload::from_name(WorkloadName::E80A1);
    let subs = workload.subscriptions(&market, 10_000, 2);
    let schema = AttrSchema::new();
    let compiled: Vec<_> = subs.iter().map(|s| s.compile(&schema).unwrap()).collect();

    let mut group = c.benchmark_group("index_insert_10k");
    group.sample_size(10);
    for kind in [IndexKind::Poset, IndexKind::Naive, IndexKind::Counting] {
        group.bench_function(format!("{kind:?}"), |b| {
            b.iter(|| {
                let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
                let mut index = new_index(kind, &mem);
                for (i, sub) in compiled.iter().enumerate() {
                    index.insert(SubscriptionId(i as u64), ClientId(i as u64), sub.clone());
                }
                index.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching, bench_insert);
criterion_main!(benches);
