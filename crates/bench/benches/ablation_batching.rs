//! Ablation: the paper's future-work idea of **batching publications per
//! enclave transition** ("using message batching … to reduce the frequency
//! of enclave enters/exits").
//!
//! Measured in virtual time via `iter_custom`, driving the production
//! batch API ([`RouterEngine::match_batch_into`]): one ECALL per publication
//! versus one ECALL per batch. The saving is the EENTER/EEXIT pair
//! (~3.8 µs) amortised across the batch — significant for small databases
//! where matching itself is only tens of microseconds. The `batching`
//! binary sweeps the same axis against slice counts and a tight EPC.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scbr::engine::{BatchMatches, RouterEngine};
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::IndexKind;
use scbr_crypto::ctr::AesCtr;
use scbr_crypto::rng::CryptoRng;
use scbr_workloads::{MarketConfig, StockMarket, Workload, WorkloadName};
use sgx_sim::SgxPlatform;
use std::time::Duration;

fn bench_batching(c: &mut Criterion) {
    let market = StockMarket::generate(&MarketConfig::small(), 1);
    let workload = Workload::from_name(WorkloadName::E100A1);
    let subs = workload.subscriptions(&market, 2_000, 2);
    let pubs = workload.publications(&market, 32, 3);
    let platform = SgxPlatform::for_testing(5);
    let sk = scbr_crypto::ctr::SymmetricKey::from_bytes([0x5c; 16]);
    let pk = scbr_crypto::rsa::RsaPublicKey::from_parts(
        scbr_crypto::BigUint::from_u64(3233),
        scbr_crypto::BigUint::from_u64(17),
    );
    let mut rng = CryptoRng::from_seed(7);
    let headers: Vec<Vec<u8>> = pubs
        .iter()
        .map(|p| AesCtr::encrypt_with_nonce(&sk, &mut rng, &scbr::codec::encode_header(p)))
        .collect();

    let mut group = c.benchmark_group("ablation_ecall_batching_virtual");
    group.sample_size(10);
    for batch in [1usize, 8, 32] {
        let mut engine = RouterEngine::in_enclave(&platform, IndexKind::Poset).expect("launch");
        let (sk, pk) = (sk.clone(), pk.clone());
        engine.call(move |e| e.provision_keys(sk, pk));
        for (i, s) in subs.iter().enumerate() {
            engine
                .call(|e| e.register_plain(SubscriptionId(i as u64), ClientId(i as u64), s))
                .expect("register");
        }
        let mut out = BatchMatches::new();
        group.bench_function(BenchmarkId::from_parameter(batch), |b| {
            b.iter_custom(|iters| {
                engine.reset_counters();
                // Process `iters` publications in single-ECALL batches.
                let mut processed = 0u64;
                while processed < iters {
                    let n = batch.min((iters - processed) as usize);
                    let at = processed as usize % headers.len();
                    let window: Vec<Vec<u8>> =
                        (0..n).map(|k| headers[(at + k) % headers.len()].clone()).collect();
                    engine.match_batch_into(&window, &mut out);
                    assert!(out.iter().all(|span| span.is_ok()), "match");
                    processed += n as u64;
                }
                Duration::from_nanos(engine.elapsed_ns() as u64)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batching);
criterion_main!(benches);
