//! The paper's headline claims, asserted as tests at smoke scale.
//!
//! Each test runs a miniature version of one evaluation experiment and
//! checks the *directional* result the corresponding figure reports. The
//! full-scale numbers come from the `scbr-bench` binaries (`SCBR_JSON=1`
//! writes them as `BENCH_<artefact>.json`); these tests keep the
//! reproduction honest under refactoring.

use scbr::engine::RouterEngine;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::IndexKind;
use scbr_bench::{AspeExperiment, EngineConfig, MatchExperiment, Scale};
use scbr_workloads::{StockMarket, Workload, WorkloadName};
use sgx_sim::{EpcConfig, SgxPlatform};

fn setup() -> (Scale, StockMarket, SgxPlatform) {
    let scale = Scale::smoke();
    let market = StockMarket::generate(&scale.market, 1);
    let platform = SgxPlatform::for_testing(2);
    (scale, market, platform)
}

/// Figure 5's two claims: AES overhead is small and roughly constant;
/// running inside the enclave is never cheaper than outside.
#[test]
fn fig5_encryption_overhead_small_and_constant() {
    let (_, market, platform) = setup();
    let workload = Workload::from_name(WorkloadName::E100A1);
    let subs = workload.subscriptions(&market, 2_000, 3);
    let pubs = workload.publications(&market, 8, 4);

    let mut gaps = Vec::new();
    for count in [500usize, 2_000] {
        let mut plain = MatchExperiment::new(&platform, EngineConfig::OutPlain);
        let mut aes = MatchExperiment::new(&platform, EngineConfig::OutAes);
        plain.load_to(&subs, count);
        aes.load_to(&subs, count);
        let p = plain.measure(&pubs);
        let a = aes.measure(&pubs);
        let gap = a.matching_us - p.matching_us;
        assert!(gap > 0.0, "aes costs something");
        assert!(gap < 5.0, "aes overhead below 5 µs (paper), got {gap}");
        gaps.push(gap);
    }
    let spread = (gaps[0] - gaps[1]).abs();
    assert!(spread < 2.0, "aes overhead roughly constant, spread {spread}");
}

#[test]
fn fig5_enclave_never_cheaper() {
    let (_, market, platform) = setup();
    let workload = Workload::from_name(WorkloadName::E100A1);
    let subs = workload.subscriptions(&market, 2_000, 3);
    let pubs = workload.publications(&market, 8, 4);
    let mut inside = MatchExperiment::new(&platform, EngineConfig::InAes);
    let mut outside = MatchExperiment::new(&platform, EngineConfig::OutAes);
    inside.load_to(&subs, 2_000);
    outside.load_to(&subs, 2_000);
    assert!(inside.measure(&pubs).matching_us > outside.measure(&pubs).matching_us);
}

/// Figure 6's claim: equality-heavy workloads (deep containment) match
/// faster than attribute-multiplied ones (shallow forests).
#[test]
fn fig6_workload_ordering() {
    let (_, market, platform) = setup();
    let n = 3_000;
    let time_of = |name: WorkloadName| {
        let w = Workload::from_name(name);
        let subs = w.subscriptions(&market, n, 5);
        let pubs = w.publications(&market, 8, 6);
        let mut exp = MatchExperiment::new(&platform, EngineConfig::OutPlain);
        exp.load_to(&subs, n);
        exp.measure(&pubs).matching_us
    };
    let fast = time_of(WorkloadName::E100A1);
    let slow = time_of(WorkloadName::ExtSub4);
    assert!(slow > fast, "extsub4 ({slow} µs) should be slower than e100a1 ({fast} µs)");
}

/// Figure 7's claim: ASPE is substantially slower than enclave-based
/// matching and its gap grows with the database.
#[test]
fn fig7_aspe_slower_and_growing() {
    let (_, market, platform) = setup();
    let workload = Workload::from_name(WorkloadName::E100A1);
    let subs = workload.subscriptions(&market, 2_000, 7);
    let pubs = workload.publications(&market, 4, 8);

    let mut gap_small = 0.0;
    let mut gap_large = 0.0;
    for (count, gap) in [(500usize, &mut gap_small), (2_000usize, &mut gap_large)] {
        let mut aspe = AspeExperiment::new(&platform, &workload);
        let mut scbr = MatchExperiment::new(&platform, EngineConfig::InAes);
        aspe.load_to(&subs, count);
        scbr.load_to(&subs, count);
        let a = aspe.measure(&pubs).matching_us;
        let s = scbr.measure(&pubs).matching_us;
        assert!(a > s, "aspe {a} vs scbr {s} at {count}");
        *gap = a / s;
    }
    assert!(
        gap_large > gap_small,
        "aspe's relative cost grows: {gap_small:.1}x -> {gap_large:.1}x"
    );
}

/// Figure 8's claim: once the database exceeds the usable EPC, enclave
/// registration pays for page swaps and slows down by an order of
/// magnitude relative to native, while fault counts explode.
#[test]
fn fig8_paging_cliff() {
    let (_, market, _) = setup();
    // A tiny EPC (2 MB usable) makes the cliff reachable at smoke scale.
    let platform = SgxPlatform::with_config(
        3,
        sgx_sim::CacheConfig::default(),
        EpcConfig { total_bytes: 4 << 20, usable_bytes: 2 << 20, page_size: 4096 },
        sgx_sim::CostModel::default(),
        512,
    );
    let workload = Workload::from_name(WorkloadName::E80A1);
    let n = 20_000; // ~8.3 MB of nodes, 4x the usable EPC
    let subs = workload.subscriptions(&market, n, 9);

    let mut inside = RouterEngine::in_enclave(&platform, IndexKind::Poset).expect("launch");
    let mut outside = RouterEngine::outside(&platform, IndexKind::Poset);

    let mut ratios = Vec::new();
    let bucket = 2_500;
    let mut registered = 0usize;
    while registered < n {
        let next = (registered + bucket).min(subs.len());
        inside.reset_counters();
        outside.reset_counters();
        for (i, sub) in subs.iter().enumerate().take(next).skip(registered) {
            let id = SubscriptionId(i as u64);
            let client = ClientId(i as u64);
            inside.call(|e| e.register_plain(id, client, sub)).expect("in");
            outside.call(|e| e.register_plain(id, client, sub)).expect("out");
        }
        ratios.push(inside.stats().elapsed_ns / outside.stats().elapsed_ns);
        registered = next;
    }
    let first = ratios[0];
    let last = *ratios.last().expect("nonempty");
    assert!(last > 2.0 * first, "paging cliff: early ratio {first:.1}, late ratio {last:.1}");
    assert!(inside.stats().epc_swaps > 0, "enclave registration swapped pages at 4x EPC");
}

/// The engine agrees across placements regardless of encryption — the
/// reproduction's results are about *performance*, never about different
/// matching semantics.
#[test]
fn all_configs_agree_on_results() {
    let (_, market, platform) = setup();
    let workload = Workload::from_name(WorkloadName::ExtSub2);
    let subs = workload.subscriptions(&market, 1_000, 10);
    let pubs = workload.publications(&market, 10, 11);

    let results: Vec<Vec<u64>> =
        [EngineConfig::InAes, EngineConfig::InPlain, EngineConfig::OutAes, EngineConfig::OutPlain]
            .iter()
            .map(|config| {
                let mut exp = MatchExperiment::new(&platform, *config);
                exp.load_to(&subs, subs.len());
                let mut all = Vec::new();
                for p in &pubs {
                    all.extend(exp.match_clients(p));
                }
                all
            })
            .collect();
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
}

/// The batching ablation's two claims (this PR's acceptance criteria),
/// asserted on the deterministic virtual clocks: measured transitions
/// scale as `slices / batch_size`, and a partitioned router whose slices
/// each fit the EPC beats the single EPC-thrashing slice on a Zipf
/// workload.
#[test]
fn batching_amortises_transitions_and_partitioning_beats_epc_thrash() {
    use scbr::cluster::PartitionedRouter;
    use scbr_crypto::ctr::AesCtr;
    use scbr_crypto::rng::CryptoRng;
    use sgx_sim::{CacheConfig, CostModel};

    let scale = Scale::smoke();
    let market = StockMarket::generate(&scale.market, 1);
    let workload = Workload::from_name(WorkloadName::E80A1Zz100);
    // A tight EPC: one slice's index overflows usable EPC, two fit.
    let epc = EpcConfig { total_bytes: 2 << 20, usable_bytes: 1 << 20, page_size: 4096 };
    let platform =
        SgxPlatform::with_config(31, CacheConfig::default(), epc, CostModel::default(), 512);
    let subs = workload.subscriptions(&market, 5_000, 7);
    let pubs = workload.publications(&market, 32, 8);
    let sk = scbr_crypto::ctr::SymmetricKey::from_bytes([0x5c; 16]);
    let pk = scbr_crypto::rsa::RsaPublicKey::from_parts(
        scbr_crypto::BigUint::from_u64(3233),
        scbr_crypto::BigUint::from_u64(17),
    );
    let mut rng = CryptoRng::from_seed(3);
    let headers: Vec<Vec<u8>> = pubs
        .iter()
        .map(|p| AesCtr::encrypt_with_nonce(&sk, &mut rng, &scbr::codec::encode_header(p)))
        .collect();

    let mut virt_per_batch = Vec::new();
    for slices in [1usize, 2] {
        let mut router =
            PartitionedRouter::in_enclaves(&platform, IndexKind::Poset, slices).expect("launch");
        router.provision_keys(&sk, &pk);
        for (i, spec) in subs.iter().enumerate() {
            router
                .register_plain(SubscriptionId(i as u64), ClientId(i as u64), spec)
                .expect("register");
        }
        if slices == 1 {
            assert!(router.total_epc_swaps() > 0, "single slice must thrash the EPC");
        } else {
            assert_eq!(router.total_epc_swaps(), 0, "partitioned slices fit the EPC");
        }
        for batch in [1usize, 8, 32] {
            router.reset_counters();
            for chunk in headers.chunks(batch) {
                router.match_batch_into(chunk, &mut scbr::engine::BatchMatches::new());
            }
            // Transition count scales as slices / batch (ceil per chunk).
            let expected = slices as u64 * headers.chunks(batch).len() as u64;
            assert_eq!(router.total_ecalls(), expected, "slices {slices}, batch {batch}");
            if slices == 1 {
                virt_per_batch.push(router.parallel_elapsed_ns());
            }
        }
        if slices == 2 {
            // The partitioned router's critical path beats the thrashing
            // single slice (compared at batch 32, the last measurement).
            assert!(
                router.parallel_elapsed_ns() < virt_per_batch[2] / 2.0,
                "2 fitting slices at least halve the thrashing slice's time"
            );
        }
    }
    // Batch 32 beats batch 1 by roughly the 31 saved crossings. The full
    // strict chain no longer holds: the arena index's per-publication
    // footprint is small enough that EPC swap counts — which shift a
    // little with chunk boundaries on this deliberately thrashing slice —
    // are the same order as one transition, so adjacent batch sizes can
    // tie. The endpoint ordering stays deterministic.
    assert!(
        virt_per_batch[0] > virt_per_batch[2],
        "batch 1 ({}) should cost more than batch 32 ({})",
        virt_per_batch[0],
        virt_per_batch[2]
    );
}
