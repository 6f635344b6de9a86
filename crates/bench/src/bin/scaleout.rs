//! Extension experiment: horizontal scaling of the router (the paper's
//! conclusion: the EPC limit "can be overcome through horizontal
//! scalability"; §3.4 sketches the StreamHub-style architecture).
//!
//! Registers a database larger than one enclave's usable EPC into 1, 2, 4
//! and 8 partitioned slices and reports registration time, page swaps and
//! fan-out matching latency (slowest slice).
//!
//! ```text
//! cargo run --release -p scbr-bench --bin scaleout
//! ```

use scbr::cluster::PartitionedRouter;
use scbr::engine::BatchMatches;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::SubscriptionIndex;
use scbr_bench::json::{emit, JsonObj};
use scbr_bench::{banner, Scale};
use scbr_crypto::ctr::AesCtr;
use scbr_crypto::rng::CryptoRng;
use scbr_workloads::{StockMarket, Workload, WorkloadName};
use sgx_sim::{CacheConfig, CostModel, EpcConfig, SgxPlatform};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Scale-out (extension)",
        "Partitioned router vs the EPC limit: one database, 1/2/4/8 slices",
        &scale,
    );
    // A reduced EPC keeps the experiment fast while preserving the
    // overflow ratio of Figure 8's end point (~2x the usable EPC).
    let epc = EpcConfig { total_bytes: 12 << 20, usable_bytes: 8 << 20, page_size: 4096 };
    let platform =
        SgxPlatform::with_config(9, CacheConfig::default(), epc, CostModel::default(), 512);
    let market = StockMarket::generate(&scale.market, 1);
    let workload = Workload::from_name(WorkloadName::E80A1);
    // ~17 MB of nodes vs 8 MB usable per enclave: one slice pages, four
    // slices fit.
    let n_subs = 40_000;
    eprintln!("generating {n_subs} subscriptions …");
    let subs = workload.subscriptions(&market, n_subs, 7);
    let pubs = workload.publications(&market, scale.pubs_per_point.max(5), 8);
    let sk = scbr_crypto::ctr::SymmetricKey::from_bytes([0x5c; 16]);
    let mut rng = CryptoRng::from_seed(11);
    let headers: Vec<Vec<u8>> = pubs
        .iter()
        .map(|p| AesCtr::encrypt_with_nonce(&sk, &mut rng, &scbr::codec::encode_header(p)))
        .collect();

    println!(
        "\n{:<8} {:>12} {:>12} {:>14} {:>16}",
        "slices", "reg µs/sub", "epc swaps", "match µs/pub", "slice db (MB)"
    );
    let mut rows: Vec<JsonObj> = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let mut router = PartitionedRouter::in_enclaves(&platform, n).expect("launch");
        let pk = scbr_crypto::rsa::RsaPublicKey::from_parts(
            scbr_crypto::BigUint::from_u64(3233),
            scbr_crypto::BigUint::from_u64(17),
        );
        router.provision_keys(&sk, &pk);
        for (i, spec) in subs.iter().enumerate() {
            router
                .register_plain(SubscriptionId(i as u64), ClientId(i as u64), spec)
                .expect("register");
        }
        let reg_us = router.total_elapsed_ns() / subs.len() as f64 / 1_000.0;
        let swaps = router.total_epc_swaps();
        router.reset_counters();
        // Batch fan-out: every slice matches the whole set through one
        // enclave crossing per batch.
        router.match_batch_into(&headers, &mut BatchMatches::new());
        let match_us = router.parallel_elapsed_ns() / headers.len() as f64 / 1_000.0;
        let slice_mb =
            router.with_slice(0, |s| s.engine().index().logical_bytes()) as f64 / (1024.0 * 1024.0);
        println!("{:<8} {:>12.2} {:>12} {:>14.1} {:>16.2}", n, reg_us, swaps, match_us, slice_mb);
        rows.push(
            JsonObj::new()
                .int("slices", n as u64)
                .int("subscriptions", subs.len() as u64)
                .int("publications", headers.len() as u64)
                .num("registration_us_per_sub", reg_us)
                .int("epc_swaps", swaps)
                .num("matching_us_per_pub", match_us)
                .num("slice_db_mb", slice_mb)
                .num("occupancy_skew", router.occupancy_skew()),
        );
    }
    println!("\nexpected: swaps vanish once the per-slice index fits the usable EPC;");
    println!("fan-out matching latency (slowest slice) improves with slices");
    emit("scaleout", scale.name, &rows);
}
