//! Batching ablation (extension): **batch size × slice count** over the
//! batch-first pipeline.
//!
//! The paper's cost model is dominated by enclave transitions: every
//! publication matched through the call gate pays the fixed EENTER/EEXIT
//! cost, and its future work proposes "message batching … to reduce the
//! frequency of enclave enters/exits". This run measures that amortisation
//! directly — the simulator counts transitions per batch, so the measured
//! transition count scales as `slices / batch_size` — and sweeps it
//! against a [`scbr::cluster::PartitionedRouter`] whose scoped threads
//! genuinely run the slices concurrently (wall-clock µs/msg is
//! host-measured spawn→merge time).
//!
//! The workload is Zipf-skewed (`e80a1zz100`) and sized so a single
//! slice's index overflows the (reduced) usable EPC: one slice pays page
//! swaps, partitioned slices fit. For each slice count the run reports the
//! **knee**: the smallest batch size past which per-message virtual time
//! stops improving by more than 5 % — where the amortised transition cost
//! has flattened into the matching cost.
//!
//! ```text
//! cargo run --release -p scbr-bench --bin batching
//! SCBR_JSON=1 SCBR_SCALE=smoke cargo run --release -p scbr-bench --bin batching
//! ```

use scbr::cluster::PartitionedRouter;
use scbr::engine::BatchMatches;
use scbr::ids::{ClientId, SubscriptionId};
use scbr_bench::json::{emit, JsonObj};
use scbr_bench::{banner, Scale};
use scbr_crypto::ctr::AesCtr;
use scbr_crypto::rng::CryptoRng;
use scbr_workloads::{StockMarket, Workload, WorkloadName};
use sgx_sim::{CacheConfig, CostModel, EpcConfig, SgxPlatform};

const BATCHES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
const SLICES: [usize; 3] = [1, 2, 4];
/// Publications per configuration (a multiple of every batch size).
const PUBLICATIONS: usize = 256;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Batching ablation (extension)",
        "Amortised enclave transitions: batch size × slice count, Zipf workload vs a tight EPC",
        &scale,
    );
    // A reduced EPC so the single-slice index overflows usable EPC at
    // every scale while two or more slices fit (the subscription node
    // stride is ~432 B, but the Zipf workload shares nodes heavily).
    let (n_subs, usable) = match scale.name {
        "smoke" => (12_000usize, 5usize << 19), // ~3.2 MB index vs 2.5 MB EPC
        "full" => (80_000, 10 << 20),
        _ => (40_000, 6 << 20),
    };
    let epc = EpcConfig { total_bytes: 2 * usable, usable_bytes: usable, page_size: 4096 };
    let platform =
        SgxPlatform::with_config(17, CacheConfig::default(), epc, CostModel::default(), 512);
    let market = StockMarket::generate(&scale.market, 1);
    let workload = Workload::from_name(WorkloadName::E80A1Zz100);
    eprintln!("generating {n_subs} Zipf subscriptions …");
    let subs = workload.subscriptions(&market, n_subs, 7);
    let pubs = workload.publications(&market, PUBLICATIONS, 8);
    let sk = scbr_crypto::ctr::SymmetricKey::from_bytes([0x5c; 16]);
    let pk = scbr_crypto::rsa::RsaPublicKey::from_parts(
        scbr_crypto::BigUint::from_u64(3233),
        scbr_crypto::BigUint::from_u64(17),
    );
    let mut rng = CryptoRng::from_seed(11);
    let headers: Vec<Vec<u8>> = pubs
        .iter()
        .map(|p| AesCtr::encrypt_with_nonce(&sk, &mut rng, &scbr::codec::encode_header(p)))
        .collect();

    println!(
        "\n{:<7} {:<6} {:>8} {:>10} {:>14} {:>12} {:>10}",
        "slices", "batch", "ecalls", "trans/msg", "virt µs/msg", "wall µs/msg", "epc swaps"
    );
    let mut rows: Vec<JsonObj> = Vec::new();
    let mut wall_at_32 = Vec::new();
    for &n_slices in &SLICES {
        let mut router = PartitionedRouter::in_enclaves(&platform, n_slices).expect("launch");
        router.provision_keys(&sk, &pk);
        for (i, spec) in subs.iter().enumerate() {
            router
                .register_plain(SubscriptionId(i as u64), ClientId(i as u64), spec)
                .expect("register");
        }
        // Warm up caches/EPC residency before the measured sweeps.
        let mut matches = BatchMatches::new();
        router.match_batch_into(&headers[..32.min(headers.len())], &mut matches);

        let mut prev_virt: Option<f64> = None;
        let mut knee: Option<usize> = None;
        for &batch in &BATCHES {
            router.reset_counters();
            for chunk in headers.chunks(batch) {
                router.match_batch_into(chunk, &mut matches);
            }
            let n_msgs = headers.len() as f64;
            let ecalls = router.total_ecalls();
            let trans_per_msg = ecalls as f64 / n_msgs;
            let virt_us = router.parallel_elapsed_ns() / n_msgs / 1_000.0;
            let wall_us = router.fanout_wall_ns() as f64 / n_msgs / 1_000.0;
            let swaps = router.total_epc_swaps();
            println!(
                "{:<7} {:<6} {:>8} {:>10.3} {:>14.2} {:>12.2} {:>10}",
                n_slices, batch, ecalls, trans_per_msg, virt_us, wall_us, swaps
            );
            rows.push(
                JsonObj::new()
                    .int("slices", n_slices as u64)
                    .int("batch", batch as u64)
                    .int("publications", headers.len() as u64)
                    .int("subscriptions", n_subs as u64)
                    .int("ecalls", ecalls)
                    .int("ocalls", router.total_ocalls())
                    .num("transitions_per_msg", trans_per_msg)
                    .num("virtual_us_per_msg", virt_us)
                    .num("throughput_virtual_msg_per_s", 1_000_000.0 / virt_us)
                    .num("wall_us_per_msg", wall_us)
                    .int("epc_swaps", swaps)
                    .num("occupancy_skew", router.occupancy_skew()),
            );
            if batch == 32 {
                wall_at_32.push((n_slices, virt_us, wall_us));
            }
            if let (Some(prev), None) = (prev_virt, knee) {
                if (prev - virt_us) / prev < 0.05 {
                    knee = Some(batch);
                }
            }
            prev_virt = Some(virt_us);
        }
        let occupancy = router.slice_stats();
        let per_slice_mb =
            occupancy.first().map(|s| s.index_bytes as f64 / (1024.0 * 1024.0)).unwrap_or(0.0);
        match knee {
            Some(b) => println!(
                "  -> knee at batch {b}: transition amortisation flattened \
                 (per-slice db {per_slice_mb:.1} MB, skew {:.2})",
                router.occupancy_skew()
            ),
            None => println!("  -> no knee up to batch 128 (still transition-bound)"),
        }
    }

    println!("\nwall-clock fan-out at batch 32 (scoped threads, host-measured):");
    for (n_slices, virt_us, wall_us) in &wall_at_32 {
        println!("  {n_slices} slice(s): {virt_us:>8.2} virt µs/msg  {wall_us:>8.2} wall µs/msg");
    }
    println!(
        "\nexpected: measured transitions/msg = slices/batch (the 1/batch_size \
         amortisation); the EPC-thrashing single slice loses to partitioned \
         slices on both clocks once batches stop dominating"
    );
    emit("batching", scale.name, &rows);
}
