//! Batching ablation (extension): **batch size × star width** over the
//! batch-first pipeline.
//!
//! The paper's cost model is dominated by enclave transitions: every
//! publication matched through the call gate pays the fixed EENTER/EEXIT
//! cost, and its future work proposes "message batching … to reduce the
//! frequency of enclave enters/exits". This run measures that amortisation
//! directly — the simulator counts transitions per batch, so the measured
//! transition count scales as `brokers / batch_size` — and sweeps it over
//! one attested broker and stars of a hub and 2 or 4 leaves, the
//! subscriptions dealt round-robin over the leaves.
//!
//! A batch amortises a second cost too: each crossing matches its
//! publications in one covering-forest walk, so a node that several of
//! them reach is read once. The `reads/msg` column counts the enclave
//! memory lines read per publication, summed over the brokers; it falls
//! with batch size as the batch's publications share more of the forest.
//!
//! The workload is Zipf-skewed (`e80a1zz100`) and sized so one broker's
//! index overflows the (reduced) usable EPC: the one broker pays page
//! swaps, the leaves of a star fit. For each shape the run reports the
//! **knee**: the smallest batch size past which per-message virtual time
//! (the bottleneck broker's) stops improving by more than 5 % — where the
//! amortised transitions and the shared node reads have both flattened
//! into the per-publication matching cost.
//!
//! The wall column times the fabric's single-threaded scheduler on the
//! host: brokers run one after another, so it is the sum of the brokers'
//! work, not a concurrent fan-out. Every shape must deliver exactly what
//! the one broker delivers; the run exits nonzero otherwise.
//!
//! ```text
//! cargo run --release -p scbr-bench --bin batching
//! SCBR_JSON=1 SCBR_SCALE=smoke cargo run --release -p scbr-bench --bin batching
//! ```

use scbr_bench::json::{emit, JsonObj};
use scbr_bench::{banner, delivered, mem_counter, path_elapsed_ns, scaleout_fabric, Scale};
use scbr_workloads::{StockMarket, Workload, WorkloadName};
use sgx_sim::EpcConfig;
use std::time::Instant;

const BATCHES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
const LEAVES: [usize; 3] = [1, 2, 4];
/// Publications per configuration (a multiple of every batch size).
const PUBLICATIONS: usize = 256;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Batching ablation (extension)",
        "Amortised enclave transitions: batch size × star width, Zipf workload vs a tight EPC",
        &scale,
    );
    // A reduced EPC so one broker's index overflows usable EPC at every
    // scale while the leaves of a star fit (the subscription node stride
    // is ~432 B, but the Zipf workload shares nodes heavily).
    let (n_subs, usable) = match scale.name {
        "smoke" => (12_000usize, 5usize << 19), // ~3.2 MB index vs 2.5 MB EPC
        "full" => (80_000, 10 << 20),
        _ => (40_000, 6 << 20),
    };
    let epc = EpcConfig { total_bytes: 2 * usable, usable_bytes: usable, page_size: 4096 };
    let market = StockMarket::generate(&scale.market, 1);
    let workload = Workload::from_name(WorkloadName::E80A1Zz100);
    eprintln!("generating {n_subs} Zipf subscriptions …");
    let subs = workload.subscriptions(&market, n_subs, 7);
    let pubs = workload.publications(&market, PUBLICATIONS, 8);
    let n_msgs = pubs.len() as f64;

    println!(
        "\nleaves  batch    ecalls  trans/msg  reads/msg    virt µs/msg   path µs/msg  wall µs/msg  epc swaps"
    );
    let mut rows: Vec<JsonObj> = Vec::new();
    let mut reference = None;
    let mut mismatched = Vec::new();
    for &leaves in &LEAVES {
        let mut fabric = scaleout_fabric(leaves, epc, 17, &subs);
        let brokers = fabric.topology().routers();
        // Warm up caches/EPC residency before the measured sweeps.
        fabric.publish(0, &pubs[..32.min(pubs.len())]).expect("publish");

        let mut prev_virt: Option<f64> = None;
        let mut knee: Option<usize> = None;
        for &batch in &BATCHES {
            fabric.reset_counters();
            let mut deliveries = Vec::new();
            let started = Instant::now();
            for (i, chunk) in pubs.chunks(batch).enumerate() {
                deliveries
                    .extend(delivered(&fabric.publish(0, chunk).expect("publish"), i * batch));
            }
            let wall_us = started.elapsed().as_nanos() as f64 / n_msgs / 1_000.0;
            deliveries.sort_unstable();
            let ecalls = fabric.total_ecalls();
            let ocalls: u64 = fabric.broker_stats().iter().map(|s| s.ocalls).sum();
            let trans_per_msg = ecalls as f64 / n_msgs;
            let virt_us = fabric.max_elapsed_ns() / n_msgs / 1_000.0;
            let path_us = path_elapsed_ns(&fabric) / n_msgs / 1_000.0;
            let (swaps, _) = mem_counter(&mut fabric, "epc_swaps");
            let reads_per_msg = mem_counter(&mut fabric, "reads").0 as f64 / n_msgs;
            println!(
                "{:<7} {:<6} {:>8} {:>10.3} {:>10.1} {:>14.2} {:>13.2} {:>12.2} {:>10}",
                leaves,
                batch,
                ecalls,
                trans_per_msg,
                reads_per_msg,
                virt_us,
                path_us,
                wall_us,
                swaps
            );
            rows.push(
                JsonObj::new()
                    .int("leaves", leaves as u64)
                    .int("brokers", brokers as u64)
                    .int("batch", batch as u64)
                    .int("publications", pubs.len() as u64)
                    .int("subscriptions", n_subs as u64)
                    .int("ecalls", ecalls)
                    .int("ocalls", ocalls)
                    .num("transitions_per_msg", trans_per_msg)
                    .num("reads_per_msg", reads_per_msg)
                    .num("virtual_us_per_msg", virt_us)
                    .num("path_us_per_msg", path_us)
                    .num("throughput_virtual_msg_per_s", 1_000_000.0 / virt_us)
                    .num("wall_us_per_msg", wall_us)
                    .int("epc_swaps", swaps)
                    .int("deliveries", deliveries.len() as u64),
            );
            if *reference.get_or_insert_with(|| deliveries.clone()) != deliveries {
                mismatched.push((leaves, batch));
            }
            if let (Some(prev), None) = (prev_virt, knee) {
                if (prev - virt_us) / prev < 0.05 {
                    knee = Some(batch);
                }
            }
            prev_virt = Some(virt_us);
        }
        let (_, max_bytes) = mem_counter(&mut fabric, "allocated_bytes");
        let max_mb = max_bytes as f64 / (1024.0 * 1024.0);
        match knee {
            Some(b) => println!(
                "  -> knee at batch {b}: transition and node-read amortisation flattened \
                 (largest broker {max_mb:.1} MB)"
            ),
            None => println!("  -> no knee up to batch 128 (still transition-bound)"),
        }
    }

    println!(
        "\nexpected: measured transitions/msg = brokers/batch (the 1/batch_size \
         amortisation); the EPC-thrashing single broker loses to every star's \
         bottleneck broker once batches stop dominating"
    );
    emit("batching", scale.name, &rows);
    if !mismatched.is_empty() {
        eprintln!(
            "delivery sets differ from the one-broker rows at (leaves, batch) {mismatched:?}"
        );
        std::process::exit(1);
    }
}
