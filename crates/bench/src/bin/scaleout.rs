//! Extension experiment: horizontal scaling of the router (the paper's
//! conclusion: the EPC limit "can be overcome through horizontal
//! scalability"; §3.4 sketches the StreamHub-style architecture).
//!
//! Registers a database larger than one enclave's usable EPC on one
//! attested broker, and on stars of a hub and 2, 4 and 8 leaves with the
//! subscriptions dealt round-robin over the leaves. Publications enter at
//! the hub, which forwards a batch only to the leaves whose covering rows
//! match it. Each row reports the EPC page swaps of registration summed
//! over all brokers, the bottleneck broker's virtual time per publication
//! (what bounds pipelined throughput), the hub-plus-slowest-leaf path
//! (one publication's latency) and the largest broker's footprint.
//!
//! Every row must deliver exactly what the one broker delivers; the run
//! exits nonzero otherwise.
//!
//! ```text
//! cargo run --release -p scbr-bench --bin scaleout
//! ```

use scbr_bench::json::{emit, JsonObj};
use scbr_bench::{banner, delivered, mem_counter, path_elapsed_ns, scaleout_fabric, Scale};
use scbr_workloads::{StockMarket, Workload, WorkloadName};
use sgx_sim::EpcConfig;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Scale-out (extension)",
        "A star of attested brokers vs the EPC limit: one broker, then 2/4/8 leaves",
        &scale,
    );
    // A reduced EPC keeps the experiment fast while preserving the
    // overflow ratio of Figure 8's end point (~2x the usable EPC).
    let epc = EpcConfig { total_bytes: 12 << 20, usable_bytes: 8 << 20, page_size: 4096 };
    let market = StockMarket::generate(&scale.market, 1);
    let workload = Workload::from_name(WorkloadName::E80A1);
    // ~11 MB of nodes vs 8 MB usable per enclave: one broker pages, the
    // leaves of a star fit.
    let n_subs = 40_000;
    eprintln!("generating {n_subs} subscriptions …");
    let subs = workload.subscriptions(&market, n_subs, 7);
    let pubs = workload.publications(&market, scale.pubs_per_point.max(5), 8);
    let n_pubs = pubs.len() as f64;

    println!("\nleaves   brokers  epc swaps  hub rows   match µs/pub   path µs/pub   max db (MB)");
    let mut rows: Vec<JsonObj> = Vec::new();
    let mut reference = None;
    let mut mismatched = Vec::new();
    for leaves in [1usize, 2, 4, 8] {
        let mut fabric = scaleout_fabric(leaves, epc, 9, &subs);
        let brokers = fabric.topology().routers();
        let (swaps, _) = mem_counter(&mut fabric, "epc_swaps");
        let (_, max_bytes) = mem_counter(&mut fabric, "allocated_bytes");
        let max_mb = max_bytes as f64 / (1024.0 * 1024.0);
        let hub_rows = fabric.broker_stats()[0].subscriptions;
        fabric.reset_counters();
        let deliveries = delivered(&fabric.publish(0, &pubs).expect("publish"), 0);
        let match_us = fabric.max_elapsed_ns() / n_pubs / 1_000.0;
        let path_us = path_elapsed_ns(&fabric) / n_pubs / 1_000.0;
        println!(
            "{:<7} {:>8} {:>10} {:>9} {:>14.1} {:>13.1} {:>13.2}",
            leaves, brokers, swaps, hub_rows, match_us, path_us, max_mb
        );
        rows.push(
            JsonObj::new()
                .int("leaves", leaves as u64)
                .int("brokers", brokers as u64)
                .int("subscriptions", subs.len() as u64)
                .int("publications", pubs.len() as u64)
                .int("epc_swaps", swaps)
                .int("hub_rows", hub_rows as u64)
                .num("matching_us_per_pub", match_us)
                .num("path_us_per_pub", path_us)
                .num("max_broker_mb", max_mb)
                .int("deliveries", deliveries.len() as u64),
        );
        if *reference.get_or_insert_with(|| deliveries.clone()) != deliveries {
            mismatched.push(leaves);
        }
    }
    println!("\nexpected: swaps vanish once each leaf's index fits the usable EPC;");
    println!("the bottleneck broker's matching time improves with leaves");
    emit("scaleout", scale.name, &rows);
    if !mismatched.is_empty() {
        eprintln!("delivery sets differ from the one-broker row at leaves {mismatched:?}");
        std::process::exit(1);
    }
}
