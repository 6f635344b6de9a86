//! Reproduces **Figure 8**: the cost of exceeding the EPC.
//!
//! Registers up to 500 k `e80a1` subscriptions (plaintext) into identical
//! engines inside and outside the enclave, and reports — per bucket of
//! 5 000 registrations — the ratio of registration times and of page-fault
//! counts. The paper's observations to look for:
//!
//! * both ratios hover near 1 while the database fits the usable EPC
//!   (~93 MB of the 128 MB reservation);
//! * past the limit the enclave starts paging (EWB/ELD through the SGX
//!   driver): the time ratio jumps to an order of magnitude (paper: 18× at
//!   213 MB) and the fault-count ratio to ~10⁴ (enclave faults per 4 KiB
//!   swap, the native process once per transparent huge page).
//!
//! ```text
//! cargo run --release -p scbr-bench --bin fig8
//! ```

use scbr::engine::RouterEngine;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::{IndexKind, SubscriptionIndex};
use scbr_bench::json::{emit, JsonObj};
use scbr_bench::{banner, Scale};
use scbr_workloads::{StockMarket, Workload, WorkloadName};
use sgx_sim::SgxPlatform;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 8",
        "Registration-time and page-fault in/out ratios vs database size (e80a1, plaintext)",
        &scale,
    );
    let market = StockMarket::generate(&scale.market, 1);
    let workload = Workload::from_name(WorkloadName::E80A1);
    eprintln!("generating {} subscriptions …", scale.fig8_max_subs);
    let subs = workload.subscriptions(&market, scale.fig8_max_subs, 7);
    let platform = SgxPlatform::for_testing(9);

    let mut inside = RouterEngine::in_enclave(&platform, IndexKind::Poset).expect("launch");
    let mut outside = RouterEngine::outside(&platform);

    println!(
        "\n{:<10} {:>9} {:>12} {:>12} {:>12} {:>14} {:>14}",
        "subs", "db (MB)", "in µs/reg", "out µs/reg", "time ratio", "faults in", "fault ratio"
    );
    let epc_mb = platform.epc_config().usable_bytes as f64 / (1024.0 * 1024.0);
    let mut printed_epc_line = false;

    let mut rows: Vec<JsonObj> = Vec::new();
    let mut registered = 0usize;
    while registered < subs.len() {
        let next = (registered + scale.fig8_bucket).min(subs.len());
        inside.reset_counters();
        outside.reset_counters();
        for (i, sub) in subs.iter().enumerate().take(next).skip(registered) {
            let id = SubscriptionId(i as u64);
            let client = ClientId(i as u64);
            inside.call(|e| e.register_plain(id, client, sub)).expect("register");
            outside.call(|e| e.register_plain(id, client, sub)).expect("register");
        }
        let n = (next - registered) as f64;
        let in_stats = inside.stats();
        let out_stats = outside.stats();
        let in_us = in_stats.elapsed_ns / n / 1_000.0;
        let out_us = out_stats.elapsed_ns / n / 1_000.0;
        let in_faults = in_stats.page_faults();
        let out_faults = out_stats.page_faults().max(1);
        let db_mb = inside.engine().index().logical_bytes() as f64 / (1024.0 * 1024.0);
        if db_mb > epc_mb && !printed_epc_line {
            println!("{}  <-- usable EPC limit ({epc_mb:.0} MB)", "-".repeat(88));
            printed_epc_line = true;
        }
        println!(
            "{:<10} {:>9.1} {:>12.2} {:>12.2} {:>12.1} {:>14} {:>14.0}",
            next,
            db_mb,
            in_us,
            out_us,
            in_us / out_us,
            in_faults,
            in_faults as f64 / out_faults as f64
        );
        rows.push(
            JsonObj::new()
                .int("subs", next as u64)
                .num("db_mb", db_mb)
                .num("in_us_per_reg", in_us)
                .num("out_us_per_reg", out_us)
                .num("time_ratio", in_us / out_us)
                .int("in_faults", in_faults)
                .num("fault_ratio", in_faults as f64 / out_faults as f64),
        );
        registered = next;
    }
    emit("fig8", scale.name, &rows);
    println!("\nexpected (paper): ratios ≈ 1 below the EPC line; time ratio ≥ 10×,");
    println!("fault ratio ≈ 10³–10⁴ at the largest database sizes");
}
