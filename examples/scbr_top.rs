//! `top(1)` for an SCBR fabric: build a small attested overlay, run
//! traffic, and dump the unified telemetry snapshot — per-broker
//! counter tables, per-stage latency percentiles, and per-publication
//! cross-hop traces.
//!
//! Everything printed here comes from one call,
//! [`OverlayFabric::telemetry`]: each broker's stats structs are folded
//! through the [`MetricsRegistry`] into a namespaced snapshot
//! (`broker.*`, `mem.*`, `link.<neighbor>.*`, `trace.dropped`), the
//! in-enclave flight recorders are drained through a costed ocall, and
//! the fabric-level registry aggregates the totals the last two lines
//! report in `key=value` form (CI greps them).
//!
//! ```text
//! cargo run --example scbr_top
//! ```

use scbr::ids::ClientId;
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr_overlay::broker::HeartbeatConfig;
use scbr_overlay::fabric::{FabricConfig, OverlayFabric};
use scbr_overlay::Topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A 3-broker attested chain, fully instrumented. --------------
    let config =
        FabricConfig::attested(2016).with_heartbeats(HeartbeatConfig::default()).with_telemetry();
    let mut fabric = OverlayFabric::build(Topology::line(3), config)?;
    println!("3-broker attested line fabric, heartbeats + telemetry on\n");

    // --- 2. Traffic: subscribers at both edges, batches from router 2. --
    let specs = [
        SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0),
        SubscriptionSpec::new().gt("volume", 10_000i64),
        SubscriptionSpec::new().eq("symbol", "IBM"),
    ];
    for (i, spec) in specs.iter().enumerate() {
        let at = if i % 2 == 0 { 0 } else { 1 };
        fabric.subscribe(at, ClientId(i as u64), spec)?;
    }
    let batches = [
        vec![PublicationSpec::new().attr("symbol", "HAL").attr("price", 42.0).attr("volume", 5i64)],
        vec![
            PublicationSpec::new().attr("symbol", "HAL").attr("price", 60.0).attr("volume", 9i64),
            PublicationSpec::new()
                .attr("symbol", "IBM")
                .attr("price", 10.0)
                .attr("volume", 90_000i64),
        ],
    ];
    let mut traced = Vec::new();
    for batch in &batches {
        let (trace, deliveries) = fabric.publish_traced(2, batch)?;
        traced.push((trace, deliveries.len()));
    }
    // A few detection rounds so the liveness timers emit heartbeats.
    for _ in 0..4 {
        fabric.tick_round()?;
    }

    // --- 3. The dump: one snapshot, three views. -------------------------
    let snap = fabric.telemetry();

    println!("{:<24} {:>10} {:>10} {:>10}", "counter", "broker 0", "broker 1", "broker 2");
    for key in [
        "broker.ecalls",
        "broker.ocalls",
        "broker.heartbeats",
        "broker.subscriptions",
        // The recovery record, as the host sees it on its own disk:
        // checkpoints sealed, plaintext bytes through the seal, whole
        // bases written, deltas currently chained onto the last base.
        "broker.seals",
        "broker.sealed_bytes",
        "broker.compactions",
        "broker.log_entries",
    ] {
        print!("{key:<24}");
        for broker in &snap.brokers {
            print!(" {:>10}", broker.counters.get(key).unwrap_or(0));
        }
        println!();
    }

    println!("\n{:<10} {:<14} {:>8} {:>10} {:>10}", "broker", "stage", "count", "p50 ns", "p99 ns");
    for broker in &snap.brokers {
        for s in &broker.stages {
            println!(
                "{:<10} {:<14} {:>8} {:>10} {:>10}",
                broker.broker,
                s.stage.label(),
                s.count,
                s.p50_ns,
                s.p99_ns
            );
        }
    }

    println!("\nper-publication traces (hop order is the host-side tick order):");
    for (trace, delivered) in &traced {
        let path = snap.trace_path(*trace);
        let hops: Vec<String> = path
            .iter()
            .map(|h| {
                // `matched_bucket` is log₂-coarsened on purpose: 0 means
                // nothing matched here, k means ≥ 2^(k-1) local matches.
                let matched =
                    if h.matched_bucket == 0 { 0 } else { 1u64 << (h.matched_bucket - 1) };
                format!("r{}(match {} ns, ≥{} matched)", h.broker, h.match_latency_ns(), matched)
            })
            .collect();
        println!("  trace {:>3}: {} → {delivered} delivered", trace.0, hops.join(" → "));
        assert!(!path.is_empty(), "telemetry is on: every batch must leave hop records");
    }

    // --- 4. Greppable fabric totals for CI. ------------------------------
    let ecalls = snap.fabric.get("total.ecalls").unwrap_or(0);
    let heartbeats = snap.fabric.get("total.heartbeats").unwrap_or(0);
    println!("\necalls_total={ecalls}");
    println!("heartbeats_total={heartbeats}");
    assert!(ecalls > 0, "an attested fabric cannot run without enclave crossings");
    assert!(heartbeats > 0, "heartbeat timers ticked, so frames must have been emitted");
    Ok(())
}
