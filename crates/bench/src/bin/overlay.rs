//! Overlay extension experiment: **hops × routers × subscribers** through
//! the attested broker fabric.
//!
//! The paper's §3.4 sketches a network of routing enclaves; this run
//! measures what the overlay adds and what covering saves:
//!
//! * **propagation** — subscriptions registered at one edge of a broker
//!   chain, propagated covering-pruned vs flooded: link forwards, pruned
//!   count, and total index entries across the fabric (upstream state);
//! * **multi-hop matching** — a publication batch injected at the far
//!   edge: enclave crossings per hop (the batch-first pipeline keeps this
//!   at ~1 per broker per batch) and the virtual-time critical path per
//!   message.
//!
//! The workload is the paper's Zipf-skewed `e80a1zz100`: skew produces
//! repeated and covered subscriptions, exactly what covering-based
//! propagation exploits.
//!
//! ```text
//! cargo run --release -p scbr-bench --bin overlay
//! SCBR_JSON=1 SCBR_SCALE=smoke cargo run --release -p scbr-bench --bin overlay
//! ```

use scbr::ids::ClientId;
use scbr_bench::json::{emit, JsonObj};
use scbr_bench::{banner, Scale};
use scbr_overlay::fabric::{FabricConfig, OverlayFabric};
use scbr_overlay::{Propagation, Topology};
use scbr_workloads::{StockMarket, Workload, WorkloadName};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Overlay fabric (extension)",
        "Attested broker chains: covering-pruned propagation and multi-hop batch forwarding",
        &scale,
    );
    let (router_counts, n_subs, n_pubs): (&[usize], usize, usize) = match scale.name {
        "smoke" => (&[2, 4], 48, 16),
        "full" => (&[2, 4, 8, 12], 2_000, 256),
        _ => (&[2, 4, 8], 400, 64),
    };
    let market = StockMarket::generate(&scale.market, 1);
    let workload = Workload::from_name(WorkloadName::E80A1Zz100);
    eprintln!("generating {n_subs} Zipf subscriptions + {n_pubs} publications …");
    let subs = workload.subscriptions(&market, n_subs, 7);
    let pubs = workload.publications(&market, n_pubs, 8);

    println!(
        "\n{:<8} {:<6} {:<9} {:>9} {:>8} {:>8} {:>11} {:>10} {:>12} {:>10}",
        "routers",
        "hops",
        "mode",
        "fwd subs",
        "pruned",
        "entries",
        "pub ecalls",
        "ecall/brkr",
        "virt µs/msg",
        "delivered"
    );
    let mut rows: Vec<JsonObj> = Vec::new();
    for &routers in router_counts {
        let hops = routers - 1;
        for propagation in [Propagation::CoveringPruned, Propagation::Flood] {
            let mode = match propagation {
                Propagation::CoveringPruned => "pruned",
                Propagation::Flood => "flooded",
            };
            let config = FabricConfig {
                seed: 11,
                index: scbr::index::IndexKind::Poset,
                propagation,
                ..FabricConfig::attested(11)
            };
            let mut fabric =
                OverlayFabric::build(Topology::line(routers), config).expect("fabric build");
            // All subscribers at router 0; publications enter at the far
            // end, so every delivery crosses the full chain.
            for (i, spec) in subs.iter().enumerate() {
                fabric.subscribe(0, ClientId(i as u64), spec).expect("subscribe");
            }
            let forwarded = fabric.total_forwarded();
            let pruned = fabric.total_pruned();
            let entries = fabric.total_index_entries();

            fabric.reset_counters();
            let deliveries = fabric.publish(routers - 1, &pubs).expect("publish");
            let pub_ecalls = fabric.total_ecalls();
            let ecalls_per_broker = pub_ecalls as f64 / routers as f64;
            let virt_us_per_msg = fabric.max_elapsed_ns() / n_pubs as f64 / 1_000.0;

            println!(
                "{:<8} {:<6} {:<9} {:>9} {:>8} {:>8} {:>11} {:>10.2} {:>12.2} {:>10}",
                routers,
                hops,
                mode,
                forwarded,
                pruned,
                entries,
                pub_ecalls,
                ecalls_per_broker,
                virt_us_per_msg,
                deliveries.len()
            );
            rows.push(
                JsonObj::new()
                    .int("routers", routers as u64)
                    .int("hops", hops as u64)
                    .str("propagation", mode)
                    .int("subscribers", n_subs as u64)
                    .int("publications", n_pubs as u64)
                    .int("forwarded_subs", forwarded)
                    .int("pruned_subs", pruned)
                    .int("index_entries", entries as u64)
                    .int("publish_ecalls", pub_ecalls)
                    .num("ecalls_per_broker", ecalls_per_broker)
                    .num("virtual_us_per_msg", virt_us_per_msg)
                    .int("deliveries", deliveries.len() as u64),
            );
        }
    }
    println!(
        "\nexpected: pruned mode forwards a fraction of the flooded subscription \
         traffic (Zipf skew ⇒ heavy covering) at identical delivery counts; \
         publish ecalls stay ≈ 1 per broker per batch, so multi-hop batches keep \
         the 1/batch_size transition amortisation at every hop"
    );
    emit("overlay", scale.name, &rows);

    // ---- churn mode: the full lifecycle as a sweep ---------------------
    //
    // Subscribe the whole Zipf population at one edge, then unsubscribe
    // it again in arrival order. Removing early (broad, heavily covering)
    // subscriptions while later (covered) ones are still live forces the
    // uncovering rule at every hop — this measures what subscription
    // churn costs the overlay in re-propagation traffic, and checks that
    // the fabric drains to zero state.
    println!(
        "\n{:<8} {:<6} {:>9} {:>8} {:>9} {:>9} {:>10} {:>12}",
        "routers", "hops", "fwd tot", "pruned", "removed", "uncovered", "leftover", "virt ms tot"
    );
    let mut churn_rows: Vec<JsonObj> = Vec::new();
    for &routers in router_counts {
        let hops = routers - 1;
        let config = FabricConfig {
            seed: 13,
            index: scbr::index::IndexKind::Poset,
            propagation: Propagation::CoveringPruned,
            ..FabricConfig::attested(13)
        };
        let mut fabric =
            OverlayFabric::build(Topology::line(routers), config).expect("fabric build");
        fabric.reset_counters();
        let mut ids = Vec::with_capacity(subs.len());
        for (i, spec) in subs.iter().enumerate() {
            ids.push(fabric.subscribe(0, ClientId(i as u64), spec).expect("subscribe"));
        }
        for id in &ids {
            fabric.unsubscribe(*id).expect("unsubscribe");
        }
        let forwarded_total = fabric.total_forwarded_cumulative();
        let pruned = fabric.total_pruned();
        let removed = fabric.total_removed();
        let uncovered = fabric.total_uncovered();
        let leftover = fabric.total_index_entries() as u64 + fabric.total_forwarded();
        let virt_ms = fabric.max_elapsed_ns() / 1_000_000.0;
        println!(
            "{:<8} {:<6} {:>9} {:>8} {:>9} {:>9} {:>10} {:>12.2}",
            routers, hops, forwarded_total, pruned, removed, uncovered, leftover, virt_ms
        );
        churn_rows.push(
            JsonObj::new()
                .int("routers", routers as u64)
                .int("hops", hops as u64)
                .int("subscribers", n_subs as u64)
                .int("forwarded_total", forwarded_total)
                .int("pruned_subs", pruned)
                .int("removed_rows", removed)
                .int("uncovered_promotions", uncovered)
                .int("leftover_state", leftover)
                .num("virtual_ms_total", virt_ms),
        );
    }
    println!(
        "\nexpected: forwarded_total == removed (every row churned away), leftover == 0 \
         (no leaked index entries or table rows), and uncovered grows with hop count — \
         the price of covering-pruned propagation under removal"
    );
    emit("overlay_churn", scale.name, &churn_rows);

    // ---- failover mode: kill k of n brokers mid-churn ------------------
    //
    // Subscribe a (bounded) Zipf population at one edge, then crash
    // middle brokers one at a time. While each victim is down, churn
    // continues at the edge — removals and additions whose frames toward
    // the victim are dropped on the floor. The restart then has to do
    // real reconciliation work: sealed restore, link re-keying,
    // neighbour replay, stale drops. The measure is how much recovery
    // traffic that costs versus naively re-propagating the entire
    // subscription population through the tree.
    println!(
        "\n{:<8} {:<8} {:>9} {:>9} {:>9} {:>7} {:>11} {:>12} {:>10}",
        "routers",
        "victims",
        "restored",
        "replayed",
        "stale",
        "gaps",
        "rec frames",
        "full repropg",
        "delivered"
    );
    let n_failover = n_subs.min(128);
    let mut failover_rows: Vec<JsonObj> = Vec::new();
    for &routers in router_counts {
        let config = FabricConfig {
            seed: 17,
            index: scbr::index::IndexKind::Poset,
            propagation: Propagation::CoveringPruned,
            ..FabricConfig::attested(17)
        };
        let mut fabric =
            OverlayFabric::build(Topology::line(routers), config).expect("fabric build");
        let mut ids = Vec::with_capacity(n_failover);
        for (i, spec) in subs.iter().take(n_failover).enumerate() {
            ids.push(fabric.subscribe(0, ClientId(i as u64), spec).expect("subscribe"));
        }
        // What a full re-propagation of the live population would put on
        // the wire: every covering-surviving forward, again.
        let full_repropagation = fabric.total_forwarded_cumulative();

        let victims: Vec<usize> = (1..routers).step_by(2).take((routers / 3).max(1)).collect();
        let (mut restored, mut replayed, mut stale) = (0u64, 0u64, 0u64);
        let mut recovery_frames = 0u64;
        let mut churn_ops = 0u64;
        let mut next_client = n_failover as u64;
        for &victim in &victims {
            fabric.crash(victim).expect("crash");
            // Mid-outage churn at the (alive) edge: retire an early
            // subscription, admit a fresh one.
            for _ in 0..4 {
                if let Some(id) = ids.first().copied() {
                    ids.remove(0);
                    fabric.unsubscribe(id).expect("unsubscribe during outage");
                    churn_ops += 1;
                }
                let spec = &subs[(next_client as usize) % n_failover.max(1)];
                ids.push(
                    fabric
                        .subscribe(0, ClientId(next_client), spec)
                        .expect("subscribe during outage"),
                );
                next_client += 1;
                churn_ops += 1;
            }
            let report = fabric.restart(victim).expect("restart");
            restored += report.restored as u64;
            replayed += report.replayed as u64;
            stale += report.dropped_stale as u64;
            recovery_frames += report.recovery_frames;
        }
        // Post-failover sanity: the overlay still delivers.
        fabric.reset_counters();
        let deliveries = fabric.publish(routers - 1, &pubs).expect("publish");
        println!(
            "{:<8} {:<8} {:>9} {:>9} {:>9} {:>7} {:>11} {:>12} {:>10}",
            routers,
            victims.len(),
            restored,
            replayed,
            stale,
            fabric.total_gaps(),
            recovery_frames,
            full_repropagation,
            deliveries.len()
        );
        failover_rows.push(
            JsonObj::new()
                .int("routers", routers as u64)
                .int("hops", (routers - 1) as u64)
                .int("subscribers", n_failover as u64)
                .int("victims", victims.len() as u64)
                .int("churn_ops_during_outage", churn_ops)
                .int("restored_subs", restored)
                .int("replayed_envelopes", replayed)
                .int("dropped_stale", stale)
                .int("recovery_frames", recovery_frames)
                .int("full_repropagation_frames", full_repropagation)
                .int("deliveries", deliveries.len() as u64),
        );
    }
    println!(
        "\nexpected: recovery frames stay proportional to the victims' incident-link \
         interest (replayed envelopes + handshakes), far below the full re-propagation \
         frame count a naive rebuild would need — and delivery stays exact after every \
         kill/rejoin cycle"
    );
    emit("overlay_failover", scale.name, &failover_rows);

    // ---- detection mode: zero-operator recovery latency ----------------
    //
    // With heartbeats enabled the fabric is its own liveness oracle: a
    // middle broker is crashed *silently* (no `restart` call anywhere)
    // and the detection loop alone — per-link silence, quorum suspicion,
    // fence, rejoin — brings it back. The sweep measures the timer
    // trade-off: tighter heartbeat/suspicion windows detect faster but
    // spend more steady-state frames.
    println!(
        "\n{:<8} {:<8} {:>9} {:>13} {:>13} {:>11} {:>9} {:>10}",
        "routers",
        "timers",
        "interval",
        "detect round",
        "settle round",
        "heartbeats",
        "dropped",
        "delivered"
    );
    let n_detect = n_subs.min(128);
    let mut detect_rows: Vec<JsonObj> = Vec::new();
    for &routers in router_counts {
        for (timers, heartbeats) in [
            ("fast", scbr_overlay::HeartbeatConfig::fast()),
            ("default", scbr_overlay::HeartbeatConfig::default()),
        ] {
            let config = FabricConfig {
                seed: 19,
                index: scbr::index::IndexKind::Poset,
                propagation: Propagation::CoveringPruned,
                ..FabricConfig::preshared(19)
            }
            .with_heartbeats(heartbeats);
            let mut fabric =
                OverlayFabric::build(Topology::line(routers), config).expect("fabric build");
            for (i, spec) in subs.iter().take(n_detect).enumerate() {
                fabric.subscribe(0, ClientId(i as u64), spec).expect("subscribe");
            }
            let victim = routers / 2;
            fabric.crash(victim).expect("crash");
            let rejoins = fabric.run_detection(256).expect("detection settles");
            assert_eq!(rejoins.len(), 1, "exactly one automatic fence-and-restart");
            let detect_round = rejoins[0].round;
            let settle_round = fabric.rounds();
            let heartbeats_sent = fabric.total_heartbeats();
            let dropped = fabric.dropped_frames();
            let deliveries = fabric.publish(routers - 1, &pubs).expect("publish");
            println!(
                "{:<8} {:<8} {:>9} {:>13} {:>13} {:>11} {:>9} {:>10}",
                routers,
                timers,
                heartbeats.interval,
                detect_round,
                settle_round,
                heartbeats_sent,
                dropped,
                deliveries.len()
            );
            detect_rows.push(
                JsonObj::new()
                    .int("routers", routers as u64)
                    .int("hops", (routers - 1) as u64)
                    .int("subscribers", n_detect as u64)
                    .str("timers", timers)
                    .int("interval", heartbeats.interval)
                    .int("suspect_after", heartbeats.suspect_after)
                    .int("gap_grace", heartbeats.gap_grace)
                    .int("detect_round", detect_round)
                    .int("settle_round", settle_round)
                    .int("heartbeats_sent", heartbeats_sent)
                    .int("dropped_frames", dropped)
                    .int("deliveries", deliveries.len() as u64),
            );
        }
    }
    println!(
        "\nexpected: detect round tracks the suspicion window (suspect_after ticks of \
         silence before the quorum fences), settle round adds the replay-driven rejoin, \
         and the faster timers buy detection latency with proportionally more \
         steady-state heartbeat frames"
    );
    emit("overlay_detect", scale.name, &detect_rows);

    // ---- trace mode: per-hop latency breakdown --------------------------
    //
    // A 3-hop attested chain with telemetry enabled: every publication
    // batch carries a trace id, every broker appends a hop record into
    // its in-enclave flight recorder, and the stage histograms split the
    // per-hop virtual time into decrypt / index match / seal. The drain
    // goes through the telemetry registry ([`OverlayFabric::telemetry`]),
    // so this sweep also exercises the uniform snapshot surface the
    // registry absorbs.
    let trace_routers = 4; // 3 hops, per the fabric's telemetry story
    let n_trace_subs = n_subs.min(64);
    let n_trace_pubs = n_pubs.min(24);
    let trace_batches: &[usize] = &[1, 4, n_trace_pubs];
    println!(
        "\n{:<6} {:<8} {:>6} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "batch",
        "router",
        "recs",
        "matched",
        "match ns",
        "seal ns",
        "decrypt p50",
        "idx p50",
        "hop p50"
    );
    let mut trace_rows: Vec<JsonObj> = Vec::new();
    for &batch in trace_batches {
        let config = FabricConfig {
            seed: 23,
            index: scbr::index::IndexKind::Poset,
            propagation: Propagation::CoveringPruned,
            ..FabricConfig::attested(23)
        }
        .with_telemetry();
        let mut fabric =
            OverlayFabric::build(Topology::line(trace_routers), config).expect("fabric build");
        for (i, spec) in subs.iter().take(n_trace_subs).enumerate() {
            fabric.subscribe(0, ClientId(i as u64), spec).expect("subscribe");
        }
        // Traced `batch`-sized publication batches, injected at the far
        // edge so every record crosses the full chain.
        let chunks = pubs[..n_trace_pubs].chunks(batch).count();
        for chunk in pubs[..n_trace_pubs].chunks(batch) {
            fabric.publish(trace_routers - 1, chunk).expect("publish");
        }
        let snap = fabric.telemetry();
        assert_eq!(snap.traces().len(), chunks, "one trace per batch, all drained");
        for broker in &snap.brokers {
            let hops: Vec<_> =
                snap.hops.iter().filter(|h| h.broker == broker.broker).copied().collect();
            assert_eq!(hops.len(), chunks, "every trace recorded at every hop");
            let mean = |f: fn(&scbr_overlay::HopRecord) -> u64| {
                hops.iter().map(f).sum::<u64>() / hops.len().max(1) as u64
            };
            let mean_match = mean(|h| h.match_latency_ns());
            let mean_forward = mean(|h| h.forward_latency_ns());
            let matched = hops.iter().map(|h| h.matched_bucket).max().unwrap_or(0);
            let p50 = |label: &str| {
                broker
                    .stages
                    .iter()
                    .find(|s| s.stage.label() == label)
                    .map(|s| s.p50_ns)
                    .unwrap_or(0)
            };
            println!(
                "{:<6} {:<8} {:>6} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                batch,
                broker.broker,
                hops.len(),
                matched,
                mean_match,
                mean_forward,
                p50("decrypt"),
                p50("index_match"),
                p50("hop_crossing")
            );
            trace_rows.push(
                JsonObj::new()
                    .int("batch", batch as u64)
                    .int("router", broker.broker)
                    .int("hops_recorded", hops.len() as u64)
                    .int("matched_bucket_max", matched as u64)
                    .int("mean_match_ns", mean_match)
                    .int("mean_forward_ns", mean_forward)
                    .int("decrypt_p50_ns", p50("decrypt"))
                    .int("index_match_p50_ns", p50("index_match"))
                    .int("seal_p50_ns", p50("seal"))
                    .int("hop_crossing_p50_ns", p50("hop_crossing"))
                    .int("ecalls", broker.counters.get("broker.ecalls").unwrap_or(0))
                    .int("trace_dropped", broker.counters.get("trace.dropped").unwrap_or(0)),
            );
        }
    }
    println!(
        "\nexpected: every batch leaves one hop record at each of the {} brokers \
         (match ≫ seal at the subscriber edge, both ≈ 0 at pass-through hops), \
         larger batches amortise the per-hop crossing across more publications, and \
         the decrypt/index-match stage medians account for the bulk of hop_crossing",
        trace_routers
    );
    emit("overlay_trace", scale.name, &trace_rows);

    // ---- partition mode: slices × skew threshold -----------------------
    //
    // The edge broker's matcher is sharded into N slices. Clustered
    // unsubscribes (every id hashed off slice 0 is retired) manufacture
    // the worst-case occupancy skew — all surviving load on one slice —
    // and one forced rebalancing pass must bring the skew back under the
    // configured threshold by migrating subscriptions fullest → emptiest,
    // without losing or duplicating a single delivery.
    println!(
        "\n{:<7} {:>10} {:>9} {:>10} {:>10} {:>9} {:>7} {:>11} {:>10}",
        "slices",
        "threshold",
        "survive",
        "skew pre",
        "skew post",
        "migrated",
        "passes",
        "ecall/brkr",
        "delivered"
    );
    let part_routers = 3usize;
    let n_part = n_subs.min(192);
    let mut partition_rows: Vec<JsonObj> = Vec::new();
    for &slices in &[2usize, 4, 8] {
        for &threshold in &[1.25f64, 1.5, 2.0] {
            let config = FabricConfig {
                seed: 29,
                index: scbr::index::IndexKind::Poset,
                propagation: Propagation::CoveringPruned,
                ..FabricConfig::attested(29)
            }
            .with_partition(
                scbr_overlay::PartitionConfig::sliced(slices).with_skew_threshold(threshold),
            );
            let mut fabric =
                OverlayFabric::build(Topology::line(part_routers), config).expect("fabric build");
            let mut ids = Vec::with_capacity(n_part);
            for (i, spec) in subs.iter().take(n_part).enumerate() {
                ids.push(fabric.subscribe(0, ClientId(i as u64), spec).expect("subscribe"));
            }
            // Retire everything hash-homed off slice 0, piling the whole
            // surviving population onto one slice.
            for id in &ids {
                if scbr::cluster::home_slice(*id, slices) != 0 {
                    fabric.unsubscribe(*id).expect("clustered unsubscribe");
                }
            }
            let skew_before = fabric.occupancy_skew(0);
            let survivors = fabric.broker_stats()[0].subscriptions;
            let before = fabric.publish(part_routers - 1, &pubs).expect("publish before");

            let report = fabric.rebalance(0).expect("rebalance");
            // A perfectly level spread (slice gap ≤ 1) still has skew
            // ceil(m/s)·s/m — a small population cannot go below that,
            // whatever the threshold asks for.
            let level = survivors.div_ceil(slices) as f64 * slices as f64 / survivors as f64;
            assert!(
                report.skew_after <= threshold.max(level) + 1e-9,
                "rebalancer failed to converge: skew {} > threshold {threshold} \
                 (level bound {level:.3}, {slices} slices, {survivors} survivors)",
                report.skew_after
            );
            fabric.reset_counters();
            let after = fabric.publish(part_routers - 1, &pubs).expect("publish after");
            assert_eq!(before, after, "migration lost or duplicated deliveries");
            let ecalls_per_broker = fabric.total_ecalls() as f64 / part_routers as f64;

            println!(
                "{:<7} {:>10.2} {:>9} {:>10.2} {:>10.2} {:>9} {:>7} {:>11.2} {:>10}",
                slices,
                threshold,
                fabric.broker_stats()[0].subscriptions,
                skew_before,
                report.skew_after,
                report.migrated,
                report.passes,
                ecalls_per_broker,
                after.len()
            );
            partition_rows.push(
                JsonObj::new()
                    .int("slices", slices as u64)
                    .num("skew_threshold", threshold)
                    .int("subscribers", n_part as u64)
                    .int("survivors", fabric.broker_stats()[0].subscriptions as u64)
                    .num("skew_before", skew_before)
                    .num("skew_after", report.skew_after)
                    .int("migrated", report.migrated as u64)
                    .int("passes", report.passes as u64)
                    .num("ecalls_per_broker", ecalls_per_broker)
                    .int("deliveries", after.len() as u64),
            );
        }
    }
    println!(
        "\nexpected: clustered churn drives the skew to ≈ slices; one rebalancing run \
         brings it back under every threshold (migrating ≈ survivors·(1−1/slices) ids at \
         the tightest), identical delivery sets before and after, and the fanned batch \
         still costs ≈ 1 crossing per broker"
    );
    emit("overlay_partition", scale.name, &partition_rows);
}
