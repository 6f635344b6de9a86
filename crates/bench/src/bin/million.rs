//! Million-subscriber hot path (extension): **live subscriptions ×
//! publish rate** over the zero-allocation batch pipeline.
//!
//! The paper's evaluation stops at 100 k subscriptions (Figure 8 loads
//! 500 k for registration cost only). This run pushes steady-state
//! *matching* to one million live subscriptions under the push-feed
//! workload ([`scbr_workloads::pushfeed`]) and measures three things:
//!
//! 1. **Scale** — the arena poset ([`scbr::index::PosetIndex`]) at every
//!    subscription count, on both clocks. The pre-arena poset and the
//!    allocating `Vec<Vec<_>>` batch path this index and pipeline replaced
//!    are gone from the tree; their last measurement over the same
//!    workload is `crates/bench/baselines/million-7ef4a61.json` (rows
//!    `"index_kind": "legacy"` and `"segment": "alloc_discipline"`).
//! 2. **Batch amortisation** — per-batch µs across publish-rate
//!    (batch-size) steps through [`RouterEngine::match_batch_into`],
//!    which reuses one flat [`BatchMatches`] and the engine's internal
//!    scratch: zero steady-state heap allocation.
//! 3. **Bloom-gated ASPE** — the same feed through the encrypted
//!    matcher, reporting the Bloom pre-filter's skip rate: the share of
//!    live subscriptions whose O(d²) quadratic forms were never
//!    evaluated.
//!
//! ```text
//! cargo run --release -p scbr-bench --bin million
//! SCBR_JSON=1 SCBR_SCALE=full cargo run --release -p scbr-bench --bin million
//! ```

use std::time::Instant;

use scbr::engine::{BatchMatches, RouterEngine};
use scbr::index::SubscriptionIndex;
use scbr_aspe::{AspeAuthority, AspeMatcher};
use scbr_bench::json::{emit, JsonObj};
use scbr_bench::{banner, Scale};
use scbr_crypto::ctr::AesCtr;
use scbr_crypto::rng::CryptoRng;
use scbr_telemetry::MetricsRegistry;
use scbr_workloads::{PushFeed, PushFeedConfig};
use sgx_sim::SgxPlatform;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Million-subscriber hot path (extension)",
        "Push-feed fan-out: live subs × publish rate, zero-alloc batches",
        &scale,
    );
    let (sub_counts, batches, publications): (&[usize], &[usize], usize) = match scale.name {
        "smoke" => (&[10_000, 50_000], &[8, 64], 64),
        "full" => (&[100_000, 250_000, 500_000, 1_000_000], &[8, 64, 256], 256),
        _ => (&[100_000, 250_000, 1_000_000], &[8, 64, 256], 256),
    };
    let platform = SgxPlatform::for_testing(17);
    let sk = scbr_crypto::ctr::SymmetricKey::from_bytes([0x5c; 16]);

    let mut rows: Vec<JsonObj> = Vec::new();
    println!(
        "\n{:<8} {:<10} {:<6} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "kind", "subs", "batch", "virt µs/msg", "wall µs/msg", "k msg/s", "match/msg", "db MB"
    );
    for &n_subs in sub_counts {
        let feed = PushFeed::new(PushFeedConfig::with_total_subscriptions(n_subs));
        let subs = feed.subscriptions(7);
        let pubs = feed.publications(publications, 8);
        let mut rng = CryptoRng::from_seed(11);
        let headers: Vec<Vec<u8>> = pubs
            .iter()
            .map(|p| AesCtr::encrypt_with_nonce(&sk, &mut rng, &scbr::codec::encode_header(p)))
            .collect();

        let mut engine = RouterEngine::outside(&platform);
        let sk_c = sk.clone();
        engine.call(move |e| e.provision(sk_c));
        let reg_start = Instant::now();
        for (id, client, spec) in &subs {
            engine.call(|e| e.register_plain(*id, *client, spec)).expect("register");
        }
        let reg_s = reg_start.elapsed().as_secs_f64();
        let index_bytes = engine.engine().index().logical_bytes();
        let node_count = engine.engine().index().node_count() as u64;

        let mut out = BatchMatches::new();
        // Warm the scratch buffers: steady state starts after the
        // first batch has sized every reusable vector.
        engine.match_batch_into(&headers, &mut out);
        let matched: usize = out.total_clients();
        for &batch in batches {
            engine.reset_counters();
            let wall_start = Instant::now();
            for chunk in headers.chunks(batch) {
                engine.match_batch_into(chunk, &mut out);
            }
            let wall_us = wall_start.elapsed().as_secs_f64() * 1e6 / headers.len() as f64;
            let virt_us = engine.stats().elapsed_ns / headers.len() as f64 / 1_000.0;
            let match_per_msg = matched as f64 / headers.len() as f64;
            println!(
                "{:<8} {:<10} {:<6} {:>12.2} {:>12.2} {:>12.1} {:>10.0} {:>8.1}",
                "arena",
                n_subs,
                batch,
                virt_us,
                wall_us,
                1_000.0 / wall_us,
                match_per_msg,
                index_bytes as f64 / (1024.0 * 1024.0)
            );
            rows.push(
                JsonObj::new()
                    .str("segment", "index_sweep")
                    .str("index_kind", "arena")
                    .int("subscriptions", n_subs as u64)
                    .int("batch", batch as u64)
                    .int("publications", headers.len() as u64)
                    .num("virtual_us_per_msg", virt_us)
                    .num("wall_us_per_msg", wall_us)
                    .num("throughput_wall_msg_per_s", 1e6 / wall_us)
                    .num("throughput_virtual_msg_per_s", 1e6 / virt_us)
                    .num("matched_per_msg", match_per_msg)
                    .num("registration_s", reg_s)
                    .int("index_bytes", index_bytes)
                    .int("node_count", node_count),
            );
        }
    }

    // Bloom-gated ASPE segment: the encrypted matcher over the same
    // feed shape (ASPE is quadratic per subscription, so the database
    // stays small — the point is the gate's skip rate, not scale).
    {
        let (aspe_subs, aspe_pubs) = match scale.name {
            "smoke" => (500usize, 8usize),
            "full" => (5_000, 32),
            _ => (2_000, 16),
        };
        let feed = PushFeed::new(PushFeedConfig::small());
        let subs = feed.subscriptions(7);
        let pubs = feed.publications(aspe_pubs, 8);
        let mut rng = CryptoRng::from_seed(0xa59e);
        let authority = AspeAuthority::new(&["priority", "sender", "len"], &["topic"], &mut rng);
        let mem =
            sgx_sim::MemorySim::native(*platform.cache_config(), platform.cost_model().clone());
        let mut matcher = AspeMatcher::new(&mem);
        for (id, client, spec) in subs.iter().take(aspe_subs) {
            let enc = authority.encrypt_subscription(spec, &mut rng).expect("encryptable");
            matcher.insert(*id, *client, enc);
        }
        let encrypted: Vec<_> = pubs
            .iter()
            .map(|p| authority.encrypt_publication(p, &mut rng).expect("schema complete"))
            .collect();
        // The measurement window goes through the metrics registry: the
        // gate's uniform `snapshot()` export is absorbed before and after
        // the run, and `Snapshot::delta` isolates this phase — no manual
        // counter reset needed.
        let mut registry = MetricsRegistry::new();
        registry.absorb("gate", &matcher.bloom_stats().snapshot());
        let before = registry.snapshot();
        let mut matched = 0usize;
        for e in &encrypted {
            matched += matcher.match_publication(e).len();
        }
        let mut registry = MetricsRegistry::new();
        registry.absorb("gate", &matcher.bloom_stats().snapshot());
        let delta = registry.snapshot().delta(&before);
        let checked = delta.get("gate.bloom_checked").unwrap_or(0);
        let skipped = delta.get("gate.bloom_skipped").unwrap_or(0);
        let forms = delta.get("gate.forms_evaluated").unwrap_or(0);
        let skip_rate = if checked == 0 { 0.0 } else { skipped as f64 / checked as f64 };
        println!(
            "\nbloom gate over {aspe_subs} ASPE subs × {aspe_pubs} pubs: \
             checked={checked} skipped={skipped} forms={forms} \
             skip-rate={:.1}% matched={matched}",
            skip_rate * 100.0
        );
        rows.push(
            JsonObj::new()
                .str("segment", "bloom_gate")
                .int("subscriptions", aspe_subs as u64)
                .int("publications", aspe_pubs as u64)
                .int("bloom_checked", checked)
                .int("bloom_skipped", skipped)
                .int("forms_evaluated", forms)
                .num("bloom_skip_rate", skip_rate)
                .int("matched", matched as u64),
        );
    }

    println!(
        "\nexpected: virtual µs/msg stays flat from 100 k to 1 M subscriptions \
         (directory-seeded matching) while wall µs/msg follows the match count, \
         and the Bloom gate skips the large majority of quadratic forms under \
         Zipf topics"
    );
    emit("million", scale.name, &rows);
}
