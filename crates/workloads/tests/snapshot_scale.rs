//! Regression: snapshot/restore stays lossless at 100 k live
//! subscriptions (the arena poset's slab layout, directory buckets, and
//! the engine's position map must all rebuild exactly), and restore
//! relinks the recorded forest instead of searching it — pinned by the
//! forest's shape and by the simulated reads the restore costs, so a
//! regression to the covering search fails here without a clock.
//!
//! The paper's §2 restart flow reloads a sealed subscription database
//! after a broker restart; this drives it at push-feed scale so a
//! restore-path regression that only bites on large, node-sharing
//! databases (a stale `registered_pos` entry, a directory bucket missed
//! during rebuild) cannot hide behind small fixtures.

use scbr::engine::MatchingEngine;
use scbr::index::{IndexKind, SubscriptionIndex};
use scbr_workloads::{PushFeed, PushFeedConfig};
use sgx_sim::{CacheConfig, CostModel, MemorySim};

const SUBS: usize = 100_000;

#[test]
fn snapshot_round_trips_100k_subscriptions() {
    let feed = PushFeed::new(PushFeedConfig::with_total_subscriptions(SUBS));
    let subs = feed.subscriptions(7);
    assert!(subs.len() >= SUBS);
    let pubs = feed.publications(24, 8);

    let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
    let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
    for (id, client, spec) in &subs {
        engine.register_plain(*id, *client, spec).expect("register");
    }
    // Churn before snapshotting: recycled arena slots and swap_remove'd
    // registration rows must round-trip too, not just append-only state.
    for (id, _, _) in subs.iter().take(SUBS / 10) {
        assert!(engine.unregister(*id));
    }
    let live = subs.len() - SUBS / 10;
    assert_eq!(engine.index().len(), live);

    let snapshot = engine.snapshot();
    let mem2 = MemorySim::native(CacheConfig::default(), CostModel::free());
    let mut restored = MatchingEngine::new(&mem2, IndexKind::Poset);
    assert_eq!(restored.restore(&snapshot).expect("restore"), live);
    assert_eq!(restored.index().len(), live);
    assert_eq!(restored.index().node_count(), engine.index().node_count());
    // The anchors rebuild the author's forest, not merely an equivalent one.
    let shape = |e: &MatchingEngine| (e.index().root_count(), e.index().depth());
    assert_eq!(shape(&restored), shape(&engine), "(roots, depth) after restore");
    // Relinking, not searching: one covering check per anchored row reads
    // ~2.3 lines per row here, where the covering search read ~5.7 (and
    // 27-62 on the benchmark's router populations).
    let reads = mem2.stats().reads;
    assert!(
        reads <= 4 * live as u64,
        "restore read {reads} lines for {live} rows ({:.1} per row)",
        reads as f64 / live as f64
    );

    for (i, publication) in pubs.iter().enumerate() {
        let mut a = engine.match_plain(publication).expect("match original");
        let mut b = restored.match_plain(publication).expect("match restored");
        a.sort_unstable_by_key(|c| c.0);
        b.sort_unstable_by_key(|c| c.0);
        assert_eq!(a, b, "publication {i} diverged after restore");
        // Push-feed Zipf publications land on hot topics often enough
        // that an all-empty comparison would be vacuous.
        if i == 0 {
            assert!(!a.is_empty(), "expected fan-out on the first hot-topic publication");
        }
    }

    // The restored engine keeps serving churn: unregister through the
    // rebuilt position map and re-match.
    let (gone, _, _) = &subs[SUBS / 2];
    assert!(restored.unregister(*gone));
    assert_eq!(restored.index().len(), live - 1);
}
