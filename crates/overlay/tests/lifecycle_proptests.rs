//! Property: the **full subscription lifecycle** — random interleavings
//! of subscribe, unsubscribe and re-registration of a live id under a
//! different filter, over random trees — keeps the overlay
//! delivery-equivalent to a flat single-router oracle *after every step*,
//! in both covering-pruned and flooded propagation modes.
//!
//! Unsubscription is where the covering optimisation gets dangerous: a
//! removal may *uncover* subscriptions that were pruned behind it, and
//! forgetting to re-forward them silently under-delivers, while
//! re-forwarding too eagerly leaks table rows. A re-registration that
//! narrows a forwarded filter uncovers in exactly the same way, with no
//! removal to hang it on. These properties pin both failure modes:
//!
//! * after every subscribe/unsubscribe/re-registration, a probe
//!   publication batch is
//!   routed through the pruned fabric, the flooded fabric and a flat
//!   oracle engine, and all three delivery sets must be identical;
//! * when the script ends, every remaining subscription is removed and
//!   every broker's index and every per-link forwarding table must be
//!   **empty** — no leaked entries, no leaked rows;
//! * throughout, each broker's counters satisfy
//!   `rows == forwarded_total − removed` with `uncovered ⊆ forwarded_total`.

mod common;

use common::*;
use proptest::prelude::*;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::FlatOracle;
use scbr::protocol::keys::ProducerCrypto;
use scbr::publication::PublicationSpec;
use scbr_crypto::rng::CryptoRng;
use scbr_overlay::fabric::{FabricConfig, OverlayFabric, Propagation};
use scbr_overlay::Delivery;
use sgx_sim::{CacheConfig, CostModel, MemorySim};

/// A publication `raw`'s filter matches, whatever else does: probing with
/// the witness of every live subscription finds a stranded one at once,
/// where a random probe would have to land in the gap.
fn witness(raw: &RawSub) -> PublicationSpec {
    let mut values = [4.0; NUMERIC.len()];
    let mut used = std::collections::HashSet::new();
    for (attr, op, bound) in &raw.bounds {
        if used.insert(*attr) {
            values[*attr] = *bound as f64 + [-1.0, 0.0, 1.0, 0.0][(*op as usize).min(3)];
        }
    }
    let mut spec = PublicationSpec::new().attr("symbol", SYMBOLS[raw.symbol.unwrap_or(0)]);
    for (name, value) in NUMERIC.iter().zip(values) {
        spec = spec.attr(name, value);
    }
    spec
}

/// One producer identity for the whole run.
fn shared_producer() -> ProducerCrypto {
    ProducerCrypto::new(&mut CryptoRng::from_seed(0x6c696665))
}

/// One lifecycle step, decoded from the generated script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Subscribe the next not-yet-subscribed generated subscription.
    Subscribe,
    /// Unsubscribe the `pick % live`-th live subscription.
    Unsubscribe(usize),
    /// Re-register the `pick % live`-th live subscription — same id,
    /// client and edge router — under another generated filter.
    Resubscribe(usize),
}

/// Decodes the raw script into concrete steps against the generated
/// subscription pool, ending with the removal of everything still live.
fn decode_script(script: &[(u8, usize)], total_subs: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut pending = total_subs;
    let mut live = 0usize;
    for &(op, pick) in script {
        if op == 0 && pending > 0 {
            steps.push(Step::Subscribe);
            pending -= 1;
            live += 1;
        } else if op == 1 && live > 0 {
            steps.push(Step::Unsubscribe(pick));
            live -= 1;
        } else if op == 2 && live > 0 {
            steps.push(Step::Resubscribe(pick));
        }
    }
    // Drain everything so the final emptiness check always runs.
    while pending > 0 {
        steps.push(Step::Subscribe);
        pending -= 1;
        live += 1;
    }
    while live > 0 {
        steps.push(Step::Unsubscribe(0));
        live -= 1;
    }
    steps
}

/// Asserts the per-broker churn-counter invariant.
fn assert_counters(fabric: &OverlayFabric, ctx: &str) -> Result<(), TestCaseError> {
    for stats in fabric.broker_stats() {
        prop_assert_eq!(
            stats.forwarded,
            stats.forwarded_total - stats.removed,
            "rows != forwarded_total - removed at router {} ({})",
            stats.router,
            ctx
        );
        prop_assert!(
            stats.uncovered <= stats.forwarded_total,
            "uncovered exceeds forwarded_total at router {} ({})",
            stats.router,
            ctx
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every subscribe/unsubscribe/re-registration step, pruned ≡
    /// flooded ≡ flat oracle; after the final step, every broker is
    /// completely drained.
    #[test]
    fn lifecycle_interleavings_stay_oracle_equivalent(
        parents in proptest::collection::vec(0usize..8, 1..5),
        subs in proptest::collection::vec(sub_strategy(), 1..8),
        script in proptest::collection::vec((0u8..3, 0usize..16), 0..24),
        pubs in proptest::collection::vec(pub_strategy(), 1..3),
        publish_router in 0usize..64,
        seed in 0u64..1_000,
    ) {
        let topology = build_tree(&parents);
        let routers = topology.routers();
        let publish_at = publish_router % routers;
        let publications: Vec<PublicationSpec> = pubs.iter().map(build_pub).collect();
        let steps = decode_script(&script, subs.len());

        let producer = shared_producer();
        let mut pruned = OverlayFabric::build_with_producer(
            topology.clone(),
            FabricConfig::attested(seed),
            producer.clone(),
        ).expect("pruned fabric");
        let mut flooded = OverlayFabric::build_with_producer(
            topology.clone(),
            FabricConfig {
                propagation: Propagation::Flood,
                ..FabricConfig::attested(seed)
            },
            producer.clone(),
        ).expect("flooded fabric");
        // The flat oracle: one big router holding exactly the live set.
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut oracle = FlatOracle::new(&mem);

        // id → (index into `subs` of its owner — client and placement —
        // and of its current filter), for oracle-expectation building.
        let mut live: Vec<(SubscriptionId, usize, usize)> = Vec::new();
        let mut next_sub = 0usize;

        for (step_no, step) in steps.iter().enumerate() {
            match *step {
                Step::Subscribe => {
                    let raw = &subs[next_sub];
                    let at = raw.router % routers;
                    let spec = build_sub(raw);
                    let client = ClientId(next_sub as u64);
                    let id = pruned.subscribe(at, client, &spec).expect("pruned subscribe");
                    let id2 = flooded.subscribe(at, client, &spec).expect("flooded subscribe");
                    prop_assert_eq!(id, id2, "both fabrics allocate ids in lockstep");
                    oracle.register_plain(id, client, &spec).expect("oracle register");
                    live.push((id, next_sub, next_sub));
                    next_sub += 1;
                }
                Step::Unsubscribe(pick) => {
                    let (id, _, _) = live.remove(pick % live.len());
                    prop_assert!(pruned.unsubscribe(id).expect("pruned unsubscribe"));
                    prop_assert!(flooded.unsubscribe(id).expect("flooded unsubscribe"));
                    prop_assert!(oracle.unregister(id), "oracle had the subscription");
                }
                Step::Resubscribe(pick) => {
                    // The filter of another generated subscription (the
                    // pool is small, so broader, narrower, disjoint and
                    // identical replacements all occur); placement and
                    // client stay the id's own.
                    let entry = pick % live.len();
                    let (id, owner, _) = live[entry];
                    let filter = (owner + 1 + pick / live.len()) % subs.len();
                    live[entry].2 = filter;
                    let spec = build_sub(&subs[filter]);
                    pruned.resubscribe(id, &spec).expect("pruned re-registration");
                    flooded.resubscribe(id, &spec).expect("flooded re-registration");
                    oracle
                        .register_plain(id, ClientId(owner as u64), &spec)
                        .expect("oracle re-registration");
                }
            }

            // Probe — the generated publications plus a witness of every
            // live filter: all three views agree on every delivery. The
            // pruned fabric is probed from every router: a subscription
            // stranded behind one link is missed only by publications
            // that have to cross it.
            let publications: Vec<PublicationSpec> = publications
                .iter()
                .cloned()
                .chain(live.iter().map(|&(_, _, filter)| witness(&subs[filter])))
                .collect();
            let got_flooded = flooded.publish(publish_at, &publications).expect("flooded publish");
            let mut expected: Vec<Delivery> = Vec::new();
            for (p, publication) in publications.iter().enumerate() {
                for client in oracle.match_plain(publication).expect("oracle match") {
                    let raw = &subs[client.0 as usize];
                    expected.push(Delivery {
                        router: raw.router % routers,
                        client,
                        publication: p,
                    });
                }
            }
            expected.sort_unstable();
            prop_assert_eq!(
                &got_flooded, &expected,
                "flooded overlay disagrees with the flat oracle after step {}", step_no
            );
            for at in 0..routers {
                let got_pruned = pruned.publish(at, &publications).expect("pruned publish");
                prop_assert_eq!(
                    &got_pruned, &expected,
                    "overlay disagrees with the flat oracle after step {} (published at {})",
                    step_no, at
                );
            }
            assert_counters(&pruned, "pruned")?;
            assert_counters(&flooded, "flooded")?;
            // Pruning must never store more than flooding.
            prop_assert!(pruned.total_index_entries() <= flooded.total_index_entries());
        }

        // Everything was removed: state returns to baseline everywhere.
        for fabric in [&pruned, &flooded] {
            prop_assert_eq!(fabric.total_index_entries(), 0, "leaked index entries");
            prop_assert_eq!(fabric.total_forwarded(), 0, "leaked forwarding-table rows");
            for stats in fabric.broker_stats() {
                prop_assert_eq!(stats.subscriptions, 0, "router {} index not empty", stats.router);
            }
        }
    }

    /// Crash/rejoin arm: random crash points interleaved with sub/unsub
    /// churn stay delivery-equivalent to the flat oracle. A broker may
    /// crash at any point; while it is down, churn continues at the
    /// surviving brokers (frames toward the crashed one are dropped on
    /// the floor). After the rejoin — sealed restore + neighbour replay +
    /// stale-subscription reconciliation — the overlay must again
    /// deliver exactly what the flat oracle delivers, and at the end a
    /// fully drained fabric holds zero state.
    #[test]
    fn crash_rejoin_interleavings_stay_oracle_equivalent(
        parents in proptest::collection::vec(0usize..6, 1..5),
        subs in proptest::collection::vec(sub_strategy(), 1..8),
        script in proptest::collection::vec((0u8..4, 0usize..16), 0..20),
        pubs in proptest::collection::vec(pub_strategy(), 1..3),
        publish_router in 0usize..64,
        seed in 0u64..1_000,
    ) {
        let topology = build_tree(&parents);
        let routers = topology.routers();
        let publications: Vec<PublicationSpec> = pubs.iter().map(build_pub).collect();

        let mut fabric = OverlayFabric::build_with_producer(
            topology.clone(),
            FabricConfig::attested(seed),
            shared_producer(),
        ).expect("fabric");
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut oracle = FlatOracle::new(&mem);

        // id → (index into `subs`, actual edge router), for
        // oracle-expectation building; placement may dodge a crashed
        // router, so it is recorded per subscription.
        let mut live: Vec<(SubscriptionId, usize, usize)> = Vec::new();
        let mut next_sub = 0usize;
        let mut crashed: Option<usize> = None;

        let probe = |fabric: &mut OverlayFabric,
                         oracle: &FlatOracle,
                         live: &[(SubscriptionId, usize, usize)],
                         step_no: usize|
         -> Result<(), TestCaseError> {
            let at = publish_router % routers;
            let got = fabric.publish(at, &publications).expect("probe publish");
            let mut expected: Vec<Delivery> = Vec::new();
            for (p, publication) in publications.iter().enumerate() {
                for client in oracle.match_plain(publication).expect("oracle match") {
                    let &(_, _, placed) = live
                        .iter()
                        .find(|(_, idx, _)| *idx == client.0 as usize)
                        .expect("delivered client is live");
                    expected.push(Delivery { router: placed, client, publication: p });
                }
            }
            expected.sort_unstable();
            prop_assert_eq!(
                got, expected,
                "overlay disagrees with the flat oracle after step {}", step_no
            );
            assert_counters(fabric, "crash-rejoin")?;
            Ok(())
        };

        for (step_no, &(op, pick)) in script.iter().enumerate() {
            match op {
                // Subscribe the next generated subscription at its edge
                // router, dodging a crashed broker.
                0 if next_sub < subs.len() => {
                    let raw = &subs[next_sub];
                    let mut at = raw.router % routers;
                    if Some(at) == crashed {
                        at = (at + 1) % routers;
                    }
                    let client = ClientId(next_sub as u64);
                    let spec = build_sub(raw);
                    let id = fabric.subscribe(at, client, &spec).expect("subscribe");
                    oracle.register_plain(id, client, &spec).expect("oracle register");
                    live.push((id, next_sub, at));
                    next_sub += 1;
                }
                // Unsubscribe a live subscription homed at a live broker.
                1 if !live.is_empty() => {
                    let start = pick % live.len();
                    let Some(offset) = (0..live.len())
                        .find(|o| Some(live[(start + o) % live.len()].2) != crashed)
                    else { continue };
                    let (id, _, _) = live.remove((start + offset) % live.len());
                    prop_assert!(fabric.unsubscribe(id).expect("unsubscribe"));
                    prop_assert!(oracle.unregister(id), "oracle had the subscription");
                }
                // Crash a broker (one at a time).
                2 if crashed.is_none() => {
                    let victim = pick % routers;
                    fabric.crash(victim).expect("crash");
                    crashed = Some(victim);
                }
                // Restart and rejoin.
                3 => {
                    if let Some(victim) = crashed.take() {
                        fabric.restart(victim).expect("restart");
                    }
                }
                _ => {}
            }
            // Probe equivalence whenever the whole fabric is serving.
            if crashed.is_none() {
                probe(&mut fabric, &oracle, &live, step_no)?;
            }
        }

        // Heal, drain, and check for leaks.
        if let Some(victim) = crashed.take() {
            fabric.restart(victim).expect("final restart");
        }
        probe(&mut fabric, &oracle, &live, usize::MAX)?;
        for (id, _, _) in live.drain(..) {
            prop_assert!(fabric.unsubscribe(id).expect("drain unsubscribe"));
            prop_assert!(oracle.unregister(id));
        }
        prop_assert_eq!(fabric.total_index_entries(), 0, "leaked index entries");
        prop_assert_eq!(fabric.total_forwarded(), 0, "leaked forwarding-table rows");
        for stats in fabric.broker_stats() {
            prop_assert_eq!(stats.subscriptions, 0, "router {} index not empty", stats.router);
        }
    }

    /// Timer-driven recovery arm: random churn, silent crashes (singles
    /// and adjacent pairs), random per-broker tick strides (slow hosts)
    /// and random one-shot heartbeat losses. Nothing ever calls
    /// `restart` — every crash is recovered exclusively by the
    /// detection loop — and after every step the pruned fabric, the
    /// flooded fabric and the flat oracle must agree on every delivery.
    /// Delays and losses alone must never fence anyone, and every
    /// automatic fence must name a genuinely crashed broker.
    #[test]
    fn timer_driven_recovery_stays_oracle_equivalent(
        parents in proptest::collection::vec(0usize..6, 2..5),
        strides in proptest::collection::vec(1u64..4, 5),
        subs in proptest::collection::vec(sub_strategy(), 1..7),
        script in proptest::collection::vec((0u8..5, 0usize..32), 0..12),
        pubs in proptest::collection::vec(pub_strategy(), 1..3),
        (publish_router, seed) in (0usize..64, 0u64..1_000),
    ) {
        let topology = build_tree(&parents);
        let routers = topology.routers();
        let edges: Vec<(usize, usize)> =
            parents.iter().enumerate().map(|(i, p)| (p % (i + 1), i + 1)).collect();
        let publications: Vec<PublicationSpec> = pubs.iter().map(build_pub).collect();
        let publish_at = publish_router % routers;

        let producer = shared_producer();
        let mut pruned = OverlayFabric::build_with_producer(
            topology.clone(),
            FabricConfig::attested(seed),
            producer.clone(),
        ).expect("pruned fabric");
        let mut flooded = OverlayFabric::build_with_producer(
            topology.clone(),
            FabricConfig {
                propagation: Propagation::Flood,
                ..FabricConfig::attested(seed)
            },
            producer.clone(),
        ).expect("flooded fabric");
        // Delays: a stride-s broker only sees a timer tick every s-th
        // round. All strides stay under `SUSPECT_AFTER` so a slow host
        // is never silent long enough to be suspected.
        for (r, &s) in strides.iter().take(routers).enumerate() {
            pruned.set_tick_stride(r, s);
            flooded.set_tick_stride(r, s);
        }
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut oracle = FlatOracle::new(&mem);

        // id → index into `subs` (placement is always the natural edge
        // router — churn only happens on a fully serving fabric).
        let mut live: Vec<(SubscriptionId, usize)> = Vec::new();
        let mut next_sub = 0usize;

        for (step_no, &(op, pick)) in script.iter().enumerate() {
            match op {
                // Subscribe the next generated subscription.
                0 if next_sub < subs.len() => {
                    let raw = &subs[next_sub];
                    let at = raw.router % routers;
                    let spec = build_sub(raw);
                    let client = ClientId(next_sub as u64);
                    let id = pruned.subscribe(at, client, &spec).expect("pruned subscribe");
                    let id2 = flooded.subscribe(at, client, &spec).expect("flooded subscribe");
                    prop_assert_eq!(id, id2, "both fabrics allocate ids in lockstep");
                    oracle.register_plain(id, client, &spec).expect("oracle register");
                    live.push((id, next_sub));
                    next_sub += 1;
                }
                // Unsubscribe a random live subscription.
                1 if !live.is_empty() => {
                    let (id, _) = live.remove(pick % live.len());
                    prop_assert!(pruned.unsubscribe(id).expect("pruned unsubscribe"));
                    prop_assert!(flooded.unsubscribe(id).expect("flooded unsubscribe"));
                    prop_assert!(oracle.unregister(id), "oracle had the subscription");
                }
                // Silent crash — a single broker (op 2) or an adjacent
                // pair (op 3) — with mid-outage churn, recovered only by
                // the detection loop.
                2 | 3 => {
                    let victim = pick % routers;
                    let mut crashed = vec![victim];
                    if op == 3 && routers > 2 {
                        let nbrs = topology.neighbors(victim);
                        crashed.push(nbrs[pick % nbrs.len()]);
                    }
                    for &v in &crashed {
                        pruned.crash(v).expect("crash pruned");
                        flooded.crash(v).expect("crash flooded");
                    }
                    // Mid-outage churn: remove one subscription homed at
                    // a surviving broker, if any — its removal frames
                    // toward the dead region are dropped and must be
                    // reconciled by the automatic rejoins.
                    if let Some(i) = (0..live.len())
                        .find(|&i| !crashed.contains(&(subs[live[i].1].router % routers)))
                    {
                        let (id, _) = live.remove(i);
                        prop_assert!(pruned.unsubscribe(id).expect("pruned unsubscribe"));
                        prop_assert!(flooded.unsubscribe(id).expect("flooded unsubscribe"));
                        prop_assert!(oracle.unregister(id), "oracle had the subscription");
                    }
                    crashed.sort_unstable();
                    crashed.dedup();
                    for fabric in [&mut pruned, &mut flooded] {
                        let rejoins = fabric.run_detection(128).expect("detection settles");
                        let mut victims: Vec<usize> =
                            rejoins.iter().map(|r| r.router).collect();
                        victims.sort_unstable();
                        prop_assert_eq!(
                            &victims, &crashed,
                            "every fence names a real crash and every crash is fenced \
                             (step {})", step_no
                        );
                    }
                }
                // One-shot heartbeat loss on a random edge direction
                // whose sender ticks every round (a slower sender plus a
                // loss could legitimately look dead). The next frame on
                // the sealed link arrives a sequence number ahead: a
                // `Gap`, then `Suspect { Gap }` once the grace runs out,
                // a re-key and a `Healed` replay.
                4 => {
                    let (a, b) = edges[pick % edges.len()];
                    let (from, to) =
                        if (pick / edges.len()).is_multiple_of(2) { (a, b) } else { (b, a) };
                    if strides.get(from).copied().unwrap_or(1) == 1 {
                        pruned.drop_next_frame(from, to);
                        flooded.drop_next_frame(from, to);
                    }
                    for fabric in [&mut pruned, &mut flooded] {
                        let mut rejoins = Vec::new();
                        for _ in 0..3 {
                            rejoins.extend(fabric.tick_round().expect("tick round"));
                        }
                        rejoins.extend(fabric.run_detection(16).expect("the gap heals"));
                        prop_assert!(
                            rejoins.is_empty(),
                            "a lost heartbeat must never fence an alive broker (step {})",
                            step_no
                        );
                    }
                }
                _ => {}
            }

            // Probe: pruned ≡ flooded ≡ flat oracle after every step.
            let got_pruned = pruned.publish(publish_at, &publications).expect("pruned publish");
            let got_flooded =
                flooded.publish(publish_at, &publications).expect("flooded publish");
            prop_assert_eq!(
                &got_pruned, &got_flooded,
                "pruned and flooded disagree after step {}", step_no
            );
            let mut expected: Vec<Delivery> = Vec::new();
            for (p, publication) in publications.iter().enumerate() {
                for client in oracle.match_plain(publication).expect("oracle match") {
                    let raw = &subs[client.0 as usize];
                    expected.push(Delivery {
                        router: raw.router % routers,
                        client,
                        publication: p,
                    });
                }
            }
            expected.sort_unstable();
            prop_assert_eq!(
                got_pruned, expected,
                "overlay disagrees with the flat oracle after step {}", step_no
            );
            assert_counters(&pruned, "pruned")?;
            assert_counters(&flooded, "flooded")?;
        }

        // Drain everything: recovery left no leaked rows behind.
        for (id, _) in live.drain(..) {
            prop_assert!(pruned.unsubscribe(id).expect("drain pruned"));
            prop_assert!(flooded.unsubscribe(id).expect("drain flooded"));
            prop_assert!(oracle.unregister(id));
        }
        for fabric in [&pruned, &flooded] {
            prop_assert_eq!(fabric.total_index_entries(), 0, "leaked index entries");
            prop_assert_eq!(fabric.total_forwarded(), 0, "leaked forwarding-table rows");
        }
    }

    /// Telemetry arm: an **instrumented** fabric (stage histograms, hop
    /// tracing, trace ids on every batch) must be behaviourally
    /// indistinguishable from an uninstrumented twin across the whole
    /// lifecycle — identical delivery sets, identical forwarding-table
    /// rows, identical index occupancy, through churn and a crash/rejoin.
    /// Observation must never steer routing.
    #[test]
    fn instrumented_fabric_is_behaviourally_identical(
        parents in proptest::collection::vec(0usize..6, 1..5),
        subs in proptest::collection::vec(sub_strategy(), 1..8),
        script in proptest::collection::vec((0u8..4, 0usize..16), 0..16),
        pubs in proptest::collection::vec(pub_strategy(), 1..3),
        (publish_router, seed) in (0usize..64, 0u64..1_000),
    ) {
        let topology = build_tree(&parents);
        let routers = topology.routers();
        let publish_at = publish_router % routers;
        let publications: Vec<PublicationSpec> = pubs.iter().map(build_pub).collect();

        let producer = shared_producer();
        let config = FabricConfig::attested(seed);
        let mut plain = OverlayFabric::build_with_producer(
            topology.clone(),
            config,
            producer.clone(),
        ).expect("uninstrumented fabric");
        let mut instrumented = OverlayFabric::build_with_producer(
            topology.clone(),
            config.with_telemetry(),
            producer.clone(),
        ).expect("instrumented fabric");

        let mut live: Vec<(SubscriptionId, usize)> = Vec::new();
        let mut next_sub = 0usize;
        let mut crashed: Option<usize> = None;

        for (step_no, &(op, pick)) in script.iter().enumerate() {
            match op {
                0 if next_sub < subs.len() => {
                    let raw = &subs[next_sub];
                    let mut at = raw.router % routers;
                    if Some(at) == crashed {
                        at = (at + 1) % routers;
                    }
                    let client = ClientId(next_sub as u64);
                    let spec = build_sub(raw);
                    let id = plain.subscribe(at, client, &spec).expect("plain subscribe");
                    let id2 = instrumented
                        .subscribe(at, client, &spec)
                        .expect("instrumented subscribe");
                    prop_assert_eq!(id, id2, "id allocation in lockstep");
                    live.push((id, at));
                    next_sub += 1;
                }
                1 if !live.is_empty() => {
                    // Unsubscribe a live subscription homed at a live broker.
                    let start = pick % live.len();
                    let Some(offset) = (0..live.len())
                        .find(|o| Some(live[(start + o) % live.len()].1) != crashed)
                    else { continue };
                    let (id, _) = live.remove((start + offset) % live.len());
                    let a = plain.unsubscribe(id).expect("plain unsubscribe");
                    let b = instrumented.unsubscribe(id).expect("instrumented unsubscribe");
                    prop_assert_eq!(a, b, "unsubscribe outcome diverged at step {}", step_no);
                }
                2 if crashed.is_none() => {
                    let victim = pick % routers;
                    plain.crash(victim).expect("plain crash");
                    instrumented.crash(victim).expect("instrumented crash");
                    crashed = Some(victim);
                }
                3 => {
                    if let Some(victim) = crashed.take() {
                        let a = plain.restart(victim).expect("plain restart");
                        let b = instrumented.restart(victim).expect("instrumented restart");
                        prop_assert_eq!(a, b, "rejoin reports diverged at step {}", step_no);
                    }
                }
                _ => {}
            }

            if crashed.is_some() {
                continue; // probe only a fully serving pair
            }
            let got_plain =
                plain.publish(publish_at, &publications).expect("plain publish");
            let (trace, got_instrumented) = instrumented
                .publish_traced(publish_at, &publications)
                .expect("instrumented publish");
            prop_assert!(trace.is_some(), "instrumented batches always carry a trace");
            prop_assert_eq!(
                &got_plain, &got_instrumented,
                "instrumentation changed deliveries at step {}", step_no
            );
            // Structural state marches in lockstep too.
            prop_assert_eq!(plain.total_index_entries(), instrumented.total_index_entries());
            prop_assert_eq!(plain.total_forwarded(), instrumented.total_forwarded());
            prop_assert_eq!(plain.total_pruned(), instrumented.total_pruned());
            prop_assert_eq!(plain.total_uncovered(), instrumented.total_uncovered());
        }

        // The instrumented fabric actually observed something, and the
        // observations drain without disturbing either fabric.
        if let Some(victim) = crashed.take() {
            plain.restart(victim).expect("final plain restart");
            instrumented.restart(victim).expect("final instrumented restart");
        }
        let snap = instrumented.telemetry();
        prop_assert!(snap.fabric.get("total.ecalls").is_some());
        let got_plain = plain.publish(publish_at, &publications).expect("final plain");
        let got_instrumented =
            instrumented.publish(publish_at, &publications).expect("final instrumented");
        prop_assert_eq!(got_plain, got_instrumented, "post-drain deliveries diverged");
    }

    /// The final-drain guarantee: removing every subscription, half before
    /// a publication and half after, leaves no index entry and no
    /// forwarded row on any broker.
    #[test]
    fn all_index_kinds_drain_to_empty(
        parents in proptest::collection::vec(0usize..4, 1..4),
        subs in proptest::collection::vec(sub_strategy(), 1..6),
        pubs in proptest::collection::vec(pub_strategy(), 1..2),
        seed in 0u64..1_000,
    ) {
        let topology = build_tree(&parents);
        let routers = topology.routers();
        let publications: Vec<PublicationSpec> = pubs.iter().map(build_pub).collect();
        let mut fabric = OverlayFabric::build_with_producer(
            topology.clone(),
            FabricConfig::attested(seed),
            shared_producer(),
        ).expect("fabric");
        let mut ids = Vec::new();
        for (i, raw) in subs.iter().enumerate() {
            let at = raw.router % routers;
            ids.push(fabric.subscribe(at, ClientId(i as u64), &build_sub(raw)).expect("subscribe"));
        }
        // Remove the first half, publish, remove the rest.
        let half = ids.len() / 2;
        for id in &ids[..half] {
            prop_assert!(fabric.unsubscribe(*id).expect("unsubscribe"));
        }
        // Deliveries reflect only the surviving half.
        let deliveries = fabric.publish(0, &publications).expect("publish");
        for d in &deliveries {
            prop_assert!((d.client.0 as usize) >= half, "removed subscription still delivering");
        }
        for id in &ids[half..] {
            prop_assert!(fabric.unsubscribe(*id).expect("unsubscribe rest"));
        }
        prop_assert_eq!(fabric.total_index_entries(), 0, "leaked entries");
        prop_assert_eq!(fabric.total_forwarded(), 0, "leaked rows");
    }
}
