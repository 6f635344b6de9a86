//! Failover and sealed recovery: the crash → rejoin path end to end.
//!
//! A broker crash loses all volatile state; recovery combines two
//! sources with different trust stories:
//!
//! * the **sealed recovery record** (engine snapshot with delivery
//!   identities, live envelopes with origins, per-link covering tables),
//!   rollback-protected by a platform monotonic counter — a stale record
//!   served by the untrusted host must be *refused*;
//! * **neighbour replay** of each surviving link's live forwarded set,
//!   which reconciles everything that changed while the broker was down:
//!   new subscriptions re-admit, removed ones are dropped with full
//!   uncovering bookkeeping and propagated down the reverse path.
//!
//! These tests pin the acceptance properties: recovery traffic touches
//! only the crashed broker's incident links, restored link interfaces
//! stay interfaces (not edge clients), rollback is refused, sequence
//! gaps surface as typed liveness events, and post-rejoin delivery is
//! exact.

use scbr::ids::{ClientId, KeyEpoch};
use scbr::{PublicationSpec, SubscriptionSpec};
use scbr_overlay::fabric::{FabricConfig, OverlayFabric};
use scbr_overlay::{
    Delivery, HeartbeatConfig, Lifecycle, LinkEvent, OverlayError, SuspectReason, Topology,
};
use sgx_sim::SgxError;

/// Recovery traffic stays on the crashed broker's incident links: with
/// no churn during the outage, a rejoin exchanges handshake + replay
/// frames with the neighbours and *nothing* beyond them — the tree does
/// not re-propagate.
#[test]
fn rejoin_touches_only_incident_links() {
    let mut fabric =
        OverlayFabric::build(Topology::line(4), FabricConfig::attested(50)).expect("build");
    // Interest everywhere: a broad sub at each end populates every
    // forwarding table.
    fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    fabric.subscribe(3, ClientId(2), &SubscriptionSpec::new().lt("volume", 100.0)).unwrap();

    fabric.crash(1).unwrap();
    let before = fabric.edge_frames().clone();
    let report = fabric.restart(1).unwrap();
    let after = fabric.edge_frames().clone();

    // Frames moved only on (0↔1) and (1↔2).
    let incident = [(0, 1), (1, 0), (1, 2), (2, 1)];
    for (edge, count) in &after {
        let delta = count - before.get(edge).copied().unwrap_or(0);
        if incident.contains(edge) {
            continue;
        }
        assert_eq!(delta, 0, "non-incident edge {edge:?} carried {delta} recovery frames");
    }
    let incident_delta: u64 = incident
        .iter()
        .map(|e| after.get(e).copied().unwrap_or(0) - before.get(e).copied().unwrap_or(0))
        .sum();
    assert_eq!(report.recovery_frames, incident_delta, "report matches the per-edge ledger");
    assert!(report.recovery_frames > 0, "handshakes + replay happened");
    // The two broad subscriptions were restored from the seal (both are
    // link-interface copies at router 1); the neighbours re-confirmed
    // the rows they had forwarded to router 1.
    assert_eq!(report.restored, 2, "one link-interface copy per direction");
    assert_eq!(report.replayed, 2, "one replayed envelope per neighbour");
    assert_eq!(report.dropped_stale, 0);

    // Delivery is exact after the rejoin.
    let deliveries = fabric
        .publish(2, &[PublicationSpec::new().attr("price", 5.0).attr("volume", 50.0)])
        .unwrap();
    assert_eq!(
        deliveries,
        vec![
            Delivery { router: 0, client: ClientId(1), publication: 0 },
            Delivery { router: 3, client: ClientId(2), publication: 0 },
        ]
    );
}

/// A restored broker re-registers link interfaces as *interfaces*: the
/// subscriber behind it gets its deliveries at its own edge broker, and
/// the restored middle broker never "delivers" them locally.
#[test]
fn restored_link_interfaces_stay_interfaces() {
    let mut fabric =
        OverlayFabric::build(Topology::line(3), FabricConfig::attested(51)).expect("build");
    fabric.subscribe(0, ClientId(7), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();
    fabric.crash(1).unwrap();
    fabric.restart(1).unwrap();
    // Publish behind the restored broker: the match at router 1 must
    // route on the link interface toward router 0 — an edge-semantics
    // regression would deliver to a phantom local client at router 1.
    let deliveries = fabric.publish(2, &[PublicationSpec::new().attr("symbol", "HAL")]).unwrap();
    assert_eq!(deliveries, vec![Delivery { router: 0, client: ClientId(7), publication: 0 }]);
}

/// A host serving a stale-but-authentic sealed record is caught by the
/// monotonic counter: the broker refuses to rejoin and stays crashed;
/// the genuine latest record still restores.
#[test]
fn stale_sealed_record_is_refused() {
    let mut fabric =
        OverlayFabric::build(Topology::line(2), FabricConfig::attested(52)).expect("build");
    fabric.subscribe(1, ClientId(1), &SubscriptionSpec::new().gt("price", 1.0)).unwrap();
    let stale = fabric.sealed_record(1).expect("checkpoint after first subscribe");
    fabric.subscribe(1, ClientId(2), &SubscriptionSpec::new().gt("price", 2.0)).unwrap();
    let latest = fabric.sealed_record(1).expect("checkpoint after second subscribe");

    fabric.crash(1).unwrap();
    fabric.set_sealed_record(1, stale);
    let result = fabric.restart(1);
    assert!(
        matches!(result, Err(OverlayError::Sgx(SgxError::UnsealFailed { .. }))),
        "stale record must be refused, got {result:?}"
    );
    assert_eq!(fabric.lifecycle(1), Lifecycle::Crashed, "refused broker stays crashed");

    // The genuine latest record restores both subscriptions.
    fabric.set_sealed_record(1, latest);
    let report = fabric.restart(1).unwrap();
    assert_eq!(report.restored, 2);
    assert_eq!(fabric.lifecycle(1), Lifecycle::Serving);
    let deliveries = fabric.publish(0, &[PublicationSpec::new().attr("price", 3.0)]).unwrap();
    assert_eq!(deliveries.len(), 2);
}

/// Splits a host recovery file into its entries (`u32` big-endian
/// length, then the blob; the first entry is the base) — nothing the
/// host could not do to the bytes on its own disk.
fn file_entries(file: &[u8]) -> Vec<Vec<u8>> {
    let mut entries = Vec::new();
    let mut rest = file;
    while !rest.is_empty() {
        let (len, tail) = rest.split_at(4);
        let (blob, tail) = tail.split_at(u32::from_be_bytes(len.try_into().unwrap()) as usize);
        entries.push(blob.to_vec());
        rest = tail;
    }
    entries
}

fn file_of(entries: &[&Vec<u8>]) -> Vec<u8> {
    let mut file = Vec::new();
    for blob in entries {
        file.extend_from_slice(&(blob.len() as u32).to_be_bytes());
        file.extend_from_slice(blob);
    }
    file
}

/// The host owns the disk, and the record on it is now a *chain*: a
/// sealed base plus sealed deltas. Everything it can do to that chain
/// short of serving it whole and current — cut the tail, drop, swap or
/// repeat a delta, splice deltas across a compaction in either
/// direction, promote a delta to base, flip a bit anywhere, serve an
/// older complete file — is refused exactly like a stale whole record:
/// the restart fails, the broker stays crashed with nothing restored and
/// the file untouched; the genuine file then restores everything.
#[test]
fn edited_record_chains_are_refused() {
    let mut fabric =
        OverlayFabric::build(Topology::line(2), FabricConfig::attested(66)).expect("build");
    // Subscribe at router 1 until its file has been through a generation
    // of base + ≥ 3 deltas, a compaction, and ≥ 3 deltas again; keep the
    // last file of the first generation.
    let mut old: Option<Vec<u8>> = None;
    let mut subscribed = 0u64;
    loop {
        let before = fabric.broker_stats()[1];
        let previous = fabric.sealed_record(1);
        let spec = SubscriptionSpec::new().gt("price", subscribed as f64);
        fabric.subscribe(1, ClientId(subscribed), &spec).unwrap();
        subscribed += 1;
        let after = fabric.broker_stats()[1];
        if after.compactions > before.compactions && before.log_entries >= 3 {
            old = previous;
        }
        if old.is_some() && after.log_entries >= 3 {
            break;
        }
        assert!(subscribed < 200, "compaction rule never produced two long generations");
    }
    let genuine = fabric.sealed_record(1).unwrap();
    let (old, new) = (file_entries(&old.unwrap()), file_entries(&genuine));
    assert!(old.len() >= 4 && new.len() >= 4, "base + ≥ 3 deltas on both sides");
    let (a, a_deltas) = old.split_first().unwrap();
    let (b, b_deltas) = new.split_first().unwrap();
    let with_base = |base: &'_ Vec<u8>, deltas: &'_ [Vec<u8>]| -> Vec<u8> {
        file_of(&std::iter::once(base).chain(deltas).collect::<Vec<_>>())
    };

    let mut attacks: Vec<(&str, Vec<u8>)> = vec![
        ("tail cut off", with_base(b, &b_deltas[..b_deltas.len() - 1])),
        ("deltas withheld", with_base(b, &[])),
        ("middle delta dropped", file_of(&[b, &b_deltas[0], &b_deltas[2]])),
        ("two deltas swapped", {
            let mut d = b_deltas.to_vec();
            d.swap(0, 1);
            with_base(b, &d)
        }),
        ("a delta repeated", {
            let mut d = b_deltas.to_vec();
            d.insert(1, b_deltas[0].clone());
            with_base(b, &d)
        }),
        ("pre-compaction deltas on the post-compaction base", with_base(b, a_deltas)),
        ("post-compaction deltas on the pre-compaction base", with_base(a, b_deltas)),
        ("a delta in base position", with_base(&b_deltas[0], &b_deltas[1..])),
        ("an older whole file", with_base(a, a_deltas)),
    ];
    for victim in 0..new.len() {
        let mut bent = new.clone();
        let middle = bent[victim].len() / 2;
        bent[victim][middle] ^= 0x10;
        attacks.push(("one bit flipped", file_of(&bent.iter().collect::<Vec<_>>())));
    }

    fabric.crash(1).unwrap();
    for (what, file) in attacks {
        fabric.set_sealed_record(1, file.clone());
        let result = fabric.restart(1);
        assert!(
            matches!(result, Err(OverlayError::Sgx(SgxError::UnsealFailed { .. }))),
            "{what}: must be refused, got {result:?}"
        );
        assert_eq!(fabric.lifecycle(1), Lifecycle::Crashed, "{what}: refused broker stays crashed");
        assert_eq!(fabric.broker_stats()[1].subscriptions, 0, "{what}: nothing was restored");
        assert_eq!(fabric.sealed_record(1), Some(file), "{what}: the file is untouched");
    }

    // The genuine file is mid-chain, a base and ≥ 3 deltas. Closing the
    // neighbour's replay forces a base however short the chain is, so the
    // rejoined broker's file is one entry again.
    let compactions = fabric.broker_stats()[1].compactions;
    fabric.set_sealed_record(1, genuine);
    let report = fabric.restart(1).unwrap();
    assert_eq!(report.restored as u64, subscribed);
    assert_eq!(fabric.lifecycle(1), Lifecycle::Serving);
    let rejoined = fabric.broker_stats()[1];
    assert_eq!((rejoined.compactions, rejoined.log_entries), (compactions + 1, 0));
    assert_eq!(file_entries(&fabric.sealed_record(1).unwrap()).len(), 1);
    let deliveries = fabric.publish(0, &[PublicationSpec::new().attr("price", 1e9)]).unwrap();
    assert_eq!(deliveries.len() as u64, subscribed);
}

/// A delta that removes an id the base never held — or removes one
/// twice — is not a record the enclave wrote: the live core journals a
/// retirement only for an id it holds, so redo refuses the file instead
/// of skipping the entry. Forging a delta at all takes a pre-shared
/// fabric, whose chain is stored unsealed; under attestation the MAC
/// refuses it first (`edited_record_chains_are_refused`).
#[test]
fn a_delta_that_removes_an_id_the_base_never_held_is_refused() {
    let mut fabric =
        OverlayFabric::build(Topology::line(2), FabricConfig::preshared(67)).expect("build");
    let mut ids = Vec::new();
    for i in 0..3u64 {
        let spec = SubscriptionSpec::new().gt("price", i as f64);
        ids.push(fabric.subscribe(1, ClientId(i), &spec).unwrap());
    }
    let genuine = fabric.sealed_record(1).unwrap();
    // A journalled retirement: kind 2, the id, origin tag 0 (local).
    let removal = |id: u64| [&[2u8][..], &id.to_be_bytes(), &[0]].concat();
    let appended = |deltas: &[Vec<u8>]| {
        let entries = file_entries(&genuine);
        file_of(&entries.iter().chain(deltas).collect::<Vec<_>>())
    };

    fabric.crash(1).unwrap();
    for (what, file) in [
        ("an id never admitted", appended(&[removal(77)])),
        ("an id already removed", appended(&[removal(ids[0].0), removal(ids[0].0)])),
    ] {
        fabric.set_sealed_record(1, file.clone());
        let result = fabric.restart(1);
        assert!(matches!(result, Err(OverlayError::Routing(_))), "{what}: got {result:?}");
        assert_eq!(fabric.lifecycle(1), Lifecycle::Crashed, "{what}: refused broker stays crashed");
        assert_eq!(fabric.broker_stats()[1].subscriptions, 0, "{what}: nothing was restored");
        assert_eq!(fabric.sealed_record(1), Some(file), "{what}: the file is untouched");
    }

    fabric.set_sealed_record(1, genuine);
    assert_eq!(fabric.restart(1).unwrap().restored, 3);
    let deliveries = fabric.publish(0, &[PublicationSpec::new().attr("price", 9.0)]).unwrap();
    assert_eq!(deliveries.len(), 3);
}

/// A subscription removed while a broker was down is reconciled at
/// rejoin: the neighbour's replay no longer vouches for it, so the
/// rejoiner drops it and propagates authenticated `sub-drop`s down the
/// reverse path — the whole fabric drains back to zero state.
#[test]
fn removals_during_outage_reconcile_via_replay() {
    let mut fabric =
        OverlayFabric::build(Topology::line(3), FabricConfig::preshared(53)).expect("build");
    let broad =
        fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    assert_eq!(fabric.total_index_entries(), 3, "one copy per broker");

    fabric.crash(1).unwrap();
    // The removal happens while router 1 is down: the sub-remove frame
    // toward it is dropped, and routers 1 (sealed state) and 2 (live
    // state) still hold the subscription.
    assert!(fabric.unsubscribe(broad).unwrap());
    assert!(fabric.dropped_frames() > 0);

    let report = fabric.restart(1).unwrap();
    assert_eq!(report.restored, 1, "the stale subscription came back from the seal");
    assert_eq!(report.dropped_stale, 1, "replay reconciliation dropped it again");
    assert_eq!(fabric.total_index_entries(), 0, "the drop propagated to router 2");
    assert_eq!(fabric.total_forwarded(), 0, "no leaked forwarding rows anywhere");
    assert!(fabric.publish(2, &[PublicationSpec::new().attr("price", 9.0)]).unwrap().is_empty());
}

/// A subscription added while a broker was down reaches it (and its
/// subtree) through the neighbour replay, with normal covering
/// bookkeeping.
#[test]
fn additions_during_outage_arrive_via_replay() {
    let mut fabric =
        OverlayFabric::build(Topology::line(3), FabricConfig::preshared(54)).expect("build");
    fabric.crash(1).unwrap();
    fabric.subscribe(0, ClientId(5), &SubscriptionSpec::new().eq("symbol", "INTC")).unwrap();
    // The forward toward the crashed broker was dropped; router 2 knows
    // nothing either.
    assert_eq!(fabric.total_index_entries(), 1);

    let report = fabric.restart(1).unwrap();
    assert_eq!(report.replayed, 1, "router 0 replayed the new envelope");
    assert_eq!(fabric.total_index_entries(), 3, "routers 1 and 2 now hold interface copies");
    let deliveries = fabric.publish(2, &[PublicationSpec::new().attr("symbol", "INTC")]).unwrap();
    assert_eq!(deliveries, vec![Delivery { router: 0, client: ClientId(5), publication: 0 }]);
}

/// A frame lost on a sealed link surfaces as a typed `Gap` event (the
/// liveness signal) and is counted in the broker stats; re-keying the
/// link through a crash/rejoin heals it.
#[test]
fn lost_frames_surface_as_gap_events_and_rekey_heals() {
    let mut fabric =
        OverlayFabric::build(Topology::line(2), FabricConfig::attested(55)).expect("build");
    fabric.subscribe(1, ClientId(3), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    fabric.take_events();

    // First publication: the frame 0→1 is lost in transit.
    fabric.drop_next_frame(0, 1);
    let lost = fabric.publish(0, &[PublicationSpec::new().attr("price", 1.0)]).unwrap();
    assert!(lost.is_empty(), "the only interested subscriber is behind the lost frame");
    assert_eq!(fabric.total_gaps(), 0, "a dropped frame alone is silent");

    // Second publication: its frame arrives with a sequence one ahead —
    // authentic proof of the loss. Publish succeeds; the event fires.
    let after = fabric.publish(0, &[PublicationSpec::new().attr("price", 2.0)]).unwrap();
    assert!(after.is_empty(), "the gapped link cannot deliver");
    assert_eq!(fabric.total_gaps(), 1);
    let events = fabric.take_events();
    assert!(
        events.iter().any(|(router, e)| *router == 1
            && matches!(e, LinkEvent::Gap { link: 0, expected: 0, got: 1 })),
        "typed gap event with the exact sequence window, got {events:?}"
    );

    // The link is dead until re-keyed: crash/rejoin resets both ends.
    fabric.crash(1).unwrap();
    let report = fabric.restart(1).unwrap();
    assert_eq!(report.restored, 1);
    let healed = fabric.publish(0, &[PublicationSpec::new().attr("price", 3.0)]).unwrap();
    assert_eq!(healed, vec![Delivery { router: 1, client: ClientId(3), publication: 0 }]);
}

/// The operator can advance the key epoch across a crash: publications
/// after the rejoin carry the new epoch (the restart does not resurrect
/// the old one).
#[test]
fn epoch_advances_across_a_restart() {
    let mut fabric = OverlayFabric::build(
        Topology::line(2),
        FabricConfig { epoch: KeyEpoch(1), ..FabricConfig::preshared(56) },
    )
    .expect("build");
    fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("x", 0.0)).unwrap();
    fabric.crash(1).unwrap();
    fabric.set_epoch(KeyEpoch(2));
    fabric.restart(1).unwrap();
    assert_eq!(fabric.epoch(), KeyEpoch(2));
    let deliveries = fabric.publish(1, &[PublicationSpec::new().attr("x", 1.0)]).unwrap();
    assert_eq!(deliveries.len(), 1);
}

/// Crashing and restarting the same broker repeatedly keeps recovering
/// exactly, and the counter ledger — including the pruned counter, which
/// a replay must not double-count — survives every generation.
#[test]
fn repeated_crash_rejoin_cycles_stay_consistent() {
    let mut fabric =
        OverlayFabric::build(Topology::star(4), FabricConfig::preshared(57)).expect("build");
    fabric.subscribe(1, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    // Covered by client 1's interest on the hub's links toward 3: the
    // hub prunes it exactly once, and rejoins must not count it again.
    fabric.subscribe(2, ClientId(2), &SubscriptionSpec::new().gt("price", 10.0)).unwrap();
    fabric.subscribe(3, ClientId(3), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();
    let entries = fabric.total_index_entries();
    let rows = fabric.total_forwarded();
    let pruned = fabric.broker_stats()[0].pruned;
    assert!(pruned > 0, "the covering pair prunes at the hub");
    for round in 0..3 {
        fabric.crash(0).unwrap();
        fabric.restart(0).unwrap();
        assert_eq!(fabric.total_index_entries(), entries, "round {round}: entries recovered");
        assert_eq!(fabric.total_forwarded(), rows, "round {round}: rows recovered");
        assert_eq!(
            fabric.broker_stats()[0].pruned,
            pruned,
            "round {round}: replay must not double-count pruning"
        );
        for stats in fabric.broker_stats() {
            assert_eq!(
                stats.forwarded,
                stats.forwarded_total - stats.removed,
                "round {round}: ledger holds at router {}",
                stats.router
            );
        }
        let deliveries = fabric
            .publish(0, &[PublicationSpec::new().attr("price", 20.0).attr("symbol", "HAL")])
            .unwrap();
        assert_eq!(deliveries.len(), 3, "round {round}: delivery exact after rejoin");
    }
}

/// Two *adjacent* crashed brokers rejoin sequentially: the first restart
/// skips the still-dead neighbour (no replay possible), serves again,
/// and the second restart's replay reconciles both sides — including a
/// removal that happened while both were down.
#[test]
fn adjacent_crashes_rejoin_sequentially() {
    let mut fabric =
        OverlayFabric::build(Topology::line(3), FabricConfig::preshared(58)).expect("build");
    let doomed =
        fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    let keep =
        fabric.subscribe(2, ClientId(2), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();

    fabric.crash(1).unwrap();
    fabric.crash(2).unwrap();
    // Removed while both 1 and 2 are down: only router 0 hears.
    assert!(fabric.unsubscribe(doomed).unwrap());

    // Restart 1 first: its neighbour 2 is still dead, so the rejoin
    // replays from 0 alone and completes. 0 no longer vouches for the
    // doomed subscription, so 1 drops its restored copy; the sub-drop
    // toward 2 is lost (2 is down) — 2 reconciles on its own rejoin.
    let report = fabric.restart(1).unwrap();
    assert_eq!(fabric.lifecycle(1), Lifecycle::Serving);
    assert_eq!(report.dropped_stale, 1, "stale sub dropped via router 0's replay");

    // Restart 2: full replay from the now-serving 1.
    let report = fabric.restart(2).unwrap();
    assert_eq!(fabric.lifecycle(2), Lifecycle::Serving);
    assert_eq!(report.dropped_stale, 1, "router 2's restored copy reconciled too");

    // Everything converged: only `keep` is live anywhere.
    assert_eq!(fabric.total_index_entries(), 3, "one copy of `keep` per broker");
    let deliveries = fabric
        .publish(0, &[PublicationSpec::new().attr("symbol", "HAL").attr("price", 5.0)])
        .unwrap();
    assert_eq!(deliveries, vec![Delivery { router: 2, client: ClientId(2), publication: 0 }]);
    assert!(fabric.unsubscribe(keep).unwrap());
    assert_eq!(fabric.total_index_entries(), 0, "drained clean after the double failure");
    assert_eq!(fabric.total_forwarded(), 0);
}

// ---- timer-driven failure detection ------------------------------------

/// Regression for the swallowed-tick bug: a `Serving` broker's timer
/// tick used to early-return before any steady-state work could run.
/// With heartbeats configured, one detection round makes every serving
/// broker emit heartbeat frames on its established links.
#[test]
fn serving_brokers_do_tick_work() {
    let mut fabric = OverlayFabric::build(
        Topology::line(3),
        FabricConfig::preshared(60).with_heartbeats(HeartbeatConfig::fast()),
    )
    .expect("build");
    assert_eq!(fabric.total_heartbeats(), 0);
    fabric.tick_round().unwrap();
    // Each broker heartbeats every established link: 2·(edge count).
    assert_eq!(fabric.total_heartbeats(), 4, "one heartbeat per directed edge per round");
    fabric.tick_round().unwrap();
    assert_eq!(fabric.total_heartbeats(), 8);
    // Heartbeats are pure liveness: no deliveries, no index movement,
    // no suspicion among healthy brokers.
    assert!(fabric.suspicions().is_empty());
    assert!(fabric.settled());
}

/// The zero-operator recovery path: a broker crashes silently, and the
/// detection loop alone — heartbeat silence, quorum suspicion, fence,
/// rejoin — returns it to `Serving`. No `restart` call anywhere.
#[test]
fn silent_crash_is_detected_and_rejoined_automatically() {
    let mut fabric = OverlayFabric::build(
        Topology::line(3),
        FabricConfig::preshared(61).with_heartbeats(HeartbeatConfig::fast()),
    )
    .expect("build");
    fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    fabric.subscribe(2, ClientId(2), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();

    fabric.crash(1).unwrap();
    let rejoins = fabric.run_detection(32).expect("fabric settles");
    assert_eq!(rejoins.len(), 1, "exactly one automatic fence-and-restart");
    assert_eq!(rejoins[0].router, 1);
    assert!(rejoins[0].round >= HeartbeatConfig::fast().suspect_after, "suspicion needs silence");
    assert_eq!(fabric.lifecycle(1), Lifecycle::Serving);
    assert!(fabric.settled());

    // The drop ledger is assertable per edge and sums to the total.
    let ledger: u64 = fabric.edge_drops().values().sum();
    assert_eq!(ledger, fabric.dropped_frames());
    assert!(
        fabric.edge_drops().keys().all(|&(_, to)| to == 1),
        "only frames toward the crashed broker were lost: {:?}",
        fabric.edge_drops()
    );

    // Delivery is exact again, both directions through the healed hop.
    let deliveries = fabric
        .publish(1, &[PublicationSpec::new().attr("price", 5.0).attr("symbol", "HAL")])
        .unwrap();
    assert_eq!(
        deliveries,
        vec![
            Delivery { router: 0, client: ClientId(1), publication: 0 },
            Delivery { router: 2, client: ClientId(2), publication: 0 },
        ]
    );
}

/// Two *adjacent* brokers crash in the same window and both recover
/// with zero operator calls: the detection loop fences each on its live
/// side's accusation, the replay request toward the still-rejoining
/// neighbour parks until that neighbour serves, then drains. A removal
/// during the double outage reconciles through the chained replays.
#[test]
fn adjacent_concurrent_crashes_both_recover_automatically() {
    let mut fabric = OverlayFabric::build(
        Topology::line(5),
        FabricConfig::preshared(62).with_heartbeats(HeartbeatConfig::fast()),
    )
    .expect("build");
    let doomed =
        fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    fabric.subscribe(4, ClientId(2), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();

    // Both middle brokers die in the same window, and interest churns
    // while they are down: only router 0 hears the removal.
    fabric.crash(1).unwrap();
    fabric.crash(2).unwrap();
    assert!(fabric.unsubscribe(doomed).unwrap());

    let frames_before = fabric.edge_frames().clone();
    fabric.take_events();
    let rejoins = fabric.run_detection(64).expect("both rejoins settle");
    let victims: Vec<usize> = rejoins.iter().map(|r| r.router).collect();
    assert_eq!(victims, vec![1, 2], "each crashed broker fenced exactly once, no false positives");
    for id in 0..5 {
        assert_eq!(fabric.lifecycle(id), Lifecycle::Serving, "router {id} serving");
    }
    assert!(fabric.settled());
    let events = fabric.take_events();
    for router in [1, 2] {
        assert!(
            events.iter().any(|(r, e)| *r == router && matches!(e, LinkEvent::Rejoined { .. })),
            "router {router} completed a full rejoin"
        );
    }

    // Frame ledger: replay traffic stayed on the crashed brokers'
    // incident edges. The far edge (3↔4) carried exactly its heartbeat
    // load (one frame per direction per round) plus the single
    // reconciliation `sub-drop` for the mid-outage removal, which
    // legitimately travels the stale subscription's reverse path.
    let after = fabric.edge_frames().clone();
    let delta = |edge: (usize, usize)| {
        after.get(&edge).copied().unwrap_or(0) - frames_before.get(&edge).copied().unwrap_or(0)
    };
    let rounds_delta = fabric.rounds();
    assert_eq!(delta((4, 3)), rounds_delta, "4→3 carried heartbeats only");
    assert_eq!(delta((3, 4)), rounds_delta + 1, "3→4: heartbeats + one reconciliation sub-drop");

    // The mid-outage removal reconciled everywhere: only `HAL` interest
    // survives (edge copy at 4 plus one interface copy per other hop).
    assert_eq!(fabric.total_index_entries(), 5, "stale interest fully reconciled");
    let deliveries = fabric
        .publish(0, &[PublicationSpec::new().attr("price", 9.0).attr("symbol", "HAL")])
        .unwrap();
    assert_eq!(deliveries, vec![Delivery { router: 4, client: ClientId(2), publication: 0 }]);
}

/// The hardest concurrent shape: a leaf and its *only* neighbour die in
/// the same window. The leaf has no live neighbour left to accuse it,
/// so it is only reachable through a chain — the middle broker is
/// fenced first on the far side's accusation, rejoins, then itself
/// accrues silence toward the dead leaf and accuses it. The middle
/// broker's first pull toward the leaf lands on a corpse; the
/// timer-paced retry completes the heal once the leaf is back.
#[test]
fn leaf_and_its_only_neighbour_both_recover_automatically() {
    let mut fabric = OverlayFabric::build(
        Topology::line(3),
        FabricConfig::preshared(63).with_heartbeats(HeartbeatConfig::fast()),
    )
    .expect("build");
    fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    fabric.subscribe(2, ClientId(2), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();

    fabric.crash(0).unwrap();
    fabric.crash(1).unwrap();

    fabric.take_events();
    let rejoins = fabric.run_detection(64).expect("cascaded detection settles");
    let victims: Vec<usize> = rejoins.iter().map(|r| r.router).collect();
    assert_eq!(victims, vec![1, 0], "the chain unwedges inward: middle first, then the leaf");
    for id in 0..3 {
        assert_eq!(fabric.lifecycle(id), Lifecycle::Serving, "router {id} serving");
    }
    assert!(fabric.settled());
    let events = fabric.take_events();
    for router in [0, 1] {
        assert!(
            events.iter().any(|(r, e)| *r == router && matches!(e, LinkEvent::Rejoined { .. })),
            "router {router} completed a full rejoin"
        );
    }
    // The middle broker's heal of the believed-dead leaf link completed
    // through the retried pull.
    assert!(
        events.iter().any(|(r, e)| *r == 1 && matches!(e, LinkEvent::Healed { link: 0, .. })),
        "router 1 healed the leaf link after its first request died with the corpse"
    );

    // The leaf's edge subscription survived the double outage end to end.
    let deliveries = fabric
        .publish(2, &[PublicationSpec::new().attr("price", 3.0).attr("symbol", "HAL")])
        .unwrap();
    assert_eq!(
        deliveries,
        vec![
            Delivery { router: 0, client: ClientId(1), publication: 0 },
            Delivery { router: 2, client: ClientId(2), publication: 0 },
        ]
    );
}

/// Regression for the stale-liveness-view wedge: a `Restart` naming a
/// neighbour that is actually alive used to leave that link un-rekeyed
/// forever (skipped at rejoin, never retried). With heartbeats, the
/// serving broker probes the missing link, re-keys it, pulls a replay
/// and reports `Healed` — without fencing the falsely-accused neighbour.
#[test]
fn stale_liveness_view_heals_by_probe_and_replay() {
    let mut fabric = OverlayFabric::build(
        Topology::line(3),
        FabricConfig::attested(63).with_heartbeats(HeartbeatConfig::fast()),
    )
    .expect("build");
    fabric.subscribe(0, ClientId(1), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();
    fabric.subscribe(2, ClientId(2), &SubscriptionSpec::new().eq("symbol", "HAL")).unwrap();

    fabric.crash(1).unwrap();
    // The operator's liveness view is stale: router 2 is alive, but the
    // restart names it dead. The rejoin replays from router 0 alone and
    // completes — with the 1↔2 link missing.
    fabric.restart_with_liveness_view(1, &[2]).expect("rejoin from the live side completes");
    assert_eq!(fabric.lifecycle(1), Lifecycle::Serving);
    assert!(!fabric.settled(), "the skipped link is still believed dead");

    fabric.take_events();
    let rejoins = fabric.run_detection(32).expect("heal settles");
    assert!(rejoins.is_empty(), "healing a stale view must not fence anyone");
    let events = fabric.take_events();
    assert!(
        events.iter().any(|(r, e)| *r == 1 && matches!(e, LinkEvent::Healed { link: 2, .. })),
        "router 1 healed the falsely-dead link via probe + replay, got {events:?}"
    );
    assert!(fabric.settled());

    // Interest on both sides of the healed link matches again.
    let deliveries = fabric
        .publish(1, &[PublicationSpec::new().attr("price", 2.0).attr("symbol", "HAL")])
        .unwrap();
    assert_eq!(
        deliveries,
        vec![
            Delivery { router: 0, client: ClientId(1), publication: 0 },
            Delivery { router: 2, client: ClientId(2), publication: 0 },
        ]
    );
}

/// False-positive suppression: a slow-but-alive broker — its host ticks
/// (and therefore its heartbeats) delayed by a stride, not lost — is
/// never declared suspect as long as its delay stays inside the
/// suspicion window.
#[test]
fn slow_but_alive_broker_is_never_suspected() {
    let mut fabric = OverlayFabric::build(
        Topology::line(3),
        FabricConfig::preshared(64).with_heartbeats(HeartbeatConfig::fast()),
    )
    .expect("build");
    // Heartbeats arrive every 3rd round; suspicion needs 4 silent ticks.
    fabric.set_tick_stride(1, 3);
    fabric.take_events();
    for _ in 0..24 {
        let rejoins = fabric.tick_round().unwrap();
        assert!(rejoins.is_empty(), "nothing must ever be fenced");
    }
    let events = fabric.take_events();
    assert!(
        !events.iter().any(|(_, e)| matches!(e, LinkEvent::Suspect { .. })),
        "a delayed-but-alive broker must never be suspected, got {events:?}"
    );
    for id in 0..3 {
        assert_eq!(fabric.lifecycle(id), Lifecycle::Serving);
    }
}

/// A wedged sealed link (unhealed sequence gap) is escalated by the
/// timers: after `gap_grace` ticks the receiver declares
/// `Suspect { reason: Gap }`, re-keys the link on its own, pulls a
/// replay over the fresh channel and reports `Healed` — all without any
/// crash, restart, or node-death quorum (the peer provably lives).
#[test]
fn wedged_gap_link_rekeys_and_heals_itself() {
    let mut fabric = OverlayFabric::build(
        Topology::line(2),
        FabricConfig::attested(65).with_heartbeats(HeartbeatConfig::fast()),
    )
    .expect("build");
    fabric.subscribe(1, ClientId(3), &SubscriptionSpec::new().gt("price", 0.0)).unwrap();

    // Lose one frame 0→1, then let the next one surface the gap.
    fabric.drop_next_frame(0, 1);
    assert!(fabric.publish(0, &[PublicationSpec::new().attr("price", 1.0)]).unwrap().is_empty());
    assert!(fabric.publish(0, &[PublicationSpec::new().attr("price", 2.0)]).unwrap().is_empty());
    assert_eq!(fabric.total_gaps(), 1, "the gap surfaced");

    fabric.take_events();
    let rejoins = fabric.run_detection(32).expect("link-level heal settles");
    assert!(rejoins.is_empty(), "a gap heals at link level; it must never fence the peer");
    let events = fabric.take_events();
    assert!(
        events.iter().any(|(r, e)| *r == 1
            && matches!(e, LinkEvent::Suspect { link: 0, reason: SuspectReason::Gap })),
        "the grace timer escalated the standing gap, got {events:?}"
    );
    assert!(
        events.iter().any(|(r, e)| *r == 1 && matches!(e, LinkEvent::Healed { link: 0, .. })),
        "the wedged link was re-keyed and replayed, got {events:?}"
    );
    assert!(fabric.settled());

    // The re-keyed link carries publications again.
    let deliveries = fabric.publish(0, &[PublicationSpec::new().attr("price", 3.0)]).unwrap();
    assert_eq!(deliveries, vec![Delivery { router: 1, client: ClientId(3), publication: 0 }]);
}

/// A link re-keyed after a crash never repeats a (key, nonce) pair.
/// Frame nonces come from the sequence number, which restarts at 0 on
/// the new link, so everything rests on the handshake: the relaunched
/// enclave, with the same measurement, must agree a fresh key. Then the
/// new link's first frame differs from the old link's first frame for the
/// same plaintext, and neither side's old half opens it.
#[test]
fn rekeyed_link_never_repeats_a_key_nonce_pair() {
    use scbr_crypto::rng::CryptoRng;
    use scbr_net::{NetError, SecureLink};
    use sgx_sim::attest::{AttestationService, VerifierPolicy};
    use sgx_sim::enclave::EnclaveBuilder;
    use sgx_sim::link::{accept, complete, finish, initiate, LinkKey};
    use sgx_sim::platform::SgxPlatform;

    let router = |platform: &SgxPlatform| {
        platform.launch(EnclaveBuilder::new("router").add_page(b"router code")).unwrap()
    };
    let (pa, pb) = (SgxPlatform::for_testing(41), SgxPlatform::for_testing(42));
    let mut service = AttestationService::new();
    service.trust_platform(pa.attestation_public_key().clone());
    service.trust_platform(pb.attestation_public_key().clone());
    let eb = router(&pb);
    let policy = VerifierPolicy::require_mr_enclave(eb.identity().mr_enclave);
    // Each broker keeps its host RNG across the crash, as `Broker` does.
    let (mut rng_a, mut rng_b) = (CryptoRng::from_seed(43), CryptoRng::from_seed(44));
    let mut handshake = |ea: &sgx_sim::enclave::Enclave| -> LinkKey {
        let (hello, initiator) = initiate(&pa, ea, &mut rng_a).unwrap();
        let (acc, responder) = accept(&pb, &eb, &service, &policy, &hello, &mut rng_b).unwrap();
        let (fin, key) = finish(initiator, &acc, &service, &policy, ea, &mut rng_a).unwrap();
        assert_eq!(complete(responder, &fin, &eb).unwrap(), key);
        key
    };

    let before = handshake(&router(&pa));
    // Broker 0 crashes; its enclave relaunches with the same measurement.
    let after = handshake(&router(&pa));
    assert_ne!(before.as_bytes(), after.as_bytes(), "a rejoin agrees a fresh key");

    let plain = b"the same first frame";
    let mut rng = CryptoRng::from_seed(45);
    let old_frame = SecureLink::outbound(before.as_bytes(), 0, 1).seal(plain, &mut rng);
    let new_frame = SecureLink::outbound(after.as_bytes(), 0, 1).seal(plain, &mut rng);
    assert_eq!(old_frame[..16], new_frame[..16], "both are frame 0 with meta 0");
    assert_ne!(old_frame, new_frame, "same nonce, different key");
    let mut old_inbound = SecureLink::inbound(before.as_bytes(), 1, 0);
    assert!(matches!(old_inbound.open(&new_frame), Err(NetError::Malformed { .. })));
    let mut new_inbound = SecureLink::inbound(after.as_bytes(), 1, 0);
    assert_eq!(new_inbound.open(&new_frame).unwrap(), plain);
}
