//! Property: **crash anywhere, restart, and nothing is different.**
//!
//! One broker with two neighbours is driven through a generated schedule
//! of every input that mutates subscription state — local subscribe and
//! unsubscribe, link `sub-forward` / `sub-remove` / `sub-drop`,
//! re-registration of a live id with a changed filter, forced rebalancing
//! passes and serving ticks — and crashed after a random step. Its only
//! way back is the host file: the last base plus the deltas appended
//! since, admissions and retirements alike, redone through the live
//! admission and removal code. An uncrashed twin receives the same
//! inputs. After the restart, and again after the rest of the schedule
//! and a second crash, the two must be indistinguishable:
//!
//! * their full recovery records serialise to the **same bytes** (matcher
//!   contents and slice assignment, live set, every covering table row
//!   and every ledger counter) once the one column that records forest
//!   shape, each engine row's anchor, is masked;
//! * the restarted broker — no live neighbour, so serving at once —
//!   resumes with the twin's retired-bytes figure, recomputed by the redo;
//! * probe publications deliver and forward exactly what a flat oracle
//!   engine holding the live set says;
//! * `rows == forwarded_total − removed` holds on both.
//!
//! Every schedule ends on a short fixed tail that leaves a retirement in
//! a *delta* of the file the last restart reads, so each case redoes at
//! least one removal rather than finding them all folded into a base.
//!
//! A child module of `broker` so it can read `BrokerCore` directly: the
//! plaintext record must not grow a public accessor for a test's sake.

use super::*;
use proptest::prelude::*;
use scbr::engine::{strip_anchors, MatchingEngine};
use scbr::ids::KeyEpoch;
use scbr::{PublicationSpec, SubscriptionSpec};

const NEIGHBORS: [usize; 2] = [1, 2];
const SYMBOLS: [&str; 3] = ["HAL", "IBM", "AMD"];
const NUMERIC: [&str; 2] = ["price", "volume"];

/// A generated filter on the discrete grid the lifecycle proptests use, so
/// covering chains — and with them pruning, uncovering and replaced rows —
/// are the common case.
#[derive(Debug, Clone)]
struct RawSpec {
    symbol: Option<usize>,
    bounds: Vec<(usize, u8, u8)>,
}

fn spec_strategy() -> impl Strategy<Value = RawSpec> {
    (
        proptest::option::of(0usize..SYMBOLS.len()),
        proptest::collection::vec((0usize..NUMERIC.len(), 0u8..4, 0u8..8), 0..3),
    )
        .prop_map(|(symbol, bounds)| RawSpec { symbol, bounds })
}

fn build_spec(raw: &RawSpec) -> SubscriptionSpec {
    let mut spec = SubscriptionSpec::new();
    if let Some(s) = raw.symbol {
        spec = spec.eq("symbol", SYMBOLS[s]);
    }
    let mut used = std::collections::HashSet::new();
    for (attr, op, bound) in &raw.bounds {
        if !used.insert(*attr) {
            continue; // one predicate per attribute avoids contradictions
        }
        let (name, value) = (NUMERIC[*attr], *bound as f64);
        spec = match op {
            0 => spec.lt(name, value),
            1 => spec.le(name, value),
            2 => spec.gt(name, value),
            _ => spec.ge(name, value),
        };
    }
    spec
}

/// One producer for the whole run: RSA key generation dominates set-up
/// and is orthogonal to the property.
fn shared_producer() -> ProducerCrypto {
    static PRODUCER: std::sync::OnceLock<ProducerCrypto> = std::sync::OnceLock::new();
    PRODUCER
        .get_or_init(|| {
            ProducerCrypto::generate(512, &mut CryptoRng::from_seed(0x6a6f_7572)).expect("keys")
        })
        .clone()
}

fn new_broker(seed: u64, partition: PartitionConfig, producer: &ProducerCrypto) -> Broker {
    let mut broker = Broker::preshared(0, seed, IndexKind::Poset, false);
    broker.set_neighbors(&NEIGHBORS);
    broker.set_partition(partition);
    relink(&mut broker, producer);
    broker
}

/// What the host redoes around a pre-shared broker after (re)start.
fn relink(broker: &mut Broker, producer: &ProducerCrypto) {
    for n in NEIGHBORS {
        broker.install_plain_link(n);
    }
    broker.provision_preshared(producer);
}

/// Crashes `broker` and brings it back from its host file alone: every
/// neighbour is declared dead, so no replay papers over a bad restore.
fn crash_and_restart(broker: &mut Broker, now: u64, producer: &ProducerCrypto) {
    broker.step(now, Input::Crash).expect("crash");
    assert_eq!(broker.subscriptions(), 0, "volatile state is gone");
    broker.step(now, Input::Restart { dead_links: NEIGHBORS.to_vec() }).expect("restart");
    assert_eq!(broker.lifecycle(), Lifecycle::Serving);
    relink(broker, producer);
}

/// A live subscription as the harness (and the flat oracle) knows it.
struct Live {
    id: SubscriptionId,
    client: ClientId,
    origin: Origin,
}

/// What is shared by the two brokers of one case: the producer, the
/// live set, and the flat oracle engine holding exactly that set (link
/// subscriptions under their link's interface identity).
struct Harness {
    producer: ProducerCrypto,
    rng: CryptoRng,
    oracle: MatchingEngine,
    live: Vec<Live>,
    next_id: u64,
}

impl Harness {
    fn new(seed: u64) -> Self {
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        Harness {
            producer: shared_producer(),
            rng: CryptoRng::from_seed(seed),
            oracle: MatchingEngine::new(&mem, IndexKind::Naive),
            live: Vec::new(),
            next_id: 0,
        }
    }

    /// Seals `spec` as a registration of `id`, records it in the oracle
    /// (replacing any previous filter of the id) and wraps it as the
    /// input that delivers it from `origin`.
    fn registration(
        &mut self,
        id: SubscriptionId,
        client: ClientId,
        origin: Origin,
        raw: &RawSpec,
    ) -> Input {
        let spec = build_spec(raw);
        let envelope =
            self.producer.seal_registration(&spec, id, client, &mut self.rng).expect("seal");
        self.oracle
            .register_plain(id, origin.deliver_to().unwrap_or(client), &spec)
            .expect("oracle register");
        match origin {
            Origin::Local => Input::Subscribe { envelope },
            Origin::Link(n) => frame(n, Message::SubForward { envelope }),
        }
    }

    /// Removes the `pick`-th live subscription that `keep` selects from
    /// the live set and the oracle.
    fn retire(&mut self, pick: usize, keep: impl Fn(Origin) -> bool) -> Option<Live> {
        let candidates: Vec<usize> =
            (0..self.live.len()).filter(|&i| keep(self.live[i].origin)).collect();
        let gone = self.live.remove(*candidates.get(pick % candidates.len().max(1))?);
        self.oracle.unregister(gone.id);
        Some(gone)
    }

    /// Turns one generated op into the input both brokers receive,
    /// keeping the live set and the oracle in step. `None` when the op
    /// has no target (e.g. an unsubscribe with nothing live).
    fn next_input(&mut self, op: u8, pick: usize, raw: &RawSpec) -> Option<Input> {
        match op {
            // A fresh subscription: local (0, 1) or learnt from a link
            // (2, 3).
            0..=3 => {
                let origin = if op < 2 { Origin::Local } else { Origin::Link(NEIGHBORS[pick % 2]) };
                let (id, client) = (SubscriptionId(self.next_id), ClientId(100 + self.next_id));
                self.next_id += 1;
                self.live.push(Live { id, client, origin });
                Some(self.registration(id, client, origin, raw))
            }
            // Local unsubscribe.
            4 => {
                let gone = self.retire(pick, |origin| origin == Origin::Local)?;
                let envelope = self
                    .producer
                    .seal_unregistration(gone.id, gone.client, &mut self.rng)
                    .expect("seal");
                Some(Input::Unsubscribe { envelope })
            }
            // Link removal, producer-signed (5) or link-authenticated (6).
            5 | 6 => {
                let gone = self.retire(pick, |origin| origin != Origin::Local)?;
                let Origin::Link(n) = gone.origin else { unreachable!("picked among link subs") };
                Some(if op == 5 {
                    let envelope = self
                        .producer
                        .seal_unregistration(gone.id, gone.client, &mut self.rng)
                        .expect("seal");
                    frame(n, Message::SubRemove { envelope })
                } else {
                    frame(n, Message::SubDrop { id: gone.id })
                })
            }
            // Re-registration of a live id with a (most likely) changed
            // filter, from wherever the id first entered.
            7 => {
                let &Live { id, client, origin } = self.live.get(pick % self.live.len().max(1))?;
                Some(self.registration(id, client, origin, raw))
            }
            // A serving tick (runs the auto-rebalancer on a partitioned
            // broker). Op 9, the forced rebalance, is not an `Input`.
            _ => Some(Input::Tick),
        }
    }

    /// Publishes `probes` one by one and checks local deliveries and the
    /// outgoing link set against the flat oracle.
    fn assert_routes_like_the_oracle(
        &mut self,
        broker: &mut Broker,
        probes: &[PublicationSpec],
        what: &str,
    ) -> Result<(), TestCaseError> {
        for probe in probes {
            let item = PublishItem {
                header_ct: self.producer.encrypt_header(probe, &mut self.rng),
                epoch: KeyEpoch(0),
                payload_ct: vec![0],
            };
            let outs = broker
                .step(0, Input::Publish { items: vec![item], trace: TraceId::NONE })
                .expect("probe publish");
            let mut got: Vec<ClientId> = outs
                .iter()
                .filter_map(|o| match o {
                    Output::Delivery(d) => Some(d.client),
                    Output::Frame(f) => Some(link_interface(f.to)),
                    Output::Event(_) => None,
                })
                .collect();
            got.sort_unstable_by_key(|c| c.0);
            let expected = self.oracle.match_plain(probe).expect("oracle match");
            prop_assert_eq!(
                got,
                expected,
                "{}: deliveries + links differ from the flat oracle",
                what
            );
        }
        Ok(())
    }
}

fn frame(from: usize, message: Message) -> Input {
    Input::Frame { from, bytes: message.to_wire() }
}

/// `broker`'s full recovery record with only the engine snapshots' anchor
/// column masked: anchors describe the shape of a covering forest, which
/// a restart may change (the restored engine numbers attributes in
/// restore order, so later inserts can settle under other parents)
/// without changing what the broker holds or delivers.
fn record_without_anchors(broker: &Broker) -> Vec<u8> {
    let snapshots: Vec<Vec<u8>> = broker
        .core
        .matcher
        .snapshot_slices()
        .iter()
        .map(|snapshot| strip_anchors(snapshot).expect("own snapshot parses"))
        .collect();
    broker.core.record_with(&snapshots)
}

fn assert_same_state(crashed: &Broker, twin: &Broker, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        record_without_anchors(crashed) == record_without_anchors(twin),
        "{}: restored record differs from the uncrashed twin's",
        what
    );
    for broker in [crashed, twin] {
        let stats = broker.stats();
        prop_assert_eq!(stats.forwarded, stats.forwarded_total - stats.removed, "{}", what);
        prop_assert!(stats.uncovered <= stats.forwarded_total, "{}", what);
    }
    let (a, b) = (crashed.stats(), twin.stats());
    prop_assert_eq!(
        (a.pruned, a.forwarded_total, a.removed, a.uncovered, a.subscriptions),
        (b.pruned, b.forwarded_total, b.removed, b.uncovered, b.subscriptions),
        "{}: ledgers diverged",
        what
    );
    prop_assert_eq!(crashed.core.retired_bytes, twin.core.retired_bytes, "{}", what);
    Ok(())
}

/// Retirements journalled in the deltas of `broker`'s host file: what a
/// restart from it redoes through `uncover_after_removal`.
fn removals_in_deltas(broker: &Broker) -> usize {
    let file = broker.sealed_record().unwrap_or_default();
    let mut removals = 0;
    for delta in journal::split_entries(file).expect("host file").iter().skip(1) {
        let mut entries = RedoReader::new(delta);
        while let Some(entry) = entries.next().expect("delta entry") {
            removals += usize::from(matches!(entry, Redo::Remove { .. }));
        }
    }
    removals
}

/// The whole property for one partition configuration.
fn crash_anywhere(
    partition: PartitionConfig,
    specs: &[RawSpec],
    script: &[(u8, usize)],
    crash_after: usize,
    probes: &[PublicationSpec],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut harness = Harness::new(seed);
    let producer = harness.producer.clone();
    let mut crashed = new_broker(seed, partition, &producer);
    let mut twin = new_broker(seed, partition, &producer);

    // Eight guaranteed admissions up front: under the doubling rule that
    // alone crosses the second compaction, whatever the script does next.
    // The tail: eight more, so the base is large enough for one
    // retirement to stay under its retired quarter, then fresh local
    // subscribe / unsubscribe pairs until a retirement sits in a delta
    // (the first pair can still trip a compaction the script left due;
    // the pair after a compaction cannot).
    let warmup = (0..8).map(|i| ((i % 4) as u8, i));
    let tail = (0..8).map(|i| ((i % 4) as u8, i)).chain([(0, 0), (4, usize::MAX)].repeat(4));
    let (crash_after, pairs_from) = (crash_after % (8 + script.len()), 16 + script.len());
    for (step, (op, pick)) in warmup.chain(script.iter().copied()).chain(tail).enumerate() {
        let now = step as u64;
        if step >= pairs_from && op == 0 && removals_in_deltas(&crashed) > 0 {
            break; // a retirement sits in a delta: no further pair needed
        }
        if op == 9 {
            let a = crashed.rebalance_now().expect("rebalance");
            let b = twin.rebalance_now().expect("rebalance");
            prop_assert_eq!(a.migrated, b.migrated, "rebalancers diverged at step {}", step);
        } else if let Some(input) = harness.next_input(op, pick, &specs[step % specs.len()]) {
            crashed.step(now, input.clone()).expect("step on the crashing broker");
            twin.step(now, input).expect("step on the twin");
        }
        if step == crash_after {
            let what = "after the mid-schedule crash";
            crash_and_restart(&mut crashed, now, &producer);
            assert_same_state(&crashed, &twin, what)?;
            harness.assert_routes_like_the_oracle(&mut crashed, probes, what)?;
        }
    }

    // The restored broker kept journalling onto the chain it restored
    // from: a second crash at the very end must round-trip too, and its
    // restart redoes a retirement from a delta.
    assert_same_state(&crashed, &twin, "at the end of the schedule")?;
    prop_assert!(removals_in_deltas(&crashed) > 0, "no retirement left in a delta to redo");
    crash_and_restart(&mut crashed, (24 + script.len()) as u64, &producer);
    assert_same_state(&crashed, &twin, "after the final crash")?;
    harness.assert_routes_like_the_oracle(&mut crashed, probes, "after the final crash")?;
    harness.assert_routes_like_the_oracle(&mut twin, probes, "twin")?;
    let stats = twin.stats();
    prop_assert!(stats.compactions >= 2, "schedule crossed {} compactions", stats.compactions);
    prop_assert!(stats.seals > stats.compactions, "the schedule wrote deltas as well as bases");
    Ok(())
}

fn probe_strategy() -> impl Strategy<Value = PublicationSpec> {
    (0usize..SYMBOLS.len(), proptest::collection::vec(0u8..9, NUMERIC.len())).prop_map(
        |(symbol, values)| {
            let mut spec = PublicationSpec::new().attr("symbol", SYMBOLS[symbol]);
            for (name, v) in NUMERIC.iter().zip(values) {
                spec = spec.attr(name, v as f64);
            }
            spec
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn crash_anywhere_restores_the_twin_unpartitioned(
        specs in proptest::collection::vec(spec_strategy(), 4..12),
        script in proptest::collection::vec((0u8..9, 0usize..64), 16..40),
        crash_after in 0usize..1_000,
        probes in proptest::collection::vec(probe_strategy(), 2..5),
        seed in 0u64..1_000,
    ) {
        crash_anywhere(PartitionConfig::default(), &specs, &script, crash_after, &probes, seed)?;
    }

    #[test]
    fn crash_anywhere_restores_the_twin_with_four_slices(
        specs in proptest::collection::vec(spec_strategy(), 4..12),
        script in proptest::collection::vec((0u8..10, 0usize..64), 16..40),
        crash_after in 0usize..1_000,
        probes in proptest::collection::vec(probe_strategy(), 2..5),
        seed in 0u64..1_000,
    ) {
        // An eager threshold and a small batch, so ticks and forced
        // passes really migrate — and force bases mid-chain.
        let partition =
            PartitionConfig::sliced(4).with_skew_threshold(1.2).with_migration_batch(2);
        crash_anywhere(partition, &specs, &script, crash_after, &probes, seed)?;
    }
}
