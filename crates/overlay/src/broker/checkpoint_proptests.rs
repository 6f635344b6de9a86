//! Property: **crash anywhere, restart, and nothing is different.**
//!
//! One attested broker with sealed links to two neighbours is driven
//! through a generated schedule of every input that mutates subscription
//! state — local subscribe and unsubscribe, link `sub-forward` /
//! `sub-remove` / `sub-drop`, re-registration of a live id with a changed
//! filter and serving ticks — and crashed after a random step. Its only
//! way back is the host file: the sealed base plus the sealed deltas
//! appended since, which a relaunched enclave opens against the platform
//! counter before it redoes the deltas, admissions and retirements
//! alike, through the live admission and removal code. An uncrashed twin
//! receives the same inputs. After the restart, and again after the rest
//! of the schedule and a second crash, the two must be
//! indistinguishable:
//!
//! * their full recovery records serialise to the **same bytes** (engine
//!   contents, live set, every covering table row and every ledger
//!   counter) once the one column that records forest shape, each engine
//!   row's anchor, is masked;
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
//! A child module of `broker` so it can reach the broker's private core;
//! the core, in `scbr-enclave`, shows its record and retired-bytes figure
//! only through two accessors kept for this test.

use super::test_broker::{provision, relink, serving, Peers};
use super::*;
use proptest::prelude::*;
use scbr::ids::KeyEpoch;
use scbr::index::FlatOracle;
use scbr::{PublicationSpec, SubscriptionSpec};
use scbr_enclave::broker::link_interface;

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

/// The identity the broker indexes a subscription that entered at
/// `origin` under.
fn delivery_identity(origin: Origin, client: ClientId) -> ClientId {
    match origin {
        Origin::Local => client,
        Origin::Link(n) => link_interface(n),
    }
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

/// One producer identity for the whole run.
fn shared_producer() -> ProducerCrypto {
    ProducerCrypto::new(&mut CryptoRng::from_seed(0x6a6f_7572))
}

/// Crashes `broker` and brings it back from its host file alone: every
/// neighbour is declared dead, so no replay papers over a bad restore.
/// The relaunched enclave is attested again and re-linked; returns the
/// neighbours' new ends. The relink also retracts the dead marks: left
/// set, the next serving tick would heal each link by pulling a replay
/// the phantom neighbours never send.
fn crash_and_restart(broker: &mut Broker, now: u64, producer: &ProducerCrypto) -> Peers {
    broker.step(now, Input::Crash).expect("crash");
    assert_eq!(broker.subscriptions(), 0, "volatile state is gone");
    broker.step(now, Input::Restart { dead_links: NEIGHBORS.to_vec() }).expect("restart");
    assert_eq!(broker.lifecycle(), Lifecycle::Serving);
    provision(broker, producer);
    let peers = relink(broker);
    for n in NEIGHBORS {
        broker.peer(n).dead = false;
    }
    peers
}

/// One generated input: a local one as it is, or a neighbour's message,
/// which each broker receives sealed on its own link.
#[derive(Clone)]
enum Op {
    Local(Input),
    Link(usize, Vec<u8>),
}

impl Op {
    fn input(&self, peers: &mut Peers) -> Input {
        match self {
            Op::Local(input) => input.clone(),
            Op::Link(from, wire) => peers.frame(*from, wire),
        }
    }
}

/// A live subscription as the harness (and the flat oracle) knows it.
struct Live {
    id: SubscriptionId,
    client: ClientId,
    origin: Origin,
}

/// What is shared by the two brokers of one case: the producer, the
/// live set, and the flat oracle holding exactly that set (link
/// subscriptions under their link's interface identity).
struct Harness {
    producer: ProducerCrypto,
    rng: CryptoRng,
    oracle: FlatOracle,
    live: Vec<Live>,
    next_id: u64,
}

impl Harness {
    fn new(seed: u64) -> Self {
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        Harness {
            producer: shared_producer(),
            rng: CryptoRng::from_seed(seed),
            oracle: FlatOracle::new(&mem),
            live: Vec::new(),
            next_id: 0,
        }
    }

    /// Seals `spec` as a registration of `id`, records it in the oracle
    /// (replacing any previous filter of the id) and wraps it as the op
    /// that delivers it from `origin`.
    fn registration(
        &mut self,
        id: SubscriptionId,
        client: ClientId,
        origin: Origin,
        raw: &RawSpec,
    ) -> Op {
        let spec = build_spec(raw);
        let envelope =
            self.producer.seal_registration(&spec, id, client, &mut self.rng).expect("seal");
        self.oracle
            .register_plain(id, delivery_identity(origin, client), &spec)
            .expect("oracle register");
        match origin {
            Origin::Local => Op::Local(Input::Subscribe { envelope }),
            Origin::Link(n) => Op::Link(n, Message::SubForward { envelope }.to_wire()),
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

    /// Turns one generated op into the one both brokers receive, keeping
    /// the live set and the oracle in step. `None` when the op has no
    /// target (e.g. an unsubscribe with nothing live).
    fn next_op(&mut self, op: u8, pick: usize, raw: &RawSpec) -> Option<Op> {
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
                Some(Op::Local(Input::Unsubscribe { envelope }))
            }
            // Link removal, by envelope (5) or link-authenticated (6).
            5 | 6 => {
                let gone = self.retire(pick, |origin| origin != Origin::Local)?;
                let Origin::Link(n) = gone.origin else { unreachable!("picked among link subs") };
                let message = if op == 5 {
                    let envelope = self
                        .producer
                        .seal_unregistration(gone.id, gone.client, &mut self.rng)
                        .expect("seal");
                    Message::SubRemove { envelope }
                } else {
                    Message::SubDrop { id: gone.id }
                };
                Some(Op::Link(n, message.to_wire()))
            }
            // Re-registration of a live id with a (most likely) changed
            // filter, from wherever the id first entered.
            7 => {
                let &Live { id, client, origin } = self.live.get(pick % self.live.len().max(1))?;
                Some(self.registration(id, client, origin, raw))
            }
            _ => Some(Op::Local(Input::Tick)),
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
                .flat_map(|o| match o {
                    Output::Deliveries(d) => d.clients().to_vec(),
                    Output::Frame(f) => vec![link_interface(f.to)],
                    Output::Event(_) => Vec::new(),
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

/// `broker`'s full recovery record with only the engine snapshot's anchor
/// column masked: anchors describe the shape of a covering forest, which
/// a restart may change (the restored engine numbers attributes in
/// restore order, so later inserts can settle under other parents)
/// without changing what the broker holds or delivers.
fn record_without_anchors(broker: &Broker) -> Vec<u8> {
    broker.core.record_without_anchors().expect("own snapshot parses")
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
    prop_assert_eq!(crashed.core.retired_bytes(), twin.core.retired_bytes(), "{}", what);
    Ok(())
}

/// The whole property.
fn crash_anywhere(
    specs: &[RawSpec],
    script: &[(u8, usize)],
    crash_after: usize,
    probes: &[PublicationSpec],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut harness = Harness::new(seed);
    let producer = harness.producer.clone();
    let (mut crashed, mut crashed_peers) = serving(0, seed, false, &NEIGHBORS, &producer);
    let (mut twin, mut twin_peers) = serving(0, seed, false, &NEIGHBORS, &producer);

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
        if step >= pairs_from && op == 0 && crashed.core.retired_bytes() > 0 {
            break; // a retirement sits in a delta: no further pair needed
        }
        if let Some(op) = harness.next_op(op, pick, &specs[step % specs.len()]) {
            crashed.step(now, op.input(&mut crashed_peers)).expect("step on the crashing broker");
            twin.step(now, op.input(&mut twin_peers)).expect("step on the twin");
        }
        if step == crash_after {
            let what = "after the mid-schedule crash";
            crashed_peers = crash_and_restart(&mut crashed, now, &producer);
            assert_same_state(&crashed, &twin, what)?;
            harness.assert_routes_like_the_oracle(&mut crashed, probes, what)?;
        }
    }

    // The restored broker kept journalling onto the chain it restored
    // from: a second crash at the very end must round-trip too, and its
    // restart redoes a retirement from a delta.
    assert_same_state(&crashed, &twin, "at the end of the schedule")?;
    prop_assert!(crashed.core.retired_bytes() > 0, "no retirement left in a delta to redo");
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
        crash_anywhere(&specs, &script, crash_after, &probes, seed)?;
    }
}
