//! One harness, one phase script: every workload runs the same phases over
//! the [`Sut`] facade, so every end-to-end metric is defined on every
//! workload.
//!
//! The loop is closed and single-threaded: one caller that waits for each
//! reply. The fabric and the engine are synchronous sans-IO libraries, so
//! an open loop would only measure the harness's own queue.

use crate::oracle::{mismatched_publications, Oracle};
use crate::probes::{self, Probes, PROBE_TRACE};
use crate::procfs;
use crate::stats::{fast_quarter_mean, median, quartile_spread, tail};
use crate::sut::{self, Counters, Delivery, Gauges, Sut};
use crate::trace::Tracer;
use crate::workloads::{Inputs, SubInput, Workload};
use scbr::{PublicationSpec, SubscriptionId};
use scbr_crypto::rng::CryptoRng;
use scbr_telemetry::{Stage, StageSummary};
use std::time::Instant;

/// Publications each verify phase checks against the oracle.
const VERIFY_PUBLICATIONS: usize = 256;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Length of a round. The measured seconds are cut into rounds, each
/// holding one window of every phase, so a disturbance lasting a few
/// seconds costs every metric a few windows instead of costing one metric
/// all of them.
const ROUND_SECONDS: f64 = 1.0;
/// Fewest rounds a run is cut into, however short it is.
const MIN_ROUNDS: usize = 8;
/// Share of a round spent in the time-boxed saturate and latency windows.
/// The rest goes to the round's churn window and recover cycle, which do
/// fixed work (see [`Workload::churn_per_round`]).
const SHARES: [f64; 2] = [0.45, 0.40];
/// Batches of the reference publish pass the replay probes re-feed.
const PROBE_BATCHES: usize = 8;
/// Failed operations whose reason a report keeps.
const FAILURE_NOTES: usize = 8;
/// A phase that kept the CPU less busy than this was disturbed.
const BUSY_FLOOR: f64 = 0.95;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Quartile distance of the windows behind `value`, as a share of
    /// their median (0 for single readings).
    pub spread: f64,
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations issued: each subscribe, unsubscribe, publication and
    /// crash/restart cycle.
    pub attempted: u64,
    /// Operations that returned `Err` or delivered a set the oracle
    /// disagrees with.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// What the first few failed operations were.
    pub failures: Vec<String>,
    /// Phases whose CPU-busy share fell below [`BUSY_FLOOR`].
    pub disturbed: Vec<String>,
    /// The recorded spans (traced run only).
    pub trace: Option<crate::json::Value>,
}

/// Operations issued and failed, with the first few failures' reasons.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Charges `operations` failed operations, keeping the first few
    /// reasons for the report.
    fn fail(&mut self, operations: usize, what: impl FnOnce() -> String) {
        self.failed += operations as u64;
        if self.failures.len() < FAILURE_NOTES {
            self.failures.push(what());
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(FAILURE_NOTES);
    }
}

/// A built, preloaded system plus everything the phases need around it.
struct Harness<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    sut: Box<dyn Sut>,
    oracle: Oracle,
    live: Vec<SubscriptionId>,
    victims: CryptoRng,
    tally: Tally,
    /// Next unread publication of the stream.
    cursor: usize,
    /// Batches published so far: picks the entry router and the trace id.
    batches: u64,
    /// Next unused fresh subscription.
    fresh: usize,
    deliveries: Vec<Delivery>,
}

/// CPU-busy share of each phase, for the validity check.
#[derive(Default)]
struct Busy(Vec<(&'static str, f64)>);

impl Busy {
    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (wall, cpu) = (Instant::now(), procfs::cpu_seconds());
        let result = f();
        let wall = wall.elapsed().as_secs_f64();
        // CPU time ticks at 10 ms; shorter phases cannot be judged.
        if wall >= 0.5 {
            self.0.push((name, ((procfs::cpu_seconds() - cpu) / wall).min(1.0)));
        }
        result
    }

    fn floor(&self) -> f64 {
        self.0.iter().map(|(_, share)| *share).fold(1.0, f64::min)
    }

    fn disturbed(&self) -> Vec<String> {
        let low = self.0.iter().filter(|(_, share)| *share < BUSY_FLOOR);
        low.map(|(name, share)| format!("{name} ({share:.2} busy)")).collect()
    }
}

impl<'a> Harness<'a> {
    /// The `setup` phase: build/launch/attest/link, then preload the
    /// subscription population. Returns the harness and the seconds taken.
    fn setup(
        workload: Workload,
        inputs: &'a Inputs,
        seed: u64,
        telemetry: bool,
        tracer: &mut Tracer,
    ) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let harness = tracer.span("sut.setup", 0, |_| {
            let sut = sut::build(workload.shape, seed, telemetry)?;
            let mut harness = Harness {
                workload,
                inputs,
                sut,
                oracle: Oracle::new(),
                live: Vec::with_capacity(inputs.preload.len()),
                victims: CryptoRng::from_seed(seed ^ 0x7669_6374_696d),
                tally: Tally::default(),
                cursor: VERIFY_PUBLICATIONS,
                batches: 0,
                fresh: 0,
                deliveries: Vec::new(),
            };
            for sub in &inputs.preload {
                harness.subscribe(sub);
            }
            Ok::<_, String>(harness)
        })?;
        let seconds = start.elapsed().as_secs_f64();
        if harness.live.is_empty() {
            return Err(format!("{}: no subscription survived set-up", workload.name));
        }
        Ok((harness, seconds))
    }

    fn subscribe(&mut self, sub: &SubInput) {
        self.tally.attempted += 1;
        let admitted = self.sut.subscribe(sub.at, sub.client, &sub.spec).and_then(|id| {
            self.oracle.insert(id, sub.at, sub.client, &sub.spec)?;
            self.live.push(id);
            Ok(())
        });
        if let Err(e) = admitted {
            self.tally.fail(1, || format!("subscribe at router {}: {e}", sub.at));
        }
    }

    fn unsubscribe_random_victim(&mut self) {
        self.tally.attempted += 1;
        let victim = self.victims.below(self.live.len() as u64) as usize;
        let id = self.live.swap_remove(victim);
        self.oracle.remove(id);
        if let Err(e) = self.sut.unsubscribe(id) {
            self.tally.fail(1, || format!("unsubscribe {id}: {e}"));
        }
    }

    /// Publishes the next `count` publications of the stream as one batch
    /// inside a `sut.publish` span; returns how many were delivered.
    fn publish_next(&mut self, count: usize, tracer: &mut Tracer) -> usize {
        let pool = &self.inputs.publications;
        if self.cursor + count > pool.len() {
            self.cursor = VERIFY_PUBLICATIONS;
        }
        let batch = &pool[self.cursor..self.cursor + count];
        self.cursor += count;
        self.publish(batch, tracer)
    }

    fn publish(&mut self, batch: &[PublicationSpec], tracer: &mut Tracer) -> usize {
        let entries = self.workload.shape.publish_at();
        let at = entries[(self.batches % entries.len() as u64) as usize];
        self.batches += 1;
        self.tally.attempted += batch.len() as u64;
        let (sut, out) = (&mut self.sut, &mut self.deliveries);
        let trace = PROBE_TRACE + self.batches;
        match tracer.span("sut.publish", trace, |_| sut.publish(at, batch, out)) {
            Ok(()) => self.deliveries.len(),
            Err(e) => {
                self.tally.fail(batch.len(), || format!("publish at router {at}: {e}"));
                0
            }
        }
    }

    /// The `verify` phase: publications against the brute-force oracle.
    fn verify(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let pool = &self.inputs.publications[..VERIFY_PUBLICATIONS];
        for batch in pool.chunks(self.workload.batch) {
            let expected = self.oracle.expected(batch)?;
            let failed_before = self.tally.failed;
            self.publish(batch, tracer);
            let wrong = mismatched_publications(&expected, &self.deliveries, batch.len());
            if self.tally.failed == failed_before && wrong > 0 {
                let got = self.deliveries.len();
                self.tally.fail(wrong, || {
                    format!(
                        "verify: {wrong} of {} publications differ from the oracle \
                         ({got} deliveries, {} expected)",
                        batch.len(),
                        expected.len()
                    )
                });
            }
        }
        Ok(())
    }

    /// One `saturate` window: full batches for `seconds`. Returns
    /// publications per second.
    fn saturate_window(&mut self, seconds: f64, tracer: &mut Tracer) -> f64 {
        let (start, mut published) = (Instant::now(), 0usize);
        while start.elapsed().as_secs_f64() < seconds {
            self.publish_next(self.workload.batch, tracer);
            published += self.workload.batch;
        }
        published as f64 / start.elapsed().as_secs_f64()
    }

    /// One `latency` window: batch-of-1 publishes for `seconds`, each
    /// timed from publication in to all its deliveries out, in
    /// microseconds.
    fn latency_window(&mut self, seconds: f64, tracer: &mut Tracer) -> Vec<f64> {
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let sent = Instant::now();
            self.publish_next(1, tracer);
            samples.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        samples
    }

    /// One `churn` window: `ops` fresh subscribes, then as many
    /// unsubscribes of seeded-random live victims. Returns (subscribes/s,
    /// unsubscribes/s).
    ///
    /// The count is fixed, not the time: what the population looks like
    /// after a round must not depend on how fast the machine was during it,
    /// or a disturbance would change the work of every later window.
    fn churn_window(&mut self, ops: usize, tracer: &mut Tracer) -> (f64, f64) {
        let start = Instant::now();
        for _ in 0..ops {
            let inputs = self.inputs;
            let sub = &inputs.fresh[self.fresh % inputs.fresh.len()];
            self.fresh += 1;
            tracer.span("sut.subscribe", 0, |_| self.subscribe(sub));
        }
        let subscribes = ops as f64 / start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..ops {
            tracer.span("sut.unsubscribe", 0, |_| self.unsubscribe_random_victim());
        }
        (subscribes, ops as f64 / start.elapsed().as_secs_f64())
    }

    /// One `recover` cycle: crash, restart, first successful batch.
    /// Returns milliseconds.
    fn recover_cycle(&mut self, tracer: &mut Tracer) -> f64 {
        self.tally.attempted += 1;
        let (start, failed_before) = (Instant::now(), self.tally.failed);
        let crashed = tracer.span("sut.crash", 0, |_| self.sut.crash());
        let restarted = tracer.span("sut.restart", 0, |_| self.sut.restart());
        self.publish_next(self.workload.batch, tracer);
        let millis = start.elapsed().as_secs_f64() * 1e3;
        // A cycle whose first batch failed is charged once, as a failed
        // recovery, on top of the batch's own failed messages.
        if crashed.is_err() || restarted.is_err() || self.tally.failed != failed_before {
            self.tally.fail(1, || format!("recover: crash {crashed:?}, restart {restarted:?}"));
        }
        millis
    }
}

/// What the fixed reference publish pass measured on the system itself.
struct Reference {
    /// Wall nanoseconds per message, median over repeated passes.
    publish_ns_per_msg: f64,
    /// Deliveries of one pass.
    deliveries: usize,
    /// Crossings, virtual time and frames of exactly one pass at a fixed
    /// history (set-up + verify + one warming pass): these repeat exactly.
    counters: Counters,
    /// The telemetry view just before that pass...
    before: Gauges,
    /// ...and just after it.
    after: Gauges,
}

/// The fixed batches the reference pass carries and the probes replay.
fn probe_batches(batch: usize, inputs: &Inputs) -> Vec<&[PublicationSpec]> {
    let pool = &inputs.publications[VERIFY_PUBLICATIONS..];
    pool.chunks(batch).take(PROBE_BATCHES).collect()
}

impl Harness<'_> {
    /// Publishes the probe batches once, always through the same entry
    /// routers. Returns (wall nanoseconds per message, deliveries).
    fn probe_pass(&mut self, tracer: &mut Tracer) -> (f64, usize) {
        self.batches = 0;
        let batches = probe_batches(self.workload.batch, self.inputs);
        let (start, mut deliveries) = (Instant::now(), 0);
        for batch in &batches {
            deliveries += self.publish(batch, tracer);
        }
        let messages = (batches.len() * self.workload.batch) as f64;
        (start.elapsed().as_nanos() as f64 / messages, deliveries)
    }

    /// The reference pass: once to warm, once between readings, then
    /// repeatedly for wall time.
    fn reference(&mut self, tracer: &mut Tracer) -> Reference {
        let mut silent = Tracer::new(false);
        self.probe_pass(&mut silent);
        let before = self.sut.gauges();
        let start = self.sut.counters();
        let (first_pass, deliveries) =
            tracer.span("reference.pass", PROBE_TRACE, |t| self.probe_pass(t));
        let end = self.sut.counters();
        let after = self.sut.gauges();
        let mut passes = vec![first_pass];
        let budget = Instant::now();
        while passes.len() < 3 || (budget.elapsed().as_secs_f64() < 0.4 && passes.len() < 64) {
            passes.push(self.probe_pass(&mut silent).0);
        }
        Reference {
            publish_ns_per_msg: median(&passes),
            deliveries,
            counters: Counters {
                ecalls: end.ecalls - start.ecalls,
                virtual_ns: end.virtual_ns - start.virtual_ns,
                frames: end.frames - start.frames,
            },
            before,
            after,
        }
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, spread: 0.0 }
}

/// A rate over per-round windows: the mean of their fastest (highest)
/// quarter (see [`fast_quarter_mean`]), with the windows' own quartile spread.
fn rate(name: &'static str, windows: &[f64]) -> Metric {
    let value = fast_quarter_mean(windows, true);
    Metric { name, value, unit: "1/s", spread: quartile_spread(windows) }
}

/// A time over per-round windows: the mean of their fastest (lowest)
/// quarter.
fn time(name: &'static str, windows: &[f64], unit: &'static str) -> Metric {
    let value = fast_quarter_mean(windows, false);
    Metric { name, value, unit, spread: quartile_spread(windows) }
}

impl Report {
    fn new(tally: Tally, metrics: Vec<Metric>, busy: &Busy, tracer: &Tracer) -> Report {
        Report {
            attempted: tally.attempted,
            failed: tally.failed,
            failures: tally.failures,
            metrics,
            disturbed: busy.disturbed(),
            trace: tracer.enabled().then(|| tracer.to_json()),
        }
    }
}

/// Runs `workload` once and reports its end-to-end metrics (`traced ==
/// false`) or its per-layer metrics (`traced == true`).
///
/// # Errors
///
/// A system that cannot be built, or inputs the oracle cannot compile.
/// Failed operations are not errors: they are counted in the report.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let generated = Instant::now();
    let inputs = workload.generate(seed, rounds(seconds) * workload.churn_per_round);
    let gen_s = generated.elapsed().as_secs_f64();
    if traced {
        run_traced(workload, &inputs, seed, seconds, gen_s)
    } else {
        run_untraced(workload, &inputs, seed, seconds)
    }
}

/// Rounds a run of `seconds` is cut into.
fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND_SECONDS).round() as usize).max(MIN_ROUNDS)
}

fn run_untraced(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let mut tracer = Tracer::new(false);
    let t = &mut tracer;
    let mut busy = Busy::default();
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built: Option<Harness> = None;
    for _ in 0..SETUPS {
        // Drop the previous system first: peak memory is one system's.
        if let Some(previous) = built.take() {
            tally.absorb(previous.tally);
        }
        let (harness, setup_s) =
            busy.phase("setup", || Harness::setup(workload, inputs, seed, false, t))?;
        setups.push(setup_s);
        built = Some(harness);
    }
    let mut h = built.expect("SETUPS > 0");
    h.verify(t)?;
    let rounds = rounds(seconds);
    let round = seconds / rounds as f64;
    let (mut rates, mut latencies, mut recoveries) = (Vec::new(), Vec::new(), Vec::new());
    let (mut subscribes, mut unsubscribes) = (Vec::new(), Vec::new());
    busy.phase("rounds", || {
        for _ in 0..rounds {
            rates.push(h.saturate_window(SHARES[0] * round, t));
            latencies.push(h.latency_window(SHARES[1] * round, t));
            let (subscribe, unsubscribe) = h.churn_window(workload.churn_per_round, t);
            subscribes.push(subscribe);
            unsubscribes.push(unsubscribe);
            recoveries.push(h.recover_cycle(t));
        }
    });
    h.verify(t)?;
    let p50s: Vec<f64> = latencies.iter().map(|window| median(window)).collect();
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
            spread: quartile_spread(&setups),
        },
        rate("publish_msgs_per_s", &rates),
        time("deliver_p50_us", &p50s, "us"),
        rate("subscribe_ops_per_s", &subscribes),
        rate("unsubscribe_ops_per_s", &unsubscribes),
        time("recovery_ms", &recoveries, "ms"),
        metric("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
    ];
    tally.absorb(h.tally);
    Ok(Report::new(tally, metrics, &busy, &tracer))
}

fn run_traced(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    gen_s: f64,
) -> Result<Report, String> {
    let mut tracer = Tracer::new(true);
    let mut silent = Tracer::new(false);
    let mut busy = Busy::default();

    // Part A, instrumentation off: the reference pass, the replay probes
    // and the untraced saturate baseline, all at a fixed history.
    let (mut plain, _) =
        busy.phase("setup", || Harness::setup(workload, inputs, seed, false, &mut silent))?;
    plain.verify(&mut silent)?;
    let reference = plain.reference(&mut tracer);
    let batches = probe_batches(workload.batch, inputs);
    let probes =
        busy.phase("probes", || probes::run(&mut tracer, &inputs.preload, &batches, seed))?;
    let window = 0.2 * seconds / 8.0;
    let untraced_rates: Vec<f64> = busy
        .phase("saturate", || (0..8).map(|_| plain.saturate_window(window, &mut silent)).collect());
    // The tail of the delivery latency is a per-layer metric: its spread
    // over runs of one commit on the reference box exceeds the widest
    // bound the driver accepts (25 %), so it cannot gate a change; the
    // median (end to end) can.
    let latencies = plain.latency_window(0.1 * seconds, &mut silent);
    let mut tally = plain.tally;

    // Part B, the system's own telemetry on and a span around every
    // facade call. Saturate records one span per batch and nothing else,
    // so its slowdown against part A is the tracing overhead.
    let (mut h, _) =
        busy.phase("setup", || Harness::setup(workload, inputs, seed, true, &mut tracer))?;
    h.sut.gauges();
    h.probe_pass(&mut tracer);
    let hop_records = h.sut.gauges().hop_records;
    let traced_rates: Vec<f64> =
        busy.phase("saturate", || (0..8).map(|_| h.saturate_window(window, &mut tracer)).collect());
    h.latency_window(0.05 * seconds, &mut tracer);
    for _ in 0..2 {
        h.churn_window(workload.churn_per_round, &mut tracer);
        h.recover_cycle(&mut tracer);
    }
    h.verify(&mut tracer)?;
    let at_end = h.sut.gauges();
    tally.absorb(h.tally);

    let mut metrics = layer_metrics(&workload, &reference, &probes, &at_end);
    let overhead = 100.0
        * (1.0 - fast_quarter_mean(&traced_rates, true) / fast_quarter_mean(&untraced_rates, true));
    let stage_p50 = |stage: Stage| {
        let summary = at_end.stages.iter().find(|s: &&StageSummary| s.stage == stage);
        summary.map_or(0.0, |s| s.p50_ns as f64)
    };
    metrics.extend([
        metric("deliver_p99_us", tail(&latencies), "us"),
        metric("telemetry.overhead_pct", overhead, "%"),
        metric("telemetry.stage.decrypt_p50_virtual_ns", stage_p50(Stage::Decrypt), "ns"),
        metric("telemetry.stage.index_match_p50_virtual_ns", stage_p50(Stage::IndexMatch), "ns"),
        metric("telemetry.stage.seal_p50_virtual_ns", stage_p50(Stage::Seal), "ns"),
        metric("telemetry.stage.hop_crossing_p50_virtual_ns", stage_p50(Stage::HopCrossing), "ns"),
        metric(
            "telemetry.hop_records_per_batch",
            hop_records as f64 / PROBE_BATCHES as f64,
            "count",
        ),
        metric("harness.cpu_busy_share", busy.floor(), "ratio"),
        metric("harness.gen_s", gen_s, "s"),
    ]);
    Ok(Report::new(tally, metrics, &busy, &tracer))
}

/// The per-layer table: probes, reference-pass counters and overlay
/// gauges, with the attribution of the end-to-end publish time.
fn layer_metrics(
    workload: &Workload,
    reference: &Reference,
    p: &Probes,
    at_end: &Gauges,
) -> Vec<Metric> {
    let us = |ns: f64| ns / 1e3;
    let batch = workload.batch as f64;
    let batches = PROBE_BATCHES as f64;
    let messages = batches * batch;
    let c = &reference.counters;
    let (at_setup, g0) = (&reference.after, &reference.before);
    let (hits, misses) =
        (at_setup.cache_hits - g0.cache_hits, at_setup.cache_misses - g0.cache_misses);
    let ecalls_per_batch = c.ecalls as f64 / batches;
    let frames_per_batch = c.frames as f64 / batches;
    let publish_us = us(reference.publish_ns_per_msg);
    let virtual_us = us(c.virtual_ns) / messages;
    let glue_ns = p.engine_match_ns - p.ctr_decrypt_ns - p.decode_header_ns - p.index_match_ns;

    // Attribution: the producer encodes and encrypts each header once;
    // every crossing decrypts and decodes it again; the full index and the
    // engine's span glue are paid once (upstream brokers' small indexes
    // cannot be probed from outside and stay unattributed); every frame
    // pays wire codec (which contains batch pack/unpack), seal and open.
    let crossings = ecalls_per_batch.max(1.0);
    let attributed_us = us(p.encode_header_ns
        + p.ctr_encrypt_ns
        + crossings * (p.ctr_decrypt_ns + p.decode_header_ns + p.ecall_ns / batch)
        + p.index_match_ns
        + glue_ns.max(0.0)
        + frames_per_batch * (p.message_wire_ns + p.link_seal_ns + p.link_open_ns) / batch);
    let routers = at_setup.routers.max(1) as f64;
    let prune_total = (at_setup.forwarded + at_setup.pruned) as f64;

    vec![
        metric("crypto.ctr_decrypt_us_per_msg", us(p.ctr_decrypt_ns), "us"),
        metric("crypto.ctr_encrypt_us_per_msg", us(p.ctr_encrypt_ns), "us"),
        metric("crypto.ctr_mb_per_s", p.header_bytes / p.ctr_decrypt_ns * 1e3, "MB/s"),
        metric("crypto.authenc_seal_us_per_kib", us(p.authenc_seal_ns_per_kib), "us/KiB"),
        metric("crypto.authenc_open_us_per_kib", us(p.authenc_open_ns_per_kib), "us/KiB"),
        metric("crypto.rsa_sign_us", us(p.rsa_sign_ns), "us"),
        metric("crypto.rsa_verify_us", us(p.rsa_verify_ns), "us"),
        metric("codec.encode_header_us_per_msg", us(p.encode_header_ns), "us"),
        metric("codec.decode_header_us_per_msg", us(p.decode_header_ns), "us"),
        metric("codec.message_wire_us_per_batch", us(p.message_wire_ns), "us"),
        metric("index.match_us_per_msg", us(p.index_match_ns), "us"),
        metric("index.mem_reads_per_msg", p.index_reads_per_msg, "count"),
        metric("index.matches_per_msg", p.matches_per_msg, "count"),
        metric("index.node_count", p.node_count, "count"),
        metric("index.logical_bytes", p.logical_bytes, "bytes"),
        metric("index.insert_us", us(p.index_insert_ns), "us"),
        metric("index.remove_us", us(p.index_remove_ns), "us"),
        metric("engine.match_batch_us_per_msg", us(p.engine_match_ns), "us"),
        metric("engine.glue_us_per_msg", us(glue_ns), "us"),
        metric("engine.register_envelope_us", us(p.register_envelope_ns), "us"),
        metric("engine.unregister_envelope_us", us(p.unregister_envelope_ns), "us"),
        metric("engine.snapshot_ms", p.snapshot_ns / 1e6, "ms"),
        metric("engine.restore_ms", p.restore_ns / 1e6, "ms"),
        metric("engine.snapshot_bytes", p.snapshot_bytes, "bytes"),
        metric("sgx_sim.ecall_wall_ns", p.ecall_ns, "ns"),
        metric("sgx_sim.ecalls_per_batch", ecalls_per_batch, "count"),
        metric("sgx_sim.mem_model_us_per_msg", us(p.index_match_ns - p.index_match_free_ns), "us"),
        metric("sgx_sim.virtual_us_per_msg", virtual_us, "us"),
        metric("sgx_sim.wall_over_virtual", publish_us / virtual_us, "ratio"),
        metric("sgx_sim.llc_miss_rate", misses as f64 / (hits + misses).max(1) as f64, "ratio"),
        metric(
            "sgx_sim.epc_swaps_per_kmsg",
            (at_setup.epc_swaps - g0.epc_swaps) as f64 / messages * 1e3,
            "count",
        ),
        metric("sgx_sim.seal_ms_per_mib", p.seal_ns_per_mib / 1e6, "ms/MiB"),
        metric("sgx_sim.unseal_ms_per_mib", p.unseal_ns_per_mib / 1e6, "ms/MiB"),
        metric("sgx_sim.link_handshake_ms", p.link_handshake_ns / 1e6, "ms"),
        metric("net.batch_pack_us_per_batch", us(p.batch_pack_ns), "us"),
        metric("net.batch_unpack_us_per_batch", us(p.batch_unpack_ns), "us"),
        metric("net.link_seal_us_per_frame", us(p.link_seal_ns), "us"),
        metric("net.link_open_us_per_frame", us(p.link_open_ns), "us"),
        metric("net.frame_bytes_per_msg", p.frame_bytes_per_msg, "bytes"),
        metric("net.frames_per_batch", frames_per_batch, "count"),
        metric("overlay.publish_us_per_msg", publish_us, "us"),
        metric("overlay.unattributed_us_per_msg", publish_us - attributed_us, "us"),
        metric("overlay.attributed_share", attributed_us / publish_us, "ratio"),
        metric("overlay.deliveries_per_msg", reference.deliveries as f64 / messages, "count"),
        metric("overlay.ecalls_per_broker_per_batch", ecalls_per_batch / routers, "count"),
        metric("overlay.forwarded_subs", at_setup.forwarded as f64, "count"),
        metric("overlay.pruned_subs", at_setup.pruned as f64, "count"),
        metric(
            "overlay.prune_ratio",
            if prune_total > 0.0 { at_setup.pruned as f64 / prune_total } else { 0.0 },
            "ratio",
        ),
        metric("overlay.sealed_record_bytes", at_setup.sealed_record_bytes as f64, "bytes"),
        metric("overlay.uncovered", at_end.uncovered as f64, "count"),
        metric("overlay.seals", at_end.seals as f64, "count"),
        metric("overlay.seals_saved", at_end.seals_saved as f64, "count"),
        metric("overlay.recovery_frames", at_end.recovery_frames as f64, "count"),
        metric("overlay.replayed_subs", at_end.replayed as f64, "count"),
        metric("overlay.slice_skew_milli", at_end.slice_skew_milli as f64, "count"),
        metric("overlay.migrations", at_end.migrations as f64, "count"),
    ]
}
