//! # scbr-bench
//!
//! Harnesses regenerating every table and figure of the SCBR paper's
//! evaluation (§4). One binary per artefact:
//!
//! | binary | artefact | what it prints |
//! |--------|----------|----------------|
//! | `table1` | Table 1 | the nine workload descriptions, measured from generated data |
//! | `fig5` | Figure 5 | matching time vs #subscriptions, {in, out} × {AES, plain}, `e100a1` |
//! | `fig6` | Figure 6 | matching time vs #subscriptions, all nine workloads, plaintext outside |
//! | `fig7` | Figure 7 | per workload: Out ASPE vs In AES vs Out AES + cache-miss % |
//! | `fig8` | Figure 8 | registration-time and page-fault in/out ratios vs database size |
//! | `scaleout` | extension | one attested broker vs stars of 2/4/8 leaves under a reduced EPC |
//! | `batching` | extension | batch size × star width: amortised enclave transitions |
//! | `overlay` | extension | broker chains: covering-pruned propagation, multi-hop batches |
//!
//! All times are **virtual nanoseconds** from the `sgx-sim` cost model
//! (deterministic, host-independent) unless a column is explicitly
//! labelled wall-clock; `tests/figures_smoke.rs` asserts each figure's
//! directional claim at smoke scale, and the README's "Reproducing the
//! paper's figures and tables" section lists how to run them.
//!
//! Set `SCBR_JSON=1` (or `SCBR_JSON=<dir>`) and the binaries additionally
//! write machine-readable `BENCH_<artefact>.json` files ([`json`]), so
//! the performance trajectory can be tracked across PRs.
//!
//! Scale is controlled by `SCBR_SCALE`:
//!
//! * `smoke` — seconds; CI sanity check.
//! * `quick` (default) — minutes; full curve shapes at reduced batch sizes.
//! * `full` — the paper's parameters (1 000-publication batches, 500 k
//!   registrations); expect a long run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use scbr::engine::RouterEngine;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::{IndexKind, SubscriptionIndex};
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr_aspe::{AspeAuthority, AspeMatcher};
use scbr_crypto::ctr::AesCtr;
use scbr_crypto::rng::CryptoRng;
use scbr_overlay::{Delivery, FabricConfig, OverlayFabric, Topology};
use scbr_workloads::{MarketConfig, StockMarket, Workload};
use sgx_sim::{EpcConfig, MemStats, SgxPlatform};

/// Experiment scale parameters.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Subscription-count checkpoints (x axis of Figures 5–7).
    pub sub_counts: Vec<usize>,
    /// Publications matched per checkpoint (the paper used 1 000).
    pub pubs_per_point: usize,
    /// Publications for the ASPE baseline (its matching is far slower).
    pub aspe_pubs_per_point: usize,
    /// Market generation parameters.
    pub market: MarketConfig,
    /// Maximum registrations for Figure 8 (the paper used 500 000).
    pub fig8_max_subs: usize,
    /// Averaging bucket for Figure 8 (the paper used 5 000).
    pub fig8_bucket: usize,
    /// Human-readable name of this scale.
    pub name: &'static str,
}

impl Scale {
    /// Reads the scale from `SCBR_SCALE` (`smoke`/`quick`/`full`).
    pub fn from_env() -> Self {
        match std::env::var("SCBR_SCALE").as_deref() {
            Ok("smoke") => Scale::smoke(),
            Ok("full") => Scale::full(),
            _ => Scale::quick(),
        }
    }

    /// Seconds-scale sanity run.
    pub fn smoke() -> Self {
        Scale {
            sub_counts: vec![500, 1_000, 2_500],
            pubs_per_point: 5,
            aspe_pubs_per_point: 2,
            market: MarketConfig::small(),
            fig8_max_subs: 30_000,
            fig8_bucket: 2_000,
            name: "smoke",
        }
    }

    /// Default: full curve shapes at reduced batch sizes.
    pub fn quick() -> Self {
        Scale {
            sub_counts: vec![1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000],
            pubs_per_point: 20,
            aspe_pubs_per_point: 4,
            market: MarketConfig::paper_scale(),
            fig8_max_subs: 500_000,
            fig8_bucket: 10_000,
            name: "quick",
        }
    }

    /// The paper's parameters.
    pub fn full() -> Self {
        Scale {
            sub_counts: vec![1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000],
            pubs_per_point: 1_000,
            aspe_pubs_per_point: 50,
            market: MarketConfig::paper_scale(),
            fig8_max_subs: 500_000,
            fig8_bucket: 5_000,
            name: "full",
        }
    }
}

/// One measured point: average per-publication matching time plus memory
/// counters.
#[derive(Debug, Clone, Copy)]
pub struct MatchPoint {
    /// Registered subscriptions at this checkpoint.
    pub subs: usize,
    /// Average matching time per publication, virtual microseconds.
    pub matching_us: f64,
    /// LLC miss rate during the measured batch.
    pub cache_miss_rate: f64,
    /// Index footprint in bytes.
    pub index_bytes: u64,
}

/// The four engine configurations of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineConfig {
    /// Inside the enclave, AES-encrypted headers.
    InAes,
    /// Inside the enclave, plaintext headers.
    InPlain,
    /// Outside, AES-encrypted headers.
    OutAes,
    /// Outside, plaintext headers.
    OutPlain,
}

impl EngineConfig {
    /// Label used in the output tables.
    pub fn label(&self) -> &'static str {
        match self {
            EngineConfig::InAes => "in-aes",
            EngineConfig::InPlain => "in-plain",
            EngineConfig::OutAes => "out-aes",
            EngineConfig::OutPlain => "out-plain",
        }
    }

    /// Whether the engine sits inside the enclave.
    pub fn inside(&self) -> bool {
        matches!(self, EngineConfig::InAes | EngineConfig::InPlain)
    }

    /// Whether headers are AES-encrypted.
    pub fn encrypted(&self) -> bool {
        matches!(self, EngineConfig::InAes | EngineConfig::OutAes)
    }
}

/// A matching-experiment driver: one engine, one workload, incremental
/// subscription loading with measurements at each checkpoint.
pub struct MatchExperiment {
    engine: RouterEngine,
    config: EngineConfig,
    sk: scbr_crypto::ctr::SymmetricKey,
    loaded: usize,
}

impl MatchExperiment {
    /// Builds the engine for `config` on `platform`.
    pub fn new(platform: &SgxPlatform, config: EngineConfig) -> Self {
        let mut engine = if config.inside() {
            RouterEngine::in_enclave(platform, IndexKind::Poset).expect("enclave launch")
        } else {
            RouterEngine::outside(platform)
        };
        // A fixed SK: the key-exchange protocol is exercised in tests and
        // examples; experiments measure steady-state matching.
        let sk = scbr_crypto::ctr::SymmetricKey::from_bytes([0x5c; 16]);
        let pk = scbr_crypto::rsa::RsaPublicKey::from_parts(
            scbr_crypto::BigUint::from_u64(3233),
            scbr_crypto::BigUint::from_u64(17),
        );
        let sk_for_engine = sk.clone();
        engine.call(move |e| e.provision_keys(sk_for_engine, pk));
        MatchExperiment { engine, config, sk, loaded: 0 }
    }

    /// Loads subscriptions `[loaded, upto)` from `subs`.
    pub fn load_to(&mut self, subs: &[SubscriptionSpec], upto: usize) {
        let upto = upto.min(subs.len());
        for (i, sub) in subs.iter().enumerate().take(upto).skip(self.loaded) {
            self.engine
                .call(|e| e.register_plain(SubscriptionId(i as u64), ClientId(i as u64), sub))
                .expect("workload subscriptions compile");
        }
        self.loaded = upto;
    }

    /// Matches one publication, returning raw client ids (correctness
    /// checks; uses the plaintext path regardless of configuration).
    // lint: allow(SL08, all_configs_agree_on_results in tests/figures_smoke.rs)
    pub fn match_clients(&mut self, publication: &PublicationSpec) -> Vec<u64> {
        self.engine
            .call(|e| e.match_plain(publication))
            .expect("matching")
            .into_iter()
            .map(|c| c.0)
            .collect()
    }

    /// Measures average matching time over `publications`.
    pub fn measure(&mut self, publications: &[PublicationSpec]) -> MatchPoint {
        let mut rng = CryptoRng::from_seed(0xbeef);
        let encrypted: Vec<Vec<u8>> = if self.config.encrypted() {
            publications
                .iter()
                .map(|p| {
                    let plain = scbr::codec::encode_header(p);
                    AesCtr::encrypt_with_nonce(&self.sk, &mut rng, &plain)
                })
                .collect()
        } else {
            Vec::new()
        };
        // Warm up with one publication, then measure.
        if let Some(first) = publications.first() {
            let _ = self.engine.call(|e| e.match_plain(first));
        }
        self.engine.reset_counters();
        if self.config.encrypted() {
            for ct in &encrypted {
                self.engine.call(|e| e.match_encrypted(ct)).expect("encrypted matching");
            }
        } else {
            for p in publications {
                self.engine.call(|e| e.match_plain(p)).expect("plain matching");
            }
        }
        let stats: MemStats = self.engine.stats();
        MatchPoint {
            subs: self.loaded,
            matching_us: stats.elapsed_ns / publications.len().max(1) as f64 / 1_000.0,
            cache_miss_rate: stats.cache_miss_rate(),
            index_bytes: self.engine.engine().index().logical_bytes(),
        }
    }
}

/// ASPE-baseline driver mirroring [`MatchExperiment`].
pub struct AspeExperiment {
    authority: AspeAuthority,
    matcher: AspeMatcher,
    rng: CryptoRng,
    loaded: usize,
}

impl AspeExperiment {
    /// Builds the ASPE authority and matcher for a workload's attribute
    /// layout.
    pub fn new(platform: &SgxPlatform, workload: &Workload) -> Self {
        let mut rng = CryptoRng::from_seed(0xa59e);
        let mut numeric: Vec<String> = Vec::new();
        let mut eq: Vec<String> = Vec::new();
        for g in 0..workload.attr_multiplier() {
            let suffix = if g == 0 { String::new() } else { format!("_{}", g + 1) };
            for base in StockMarket::numeric_attributes() {
                numeric.push(format!("{base}{suffix}"));
            }
            eq.push(format!("symbol{suffix}"));
            eq.push(format!("day{suffix}"));
        }
        let numeric_refs: Vec<&str> = numeric.iter().map(|s| s.as_str()).collect();
        let eq_refs: Vec<&str> = eq.iter().map(|s| s.as_str()).collect();
        let authority = AspeAuthority::new(&numeric_refs, &eq_refs, &mut rng);
        let mem =
            sgx_sim::MemorySim::native(*platform.cache_config(), platform.cost_model().clone());
        AspeExperiment { authority, matcher: AspeMatcher::new(&mem), rng, loaded: 0 }
    }

    /// Loads subscriptions `[loaded, upto)`.
    pub fn load_to(&mut self, subs: &[SubscriptionSpec], upto: usize) {
        let upto = upto.min(subs.len());
        for (i, sub) in subs.iter().enumerate().take(upto).skip(self.loaded) {
            let enc = self
                .authority
                .encrypt_subscription(sub, &mut self.rng)
                .expect("workload subscriptions encryptable");
            self.matcher.insert(SubscriptionId(i as u64), ClientId(i as u64), enc);
        }
        self.loaded = upto;
    }

    /// Measures average matching time over `publications`.
    pub fn measure(&mut self, publications: &[PublicationSpec]) -> MatchPoint {
        let encrypted: Vec<_> = publications
            .iter()
            .map(|p| self.authority.encrypt_publication(p, &mut self.rng).expect("schema complete"))
            .collect();
        if let Some(first) = encrypted.first() {
            let _ = self.matcher.match_publication(first);
        }
        self.matcher.memory().reset_counters();
        for e in &encrypted {
            self.matcher.match_publication(e);
        }
        let stats = self.matcher.memory().stats();
        MatchPoint {
            subs: self.loaded,
            matching_us: stats.elapsed_ns / publications.len().max(1) as f64 / 1_000.0,
            cache_miss_rate: stats.cache_miss_rate(),
            index_bytes: self.matcher.logical_bytes(),
        }
    }
}

/// The scale-out deployment the `scaleout` and `batching` bins sweep, with
/// `subs` registered: one attested broker when `leaves` is 1, otherwise a
/// star of hub 0 and `leaves` leaves, subscription `i` (client `i`) on
/// leaf `1 + i % leaves`. Every broker's machine has EPC geometry `epc`.
/// Publications enter at broker 0.
///
/// # Panics
///
/// Panics if the fabric cannot be built or a subscription is refused.
pub fn scaleout_fabric(
    leaves: usize,
    epc: EpcConfig,
    seed: u64,
    subs: &[SubscriptionSpec],
) -> OverlayFabric {
    let topology = if leaves == 1 { Topology::line(1) } else { Topology::star(1 + leaves) };
    let config = FabricConfig { epc, ..FabricConfig::attested(seed) };
    let mut fabric = OverlayFabric::build(topology, config).expect("fabric build");
    for (i, spec) in subs.iter().enumerate() {
        let at = if leaves == 1 { 0 } else { 1 + i % leaves };
        fabric.subscribe(at, ClientId(i as u64), spec).expect("subscribe");
    }
    fabric
}

/// Virtual nanoseconds since the last reset on the longest path through a
/// [`scaleout_fabric`]: the hub's clock plus the slowest leaf's (the one
/// broker's clock when there are no leaves). That is one batch's latency;
/// [`OverlayFabric::max_elapsed_ns`] is the bottleneck broker instead.
pub fn path_elapsed_ns(fabric: &OverlayFabric) -> f64 {
    let stats = fabric.broker_stats();
    let slowest_leaf = stats[1..].iter().map(|s| s.elapsed_ns).fold(0.0, f64::max);
    stats[0].elapsed_ns + slowest_leaf
}

/// Sums memory counter `name` (`epc_swaps`, `allocated_bytes`, …) over
/// the fabric's brokers, and takes its largest per-broker value, from the
/// `mem.*` telemetry counters.
pub fn mem_counter(fabric: &mut OverlayFabric, name: &str) -> (u64, u64) {
    let key = format!("mem.{name}");
    let values: Vec<u64> =
        fabric.telemetry().brokers.iter().map(|b| b.counters.get(&key).unwrap_or(0)).collect();
    (values.iter().sum(), values.iter().copied().max().unwrap_or(0))
}

/// Who received what: the sorted `(client, publication)` pairs of
/// `deliveries`, publication indices shifted by `offset` (the batch's
/// position in the run), whichever broker delivered them.
pub fn delivered(deliveries: &[Delivery], offset: usize) -> Vec<(ClientId, usize)> {
    let mut pairs: Vec<_> = deliveries.iter().map(|d| (d.client, offset + d.publication)).collect();
    pairs.sort_unstable();
    pairs
}

/// Prints a standard experiment header.
pub fn banner(figure: &str, description: &str, scale: &Scale) {
    println!("==============================================================");
    println!("SCBR reproduction — {figure}");
    println!("{description}");
    println!("scale={} (SCBR_SCALE=smoke|quick|full), virtual-clock measurements", scale.name);
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use scbr_workloads::WorkloadName;

    #[test]
    fn smoke_scale_experiment_runs() {
        let scale = Scale::smoke();
        let market = StockMarket::generate(&scale.market, 1);
        let workload = Workload::from_name(WorkloadName::E100A1);
        let subs = workload.subscriptions(&market, 300, 2);
        let pubs = workload.publications(&market, 3, 3);
        let platform = SgxPlatform::for_testing(4);

        let mut inside = MatchExperiment::new(&platform, EngineConfig::InAes);
        let mut outside = MatchExperiment::new(&platform, EngineConfig::OutPlain);
        inside.load_to(&subs, 300);
        outside.load_to(&subs, 300);
        let pi = inside.measure(&pubs);
        let po = outside.measure(&pubs);
        assert!(pi.matching_us > 0.0);
        assert!(po.matching_us > 0.0);
        assert!(pi.matching_us > po.matching_us, "enclave + AES costs more");
        assert_eq!(pi.subs, 300);
    }

    #[test]
    fn aspe_experiment_runs_and_is_slower() {
        let scale = Scale::smoke();
        let market = StockMarket::generate(&scale.market, 1);
        let workload = Workload::from_name(WorkloadName::E100A1);
        let subs = workload.subscriptions(&market, 300, 2);
        let pubs = workload.publications(&market, 3, 3);
        let platform = SgxPlatform::for_testing(4);

        let mut aspe = AspeExperiment::new(&platform, &workload);
        aspe.load_to(&subs, 300);
        let pa = aspe.measure(&pubs);

        let mut scbr = MatchExperiment::new(&platform, EngineConfig::OutAes);
        scbr.load_to(&subs, 300);
        let ps = scbr.measure(&pubs);
        assert!(
            pa.matching_us > ps.matching_us,
            "aspe {} µs should exceed scbr {} µs",
            pa.matching_us,
            ps.matching_us
        );
    }

    #[test]
    fn scales_parse_from_env_default() {
        let s = Scale::from_env();
        assert!(!s.sub_counts.is_empty());
    }
}
