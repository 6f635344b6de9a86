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
//! | `scaleout` | extension | partitioned router vs the EPC limit, 1/2/4/8 slices |
//! | `batching` | extension | batch size × slice count: amortised enclave transitions |
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
use scbr::index::IndexKind;
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr_aspe::{AspeAuthority, AspeMatcher};
use scbr_crypto::ctr::AesCtr;
use scbr_crypto::rng::CryptoRng;
use scbr_workloads::{MarketConfig, StockMarket, Workload};
use sgx_sim::{MemStats, SgxPlatform};

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
            RouterEngine::outside(platform, IndexKind::Poset)
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

/// Formats a matching-time table row.
pub fn format_point(label: &str, p: &MatchPoint) -> String {
    format!(
        "{label:<10} subs={:<7} match={:>12.2} µs  miss={:>5.1}%  db={:>7.2} MB",
        p.subs,
        p.matching_us,
        p.cache_miss_rate * 100.0,
        p.index_bytes as f64 / (1024.0 * 1024.0)
    )
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
