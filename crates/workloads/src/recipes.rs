//! The nine Table 1 workload recipes.
//!
//! Each recipe controls three axes (see the crate docs for the full
//! table):
//!
//! * the distribution of equality-predicate counts per subscription;
//! * the attribute multiplier (publications merge 1, 2 or 4 quotes);
//! * how values are selected (uniform, Zipf over symbols, or Zipf over
//!   all attribute values).
//!
//! Range predicates are drawn from a *nesting ladder*: per (symbol,
//! attribute) anchor values with geometrically increasing widths, so that
//! equality-heavy workloads over hot symbols produce the deep containment
//! trees the paper's Figure 6 attributes its fastest curves to, while the
//! attribute-multiplied workloads scatter constraints across 2–4× more
//! attributes and flatten the forest.

use crate::market::StockMarket;
use crate::zipf::Zipf;
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::rng::CryptoRng;

/// The nine workloads of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are the paper's dataset names
pub enum WorkloadName {
    E100A1,
    E80A1,
    E80A2,
    E80A4,
    ExtSub2,
    ExtSub4,
    E80A1Z100,
    E80A1Zz100,
    E100A1Zz100,
}

impl WorkloadName {
    /// All nine, in the paper's Table 1 order.
    pub fn all() -> [WorkloadName; 9] {
        [
            WorkloadName::E100A1,
            WorkloadName::E80A1,
            WorkloadName::E80A2,
            WorkloadName::E80A4,
            WorkloadName::ExtSub2,
            WorkloadName::ExtSub4,
            WorkloadName::E80A1Z100,
            WorkloadName::E80A1Zz100,
            WorkloadName::E100A1Zz100,
        ]
    }

    /// The paper's dataset name.
    pub fn as_str(&self) -> &'static str {
        match self {
            WorkloadName::E100A1 => "e100a1",
            WorkloadName::E80A1 => "e80a1",
            WorkloadName::E80A2 => "e80a2",
            WorkloadName::E80A4 => "e80a4",
            WorkloadName::ExtSub2 => "extsub2",
            WorkloadName::ExtSub4 => "extsub4",
            WorkloadName::E80A1Z100 => "e80a1z100",
            WorkloadName::E80A1Zz100 => "e80a1zz100",
            WorkloadName::E100A1Zz100 => "e100a1zz100",
        }
    }
}

impl std::fmt::Display for WorkloadName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// How subscription reference values are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSelection {
    /// Uniformly random symbols and days.
    Uniform,
    /// Zipf(s=1) over symbols, uniform days.
    ZipfSymbol,
    /// Zipf(s=1) over symbols, days and ladder levels.
    ZipfAll,
}

/// A fully parameterised workload.
#[derive(Debug, Clone)]
pub struct Workload {
    name: WorkloadName,
    /// `(equality predicate count, probability)` rows.
    eq_dist: Vec<(usize, f64)>,
    /// 1, 2 or 4 quotes merged per publication.
    attr_multiplier: usize,
    selection: ValueSelection,
}

/// Widths of the range-nesting ladder (relative half-widths).
const LADDER: [f64; 7] = [0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64];

impl Workload {
    /// Builds the recipe for `name`.
    pub fn from_name(name: WorkloadName) -> Self {
        use WorkloadName::*;
        let (eq_dist, attr_multiplier, selection): (Vec<(usize, f64)>, usize, ValueSelection) =
            match name {
                E100A1 => (vec![(1, 1.0)], 1, ValueSelection::Uniform),
                E80A1 => (vec![(0, 0.2), (1, 0.8)], 1, ValueSelection::Uniform),
                E80A2 => (vec![(0, 0.2), (1, 0.8)], 2, ValueSelection::Uniform),
                E80A4 => (vec![(0, 0.2), (1, 0.8)], 4, ValueSelection::Uniform),
                ExtSub2 => {
                    (vec![(0, 0.15), (1, 0.60), (2, 0.15), (3, 0.10)], 2, ValueSelection::Uniform)
                }
                ExtSub4 => {
                    (vec![(0, 0.15), (1, 0.60), (2, 0.15), (3, 0.10)], 4, ValueSelection::Uniform)
                }
                E80A1Z100 => (vec![(0, 0.2), (1, 0.8)], 1, ValueSelection::ZipfSymbol),
                E80A1Zz100 => (vec![(0, 0.2), (1, 0.8)], 1, ValueSelection::ZipfAll),
                E100A1Zz100 => (vec![(1, 1.0)], 1, ValueSelection::ZipfAll),
            };
        Workload { name, eq_dist, attr_multiplier, selection }
    }

    /// Looks a recipe up by the paper's dataset name.
    pub fn by_name(name: &str) -> Option<Self> {
        WorkloadName::all().into_iter().find(|w| w.as_str() == name).map(Self::from_name)
    }

    /// All nine recipes in Table 1 order.
    pub fn all() -> Vec<Self> {
        WorkloadName::all().into_iter().map(Self::from_name).collect()
    }

    /// The workload's name.
    pub fn name(&self) -> WorkloadName {
        self.name
    }

    /// The attribute multiplier (1, 2 or 4).
    pub fn attr_multiplier(&self) -> usize {
        self.attr_multiplier
    }

    /// The value-selection mode.
    pub fn selection(&self) -> ValueSelection {
        self.selection
    }

    fn draw_eq_count(&self, rng: &mut CryptoRng) -> usize {
        let u = rng.unit_f64();
        let mut acc = 0.0;
        for (count, p) in &self.eq_dist {
            acc += p;
            if u < acc {
                return *count;
            }
        }
        self.eq_dist.last().map(|(c, _)| *c).unwrap_or(0)
    }

    fn draw_symbol(&self, market: &StockMarket, zipf: &Zipf, rng: &mut CryptoRng) -> usize {
        match self.selection {
            ValueSelection::Uniform => rng.below(market.symbols().len() as u64) as usize,
            ValueSelection::ZipfSymbol | ValueSelection::ZipfAll => zipf.sample(rng),
        }
    }

    fn draw_ladder_level(&self, ladder_zipf: &Zipf, rng: &mut CryptoRng) -> usize {
        match self.selection {
            ValueSelection::ZipfAll => ladder_zipf.sample(rng),
            _ => rng.below(LADDER.len() as u64) as usize,
        }
    }

    /// Generates `n` subscriptions deterministically from `seed`.
    pub fn subscriptions(
        &self,
        market: &StockMarket,
        n: usize,
        seed: u64,
    ) -> Vec<SubscriptionSpec> {
        let mut rng = CryptoRng::from_seed(seed);
        let symbol_zipf = Zipf::new(market.symbols().len(), 1.0);
        let ladder_zipf = Zipf::new(LADDER.len(), 1.0);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.one_subscription(market, &symbol_zipf, &ladder_zipf, &mut rng));
        }
        out
    }

    fn one_subscription(
        &self,
        market: &StockMarket,
        symbol_zipf: &Zipf,
        ladder_zipf: &Zipf,
        rng: &mut CryptoRng,
    ) -> SubscriptionSpec {
        let mut spec = SubscriptionSpec::new();
        let eq_count = self.draw_eq_count(rng);

        // Which quote group (suffix) each predicate targets.
        let group_suffix = |g: usize| if g == 0 { String::new() } else { format!("_{}", g + 1) };

        // Equality predicates: symbol equality on distinct quote groups,
        // then day equality once groups run out.
        let mut eq_attrs: Vec<(String, usize)> = Vec::new(); // (attr name, group)
        for g in 0..self.attr_multiplier {
            eq_attrs.push((format!("symbol{}", group_suffix(g)), g));
        }
        eq_attrs.push(("day".to_owned(), 0));
        let primary_symbol = self.draw_symbol(market, symbol_zipf, rng);
        for (attr, group) in eq_attrs.iter().take(eq_count) {
            if attr.starts_with("symbol") {
                let sym = if *group == 0 {
                    primary_symbol
                } else {
                    self.draw_symbol(market, symbol_zipf, rng)
                };
                spec = spec.eq(attr, market.symbols()[sym].as_str());
            } else {
                let day = rng.below(market.config().days as u64) as i64;
                spec = spec.eq(attr, day);
            }
        }

        // Range predicates from the nesting ladder: usually one, sometimes
        // two, each on a distinct attribute (two independent ranges on one
        // attribute would frequently be contradictory).
        let n_ranges = if rng.chance(0.7) { 1 } else { 2 };
        let numeric = StockMarket::numeric_attributes();
        let mut used_attrs: Vec<String> = Vec::new();
        for _ in 0..n_ranges {
            let group = rng.below(self.attr_multiplier as u64) as usize;
            let attr_base = numeric[rng.below(numeric.len() as u64) as usize];
            let attr = format!("{attr_base}{}", group_suffix(group));
            if used_attrs.contains(&attr) {
                continue;
            }
            used_attrs.push(attr.clone());
            // Anchor: the symbol's day-0 value for this attribute, which
            // makes same-symbol ranges nest; occasionally use a random
            // day's value instead to add sibling diversity.
            let sym = if group == 0 {
                primary_symbol
            } else {
                self.draw_symbol(market, symbol_zipf, rng)
            };
            let day =
                if rng.chance(0.15) { rng.below(market.config().days as u64) as usize } else { 0 };
            let quote = market.quote(sym, day);
            let center: f64 = match attr_base {
                "open" => quote.open,
                "high" => quote.high,
                "low" => quote.low,
                "close" => quote.close,
                "volume" => quote.volume as f64,
                "change" => quote.change.abs().max(0.01),
                _ => quote.pct_change.abs().max(0.01),
            };
            let width = LADDER[self.draw_ladder_level(ladder_zipf, rng)];
            let (lo, hi) = (center * (1.0 - width), center * (1.0 + width));
            let style = rng.below(10);
            if attr_base == "volume" {
                let (lo, hi) = (lo as i64, hi as i64 + 1);
                spec = match style {
                    0 => spec.ge(&attr, lo),
                    1 => spec.le(&attr, hi),
                    _ => spec.between(&attr, lo, hi),
                };
            } else {
                spec = match style {
                    0 => spec.ge(&attr, round4(lo)),
                    1 => spec.le(&attr, round4(hi)),
                    _ => spec.between(&attr, round4(lo), round4(hi)),
                };
            }
        }
        spec
    }

    /// Generates `n` publications deterministically from `seed`.
    pub fn publications(&self, market: &StockMarket, n: usize, seed: u64) -> Vec<PublicationSpec> {
        let mut rng = CryptoRng::from_seed(seed);
        let symbol_zipf = Zipf::new(market.symbols().len(), 1.0);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let sym = self.draw_symbol(market, &symbol_zipf, &mut rng);
            let day = rng.below(market.config().days as u64) as usize;
            let primary = market.quote(sym, day);
            let mut merged: Vec<&crate::market::Quote> = Vec::new();
            for _ in 1..self.attr_multiplier {
                let s = rng.below(market.symbols().len() as u64) as usize;
                let d = rng.below(market.config().days as u64) as usize;
                merged.push(market.quote(s, d));
            }
            let payload = format!("quote #{i} {} day {}", primary.symbol, primary.day);
            out.push(primary.to_publication(&merged, payload.into_bytes()));
        }
        out
    }
}

fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketConfig;
    use scbr::attr::AttrSchema;
    use scbr::ids::{ClientId, SubscriptionId};
    use scbr::index::poset::PosetIndex;
    use scbr::index::{MatchScratch, SubscriptionIndex};
    use sgx_sim::{CostModel, MemorySim};

    fn market() -> StockMarket {
        StockMarket::generate(&MarketConfig::small(), 1)
    }

    #[test]
    fn all_nine_recipes_resolve() {
        assert_eq!(Workload::all().len(), 9);
        for name in WorkloadName::all() {
            let w = Workload::by_name(name.as_str()).unwrap();
            assert_eq!(w.name(), name);
        }
        assert!(Workload::by_name("bogus").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let m = market();
        let w = Workload::from_name(WorkloadName::E80A1);
        assert_eq!(w.subscriptions(&m, 50, 9), w.subscriptions(&m, 50, 9));
        assert_ne!(w.subscriptions(&m, 50, 9), w.subscriptions(&m, 50, 10));
    }

    #[test]
    fn all_subscriptions_compile() {
        let m = market();
        let schema = AttrSchema::new();
        for w in Workload::all() {
            for spec in w.subscriptions(&m, 200, 42) {
                spec.compile(&schema)
                    .unwrap_or_else(|e| panic!("{}: {spec} failed: {e}", w.name()));
            }
        }
    }

    #[test]
    fn all_publications_compile() {
        let m = market();
        let schema = AttrSchema::new();
        for w in Workload::all() {
            for publication in w.publications(&m, 50, 43) {
                publication.compile_header(&schema).unwrap();
            }
        }
    }

    #[test]
    fn equality_counts_match_distribution() {
        let m = market();
        let w = Workload::from_name(WorkloadName::E80A1);
        let subs = w.subscriptions(&m, 2000, 11);
        let with_eq = subs
            .iter()
            .filter(|s| s.predicates().iter().any(|p| p.op == scbr::predicate::Op::Eq))
            .count();
        let share = with_eq as f64 / subs.len() as f64;
        assert!((share - 0.8).abs() < 0.05, "e80a1 eq share {share}");

        let w100 = Workload::from_name(WorkloadName::E100A1);
        let subs100 = w100.subscriptions(&m, 500, 12);
        assert!(subs100.iter().all(|s| {
            s.predicates().iter().filter(|p| p.op == scbr::predicate::Op::Eq).count() == 1
        }));
    }

    #[test]
    fn extsub_has_multi_equality_subscriptions() {
        let m = market();
        let w = Workload::from_name(WorkloadName::ExtSub2);
        let subs = w.subscriptions(&m, 2000, 13);
        let max_eq = subs
            .iter()
            .map(|s| s.predicates().iter().filter(|p| p.op == scbr::predicate::Op::Eq).count())
            .max()
            .unwrap();
        assert_eq!(max_eq, 3, "extsub draws up to 3 equality predicates");
    }

    #[test]
    fn attribute_multiplier_expands_publications() {
        let m = market();
        let w1 = Workload::from_name(WorkloadName::E80A1);
        let w2 = Workload::from_name(WorkloadName::E80A2);
        let w4 = Workload::from_name(WorkloadName::E80A4);
        let p1 = &w1.publications(&m, 5, 14)[0];
        let p2 = &w2.publications(&m, 5, 14)[0];
        let p4 = &w4.publications(&m, 5, 14)[0];
        assert!(p2.header().len() >= 2 * p1.header().len() - 4);
        assert!(p4.header().len() >= 4 * p1.header().len() - 10);
    }

    #[test]
    fn multiplied_workloads_reference_suffixed_attributes() {
        let m = market();
        let w4 = Workload::from_name(WorkloadName::E80A4);
        let subs = w4.subscriptions(&m, 500, 15);
        let touches_suffix = subs
            .iter()
            .any(|s| s.predicates().iter().any(|p| p.attr.contains("_2") || p.attr.contains("_4")));
        assert!(touches_suffix, "a4 subscriptions spread over merged attribute groups");
    }

    #[test]
    fn zipf_workloads_concentrate_symbols() {
        let m = market();
        let uniform = Workload::from_name(WorkloadName::E80A1);
        let zipf = Workload::from_name(WorkloadName::E80A1Z100);
        let count_top = |w: &Workload| {
            let subs = w.subscriptions(&m, 2000, 16);
            let top_symbol = m.symbols()[0].as_str();
            subs.iter()
                .filter(|s| {
                    s.predicates().iter().any(|p| {
                        p.attr == "symbol"
                            && matches!(&p.value, scbr::value::Value::Str(v) if v == top_symbol)
                    })
                })
                .count()
        };
        let u = count_top(&uniform);
        let z = count_top(&zipf);
        assert!(z > 2 * u, "zipf concentrates on rank-0 symbol: uniform {u} vs zipf {z}");
    }

    #[test]
    fn equality_workloads_build_deeper_posets() {
        // The structural property behind Figure 6: e100a1 forms deeper,
        // narrower forests than e80a4.
        let m = market();
        let schema = AttrSchema::new();
        let build = |w: &Workload| {
            let mem = MemorySim::native(sgx_sim::CacheConfig::default(), CostModel::free());
            let mut index = PosetIndex::new(&mem);
            for (i, s) in w.subscriptions(&m, 1500, 17).into_iter().enumerate() {
                index.insert(
                    SubscriptionId(i as u64),
                    ClientId(i as u64),
                    s.compile(&schema).unwrap(),
                );
            }
            (index.depth(), index.root_count())
        };
        let (depth_eq, roots_eq) = build(&Workload::from_name(WorkloadName::E100A1));
        let (depth_a4, roots_a4) = build(&Workload::from_name(WorkloadName::E80A4));
        assert!(depth_eq >= depth_a4, "e100a1 depth {depth_eq} vs e80a4 {depth_a4}");
        assert!(roots_a4 > roots_eq, "e80a4 roots {roots_a4} vs e100a1 {roots_eq}");
    }

    #[test]
    fn publications_sometimes_match_subscriptions() {
        // Sanity: the generated workloads produce non-trivial match rates.
        let m = market();
        let schema = AttrSchema::new();
        let w = Workload::from_name(WorkloadName::E100A1);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), CostModel::free());
        let mut index = PosetIndex::new(&mem);
        for (i, s) in w.subscriptions(&m, 2000, 18).into_iter().enumerate() {
            index.insert(SubscriptionId(i as u64), ClientId(i as u64), s.compile(&schema).unwrap());
        }
        let mut total = 0usize;
        let mut scratch = MatchScratch::new();
        for publication in w.publications(&m, 100, 19) {
            let header = publication.compile_header(&schema).unwrap();
            let mut out = Vec::new();
            index.match_into(&header, &mut scratch, &mut out);
            total += out.len();
        }
        assert!(total > 0, "at least some publications match");
    }
}
