//! Synthetic stock-market data generator.
//!
//! Stands in for the paper's Yahoo! Finance crawl: a configurable universe
//! of symbols, each following a geometric random walk over trading days,
//! producing quotes with 8–11 attributes (symbol, OHLC prices, volume,
//! derived fields, occasional dividend/split annotations).

use scbr::publication::PublicationSpec;
use scbr::value::Value;
use scbr_crypto::rng::CryptoRng;

/// Market generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketConfig {
    /// Number of distinct ticker symbols.
    pub symbols: usize,
    /// Number of trading days simulated per symbol.
    pub days: usize,
    /// Initial price range (uniform between the two values).
    pub initial_price: (f64, f64),
    /// Daily volatility (stddev of the log-return proxy).
    pub volatility: f64,
}

impl MarketConfig {
    /// The paper's scale: ~250 000 quotes over five years.
    /// 200 symbols × 1 260 trading days = 252 000 quotes.
    pub fn paper_scale() -> Self {
        MarketConfig { symbols: 200, days: 1260, initial_price: (5.0, 500.0), volatility: 0.02 }
    }

    /// A small market for unit tests and examples.
    pub fn small() -> Self {
        MarketConfig { symbols: 20, days: 50, initial_price: (10.0, 100.0), volatility: 0.02 }
    }

    /// Total quotes this configuration produces.
    pub fn quote_count(&self) -> usize {
        self.symbols * self.days
    }
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig::paper_scale()
    }
}

/// One daily quote for one symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct Quote {
    /// Ticker symbol.
    pub symbol: String,
    /// Trading-day index (0-based).
    pub day: u32,
    /// Opening price.
    pub open: f64,
    /// Daily high.
    pub high: f64,
    /// Daily low.
    pub low: f64,
    /// Closing price.
    pub close: f64,
    /// Shares traded.
    pub volume: i64,
    /// Close minus open.
    pub change: f64,
    /// Relative change in percent.
    pub pct_change: f64,
    /// Dividend paid this day, if any (adds a 10th attribute).
    pub dividend: Option<f64>,
    /// Split ratio applied this day, if any (adds an 11th attribute).
    pub split_ratio: Option<f64>,
}

impl Quote {
    /// The attribute names/values of this quote, in a stable order, with
    /// names suffixed by `suffix` (empty for the primary quote; `_2`, `_3`…
    /// when merging quotes for the attribute-multiplied workloads).
    pub fn attributes(&self, suffix: &str) -> Vec<(String, Value)> {
        let mut attrs: Vec<(String, Value)> = vec![
            (format!("symbol{suffix}"), Value::Str(self.symbol.clone())),
            (format!("day{suffix}"), Value::Int(self.day as i64)),
            (format!("open{suffix}"), Value::Float(self.open)),
            (format!("high{suffix}"), Value::Float(self.high)),
            (format!("low{suffix}"), Value::Float(self.low)),
            (format!("close{suffix}"), Value::Float(self.close)),
            (format!("volume{suffix}"), Value::Int(self.volume)),
            (format!("change{suffix}"), Value::Float(self.change)),
            (format!("pct_change{suffix}"), Value::Float(self.pct_change)),
        ];
        if let Some(d) = self.dividend {
            attrs.push((format!("dividend{suffix}"), Value::Float(d)));
        }
        if let Some(r) = self.split_ratio {
            attrs.push((format!("split_ratio{suffix}"), Value::Float(r)));
        }
        attrs
    }

    /// Builds a publication from this quote (and optionally further quotes
    /// merged in, as the `a2`/`a4` workloads require).
    pub fn to_publication(&self, merged: &[&Quote], payload: Vec<u8>) -> PublicationSpec {
        let mut spec = PublicationSpec::new();
        for (name, value) in self.attributes("") {
            spec = spec.attr(&name, value);
        }
        for (i, q) in merged.iter().enumerate() {
            for (name, value) in q.attributes(&format!("_{}", i + 2)) {
                spec = spec.attr(&name, value);
            }
        }
        spec.payload(payload)
    }
}

/// A generated market: quotes grouped by symbol.
#[derive(Debug, Clone)]
pub struct StockMarket {
    config: MarketConfig,
    symbols: Vec<String>,
    /// `quotes[s][d]` = quote of symbol `s` on day `d`.
    quotes: Vec<Vec<Quote>>,
}

impl StockMarket {
    /// Generates a market deterministically from `seed`.
    pub fn generate(config: &MarketConfig, seed: u64) -> Self {
        let mut rng = CryptoRng::from_seed(seed);
        let symbols: Vec<String> = (0..config.symbols).map(ticker_name).collect();
        let mut quotes = Vec::with_capacity(config.symbols);
        for (s, symbol) in symbols.iter().enumerate() {
            let mut series = Vec::with_capacity(config.days);
            let (lo, hi) = config.initial_price;
            let mut price = lo + rng.unit_f64() * (hi - lo);
            // Liquidity varies by symbol over two orders of magnitude.
            let base_volume = 10_000.0 * 10f64.powf(rng.unit_f64() * 2.0);
            for day in 0..config.days {
                let drift = (rng.unit_f64() - 0.5) * 2.0 * config.volatility;
                let open = price;
                let close = (open * (1.0 + drift)).max(0.01);
                let spread = open.max(close) * config.volatility * rng.unit_f64();
                let high = open.max(close) + spread;
                let low = (open.min(close) - spread).max(0.01);
                let volume = (base_volume * (0.5 + rng.unit_f64())) as i64;
                let dividend = if rng.chance(0.02) { Some(round2(close * 0.01)) } else { None };
                let split_ratio = if rng.chance(0.002) { Some(2.0) } else { None };
                series.push(Quote {
                    symbol: symbol.clone(),
                    day: day as u32,
                    open: round2(open),
                    high: round2(high),
                    low: round2(low),
                    close: round2(close),
                    volume,
                    change: round2(close - open),
                    pct_change: round2((close - open) / open * 100.0),
                    dividend,
                    split_ratio,
                });
                price = close;
            }
            quotes.push(series);
            let _ = s;
        }
        StockMarket { config: config.clone(), symbols, quotes }
    }

    /// The generation parameters.
    pub fn config(&self) -> &MarketConfig {
        &self.config
    }

    /// All ticker symbols.
    pub fn symbols(&self) -> &[String] {
        &self.symbols
    }

    /// Quote of `symbol` (by index) on `day`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn quote(&self, symbol: usize, day: usize) -> &Quote {
        &self.quotes[symbol][day]
    }

    /// Total number of quotes.
    pub fn len(&self) -> usize {
        self.config.quote_count()
    }

    /// True when the market has no quotes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Numeric range attributes subscriptions constrain (base names,
    /// no suffix).
    pub fn numeric_attributes() -> &'static [&'static str] {
        &["open", "high", "low", "close", "volume", "change", "pct_change"]
    }
}

/// Deterministic, distinct ticker names: A, B, …, Z, AA, AB, …
fn ticker_name(i: usize) -> String {
    let mut name = String::new();
    let mut n = i + 1;
    while n > 0 {
        let rem = (n - 1) % 26;
        name.insert(0, (b'A' + rem as u8) as char);
        n = (n - 1) / 26;
    }
    name
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = StockMarket::generate(&MarketConfig::small(), 7);
        let b = StockMarket::generate(&MarketConfig::small(), 7);
        let c = StockMarket::generate(&MarketConfig::small(), 8);
        assert_eq!(a.quote(3, 10), b.quote(3, 10));
        assert_ne!(a.quote(3, 10), c.quote(3, 10));
    }

    #[test]
    fn ticker_names_distinct() {
        let names: Vec<String> = (0..800).map(ticker_name).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        assert_eq!(ticker_name(0), "A");
        assert_eq!(ticker_name(25), "Z");
        assert_eq!(ticker_name(26), "AA");
    }

    #[test]
    fn quote_invariants() {
        let market = StockMarket::generate(&MarketConfig::small(), 1);
        for s in 0..market.symbols().len() {
            for d in 0..market.config().days {
                let q = market.quote(s, d);
                assert!(q.high >= q.open.max(q.close), "high bounds prices");
                assert!(q.low <= q.open.min(q.close), "low bounds prices");
                assert!(q.low > 0.0, "prices stay positive");
                assert!(q.volume > 0);
                assert!((q.change - (q.close - q.open)).abs() < 0.02);
            }
        }
    }

    #[test]
    fn attribute_count_in_paper_range() {
        let market = StockMarket::generate(&MarketConfig::small(), 2);
        let mut min = usize::MAX;
        let mut max = 0;
        for s in 0..market.symbols().len() {
            for d in 0..market.config().days {
                let n = market.quote(s, d).attributes("").len();
                min = min.min(n);
                max = max.max(n);
            }
        }
        assert!(min >= 9, "at least 9 attributes, got {min}");
        assert!(max <= 11, "at most 11 attributes, got {max}");
    }

    #[test]
    fn merged_publication_multiplies_attributes() {
        let market = StockMarket::generate(&MarketConfig::small(), 3);
        let q1 = market.quote(0, 0);
        let q2 = market.quote(1, 0);
        let q3 = market.quote(2, 0);
        let q4 = market.quote(3, 0);
        let single = q1.to_publication(&[], Vec::new());
        let double = q1.to_publication(&[q2], Vec::new());
        let quad = q1.to_publication(&[q2, q3, q4], Vec::new());
        assert!(double.header().len() >= 2 * single.header().len() - 4);
        assert!(quad.header().len() > 3 * single.header().len());
        // Attribute names stay unique after merging.
        let names: std::collections::HashSet<_> =
            quad.header().iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names.len(), quad.header().len());
    }

    #[test]
    fn paper_scale_config_is_250k() {
        let c = MarketConfig::paper_scale();
        assert_eq!(c.quote_count(), 252_000);
    }
}
