//! Order statistics the reports are built from.

/// Sorted copy of `values` (the harness never produces NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartiles Python's `statistics.quantiles(v, n=4)` gives (the
/// rule the PR driver applies to run sets). A single value is all three;
/// an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    [1, 2, 3].map(|k| {
        // The "exclusive" method: position k(n+1)/4, clamped, interpolated.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Mean of the fastest quarter of a set of windows (the highest quarter
/// of rates, the lowest quarter of times; rounded up to a whole window).
///
/// Interference on a shared host only ever slows a window down, and it
/// comes in episodes of seconds to minutes, so a run's slower windows say
/// what the neighbours did and its fastest ones what the program does.
/// Five-minute sessions of the gated workloads cut into 35 s runs put this
/// estimator's run-to-run spread at 7 % on average over the metrics, the
/// faster half's at 8 %, the median's at 10 % and the single fastest
/// window's at 9 %. Averaging a quarter keeps the sampling noise of the
/// short churn windows down, which a single order statistic would not.
pub fn fast_quarter_mean(windows: &[f64], higher_is_faster: bool) -> f64 {
    let mut v = sorted(windows);
    if higher_is_faster {
        v.reverse();
    }
    let kept = &v[..v.len().div_ceil(4)];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// 0-based rank, in a sorted sample of `n`, of the tail percentile a
/// report may state: the 99th-percentile rank, lowered until at least ten
/// samples lie beyond it (never below the median rank).
pub fn tail_rank(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let p99 = (n * 99).div_ceil(100).max(1) - 1;
    p99.min(n.saturating_sub(11)).max(n / 2)
}

/// The tail percentile (see [`tail_rank`]) of a latency sample; 0 for an
/// empty one.
pub fn tail(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    v.get(tail_rank(v.len())).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_keeps_ten_samples_beyond_it() {
        // 2000 samples: the true p99 rank already has 20 samples beyond.
        assert_eq!(tail_rank(2000), 1979);
        // 1000 samples: p99 rank 989 has exactly 10 beyond.
        assert_eq!(tail_rank(1000), 989);
        // 500 samples: p99 (rank 494) would leave 5; back off to rank 489.
        assert_eq!(tail_rank(500), 489);
        for n in [21usize, 100, 137, 999, 5000] {
            assert!(n - 1 - tail_rank(n) >= 10, "n={n}");
        }
        // Too few samples for any tail claim: fall back to the median rank.
        assert_eq!(tail_rank(12), 6);
        let samples: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&samples), 1979.0);
        assert_eq!(tail(&[]), 0.0);
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One disturbed window out of seven does not move the report.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 12.0, 100.2, 99.8]), 100.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((quartile_spread(&[10.0, 12.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
        assert_eq!(quartiles(&[]), [0.0; 3]);
    }

    #[test]
    fn fast_quarter_mean_ignores_disturbed_windows() {
        // Eight throughput windows, five of them slowed by a neighbour:
        // the two fastest are averaged.
        let rates = [36.0, 36.2, 52.4, 36.3, 52.6, 50.5, 41.0, 44.0];
        assert!((fast_quarter_mean(&rates, true) - (52.6 + 52.4) / 2.0).abs() < 1e-12);
        // Six recovery times: a quarter of six rounds up to two.
        let times = [97.5, 99.0, 118.5, 144.0, 98.0, 100.0];
        assert!((fast_quarter_mean(&times, false) - (97.5 + 98.0) / 2.0).abs() < 1e-12);
        assert_eq!(fast_quarter_mean(&[7.0], true), 7.0);
        assert_eq!(fast_quarter_mean(&[], false), 0.0);
    }
}
