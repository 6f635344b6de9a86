//! Zero-allocation log₂-bucketed latency histograms.
//!
//! A [`LatencyHistogram`] is a fixed `[(epoch, count); 64]` array: bucket
//! `i` counts samples in `[2^i, 2^(i+1))` virtual nanoseconds (bucket 0
//! also absorbs zero). Each slot carries the epoch it was last written in,
//! so [`LatencyHistogram::clear`] is a single increment — a stale epoch
//! reads as zero.
//! Recording touches one array slot and allocates nothing, which is what
//! lets the histograms live inside the matching hot path without breaking
//! the counting-allocator zero-alloc proof.

/// Number of log₂ buckets — enough for any `u64` nanosecond value.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log₂-bucketed latency histogram over a fixed array with
/// epoch-stamped O(1) clears. `Copy`-free but entirely inline: embedding
/// one in a scratch struct adds no heap allocation.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// `(epoch, count)` per bucket; a slot whose epoch is stale counts as
    /// zero.
    buckets: [(u64, u64); HISTOGRAM_BUCKETS],
    /// Current validity stamp.
    epoch: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        LatencyHistogram { buckets: [(0, 0); HISTOGRAM_BUCKETS], epoch: 1 }
    }

    /// Records one sample of `ns` nanoseconds. Never allocates.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let bucket = if ns == 0 { 0 } else { ns.ilog2() as usize };
        let slot = &mut self.buckets[bucket];
        if slot.0 == self.epoch {
            slot.1 += 1;
        } else {
            *slot = (self.epoch, 1);
        }
    }

    /// Forgets every sample in O(1) by advancing the epoch stamp.
    #[inline]
    pub fn clear(&mut self) {
        self.epoch += 1;
    }

    /// Count in bucket `i` (samples in `[2^i, 2^(i+1))` ns).
    pub fn bucket(&self, i: usize) -> u64 {
        let (epoch, count) = self.buckets[i];
        if epoch == self.epoch {
            count
        } else {
            0
        }
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        (0..HISTOGRAM_BUCKETS).map(|i| self.bucket(i)).sum()
    }

    /// Upper bound (exclusive, saturating) of the bucket holding the
    /// `p`-th percentile sample, or 0 when empty. `p` in `[0, 100]`.
    pub fn percentile_ns(&self, p: u8) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        // Rank of the percentile sample, 1-based, rounded up.
        let rank = ((total * p as u64).div_ceil(100)).max(1);
        let mut seen = 0;
        for i in 0..HISTOGRAM_BUCKETS {
            seen += self.bucket(i);
            if seen >= rank {
                return (1u64 << (i + 1).min(63)).saturating_sub(1).max(1);
            }
        }
        u64::MAX
    }

    /// Highest non-empty bucket's exclusive upper bound, or 0 when empty.
    pub fn max_ns(&self) -> u64 {
        (0..HISTOGRAM_BUCKETS)
            .rev()
            .find(|&i| self.bucket(i) > 0)
            .map(|i| (1u64 << (i + 1).min(63)).saturating_sub(1).max(1))
            .unwrap_or(0)
    }
}

/// The hot-path stages instrumented across the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// AES-CTR header decryption inside the enclave, one sample per
    /// header.
    Decrypt,
    /// One covering-forest walk: the decode of the headers it carries,
    /// the walk itself and the sorting of their client spans. One sample
    /// per walk — per header for a walk of one, per chunk of up to 128
    /// headers for a batch.
    IndexMatch,
    /// Sealing an outbound batch (or recovery record) for a link.
    Seal,
    /// One full enclave crossing routing a batch at a hop.
    HopCrossing,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 4] =
        [Stage::Decrypt, Stage::IndexMatch, Stage::Seal, Stage::HopCrossing];

    /// Stable label used in metric names, JSON rows, and log lines.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Decrypt => "decrypt",
            Stage::IndexMatch => "index_match",
            Stage::Seal => "seal",
            Stage::HopCrossing => "hop_crossing",
        }
    }

    /// Position in [`Stage::ALL`] (the declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One fixed-size histogram per [`Stage`]; embedding this in a scratch
/// struct costs a few KiB of inline state and zero heap.
#[derive(Debug, Clone, Default)]
pub struct StageHistograms {
    stages: [LatencyHistogram; Stage::ALL.len()],
}

impl StageHistograms {
    /// Empty histograms for every stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `ns` sample for `stage`. Never allocates.
    #[inline]
    pub fn record(&mut self, stage: Stage, ns: u64) {
        self.stages[stage.index()].record(ns);
    }

    /// The histogram of one stage.
    pub fn histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage.index()]
    }

    /// Clears every stage in O(stages).
    pub fn clear(&mut self) {
        for h in &mut self.stages {
            h.clear();
        }
    }

    /// Summaries of every stage that recorded at least one sample.
    pub fn summaries(&self) -> Vec<StageSummary> {
        Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let h = self.histogram(stage);
                (h.total() > 0).then(|| StageSummary {
                    stage,
                    count: h.total(),
                    p50_ns: h.percentile_ns(50),
                    p99_ns: h.percentile_ns(99),
                    max_ns: h.max_ns(),
                })
            })
            .collect()
    }
}

/// A rendered summary of one stage's histogram (bucket upper bounds, so
/// values are conservative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSummary {
    /// Which stage.
    pub stage: Stage,
    /// Samples recorded.
    pub count: u64,
    /// Median latency (bucket upper bound), virtual ns.
    pub p50_ns: u64,
    /// 99th-percentile latency (bucket upper bound), virtual ns.
    pub p99_ns: u64,
    /// Upper bound of the slowest sample's bucket, virtual ns.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucketing() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.bucket(0), 2, "0 and 1 share bucket 0");
        assert_eq!(h.bucket(1), 2, "2 and 3 share bucket 1");
        assert_eq!(h.bucket(10), 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn epoch_clear_is_o1_and_complete() {
        let mut h = LatencyHistogram::new();
        for ns in [5u64, 500, 50_000] {
            h.record(ns);
        }
        assert_eq!(h.total(), 3);
        h.clear();
        assert_eq!(h.total(), 0, "stale epochs read as zero");
        assert_eq!(h.max_ns(), 0);
        h.record(7);
        assert_eq!(h.total(), 1, "recording after clear restamps the slot");
    }

    #[test]
    fn percentiles_use_bucket_upper_bounds() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(10); // bucket 3: [8, 16)
        }
        h.record(1 << 20); // bucket 20
        assert_eq!(h.percentile_ns(50), 15);
        assert_eq!(h.percentile_ns(99), 15);
        assert_eq!(h.percentile_ns(100), (1 << 21) - 1);
        assert_eq!(h.max_ns(), (1 << 21) - 1);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_ns(50), 0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn stage_histograms_track_independently() {
        let mut s = StageHistograms::new();
        s.record(Stage::Decrypt, 100);
        s.record(Stage::Decrypt, 120);
        s.record(Stage::Seal, 9000);
        assert_eq!(s.histogram(Stage::Decrypt).total(), 2);
        assert_eq!(s.histogram(Stage::Seal).total(), 1);
        assert_eq!(s.histogram(Stage::IndexMatch).total(), 0);
        let summaries = s.summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].stage, Stage::Decrypt);
        assert_eq!(summaries[0].count, 2);
        s.clear();
        assert!(s.summaries().is_empty());
    }

    #[test]
    fn stage_labels_are_stable() {
        let labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["decrypt", "index_match", "seal", "hop_crossing"]);
        assert!(Stage::ALL.iter().enumerate().all(|(i, s)| s.index() == i));
        assert_eq!(Stage::HopCrossing.to_string(), "hop_crossing");
    }
}
