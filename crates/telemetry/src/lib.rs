//! Telemetry spine of the SCBR reproduction.
//!
//! The paper evaluates SCBR almost entirely through measurement, and the
//! repro had grown one ad-hoc counter struct per subsystem
//! (`sgx_sim::MemStats`, the overlay's `BrokerStats`, ASPE's
//! `BloomGateStats`, per-link forwarding ledgers) with no shared
//! surface. This crate is the surface:
//!
//! * [`MetricsRegistry`] — named monotonic counters/gauges with cheap
//!   [`Snapshot`]/[`Snapshot::delta`] semantics. Every stats struct in the
//!   workspace exports a uniform `snapshot() -> Vec<(&'static str, u64)>`
//!   that the registry absorbs under a prefix, so per-broker and
//!   per-fabric views are folds, not bespoke structs.
//! * [`LatencyHistogram`] / [`StageHistograms`] — zero-allocation
//!   log₂-bucketed latency distributions over fixed-size arrays with
//!   epoch-stamped O(1) clears (the `MatchScratch` pattern), safe to
//!   embed in the matching hot path without breaking the
//!   counting-allocator zero-alloc proof.
//! * [`TraceId`] / [`HopRecord`] / [`FlightRecorder`] — cross-hop
//!   publication tracing: a trace id assigned per publish batch at the
//!   producer rides in clear next to the sealed frame, and each broker
//!   appends a hop record (arrival/match/forward timestamps plus a
//!   matched-count *bucket*, never an exact count) into a bounded
//!   in-enclave ring buffer drained via an explicit, costed ocall.
//! * [`TelemetrySnapshot`] — the aggregate view `OverlayFabric` hands to
//!   the JSON emitters and the `scbr_top` dump tool.
//!
//! The crate is deliberately dependency-free (vendored-stand-in
//! discipline): everything here is plain arrays, `Vec`s off the hot path,
//! and integer arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod registry;
pub mod trace;

pub use histogram::{LatencyHistogram, Stage, StageHistograms, StageSummary, HISTOGRAM_BUCKETS};
pub use registry::{MetricsRegistry, Snapshot};
pub use trace::{count_bucket, FlightRecorder, HopRecord, TraceId};

/// The fully aggregated telemetry view of a running fabric: fabric-level
/// counters, per-broker counter registries and stage latency summaries,
/// and every hop record drained from the brokers' flight recorders.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Fabric-level counters (edge frames, drops, event-label counts,
    /// cross-broker totals).
    pub fabric: Snapshot,
    /// One entry per broker, in broker-index order.
    pub brokers: Vec<BrokerTelemetry>,
    /// Hop records drained from every broker's flight recorder, in
    /// (tick, broker) order.
    pub hops: Vec<HopRecord>,
}

impl TelemetrySnapshot {
    /// All hop records belonging to `trace`, ordered by scheduler tick —
    /// the per-publication path a dump tool renders. (Per-broker `*_ns`
    /// clocks are each enclave's own virtual time, so the host-side tick
    /// is the cross-broker ordering.)
    pub fn trace_path(&self, trace: TraceId) -> Vec<HopRecord> {
        let mut path: Vec<HopRecord> =
            self.hops.iter().copied().filter(|h| h.trace == trace).collect();
        path.sort_by_key(|h| (h.tick, h.broker));
        path
    }

    /// Sorted, deduplicated trace ids present in the drained hop records.
    pub fn traces(&self) -> Vec<TraceId> {
        let mut ids: Vec<TraceId> = self.hops.iter().map(|h| h.trace).collect();
        ids.sort_unstable_by_key(|t| t.0);
        ids.dedup();
        ids
    }
}

/// One broker's telemetry: its absorbed counter registry plus per-stage
/// latency summaries.
#[derive(Debug, Clone, Default)]
pub struct BrokerTelemetry {
    /// Fabric index of the broker.
    pub broker: u64,
    /// Every counter the broker exports, prefixed by subsystem
    /// (`mem.ecalls`, `broker.heartbeats`, `link.3.pruned`, …).
    pub counters: Snapshot,
    /// Per-stage latency summaries (decrypt, index match, seal, hop
    /// crossing) from the broker's zero-alloc histograms.
    pub stages: Vec<StageSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_path_filters_and_orders() {
        let hop = |trace: u64, broker: u64, at: u64| HopRecord {
            trace: TraceId(trace),
            broker,
            tick: at,
            arrival_ns: at,
            match_ns: at + 1,
            forward_ns: at + 2,
            matched_bucket: 1,
        };
        let snap = TelemetrySnapshot {
            fabric: Snapshot::default(),
            brokers: Vec::new(),
            hops: vec![hop(2, 1, 50), hop(1, 0, 10), hop(1, 1, 30), hop(1, 2, 20)],
        };
        let path = snap.trace_path(TraceId(1));
        assert_eq!(path.iter().map(|h| h.broker).collect::<Vec<_>>(), vec![0, 2, 1]);
        assert_eq!(snap.traces(), vec![TraceId(1), TraceId(2)]);
    }
}
