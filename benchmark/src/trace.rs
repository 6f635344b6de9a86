//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own files, around the calls into
//! each layer; they stay in memory and are written out when the run ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps (`sut.publish`, `probe.index.match`, …).
    pub name: &'static str,
    /// Start, ns since tracer creation.
    pub start_ns: u64,
    /// End, ns since tracer creation.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one batch (0 = none).
    pub trace: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` belonging to batch `trace`;
    /// spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, trace });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        result
    }

    /// The recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every span, plus self time per span name.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::object([
                    ("name", Value::from(s.name)),
                    ("start_ns", Value::from(s.start_ns as f64)),
                    ("end_ns", Value::from(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::from(p as f64))),
                    ("trace", Value::from(s.trace as f64)),
                ])
            })
            .collect();
        let self_time = self_time_by_name(&self.spans)
            .into_iter()
            .map(|(name, t)| {
                let entry = Value::object([
                    ("count", Value::from(t.count as f64)),
                    ("total_ns", Value::from(t.total_ns as f64)),
                    ("self_ns", Value::from(t.self_ns as f64)),
                ]);
                (name.to_owned(), entry)
            })
            .collect();
        Value::object([("self_time", Value::Object(self_time)), ("spans", Value::Array(spans))])
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent (so overlapping or
/// overhanging children are never subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTime> {
    let mut by_name: BTreeMap<&'static str, NameTime> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.end_ns - span.start_ns;
        entry.self_ns += self_ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, trace: 1 }
    }

    #[test]
    fn self_time_with_nested_children() {
        // root [0,100) > a [10,40) > a1 [20,30); root > b [50,70)
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 20, 30, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        // Grandchildren are charged to their own parent only.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn self_time_with_overlapping_and_overhanging_children() {
        // Children [10,50) and [30,70) overlap: union is [10,70) = 60.
        // A third child [90,130) overhangs the parent: clipped to [90,100).
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], NameTime { count: 1, total_ns: 100, self_ns: 30 });
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let mut off = Tracer::new(false);
        off.span("outer", 1, |_| ());
        assert!(off.spans().is_empty());
    }
}
