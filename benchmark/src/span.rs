//! In-memory spans around the calls the traced driver makes into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! operation it belongs to.  Spans stay in memory while the benchmark runs
//! and are written out once at the end; a layer's *self* time is its span's
//! duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation (a process run, a
    /// request, a checkpoint cycle).
    pub op: u64,
}

/// Count, total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans on one thread.  A disabled tracer records nothing and its
/// `scope` is a plain call, which is what the untraced half of an overhead
/// comparison runs.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (threads that will be merged
    /// share one origin).
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer { origin, enabled, spans: Vec::new(), open: Vec::new() }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside an open span");
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Nanoseconds from the origin to `instant` (0 if it is earlier).
    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records an interval that was stamped elsewhere (a per-step observer
    /// callback on a solver thread, the stages of a finished request) under
    /// `parent`, or under the open span when `parent` is `None`.  Returns
    /// the new span's index, `None` while disabled.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: parent.or(self.open.last().copied()),
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Per-name totals over every recorded span.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        totals(&self.spans)
    }

    /// The spans as a JSON array, for `trace.json`.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Object(vec![
                        ("id".to_string(), Value::UInt(id as u64)),
                        ("name".to_string(), Value::String(s.name.clone())),
                        ("start_ns".to_string(), Value::UInt(s.start_ns)),
                        ("end_ns".to_string(), Value::UInt(s.end_ns)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("op".to_string(), Value::UInt(s.op)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent.  Taking the union means children
/// that overlap one another (two connections' requests under one cycle) are
/// not subtracted twice, and the result can never go negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name count, total and self time.
pub fn totals(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut by_name: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = by_name.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100 > a 10..60 > b 20..30; root also > c 70..90
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Two children cover 10..50 and 30..80: their union is 70 long.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 80, Some(0)),
            span("inside-x", 35, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child stamped on another thread may outlive its parent.
        let spans = vec![span("root", 10, 50, None), span("late", 40, 90, Some(0))];
        assert_eq!(self_times(&spans), vec![30, 50]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans =
            vec![span("op", 0, 10, None), span("op", 20, 50, None), span("leaf", 25, 30, Some(1))];
        let t = totals(&spans);
        assert_eq!(t["op"], NameTotals { count: 2, total_ns: 40, self_ns: 35 });
        assert_eq!(t["leaf"], NameTotals { count: 1, total_ns: 5, self_ns: 5 });
    }

    #[test]
    fn scopes_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), true);
        let out = t.scope("outer", 7, |t| t.scope("inner", 7, |_| 42));
        assert_eq!(out, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let request = t.record(Some(0), "request", 8, 5, 9).unwrap();
        t.record(Some(request), "stage", 8, 6, 7);
        assert_eq!(t.spans()[3].parent, Some(2));
        t.scope("cycle", 9, |t| t.record(None, "step", 9, 1, 2));
        assert_eq!(t.spans()[5].parent, Some(4), "no parent given: the open span");

        let mut other = Tracer::new(Instant::now(), true);
        other.scope("a", 1, |o| o.scope("b", 1, |_| ()));
        t.merge(other);
        assert_eq!(t.spans()[7].parent, Some(6), "merged parents are re-based");

        let mut off = Tracer::new(Instant::now(), false);
        assert_eq!(off.scope("x", 0, |_| 1), 1);
        assert_eq!(off.record(None, "y", 0, 0, 5), None);
        assert!(off.spans().is_empty());
    }
}
