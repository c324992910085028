//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is `(name, start, end, parent, op)`; spans of one operation share
//! its `op` index, and the replay passes of `layers.rs` replay the same op
//! stream, so op `i` is the same operation in every pass. Spans stay in
//! memory and are written out once, when the traced run ends.

use std::time::Instant;

use crate::json::Json;

/// Handle of a recorded span (index into [`Tracer::spans`]).
pub type SpanId = u32;

/// "No parent" / "no operation" marker.
pub const NONE: u32 = u32::MAX;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: u16,
    pub parent: SpanId,
    /// Position of the operation in the traced stream ([`NONE`] outside it).
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    pub names: Vec<&'static str>,
    pub spans: Vec<Span>,
    /// Off while a pass preloads or runs its untraced twin: `begin`/`end`
    /// then cost one branch and record nothing.
    pub enabled: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let name = self.name_id(name);
        let id = self.spans.len() as SpanId;
        // Clock read last, so bookkeeping stays outside the span.
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: 0,
        });
        id
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        match self.spans.get_mut(id as usize) {
            Some(span) => {
                span.end_ns = now;
                span.dur_ns()
            }
            None => 0,
        }
    }

    /// The trace file: a per-name `summary` over *all* spans (count, total
    /// and self time in µs — see [`self_times_ns`]), then the spans of the
    /// first `max_ops` operations (plus every span outside the op stream)
    /// as `[name, parent, op, start_ns, end_ns]` rows, `parent` re-indexed
    /// into the written array (`-1` = none).
    pub fn to_json(&self, max_ops: u32) -> Json {
        let keep = |s: &Span| s.op == NONE || s.op < max_ops;
        let mut new_index = vec![NONE; self.spans.len()];
        let mut next = 0u32;
        for (i, s) in self.spans.iter().enumerate() {
            if keep(s) {
                new_index[i] = next;
                next += 1;
            }
        }
        let signed = |v: u32| if v == NONE { -1.0 } else { f64::from(v) };
        let spans = self
            .spans
            .iter()
            .filter(|s| keep(s))
            .map(|s| {
                let parent = if s.parent == NONE {
                    NONE
                } else {
                    new_index[s.parent as usize]
                };
                Json::Arr(vec![
                    Json::Num(f64::from(s.name)),
                    Json::Num(signed(parent)),
                    Json::Num(signed(s.op)),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                ])
            })
            .collect();
        let selves = self_times_ns(&self.spans);
        let summary = self
            .names
            .iter()
            .enumerate()
            .map(|(id, name)| {
                let of_name = || {
                    self.spans
                        .iter()
                        .zip(&selves)
                        .filter(move |(s, _)| s.name as usize == id)
                };
                Json::obj([
                    ("name", Json::Str((*name).to_string())),
                    ("count", Json::Num(of_name().count() as f64)),
                    (
                        "total_us",
                        Json::Num(of_name().map(|(s, _)| s.dur_ns()).sum::<u64>() as f64 / 1e3),
                    ),
                    (
                        "self_us",
                        Json::Num(of_name().map(|(_, ns)| *ns).sum::<u64>() as f64 / 1e3),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("summary", Json::Arr(summary)),
            (
                "names",
                Json::Arr(
                    self.names
                        .iter()
                        .map(|n| Json::Str((*n).to_string()))
                        .collect(),
                ),
            ),
            (
                "fields",
                Json::Arr(
                    ["name", "parent", "op", "start_ns", "end_ns"]
                        .map(|f| Json::Str(f.into()))
                        .to_vec(),
                ),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (two
/// shard legs running in parallel) and may stick out of the parent (clock
/// skew between threads); the covered part is the length of the union of
/// the children's intervals clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = spans.get(s.parent as usize) {
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
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
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] > a [10,40] > a1 [15,25]; root > b [50,70].
        let spans = [
            span(NONE, 0, 100),
            span(0, 10, 40),
            span(1, 15, 25),
            span(0, 50, 70),
        ];
        // Grandchild a1 only reduces a, never root.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two parallel legs [10,60] and [30,80] cover [10,80] = 70.
        let spans = [span(NONE, 0, 100), span(0, 10, 60), span(0, 30, 80)];
        assert_eq!(self_times_ns(&spans)[0], 30);
        // A child contained in a sibling adds nothing.
        let spans = [span(NONE, 0, 100), span(0, 10, 90), span(0, 20, 30)];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // Child sticks out on both sides; one lies wholly outside.
        let spans = [
            span(NONE, 100, 200),
            span(0, 50, 120),
            span(0, 190, 260),
            span(0, 300, 400),
        ];
        assert_eq!(self_times_ns(&spans)[0], 70);
        // Children covering everything leave zero, never underflow.
        let spans = [span(NONE, 100, 200), span(0, 0, 300)];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn tracer_records_and_dumps() {
        let mut t = Tracer::new();
        let op = t.begin("op", NONE, 7);
        for parent in [op, op] {
            let leg = t.begin("leg", parent, 7);
            t.end(leg);
        }
        t.end(op);
        let leg = t.begin("leg", NONE, 8);
        t.end(leg);
        t.enabled = false;
        assert_eq!(t.begin("op", NONE, 9), NONE);
        assert_eq!(t.spans.len(), 4);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Truncated dump keeps op 7 only and re-indexes parents.
        let json = t.to_json(8);
        assert_eq!(json.get("spans").map(|s| s.as_arr().len()), Some(3));
        let summary = json.get("summary").map(Json::as_arr).unwrap_or_default();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[1].get("count").and_then(Json::as_f64), Some(3.0));
    }
}
