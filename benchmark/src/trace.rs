//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files around each call into
//! a library layer (the libraries carry no spans of their own yet). The
//! driver is single-threaded, so a stack of open spans gives each span its
//! parent. A span's self time is its duration minus its children's; a
//! layer's time is the sum of its spans' self times. Nothing is written
//! until the run ends.

use crate::alloc;
use obs::{Clock, Json, WallClock};
use std::collections::BTreeMap;

/// Layer charged with the time spent in the harness itself, between calls.
pub const HARNESS: &str = "harness";

#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub alloc_bytes: u64,
    pub alloc_calls: u64,
}

pub struct Tracer {
    clock: WallClock,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            clock: WallClock::new(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the tracer was made; the one clock of the benchmark.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Record spans (and count allocations) from now on, or stop.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.on = on;
        alloc::set_counting(on);
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let (alloc_bytes, alloc_calls) = alloc::counters();
        let start = self.clock.now();
        self.spans.push(Span {
            layer,
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            alloc_bytes,
            alloc_calls,
        });
        self.open.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end = self.clock.now();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let (bytes, calls) = alloc::counters();
        let s = &mut self.spans[id];
        s.end = end;
        s.alloc_bytes = bytes - s.alloc_bytes;
        s.alloc_calls = calls - s.alloc_calls;
    }

    /// Run `f` inside a leaf span.
    pub fn call<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(layer, name);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the children's durations.
    pub fn self_times(&self) -> Vec<f64> {
        let mut t: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                t[p] -= s.end - s.start;
            }
        }
        t
    }

    /// Self time summed per `(layer, span name)`.
    pub fn self_time_by_name(&self) -> BTreeMap<(&'static str, &'static str), f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry((s.layer, s.name)).or_insert(0.0) += t;
        }
        out
    }

    /// Self time summed per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for ((layer, _), t) in self.self_time_by_name() {
            *out.entry(layer).or_insert(0.0) += t;
        }
        out
    }

    /// The recorded spans, for `out/trace-*.json`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("layer", Json::Str(s.layer.into())),
                        ("name", Json::Str(s.name.into())),
                        ("start_s", Json::Num(s.start)),
                        ("end_s", Json::Num(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("alloc_bytes", Json::Num(s.alloc_bytes as f64)),
                        ("alloc_calls", Json::Num(s.alloc_calls as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "x",
            start,
            end,
            parent,
            alloc_bytes: 0,
            alloc_calls: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        // round [0,10] { solve [1,7] { inner [2,3] }, contract [7,9] }
        t.spans = vec![
            span(HARNESS, 0.0, 10.0, None),
            span("core.prop", 1.0, 7.0, Some(0)),
            span("core.solver", 2.0, 3.0, Some(1)),
            span("core.contract", 7.0, 9.0, Some(0)),
        ];
        assert_eq!(t.self_times(), vec![2.0, 5.0, 1.0, 2.0]);
        let by_layer = t.self_time_by_layer();
        assert_eq!(by_layer[HARNESS], 2.0);
        assert_eq!(by_layer["core.prop"], 5.0);
        // Self times partition the root span.
        assert_eq!(by_layer.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_one_nests() {
        let mut t = Tracer::new();
        let id = t.enter("io", "read");
        t.exit(id);
        assert!(t.spans().is_empty());
        // Not `set_enabled`: the allocation switch is process-wide and the
        // allocator test owns it.
        t.on = true;
        let outer = t.enter(HARNESS, "round");
        let got = t.call("io", "read", || 7);
        t.exit(outer);
        assert_eq!(got, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);
    }
}
