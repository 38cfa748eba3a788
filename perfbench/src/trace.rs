//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start, an end and the name of its parent; the
//! spans of one request share a request id. Every span feeds a per-name
//! aggregate (count and total duration), so per-layer metrics cover every
//! call. The spans themselves are kept in memory for a sample of
//! requests — every `stride`-th request id, the stride doubling whenever
//! the buffer fills, so the sample stays spread over the whole run — and
//! written out when the run ends, with each name's self time: a span's
//! duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept in memory per tracer before the sample is thinned.
const SPAN_CAP: usize = 1 << 15;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every span recorded, sampled or not.
#[derive(Default, Clone)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Total duration.
    pub total_ns: u128,
}

impl Agg {
    /// Mean span duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A span recorder. The tracers of a run's segments share an origin and
/// are merged when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stride: u64,
    aggs: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            stride: 1,
            aggs: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record span `name` of request `req` under `parent`.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.span_ns(name, parent, req, start_ns, end_ns);
    }

    /// Record a span whose bounds are already offsets from the origin
    /// (stages derived from the service's own `Response` timings).
    pub fn span_ns(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let end_ns = end_ns.max(start_ns);
        let agg = self.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += u128::from(end_ns - start_ns);
        if !req.is_multiple_of(self.stride) {
            return;
        }
        if self.spans.len() == SPAN_CAP {
            self.stride *= 2;
            let stride = self.stride;
            self.spans.retain(|s| s.req.is_multiple_of(stride));
            if !req.is_multiple_of(stride) {
                return;
            }
        }
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns,
        });
    }

    /// Offset of `t` from the origin, for [`Tracer::span_ns`].
    pub fn offset(&self, t: Instant) -> u64 {
        self.ns(t)
    }

    /// The aggregate for `name` (empty if never recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).cloned().unwrap_or_default()
    }

    /// Fold another segment's tracer into this one, keeping the sparser
    /// of the two samples.
    pub fn merge(&mut self, other: Tracer) {
        for (name, agg) in other.aggs {
            let mine = self.aggs.entry(name).or_default();
            mine.count += agg.count;
            mine.total_ns += agg.total_ns;
        }
        self.stride = self.stride.max(other.stride);
        self.spans.extend(other.spans);
        let stride = self.stride;
        self.spans.retain(|s| s.req.is_multiple_of(stride));
    }

    /// Per-name self time over the kept spans: (name, spans, total ns,
    /// self ns), in name order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut by_req: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            by_req.entry(s.req).or_default().push(s);
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for spans in by_req.values() {
            for s in spans {
                let mut children: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(s.name))
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect();
                children.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in children {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                let dur = s.end_ns - s.start_ns;
                let e = out.entry(s.name).or_default();
                e.0 += 1;
                e.1 += dur;
                e.2 += dur - covered.min(dur);
            }
        }
        out.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect()
    }

    /// Write the kept spans and the self-time table to `path` as JSON.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\n  \"self_time\": [\n");
        let table = self.self_times();
        for (i, (name, count, total, own)) in table.iter().enumerate() {
            let sep = if i + 1 == table.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{name}\", \"spans\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}{sep}"
            );
        }
        let _ = writeln!(
            out,
            "  ],\n  \"sample_stride\": {},\n  \"spans\": [",
            self.stride
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"parent\": {parent}, \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
        out.push_str("  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut t = Tracer::new(Instant::now());
        t.span_ns("root", None, 4, 0, 100);
        t.span_ns("a", Some("root"), 4, 10, 40);
        t.span_ns("b", Some("root"), 4, 30, 50);
        t.span_ns("c", Some("root"), 4, 90, 130);
        let table = t.self_times();
        let root = table.iter().find(|r| r.0 == "root").expect("root span");
        // Children cover 10..50 and 90..100: 50 ns of the root's 100.
        assert_eq!((root.1, root.2, root.3), (1, 100, 50));
    }

    #[test]
    fn sample_thins_but_aggregates_count_everything() {
        let mut t = Tracer::new(Instant::now());
        let n = SPAN_CAP as u64 * 3;
        for req in 0..n {
            t.span_ns("x", None, req, 0, 5);
        }
        assert_eq!(t.agg("x").count, n);
        assert!(t.spans.len() <= SPAN_CAP);
        assert!(t.spans.iter().all(|s| s.req.is_multiple_of(t.stride)));
    }
}
