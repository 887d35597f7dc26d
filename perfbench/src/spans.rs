//! Benchmark-side spans, kept in memory and written when the run ends.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are
//! recorded only from the benchmark's own code, around calls into each
//! layer's public functions. A layer's self time is the time its spans
//! cover minus the part covered by spans of the layers it calls.

use std::fmt::Write as _;
use std::time::Instant;

use panda_obs::{Stage, TraceReport};

use crate::report::{escape, num, Host};

/// Parent id of spans that hang directly off the run.
pub const ROOT: u32 = 0;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// Which layers each layer calls: a layer's self time excludes time
/// covered by these.
const CALLS: &[(&str, &[&str])] = &[
    ("service.request", &["sharded.call", "store.query"]),
    (
        "setup.rep",
        &[
            "local_tree.build",
            "sharded.build",
            "store.open",
            "service.new",
        ],
    ),
];

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (ids start at 1).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        self.spans.len() as u32
    }

    /// Record the timed backend's calls under one span name.
    pub fn push_calls(&mut self, name: &'static str, calls: &[crate::timed::Call], parent: u32) {
        for (i, c) in calls.iter().enumerate() {
            self.push(name, c.start, c.end, parent, i as u64);
        }
    }

    /// Per span name: count, summed duration, covered (union) time and
    /// self time, in milliseconds.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let own = self.intervals(|n| n == name);
                let callees = CALLS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(&[][..], |(_, c)| *c);
                let inner = self.intervals(|n| callees.contains(&n));
                let busy = covered(&own);
                let overlap = covered_intersection(&own, &inner);
                let total: u64 = self
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.end_ns - s.start_ns)
                    .sum();
                LayerTime {
                    name,
                    count: self.spans.iter().filter(|s| s.name == name).count(),
                    total_ms: total as f64 / 1e6,
                    busy_ms: busy as f64 / 1e6,
                    self_ms: (busy - overlap) as f64 / 1e6,
                }
            })
            .collect()
    }

    /// Sorted, merged intervals of the spans whose name passes `keep`.
    fn intervals(&self, keep: impl Fn(&str) -> bool) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| keep(s.name))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        v.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(v.len());
        for (s, e) in v {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        merged
    }

    /// Write the spans, the layer table and the program's own trace
    /// stage table to `.bench_out/trace-<workload>-seed<n>.json`.
    pub fn write(&self, host: &Host, report: &TraceReport) -> std::io::Result<String> {
        let mut s = String::new();
        let _ = write!(s, "{{\"host\": {},\n\"layers\": [", host.to_json());
        for (i, l) in self.layer_times().iter().enumerate() {
            let _ = write!(
                s,
                "{}\n  {{\"name\": \"{}\", \"count\": {}, \"total_ms\": {}, \"busy_ms\": {}, \"self_ms\": {}}}",
                if i > 0 { "," } else { "" },
                l.name,
                l.count,
                num(l.total_ms),
                num(l.busy_ms),
                num(l.self_ms)
            );
        }
        let _ = write!(
            s,
            "],\n\"obs_trace\": {{\"events\": {}, \"traces\": {}, \"stages\": [",
            report.events, report.traces
        );
        for (i, st) in report.stages.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n  {{\"stage\": \"{}\", \"count\": {}, \"mean_us\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                if i > 0 { "," } else { "" },
                st.stage.name(),
                st.count,
                num(st.mean_ns / 1e3),
                num(st.p50_ns as f64 / 1e3),
                num(st.p99_ns as f64 / 1e3),
                num(st.max_ns as f64 / 1e3)
            );
        }
        let missing: Vec<String> = Stage::ALL
            .iter()
            .filter(|st| report.stage(**st).is_none())
            .map(|st| format!("\"{}\"", st.name()))
            .collect();
        let _ = write!(
            s,
            "],\n\"stages_without_events\": [{}]}},\n\"spans_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"],\n\"spans\": [",
            missing.join(", ")
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n[\"{}\", {}, {}, {}, {}]",
                if i > 0 { "," } else { "" },
                escape(sp.name),
                sp.start_ns,
                sp.end_ns,
                sp.parent,
                sp.request
            );
        }
        s.push_str("]}\n");
        std::fs::create_dir_all(".bench_out")?;
        let path = format!(".bench_out/trace-{}-seed{}.json", host.workload, host.seed);
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

pub struct LayerTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub busy_ms: f64,
    pub self_ms: f64,
}

fn covered(merged: &[(u64, u64)]) -> u64 {
    merged.iter().map(|(s, e)| e - s).sum()
}

/// Length of the intersection of two sorted, merged interval lists.
fn covered_intersection(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_covered_callee_time() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut log = SpanLog::new(t0);
        // Two overlapping requests over [0, 100) µs; backend busy on
        // [10, 30) and [25, 60) → 50 µs covered, 50 µs of self time.
        log.push("service.request", at(0), at(80), ROOT, 0);
        log.push("service.request", at(20), at(100), ROOT, 1);
        log.push("sharded.call", at(10), at(30), ROOT, 0);
        log.push("sharded.call", at(25), at(60), ROOT, 1);
        let layers = log.layer_times();
        let req = layers.iter().find(|l| l.name == "service.request").unwrap();
        assert_eq!(req.count, 2);
        assert!((req.total_ms - 0.160).abs() < 1e-9);
        assert!((req.busy_ms - 0.100).abs() < 1e-9);
        assert!((req.self_ms - 0.050).abs() < 1e-9);
        let call = layers.iter().find(|l| l.name == "sharded.call").unwrap();
        assert!((call.self_ms - 0.050).abs() < 1e-9);
    }
}
