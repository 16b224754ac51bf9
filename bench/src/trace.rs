//! Spans recorded by the harness around its calls into the engine.
//!
//! A span is one call at a layer boundary: name, start, end, the span
//! that caused it, the iteration or request it belongs to, and the row
//! and byte counts seen at that boundary.  Spans stay in memory while
//! the run measures and are written to `out/trace-<workload>.json` when
//! it ends.  A layer's *self time* is its span's duration minus the part
//! of that interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Upper bound on spans kept (memory guard; the rest are counted, not
/// stored).
const MAX_SPANS: usize = 400_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    /// Iteration or request id shared by the spans of one operation.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rows: u64,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer; buffers of several threads share `origin`
/// and are concatenated with [`Trace::absorb`].
#[derive(Clone, Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
        rows: u64,
        bytes: u64,
    ) -> usize {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return self.spans.len() - 1;
        }
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            rows,
            bytes,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is not known yet (a parent recorded before
    /// its children); close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, op, now, now, 0, 0)
    }

    pub fn close(&mut self, id: usize, rows: u64, bytes: u64) {
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end;
            s.rows = rows;
            s.bytes = bytes;
        }
    }

    /// Append another thread's spans, re-basing their parent indexes.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.dropped += other.dropped;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals, clipped to the span.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Self times, in milliseconds, of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Per operation id, the summed self time (ms) of spans called
    /// `name` — for layers hit several times per iteration (16 spill
    /// writes make one `storage.write` total).
    pub fn self_ms_per_op(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_ns();
        let mut by_op: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(selfs) {
            if s.name == name {
                *by_op.entry(s.op).or_default() += ns;
            }
        }
        by_op.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// The trace file: the environment, free-form notes (the rendered
    /// plans), and every span.
    pub fn to_json(&self, workload: &str, env_json: &str, notes: &[(String, String)]) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":{},\"environment\":{env_json},\"dropped_spans\":{},\"notes\":{{",
            crate::json::quote(workload),
            self.dropped
        );
        for (i, (k, v)) in notes.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{}:{}",
                crate::json::quote(k),
                crate::json::quote(v)
            );
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"rows\":{},\"bytes\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.rows, s.bytes
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn trace_with(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Trace {
        let origin = Instant::now();
        let mut t = Trace::new(origin);
        for &(name, parent, start, end) in spans {
            t.record(
                name,
                parent,
                0,
                origin + Duration::from_nanos(start),
                origin + Duration::from_nanos(end),
                0,
                0,
            );
        }
        t
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = trace_with(&[
            ("iter", None, 0, 100),
            ("sort", Some(0), 10, 90),
            ("write", Some(1), 20, 30),
            ("read", Some(1), 50, 70),
        ]);
        assert_eq!(t.self_times_ns(), vec![20, 50, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children overlap each other (30..60 and 50..80) and one pokes
        // past the parent's end: covered = 30..100 -> self = 30.
        let t = trace_with(&[
            ("parent", None, 0, 100),
            ("a", Some(0), 30, 60),
            ("b", Some(0), 50, 80),
            ("c", Some(0), 80, 140),
        ]);
        assert_eq!(t.self_times_ns()[0], 30);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = trace_with(&[("x", None, 0, 10)]);
        let b = trace_with(&[("y", None, 0, 10), ("z", Some(0), 2, 4)]);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_times_ns(), vec![10, 8, 2]);
    }

    #[test]
    fn per_op_sums_repeated_layers() {
        let origin = Instant::now();
        let mut t = Trace::new(origin);
        for (op, start) in [(1u64, 0u64), (1, 10), (2, 20)] {
            t.record(
                "storage.write",
                None,
                op,
                origin + Duration::from_nanos(start),
                origin + Duration::from_nanos(start + 4_000_000),
                0,
                0,
            );
        }
        assert_eq!(t.self_ms_per_op("storage.write"), vec![8.0, 4.0]);
        assert!(t.self_ms_per_op("sort.run_gen").is_empty());
    }

    #[test]
    fn trace_file_is_valid_json() {
        let t = trace_with(&[("iter", None, 0, 100), ("sort", Some(0), 10, 90)]);
        let text = t.to_json("w", "{}", &[("plan".into(), "a \"b\"\n".into())]);
        let doc = crate::json::parse(&text).expect("trace parses");
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_arr()).map(|a| a.len()),
            Some(2)
        );
    }
}
