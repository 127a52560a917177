//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Kept in memory during the run and written as JSON lines at exit. Spans
//! inside the program are a later change (ROADMAP item 5); until then a
//! layer's time is what the benchmark sees from outside its public entry
//! point.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span starting now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let id = self.spans.len() as SpanId;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.spans[id as usize].end_ns = now;
    }

    /// Record a span from instants taken elsewhere (another thread, or the
    /// timed loop, which only keeps timestamps).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Close a span opened at `start` now; returns its length in µs.
    pub fn since(&mut self, name: &'static str, parent: Option<SpanId>, start: Instant) -> f64 {
        let end = Instant::now();
        self.add(name, parent, start, end);
        (end - start).as_secs_f64() * 1e6
    }

    /// Time `f` as a span; returns its result and its length in µs.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let us = self.since(name, parent, start);
        (out, us)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name, in order of first appearance: `(name, count, total
    /// ns, self ns)`.
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut out: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            let row = match out.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => row,
                None => {
                    out.push((span.name, 0, 0, 0));
                    out.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += span.duration_ns();
            row.3 += own;
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are not counted
/// twice, and a child's part outside the parent is ignored). Indexed like
/// `spans`, whose ids must equal their positions.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two disjoint children cover 30 + 20.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 70),
            // A grandchild takes from its own parent only.
            span(3, Some(1), 15, 25),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_clipped() {
        let spans = vec![
            span(0, None, 100, 200),
            // Overlap 120..150 twice; union is 110..160 = 50.
            span(1, Some(0), 110, 150),
            span(2, Some(0), 120, 160),
            // Overhangs the parent's end: only 190..200 counts.
            span(3, Some(0), 190, 260),
            // Entirely outside: ignored.
            span(4, Some(0), 10, 20),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn tracer_assigns_positional_ids_and_measures_forward() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root", None);
        let (inner, us) = t.timed("inner", Some(root), || 7);
        t.close(root);
        assert_eq!(inner, 7);
        assert!(us >= 0.0);
        assert_eq!(t.spans()[0].id, 0);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let summary = t.summary();
        assert_eq!(summary.len(), 2);
        assert_eq!((summary[1].0, summary[1].1), ("inner", 1));
        // The root's self time excludes the inner span; a leaf's is its own.
        assert_eq!(summary[0].3, summary[0].2 - summary[1].2);
        assert_eq!(summary[1].3, summary[1].2);
    }
}
