//! Span recording around the benchmark's calls into each layer.
//!
//! A span is a named interval with an optional parent span; spans of one
//! run, point or query share an id. Spans stay in memory while the
//! workload runs and are written out once at the end. A span's self time
//! is its duration minus the part of its interval that its children cover.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. The work counters are filled only on engine
/// spans (`SimScratch` counters of the run the span covers).
#[derive(Debug, Clone, Default)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub events: u64,
    pub stale: u64,
    pub grows: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The shared, thread-safe span sink of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` on the tracer's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Start a span now; children may name the returned index as parent.
    pub fn open(&self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            ..Span::default()
        });
        spans.len() - 1
    }

    /// End the span `ix` now.
    pub fn close(&self, ix: usize) {
        let end_ns = self.now();
        self.lock()[ix].end_ns = end_ns;
    }

    /// Record a span whose interval is already known.
    pub fn record(&self, span: Span) -> usize {
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, name: &'static str, id: u64, parent: usize, f: impl FnOnce() -> T) -> T {
        let ix = self.open(name, id, Some(parent));
        let out = f();
        self.close(ix);
        out
    }

    /// Stop recording and compute self times.
    pub fn finish(&self) -> Trace {
        Trace::new(std::mem::take(&mut *self.lock()))
    }
}

/// The finished span list with per-span self times.
pub struct Trace {
    pub spans: Vec<Span>,
    pub self_ns: Vec<u64>,
}

impl Trace {
    pub fn new(spans: Vec<Span>) -> Trace {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let self_ns = spans
            .iter()
            .zip(children)
            .map(|(s, kids)| {
                s.duration_ns()
                    .saturating_sub(covered(s.start_ns, s.end_ns, kids))
            })
            .collect();
        Trace { spans, self_ns }
    }

    /// Indices of the spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// Self times of the spans called `name`, in µs.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|i| self.self_ns[i] as f64 / 1e3)
            .collect()
    }

    /// Durations of the spans called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|i| self.spans[i].duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Sum of the durations of the spans called `name`, in µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"ix\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"events\":{},\"stale\":{},\"grows\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, self.self_ns[i], s.events, s.stale, s.grows
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            ..Span::default()
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping parallel children cover [10, 80]; one child
        // pokes out past the parent's end and is clipped.
        let t = Trace::new(vec![
            span("batch", None, 0, 100),
            span("engine.run", Some(0), 10, 60),
            span("engine.run", Some(0), 30, 80),
            span("reduce.merge", Some(0), 95, 120),
        ]);
        assert_eq!(t.self_ns, vec![100 - 70 - 5, 50, 50, 25]);
        assert_eq!(t.self_us("engine.run"), vec![0.05, 0.05]);
        assert_eq!(t.total_us("engine.run"), 0.1);
    }

    #[test]
    fn tracer_nests_spans_under_their_parent() {
        let tr = Tracer::new();
        let root = tr.open("point", 7, None);
        let v = tr.time("emit", 7, root, || 41 + 1);
        tr.close(root);
        assert_eq!(v, 42);
        let t = tr.finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.id == 7 && s.end_ns >= s.start_ns));
        assert!(t.self_ns[0] <= t.spans[0].duration_ns());
    }
}
