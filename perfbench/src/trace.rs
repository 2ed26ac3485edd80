//! Spans recorded from outside the program, around the calls the
//! benchmark makes into each layer. Spans stay in memory while the run
//! measures and are written out once, when it ends.

use crate::report::{json_str, Report};
use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call: `query` groups the spans of one operation, `parent`
/// is the index of the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub query: u64,
}

/// In-memory span sink shared by every client thread of a run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Record a finished span; returns its index (for children). A root
    /// span's index is its query id; children inherit their parent's.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let query = parent.map_or(spans.len(), |p| spans[p].query as usize) as u64;
        spans.push(Span {
            name,
            start: start - self.origin,
            end: end - self.origin,
            parent,
            query,
        });
        spans.len() - 1
    }

    /// Open a span whose end is filled in by [`Tracer::close`] (parents
    /// are opened before their children are recorded).
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    pub fn close(&self, id: usize) {
        let end = self.origin.elapsed();
        self.spans.lock().expect("span recorder poisoned")[id].end = end;
    }

    /// Per-layer self time per root span, the share of root wall time
    /// the child spans cover, and the span file.
    pub fn summarize(
        &self,
        root: &'static str,
        layer_of: fn(&str) -> &'static str,
        r: &mut Report,
    ) {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let dur = |s: &Span| s.end.saturating_sub(s.start);
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += dur(s);
            }
        }
        let roots = spans.iter().filter(|s| s.name == root).count().max(1) as f64;
        let mut layers: Vec<(&'static str, Duration)> = Vec::new();
        let (mut root_wall, mut covered) = (Duration::ZERO, Duration::ZERO);
        for (i, s) in spans.iter().enumerate() {
            let self_time = dur(s).saturating_sub(child_time[i]);
            let layer = layer_of(s.name);
            match layers.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, t)) => *t += self_time,
                None => layers.push((layer, self_time)),
            }
            if s.name == root {
                root_wall += dur(s);
                covered += child_time[i].min(dur(s));
            }
        }
        for (layer, t) in layers {
            r.metric(
                &format!("trace.{layer}.self_ms"),
                t.as_secs_f64() * 1e3 / roots,
                "ms",
            );
        }
        r.metric(
            "trace.child_coverage",
            covered.as_secs_f64() / root_wall.as_secs_f64().max(1e-12),
            "ratio",
        );
        r.info("trace_spans", spans.len());
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span recorder poisoned").iter() {
            writeln!(
                out,
                "{{\"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \"query\": {}}}",
                json_str(s.name),
                s.start.as_micros(),
                s.end.as_micros(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.query
            )?;
        }
        out.flush()
    }
}
