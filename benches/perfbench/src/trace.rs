//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end instant, the span that caused it, and the
//! id of the request or pass it belongs to. Spans are kept in memory while the
//! run measures and written out once, when it ends, as Chrome trace-event JSON
//! (viewable in Perfetto or chrome://tracing) plus a per-name self-time table.
//! With tracing off every call is a plain function call: nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u64;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    /// Request or pass id the span belongs to (0 = none).
    req: u64,
    start: Instant,
    end: Instant,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals from [`Tracer::self_times`].
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// Record a span whose bounds were measured by the caller.
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, end);
    }

    /// Reserve an id for a span recorded later with [`Tracer::record_as`], so
    /// children finished first can name it as their parent.
    pub fn reserve(&self) -> Option<SpanId> {
        self.on.then(|| self.next.fetch_add(1, Ordering::Relaxed))
    }

    pub fn record_as(
        &self,
        id: Option<SpanId>,
        name: &str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(id) = id {
            self.push(id, parent, name, req, start, end);
        }
    }

    fn push(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans
            .lock()
            .expect("no span writer panicked")
            .push(Span {
                id,
                parent,
                name: name.to_string(),
                req,
                start,
                end,
            });
    }

    /// Per span name: count, total duration, and self time — the duration
    /// minus the part of it that the span's children cover.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let spans = self.spans.lock().expect("no span writer panicked");
        let mut children: BTreeMap<SpanId, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end.saturating_duration_since(s.start).as_secs_f64();
            let covered = children
                .get(&s.id)
                .map_or(0.0, |kids| covered_secs(s.start, s.end, kids));
            let entry = out.entry(s.name.clone()).or_default();
            entry.count += 1;
            entry.total_ms += total * 1e3;
            entry.self_ms += (total - covered).max(0.0) * 1e3;
        }
        out
    }

    /// The spans as Chrome trace-event JSON: one complete (`"ph": "X"`) event
    /// per span, the request id as the thread lane, parent and id in `args`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("no span writer panicked");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let ts = s.start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let dur = s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}, \
                 \"dur\": {dur:.3}, \"args\": {{\"id\": {}, \"parent\": {parent}}}}}",
                s.name, s.req, s.id
            );
            out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
        }
        out.push(']');
        out
    }
}

/// Seconds of `[start, end]` covered by the union of `intervals`.
fn covered_secs(start: Instant, end: Instant, intervals: &[(Instant, Instant)]) -> f64 {
    let mut clipped: Vec<(Instant, Instant)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort();
    let mut covered = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += (cb - ca).as_secs_f64();
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        covered += (cb - ca).as_secs_f64();
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let root = t.reserve();
        // Two overlapping children cover [1, 6] ms of a [0, 10] ms parent.
        t.record("child", root, 1, t0 + ms(1), t0 + ms(4));
        t.record("child", root, 1, t0 + ms(3), t0 + ms(6));
        t.record_as(root, "root", None, 1, t0, t0 + ms(10));
        let st = t.self_times();
        assert!((st["root"].self_ms - 5.0).abs() < 1e-6);
        assert!((st["root"].total_ms - 10.0).abs() < 1e-6);
        assert_eq!(st["child"].count, 2);
        assert!((st["child"].self_ms - 6.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, || 7), 7);
        t.record("y", None, 0, Instant::now(), Instant::now());
        assert!(t.self_times().is_empty());
    }
}
