//! What one benchmark process records: spans around the calls into each
//! layer, latency samples, the attempted/failed counts, and the deadlines
//! of the queries in flight (read by the watchdog in `main`).
//!
//! Spans exist only in the traced pass; the timed pass records samples and
//! counts alone, so tracing cost never enters an end-to-end metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One benchmark-owned span. `parent` is the span that caused it; spans of
/// one query share `query`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub query: u64,
}

/// Why a query counts as failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// An error, or a report with a wrong match or tuple count: the
    /// program's output is incorrect and the run exits non-zero.
    Incorrect(String),
    /// A correct report that arrived past the workload's latency limit.
    Late(String),
}

/// Index of a span in the recorder; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);

    fn index(self) -> Option<u32> {
        (self != Self::NONE).then_some(self.0)
    }
}

/// A span's self time: its duration minus the part its children cover.
/// Children are recorded sequentially by the thread that owns the parent,
/// so they never overlap one another.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let child = s.end_ns - s.start_ns;
            own[p as usize] = own[p as usize].saturating_sub(child);
        }
    }
    own
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    series: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    incorrect: u64,
    next_query: u64,
    inflight: BTreeMap<u64, (Instant, String)>,
}

pub struct Recorder {
    origin: Instant,
    tracing: bool,
    inner: Mutex<Inner>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Self {
        Self {
            origin: Instant::now(),
            tracing,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("no recorder user panics")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span (a no-op returning [`SpanId::NONE`] when tracing is off).
    pub fn open(&self, name: &'static str, parent: SpanId, query: u64) -> SpanId {
        if !self.tracing {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.index(),
            query,
        });
        SpanId(inner.spans.len() as u32 - 1)
    }

    pub fn close(&self, id: SpanId) {
        if let Some(i) = id.index() {
            let end_ns = self.now_ns();
            self.lock().spans[i as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        query: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(name, parent, query);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn sample(&self, series: &'static str, value: f64) {
        self.lock().series.entry(series).or_default().push(value);
    }

    pub fn series(&self, name: &str) -> Vec<f64> {
        self.lock().series.get(name).cloned().unwrap_or_default()
    }

    /// Drops the samples collected so far (warm-up), keeping the counts.
    pub fn clear_series(&self) {
        self.lock().series.clear();
    }

    /// Registers a query as attempted and in flight until `deadline` from
    /// now; returns its id.
    pub fn begin_query(&self, what: &str, deadline: Duration) -> u64 {
        let mut inner = self.lock();
        inner.attempted += 1;
        let id = inner.next_query;
        inner.next_query += 1;
        inner
            .inflight
            .insert(id, (Instant::now() + deadline, what.to_owned()));
        id
    }

    /// Marks a query finished; a fault counts as failed and is reported on
    /// standard error.
    pub fn end_query(&self, id: u64, outcome: Result<(), Fault>) {
        let mut inner = self.lock();
        let what = inner.inflight.remove(&id).map(|(_, what)| what);
        if let Err(fault) = outcome {
            inner.failed += 1;
            inner.incorrect += u64::from(matches!(fault, Fault::Incorrect(_)));
            eprintln!(
                "FAILED query {id} ({}): {fault:?}",
                what.as_deref().unwrap_or("unknown")
            );
        }
    }

    /// The first in-flight query whose deadline has passed, if any; it is
    /// counted as failed and incorrect (it returned nothing).
    pub fn expired(&self) -> Option<String> {
        let now = Instant::now();
        let mut inner = self.lock();
        let id = inner
            .inflight
            .iter()
            .find(|(_, (deadline, _))| *deadline <= now)
            .map(|(id, _)| *id)?;
        let (_, what) = inner.inflight.remove(&id).expect("found above");
        inner.failed += 1;
        inner.incorrect += 1;
        Some(format!("query {id} ({what})"))
    }

    /// Queries attempted and failed so far.
    pub fn counts(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.attempted, inner.failed)
    }

    /// Whether every query that returned so far returned a correct report.
    pub fn all_correct(&self) -> bool {
        self.lock().incorrect == 0
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// The spans and their self times summed per name, as one JSON document.
    pub fn trace_json(&self, workload: &str) -> String {
        let spans = self.spans();
        let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
        for (span, own) in spans.iter().zip(self_times(&spans)) {
            *self_ns.entry(span.name).or_insert(0) += own;
        }
        let mut out = format!("{{\"workload\":\"{workload}\",\"self_ns\":{{");
        for (i, (name, ns)) in self_ns.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{ns}");
        }
        out.push_str("},\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"query\":{}}}",
                s.name, s.start_ns, s.end_ns, s.query
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("rep", 0, 100, None),
            span("core.run", 5, 80, Some(0)),
            span("verify", 80, 95, Some(0)),
            span("inner", 10, 30, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![10, 55, 15, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn spans_are_recorded_only_when_tracing() {
        let off = Recorder::new(false);
        let id = off.span("rep", SpanId::NONE, 1, |id| id);
        assert_eq!(id, SpanId::NONE);
        assert!(off.spans().is_empty());

        let on = Recorder::new(true);
        on.span("rep", SpanId::NONE, 7, |rep| {
            on.span("core.run", rep, 7, |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].query, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = on.trace_json("w");
        assert!(json.contains("\"name\":\"core.run\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn failures_and_blown_deadlines_are_counted() {
        let rec = Recorder::new(false);
        let a = rec.begin_query("a", Duration::from_secs(60));
        rec.end_query(a, Ok(()));
        let b = rec.begin_query("b", Duration::from_secs(60));
        rec.end_query(b, Err(Fault::Late("0.3 s".to_owned())));
        assert_eq!(rec.counts(), (2, 1));
        assert!(rec.all_correct(), "a late query is failed, not incorrect");
        assert_eq!(rec.expired(), None);
        rec.begin_query("c", Duration::ZERO);
        assert!(rec.expired().expect("deadline passed").contains("(c)"));
        assert_eq!(rec.counts(), (3, 2));
        assert!(!rec.all_correct());
        assert_eq!(rec.expired(), None);
        let d = rec.begin_query("d", Duration::from_secs(60));
        rec.end_query(d, Err(Fault::Incorrect("wrong count".to_owned())));
        assert_eq!(rec.counts(), (4, 3));
    }
}
