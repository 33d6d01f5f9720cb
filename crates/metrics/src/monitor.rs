//! Background sampling monitor: periodically snapshots the registry
//! instruments listed in [`SAMPLED`] into [`TraceKind::MetricsSample`]
//! trace events.
//!
//! The monitor is the bridge between the two observability layers: the
//! registry holds *current* values (arena occupancy, busy time, mailbox
//! depths), the trace holds *timestamped* events. Sampling turns the
//! former into the latter, which is what the Perfetto exporter renders as
//! counter tracks. A sample carries no count of its own: every value in it
//! is a registry read, and [`SAMPLED`] is the one list of what is read.
//!
//! Only the threaded backend runs the monitor as a thread (a background
//! thread cannot observe virtual time). Every run ends with one more
//! sample via [`sample_once`], numbered after the monitor's last.

use crate::phases::Phase;
use crate::registry::{names, MetricsRegistry, MetricsSnapshot};
use crate::trace::{TraceKind, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How a sampled instrument is read from a registry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleRead {
    /// A counter's sum.
    Counter,
    /// A gauge's sum, clamped at zero.
    Gauge,
    /// A histogram's exact maximum.
    HistMax,
    /// A histogram's median.
    HistP50,
}

/// One instrument every metrics sample carries.
#[derive(Debug, Clone, Copy)]
pub struct Sampled {
    /// Registry name, also the sample's JSONL key (unique in [`SAMPLED`]).
    pub name: &'static str,
    /// How the value is read.
    pub read: SampleRead,
    /// Human-readable label: the Perfetto counter track and the trace
    /// description name the value by it.
    pub label: &'static str,
}

impl Sampled {
    /// This instrument's value in `snapshot` (0 when it was never minted).
    fn value(&self, snapshot: &MetricsSnapshot) -> u64 {
        match self.read {
            SampleRead::Counter => snapshot.counters.get(self.name).copied().unwrap_or(0),
            SampleRead::Gauge => snapshot
                .gauges
                .get(self.name)
                .map_or(0, |g| (*g).max(0) as u64),
            SampleRead::HistMax => snapshot.histograms.get(self.name).map_or(0, |h| h.max),
            SampleRead::HistP50 => snapshot
                .histograms
                .get(self.name)
                .map_or(0, |h| h.percentile(50.0)),
        }
    }
}

/// The sampled instruments, in the order of a sample's values. The
/// monitor, the trace description, the JSONL writer and reader and the
/// Perfetto exporter all walk this table; a new sampled metric is one row.
#[rustfmt::skip]
pub const SAMPLED: &[Sampled] = &[
    row(names::NODE_ARENA_TUPLES,      SampleRead::Gauge,   "arena occupancy (tuples)"),
    row(names::EXEC_MAILBOX_DEPTH,     SampleRead::HistMax, "mailbox depth hwm"),
    row(names::EXEC_BUSY_NS,           SampleRead::Counter, "worker busy (ns)"),
    row(names::NODE_FILTER_PROBES,     SampleRead::Counter, "probe filter probes"),
    row(names::NODE_FILTER_REJECTIONS, SampleRead::Counter, "probe tag rejections"),
    row(names::NODE_HOTKEY_HITS,       SampleRead::Counter, "hotkey probe hits"),
    row(names::SCHED_SKETCH_TOPK,      SampleRead::Gauge,   "sketch top-k size"),
    row(names::SCHED_HOTKEY_FANOUT,    SampleRead::HistMax, "hotkey fan-out"),
    row(names::SCHED_PICKS,            SampleRead::Counter, "scheduler picks"),
    row(names::SCHED_PREEMPTIONS,      SampleRead::Counter, "scheduler preemptions"),
    row(names::SCHED_GROUP_DEFICIT,    SampleRead::HistP50, "group deficit (p50)"),
];

const fn row(name: &'static str, read: SampleRead, label: &'static str) -> Sampled {
    Sampled { name, read, label }
}

/// Values per metrics sample: one per [`SAMPLED`] row.
pub const SAMPLE_WIDTH: usize = SAMPLED.len();

/// Builds one [`TraceKind::MetricsSample`] from a registry snapshot.
#[must_use]
pub fn sample_kind(snapshot: &MetricsSnapshot, seq: u64) -> TraceKind {
    TraceKind::MetricsSample {
        seq,
        values: Box::new(std::array::from_fn(|i| SAMPLED[i].value(snapshot))),
    }
}

/// Snapshots `registry` once and emits the sample at `at_nanos` (used by
/// the simulated runner for its end-of-run sample).
pub fn sample_once(registry: &MetricsRegistry, tracer: &Tracer, at_nanos: u64, seq: u64) {
    if !registry.is_enabled() || !tracer.enabled() {
        return;
    }
    let kind = sample_kind(&registry.snapshot(), seq);
    tracer.emit(at_nanos, 0, Phase::Probe, kind);
}

/// A background thread that samples the registry every `interval` until
/// stopped, stamping events with wall nanoseconds since its start.
pub struct MetricsMonitor {
    stop: Arc<AtomicBool>,
    /// The sampling thread; it returns how many samples it emitted.
    join: Option<thread::JoinHandle<u64>>,
}

impl MetricsMonitor {
    /// Starts sampling. Returns a no-thread monitor (stop is free) when
    /// the registry or tracer is disabled.
    #[must_use]
    pub fn start(registry: MetricsRegistry, tracer: Tracer, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        if !registry.is_enabled() || !tracer.enabled() {
            return Self { stop, join: None };
        }
        let flag = Arc::clone(&stop);
        let join = thread::Builder::new()
            .name("metrics-monitor".to_owned())
            .spawn(move || {
                let started = Instant::now();
                let mut seq = 0u64;
                while !flag.load(Ordering::Acquire) {
                    thread::sleep(interval);
                    if flag.load(Ordering::Acquire) {
                        break;
                    }
                    let at = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    let kind = sample_kind(&registry.snapshot(), seq);
                    tracer.emit(at, 0, Phase::Probe, kind);
                    seq += 1;
                }
                seq
            })
            .ok();
        Self { stop, join }
    }

    /// Stops the sampling thread, waits for it to exit and returns the
    /// next sample sequence number (the count of samples it emitted), so a
    /// final sample continues the sequence instead of repeating 0.
    pub fn stop(mut self) -> u64 {
        self.halt()
    }

    fn halt(&mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.join.take().map_or(0, |join| join.join().unwrap_or(0))
    }
}

impl Drop for MetricsMonitor {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{RingSink, TraceLevel};

    #[test]
    fn sample_kind_reads_well_known_names() {
        let reg = MetricsRegistry::new();
        let h = reg.handle();
        h.gauge(names::NODE_ARENA_TUPLES).add(42);
        h.counter(names::EXEC_BUSY_NS).add(1000);
        h.histogram(names::EXEC_MAILBOX_DEPTH).record(7);
        h.histogram(names::EXEC_MAILBOX_DEPTH).record(3);
        h.counter(names::NODE_FILTER_PROBES).add(500);
        h.counter(names::NODE_FILTER_REJECTIONS).add(450);
        h.counter(names::NODE_HOTKEY_HITS).add(12);
        h.gauge(names::SCHED_SKETCH_TOPK).add(8);
        h.histogram(names::SCHED_HOTKEY_FANOUT).record(4);
        h.counter(names::SCHED_PICKS).add(300);
        h.counter(names::SCHED_PREEMPTIONS).add(9);
        // Sub-resolution values: the histogram stores them exactly, so the
        // p50 read-back is the median recorded value.
        for v in [25, 30, 90] {
            h.histogram(names::SCHED_GROUP_DEFICIT).record(v);
        }
        let TraceKind::MetricsSample { seq, values } = sample_kind(&reg.snapshot(), 3) else {
            panic!("a metrics sample");
        };
        assert_eq!(seq, 3);
        let by_name = |name| by_name_in(&values, name);
        assert_eq!(by_name(names::NODE_ARENA_TUPLES), 42);
        assert_eq!(
            by_name(names::EXEC_MAILBOX_DEPTH),
            7,
            "the max, not the last"
        );
        assert_eq!(by_name(names::EXEC_BUSY_NS), 1000);
        assert_eq!(by_name(names::NODE_FILTER_PROBES), 500);
        assert_eq!(by_name(names::NODE_FILTER_REJECTIONS), 450);
        assert_eq!(by_name(names::NODE_HOTKEY_HITS), 12);
        assert_eq!(by_name(names::SCHED_SKETCH_TOPK), 8);
        assert_eq!(by_name(names::SCHED_HOTKEY_FANOUT), 4);
        assert_eq!(by_name(names::SCHED_PICKS), 300);
        assert_eq!(by_name(names::SCHED_PREEMPTIONS), 9);
        assert_eq!(by_name(names::SCHED_GROUP_DEFICIT), 30, "the median");
        // A negative gauge reads as zero; an unminted instrument as zero.
        h.gauge(names::NODE_ARENA_TUPLES).add(-50);
        let empty = sample_kind(&MetricsRegistry::new().snapshot(), 0);
        assert_eq!(
            empty,
            TraceKind::MetricsSample {
                seq: 0,
                values: Box::new([0; SAMPLE_WIDTH])
            }
        );
        let TraceKind::MetricsSample { values, .. } = sample_kind(&reg.snapshot(), 4) else {
            panic!("a metrics sample");
        };
        assert_eq!(by_name_in(&values, names::NODE_ARENA_TUPLES), 0);
    }

    fn by_name_in(values: &[u64; SAMPLE_WIDTH], name: &str) -> u64 {
        values[SAMPLED.iter().position(|s| s.name == name).expect(name)]
    }

    #[test]
    fn sampled_names_are_unique_keys() {
        for (i, a) in SAMPLED.iter().enumerate() {
            for b in &SAMPLED[i + 1..] {
                assert_ne!(a.name, b.name, "a JSONL key appears twice");
                assert_ne!(a.label, b.label, "a Perfetto track appears twice");
            }
        }
    }

    #[test]
    fn monitor_emits_samples_until_stopped() {
        let reg = MetricsRegistry::new();
        reg.handle().gauge(names::NODE_ARENA_TUPLES).add(5);
        let ring = Arc::new(RingSink::new(1024));
        let tracer = Tracer::new(TraceLevel::Summary, vec![ring.clone()]);
        let monitor = MetricsMonitor::start(reg, tracer, Duration::from_micros(200));
        thread::sleep(Duration::from_millis(5));
        let next = monitor.stop();
        let samples: Vec<_> = ring
            .tail()
            .into_iter()
            .filter(|e| matches!(e.kind, TraceKind::MetricsSample { .. }))
            .collect();
        assert!(!samples.is_empty(), "expected at least one sample");
        assert_eq!(next, samples.len() as u64, "stop returns the next seq");
        for (i, ev) in samples.iter().enumerate() {
            let TraceKind::MetricsSample { seq, values } = &ev.kind else {
                unreachable!()
            };
            assert_eq!(*seq, i as u64);
            assert_eq!(by_name_in(values, names::NODE_ARENA_TUPLES), 5);
        }
    }

    #[test]
    fn disabled_monitor_spawns_no_thread() {
        let monitor = MetricsMonitor::start(
            MetricsRegistry::disabled(),
            Tracer::off(),
            Duration::from_millis(1),
        );
        assert!(monitor.join.is_none());
        assert_eq!(monitor.stop(), 0);
    }
}
