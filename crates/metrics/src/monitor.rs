//! Background sampling monitor: periodically snapshots live registry
//! gauges into [`TraceKind::MetricsSample`] trace events.
//!
//! The monitor is the bridge between the two observability layers: the
//! registry holds *current* values (arena occupancy, busy time, mailbox
//! depths), the trace holds *timestamped* events. Sampling turns the
//! former into the latter, which is what the Perfetto exporter renders as
//! counter tracks and what the planned multi-tenant service will use for
//! straggler detection.
//!
//! Only the threaded backend runs the monitor as a thread (a background
//! thread cannot observe virtual time); the simulated runner emits a
//! single end-of-run sample via [`sample_once`] instead.

use crate::phases::Phase;
use crate::registry::{names, MetricsRegistry, MetricsSnapshot};
use crate::trace::{TraceKind, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Builds one [`TraceKind::MetricsSample`] from a registry snapshot.
#[must_use]
pub fn sample_kind(snapshot: &MetricsSnapshot, seq: u64) -> TraceKind {
    let occupancy = snapshot
        .gauges
        .get(names::NODE_ARENA_TUPLES)
        .copied()
        .unwrap_or(0)
        .max(0) as u64;
    let depth_hwm = snapshot
        .histograms
        .get(names::EXEC_MAILBOX_DEPTH)
        .map_or(0, |h| h.max);
    let busy_ns = snapshot
        .counters
        .get(names::EXEC_BUSY_NS)
        .copied()
        .unwrap_or(0);
    let filter_probes = snapshot
        .counters
        .get(names::NODE_FILTER_PROBES)
        .copied()
        .unwrap_or(0);
    let filter_rejections = snapshot
        .counters
        .get(names::NODE_FILTER_REJECTIONS)
        .copied()
        .unwrap_or(0);
    let hotkey_hits = snapshot
        .counters
        .get(names::NODE_HOTKEY_HITS)
        .copied()
        .unwrap_or(0);
    let sketch_topk = snapshot
        .gauges
        .get(names::SCHED_SKETCH_TOPK)
        .copied()
        .unwrap_or(0)
        .max(0) as u64;
    let hotkey_fanout = snapshot
        .histograms
        .get(names::SCHED_HOTKEY_FANOUT)
        .map_or(0, |h| h.max);
    let sched_picks = snapshot
        .counters
        .get(names::SCHED_PICKS)
        .copied()
        .unwrap_or(0);
    let preemptions = snapshot
        .counters
        .get(names::SCHED_PREEMPTIONS)
        .copied()
        .unwrap_or(0);
    let group_deficit = snapshot
        .histograms
        .get(names::SCHED_GROUP_DEFICIT)
        .map_or(0, |h| h.percentile(50.0));
    TraceKind::MetricsSample {
        seq,
        occupancy,
        depth_hwm,
        busy_ns,
        filter_probes,
        filter_rejections,
        hotkey_hits,
        sketch_topk,
        hotkey_fanout,
        sched_picks,
        preemptions,
        group_deficit,
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
    join: Option<thread::JoinHandle<()>>,
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
            })
            .ok();
        Self { stop, join }
    }

    /// Stops the sampling thread and waits for it to exit.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for MetricsMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
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
        h.counter(names::NODE_FILTER_PROBES).add(500);
        h.counter(names::NODE_FILTER_REJECTIONS).add(450);
        h.counter(names::NODE_HOTKEY_HITS).add(12);
        h.gauge(names::SCHED_SKETCH_TOPK).add(8);
        h.histogram(names::SCHED_HOTKEY_FANOUT).record(4);
        h.counter(names::SCHED_PICKS).add(300);
        h.counter(names::SCHED_PREEMPTIONS).add(9);
        // A sub-resolution value: the histogram stores it exactly, so the
        // p50 read-back is the recorded value.
        h.histogram(names::SCHED_GROUP_DEFICIT).record(25);
        let kind = sample_kind(&reg.snapshot(), 3);
        assert_eq!(
            kind,
            TraceKind::MetricsSample {
                seq: 3,
                occupancy: 42,
                depth_hwm: 7,
                busy_ns: 1000,
                filter_probes: 500,
                filter_rejections: 450,
                hotkey_hits: 12,
                sketch_topk: 8,
                hotkey_fanout: 4,
                sched_picks: 300,
                preemptions: 9,
                group_deficit: 25,
            }
        );
    }

    #[test]
    fn monitor_emits_samples_until_stopped() {
        let reg = MetricsRegistry::new();
        reg.handle().gauge(names::NODE_ARENA_TUPLES).add(5);
        let ring = Arc::new(RingSink::new(1024));
        let tracer = Tracer::new(TraceLevel::Summary, vec![ring.clone()]);
        let monitor = MetricsMonitor::start(reg, tracer, Duration::from_micros(200));
        thread::sleep(Duration::from_millis(5));
        monitor.stop();
        let samples: Vec<_> = ring
            .tail()
            .into_iter()
            .filter(|e| matches!(e.kind, TraceKind::MetricsSample { .. }))
            .collect();
        assert!(!samples.is_empty(), "expected at least one sample");
        assert!(matches!(
            samples[0].kind,
            TraceKind::MetricsSample { occupancy: 5, .. }
        ));
    }

    #[test]
    fn disabled_monitor_spawns_no_thread() {
        let monitor = MetricsMonitor::start(
            MetricsRegistry::disabled(),
            Tracer::off(),
            Duration::from_millis(1),
        );
        assert!(monitor.join.is_none());
        monitor.stop();
    }
}
