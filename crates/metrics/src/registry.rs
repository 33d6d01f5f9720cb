//! Live metrics registry: sharded counters, gauges and log-bucketed
//! latency histograms behind cheap per-worker handles.
//!
//! The trace layer (see [`crate::trace`]) records *events*; this module
//! records *distributions and rates* that the expansion strategies of the
//! paper react to — busy/steal/park time, mailbox depths, per-phase batch
//! latencies, hash-chain lengths. Three design rules keep the hot path
//! cheap enough to leave on by default:
//!
//! * **Sharded atomics.** Counters and gauges are arrays of
//!   [`SHARDS`] cache-line-padded atomic cells. A handle minted with
//!   [`MetricsRegistry::handle_for`] binds to one shard (workers use their
//!   worker index), so concurrent increments from different workers never
//!   contend on one cache line. Reads sum the shards.
//! * **Log-bucketed histograms.** HDR-style: values below
//!   2^[`HIST_SUB_BITS`] get exact buckets, larger values share
//!   2^`HIST_SUB_BITS` sub-buckets per power of two, bounding the relative
//!   quantile error at `1/2^HIST_SUB_BITS` (~3%), which the property
//!   tests pin down. Bucket arrays are plain atomics.
//! * **No-op mode.** A registry built with [`MetricsRegistry::disabled`]
//!   hands out instruments whose inner `Option` is `None`: every `add` /
//!   `record` is a single branch, and scoped timers skip the
//!   `Instant::now()` call entirely. The repository benchmark's
//!   `metrics.overhead_pct` is the enabled-vs-disabled wall time.
//!
//! Instrument creation (name lookup in a `Mutex<BTreeMap>`) is the cold
//! path: actors grab their instruments once at startup and keep them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of atomic cells per counter/gauge. Power of two; handles bind
/// to `shard & (SHARDS - 1)`.
pub const SHARDS: usize = 16;

/// Sub-bucket resolution bits of the histograms: 2^5 = 32 sub-buckets per
/// power of two, bounding relative bucket error at 1/32 (~3.1%).
pub const HIST_SUB_BITS: u32 = 5;

const HIST_SUB_COUNT: usize = 1 << HIST_SUB_BITS;

/// Total histogram buckets: exact buckets `0..32`, then 32 sub-buckets for
/// each exponent `5..=63`.
pub const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize) * HIST_SUB_COUNT;

/// One atomic cell on its own cache line, so sharded increments from
/// different workers never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

#[repr(align(64))]
#[derive(Default)]
struct PaddedI64(AtomicI64);

#[derive(Default)]
struct CounterCells {
    shards: [PaddedU64; SHARDS],
}

impl CounterCells {
    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

#[derive(Default)]
struct GaugeCells {
    shards: [PaddedI64; SHARDS],
}

impl GaugeCells {
    fn sum(&self) -> i64 {
        self.shards
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

struct HistCells {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Exact observed extrema (`u64::MAX` min sentinel while empty).
    min: AtomicU64,
    max: AtomicU64,
}

impl HistCells {
    fn new() -> Self {
        Self {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// Bucket index of `value`: exact below `2^HIST_SUB_BITS`, log-bucketed
/// with `HIST_SUB_COUNT` sub-buckets per power of two above.
fn bucket_index(value: u64) -> usize {
    if value < HIST_SUB_COUNT as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let mantissa = (value >> (exp - HIST_SUB_BITS)) as usize & (HIST_SUB_COUNT - 1);
    ((exp - HIST_SUB_BITS + 1) as usize) * HIST_SUB_COUNT + mantissa
}

/// Inclusive upper bound of bucket `index` (the value a quantile read
/// reports for ranks landing in that bucket).
fn bucket_upper(index: usize) -> u64 {
    if index < HIST_SUB_COUNT {
        return index as u64;
    }
    let exp = (index / HIST_SUB_COUNT) as u32 + HIST_SUB_BITS - 1;
    let mantissa = (index % HIST_SUB_COUNT) as u64;
    let base = 1u64 << exp;
    let width = 1u64 << (exp - HIST_SUB_BITS);
    base + (mantissa + 1) * width - 1
}

struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<CounterCells>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCells>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCells>>>,
    next_shard: AtomicUsize,
}

/// The registry: a named set of counters, gauges and histograms shared by
/// every layer of one run. Cloning is cheap (one `Arc`); a disabled
/// registry hands out no-op instruments.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl MetricsRegistry {
    /// A live registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                next_shard: AtomicUsize::new(0),
            })),
        }
    }

    /// A registry whose instruments are all single-branch no-ops.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether instruments from this registry record anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle bound to the next shard in round-robin order.
    #[must_use]
    pub fn handle(&self) -> MetricsHandle {
        let shard = match &self.inner {
            Some(inner) => inner.next_shard.fetch_add(1, Ordering::Relaxed),
            None => 0,
        };
        self.handle_for(shard)
    }

    /// A handle bound to shard `shard % SHARDS` (workers pass their worker
    /// index so each worker owns a distinct cache line).
    #[must_use]
    pub fn handle_for(&self, shard: usize) -> MetricsHandle {
        MetricsHandle {
            inner: self.inner.clone(),
            shard: shard & (SHARDS - 1),
        }
    }

    /// A point-in-time copy of every instrument.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(inner) = &self.inner else {
            return snap;
        };
        for (name, cells) in inner.counters.lock().expect("metrics lock").iter() {
            snap.counters.insert(name.clone(), cells.sum());
        }
        for (name, cells) in inner.gauges.lock().expect("metrics lock").iter() {
            snap.gauges.insert(name.clone(), cells.sum());
        }
        for (name, cells) in inner.histograms.lock().expect("metrics lock").iter() {
            snap.histograms
                .insert(name.clone(), HistogramSnapshot::collect(cells));
        }
        snap
    }
}

/// A cheap, cloneable capability to mint instruments, bound to one shard.
///
/// Actors and workers grab one handle (and their instruments) once at
/// startup; the instruments themselves are then pure atomic ops.
#[derive(Clone, Default)]
pub struct MetricsHandle {
    inner: Option<Arc<RegistryInner>>,
    shard: usize,
}

impl std::fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHandle")
            .field("enabled", &self.inner.is_some())
            .field("shard", &self.shard)
            .finish()
    }
}

impl MetricsHandle {
    /// A handle that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether instruments minted from this handle record anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The counter named `name` (created on first request), bound to this
    /// handle's shard.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let cells = self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .counters
                    .lock()
                    .expect("metrics lock")
                    .entry(name.to_string())
                    .or_default(),
            )
        });
        Counter {
            cells,
            shard: self.shard,
        }
    }

    /// The gauge named `name` (created on first request), bound to this
    /// handle's shard.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let cells = self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .gauges
                    .lock()
                    .expect("metrics lock")
                    .entry(name.to_string())
                    .or_default(),
            )
        });
        Gauge {
            cells,
            shard: self.shard,
        }
    }

    /// The histogram named `name` (created on first request). Histograms
    /// are not sharded: bucket cells already spread contention.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let cells = self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .histograms
                    .lock()
                    .expect("metrics lock")
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistCells::new())),
            )
        });
        Histogram { cells }
    }
}

/// A monotonically increasing sharded counter.
#[derive(Clone, Default)]
pub struct Counter {
    cells: Option<Arc<CounterCells>>,
    shard: usize,
}

impl Counter {
    /// Adds `n` to this handle's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cells) = &self.cells {
            cells.shards[self.shard].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sum over all shards.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cells.as_ref().map_or(0, |c| c.sum())
    }

    /// Whether adds land anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }
}

/// A sharded signed gauge. Writers apply *deltas* (so several writers on
/// one shard stay exact); the read side sums all shards.
#[derive(Clone, Default)]
pub struct Gauge {
    cells: Option<Arc<GaugeCells>>,
    shard: usize,
}

impl Gauge {
    /// Adds a signed delta to this handle's shard.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cells) = &self.cells {
            cells.shards[self.shard]
                .0
                .fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sum over all shards.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.cells.as_ref().map_or(0, |c| c.sum())
    }
}

/// A log-bucketed histogram of `u64` samples (typically nanoseconds,
/// batch sizes or queue depths).
#[derive(Clone, Default)]
pub struct Histogram {
    cells: Option<Arc<HistCells>>,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cells) = &self.cells {
            cells.record(value);
        }
    }

    /// Starts a scoped timer that records elapsed nanoseconds into this
    /// histogram when dropped. Disabled histograms skip the clock read.
    pub fn start_timer(&self) -> ScopedTimer {
        ScopedTimer {
            target: self.cells.as_ref().map(|c| (Arc::clone(c), Instant::now())),
        }
    }

    /// Whether samples land anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }

    /// A point-in-time copy of the distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cells
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |c| {
                HistogramSnapshot::collect(c)
            })
    }
}

/// Records elapsed wall nanoseconds into a histogram on drop.
///
/// `target` is `None` when the histogram is disabled, so no-op timers
/// never touch the clock.
#[must_use = "a scoped timer records when dropped"]
pub struct ScopedTimer {
    target: Option<(Arc<HistCells>, Instant)>,
}

impl ScopedTimer {
    /// Stops the timer and records now (equivalent to dropping it).
    pub fn stop(self) {}
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some((cells, start)) = self.target.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            cells.record(nanos);
        }
    }
}

/// A point-in-time copy of one histogram, with quantile reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (exact).
    pub sum: u64,
    /// Smallest sample (exact; 0 when empty).
    pub min: u64,
    /// Largest sample (exact; 0 when empty).
    pub max: u64,
    buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    fn collect(cells: &HistCells) -> Self {
        let buckets: Vec<u64> = cells
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = cells.count.load(Ordering::Relaxed);
        let min = cells.min.load(Ordering::Relaxed);
        Self {
            count,
            sum: cells.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: cells.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at percentile `p` (0..=100): the upper bound of the
    /// bucket holding the rank, clamped to the exact observed extrema.
    /// Within `1/2^HIST_SUB_BITS` relative error of the true quantile.
    /// Out-of-range `p` is clamped to `[0, 100]`; NaN reads as 0.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(index).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A point-in-time copy of every instrument in a registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter sums by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge sums by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Percentile summary of one histogram, as surfaced in `JoinReport`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramStats {
    /// Instrument name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Mean sample value.
    pub mean: f64,
    /// 50th percentile (within bucket error).
    pub p50: u64,
    /// 90th percentile (within bucket error).
    pub p90: u64,
    /// 99th percentile (within bucket error).
    pub p99: u64,
    /// Exact largest sample.
    pub max: u64,
}

/// The `metrics` section of a join report: every counter, gauge and
/// histogram percentile summary the run recorded. Empty when the registry
/// was disabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Counter sums, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge sums, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram percentile summaries, sorted by name.
    pub histograms: Vec<HistogramStats>,
}

impl MetricsReport {
    /// Summarizes a registry snapshot (histograms with no samples are
    /// dropped).
    #[must_use]
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Self {
        Self {
            counters: snapshot
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: snapshot
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: snapshot
                .histograms
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(name, h)| HistogramStats {
                    name: name.clone(),
                    count: h.count,
                    mean: h.mean(),
                    p50: h.percentile(50.0),
                    p90: h.percentile(90.0),
                    p99: h.percentile(99.0),
                    max: h.max,
                })
                .collect(),
        }
    }

    /// Whether the run recorded no instruments at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Well-known instrument names shared by the instrumented layers, the
/// sampling monitor and the report renderers.
pub mod names {
    /// Counter: nanoseconds workers spent inside actor handlers.
    pub const EXEC_BUSY_NS: &str = "exec.busy_ns";
    /// Counter: nanoseconds workers spent parked waiting for work.
    pub const EXEC_PARK_NS: &str = "exec.park_ns";
    /// Counter: times a worker parked.
    pub const EXEC_PARKS: &str = "exec.parks";
    /// Counter: steal attempts (a scan over victims counts once).
    pub const EXEC_STEAL_ATTEMPTS: &str = "exec.steal_attempts";
    /// Histogram: mailbox depth observed after each delivery.
    pub const EXEC_MAILBOX_DEPTH: &str = "exec.mailbox_depth";
    /// Histogram: coalesced send-buffer sizes at flush.
    pub const EXEC_COALESCE_BATCH: &str = "exec.coalesce_batch";
    /// Histogram: per-batch build handler latency (ns).
    pub const NODE_BUILD_NS: &str = "node.build_batch_ns";
    /// Histogram: per-batch probe handler latency (ns).
    pub const NODE_PROBE_NS: &str = "node.probe_batch_ns";
    /// Histogram: tuples per build/probe batch.
    pub const NODE_BATCH_TUPLES: &str = "node.batch_tuples";
    /// Counter: build chunks a node owned whole and appended in one copy.
    pub const NODE_BUILD_WHOLE_CHUNKS: &str = "node.build_whole_chunks";
    /// Gauge: tuples resident in build arenas across all nodes.
    pub const NODE_ARENA_TUPLES: &str = "node.arena_tuples";
    /// Histogram: hash-chain length per occupied table position.
    pub const TABLE_CHAIN_LEN: &str = "table.chain_len";
    /// Counter: probe tuples through the filtered batch kernel (the
    /// tag-rejection-rate denominator).
    pub const NODE_FILTER_PROBES: &str = "node.probe_filter_probes";
    /// Counter: probes whose run scan a fingerprint-tag rejection skipped
    /// (the tag-rejection-rate numerator).
    pub const NODE_FILTER_REJECTIONS: &str = "node.probe_filter_rejections";
    /// Counter: probe tuples answered from a replicated hot position
    /// (DESIGN §4i).
    pub const NODE_HOTKEY_HITS: &str = "node.hotkey_hits";
    /// Gauge: monitored entries in the scheduler's merged heavy-hitter
    /// sketch.
    pub const SCHED_SKETCH_TOPK: &str = "sched.sketch_topk_size";
    /// Histogram: replication fan-out (clean members receiving copies) per
    /// hot-key hand-off.
    pub const SCHED_HOTKEY_FANOUT: &str = "sched.hotkey_fanout";
    /// Counter: deficit-weighted round-robin group picks by workers.
    pub const SCHED_PICKS: &str = "sched.picks";
    /// Counter: actor runs cut short at a message boundary because the
    /// group overran its deficit while another group had runnable work.
    pub const SCHED_PREEMPTIONS: &str = "sched.preemptions";
    /// Histogram: the picked group's remaining deficit at pick time
    /// (clamped at zero).
    pub const SCHED_GROUP_DEFICIT: &str = "sched.group_deficit";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_sum() {
        let reg = MetricsRegistry::new();
        for shard in 0..4 {
            let c = reg.handle_for(shard).counter("c");
            c.add(10);
            c.add(1);
        }
        assert_eq!(reg.handle().counter("c").value(), 44);
        assert_eq!(reg.snapshot().counters["c"], 44);
    }

    #[test]
    fn gauge_deltas_sum_across_shards() {
        let reg = MetricsRegistry::new();
        let a = reg.handle_for(0).gauge("g");
        let b = reg.handle_for(1).gauge("g");
        a.add(10);
        b.add(-3);
        assert_eq!(a.value(), 7);
        assert_eq!(reg.snapshot().gauges["g"], 7);
    }

    #[test]
    fn disabled_instruments_are_noops() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let h = reg.handle();
        let c = h.counter("c");
        c.add(5);
        assert_eq!(c.value(), 0);
        let hist = h.histogram("h");
        hist.record(5);
        drop(hist.start_timer());
        assert!(hist.snapshot().is_empty());
        assert!(reg.snapshot().counters.is_empty());
    }

    #[test]
    fn bucket_index_round_trips_within_error() {
        for value in [0u64, 1, 31, 32, 33, 100, 1000, 12_345, u64::MAX / 3] {
            let index = bucket_index(value);
            let upper = bucket_upper(index);
            assert!(upper >= value, "upper({index}) = {upper} < {value}");
            // Upper bound overshoots by at most one sub-bucket width.
            assert!(upper as f64 <= value as f64 * (1.0 + 1.0 / 16.0) + 1.0);
        }
    }

    #[test]
    fn histogram_percentiles_match_exact_small_values() {
        let reg = MetricsRegistry::new();
        let h = reg.handle().histogram("h");
        for v in 1..=20u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 20);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 20);
        // Values < 32 land in exact buckets.
        assert_eq!(snap.percentile(50.0), 10);
        assert_eq!(snap.percentile(100.0), 20);
    }

    #[test]
    fn percentile_clamps_nan_and_out_of_range_p() {
        let reg = MetricsRegistry::new();
        let h = reg.handle().histogram("h");
        for v in 1..=10u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        // NaN must not silently become rank 1 of a garbage walk; it reads
        // as p=0 (the minimum).
        assert_eq!(snap.percentile(f64::NAN), snap.min);
        assert_eq!(snap.percentile(-5.0), snap.percentile(0.0));
        assert_eq!(snap.percentile(250.0), snap.max);
        assert_eq!(snap.percentile(f64::INFINITY), snap.max);
        assert_eq!(snap.percentile(f64::NEG_INFINITY), snap.min);
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let reg = MetricsRegistry::new();
        let h = reg.handle().histogram("t");
        {
            let _timer = h.start_timer();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
    }
}
