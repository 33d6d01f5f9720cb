//! External-API tests for `ehj-metrics`: communication accounting,
//! phase timing, load balance and the trace-event wire format, exercised
//! exactly as downstream crates use them.

use ehj_metrics::{
    trace_rollup_table, CommCategory, CommCounters, ExecutorStats, LoadStats, Phase, PhaseTimes,
    StopCause, TraceEvent, TraceKind, TraceLevel, TraceRollup,
};

#[test]
fn comm_counters_accumulate_per_cell() {
    let mut c = CommCounters::new(10_000);
    c.record(
        Phase::Build,
        CommCategory::SourceDelivery,
        10_000,
        1_160_000,
    );
    c.record(Phase::Build, CommCategory::SplitTransfer, 4_000, 464_000);
    c.record(Phase::Build, CommCategory::SplitTransfer, 4_000, 464_000);
    let cell = c.cell(Phase::Build, CommCategory::SplitTransfer);
    assert_eq!(cell.messages, 2);
    assert_eq!(cell.tuples, 8_000);
    assert_eq!(cell.bytes, 928_000);
    // Source delivery is baseline traffic, never "extra".
    assert_eq!(c.extra_tuples(Phase::Build), 8_000);
    assert_eq!(c.extra_chunks(Phase::Build), 1);
    assert_eq!(c.total_bytes(), 1_160_000 + 928_000);
}

#[test]
fn comm_counters_merge_is_cellwise_addition() {
    let mut total = CommCounters::new(100);
    let mut node = CommCounters::new(100);
    node.record(Phase::Reshuffle, CommCategory::ReshuffleTransfer, 150, 1500);
    node.record(Phase::Probe, CommCategory::ProbeBroadcastExtra, 30, 300);
    total.merge(&node);
    total.merge(&node);
    assert_eq!(
        total
            .cell(Phase::Reshuffle, CommCategory::ReshuffleTransfer)
            .tuples,
        300
    );
    assert_eq!(total.extra_tuples(Phase::Probe), 60);
    assert_eq!(total.extra_chunks(Phase::Reshuffle), 3);
    assert_eq!(total.extra_chunks(Phase::Probe), 1); // ceil(60 / 100)
}

#[test]
fn merge_with_default_is_identity() {
    let mut c = CommCounters::new(10);
    c.record(Phase::Build, CommCategory::ReplicaForward, 5, 50);
    let before = c.clone();
    c.merge(&CommCounters::default());
    assert_eq!(c, before);
}

#[test]
fn phase_times_cover_the_total() {
    let t = PhaseTimes {
        build_secs: 10.0,
        reshuffle_secs: 2.5,
        probe_secs: 7.5,
        total_secs: 21.0,
    };
    let phase_sum = t.build_secs + t.reshuffle_secs + t.probe_secs;
    assert!((phase_sum - 20.0).abs() < 1e-12);
    // Barrier time between phases makes the total exceed the phase sum.
    assert!(t.total_secs >= phase_sum);
}

#[test]
fn load_stats_imbalance_is_max_over_avg() {
    let s = LoadStats::from_counts(&[100, 100, 100, 500]);
    assert_eq!(s.min, 100);
    assert_eq!(s.max, 500);
    assert_eq!(s.nodes, 4);
    assert!((s.avg - 200.0).abs() < 1e-12);
    assert!((s.imbalance() - 2.5).abs() < 1e-12);
    // Degenerate distributions report perfect balance, not NaN.
    assert_eq!(LoadStats::from_counts(&[]).imbalance(), 1.0);
    assert_eq!(LoadStats::from_counts(&[0, 0, 0]).imbalance(), 1.0);
}

#[test]
fn load_stats_chunk_conversion_rounds_conservatively() {
    let s = LoadStats::from_counts(&[9_999, 20_001]).in_chunks(10_000);
    assert_eq!(s.min, 0); // rounds down: guaranteed-full chunks
    assert_eq!(s.max, 3); // rounds up: worst case
}

#[test]
fn trace_events_round_trip_through_json_lines() {
    let events = [
        TraceEvent {
            at_nanos: 0,
            node: 1,
            phase: Phase::Build,
            kind: TraceKind::BucketOverflow { pending: 42 },
        },
        TraceEvent {
            at_nanos: 1_500_000,
            node: 0,
            phase: Phase::Build,
            kind: TraceKind::SplitIssued {
                bucket: 7,
                from: 1,
                to: 5,
            },
        },
        TraceEvent {
            at_nanos: 2_000_000,
            node: 3,
            phase: Phase::Reshuffle,
            kind: TraceKind::ReshuffleChunk { to: 2, tuples: 512 },
        },
        TraceEvent {
            at_nanos: 3_000_000,
            node: 2,
            phase: Phase::Probe,
            kind: TraceKind::MetricsSample {
                seq: 9,
                values: Box::new(std::array::from_fn(|i| 93_750 + i as u64)),
            },
        },
        TraceEvent {
            at_nanos: u64::MAX,
            node: u32::MAX,
            phase: Phase::Probe,
            kind: TraceKind::EngineStop {
                reason: StopCause::Completed,
            },
        },
    ];
    for ev in events {
        let line = ev.to_json_line();
        let back = TraceEvent::from_json_line(&line)
            .unwrap_or_else(|| panic!("round trip failed for {line}"));
        assert_eq!(back, ev, "through {line}");
    }
}

#[test]
fn trace_parser_rejects_non_events() {
    for bad in [
        "",
        "not json",
        "{}",
        r#"{"t_ns":1,"node":0,"phase":"build","kind":"warp_drive"}"#,
        r#"{"t_ns":1,"node":0,"phase":"launch","kind":"spill","bytes":1,"fragments":1}"#,
    ] {
        assert!(TraceEvent::from_json_line(bad).is_none(), "accepted: {bad}");
    }
}

#[test]
fn trace_levels_order_off_summary_detail() {
    assert!(TraceLevel::Off < TraceLevel::Summary);
    assert!(TraceLevel::Summary < TraceLevel::Detail);
    assert_eq!(TraceLevel::parse("detail"), Some(TraceLevel::Detail));
    assert_eq!(TraceLevel::parse("loud"), None);
}

#[test]
fn rollup_counts_merge_and_render() {
    let ev = |node, kind| TraceEvent {
        at_nanos: 1,
        node,
        phase: Phase::Build,
        kind,
    };
    let mut a = TraceRollup::default();
    a.note(&ev(0, TraceKind::NodeFull));
    a.note(&ev(0, TraceKind::Recruited { node: 4 }));
    a.note(&ev(1, TraceKind::NodeFull));
    assert_eq!(a.total, 3);
    assert_eq!(a.kind_count("node_full"), 2);
    assert_eq!(a.kind_count("recruited"), 1);
    assert_eq!(a.kind_count("spill"), 0);
    let table = trace_rollup_table(&a).render();
    assert!(table.contains("node_full"));
    assert!(table.contains("total"));
}

#[test]
fn rollup_table_shows_executor_rows_without_timers() {
    let mut r = TraceRollup::default();
    r.note(&TraceEvent {
        at_nanos: 1,
        node: 0,
        phase: Phase::Probe,
        kind: TraceKind::ExecutorStats(Box::new(ExecutorStats {
            workers: 2,
            steals: 5,
            parks: 1,
            overflows: 0,
            max_mailbox_depth: 64,
            timer_fires: 0,
            misrouted: 0,
        })),
    });
    let table = trace_rollup_table(&r).render();
    assert!(table.contains("(executor) workers/steals/parks"));
    assert!(table.contains("2/5/1"));
    assert!(table.contains("(executor) maxdepth"));
    assert!(table.contains("64"));
    assert!(!table.contains("overflow"), "{table}");
    assert!(!table.contains("timer"), "{table}");
}

// ---------------------------------------------------------------------------
// Registry property tests: the histogram percentile bound, counter
// linearizability under concurrent shard writers, empty-distribution edges.
// ---------------------------------------------------------------------------

/// Deterministic 64-bit LCG (no external crates): good enough to spray
/// samples across many orders of magnitude.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    /// A sample spanning ~`2^(next % 40)` magnitudes (histograms see
    /// nanoseconds next to batch sizes; exercise the whole bucket range).
    fn sample(&mut self) -> u64 {
        let magnitude = self.next() % 40;
        self.next() & ((1 << magnitude) - 1).max(1)
    }
}

/// True quantile at the same rank `HistogramSnapshot::percentile` reads.
fn exact_quantile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

#[test]
fn percentiles_stay_within_one_sub_bucket() {
    let mut rng = Lcg(0x5eed_cafe);
    for round in 0..8 {
        let reg = ehj_metrics::MetricsRegistry::new();
        let h = reg.handle_for(round).histogram("h");
        let mut all: Vec<u64> = (0..(500 + round * 137)).map(|_| rng.sample()).collect();
        for &v in &all {
            h.record(v);
        }
        all.sort_unstable();
        let snap = h.snapshot();
        // Every percentile is within one sub-bucket (1/32 relative) of the
        // true quantile, and never below it.
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let est = snap.percentile(p);
            let truth = exact_quantile(&all, p);
            assert!(
                est >= truth,
                "round {round} p{p}: estimate {est} below true {truth}"
            );
            assert!(
                est <= truth + truth / 32 + 1,
                "round {round} p{p}: estimate {est} beyond bucket error of {truth}"
            );
        }
        assert_eq!(snap.percentile(100.0), *all.last().expect("non-empty"));
        assert_eq!(snap.min, all[0]);
    }
}

#[test]
fn counters_sum_exactly_under_concurrent_increments() {
    use std::sync::Arc;
    const THREADS: usize = 8;
    const OPS: u64 = 20_000;
    let reg = Arc::new(ehj_metrics::MetricsRegistry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let h = reg.handle_for(t);
                let counter = h.counter("ops");
                let gauge = h.gauge("level");
                for i in 0..OPS {
                    counter.add(1 + (i % 3));
                    gauge.add(if i % 2 == 0 { 5 } else { -3 });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread");
    }
    let per_thread: u64 = (0..OPS).map(|i| 1 + (i % 3)).sum();
    let snap = reg.snapshot();
    assert_eq!(
        snap.counters.get("ops").copied(),
        Some(per_thread * THREADS as u64),
        "no increment may be lost or double-counted"
    );
    assert_eq!(
        snap.gauges.get("level").copied(),
        Some(THREADS as i64 * (OPS as i64 / 2) * (5 - 3)),
    );
}

#[test]
fn empty_histogram_edge_cases() {
    let reg = ehj_metrics::MetricsRegistry::new();
    let h = reg.handle().histogram("never_recorded");
    let empty = h.snapshot();
    assert!(empty.is_empty());
    assert_eq!(empty.mean(), 0.0);
    assert_eq!(empty.min, 0);
    assert_eq!(empty.max, 0);
    for p in [0.0, 50.0, 100.0] {
        assert_eq!(empty.percentile(p), 0, "empty percentile is 0");
    }
}
