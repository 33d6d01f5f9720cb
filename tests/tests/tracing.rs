//! Structured event tracing: JSONL output validity, per-algorithm event
//! coverage, per-node timestamp monotonicity, and diagnostic error tails.

use ehj_core::{Algorithm, Backend, JoinConfig, JoinError, JoinReport, JoinRunner, RunOptions};
use ehj_integration_tests::narrow;
use ehj_metrics::{RingSink, StopCause, TraceEvent, TraceKind, TraceLevel};
use ehj_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A workload small enough for tests but guaranteed to overflow the first
/// node's hash memory, so every expanding algorithm actually expands.
fn base(alg: Algorithm) -> JoinConfig {
    narrow(alg, 1000, 1 << 14)
}

/// Runs `cfg` with detail tracing streamed to a temp JSONL file, then reads
/// the file back, re-parsing every line. Returns the report and the events.
fn run_traced(cfg: &JoinConfig, tag: &str) -> (JoinReport, Vec<TraceEvent>) {
    let path = std::env::temp_dir().join(format!("ehj-trace-{}-{tag}.jsonl", std::process::id()));
    let opts = RunOptions {
        trace_level: TraceLevel::Detail,
        trace_out: Some(path.clone()),
        ..RunOptions::default()
    };
    let report = JoinRunner::run_with(cfg, &opts).expect("traced join runs");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let mut lines = text.lines();
    // The file leads with a clock declaration; the simulated backend
    // stamps events with virtual time.
    let header = lines.next().expect("non-empty trace file");
    assert_eq!(
        ehj_metrics::ClockKind::parse_header_line(header),
        Some((ehj_metrics::TRACE_SCHEMA, ehj_metrics::ClockKind::Virtual)),
        "first line must declare the clock: {header}"
    );
    let events: Vec<TraceEvent> = lines
        .map(|line| {
            TraceEvent::from_json_line(line).unwrap_or_else(|| panic!("invalid trace line: {line}"))
        })
        .collect();
    assert!(!events.is_empty(), "a traced run must emit events");
    (report, events)
}

fn count_kind(events: &[TraceEvent], kind: &str) -> usize {
    events.iter().filter(|ev| ev.kind.name() == kind).count()
}

/// On the simulated backend global virtual time never decreases, so each
/// node's event stream must carry non-decreasing timestamps.
fn assert_per_node_monotone(events: &[TraceEvent]) {
    let mut last: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in events {
        let prev = last.entry(ev.node).or_insert(0);
        assert!(
            ev.at_nanos >= *prev,
            "node {} went backwards: {} after {}",
            ev.node,
            ev.at_nanos,
            *prev
        );
        *prev = ev.at_nanos;
    }
}

#[test]
fn split_run_emits_split_events() {
    let (report, events) = run_traced(&base(Algorithm::Split), "split");
    assert!(report.expansions > 0, "workload must force expansion");
    assert!(count_kind(&events, "bucket_overflow") >= 1);
    assert!(count_kind(&events, "split_issued") >= 1);
    assert!(count_kind(&events, "split_done") >= 1);
    assert!(count_kind(&events, "split_pointer_advance") >= 1);
    assert_per_node_monotone(&events);
}

#[test]
fn replicated_run_emits_recruitment_events() {
    let (report, events) = run_traced(&base(Algorithm::Replicated), "replicated");
    assert!(report.expansions > 0);
    assert!(count_kind(&events, "recruited") >= 1);
    assert!(count_kind(&events, "replicated") >= 1);
    assert_per_node_monotone(&events);
}

#[test]
fn hybrid_run_emits_reshuffle_events() {
    let (report, events) = run_traced(&base(Algorithm::Hybrid), "hybrid");
    assert!(report.expansions > 0);
    assert!(count_kind(&events, "reshuffle_planned") >= 1);
    assert!(count_kind(&events, "reshuffle_chunk") >= 1);
    assert_per_node_monotone(&events);
}

#[test]
fn every_run_closes_with_phase_and_stop_events() {
    let (_, events) = run_traced(&base(Algorithm::Split), "close");
    assert!(count_kind(&events, "phase_done") >= 2, "build + probe");
    assert_eq!(count_kind(&events, "engine_stop"), 1);
    assert_eq!(events.last().expect("nonempty").kind.name(), "engine_stop");
}

#[test]
fn report_rollup_matches_the_jsonl_stream() {
    let (report, events) = run_traced(&base(Algorithm::Hybrid), "rollup");
    assert_eq!(
        report.trace.total,
        events.len() as u64,
        "the rollup and the JSONL sink see the same event stream"
    );
    assert!(report.trace.kind_count("recruited") >= 1);
}

#[test]
fn tracing_off_records_nothing() {
    let opts = RunOptions {
        trace_level: TraceLevel::Off,
        ..RunOptions::default()
    };
    let report = JoinRunner::run_with(&base(Algorithm::Hybrid), &opts).expect("join runs");
    assert!(report.trace.is_empty());
    assert_eq!(report.trace.total, 0);
}

#[test]
fn default_tracing_populates_the_report_rollup() {
    // `JoinRunner::run` uses the default options (summary level, no file).
    let report = JoinRunner::run(&base(Algorithm::Split)).expect("join runs");
    assert!(report.trace.total > 0);
    assert!(report.trace.kind_count("engine_stop") == 1);
}

#[test]
fn stalled_run_carries_a_diagnostic_tail() {
    // A virtual-time budget far too small for the join to finish: the
    // engine stops at the limit and the runner reports a stall whose error
    // carries the last trace events.
    let opts = RunOptions {
        max_sim_time: Some(SimTime::from_millis(1)),
        ..RunOptions::default()
    };
    let err = JoinRunner::run_with(&base(Algorithm::Split), &opts).expect_err("must stall");
    match &err {
        JoinError::Stalled { cause, trace } => {
            assert_eq!(*cause, StopCause::TimeLimit);
            assert!(
                !trace.is_empty(),
                "default tracing must leave a diagnostic tail"
            );
        }
        other => panic!("expected a stall, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("stalled without a report (time_limit)"),
        "got: {msg}"
    );
    assert!(msg.contains("trace events"), "got: {msg}");
    assert!(!err.trace_tail().is_empty());
}

#[test]
fn stalled_run_without_tracing_says_so() {
    let opts = RunOptions {
        trace_level: TraceLevel::Off,
        max_sim_time: Some(SimTime::from_millis(1)),
        ..RunOptions::default()
    };
    let err = JoinRunner::run_with(&base(Algorithm::Split), &opts).expect_err("must stall");
    assert!(err.trace_tail().is_empty());
    assert!(err.to_string().contains("no trace recorded"));
}

#[test]
fn summary_level_is_a_subset_of_detail() {
    let cfg = base(Algorithm::Hybrid);
    let (detail_report, _) = run_traced(&cfg, "detail-super");
    let opts = RunOptions::default(); // summary level
    let summary_report = JoinRunner::run_with(&cfg, &opts).expect("join runs");
    assert!(summary_report.trace.total > 0);
    assert!(
        summary_report.trace.total < detail_report.trace.total,
        "detail adds per-chunk events on an expanding workload"
    );
}

#[test]
fn the_timeline_is_the_schedulers_milestones_at_every_level() {
    for alg in Algorithm::ALL {
        let cfg = base(alg);
        let collector = Arc::new(RingSink::new(1 << 20));
        let run = |trace_level, extra_sinks| {
            let opts = RunOptions {
                trace_level,
                extra_sinks,
                ..RunOptions::default()
            };
            JoinRunner::run_with(&cfg, &opts)
                .expect("join runs")
                .timeline
        };
        let summary = run(TraceLevel::Summary, vec![Arc::clone(&collector) as _]);
        assert!(!summary.is_empty(), "{}", alg.label());
        assert_eq!(run(TraceLevel::Off, vec![]), summary, "{}", alg.label());
        assert_eq!(run(TraceLevel::Detail, vec![]), summary, "{}", alg.label());
        // Every milestone reached the sinks too, in timeline order.
        let mut received = collector.tail().into_iter();
        for ev in &summary {
            assert!(
                received.any(|r| r == *ev),
                "{}: {ev:?} missing from the trace or out of order",
                alg.label()
            );
        }
    }
}

#[test]
fn threaded_metrics_samples_number_on_from_the_monitor() {
    // The monitor samples the registry every 5 ms while the pool runs, and
    // the runner adds one end-of-run sample: that one must continue the
    // monitor's numbering, not restart it at 0.
    let path = std::env::temp_dir().join(format!("ehj-trace-{}-seq.jsonl", std::process::id()));
    let opts = RunOptions {
        backend: Backend::Threaded,
        threads: Some(2),
        trace_out: Some(path.clone()),
        ..RunOptions::default()
    };
    JoinRunner::run_with(&JoinConfig::paper_scaled(Algorithm::Hybrid, 100), &opts)
        .expect("threaded run");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let seqs: Vec<u64> = text
        .lines()
        .skip(1)
        .map(|line| TraceEvent::from_json_line(line).expect("valid trace line"))
        .filter_map(|ev| match ev.kind {
            TraceKind::MetricsSample { seq, .. } => Some(seq),
            _ => None,
        })
        .collect();
    // A run of ~100 ms outlasts the 5 ms period many times over, so the
    // monitor has sampled before the end-of-run sample.
    assert!(seqs.len() >= 2, "monitor and end-of-run samples: {seqs:?}");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "sample seqs must strictly increase: {seqs:?}"
    );
}

#[test]
fn threaded_executor_stats_reach_the_report_and_the_jsonl_whole() {
    // The pool's one ledger type travels unchanged: the report's rollup
    // holds it, and the JSONL line carrying it parses back to the same
    // seven fields.
    let path = std::env::temp_dir().join(format!("ehj-trace-{}-exec.jsonl", std::process::id()));
    let opts = RunOptions {
        backend: Backend::Threaded,
        threads: Some(2),
        trace_level: TraceLevel::Summary,
        trace_out: Some(path.clone()),
        ..RunOptions::default()
    };
    let report = JoinRunner::run_with(&JoinConfig::paper_scaled(Algorithm::Hybrid, 1000), &opts)
        .expect("threaded run");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let s = report
        .trace
        .executor
        .expect("the pool's stats reach the report");
    assert_eq!(s.workers, 2);
    assert_eq!(s.misrouted, 0);
    assert_eq!(s.timer_fires, 0);
    let mut lines = text.lines();
    let header = lines.next().expect("non-empty trace file");
    assert_eq!(
        ehj_metrics::ClockKind::parse_header_line(header),
        Some((ehj_metrics::TRACE_SCHEMA, ehj_metrics::ClockKind::Wall)),
        "header: {header}"
    );
    let stats: Vec<TraceKind> = lines
        .map(|line| TraceEvent::from_json_line(line).expect("valid trace line"))
        .filter(|ev| matches!(ev.kind, TraceKind::ExecutorStats(_)))
        .map(|ev| ev.kind)
        .collect();
    assert_eq!(stats, vec![TraceKind::ExecutorStats(Box::new(s))]);
}
