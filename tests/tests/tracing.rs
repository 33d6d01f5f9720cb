//! Structured event tracing: JSONL output validity, per-algorithm event
//! coverage, per-node timestamp monotonicity, and diagnostic error tails.

use ehj_core::{Algorithm, JoinConfig, JoinError, JoinReport, JoinRunner, RunOptions};
use ehj_metrics::{TraceEvent, TraceLevel};
use ehj_sim::SimTime;
use std::collections::BTreeMap;

/// A workload small enough for tests but guaranteed to overflow the first
/// node's hash memory, so every expanding algorithm actually expands.
fn base(alg: Algorithm) -> JoinConfig {
    let mut cfg = JoinConfig::paper_scaled(alg, 1000);
    let domain = 1 << 14;
    cfg.r = cfg.r.with_domain(domain);
    cfg.s = cfg.s.with_domain(domain);
    cfg.positions = (domain / 4) as u32;
    cfg
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
        Some(ehj_metrics::ClockKind::Virtual),
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
        JoinError::Stalled { trace } => {
            assert!(
                !trace.is_empty(),
                "default tracing must leave a diagnostic tail"
            );
        }
        other => panic!("expected a stall, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("stalled"), "got: {msg}");
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
