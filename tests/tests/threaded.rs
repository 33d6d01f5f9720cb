//! The threaded runtime must execute the same protocol with the same
//! results (matches are deterministic data properties; timing is not).

use ehj_core::{
    expected_matches_for, Algorithm, Backend, JoinConfig, JoinError, JoinRunner, RunOptions,
};
use ehj_data::Distribution;
use ehj_integration_tests::narrow;
use ehj_metrics::{RingSink, StopCause, TraceKind};
use ehj_sim::SimTime;
use std::sync::Arc;

fn small(alg: Algorithm) -> JoinConfig {
    narrow(alg, 2000, 1 << 12)
}

#[test]
fn threaded_backend_matches_reference_for_every_algorithm() {
    for alg in Algorithm::ALL {
        let cfg = small(alg);
        let expect = expected_matches_for(&cfg);
        // One worker (no stealing), as many as this host's cores are likely
        // to be, and more workers than cores (time-sliced).
        for threads in [1, 2, 8] {
            let opts = RunOptions {
                threads: Some(threads),
                ..RunOptions::on(Backend::Threaded)
            };
            let report = JoinRunner::run_with(&cfg, &opts).expect("threaded join completes");
            assert_eq!(
                report.matches,
                expect,
                "{} on the threaded backend, {threads} workers",
                alg.label()
            );
            assert!(report.times.total_secs > 0.0, "wall clock must have moved");
            let exec = report.trace.executor.expect("executor counters");
            assert_eq!(exec.timer_fires, 0, "the protocol arms no timer");
        }
    }
}

#[test]
fn threaded_and_simulated_agree_on_data_outcomes() {
    let cfg = small(Algorithm::Hybrid);
    let sim = JoinRunner::run_with(&cfg, &RunOptions::on(Backend::Simulated)).expect("simulated");
    let thr = JoinRunner::run_with(&cfg, &RunOptions::on(Backend::Threaded)).expect("threaded");
    assert_eq!(sim.matches, thr.matches);
    assert_eq!(sim.build_tuples, thr.build_tuples);
    // Expansion counts can differ (timing-dependent recruitment), but both
    // must have stored every build tuple and joined exactly.
}

#[test]
fn threaded_out_of_core_uses_real_spill_files() {
    let mut cfg = small(Algorithm::OutOfCore);
    cfg.initial_nodes = 2;
    let expect = expected_matches_for(&cfg);
    let report =
        JoinRunner::run_with(&cfg, &RunOptions::on(Backend::Threaded)).expect("threaded ooc");
    assert_eq!(report.matches, expect);
    assert!(
        report.spilled_nodes > 0,
        "must actually spill to temp files"
    );
}

#[test]
fn a_budgeted_threaded_hot_key_run_ends_as_a_report() {
    // The configuration that used to wedge the hot-key overlay on a wall
    // clock: a replica-set member fills, is retired, and hot build tuples
    // keep landing on it. The budget only bounds a regression — a stall
    // comes back as `JoinError::Stalled` with its trace tail, not a hang.
    for alg in [Algorithm::Hybrid, Algorithm::Replicated] {
        let mut cfg = JoinConfig::paper_scaled(alg, 100);
        let zipf = Distribution::Zipf { theta: 0.9 };
        cfg.r.dist = zipf;
        cfg.s.dist = zipf;
        cfg.hot_keys = true;
        let opts = RunOptions {
            threads: Some(2),
            max_sim_time: Some(SimTime::from_secs(20)),
            ..RunOptions::on(Backend::Threaded)
        };
        let report = JoinRunner::run_with(&cfg, &opts).unwrap_or_else(|e| panic!("{alg:?}: {e}"));
        assert_eq!(report.matches, expected_matches_for(&cfg), "{alg:?}");
    }
}

#[test]
fn a_threaded_run_past_its_budget_ends_as_a_time_limit_stall() {
    // A 1 ms wall budget is far too small for paper / 100: the group is
    // cancelled at the budget, and the error names why it ended. Whether
    // the cancelled group retires within a second budget or not, the run
    // ends its trace with one stop event.
    for repeat in 0..3 {
        let stops = Arc::new(RingSink::new(1 << 12));
        let opts = RunOptions {
            threads: Some(2),
            max_sim_time: Some(SimTime::from_millis(1)),
            extra_sinks: vec![Arc::clone(&stops) as _],
            ..RunOptions::on(Backend::Threaded)
        };
        let cfg = JoinConfig::paper_scaled(Algorithm::Hybrid, 100);
        match JoinRunner::run_with(&cfg, &opts).map(|report| report.matches) {
            Err(JoinError::Stalled { cause, .. }) => assert_eq!(cause, StopCause::TimeLimit),
            other => panic!("repeat {repeat}: expected a time-limit stall, got {other:?}"),
        }
        let reasons: Vec<StopCause> = stops
            .tail()
            .into_iter()
            .filter_map(|ev| match ev.kind {
                TraceKind::EngineStop { reason } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, [StopCause::TimeLimit], "repeat {repeat}");
    }
}
