//! Service-level suite: concurrent queries on one worker pool must behave
//! like the same queries run alone.
//!
//! It checks that each query's report is its own, and stress-tests
//! staggered admissions — mixed algorithms sharing one pool, one query
//! cancelled mid-stream — checking every surviving query's match count
//! against the data-derived reference.

use ehj_core::{
    expected_matches_for, Algorithm, JoinConfig, JoinError, JoinService, QueryId, ServiceConfig,
};
use ehj_data::Distribution;
use ehj_integration_tests::narrow;
use ehj_metrics::registry::names;
use std::time::Duration;

fn small(alg: Algorithm) -> JoinConfig {
    narrow(alg, 2000, 1 << 12)
}

/// Two queries admitted together onto one pool each keep a report of their
/// own: the per-query registry counts only the query's own probes, and its
/// trace names only the query's own actors — ids are the query's own, on
/// both backends, numbered from 0 in every pool group.
#[test]
fn one_shared_pool_keeps_each_querys_report_to_itself() {
    let service = JoinService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let cfgs = [small(Algorithm::Split), small(Algorithm::Hybrid)];
    let handles: Vec<_> = cfgs
        .iter()
        .map(|cfg| service.submit(cfg).expect("admitted"))
        .collect();
    for (cfg, handle) in cfgs.iter().zip(handles) {
        let label = cfg.algorithm.label();
        let report = service.wait(handle).expect("query completes");
        assert_eq!(report.matches, expected_matches_for(cfg), "{label}");
        assert_eq!(report.spilled_nodes, 0, "{label}");
        assert_ne!(report.probe_tuples, 0, "{label}");
        let probes = report
            .metrics
            .counters
            .iter()
            .find(|(name, _)| name == names::NODE_FILTER_PROBES)
            .map(|&(_, n)| n);
        assert_eq!(
            probes,
            Some(report.probe_tuples),
            "{label}: own probes only"
        );
        let actors = (1 + cfg.sources + cfg.cluster.len()) as u32;
        for node in report.trace.by_node.keys() {
            assert!(*node < actors, "{label}: trace actor {node} of {actors}");
        }
        for ev in &report.timeline {
            assert_eq!(ev.node, 0, "{label}: timeline event {ev:?}");
        }
    }
    service.shutdown();
}

/// Staggered concurrent admissions on the threaded service: mixed
/// algorithms share one pool, every query's matches equal the reference,
/// and per-query reports stay disjoint (each query's own latency/traffic).
#[test]
fn threaded_service_runs_staggered_concurrent_queries() {
    let service = JoinService::start(ServiceConfig {
        workers: 4,
        query_deadline: Duration::from_secs(60),
        ..ServiceConfig::default()
    });
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let alg = Algorithm::ALL[i as usize % Algorithm::ALL.len()];
        let cfg = small(alg);
        let handle = service.submit(&cfg).expect("admitted");
        assert_eq!(handle.id, QueryId(i));
        handles.push((cfg, handle));
        // Stagger: later queries join while earlier ones are mid-flight.
        std::thread::sleep(Duration::from_millis(2));
    }
    for (cfg, handle) in handles {
        let report = service.wait(handle).expect("query completes");
        assert_eq!(
            report.matches,
            expected_matches_for(&cfg),
            "{} under concurrent load",
            cfg.algorithm.label()
        );
        assert!(report.times.total_secs > 0.0);
    }
    service.shutdown();
}

/// One cancelled query must quiesce without poisoning its neighbours: the
/// other admitted queries still complete with exact match counts.
#[test]
fn cancelling_one_query_does_not_starve_the_rest() {
    let service = JoinService::start(ServiceConfig {
        workers: 4,
        query_deadline: Duration::from_secs(60),
        ..ServiceConfig::default()
    });
    // The victim is deliberately larger so it is still running when the
    // cancel lands.
    let mut victim_cfg = small(Algorithm::Hybrid);
    victim_cfg.r.tuples *= 8;
    victim_cfg.s.tuples *= 8;
    let victim = service.submit(&victim_cfg).expect("victim admitted");
    let survivors: Vec<_> = [
        Algorithm::Split,
        Algorithm::Replicated,
        Algorithm::OutOfCore,
    ]
    .into_iter()
    .map(|alg| {
        let cfg = small(alg);
        let handle = service.submit(&cfg).expect("admitted");
        (cfg, handle)
    })
    .collect();
    service.cancel(&victim);
    match service.wait(victim) {
        // Usually the cancel lands mid-flight…
        Err(JoinError::Cancelled { .. }) => {}
        // …but a fast machine may finish the victim first; both are legal.
        Ok(report) => assert_eq!(report.matches, expected_matches_for(&victim_cfg)),
        Err(other) => panic!("unexpected victim outcome: {other}"),
    }
    for (cfg, handle) in survivors {
        let report = service.wait(handle).expect("survivor completes");
        assert_eq!(
            report.matches,
            expected_matches_for(&cfg),
            "{} next to a cancelled tenant",
            cfg.algorithm.label()
        );
    }
    service.shutdown();
}

/// The quota ledger serialises queries whose combined demand exceeds the
/// budget: the second query blocks in admission until the first releases.
#[test]
fn quota_serialises_oversubscribed_admissions() {
    let cfg = small(Algorithm::Split);
    let demand = cfg.cluster.total_hash_memory_bytes();
    let service = JoinService::start(ServiceConfig {
        workers: 2,
        // Room for one query at a time.
        memory_budget_bytes: Some(demand + demand / 2),
        admission_patience: Duration::from_secs(30),
        query_deadline: Duration::from_secs(60),
        ..ServiceConfig::default()
    });
    let first = service.submit(&cfg).expect("first admitted");
    // Second submission must block until the first finishes and its grant
    // drops — run it on a helper thread while we drain the first.
    let waiter = std::thread::scope(|s| {
        let h = s.spawn(|| {
            let handle = service.submit(&cfg).expect("second admitted after release");
            service.wait(handle).expect("second completes")
        });
        let r1 = service.wait(first).expect("first completes");
        assert_eq!(r1.matches, expected_matches_for(&cfg));
        h.join().expect("no panic")
    });
    assert_eq!(waiter.matches, expected_matches_for(&cfg));
    service.shutdown();
}

/// One oversized tenant — zipf-skewed keys, 8x the tuples, 8x the declared
/// hash memory — next to eight normal ones, on a ledger with room for the
/// big one plus four normals: the ledger has to arbitrate (later normals
/// wait in `submit` for earlier grants to drop) without refusing or
/// starving anyone, and every tenant still computes its own join.
#[test]
fn oversized_tenant_shares_the_ledger_without_starving_the_rest() {
    let normal =
        |i: usize| JoinConfig::paper_scaled(Algorithm::ALL[i % Algorithm::ALL.len()], 5000);
    let mut big_cfg = JoinConfig::paper_scaled(Algorithm::Hybrid, 5000);
    big_cfg.r.dist = Distribution::Zipf { theta: 0.8 };
    big_cfg.s.dist = big_cfg.r.dist;
    big_cfg.r.tuples *= 8;
    big_cfg.s.tuples *= 8;
    for node in &mut big_cfg.cluster.nodes {
        node.hash_memory_bytes *= 8;
    }
    let service = JoinService::start(ServiceConfig {
        workers: 2,
        memory_budget_bytes: Some(
            big_cfg.cluster.total_hash_memory_bytes()
                + 4 * normal(0).cluster.total_hash_memory_bytes(),
        ),
        admission_patience: Duration::from_secs(60),
        query_deadline: Duration::from_secs(60),
        ..ServiceConfig::default()
    });
    let big = service.submit(&big_cfg).expect("big tenant admitted");
    let normals: Vec<_> = (0..8)
        .map(|i| {
            let cfg = normal(i);
            let handle = service.submit(&cfg).expect("normal tenant admitted");
            (cfg, handle)
        })
        .collect();
    for (cfg, handle) in normals {
        let report = service.wait(handle).expect("normal tenant completes");
        assert_eq!(
            report.matches,
            expected_matches_for(&cfg),
            "{} next to the oversized tenant",
            cfg.algorithm.label()
        );
    }
    let report = service.wait(big).expect("big tenant completes");
    assert_eq!(report.matches, expected_matches_for(&big_cfg));
    service.shutdown();
}

/// The 50th query on a pool reports phase times on its own clock: the
/// phases count from the query's admission (not the pool's start), so they
/// fit inside the total `wait` stamps from the same clock.
#[test]
fn phase_times_share_the_querys_own_clock() {
    let service = JoinService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let cfg = small(Algorithm::Hybrid);
    let mut last = None;
    for _ in 0..50 {
        last = Some(service.run(&cfg).expect("query completes"));
    }
    let times = last.expect("ran 50 queries").times;
    let phases = times.build_secs + times.reshuffle_secs + times.probe_secs;
    assert!(times.build_secs > 0.0, "{times:?}");
    assert!(phases <= times.total_secs + 1e-9, "{times:?}");
    service.shutdown();
}

/// A finished query gives its memory back: resident set after 300 tiny
/// queries stays within 32 MB of what it was after 50 (before retirement
/// each finished query kept its build relation, ~0.6 MB, for the life of
/// the pool).
#[cfg(target_os = "linux")]
#[test]
fn finished_queries_give_their_memory_back() {
    fn rss_mb() -> f64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
        let line = status.lines().find(|l| l.starts_with("VmRSS:"));
        let kb = line
            .and_then(|l| l.split_whitespace().nth(1))
            .expect("VmRSS");
        kb.parse::<f64>().expect("VmRSS in kB") / 1024.0
    }
    let service = JoinService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let algs = [Algorithm::Replicated, Algorithm::Split, Algorithm::Hybrid];
    let mut after_50 = 0.0;
    for i in 0..300 {
        let cfg = small(algs[i % algs.len()]);
        let report = service.run(&cfg).expect("query completes");
        assert_eq!(report.matches, expected_matches_for(&cfg), "query {i}");
        if i + 1 == 50 {
            after_50 = rss_mb();
        }
    }
    let after_300 = rss_mb();
    assert!(
        after_300 <= after_50 + 32.0,
        "RSS grew {after_50:.1} -> {after_300:.1} MB over 250 finished queries"
    );
    let summary = service.shutdown();
    assert_eq!(summary.exec.misrouted, 0, "every send stayed in its block");
}
