//! The threaded runtime must execute the same protocol with the same
//! results (matches are deterministic data properties; timing is not).

use ehj_core::{expected_matches_for, Algorithm, Backend, JoinConfig, JoinRunner, RunOptions};

fn small(alg: Algorithm) -> JoinConfig {
    let mut cfg = JoinConfig::paper_scaled(alg, 2000);
    let domain = 1 << 12;
    cfg.r = cfg.r.with_domain(domain);
    cfg.s = cfg.s.with_domain(domain);
    cfg.positions = (domain / 4) as u32;
    cfg
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
        }
    }
}

#[test]
fn threaded_and_simulated_agree_on_data_outcomes() {
    let cfg = small(Algorithm::Hybrid);
    let sim = JoinRunner::run_on(&cfg, Backend::Simulated).expect("simulated");
    let thr = JoinRunner::run_on(&cfg, Backend::Threaded).expect("threaded");
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
    let report = JoinRunner::run_on(&cfg, Backend::Threaded).expect("threaded ooc");
    assert_eq!(report.matches, expect);
    assert!(
        report.spilled_nodes > 0,
        "must actually spill to temp files"
    );
}
