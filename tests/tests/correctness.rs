//! End-to-end correctness: every algorithm, on every workload shape, must
//! produce exactly the reference join cardinality.

use ehj_core::{expected_matches_for, Algorithm, JoinConfig, JoinRunner};
use ehj_data::Distribution;
use ehj_integration_tests::narrow;

/// Small, fast base configuration with a domain narrow enough to produce
/// plenty of matches.
fn base(alg: Algorithm) -> JoinConfig {
    narrow(alg, 1000, 1 << 14)
}

fn assert_exact(cfg: &JoinConfig) {
    let expect = expected_matches_for(cfg);
    let report = JoinRunner::run(cfg).expect("join must complete");
    assert_eq!(
        report.matches,
        expect,
        "{} produced {} matches, reference says {expect}",
        cfg.algorithm.label(),
        report.matches
    );
    assert_eq!(
        report.build_tuples,
        cfg.build_spec().tuples,
        "{}: every build tuple must be stored exactly once",
        cfg.algorithm.label()
    );
}

#[test]
fn all_algorithms_uniform() {
    for alg in Algorithm::ALL {
        assert_exact(&base(alg));
    }
}

#[test]
fn all_algorithms_moderate_skew() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.r.dist = Distribution::gaussian_moderate();
        cfg.s.dist = Distribution::gaussian_moderate();
        assert_exact(&cfg);
    }
}

#[test]
fn all_algorithms_extreme_skew() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.r.dist = Distribution::gaussian_extreme();
        cfg.s.dist = Distribution::gaussian_extreme();
        assert_exact(&cfg);
    }
}

#[test]
fn all_algorithms_single_initial_node() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.initial_nodes = 1;
        assert_exact(&cfg);
    }
}

#[test]
fn all_algorithms_when_table_fits() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.initial_nodes = 16;
        let report = JoinRunner::run(&cfg).expect("join must complete");
        assert_eq!(report.expansions, 0, "{}: nothing to expand", alg.label());
        assert_eq!(report.matches, expected_matches_for(&cfg));
    }
}

#[test]
fn asymmetric_sizes_join_correctly() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.r.tuples = 20_000;
        cfg.s.tuples = 2_000;
        assert_exact(&cfg);

        let mut cfg = base(alg);
        cfg.r.tuples = 2_000;
        cfg.s.tuples = 20_000;
        assert_exact(&cfg);
    }
}

#[test]
fn empty_probe_relation_yields_zero_matches() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.s.tuples = 0;
        let report = JoinRunner::run(&cfg).expect("join must complete");
        assert_eq!(report.matches, 0);
    }
}

#[test]
fn empty_build_relation_yields_zero_matches() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.r.tuples = 0;
        let report = JoinRunner::run(&cfg).expect("join must complete");
        assert_eq!(report.matches, 0);
        assert_eq!(report.expansions, 0);
    }
}

#[test]
fn one_source_and_many_sources_agree_with_their_references() {
    for sources in [1usize, 3, 8] {
        let mut cfg = base(Algorithm::Hybrid);
        cfg.sources = sources;
        assert_exact(&cfg);
    }
}

#[test]
fn wide_tuples_join_correctly() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.r = cfg.r.with_payload(400);
        cfg.s = cfg.s.with_payload(400);
        assert_exact(&cfg);
    }
}

#[test]
fn invalid_configs_are_rejected_not_run() {
    let mut cfg = base(Algorithm::Split);
    cfg.initial_nodes = 0;
    assert!(matches!(
        JoinRunner::run(&cfg),
        Err(ehj_core::JoinError::Config(_))
    ));
}

#[test]
fn zipf_duplication_skew_joins_exactly() {
    // Zipfian skew concentrates duplicates on a few hot values — a
    // different stress than the paper's positional Gaussian skew, exercising
    // long chains and heavy per-value match multiplicity.
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.r.dist = Distribution::Zipf { theta: 0.9 };
        cfg.s.dist = Distribution::Zipf { theta: 0.9 };
        assert_exact(&cfg);
    }
}
