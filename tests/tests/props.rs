//! Randomized cross-crate tests: for arbitrary workloads, the distributed
//! join must agree with the reference oracle and preserve its structural
//! invariants. Cases are generated by the repo's own deterministic RNG
//! (fixed seeds), so the suite is reproducible without an external
//! property-testing dependency.

use ehj_core::{expected_matches_for, Algorithm, JoinConfig, JoinRunner};
use ehj_data::{Distribution, Xoshiro256StarStar};
use ehj_integration_tests::narrow;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Replicated,
    Algorithm::Split,
    Algorithm::Hybrid,
    Algorithm::OutOfCore,
];

fn pick_distribution(g: &mut Xoshiro256StarStar) -> Distribution {
    if g.next_u64() & 1 == 0 {
        Distribution::Uniform
    } else {
        Distribution::Gaussian {
            mean: 0.1 + g.next_f64() * 0.8,
            sigma: 1e-4 + g.next_f64() * 0.02,
        }
    }
}

fn build_cfg(
    alg: Algorithm,
    r_tuples: u64,
    s_tuples: u64,
    seed: u64,
    dist: Distribution,
    initial_nodes: usize,
    sources: usize,
) -> JoinConfig {
    let mut cfg = narrow(alg, 1000, 1 << 13);
    cfg.r.tuples = r_tuples;
    cfg.s.tuples = s_tuples;
    cfg.r.seed = seed;
    cfg.s.seed = seed.wrapping_mul(0x9E37_79B9);
    cfg.r.dist = dist;
    cfg.s.dist = dist;
    cfg.initial_nodes = initial_nodes;
    cfg.sources = sources;
    cfg
}

/// The headline invariant: any algorithm, any workload → exact result.
#[test]
fn any_workload_joins_exactly() {
    let mut g = Xoshiro256StarStar::new(0xE4A_2004);
    for case in 0..24 {
        let alg = ALGORITHMS[case % ALGORITHMS.len()];
        let r_tuples = g.next_below(12_000);
        let s_tuples = g.next_below(12_000);
        let seed = g.next_u64();
        let dist = pick_distribution(&mut g);
        let initial = 1 + g.next_below(5) as usize;
        let sources = 1 + g.next_below(4) as usize;

        let cfg = build_cfg(alg, r_tuples, s_tuples, seed, dist, initial, sources);
        let expect = expected_matches_for(&cfg);
        let report = JoinRunner::run(&cfg).expect("join must complete");
        assert_eq!(report.matches, expect, "case {case}: {alg:?}");
        assert_eq!(report.build_tuples, r_tuples);
        assert!(report.final_nodes <= cfg.cluster.len());
        // Loads are per-node build tuples and must sum to the build side.
        assert_eq!(report.load.iter().sum::<u64>(), r_tuples);
    }
}

/// Runs are reproducible for arbitrary configurations.
#[test]
fn any_workload_is_deterministic() {
    let mut g = Xoshiro256StarStar::new(0xDE7_E2D1);
    for case in 0..8 {
        let alg = ALGORITHMS[case % ALGORITHMS.len()];
        let seed = g.next_u64();
        let dist = pick_distribution(&mut g);
        let cfg = build_cfg(alg, 5_000, 5_000, seed, dist, 2, 3);
        let a = JoinRunner::run(&cfg).expect("first run");
        let b = JoinRunner::run(&cfg).expect("second run");
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.sim_events, b.sim_events);
        assert_eq!(a.times.total_secs.to_bits(), b.times.total_secs.to_bits());
        assert_eq!(a.load, b.load);
    }
}
