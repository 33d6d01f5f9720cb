//! Expansion behaviour: when and how the algorithms recruit, and what the
//! reports say about it.

use ehj_cluster::{ClusterSpec, NodeId};
use ehj_core::{Algorithm, JoinConfig, JoinRunner};
use ehj_data::Distribution;
use ehj_hash::ENTRY_OVERHEAD_BYTES;
use ehj_integration_tests::narrow;
use ehj_metrics::Phase;

fn base(alg: Algorithm) -> JoinConfig {
    narrow(alg, 1000, 1 << 14)
}

fn capacity_tuples(cfg: &JoinConfig) -> u64 {
    cfg.cluster.spec(NodeId(0)).hash_memory_bytes
        / (cfg.schema().tuple_bytes() + ENTRY_OVERHEAD_BYTES)
}

#[test]
fn expansion_matches_memory_shortfall() {
    for alg in [Algorithm::Replicated, Algorithm::Split, Algorithm::Hybrid] {
        let cfg = base(alg);
        let report = JoinRunner::run(&cfg).expect("join runs");
        let needed = cfg.r.tuples.div_ceil(capacity_tuples(&cfg)) as usize;
        assert!(
            report.final_nodes >= needed,
            "{}: {} nodes cannot hold {} tuples",
            alg.label(),
            report.final_nodes,
            cfg.r.tuples
        );
        assert!(report.expansions > 0, "{} must have expanded", alg.label());
        // Expansion is bounded by the cluster.
        assert!(report.final_nodes <= cfg.cluster.len());
    }
}

#[test]
fn out_of_core_never_expands() {
    let cfg = base(Algorithm::OutOfCore);
    let report = JoinRunner::run(&cfg).expect("join runs");
    assert_eq!(report.expansions, 0);
    assert_eq!(report.final_nodes, cfg.initial_nodes);
    assert!(report.spilled_nodes > 0, "it must have gone out of core");
    assert!(report.disk_bytes > 0, "spilling means disk traffic");
}

#[test]
fn ehjas_use_no_disk_when_cluster_suffices() {
    for alg in [Algorithm::Replicated, Algorithm::Split, Algorithm::Hybrid] {
        let cfg = base(alg);
        let report = JoinRunner::run(&cfg).expect("join runs");
        assert_eq!(report.spilled_nodes, 0, "{}", alg.label());
        assert_eq!(report.disk_bytes, 0, "{}", alg.label());
    }
}

#[test]
fn spill_fallback_engages_when_cluster_exhausted() {
    for alg in [Algorithm::Replicated, Algorithm::Split, Algorithm::Hybrid] {
        let mut cfg = base(alg);
        cfg.cluster = ClusterSpec::homogeneous(6, cfg.cluster.spec(NodeId(0)).hash_memory_bytes);
        cfg.initial_nodes = 2;
        let report = JoinRunner::run(&cfg).expect("join runs");
        assert!(
            report.spilled_nodes > 0,
            "{}: 6 nodes cannot hold the build side in memory",
            alg.label()
        );
        assert_eq!(
            report.matches,
            ehj_core::expected_matches_for(&cfg),
            "{}: spilling must not lose matches",
            alg.label()
        );
    }
}

/// A split moves tuples *during* the build, into tables that check
/// capacity per insert: which tuples a receiver parks depends on the order
/// the sender drained them in. This report was recorded at the commit
/// before the hash table became position-ordered; a drain that ordered the
/// arena early would change the pending queues and with them the traffic
/// and the per-node loads.
#[test]
fn split_policies_reproduce_the_recorded_scale_1000_reports() {
    let cfg = JoinConfig::paper_scaled(Algorithm::Split, 1000);
    let got = JoinRunner::run(&cfg).expect("join runs");
    assert_eq!(got.matches, 345);
    assert_eq!(got.compares, 95_094);
    assert_eq!(got.net_bytes, 3_683_812);
    assert_eq!(got.disk_bytes, 0);
    assert_eq!(got.sim_events, 1542);
    assert_eq!(
        got.times.total_secs.to_bits(),
        0x3fb1_ad47_7661_3047,
        "total time {}",
        got.times.total_secs
    );
    assert_eq!((got.expansions, got.final_nodes), (13, 17));
    assert_eq!(got.spilled_nodes, 0);
    assert_eq!(got.build_tuples, 10_000);
    assert_eq!(
        (
            got.extra_build_chunks(),
            got.extra_reshuffle_chunks(),
            got.extra_probe_chunks()
        ),
        (155, 0, 0),
        "per-phase extra chunks"
    );
    assert_eq!(got.comm.extra_tuples(Phase::Build), 9867);
    assert_eq!(
        got.load,
        [313, 625, 586, 606, 606, 637, 623, 621, 608, 679, 646, 660, 637, 571, 629, 635, 318],
        "per-node loads"
    );
}

#[test]
fn split_pointer_survives_an_unsplittable_hot_cell() {
    // Everything hashes to one position: no split can relieve the hot node,
    // so the pointer recruits the whole potential list and the hot node
    // then falls back to spilling.
    let mut cfg = base(Algorithm::Split);
    cfg.r.dist = Distribution::Gaussian {
        mean: 0.5,
        sigma: 1e-9,
    };
    cfg.s.dist = cfg.r.dist;
    let report = JoinRunner::run(&cfg).expect("join runs");
    assert!(report.spilled_nodes >= 1);
    assert_eq!(report.matches, ehj_core::expected_matches_for(&cfg));
}

#[test]
fn replication_chains_grow_under_extreme_skew() {
    let mut cfg = base(Algorithm::Replicated);
    cfg.r.dist = Distribution::gaussian_extreme();
    cfg.s.dist = cfg.r.dist;
    let report = JoinRunner::run(&cfg).expect("join runs");
    // The hot range replicates repeatedly; the probe phase pays broadcast.
    assert!(report.expansions > 0);
    assert!(
        report.comm.extra_tuples(Phase::Probe) > 0,
        "replicated ranges must broadcast probe tuples"
    );
}

#[test]
fn split_pays_no_probe_broadcast() {
    let report = JoinRunner::run(&base(Algorithm::Split)).expect("join runs");
    assert_eq!(
        report.comm.extra_tuples(Phase::Probe),
        0,
        "split probes are unicast"
    );
}

#[test]
fn hybrid_pays_no_probe_broadcast_without_spills() {
    let cfg = base(Algorithm::Hybrid);
    let report = JoinRunner::run(&cfg).expect("join runs");
    assert_eq!(report.spilled_nodes, 0);
    assert_eq!(
        report.comm.extra_tuples(Phase::Probe),
        0,
        "after the reshuffle every probe tuple goes to exactly one node"
    );
    assert!(
        report.comm.extra_tuples(Phase::Reshuffle) > 0,
        "the reshuffle itself moves entries"
    );
}

#[test]
fn hybrid_balances_load_under_extreme_skew() {
    let mut cfg = base(Algorithm::Hybrid);
    cfg.r.dist = Distribution::gaussian_extreme();
    cfg.s.dist = cfg.r.dist;
    let hybrid = JoinRunner::run(&cfg).expect("join runs");

    let mut cfg = base(Algorithm::Split);
    cfg.r.dist = Distribution::gaussian_extreme();
    cfg.s.dist = cfg.r.dist;
    let split = JoinRunner::run(&cfg).expect("join runs");

    assert!(
        hybrid.load_stats().imbalance() < split.load_stats().imbalance(),
        "hybrid {:.2} should balance better than split {:.2} (Figure 13)",
        hybrid.load_stats().imbalance(),
        split.load_stats().imbalance()
    );
}

#[test]
fn fibonacci_hasher_still_joins_exactly() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.hasher = ehj_hash::AttrHasher::Fibonacci;
        let report = JoinRunner::run(&cfg).expect("join runs");
        assert_eq!(report.matches, ehj_core::expected_matches_for(&cfg));
    }
}
