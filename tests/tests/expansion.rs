//! Expansion behaviour: when and how the algorithms recruit, and what the
//! reports say about it.

use ehj_cluster::{ClusterSpec, NodeId};
use ehj_core::{Algorithm, JoinConfig, JoinRunner, SplitPolicy};
use ehj_data::Distribution;
use ehj_hash::ENTRY_OVERHEAD_BYTES;
use ehj_metrics::Phase;

fn base(alg: Algorithm) -> JoinConfig {
    let mut cfg = JoinConfig::paper_scaled(alg, 1000);
    let domain = 1 << 14;
    cfg.r = cfg.r.with_domain(domain);
    cfg.s = cfg.s.with_domain(domain);
    cfg.positions = (domain / 4) as u32;
    cfg
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

#[test]
fn range_bisect_policy_expands_and_matches() {
    let mut cfg = base(Algorithm::Split);
    cfg.split_policy = SplitPolicy::RangeBisect;
    let report = JoinRunner::run(&cfg).expect("join runs");
    assert!(report.expansions > 0);
    assert_eq!(report.matches, ehj_core::expected_matches_for(&cfg));
}

/// Both split policies move tuples *during* the build, into tables that
/// check capacity per insert: which tuples a receiver parks depends on the
/// order the sender drained them in. These reports were recorded at the
/// commit before the hash table became position-ordered; a drain that
/// ordered the arena early would change the pending queues and with them
/// the traffic and the per-node loads.
#[test]
fn split_policies_reproduce_the_recorded_scale_1000_reports() {
    struct Recorded {
        policy: SplitPolicy,
        net_bytes: u64,
        sim_events: u64,
        total_secs_bits: u64,
        build_chunks: u64,
        build_tuples_moved: u64,
        load: [u64; 17],
    }
    let recorded = [
        Recorded {
            policy: SplitPolicy::LinearPointer,
            net_bytes: 3_707_992,
            sim_events: 1722,
            total_secs_bits: 0x3fb1_b6a0_0faa_6cfc,
            build_chunks: 155,
            build_tuples_moved: 9867,
            load: [
                313, 625, 586, 606, 606, 637, 623, 621, 608, 679, 646, 660, 637, 571, 629, 635, 318,
            ],
        },
        Recorded {
            policy: SplitPolicy::RangeBisect,
            net_bytes: 6_459_280,
            sim_events: 2432,
            total_secs_bits: 0x3fc1_6c8e_df00_8104,
            build_chunks: 508,
            build_tuples_moved: 32_496,
            load: [
                606, 586, 575, 665, 623, 605, 658, 314, 623, 657, 607, 629, 647, 648, 661, 600, 296,
            ],
        },
    ];
    for want in recorded {
        let mut cfg = JoinConfig::paper_scaled(Algorithm::Split, 1000);
        cfg.split_policy = want.policy;
        let got = JoinRunner::run(&cfg).expect("join runs");
        let policy = want.policy;
        assert_eq!(got.matches, 345, "{policy:?}");
        assert_eq!(got.compares, 95_094, "{policy:?}");
        assert_eq!(got.net_bytes, want.net_bytes, "{policy:?}");
        assert_eq!(got.disk_bytes, 0, "{policy:?}");
        assert_eq!(got.sim_events, want.sim_events, "{policy:?}");
        assert_eq!(
            got.times.total_secs.to_bits(),
            want.total_secs_bits,
            "{policy:?}: total time {}",
            got.times.total_secs
        );
        assert_eq!((got.expansions, got.final_nodes), (13, 17), "{policy:?}");
        assert_eq!(got.spilled_nodes, 0, "{policy:?}");
        assert_eq!(got.build_tuples, 10_000, "{policy:?}");
        assert_eq!(
            (
                got.extra_build_chunks(),
                got.extra_reshuffle_chunks(),
                got.extra_probe_chunks()
            ),
            (want.build_chunks, 0, 0),
            "{policy:?}: per-phase extra chunks"
        );
        assert_eq!(
            got.comm.extra_tuples(Phase::Build),
            want.build_tuples_moved,
            "{policy:?}"
        );
        assert_eq!(got.load, want.load, "{policy:?}: per-node loads");
    }
}

#[test]
fn range_bisect_survives_an_unsplittable_hot_cell() {
    // Everything hashes to one position: no cut can relieve the hot node,
    // so it must fall back to spilling, and the warm spare goes back to the
    // potential list.
    let mut cfg = base(Algorithm::Split);
    cfg.split_policy = SplitPolicy::RangeBisect;
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
    for policy in [SplitPolicy::LinearPointer, SplitPolicy::RangeBisect] {
        let mut cfg = base(Algorithm::Split);
        cfg.split_policy = policy;
        let report = JoinRunner::run(&cfg).expect("join runs");
        assert_eq!(
            report.comm.extra_tuples(Phase::Probe),
            0,
            "split probes are unicast ({policy:?})"
        );
    }
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
fn selection_policies_all_work() {
    use ehj_cluster::SelectionPolicy;
    for policy in [
        SelectionPolicy::LargestFreeMemory,
        SelectionPolicy::FirstFit,
        SelectionPolicy::RoundRobin,
    ] {
        let mut cfg = base(Algorithm::Replicated);
        cfg.selection_policy = policy;
        let report = JoinRunner::run(&cfg).expect("join runs");
        assert_eq!(report.matches, ehj_core::expected_matches_for(&cfg));
    }
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
