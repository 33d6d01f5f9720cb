//! Heterogeneous clusters: nodes with different hash-memory capacities.
//! The paper's node-selection rule — "the node with the largest amount of
//! available memory is selected as the new join node" (§4.1.1) — only
//! matters when capacities differ.

use ehj_cluster::{ClusterSpec, NodeSpec, SelectionPolicy};
use ehj_core::{expected_matches_for, Algorithm, JoinConfig, JoinRunner};
use ehj_metrics::TraceKind;

/// A cluster whose later nodes are big: 8 small nodes then 4 big ones.
fn skewed_cluster(small: u64, big: u64) -> ClusterSpec {
    let mut nodes = vec![
        NodeSpec {
            hash_memory_bytes: small
        };
        8
    ];
    nodes.extend(vec![
        NodeSpec {
            hash_memory_bytes: big
        };
        4
    ]);
    ClusterSpec { nodes }
}

fn cfg(alg: Algorithm) -> JoinConfig {
    let mut cfg = JoinConfig::paper_scaled(alg, 1000);
    let domain = 1 << 14;
    cfg.r = cfg.r.with_domain(domain);
    cfg.s = cfg.s.with_domain(domain);
    cfg.positions = (domain / 4) as u32;
    let small = cfg.cluster.spec(ehj_cluster::NodeId(0)).hash_memory_bytes / 2;
    cfg.cluster = skewed_cluster(small, small * 8);
    cfg.initial_nodes = 2;
    cfg
}

#[test]
fn heterogeneous_clusters_join_exactly() {
    for alg in Algorithm::ALL {
        let cfg = cfg(alg);
        let report = JoinRunner::run(&cfg).expect("join runs");
        assert_eq!(
            report.matches,
            expected_matches_for(&cfg),
            "{}",
            alg.label()
        );
    }
}

#[test]
fn largest_free_memory_recruits_the_big_nodes_first() {
    let mut c = cfg(Algorithm::Replicated);
    c.selection_policy = SelectionPolicy::LargestFreeMemory;
    let report = JoinRunner::run(&c).expect("join runs");
    assert!(report.expansions > 0, "must expand to see the policy");
    // The first recruits must be the big nodes (ids 8..12).
    let recruits: Vec<u32> = report
        .timeline
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Recruited { node } => Some(node),
            _ => None,
        })
        .collect();
    let first = recruits.first().copied().expect("at least one recruit");
    assert!(
        (8..12).contains(&first),
        "largest-free-memory should pick a big node first, picked n{first}"
    );
    for &n in recruits.iter().take(4.min(recruits.len())) {
        assert!(
            (8..12).contains(&n),
            "big nodes must be exhausted before small ones: picked n{n} in {recruits:?}"
        );
    }
}

#[test]
fn first_fit_recruits_in_id_order_regardless_of_size() {
    let mut c = cfg(Algorithm::Replicated);
    c.selection_policy = SelectionPolicy::FirstFit;
    let report = JoinRunner::run(&c).expect("join runs");
    let recruits: Vec<u32> = report
        .timeline
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Recruited { node } => Some(node),
            _ => None,
        })
        .collect();
    assert!(!recruits.is_empty());
    assert_eq!(recruits[0], 2, "first potential node in id order");
}

#[test]
fn big_node_policy_needs_fewer_expansions() {
    // Recruiting 8x-sized nodes first should finish the build with fewer
    // recruits than filling small nodes in id order.
    let mut best = cfg(Algorithm::Replicated);
    best.selection_policy = SelectionPolicy::LargestFreeMemory;
    let best_report = JoinRunner::run(&best).expect("join runs");

    let mut worst = cfg(Algorithm::Replicated);
    worst.selection_policy = SelectionPolicy::FirstFit;
    let worst_report = JoinRunner::run(&worst).expect("join runs");

    assert!(
        best_report.expansions < worst_report.expansions,
        "largest-free-memory ({}) should beat first-fit ({}) on recruit count — \
         the paper's stated goal: minimize the number of additional nodes",
        best_report.expansions,
        worst_report.expansions
    );
}
