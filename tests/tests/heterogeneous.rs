//! Heterogeneous clusters: nodes with different hash-memory capacities.
//! The paper's node-selection rule — "the node with the largest amount of
//! available memory is selected as the new join node" (§4.1.1) — only
//! matters when capacities differ.

use ehj_cluster::{ClusterSpec, NodeSpec};
use ehj_core::{expected_matches_for, Algorithm, JoinConfig, JoinRunner};
use ehj_integration_tests::narrow;
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
    let mut cfg = narrow(alg, 1000, 1 << 14);
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

/// The full recruit sequence: the big nodes first, then the small ones,
/// each size in id order.
#[test]
fn recruit_sequence_is_largest_capacity_then_id() {
    for (alg, want) in [
        (Algorithm::Replicated, vec![8, 9, 10, 11]),
        (Algorithm::Split, vec![8, 9, 10, 11, 2, 3, 4, 5, 6, 7]),
        (Algorithm::Hybrid, vec![8, 9, 10, 11]),
    ] {
        let report = JoinRunner::run(&cfg(alg)).expect("join runs");
        let recruits: Vec<u32> = report
            .timeline
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Recruited { node } => Some(node),
                _ => None,
            })
            .collect();
        assert_eq!(recruits, want, "{}", alg.label());
    }
}
