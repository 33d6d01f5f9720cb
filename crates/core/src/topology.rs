//! Actor wiring for one join run.

use ehj_cluster::NodeId;
use ehj_sim::ActorId;

/// Maps the system's roles onto the query's actor ids. The runner registers
/// the scheduler first, then the data sources, then every cluster node's
/// join process (active or not), so ids are dense and predictable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// The scheduler actor (always 0).
    pub scheduler: ActorId,
    /// Data-source actors, in source order.
    pub sources: Vec<ActorId>,
    /// Join-node actors, indexed by [`NodeId`].
    pub nodes: Vec<ActorId>,
}

impl Topology {
    /// Builds the wiring for `sources` sources and `nodes` cluster nodes:
    /// scheduler at 0, sources at `1..=sources`, nodes after them. Ids are
    /// the query's own, on both backends: an engine and a pool group both
    /// number their actors from 0.
    #[must_use]
    pub fn new(sources: usize, nodes: usize) -> Self {
        let first = sources as ActorId + 1;
        Self {
            scheduler: 0,
            sources: (1..first).collect(),
            nodes: (first..first + nodes as ActorId).collect(),
        }
    }

    /// Actor of a cluster node.
    #[must_use]
    pub fn node_actor(&self, node: NodeId) -> ActorId {
        self.nodes[node.0 as usize]
    }

    /// Cluster node of an actor, if it is a join node.
    #[must_use]
    pub fn node_of_actor(&self, actor: ActorId) -> Option<NodeId> {
        let first = *self.nodes.first()?;
        if actor >= first && actor < first + self.nodes.len() as ActorId {
            Some(NodeId(actor - first))
        } else {
            None
        }
    }

    /// Whether an actor is a data source.
    #[must_use]
    pub fn is_source(&self, actor: ActorId) -> bool {
        self.sources
            .first()
            .is_some_and(|&first| actor >= first && actor < first + self.sources.len() as ActorId)
    }

    /// Total number of actors.
    #[must_use]
    pub fn actor_count(&self) -> usize {
        1 + self.sources.len() + self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_wiring_is_dense() {
        let t = Topology::new(3, 5);
        assert_eq!(t.scheduler, 0);
        assert_eq!(t.sources, vec![1, 2, 3]);
        assert_eq!(t.nodes, vec![4, 5, 6, 7, 8]);
        assert_eq!(t.actor_count(), 9);
    }

    #[test]
    fn node_actor_round_trip() {
        let t = Topology::new(2, 4);
        for i in 0..4u32 {
            let a = t.node_actor(NodeId(i));
            assert_eq!(t.node_of_actor(a), Some(NodeId(i)));
        }
        assert_eq!(t.node_of_actor(0), None);
        assert_eq!(t.node_of_actor(1), None);
        assert_eq!(t.node_of_actor(100), None);
    }

    #[test]
    fn sources_are_the_ids_after_the_scheduler() {
        let t = Topology::new(2, 4);
        let sources: Vec<ActorId> = (0..8).filter(|&a| t.is_source(a)).collect();
        assert_eq!(sources, t.sources);
        assert!(!Topology::new(0, 4).is_source(1));
    }
}
