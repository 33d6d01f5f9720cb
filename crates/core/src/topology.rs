//! Actor wiring for one join run.

use ehj_cluster::NodeId;
use ehj_sim::ActorId;

/// Maps the system's roles onto engine actor ids. The runner registers the
/// scheduler first, then the data sources, then every cluster node's join
/// process (active or not), so ids are dense and predictable.
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
    /// Builds the wiring for `sources` sources and `nodes` cluster nodes,
    /// starting at actor id `base`:
    /// scheduler at `base`, sources at `base+1..`, nodes after them. This
    /// is how the multi-tenant service namespaces one query's actors — each
    /// admitted query gets a disjoint dense id block, so concurrent
    /// schedulers, sources and join nodes never collide.
    #[must_use]
    pub fn with_base(base: ActorId, sources: usize, nodes: usize) -> Self {
        let scheduler = base;
        let sources: Vec<ActorId> = (base + 1..=base + sources as ActorId).collect();
        let first = base + sources.len() as ActorId + 1;
        let nodes = (first..first + nodes as ActorId).collect();
        Self {
            scheduler,
            sources,
            nodes,
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
        let t = Topology::with_base(0, 3, 5);
        assert_eq!(t.scheduler, 0);
        assert_eq!(t.sources, vec![1, 2, 3]);
        assert_eq!(t.nodes, vec![4, 5, 6, 7, 8]);
        assert_eq!(t.actor_count(), 9);
    }

    #[test]
    fn based_wiring_shifts_the_whole_block() {
        let t = Topology::with_base(10, 2, 3);
        assert_eq!(t.scheduler, 10);
        assert_eq!(t.sources, vec![11, 12]);
        assert_eq!(t.nodes, vec![13, 14, 15]);
        assert_eq!(t.actor_count(), 6);
        assert_eq!(t.node_actor(NodeId(1)), 14);
        assert_eq!(t.node_of_actor(14), Some(NodeId(1)));
        assert_eq!(t.node_of_actor(12), None);
        assert_eq!(t.node_of_actor(16), None);
    }

    #[test]
    fn node_actor_round_trip() {
        let t = Topology::with_base(0, 2, 4);
        for i in 0..4u32 {
            let a = t.node_actor(NodeId(i));
            assert_eq!(t.node_of_actor(a), Some(NodeId(i)));
        }
        assert_eq!(t.node_of_actor(0), None);
        assert_eq!(t.node_of_actor(1), None);
        assert_eq!(t.node_of_actor(100), None);
    }
}
