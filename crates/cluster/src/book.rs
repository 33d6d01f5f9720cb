//! Scheduler bookkeeping: working / potential / full node lists and
//! new-node selection.
//!
//! §4.1.1: "The scheduler maintains a list of working join nodes and
//! potential join nodes. ... In our implementation, the node with the
//! largest amount of available memory is selected as the new join node when
//! a working join node is full." The replication-based and hybrid
//! algorithms additionally move exhausted nodes to a *full* list that
//! rejoins the working set for the probe phase (§4.1.2).

use crate::node::{ClusterSpec, NodeId};

/// The scheduler's view of the cluster during one join.
#[derive(Debug, Clone)]
pub struct SchedulerBook {
    working: Vec<NodeId>,
    /// Largest hash memory first, ties in id order: a potential node has
    /// never held a tuple, so its available memory is its capacity and the
    /// paper's pick is always the front.
    potential: Vec<NodeId>,
    full: Vec<NodeId>,
}

impl SchedulerBook {
    /// Creates the book: the first `initial` nodes of `cluster` start as
    /// working join nodes, the rest as potential join nodes in recruit
    /// order.
    ///
    /// # Panics
    /// Panics if `initial` is zero or exceeds the cluster size.
    #[must_use]
    pub fn new(cluster: &ClusterSpec, initial: usize) -> Self {
        assert!(initial > 0, "need at least one initial join node");
        assert!(
            initial <= cluster.len(),
            "initial nodes ({initial}) exceed cluster size ({})",
            cluster.len()
        );
        let all: Vec<NodeId> = cluster.node_ids().collect();
        let mut potential = all[initial..].to_vec();
        potential.sort_by_key(|&n| std::cmp::Reverse(cluster.spec(n).hash_memory_bytes));
        Self {
            working: all[..initial].to_vec(),
            potential,
            full: Vec::new(),
        }
    }

    /// Working join nodes, recruitment order.
    #[must_use]
    pub fn working(&self) -> &[NodeId] {
        &self.working
    }

    /// Nodes whose bucket filled (replication/hybrid bookkeeping).
    #[must_use]
    pub fn full(&self) -> &[NodeId] {
        &self.full
    }

    /// Recruits the potential node with the most hash memory (the earliest
    /// id on a tie), moving it to the working list. Returns `None` when no
    /// nodes remain.
    pub fn recruit(&mut self) -> Option<NodeId> {
        if self.potential.is_empty() {
            return None;
        }
        let node = self.potential.remove(0);
        self.working.push(node);
        Some(node)
    }

    /// Moves a working node to the full list (replication/hybrid: the node
    /// stops receiving build tuples but still holds its table portion).
    ///
    /// # Panics
    /// Panics if `node` is not currently working.
    pub fn mark_full(&mut self, node: NodeId) {
        let idx = self
            .working
            .iter()
            .position(|&n| n == node)
            .expect("only working nodes can fill");
        self.working.remove(idx);
        self.full.push(node);
    }

    /// Merges the full list back into the working list for the probe phase
    /// ("the lists of working and full join nodes are merged", §4.1.2).
    pub fn merge_full_into_working(&mut self) {
        self.working.append(&mut self.full);
    }

    /// Every node that holds part of the hash table (working + full).
    #[must_use]
    pub fn all_active(&self) -> Vec<NodeId> {
        let mut v = self.working.clone();
        v.extend_from_slice(&self.full);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(6, 1000)
    }

    #[test]
    fn initial_partition() {
        let mut b = SchedulerBook::new(&cluster(), 2);
        assert_eq!(b.working(), &[NodeId(0), NodeId(1)]);
        assert!(b.full().is_empty());
        // Four potential nodes: recruitment drains them, then runs dry.
        for _ in 0..4 {
            assert!(b.recruit().is_some());
        }
        assert_eq!(b.recruit(), None);
    }

    #[test]
    fn largest_capacity_recruits_first() {
        let mut c = cluster();
        c.nodes[4].hash_memory_bytes = 5000;
        c.nodes[3].hash_memory_bytes = 4000;
        let mut b = SchedulerBook::new(&c, 2);
        assert_eq!(b.recruit(), Some(NodeId(4)));
        assert_eq!(b.recruit(), Some(NodeId(3)));
        // Ties break toward the earliest id.
        assert_eq!(b.recruit(), Some(NodeId(2)));
        assert_eq!(b.working().len(), 5);
        assert_eq!(b.recruit(), Some(NodeId(5)));
    }

    #[test]
    fn recruit_exhausts() {
        let mut b = SchedulerBook::new(&cluster(), 5);
        assert_eq!(b.recruit(), Some(NodeId(5)));
        assert_eq!(b.recruit(), None);
    }

    #[test]
    fn full_list_lifecycle() {
        let mut b = SchedulerBook::new(&cluster(), 3);
        b.mark_full(NodeId(1));
        assert_eq!(b.working(), &[NodeId(0), NodeId(2)]);
        assert_eq!(b.full(), &[NodeId(1)]);
        assert_eq!(b.all_active(), vec![NodeId(0), NodeId(2), NodeId(1)]);
        b.merge_full_into_working();
        assert_eq!(b.working(), &[NodeId(0), NodeId(2), NodeId(1)]);
        assert!(b.full().is_empty());
    }

    #[test]
    #[should_panic(expected = "working")]
    fn mark_full_requires_working() {
        let mut b = SchedulerBook::new(&cluster(), 1);
        b.mark_full(NodeId(5));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_initial_panics() {
        let _ = SchedulerBook::new(&cluster(), 0);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_initial_panics() {
        let _ = SchedulerBook::new(&cluster(), 7);
    }
}
