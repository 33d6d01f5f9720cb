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

/// How the scheduler picks the next join node from the potential list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// The paper's policy: largest available memory first (minimizes the
    /// number of additional nodes).
    #[default]
    LargestFreeMemory,
    /// First node in the potential list (recruitment order).
    FirstFit,
}

/// The scheduler's view of the cluster during one join.
#[derive(Debug, Clone)]
pub struct SchedulerBook {
    working: Vec<NodeId>,
    potential: Vec<NodeId>,
    full: Vec<NodeId>,
    free_mem: Vec<u64>,
    policy: SelectionPolicy,
}

impl SchedulerBook {
    /// Creates the book: the first `initial` nodes of `cluster` start as
    /// working join nodes, the rest as potential join nodes. Free memory of
    /// a potential node starts at its full hash-memory capacity.
    ///
    /// # Panics
    /// Panics if `initial` is zero or exceeds the cluster size.
    #[must_use]
    pub fn new(cluster: &ClusterSpec, initial: usize, policy: SelectionPolicy) -> Self {
        assert!(initial > 0, "need at least one initial join node");
        assert!(
            initial <= cluster.len(),
            "initial nodes ({initial}) exceed cluster size ({})",
            cluster.len()
        );
        let all: Vec<NodeId> = cluster.node_ids().collect();
        Self {
            working: all[..initial].to_vec(),
            potential: all[initial..].to_vec(),
            full: Vec::new(),
            free_mem: cluster.nodes.iter().map(|s| s.hash_memory_bytes).collect(),
            policy,
        }
    }

    /// Working join nodes, recruitment order.
    #[must_use]
    pub fn working(&self) -> &[NodeId] {
        &self.working
    }

    /// Potential join nodes.
    #[must_use]
    pub fn potential(&self) -> &[NodeId] {
        &self.potential
    }

    /// Nodes whose bucket filled (replication/hybrid bookkeeping).
    #[must_use]
    pub fn full(&self) -> &[NodeId] {
        &self.full
    }

    /// Free memory the scheduler believes `node` has.
    #[must_use]
    pub fn free_mem(&self, node: NodeId) -> u64 {
        self.free_mem[node.0 as usize]
    }

    /// Updates the scheduler's free-memory estimate for `node` (piggybacked
    /// on status messages in the real system).
    pub fn set_free_mem(&mut self, node: NodeId, bytes: u64) {
        self.free_mem[node.0 as usize] = bytes;
    }

    /// Selects and recruits a new join node from the potential list, moving
    /// it to the working list. Returns `None` when no nodes remain.
    pub fn recruit(&mut self) -> Option<NodeId> {
        if self.potential.is_empty() {
            return None;
        }
        let idx = match self.policy {
            SelectionPolicy::LargestFreeMemory => self
                .potential
                .iter()
                .enumerate()
                .max_by_key(|(i, n)| (self.free_mem[n.0 as usize], usize::MAX - i))
                .map(|(i, _)| i)
                .expect("non-empty"),
            SelectionPolicy::FirstFit => 0,
        };
        let node = self.potential.remove(idx);
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
        let b = SchedulerBook::new(&cluster(), 2, SelectionPolicy::default());
        assert_eq!(b.working(), &[NodeId(0), NodeId(1)]);
        assert_eq!(b.potential().len(), 4);
        assert!(b.full().is_empty());
    }

    #[test]
    fn largest_free_memory_wins() {
        let mut b = SchedulerBook::new(&cluster(), 2, SelectionPolicy::LargestFreeMemory);
        b.set_free_mem(NodeId(4), 5000);
        b.set_free_mem(NodeId(3), 4000);
        assert_eq!(b.recruit(), Some(NodeId(4)));
        assert_eq!(b.recruit(), Some(NodeId(3)));
        // Ties break toward the earliest-listed node.
        assert_eq!(b.recruit(), Some(NodeId(2)));
        assert_eq!(b.working().len(), 5);
    }

    #[test]
    fn first_fit_takes_list_order() {
        let mut b = SchedulerBook::new(&cluster(), 1, SelectionPolicy::FirstFit);
        assert_eq!(b.recruit(), Some(NodeId(1)));
        assert_eq!(b.recruit(), Some(NodeId(2)));
    }

    #[test]
    fn recruit_exhausts() {
        let mut b = SchedulerBook::new(&cluster(), 5, SelectionPolicy::FirstFit);
        assert_eq!(b.recruit(), Some(NodeId(5)));
        assert_eq!(b.recruit(), None);
    }

    #[test]
    fn full_list_lifecycle() {
        let mut b = SchedulerBook::new(&cluster(), 3, SelectionPolicy::FirstFit);
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
        let mut b = SchedulerBook::new(&cluster(), 1, SelectionPolicy::FirstFit);
        b.mark_full(NodeId(5));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_initial_panics() {
        let _ = SchedulerBook::new(&cluster(), 0, SelectionPolicy::default());
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_initial_panics() {
        let _ = SchedulerBook::new(&cluster(), 7, SelectionPolicy::default());
    }
}
