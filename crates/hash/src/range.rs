//! Hash-range partitioning.
//!
//! The replication-based, hybrid and out-of-core algorithms partition the
//! global hash table's position space into contiguous ranges, one per join
//! node (§4.2.2, Figure 1). [`ReplicaMap`] attaches a replica list to each
//! range: one owner per range is the disjoint form (the out-of-core
//! baseline's fixed routing and the hybrid's post-reshuffle probe), longer
//! lists are the replication-based build and probe phases.

/// A half-open range of hash-table positions `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashRange {
    /// First position in the range.
    pub start: u32,
    /// One past the last position.
    pub end: u32,
}

impl HashRange {
    /// Creates a range.
    ///
    /// # Panics
    /// Panics if `start > end`.
    #[must_use]
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "invalid range [{start}, {end})");
        Self { start, end }
    }

    /// Number of positions covered.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the range covers no positions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `pos` lies in the range.
    #[must_use]
    pub fn contains(&self, pos: u32) -> bool {
        (self.start..self.end).contains(&pos)
    }

    /// Partitions `[0, total)` into `k` near-equal contiguous ranges
    /// (the initial bucket assignment; sizes differ by at most one).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn partition(total: u32, k: usize) -> Vec<Self> {
        assert!(k > 0, "need at least one partition");
        let k32 = k as u32;
        (0..k32)
            .map(|i| {
                let start = (total as u64 * i as u64 / k32 as u64) as u32;
                let end = (total as u64 * (i as u64 + 1) / k32 as u64) as u32;
                Self::new(start, end)
            })
            .collect()
    }
}

/// One replicated range: every owner holds part of the build side; the
/// *active* owner (the most recently recruited) receives new build tuples,
/// and probe tuples are broadcast to all owners (§4.2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaEntry<T> {
    /// The replicated position range.
    pub range: HashRange,
    /// All nodes holding build tuples of this range, recruitment order.
    pub owners: Vec<T>,
}

impl<T: Copy + Eq> ReplicaEntry<T> {
    /// The owner currently receiving build tuples for this range.
    #[must_use]
    pub fn active(&self) -> T {
        *self.owners.last().expect("at least one owner")
    }
}

/// Range map with replica lists: the replication-based algorithm's routing
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaMap<T> {
    entries: Vec<ReplicaEntry<T>>,
}

impl<T: Copy + Eq> ReplicaMap<T> {
    /// Initial configuration: each owner holds one range, no replicas.
    ///
    /// # Panics
    /// Panics if `owners` is empty.
    #[must_use]
    pub fn partitioned(positions: u32, owners: &[T]) -> Self {
        Self {
            entries: HashRange::partition(positions, owners.len())
                .into_iter()
                .zip(owners)
                .map(|(range, &o)| ReplicaEntry {
                    range,
                    owners: vec![o],
                })
                .collect(),
        }
    }

    /// Builds a map from explicit entries.
    ///
    /// # Panics
    /// Panics if entries are empty, non-contiguous, or any owner list is
    /// empty.
    #[must_use]
    pub fn from_entries(entries: Vec<ReplicaEntry<T>>) -> Self {
        assert!(!entries.is_empty(), "need at least one entry");
        let mut expect = entries[0].range.start;
        for e in &entries {
            assert_eq!(e.range.start, expect, "ranges must be contiguous");
            assert!(!e.owners.is_empty(), "every entry needs an owner");
            expect = e.range.end;
        }
        Self { entries }
    }

    /// The replica entries in position order.
    #[must_use]
    pub fn entries(&self) -> &[ReplicaEntry<T>] {
        &self.entries
    }

    /// Entry covering `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is outside the covered space.
    #[must_use]
    pub fn entry_of(&self, pos: u32) -> &ReplicaEntry<T> {
        &self.entries[self.index_of(pos)]
    }

    /// Index into [`Self::entries`] of the entry covering `pos`. Stable
    /// until the map is next mutated.
    ///
    /// # Panics
    /// Panics if `pos` is outside the covered space.
    #[must_use]
    pub fn index_of(&self, pos: u32) -> usize {
        let idx = self.entries.partition_point(|e| e.range.end <= pos);
        match self.entries.get(idx) {
            Some(e) if e.range.contains(pos) => idx,
            _ => panic!("position {pos} outside the covered space"),
        }
    }

    /// Build-phase destination for `pos` (the active replica).
    #[must_use]
    pub fn active_of(&self, pos: u32) -> T {
        self.entry_of(pos).active()
    }

    /// Probe-phase destinations for `pos` (all replicas).
    #[must_use]
    pub fn owners_of(&self, pos: u32) -> &[T] {
        &self.entry_of(pos).owners
    }

    /// Records that `full_owner`'s range was replicated onto `new_owner`:
    /// the entry whose active owner is `full_owner` gains `new_owner` as the
    /// new active replica. Returns the replicated range.
    ///
    /// # Panics
    /// Panics if no entry's active owner is `full_owner`.
    pub fn replicate(&mut self, full_owner: T, new_owner: T) -> HashRange {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.active() == full_owner)
            .expect("full owner must be active on some range");
        e.owners.push(new_owner);
        e.range
    }

    /// All distinct nodes appearing in any replica list, position order.
    #[must_use]
    pub fn all_nodes(&self) -> Vec<T> {
        let mut out = Vec::new();
        for e in &self.entries {
            for o in &e.owners {
                if !out.contains(o) {
                    out.push(*o);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(start: u32, end: u32, owners: &[u32]) -> ReplicaEntry<u32> {
        ReplicaEntry {
            range: HashRange::new(start, end),
            owners: owners.to_vec(),
        }
    }

    #[test]
    fn partition_covers_exactly() {
        for total in [1u32, 7, 100, 1 << 20] {
            for k in [1usize, 2, 3, 7, 16] {
                let parts = HashRange::partition(total, k);
                assert_eq!(parts.len(), k);
                assert_eq!(parts[0].start, 0);
                assert_eq!(parts[k - 1].end, total);
                for w in parts.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let max = parts.iter().map(HashRange::len).max().unwrap();
                let min = parts.iter().map(HashRange::len).min().unwrap();
                assert!(max - min <= 1, "total={total} k={k}: {parts:?}");
            }
        }
    }

    #[test]
    fn range_basics() {
        let r = HashRange::new(10, 20);
        assert_eq!(r.len(), 10);
        assert!(r.contains(10) && r.contains(19));
        assert!(!r.contains(20) && !r.contains(9));
        assert!(HashRange::new(5, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn inverted_range_panics() {
        let _ = HashRange::new(5, 3);
    }

    #[test]
    fn range_map_lookup() {
        // One owner per range: the disjoint form.
        let m = ReplicaMap::partitioned(100, &[1u32, 2, 3, 4]);
        assert_eq!(m.active_of(0), 1);
        assert_eq!(m.active_of(24), 1);
        assert_eq!(m.owners_of(25), &[2]);
        assert_eq!(m.active_of(99), 4);
        assert_eq!(m.all_nodes(), vec![1, 2, 3, 4]);
        assert!(m.entries().iter().all(|e| e.owners.len() == 1));
    }

    #[test]
    fn index_of_addresses_the_covering_entry() {
        let m = ReplicaMap::partitioned(100, &[1u32, 2, 3, 4]);
        let mut r = m.clone();
        let _ = r.replicate(2, 9);
        for (pos, index) in [(0, 0), (24, 0), (25, 1), (74, 2), (75, 3), (99, 3)] {
            assert_eq!(m.index_of(pos), index);
            assert_eq!(r.index_of(pos), index);
        }
        assert_eq!(r.entries()[r.index_of(30)].owners, vec![2, 9]);
        // One more entry below a position renumbers it.
        let cut = ReplicaMap::from_entries(vec![
            entry(0, 25, &[1]),
            entry(25, 40, &[2]),
            entry(40, 50, &[5]),
            entry(50, 75, &[3]),
            entry(75, 100, &[4]),
        ]);
        assert_eq!(cut.index_of(99), 4);
        assert_eq!(cut.entries()[cut.index_of(45)].owners, vec![5]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn range_map_out_of_space_panics() {
        let m = ReplicaMap::partitioned(100, &[1u32]);
        let _ = m.active_of(100);
    }

    #[test]
    fn replica_map_build_and_probe_routing() {
        let mut m = ReplicaMap::partitioned(90, &[1u32, 2, 3]);
        assert_eq!(m.active_of(0), 1);
        assert_eq!(m.owners_of(45), &[2]);
        // Node 2 fills; node 7 replicates its range.
        let r = m.replicate(2, 7);
        assert_eq!(r, HashRange::new(30, 60));
        assert_eq!(m.active_of(45), 7);
        assert_eq!(m.owners_of(45), &[2, 7]);
        // Node 7 fills too; node 8 replicates the same range (chain).
        let r2 = m.replicate(7, 8);
        assert_eq!(r2, r);
        assert_eq!(m.active_of(45), 8);
        assert_eq!(m.owners_of(45), &[2, 7, 8]);
        let longest = m.entries().iter().map(|e| e.owners.len()).max();
        assert_eq!(longest, Some(3));
        assert_eq!(m.all_nodes(), vec![1, 2, 7, 8, 3]);
    }

    #[test]
    #[should_panic(expected = "active")]
    fn replicate_requires_active_owner() {
        let mut m = ReplicaMap::partitioned(90, &[1u32, 2, 3]);
        let _ = m.replicate(2, 7);
        // Node 2 is no longer active anywhere.
        let _ = m.replicate(2, 9);
    }

    #[test]
    fn from_entries_validates_contiguity() {
        let ok = ReplicaMap::from_entries(vec![entry(0, 5, &[1]), entry(5, 9, &[2, 3])]);
        assert_eq!(ok.active_of(5), 3);
        assert_eq!(ok.owners_of(4), &[1]);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn from_entries_rejects_gaps() {
        let _ = ReplicaMap::from_entries(vec![entry(0, 5, &[1]), entry(6, 9, &[2])]);
    }

    #[test]
    #[should_panic(expected = "needs an owner")]
    fn from_entries_rejects_ownerless_entries() {
        let _ = ReplicaMap::from_entries(vec![entry(0, 5, &[1]), entry(5, 9, &[])]);
    }
}
