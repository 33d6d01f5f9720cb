//! The original `BTreeMap`-chained join table, kept as a *reference
//! implementation*.
//!
//! [`ChainedTable`] is the layout the reproduction shipped with before the
//! flat arena rewrite in [`crate::table`]: one `Vec<Tuple>` chain per
//! occupied global position, keyed through a `BTreeMap`. It is
//! allocation-heavy and cache-hostile on the hot insert/probe path, but its
//! behaviour is easy to audit, so it stays in-tree for one job: the
//! differential property suite (`tests/props.rs`) asserts the flat
//! [`crate::JoinHashTable`] is observably equivalent to it — same
//! [`ProbeResult`]s, per-position counts, [`TableFull`] trigger points and
//! extraction contents.
//!
//! It intentionally mirrors the [`crate::JoinHashTable`] API surface
//! one-for-one; keep the two in sync when the contract changes.

use crate::hasher::PositionSpace;
use crate::table::{ProbeResult, TableFull, ENTRY_OVERHEAD_BYTES};
use ehj_data::{JoinAttr, Schema, Tuple};
use std::collections::BTreeMap;

/// A memory-bounded chained hash table over the global position space
/// (reference implementation; the hot path uses [`crate::JoinHashTable`]).
#[derive(Debug, Clone)]
pub struct ChainedTable {
    space: PositionSpace,
    schema: Schema,
    /// Chains keyed by *global* position; a node only ever holds keys inside
    /// its assigned range(s). BTreeMap gives cheap range extraction and
    /// ordered histograms.
    chains: BTreeMap<u32, Vec<Tuple>>,
    tuples: u64,
    capacity_bytes: u64,
}

impl ChainedTable {
    /// Creates an empty table with the given byte capacity.
    #[must_use]
    pub fn new(space: PositionSpace, schema: Schema, capacity_bytes: u64) -> Self {
        Self {
            space,
            schema,
            chains: BTreeMap::new(),
            tuples: 0,
            capacity_bytes,
        }
    }

    /// The position space the table hashes with.
    #[must_use]
    pub fn space(&self) -> PositionSpace {
        self.space
    }

    /// Bytes charged per stored tuple.
    #[must_use]
    pub fn bytes_per_tuple(&self) -> u64 {
        self.schema.tuple_bytes() + ENTRY_OVERHEAD_BYTES
    }

    /// Bytes currently in use.
    #[must_use]
    pub fn bytes_used(&self) -> u64 {
        self.tuples * self.bytes_per_tuple()
    }

    /// The configured capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of stored tuples.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.tuples
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// How many more tuples fit before [`TableFull`].
    #[must_use]
    pub fn remaining_tuples(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.bytes_used()) / self.bytes_per_tuple()
    }

    /// Global position of `attr` under this table's space.
    #[must_use]
    pub fn position_of(&self, attr: JoinAttr) -> u32 {
        self.space.position_of(attr)
    }

    /// Inserts a build tuple, or reports the table full.
    pub fn insert(&mut self, t: Tuple) -> Result<(), TableFull> {
        if self.bytes_used() + self.bytes_per_tuple() > self.capacity_bytes {
            return Err(TableFull {
                bytes_used: self.bytes_used(),
                capacity_bytes: self.capacity_bytes,
            });
        }
        self.insert_unchecked(t);
        Ok(())
    }

    /// Inserts without capacity checking.
    pub fn insert_unchecked(&mut self, t: Tuple) {
        let pos = self.space.position_of(t.join_attr);
        self.chains.entry(pos).or_default().push(t);
        self.tuples += 1;
    }

    /// Probes one attribute: scans the chain at its position, counting
    /// equality matches and comparisons.
    #[must_use]
    pub fn probe(&self, attr: JoinAttr) -> ProbeResult {
        let pos = self.space.position_of(attr);
        match self.chains.get(&pos) {
            None => ProbeResult::default(),
            Some(chain) => ProbeResult {
                matches: chain.iter().filter(|t| t.join_attr == attr).count() as u64,
                compared: chain.len() as u64,
            },
        }
    }

    /// Probes and collects the matching build tuples.
    #[must_use]
    pub fn probe_collect(&self, attr: JoinAttr) -> Vec<Tuple> {
        let pos = self.space.position_of(attr);
        self.chains
            .get(&pos)
            .map(|c| c.iter().filter(|t| t.join_attr == attr).copied().collect())
            .unwrap_or_default()
    }

    /// Per-position entry counts over `[range_start, range_end)` as a dense
    /// histogram indexed relative to `range_start`.
    #[must_use]
    pub fn position_histogram(&self, range_start: u32, range_end: u32) -> Vec<u64> {
        let mut hist = vec![0u64; (range_end - range_start) as usize];
        for (&pos, chain) in self.chains.range(range_start..range_end) {
            hist[(pos - range_start) as usize] = chain.len() as u64;
        }
        hist
    }

    /// Removes and returns all tuples whose position lies in
    /// `[range_start, range_end)`.
    pub fn extract_range(&mut self, range_start: u32, range_end: u32) -> Vec<Tuple> {
        let keys: Vec<u32> = self
            .chains
            .range(range_start..range_end)
            .map(|(&k, _)| k)
            .collect();
        let mut out = Vec::new();
        for k in keys {
            let chain = self.chains.remove(&k).expect("key just enumerated");
            self.tuples -= chain.len() as u64;
            out.extend(chain);
        }
        out
    }

    /// Removes and returns all tuples matching `pred` (full-table scan).
    pub fn drain_filter(&mut self, mut pred: impl FnMut(&Tuple) -> bool) -> Vec<Tuple> {
        let mut out = Vec::new();
        let mut emptied = Vec::new();
        for (&pos, chain) in &mut self.chains {
            let mut kept = Vec::with_capacity(chain.len());
            for t in chain.drain(..) {
                if pred(&t) {
                    out.push(t);
                } else {
                    kept.push(t);
                }
            }
            if kept.is_empty() {
                emptied.push(pos);
            }
            *chain = kept;
        }
        for pos in emptied {
            self.chains.remove(&pos);
        }
        self.tuples -= out.len() as u64;
        out
    }

    /// Iterates all stored tuples in position order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.chains.values().flatten()
    }

    /// Removes everything, returning the tuples.
    pub fn drain_all(&mut self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.tuples as usize);
        for (_, chain) in std::mem::take(&mut self.chains) {
            out.extend(chain);
        }
        self.tuples = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::AttrHasher;

    #[test]
    fn chained_table_basics_still_hold() {
        let space = PositionSpace::new(100, 100, AttrHasher::Identity);
        let schema = Schema::default_paper();
        let bpt = schema.tuple_bytes() + ENTRY_OVERHEAD_BYTES;
        let mut t = ChainedTable::new(space, schema, 3 * bpt);
        for i in 0..3 {
            t.insert(Tuple::new(i, 10)).expect("fits");
        }
        assert!(t.insert(Tuple::new(9, 90)).is_err());
        let r = t.probe(10);
        assert_eq!((r.matches, r.compared), (3, 3));
        assert_eq!(t.position_histogram(10, 11), vec![3]);
        assert_eq!(t.extract_range(0, 100).len(), 3);
        assert!(t.is_empty());
    }
}
