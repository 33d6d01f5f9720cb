//! Routing tables shared by data sources, join nodes and the scheduler.
//!
//! A routing table answers two questions for a join-attribute value:
//! *where do build tuples go* (always exactly one node) and *where do probe
//! tuples go* (one node, except for replicated ranges, which broadcast to
//! every replica — §4.2.2). The three algorithm families use three shapes:
//!
//! * [`RoutingTable::Disjoint`] — contiguous position ranges, one owner
//!   each: the out-of-core baseline;
//! * [`RoutingTable::Replica`] — ranges with replica lists: the
//!   replication-based and hybrid build phases, the replication-based
//!   probe phase and the hybrid's post-reshuffle probe routing;
//! * [`RoutingTable::Buckets`] — linear-hashing buckets: the split-based
//!   algorithm (the `(i, split pointer)` pair the scheduler broadcasts,
//!   §4.2.1).
//!
//! A fourth shape, [`RoutingTable::HotKeys`], is an *overlay* wrapped
//! around any of the three: a short sorted list of hot positions whose
//! build tuples are round-robined across (and later replicated to) a
//! replica set, with probes for those positions round-robined too. Cold
//! positions fall through to the wrapped inner table (DESIGN §4i).

use ehj_data::JoinAttr;
use ehj_hash::{BucketMap, HashRange, PositionSpace, RangeMap, ReplicaMap};
use ehj_sim::ActorId;

/// The hot-position overlay installed by the scheduler when source-side
/// sketches report heavy hitters (DESIGN §4i).
///
/// During the build phase, a hot tuple goes to exactly **one** replica
/// (round-robin by the caller-supplied ticket) — replication happens once,
/// in a post-barrier hand-off, so each clean replica ends with exactly one
/// copy of every hot build tuple. During the probe phase each hot probe
/// tuple is answered by one replica (round-robin) plus every member of
/// `extra` (spilled nodes whose grace join must still see the tuple).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotKeyOverlay {
    /// Hot hash positions, sorted ascending (binary-searched per tuple).
    pub hot: Vec<u32>,
    /// Nodes sharing the hot build tuples; round-robin targets.
    pub replicas: Vec<ActorId>,
    /// Nodes that additionally receive every hot probe tuple (spilled
    /// members answering from disk). Empty during the build phase.
    pub extra: Vec<ActorId>,
}

impl HotKeyOverlay {
    /// Whether `pos` is one of the replicated hot positions.
    #[must_use]
    pub fn is_hot(&self, pos: u32) -> bool {
        self.hot.binary_search(&pos).is_ok()
    }

    /// The single destination for a hot tuple under round-robin ticket
    /// `ticket` (any monotone per-caller counter).
    #[must_use]
    pub fn pick(&self, ticket: u64) -> ActorId {
        self.replicas[(ticket % self.replicas.len() as u64) as usize]
    }

    /// `to` takes `from`'s slot among the build-phase replicas (a full
    /// member handing over to its recruit). Replaced in place, never
    /// removed: [`Self::pick`] indexes modulo the list's length, so the
    /// list must not empty.
    pub fn hand_over(&mut self, from: ActorId, to: ActorId) {
        if let Some(slot) = self.replicas.iter_mut().find(|r| **r == from) {
            *slot = to;
        }
    }

    /// Appends a hot probe tuple's destinations: one answering replica by
    /// round-robin ticket — when any clean member exists — plus every
    /// spilled extra. With no clean members at all (every participant went
    /// out of core), the extras alone cover the scattered hot build side.
    pub fn push_probe_dests(&self, ticket: u64, out: &mut Vec<ActorId>) {
        if !self.replicas.is_empty() {
            out.push(self.pick(ticket));
        }
        out.extend_from_slice(&self.extra);
    }
}

/// One routing table, versioned by the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingTable {
    /// Disjoint contiguous position ranges.
    Disjoint(RangeMap<ActorId>),
    /// Ranges with replica lists.
    Replica(ReplicaMap<ActorId>),
    /// Linear-hashing bucket map.
    Buckets(BucketMap<ActorId>),
    /// Hot-position overlay over one of the three base shapes.
    HotKeys {
        /// The replicated hot positions and their destinations.
        overlay: HotKeyOverlay,
        /// Base table answering every cold position.
        inner: Box<RoutingTable>,
    },
}

impl RoutingTable {
    /// The single destination for a build tuple.
    #[must_use]
    pub fn build_dest(&self, space: &PositionSpace, attr: JoinAttr) -> ActorId {
        self.build_dest_pos(space.position_of(attr))
    }

    /// [`Self::build_dest`] for a pre-computed hash position, so callers
    /// that also need the position (e.g. to insert into the local table)
    /// hash each attribute exactly once.
    #[must_use]
    pub fn build_dest_pos(&self, pos: u32) -> ActorId {
        match self {
            Self::Disjoint(m) => m.owner_of(pos),
            Self::Replica(m) => m.active_of(pos),
            // Linear hashing subdivides the position space ("disjoint
            // subranges of hash values", §4), so it addresses positions.
            Self::Buckets(m) => m.route(pos as u64),
            // Ticketless callers get a deterministic replica; the source
            // hot path round-robins via `HotKeyOverlay::pick` instead.
            Self::HotKeys { overlay, inner } => {
                if overlay.is_hot(pos) {
                    overlay.pick(pos as u64)
                } else {
                    inner.build_dest_pos(pos)
                }
            }
        }
    }

    /// Appends the probe destinations for a tuple to `out` (cleared first).
    /// Exactly one destination except for replicated ranges.
    pub fn probe_dests(&self, space: &PositionSpace, attr: JoinAttr, out: &mut Vec<ActorId>) {
        self.probe_dests_pos(space.position_of(attr), out);
    }

    /// [`Self::probe_dests`] for a pre-computed hash position.
    pub fn probe_dests_pos(&self, pos: u32, out: &mut Vec<ActorId>) {
        out.clear();
        match self {
            Self::Disjoint(m) => out.push(m.owner_of(pos)),
            Self::Replica(m) => {
                out.extend_from_slice(m.owners_of(pos));
            }
            Self::Buckets(m) => {
                out.push(m.route(pos as u64));
            }
            Self::HotKeys { overlay, inner } => {
                if overlay.is_hot(pos) {
                    overlay.push_probe_dests(pos as u64, out);
                } else {
                    inner.probe_dests_pos(pos, out);
                }
            }
        }
    }

    /// Dense index of the base-table entry — range, replica entry or bucket
    /// — covering `pos`, seen through a hot-key overlay. Every *cold*
    /// position with the same index has the same [`Self::build_dest_pos`]
    /// and [`Self::probe_dests_pos`], so callers can cache per entry what
    /// they would otherwise resolve per tuple. Indices are only comparable
    /// within one table value: any table change may renumber them.
    #[must_use]
    pub fn entry_index(&self, pos: u32) -> usize {
        match self {
            Self::Disjoint(m) => m.index_of(pos),
            Self::Replica(m) => m.index_of(pos),
            Self::Buckets(m) => m.bucket_of(pos as u64) as usize,
            Self::HotKeys { inner, .. } => inner.entry_index(pos),
        }
    }

    /// Calls `f(range, entry)` for every base-table entry in position
    /// order, `entry` being its [`Self::entry_index`]; the ranges tile the
    /// position space (empty buckets are skipped). A caller that settles
    /// something per range pays once per entry, not once per position.
    pub fn for_each_entry(&self, mut f: impl FnMut(HashRange, usize)) {
        match self {
            Self::Disjoint(m) => {
                for (i, &(range, _)) in m.entries().iter().enumerate() {
                    f(range, i);
                }
            }
            Self::Replica(m) => {
                for (i, e) in m.entries().iter().enumerate() {
                    f(e.range, i);
                }
            }
            Self::Buckets(m) => {
                for ((lo, hi), b) in m.ranges_in_order() {
                    f(HashRange::new(lo as u32, hi as u32), b as usize);
                }
            }
            Self::HotKeys { inner, .. } => inner.for_each_entry(f),
        }
    }

    /// The hot-key overlay, when one is installed.
    #[must_use]
    pub fn overlay(&self) -> Option<&HotKeyOverlay> {
        match self {
            Self::HotKeys { overlay, .. } => Some(overlay),
            _ => None,
        }
    }

    /// The base table a hot-key overlay wraps (self when none is
    /// installed). Algorithm-specific table surgery — replica extension,
    /// bucket splits, reshuffle installs — always operates on the base
    /// shape.
    #[must_use]
    pub fn inner(&self) -> &RoutingTable {
        match self {
            Self::HotKeys { inner, .. } => inner,
            other => other,
        }
    }

    /// Mutable [`Self::inner`].
    pub fn inner_mut(&mut self) -> &mut RoutingTable {
        match self {
            Self::HotKeys { inner, .. } => inner,
            other => other,
        }
    }

    /// Whether `node` owns `attr` for the build phase under this table.
    #[must_use]
    pub fn owns_build(&self, space: &PositionSpace, attr: JoinAttr, node: ActorId) -> bool {
        self.build_dest(space, attr) == node
    }

    /// Every node that currently holds (or receives) part of the table.
    #[must_use]
    pub fn all_nodes(&self) -> Vec<ActorId> {
        match self {
            Self::Disjoint(m) => m.owners(),
            Self::Replica(m) => m.all_nodes(),
            Self::Buckets(m) => m.distinct_owners(),
            Self::HotKeys { overlay, inner } => {
                let mut nodes = inner.all_nodes();
                for &n in overlay.replicas.iter().chain(&overlay.extra) {
                    if !nodes.contains(&n) {
                        nodes.push(n);
                    }
                }
                nodes
            }
        }
    }

    /// Approximate on-wire size of a routing broadcast carrying this table.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Self::Disjoint(m) => 16 * m.entries().len() as u64,
            Self::Replica(m) => m
                .entries()
                .iter()
                .map(|e| 12 + 4 * e.owners.len() as u64)
                .sum(),
            Self::Buckets(m) => 16 + 4 * m.bucket_count() as u64,
            Self::HotKeys { overlay, inner } => {
                4 * overlay.hot.len() as u64
                    + 4 * (overlay.replicas.len() + overlay.extra.len()) as u64
                    + inner.wire_bytes()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehj_hash::{AttrHasher, HashRange};

    fn space() -> PositionSpace {
        // positions == domain, so position == attribute value directly.
        PositionSpace::new(100, 100, AttrHasher::Identity)
    }

    #[test]
    fn disjoint_routes_by_range() {
        let t = RoutingTable::Disjoint(RangeMap::partitioned(100, &[10, 11, 12, 13]));
        let sp = space();
        assert_eq!(t.build_dest(&sp, 0), 10);
        assert_eq!(t.build_dest(&sp, 99), 13);
        let mut dests = Vec::new();
        t.probe_dests(&sp, 50, &mut dests);
        assert_eq!(dests, vec![12]);
        assert!(t.owns_build(&sp, 50, 12));
        assert!(!t.owns_build(&sp, 50, 10));
        assert_eq!(t.all_nodes(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn replica_broadcasts_probes_but_unicasts_builds() {
        let mut m = ReplicaMap::partitioned(100, &[10, 11]);
        let _ = m.replicate(11, 12);
        let t = RoutingTable::Replica(m);
        let sp = space();
        // Range [50,100) has owners [11, 12], active 12.
        assert_eq!(t.build_dest(&sp, 80), 12);
        let mut dests = Vec::new();
        t.probe_dests(&sp, 80, &mut dests);
        assert_eq!(dests, vec![11, 12]);
        t.probe_dests(&sp, 10, &mut dests);
        assert_eq!(dests, vec![10], "out must be cleared between calls");
    }

    #[test]
    fn buckets_route_by_linear_hashing() {
        // Position space: 100 positions over domain 1000 (identity).
        let mut m = BucketMap::new(vec![20, 21], 100);
        let _ = m.split(22);
        let t = RoutingTable::Buckets(m);
        let sp = space();
        // Bucket 0 was [0,50) positions; after the split its upper half
        // [25,50) belongs to the new bucket owned by 22.
        assert_eq!(t.build_dest(&sp, 10), 20);
        assert_eq!(t.build_dest(&sp, 30), 22);
        assert_eq!(t.build_dest(&sp, 70), 21);
        let mut dests = Vec::new();
        t.probe_dests(&sp, 30, &mut dests);
        assert_eq!(dests, vec![22]);
    }

    #[test]
    fn pos_based_routing_matches_attr_based() {
        let mut m = ReplicaMap::partitioned(100, &[10, 11]);
        let _ = m.replicate(11, 12);
        let tables = [
            RoutingTable::Disjoint(RangeMap::partitioned(100, &[10, 11, 12, 13])),
            RoutingTable::Replica(m),
            RoutingTable::Buckets(BucketMap::new(vec![20, 21], 100)),
        ];
        let sp = space();
        for t in &tables {
            for attr in [0, 37, 50, 99] {
                let pos = sp.position_of(attr);
                assert_eq!(t.build_dest(&sp, attr), t.build_dest_pos(pos));
                let (mut a, mut b) = (Vec::new(), Vec::new());
                t.probe_dests(&sp, attr, &mut a);
                t.probe_dests_pos(pos, &mut b);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn entry_index_groups_positions_that_route_alike() {
        let mut replica = ReplicaMap::partitioned(100, &[10, 11, 12]);
        let _ = replica.replicate(11, 14);
        let ranges = RangeMap::from_entries(vec![
            (HashRange::new(0, 25), 10),
            (HashRange::new(25, 30), 11),
            (HashRange::new(30, 50), 15),
            (HashRange::new(50, 75), 12),
            (HashRange::new(75, 100), 13),
        ]);
        let mut buckets = BucketMap::new(vec![20, 21], 100);
        let _ = buckets.split(22);
        let _ = buckets.split(23);
        let _ = buckets.split(24);
        let hot = hot_table();
        let tables = [
            (RoutingTable::Disjoint(ranges), 5),
            (RoutingTable::Replica(replica), 3),
            (RoutingTable::Buckets(buckets), 5),
            (hot.clone(), 4),
        ];
        for (t, entries) in &tables {
            // What the first position of each entry resolved to.
            let mut seen: Vec<Option<(ActorId, Vec<ActorId>)>> = vec![None; *entries];
            let mut dests = Vec::new();
            for pos in 0..100u32 {
                if t.overlay().is_some_and(|o| o.is_hot(pos)) {
                    continue;
                }
                let entry = t.entry_index(pos);
                assert!(entry < *entries, "indices are dense");
                t.probe_dests_pos(pos, &mut dests);
                let routed = (t.build_dest_pos(pos), dests.clone());
                let first = seen[entry].get_or_insert_with(|| routed.clone());
                assert_eq!(
                    *first, routed,
                    "position {pos} disagrees with entry {entry}"
                );
            }
            assert!(seen.iter().all(Option::is_some), "every entry is reachable");
            // The entry walk tiles the space with exactly these indices.
            let mut next = 0;
            t.for_each_entry(|range, entry| {
                assert_eq!(range.start, next, "entries are walked in order");
                for pos in range.start..range.end {
                    assert_eq!(t.entry_index(pos), entry, "position {pos}");
                }
                next = range.end;
            });
            assert_eq!(next, 100, "the walk covers the space");
        }
        // The wrapper numbers entries exactly as the table it wraps.
        for pos in 0..100u32 {
            assert_eq!(hot.entry_index(pos), hot.inner().entry_index(pos));
        }
    }

    fn hot_table() -> RoutingTable {
        RoutingTable::HotKeys {
            overlay: HotKeyOverlay {
                hot: vec![20, 40],
                replicas: vec![10, 11, 12],
                extra: vec![],
            },
            inner: Box::new(RoutingTable::Disjoint(RangeMap::partitioned(
                100,
                &[10, 11, 12, 13],
            ))),
        }
    }

    #[test]
    fn hot_keys_cold_positions_fall_through() {
        let t = hot_table();
        let sp = space();
        let inner = RoutingTable::Disjoint(RangeMap::partitioned(100, &[10, 11, 12, 13]));
        let mut a = Vec::new();
        let mut b = Vec::new();
        for attr in [0u64, 19, 21, 39, 41, 99] {
            assert_eq!(t.build_dest(&sp, attr), inner.build_dest(&sp, attr));
            t.probe_dests(&sp, attr, &mut a);
            inner.probe_dests(&sp, attr, &mut b);
            assert_eq!(a, b, "cold attr {attr} must route like the base table");
        }
    }

    #[test]
    fn hot_keys_hot_positions_route_to_one_replica() {
        let t = hot_table();
        let sp = space();
        let d = t.build_dest(&sp, 20);
        assert!([10, 11, 12].contains(&d));
        let mut dests = Vec::new();
        t.probe_dests(&sp, 40, &mut dests);
        assert_eq!(dests.len(), 1, "no extras: one replica answers the probe");
        assert!([10, 11, 12].contains(&dests[0]));
    }

    #[test]
    fn hot_keys_extras_ride_along_on_probes() {
        let mut t = hot_table();
        if let RoutingTable::HotKeys { overlay, .. } = &mut t {
            overlay.extra = vec![15];
        }
        let sp = space();
        let mut dests = Vec::new();
        t.probe_dests(&sp, 20, &mut dests);
        assert!(dests.contains(&15), "spilled member must see hot probes");
        assert_eq!(dests.len(), 2);
        t.probe_dests(&sp, 21, &mut dests);
        assert_eq!(dests, vec![10], "cold probes skip the extras");
        assert!(t.all_nodes().contains(&15));
    }

    #[test]
    fn hot_keys_inner_accessors_see_through() {
        let mut t = hot_table();
        assert!(t.overlay().is_some());
        assert!(matches!(t.inner(), RoutingTable::Disjoint(_)));
        assert!(matches!(t.inner_mut(), RoutingTable::Disjoint(_)));
        let plain = RoutingTable::Buckets(BucketMap::new(vec![1], 100));
        assert!(plain.overlay().is_none());
        assert!(matches!(plain.inner(), RoutingTable::Buckets(_)));
    }

    #[test]
    fn hot_overlay_round_robin_covers_all_replicas() {
        let o = HotKeyOverlay {
            hot: vec![5],
            replicas: vec![7, 8, 9],
            extra: vec![],
        };
        let picked: Vec<ActorId> = (0..6).map(|t| o.pick(t)).collect();
        assert_eq!(picked, vec![7, 8, 9, 7, 8, 9]);
        assert!(o.is_hot(5));
        assert!(!o.is_hot(6));
    }

    #[test]
    fn wire_bytes_grow_with_structure() {
        let small = RoutingTable::Disjoint(RangeMap::partitioned(100, &[1, 2]));
        let big = RoutingTable::Disjoint(RangeMap::partitioned(100, &[1, 2, 3, 4, 5, 6]));
        assert!(big.wire_bytes() > small.wire_bytes());
        let mut m = ReplicaMap::partitioned(100, &[1, 2]);
        let base = RoutingTable::Replica(m.clone()).wire_bytes();
        let _ = m.replicate(1, 3);
        assert!(RoutingTable::Replica(m).wire_bytes() > base);
    }
}
