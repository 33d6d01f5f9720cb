//! The message protocol between scheduler, data sources and join processes.

use crate::routing::RoutingTable;
use ehj_data::TupleBatch;
use ehj_hash::{HashRange, SpaceSaving, SplitStep};
use ehj_metrics::{CommCounters, Phase};
use ehj_sim::{ActorId, Message};

/// Wire size charged for a bare control message.
pub const CONTROL_BYTES: u64 = 64;

/// A sparse-or-dense per-position entry histogram (reshuffle global sum
/// input). Stored dense; charged on the wire at whichever encoding is
/// smaller, as a real implementation would send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-position counts, relative to the queried range start.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// On-wire bytes: dense (8 B/cell) vs sparse (12 B per non-zero cell),
    /// whichever is smaller, plus a header.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        let dense = 8 * self.counts.len() as u64;
        let sparse = 12 * self.counts.iter().filter(|&&c| c != 0).count() as u64;
        CONTROL_BYTES + dense.min(sparse)
    }
}

/// Per-node final report returned to the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Tuples resident in the node's table at the end (post-reshuffle).
    pub build_tuples: u64,
    /// Matches found by this node's probes.
    pub matches: u64,
    /// Chain comparisons performed.
    pub compares: u64,
    /// This node's communication counters.
    pub comm: CommCounters,
    /// Whether the node spilled out of core.
    pub spilled: bool,
}

/// Everything that flows between actors.
#[derive(Debug, Clone)]
pub enum Msg {
    // ---- scheduler → join nodes ----
    /// Activates a join node (initial setup or recruitment) with the
    /// current routing state. Handling charges the recruit latency.
    Activate {
        /// Routing table at activation time.
        routing: RoutingTable,
        /// Routing version.
        version: u64,
    },
    /// New routing state after an expansion (broadcast to sources too).
    RoutingUpdate {
        /// The new table.
        routing: RoutingTable,
        /// Monotonic version; stale updates are ignored.
        version: u64,
    },
    /// Linear-pointer split: the addressed node owns `step.old` and must
    /// ship the elements whose position falls in the upper half
    /// (`>= step.mid`) to `new_node`.
    SplitRequest {
        /// What to split.
        step: SplitStep,
        /// Actor receiving the new bucket.
        new_node: ActorId,
    },
    /// Reshuffle step 1: report the per-position histogram of `range`.
    ReshuffleQuery {
        /// Replica-set group id.
        group: u32,
        /// The replicated range.
        range: HashRange,
    },
    /// Reshuffle step 2: the new disjoint partitioning of the group's
    /// range; ship entries you hold that now belong to others.
    ReshufflePlan {
        /// Replica-set group id.
        group: u32,
        /// `(subrange, owner)` assignments covering the group's range.
        assignments: Vec<(HashRange, ActorId)>,
    },
    /// Hot-key replication hand-off: the addressed node must copy (not
    /// remove) its tuples at the listed hot positions to every *other*
    /// member, so each clean member ends with the full hot build side
    /// (DESIGN §4i).
    HotKeyPlan {
        /// Hot hash positions, sorted ascending.
        positions: Vec<u32>,
        /// The clean replica set sharing the hot build tuples.
        members: Vec<ActorId>,
    },
    /// No potential nodes remain (or the split pointer has reached a
    /// spilled bucket): fall back to spilling out of core.
    NoMoreNodes,
    /// Arms the node for a phase-barrier wave: it acks its counts for
    /// `phase` at once and again whenever they move.
    FlushQuery {
        /// Wave epoch (acks from older epochs are ignored).
        epoch: u64,
        /// Phase being drained.
        phase: Phase,
    },
    /// Request the node's final [`NodeReport`] (triggers out-of-core
    /// finalize on spilled nodes).
    ReportRequest,

    // ---- scheduler → data sources ----
    /// Begin generating and routing the build relation.
    StartBuild {
        /// Build routing.
        routing: RoutingTable,
        /// Routing version.
        version: u64,
    },
    /// Begin generating and routing the probe relation.
    StartProbe {
        /// Probe routing (final; never changes during the probe).
        routing: RoutingTable,
        /// Routing version.
        version: u64,
    },

    // ---- join nodes → scheduler ----
    /// "Memory for data elements cannot be allocated" (§4.1.3).
    MemoryFull,
    /// Retracts an earlier [`Msg::MemoryFull`]: the node's pending queue
    /// drained (a split or ownership change relieved it), so any still-
    /// queued overflow report for it must not trigger another split.
    Relieved,
    /// This node went out of core. Its table contents now live in spill
    /// files, so its bucket can no longer be split: the scheduler stops
    /// advancing the split pointer through it.
    Spilled,
    /// A linear-pointer split completed at the old bucket's owner.
    SplitDone {
        /// The split that completed.
        step: SplitStep,
        /// Tuples shipped to the new bucket.
        moved_tuples: u64,
    },
    /// Reshuffle histogram reply.
    ReshuffleCounts {
        /// Replica-set group id.
        group: u32,
        /// Per-position counts over the queried range.
        histogram: Histogram,
    },
    /// This node finished shipping reshuffle entries.
    ReshuffleDone {
        /// Replica-set group id.
        group: u32,
    },
    /// Hot-key hand-off complete at this node.
    HotKeyDone,
    /// An armed node's current counts: the first answers the
    /// [`Msg::FlushQuery`], later ones are unprompted.
    FlushAck {
        /// Epoch the node is armed under.
        epoch: u64,
        /// Cumulative data chunks received in the armed phase.
        recv_chunks: u64,
        /// Cumulative data chunks this node forwarded in the armed phase.
        fwd_chunks: u64,
        /// Tuples still pending (unhoused) at this node.
        pending: u64,
    },
    /// Final per-node statistics.
    Report(Box<NodeReport>),

    // ---- data sources → scheduler ----
    /// Cumulative space-saving sketch of this source's build key stream so
    /// far (replaces, not adds to, the source's previous snapshot at the
    /// scheduler). Sent at a tuple threshold and then at each doubling.
    SketchUpdate {
        /// The source's sketch over hash positions.
        sketch: SpaceSaving,
    },
    /// A source finished generating and flushing one phase.
    SourcePhaseDone {
        /// Chunks this source sent to join nodes in that phase.
        sent_chunks: u64,
        /// The source's communication counters (moved, not merged, so the
        /// scheduler aggregates exactly once).
        comm: Box<CommCounters>,
    },

    // ---- data plane (any → join nodes) ----
    /// A batch of tuples. `tuple_bytes` is the schema's payload-inclusive
    /// row size, carried so the wire charge is payload-accurate. The batch
    /// is a shared view: fanning one out to every replica of a range clones
    /// an `Arc`, not the tuples. Why it was sent (delivery, split transfer,
    /// forward, ...) is recorded in the sender's communication counters.
    Data {
        /// Phase the data belongs to.
        phase: Phase,
        /// The tuples.
        tuples: TupleBatch,
        /// Row size under the run's schema.
        tuple_bytes: u64,
    },

    /// A batch of hot-key build-tuple *copies* from a peer's hand-off.
    /// Distinct from [`Msg::Data`] so a receiver that has not yet processed
    /// its own [`Msg::HotKeyPlan`] can stash the copies and insert them
    /// only after extracting its own hot set — otherwise it would re-ship a
    /// peer's copies under threaded timing.
    HotKeyData {
        /// The copied tuples.
        tuples: TupleBatch,
        /// Row size under the run's schema.
        tuple_bytes: u64,
    },

    /// Flow-control credit: acknowledges one [`Msg::Data`] chunk back to
    /// its sender (TCP-receive-window emulation; see `source.rs`).
    DataAck,

    // ---- self-sends ----
    /// Data-source generation step.
    GenStep,
}

impl Message for Msg {
    fn wire_bytes(&self) -> u64 {
        match self {
            Msg::Data {
                tuples,
                tuple_bytes,
                ..
            }
            | Msg::HotKeyData {
                tuples,
                tuple_bytes,
            } => CONTROL_BYTES + tuples.len() as u64 * tuple_bytes,
            Msg::Activate { routing, .. }
            | Msg::RoutingUpdate { routing, .. }
            | Msg::StartBuild { routing, .. }
            | Msg::StartProbe { routing, .. } => CONTROL_BYTES + routing.wire_bytes(),
            Msg::ReshuffleCounts { histogram, .. } => histogram.wire_bytes(),
            Msg::ReshufflePlan { assignments, .. } => CONTROL_BYTES + 16 * assignments.len() as u64,
            Msg::HotKeyPlan { positions, members } => {
                CONTROL_BYTES + 4 * (positions.len() + members.len()) as u64
            }
            Msg::SketchUpdate { sketch } => CONTROL_BYTES + sketch.wire_bytes(),
            Msg::SourcePhaseDone { .. } | Msg::Report(_) => 256,
            _ => CONTROL_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehj_data::Tuple;
    use ehj_hash::ReplicaMap;

    #[test]
    fn data_wire_bytes_include_payload() {
        let m = Msg::Data {
            phase: Phase::Build,
            tuples: vec![Tuple::new(0, 0); 10].into(),
            tuple_bytes: 116,
        };
        assert_eq!(m.wire_bytes(), CONTROL_BYTES + 1160);
    }

    #[test]
    fn control_messages_are_small() {
        assert_eq!(Msg::GenStep.wire_bytes(), CONTROL_BYTES);
        assert_eq!(Msg::ReportRequest.wire_bytes(), CONTROL_BYTES);
        assert_eq!(Msg::MemoryFull.wire_bytes(), CONTROL_BYTES);
    }

    #[test]
    fn routing_messages_scale_with_table() {
        let small = Msg::RoutingUpdate {
            routing: RoutingTable::Replica(ReplicaMap::partitioned(100, &[1, 2])),
            version: 1,
        };
        let large = Msg::RoutingUpdate {
            routing: RoutingTable::Replica(ReplicaMap::partitioned(100, &[1, 2, 3, 4, 5, 6, 7, 8])),
            version: 1,
        };
        assert!(large.wire_bytes() > small.wire_bytes());
    }

    #[test]
    fn hotkey_messages_charge_their_payloads() {
        let data = Msg::HotKeyData {
            tuples: vec![Tuple::new(0, 0); 5].into(),
            tuple_bytes: 116,
        };
        assert_eq!(data.wire_bytes(), CONTROL_BYTES + 580);
        let plan = Msg::HotKeyPlan {
            positions: vec![1, 2, 3],
            members: vec![10, 11],
        };
        assert_eq!(plan.wire_bytes(), CONTROL_BYTES + 20);
        let mut sk = SpaceSaving::new(8);
        sk.observe(42);
        let upd = Msg::SketchUpdate { sketch: sk };
        assert_eq!(upd.wire_bytes(), CONTROL_BYTES + 24);
        assert_eq!(Msg::HotKeyDone.wire_bytes(), CONTROL_BYTES);
    }

    #[test]
    fn histogram_wire_picks_smaller_encoding() {
        // Dense wins: all cells non-zero.
        let h = Histogram {
            counts: vec![1; 100],
        };
        assert_eq!(h.wire_bytes(), CONTROL_BYTES + 800);
        // Sparse wins: one non-zero cell out of 100.
        let mut counts = vec![0u64; 100];
        counts[50] = 7;
        let h = Histogram { counts };
        assert_eq!(h.wire_bytes(), CONTROL_BYTES + 12);
    }
}
