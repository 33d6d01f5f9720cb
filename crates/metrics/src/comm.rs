//! Communication-volume accounting.
//!
//! Figures 4 and 11 plot the *extra* communication each algorithm causes,
//! in chunks, against a reference line at the size of relation R: the
//! split-based algorithm's redistribution traffic, the replication-based
//! algorithm's pending-buffer forwarding, the hybrid's reshuffle transfers,
//! and the replication-based probe phase's broadcast duplicates. Baseline
//! source→node delivery is counted separately so "extra" means exactly what
//! the paper plots.

use crate::phases::Phase;

/// What a message was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommCategory {
    /// Ordinary delivery of relation tuples from a data source to the one
    /// join node that owns them. Not "extra" communication.
    SourceDelivery,
    /// Split-based: elements of a split bucket shipped to the new node.
    SplitTransfer,
    /// Replication-based / hybrid: pending buffers forwarded from a full
    /// node to its new replica.
    ReplicaForward,
    /// Tuples a join node received but no longer owns (stale routing) and
    /// re-forwarded to the current owner.
    OwnershipForward,
    /// Hybrid: entries redistributed during the reshuffling step.
    ReshuffleTransfer,
    /// Replication-based probe: copies of a probe tuple beyond the first,
    /// broadcast to every replica of a range.
    ProbeBroadcastExtra,
}

impl CommCategory {
    /// All categories, dense order.
    pub const ALL: [CommCategory; 6] = [
        CommCategory::SourceDelivery,
        CommCategory::SplitTransfer,
        CommCategory::ReplicaForward,
        CommCategory::OwnershipForward,
        CommCategory::ReshuffleTransfer,
        CommCategory::ProbeBroadcastExtra,
    ];

    const fn index(self) -> usize {
        match self {
            Self::SourceDelivery => 0,
            Self::SplitTransfer => 1,
            Self::ReplicaForward => 2,
            Self::OwnershipForward => 3,
            Self::ReshuffleTransfer => 4,
            Self::ProbeBroadcastExtra => 5,
        }
    }

    /// Whether the paper counts this category as *extra* communication.
    #[must_use]
    pub const fn is_extra(self) -> bool {
        !matches!(self, Self::SourceDelivery)
    }
}

/// One cell of the accounting matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommCell {
    /// Messages (the paper's "chunks" when tuples are involved).
    pub messages: u64,
    /// Tuples carried.
    pub tuples: u64,
    /// Bytes carried (payload-inclusive).
    pub bytes: u64,
}

impl CommCell {
    fn add(&mut self, tuples: u64, bytes: u64) {
        self.messages += 1;
        self.tuples += tuples;
        self.bytes += bytes;
    }
}

/// Per-phase, per-category communication counters for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommCounters {
    cells: [[CommCell; 6]; 3],
    /// Tuple count a "chunk" is normalized to when reporting chunk volumes
    /// (the paper uses 10 000-tuple chunks).
    chunk_tuples: u64,
}

impl CommCounters {
    /// Creates counters normalizing chunk volume to `chunk_tuples`.
    #[must_use]
    pub fn new(chunk_tuples: u64) -> Self {
        Self {
            cells: Default::default(),
            chunk_tuples: chunk_tuples.max(1),
        }
    }

    /// Records one message of `tuples` tuples / `bytes` bytes.
    pub fn record(&mut self, phase: Phase, cat: CommCategory, tuples: u64, bytes: u64) {
        self.cells[phase.index()][cat.index()].add(tuples, bytes);
    }

    /// Records tuple/byte volume without a message (used when one physical
    /// chunk mixes categories, e.g. probe broadcasts where only the copies
    /// beyond the first are "extra").
    pub fn record_tuples(&mut self, phase: Phase, cat: CommCategory, tuples: u64, bytes: u64) {
        let cell = &mut self.cells[phase.index()][cat.index()];
        cell.tuples += tuples;
        cell.bytes += bytes;
    }

    /// The cell for `(phase, cat)`.
    #[must_use]
    pub fn cell(&self, phase: Phase, cat: CommCategory) -> CommCell {
        self.cells[phase.index()][cat.index()]
    }

    /// Total tuples in *extra* categories during `phase`.
    #[must_use]
    pub fn extra_tuples(&self, phase: Phase) -> u64 {
        CommCategory::ALL
            .iter()
            .filter(|c| c.is_extra())
            .map(|c| self.cell(phase, *c).tuples)
            .sum()
    }

    /// Extra communication during `phase` in paper chunks (tuples divided
    /// by the chunk size, rounded up) — the Figures 4/11 metric.
    #[must_use]
    pub fn extra_chunks(&self, phase: Phase) -> u64 {
        self.extra_tuples(phase).div_ceil(self.chunk_tuples)
    }

    /// Total bytes across every category and phase.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|row| row.iter())
            .map(|c| c.bytes)
            .sum()
    }

    /// Merges another counter set into this one (aggregating across nodes).
    pub fn merge(&mut self, other: &Self) {
        for p in 0..3 {
            for c in 0..6 {
                let o = other.cells[p][c];
                self.cells[p][c].messages += o.messages;
                self.cells[p][c].tuples += o.tuples;
                self.cells[p][c].bytes += o.bytes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut c = CommCounters::new(100);
        c.record(Phase::Build, CommCategory::SourceDelivery, 100, 11_600);
        c.record(Phase::Build, CommCategory::SplitTransfer, 50, 5_800);
        let cell = c.cell(Phase::Build, CommCategory::SplitTransfer);
        assert_eq!(cell.messages, 1);
        assert_eq!(cell.tuples, 50);
        assert_eq!(cell.bytes, 5_800);
    }

    #[test]
    fn extra_excludes_source_delivery() {
        let mut c = CommCounters::new(10);
        c.record(Phase::Build, CommCategory::SourceDelivery, 1000, 0);
        c.record(Phase::Build, CommCategory::SplitTransfer, 25, 0);
        c.record(Phase::Build, CommCategory::ReplicaForward, 5, 0);
        assert_eq!(c.extra_tuples(Phase::Build), 30);
        assert_eq!(c.extra_chunks(Phase::Build), 3);
        assert_eq!(c.extra_tuples(Phase::Probe), 0);
    }

    #[test]
    fn chunks_round_up() {
        let mut c = CommCounters::new(10);
        c.record(Phase::Probe, CommCategory::ProbeBroadcastExtra, 11, 0);
        assert_eq!(c.extra_chunks(Phase::Probe), 2);
    }

    #[test]
    fn totals_span_phases() {
        let mut c = CommCounters::new(10);
        c.record(Phase::Build, CommCategory::SplitTransfer, 10, 100);
        c.record(Phase::Reshuffle, CommCategory::ReshuffleTransfer, 20, 200);
        c.record(Phase::Probe, CommCategory::ProbeBroadcastExtra, 30, 300);
        c.record(Phase::Probe, CommCategory::SourceDelivery, 99, 990);
        assert_eq!(c.extra_chunks(Phase::Build), 1);
        assert_eq!(c.extra_chunks(Phase::Reshuffle), 2);
        assert_eq!(c.extra_chunks(Phase::Probe), 3, "delivery is not extra");
        assert_eq!(c.total_bytes(), 1590);
    }

    #[test]
    fn merge_aggregates() {
        let mut a = CommCounters::new(10);
        a.record(Phase::Build, CommCategory::SplitTransfer, 10, 100);
        let mut b = CommCounters::new(10);
        b.record(Phase::Build, CommCategory::SplitTransfer, 5, 50);
        b.record(Phase::Probe, CommCategory::SourceDelivery, 1, 10);
        a.merge(&b);
        let cell = a.cell(Phase::Build, CommCategory::SplitTransfer);
        assert_eq!((cell.messages, cell.tuples, cell.bytes), (2, 15, 150));
        assert_eq!(a.cell(Phase::Probe, CommCategory::SourceDelivery).tuples, 1);
    }

    #[test]
    fn zero_chunk_size_clamps_to_one() {
        let mut c = CommCounters::new(0);
        c.record(Phase::Build, CommCategory::SplitTransfer, 7, 0);
        assert_eq!(c.extra_chunks(Phase::Build), 7);
    }
}
