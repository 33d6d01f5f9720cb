//! The phase barrier's books.
//!
//! Phase barriers are *counting* barriers settled by events, with no
//! timer: sources report how many chunks they sent; once a phase's
//! preconditions hold, a `FlushQuery` wave *arms* every active node, which
//! acks its `(received, forwarded, pending)` counts at once and again
//! whenever they move. The scheduler keeps each node's latest counts and
//! settles the phase the moment every chunk is accounted for and no node
//! has unhoused (pending) tuples. A wave is stamped with the routing
//! version it was armed under and re-armed when that moves (an expansion
//! changes who must be polled) — the same path on both backends, where
//! cross-sender message ordering is not guaranteed.
//!
//! [`Wave`] is the scheduler's half and [`Tally`] a join node's. Both are
//! plain data, with no context and no messages: the actors call them and
//! send what they return. The preconditions (every source done, no
//! overflow queued, no split, reshuffle or hand-off outstanding) read
//! scheduler state, so the scheduler evaluates them and passes the result
//! in as the *gate*.
//!
//! `tests/barrier.rs` explores every per-channel-FIFO delivery order of a
//! small model built from these two types (DESIGN §4 states the bound) and
//! checks that no phase settles with a chunk in flight or a tuple pending,
//! and that no order stalls.

use ehj_metrics::Phase;
use ehj_sim::ActorId;

/// A node's counts for the phase it is armed for: what one
/// [`Msg::FlushAck`](crate::msg::Msg::FlushAck) carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Counts {
    /// Data chunks received in the phase.
    pub recv: u64,
    /// Data chunks forwarded in the phase.
    pub fwd: u64,
    /// Tuples still pending (unhoused) at the node.
    pub pending: u64,
}

/// What the scheduler must do after [`Wave::try_settle`].
#[derive(Debug, PartialEq, Eq)]
pub enum Step<'a> {
    /// Nothing yet: the gate is shut, an ack is missing, or the counts do
    /// not balance.
    Wait,
    /// A new wave under `epoch`: send a `FlushQuery` to each of `poll`, in
    /// order.
    Arm {
        /// The new wave's epoch.
        epoch: u64,
        /// The actors to poll.
        poll: &'a [ActorId],
    },
    /// The phase is over: every chunk sent is received and nothing is
    /// pending.
    Settled,
}

/// The scheduler's side: the current wave and the phase's source tally.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Wave {
    epoch: u64,
    /// Routing version the current wave was armed under; `None` between
    /// waves (nothing armed yet, or the last one settled).
    version: Option<u64>,
    /// The actors the wave polled, in the order they were given.
    poll: Vec<ActorId>,
    /// The latest counts from each of `poll`.
    acks: Vec<Option<Counts>>,
    sources_done: usize,
    src_sent: u64,
}

impl Wave {
    /// Starts a phase's source tally: no source done, no chunk sent.
    pub fn start_phase(&mut self) {
        self.sources_done = 0;
        self.src_sent = 0;
    }

    /// One source finished the phase having sent `sent_chunks`.
    pub fn source_done(&mut self, sent_chunks: u64) {
        self.sources_done += 1;
        self.src_sent += sent_chunks;
    }

    /// Sources done in the current phase.
    #[must_use]
    pub fn sources_done(&self) -> usize {
        self.sources_done
    }

    /// Arms, re-arms or settles. With the gate shut nothing happens. With
    /// it open, a wave not armed under routing `version` is armed afresh
    /// under a new epoch, polling `active()`; otherwise the phase settles
    /// once every polled actor has acked, nothing is pending and the
    /// chunks received equal those the sources sent plus those forwarded.
    pub fn try_settle(
        &mut self,
        gate: bool,
        version: u64,
        active: impl FnOnce() -> Vec<ActorId>,
    ) -> Step<'_> {
        if !gate {
            return Step::Wait;
        }
        if self.version != Some(version) {
            self.epoch += 1;
            self.version = Some(version);
            self.poll = active();
            self.acks.clear();
            self.acks.resize(self.poll.len(), None);
            return Step::Arm {
                epoch: self.epoch,
                poll: &self.poll,
            };
        }
        let mut sum = Counts::default();
        for ack in &self.acks {
            let Some(c) = ack else { return Step::Wait };
            sum = Counts {
                recv: sum.recv + c.recv,
                fwd: sum.fwd + c.fwd,
                pending: sum.pending + c.pending,
            };
        }
        if sum.pending == 0 && sum.recv == self.src_sent + sum.fwd {
            self.version = None;
            return Step::Settled;
        }
        Step::Wait
    }

    /// Keeps `counts` as `from`'s latest. An ack of another epoch, or from
    /// an actor the wave did not poll, counts for nothing. Returns whether
    /// it was kept (only then can the wave settle).
    pub fn record_ack(&mut self, from: ActorId, epoch: u64, counts: Counts) -> bool {
        if epoch != self.epoch {
            return false;
        }
        let Some(i) = self.poll.iter().position(|&a| a == from) else {
            return false;
        };
        self.acks[i] = Some(counts);
        true
    }

    /// The latest wave's epoch (0 before the first).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a wave is armed and not yet settled.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.version.is_some()
    }

    /// `actor`'s latest counts under the latest wave: `None` if the wave
    /// did not poll it, `Some(None)` if it has not acked.
    #[must_use]
    pub fn ack(&self, actor: ActorId) -> Option<Option<Counts>> {
        let i = self.poll.iter().position(|&a| a == actor)?;
        Some(self.acks[i])
    }
}

/// A join node's side: chunks received and forwarded per phase, and the
/// wave it is armed for.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Tally {
    recv: [u64; 3],
    fwd: [u64; 3],
    armed: Option<Armed>,
}

/// The wave a node is armed for and the counts it last acked under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Armed {
    epoch: u64,
    phase: Phase,
    acked: Option<Counts>,
}

impl Tally {
    /// One data chunk of `phase` arrived.
    pub fn received(&mut self, phase: Phase) {
        self.recv[phase.index()] += 1;
    }

    /// One data chunk of `phase` left for another node.
    pub fn forwarded(&mut self, phase: Phase) {
        self.fwd[phase.index()] += 1;
    }

    /// Arms for the wave `epoch` draining `phase`; the next [`Self::ack`]
    /// answers it.
    pub fn arm(&mut self, epoch: u64, phase: Phase) {
        self.armed = Some(Armed {
            epoch,
            phase,
            acked: None,
        });
    }

    /// Called at the end of every handler, with the node's pending tuple
    /// count: the epoch and counts to ack when armed and they differ from
    /// the last ones acked under this arming, else `None`.
    pub fn ack(&mut self, pending: u64) -> Option<(u64, Counts)> {
        let armed = self.armed.as_mut()?;
        let i = armed.phase.index();
        let counts = Counts {
            recv: self.recv[i],
            fwd: self.fwd[i],
            pending,
        };
        if armed.acked == Some(counts) {
            return None;
        }
        armed.acked = Some(counts);
        Some((armed.epoch, counts))
    }
}
