//! The phase barrier, checked over every delivery order.
//!
//! A breadth-first explorer runs a small model of the barrier protocol
//! whose books are the shipped [`Wave`] and [`Tally`]. A state is the
//! scheduler's wave and gate inputs, each source's progress, each node's
//! tally and `pending`, and one FIFO per (sender, receiver) channel. From
//! every state the explorer delivers each channel's head in turn (any
//! order that keeps each channel in order, which is every order the two
//! backends can produce) and dedupes the states it reaches by hash.
//!
//! The model's three phases mirror a hybrid query:
//! - *build*: the sources send `chunks` chunks between them, one per step,
//!   to the owner of its key (every even chunk is node 0's, the odd ones go round
//!   the other nodes). Node 0 is full: a
//!   chunk it owns is parked in `pending` and reported once (`MemoryFull`).
//!   The scheduler recruits the spare, bumps the routing version and
//!   broadcasts it, so node 0's range moves to the recruit. Node 0 then
//!   forwards its `pending` chunks on the update, and any chunk routed to it
//!   under the old version it forwards as it receives it (receipt and
//!   forward in one handler). The recruit takes messages only once its
//!   first routing update, its copy of that broadcast, has arrived.
//! - *move*: node 0 and the recruit (the replicated range's two members)
//!   are queried, reply, get a plan, and each moves one chunk to the other.
//!   Each mover sends its chunk, then its done report to the scheduler, then
//!   its re-ack, in handler order. The gate waits for both done reports.
//! - *probe*: after a version bump each source sends one chunk.
//!
//! The gate mirrors `Scheduler::barrier_preconditions_met`: every source
//! done in the build and the probe, both movers done in the move. Source
//! credit and data acks are left out: a window of four chunks never binds
//! on four chunks, and nothing in the barrier reads a data ack.
//!
//! Checked: at every settle no channel holds a data chunk and every
//! `pending` is 0; no chunk is sent in a phase that has settled; and every
//! state with no delivery left has finished the probe (no stall).

use ehj_core::barrier::{Counts, Step, Tally, Wave};
use ehj_metrics::Phase;
use ehj_sim::ActorId;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Instant;

const SCHED: ActorId = 0;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum M {
    /// A source's next step, sent to itself.
    GenStep,
    Data {
        phase: Phase,
        key: usize,
    },
    RoutingUpdate {
        version: u64,
    },
    StartProbe {
        version: u64,
    },
    FlushQuery {
        epoch: u64,
        phase: Phase,
    },
    FlushAck {
        epoch: u64,
        counts: Counts,
    },
    SourceDone {
        sent: u64,
    },
    MemoryFull,
    MoveQuery,
    MoveCounts,
    MovePlan,
    MoveDone,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Sched {
    phase: Phase,
    finished: bool,
    version: u64,
    wave: Wave,
    recruited: bool,
    move_counts: u8,
    move_done: u8,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Source {
    phase: Phase,
    /// Chunks sent so far in the current phase.
    sent: u64,
    view: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Node {
    active: bool,
    view: u64,
    tally: Tally,
    pending: u64,
    reported_full: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    sched: Sched,
    sources: Vec<Source>,
    /// Nodes `0..nodes` start active; the last is the spare.
    nodes: Vec<Node>,
    /// Messages in flight as `(from, to, msg)`, sorted by channel with each
    /// channel in send order, so equal channel contents compare equal.
    chans: Vec<(ActorId, ActorId, M)>,
}

/// What one delivery did, for the coverage check.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    settle: bool,
    stale_forward: bool,
    pending_forward: bool,
    rearm: bool,
}

/// The model's bound: sources, initially active nodes (a spare is added),
/// and build chunks (dealt round the sources).
#[derive(Debug, Clone, Copy)]
struct Bound {
    sources: usize,
    nodes: usize,
    chunks: u64,
}

enum Role {
    Sched,
    Source(usize),
    Node(usize),
}

impl Bound {
    fn source(self, s: usize) -> ActorId {
        1 + s as ActorId
    }

    fn node(self, n: usize) -> ActorId {
        1 + (self.sources + n) as ActorId
    }

    fn spare(self) -> usize {
        self.nodes
    }

    fn role(self, id: ActorId) -> Role {
        let i = id as usize;
        if i == 0 {
            Role::Sched
        } else if i <= self.sources {
            Role::Source(i - 1)
        } else {
            Role::Node(i - 1 - self.sources)
        }
    }

    /// Build chunks source `s` sends: chunks are dealt round the sources.
    fn build_chunks(self, s: usize) -> u64 {
        (self.chunks + (self.sources - 1 - s) as u64) / self.sources as u64
    }

    /// Build chunk `j`'s key: every other chunk is node 0's, so it gets
    /// one to park and one to forward; the rest go round the others.
    fn build_key(self, j: u64) -> usize {
        if j % 2 == 0 {
            0
        } else {
            1 + (j / 2) as usize % (self.nodes - 1)
        }
    }

    /// Node owning `key` under routing `view`: the recruit (version 2)
    /// takes over node 0's range.
    fn owner(self, view: u64, key: usize) -> usize {
        if key == 0 && view >= 2 {
            self.spare()
        } else {
            key
        }
    }

    fn active(self, recruited: bool) -> Vec<ActorId> {
        let n = self.nodes + usize::from(recruited);
        (0..n).map(|i| self.node(i)).collect()
    }

    fn initial(self) -> State {
        let node = |active| Node {
            active,
            view: u64::from(active),
            tally: Tally::default(),
            pending: 0,
            reported_full: false,
        };
        let mut nodes: Vec<Node> = (0..self.nodes).map(|_| node(true)).collect();
        nodes.push(node(false));
        let mut state = State {
            sched: Sched {
                phase: Phase::Build,
                finished: false,
                version: 1,
                wave: Wave::default(),
                recruited: false,
                move_counts: 0,
                move_done: 0,
            },
            sources: vec![
                Source {
                    phase: Phase::Build,
                    sent: 0,
                    view: 1,
                };
                self.sources
            ],
            nodes,
            chans: Vec::new(),
        };
        for s in 0..self.sources {
            let id = self.source(s);
            enqueue(&mut state.chans, id, id, M::GenStep);
        }
        state
    }

    /// The channels whose head can be delivered: the spare takes nothing
    /// before its first routing update activates it (a join node queues it
    /// until then).
    fn enabled(self, state: &State) -> Vec<(ActorId, ActorId)> {
        let mut out = Vec::new();
        let mut last = None;
        for &(from, to, ref msg) in &state.chans {
            if last.replace((from, to)) == Some((from, to)) {
                continue; // not the channel's head
            }
            let waiting = matches!(self.role(to), Role::Node(n) if !state.nodes[n].active);
            if !waiting || matches!(msg, M::RoutingUpdate { .. }) {
                out.push((from, to));
            }
        }
        out
    }

    /// Delivers the head of channel `from → to`. `Err` names a violated
    /// check.
    fn deliver(self, state: &State, from: ActorId, to: ActorId) -> Result<(State, Seen), String> {
        let mut next = state.clone();
        let at = next
            .chans
            .iter()
            .position(|(f, t, _)| (*f, *t) == (from, to))
            .expect("enabled channel");
        let (_, _, msg) = next.chans.remove(at);
        let mut out = Vec::new();
        let mut seen = Seen::default();
        match self.role(to) {
            Role::Sched => self.on_sched(&mut next.sched, from, msg, &mut out, &mut seen),
            Role::Source(s) => self.on_source(s, &mut next.sources[s], msg, &mut out),
            Role::Node(n) => self.on_node(n, &mut next.nodes[n], msg, &mut out, &mut seen),
        }
        for (dest, msg) in out {
            if let M::Data { phase, .. } = msg {
                let sched = &next.sched;
                if sched.finished || phase.index() < sched.phase.index() {
                    return Err(format!(
                        "a {phase:?} chunk was sent after its phase settled"
                    ));
                }
            }
            enqueue(&mut next.chans, to, dest, msg);
        }
        if seen.settle {
            if next
                .chans
                .iter()
                .any(|(_, _, m)| matches!(m, M::Data { .. }))
            {
                return Err("a phase settled with a data chunk in flight".into());
            }
            if next.nodes.iter().any(|n| n.pending > 0) {
                return Err("a phase settled with a tuple pending".into());
            }
        }
        Ok((next, seen))
    }

    fn on_sched(
        self,
        sc: &mut Sched,
        from: ActorId,
        msg: M,
        out: &mut Vec<(ActorId, M)>,
        seen: &mut Seen,
    ) {
        match msg {
            M::SourceDone { sent } => sc.wave.source_done(sent),
            M::FlushAck { epoch, counts } => {
                if !sc.wave.record_ack(from, epoch, counts) {
                    return;
                }
            }
            M::MemoryFull => {
                if !sc.recruited {
                    sc.recruited = true;
                    sc.version += 1;
                    let version = sc.version;
                    for s in 0..self.sources {
                        out.push((self.source(s), M::RoutingUpdate { version }));
                    }
                    for a in self.active(true) {
                        out.push((a, M::RoutingUpdate { version }));
                    }
                }
            }
            M::MoveCounts => {
                sc.move_counts += 1;
                if sc.move_counts == 2 {
                    out.push((self.node(0), M::MovePlan));
                    out.push((self.node(self.spare()), M::MovePlan));
                }
                return;
            }
            M::MoveDone => sc.move_done += 1,
            other => panic!("the scheduler takes no {other:?}"),
        }
        self.try_settle(sc, out, seen);
    }

    /// The scheduler's `try_settle`, with the model's gate.
    fn try_settle(self, sc: &mut Sched, out: &mut Vec<(ActorId, M)>, seen: &mut Seen) {
        let gate = !sc.finished
            && match sc.phase {
                Phase::Build | Phase::Probe => sc.wave.sources_done() >= self.sources,
                Phase::Reshuffle => sc.move_done == 2,
            };
        let (phase, armed, recruited) = (sc.phase, sc.wave.is_armed(), sc.recruited);
        match sc
            .wave
            .try_settle(gate, sc.version, || self.active(recruited))
        {
            Step::Wait => {}
            Step::Arm { epoch, poll } => {
                seen.rearm |= armed;
                out.extend(poll.iter().map(|&a| (a, M::FlushQuery { epoch, phase })));
            }
            Step::Settled => {
                seen.settle = true;
                self.advance(sc, out);
            }
        }
    }

    fn advance(self, sc: &mut Sched, out: &mut Vec<(ActorId, M)>) {
        match sc.phase {
            Phase::Build => {
                assert!(sc.recruited, "the model always recruits in the build");
                sc.wave.start_phase();
                sc.phase = Phase::Reshuffle;
                out.push((self.node(0), M::MoveQuery));
                out.push((self.node(self.spare()), M::MoveQuery));
            }
            Phase::Reshuffle => {
                sc.wave.start_phase();
                sc.phase = Phase::Probe;
                sc.version += 1;
                let version = sc.version;
                for s in 0..self.sources {
                    out.push((self.source(s), M::StartProbe { version }));
                }
            }
            Phase::Probe => sc.finished = true,
        }
    }

    fn on_source(self, s: usize, src: &mut Source, msg: M, out: &mut Vec<(ActorId, M)>) {
        match msg {
            M::GenStep => {
                // Source `s` sends build chunks `s`, `s + sources`, ... below
                // `chunks`, and one probe chunk.
                let (total, key) = match src.phase {
                    Phase::Probe => (1, s % self.nodes),
                    _ => {
                        let j = s as u64 + src.sent * self.sources as u64;
                        (self.build_chunks(s), self.build_key(j))
                    }
                };
                if src.sent < total {
                    let dest = self.node(self.owner(src.view, key));
                    let phase = src.phase;
                    out.push((dest, M::Data { phase, key }));
                    src.sent += 1;
                }
                if src.sent == total {
                    out.push((SCHED, M::SourceDone { sent: src.sent }));
                } else {
                    out.push((self.source(s), M::GenStep));
                }
            }
            M::RoutingUpdate { version } => src.view = src.view.max(version),
            M::StartProbe { version } => {
                src.phase = Phase::Probe;
                src.view = version;
                src.sent = 0;
                out.push((self.source(s), M::GenStep));
            }
            other => panic!("a source takes no {other:?}"),
        }
    }

    fn on_node(
        self,
        n: usize,
        node: &mut Node,
        msg: M,
        out: &mut Vec<(ActorId, M)>,
        seen: &mut Seen,
    ) {
        let other_mover = if n == 0 { self.spare() } else { 0 };
        match msg {
            M::Data { phase, key } => {
                node.tally.received(phase);
                let owner = self.owner(node.view, key);
                if phase != Phase::Build {
                    // Moved and probe chunks are housed where they land.
                } else if owner != n {
                    out.push((self.node(owner), M::Data { phase, key }));
                    node.tally.forwarded(phase);
                    seen.stale_forward = true;
                } else if n == 0 {
                    node.pending += 1;
                    if !node.reported_full {
                        node.reported_full = true;
                        out.push((SCHED, M::MemoryFull));
                    }
                }
            }
            M::RoutingUpdate { version } => {
                node.active = true;
                node.view = node.view.max(version);
                let owner = self.owner(node.view, 0);
                if node.pending > 0 && owner != n {
                    for _ in 0..node.pending {
                        let data = M::Data {
                            phase: Phase::Build,
                            key: 0,
                        };
                        out.push((self.node(owner), data));
                        node.tally.forwarded(Phase::Build);
                    }
                    node.pending = 0;
                    seen.pending_forward = true;
                }
            }
            M::FlushQuery { epoch, phase } => node.tally.arm(epoch, phase),
            M::MoveQuery => out.push((SCHED, M::MoveCounts)),
            M::MovePlan => {
                let data = M::Data {
                    phase: Phase::Reshuffle,
                    key: 0,
                };
                out.push((self.node(other_mover), data));
                node.tally.forwarded(Phase::Reshuffle);
                out.push((SCHED, M::MoveDone));
            }
            other => panic!("a node takes no {other:?}"),
        }
        if let Some((epoch, counts)) = node.tally.ack(node.pending) {
            out.push((SCHED, M::FlushAck { epoch, counts }));
        }
    }
}

/// Appends `msg` to channel `from → to`, keeping `chans` sorted by channel.
fn enqueue(chans: &mut Vec<(ActorId, ActorId, M)>, from: ActorId, to: ActorId, msg: M) {
    let at = chans.partition_point(|(f, t, _)| (*f, *t) <= (from, to));
    chans.insert(at, (from, to, msg));
}

/// What an exhaustive run covered.
#[derive(Debug, Default)]
struct Summary {
    states: usize,
    deliveries: u64,
    settles: u64,
    stale_forwards: u64,
    pending_forwards: u64,
    rearms: u64,
}

/// A state's 64-bit fingerprint. States are deduped by fingerprint, not
/// kept whole (hash compaction, as TLC does): among a million states the
/// odds that two distinct ones collide, and one goes unexplored, are under
/// one in thirty million.
fn fingerprint(state: &State) -> u64 {
    let mut h = DefaultHasher::new();
    state.hash(&mut h);
    h.finish()
}

/// Explores every state of `bound`'s model breadth first, so a violated
/// check panics with a shortest counterexample: the check, its length
/// and its deliveries.
fn explore(bound: Bound) -> Summary {
    let init = bound.initial();
    // State index → (parent index, the delivery that reached it).
    let mut parent: Vec<(u32, ActorId, ActorId)> = vec![(0, 0, 0)];
    let mut seen: HashSet<u64> = HashSet::from([fingerprint(&init)]);
    let mut queue = VecDeque::from([(init.clone(), 0u32)]);
    let mut sum = Summary::default();
    while let Some((state, at)) = queue.pop_front() {
        let enabled = bound.enabled(&state);
        if enabled.is_empty() && !state.sched.finished {
            fail(
                bound,
                &init,
                &parent,
                at,
                None,
                "a state with no delivery left stalls",
            );
        }
        for (from, to) in enabled {
            let (next, what) = match bound.deliver(&state, from, to) {
                Ok(step) => step,
                Err(what) => fail(bound, &init, &parent, at, Some((from, to)), &what),
            };
            sum.deliveries += 1;
            sum.settles += u64::from(what.settle);
            sum.stale_forwards += u64::from(what.stale_forward);
            sum.pending_forwards += u64::from(what.pending_forward);
            sum.rearms += u64::from(what.rearm);
            if seen.insert(fingerprint(&next)) {
                let index = u32::try_from(parent.len()).expect("under 2^32 states");
                parent.push((at, from, to));
                queue.push_back((next, index));
            }
        }
    }
    sum.states = seen.len();
    sum
}

/// Replays the path to state `at` (plus `last`) from `init` and panics
/// with it.
fn fail(
    bound: Bound,
    init: &State,
    parent: &[(u32, ActorId, ActorId)],
    mut at: u32,
    last: Option<(ActorId, ActorId)>,
    what: &str,
) -> ! {
    let mut path: Vec<(ActorId, ActorId)> = last.into_iter().collect();
    while at != 0 {
        let (up, from, to) = parent[at as usize];
        path.push((from, to));
        at = up;
    }
    path.reverse();
    let mut state = init.clone();
    let mut lines = Vec::new();
    for &(from, to) in &path {
        let msg = state
            .chans
            .iter()
            .find(|(f, t, _)| (*f, *t) == (from, to))
            .map(|(_, _, m)| m.clone())
            .expect("path follows enabled channels");
        lines.push(format!("{from} -> {to}: {msg:?}"));
        if let Ok((next, _)) = bound.deliver(&state, from, to) {
            state = next;
        }
    }
    panic!(
        "{what} ({bound:?}); counterexample of {} deliveries:\n{}",
        path.len(),
        lines.join("\n")
    );
}

fn check(bound: Bound) -> Summary {
    let start = Instant::now();
    let sum = explore(bound);
    println!("{bound:?}: {sum:?} in {:.2?}", start.elapsed());
    // The model is not vacuous: every feature it claims happens somewhere.
    assert!(sum.settles > 0, "{bound:?}: nothing settled");
    assert!(
        sum.stale_forwards > 0,
        "{bound:?}: no stale-routing forward"
    );
    assert!(sum.pending_forwards > 0, "{bound:?}: no pending forward");
    assert!(sum.rearms > 0, "{bound:?}: no wave was re-armed");
    sum
}

#[test]
fn no_delivery_order_settles_early_or_stalls() {
    check(Bound {
        sources: 2,
        nodes: 2,
        chunks: 3,
    });
}

/// The wider bound, for release builds: `cargo test --release -p ehj-core
/// --test barrier -- --ignored`.
#[test]
#[ignore = "a minute in a debug build; CI runs it in release"]
fn no_delivery_order_settles_early_or_stalls_at_the_wide_bound() {
    check(Bound {
        sources: 2,
        nodes: 3,
        chunks: 4,
    });
}
