//! The scheduler actor.
//!
//! §4.1.1: the scheduler coordinates the whole join — it keeps the working
//! and potential join-node lists, reacts to `memory full` messages by
//! recruiting the potential node with the largest available memory,
//! orchestrates splits (with the barrier-split-pointer discipline: one
//! split in flight at a time, so at most two hash functions are ever
//! active), runs the hybrid's reshuffling step, and synchronizes data
//! sources and join processes between the build and probe phases.
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

use crate::config::{Algorithm, JoinConfig};
use crate::msg::{Msg, NodeReport};
use crate::report::JoinReport;
use crate::routing::{
    HotKeyOverlay, RoutingTable, HOT_FRACTION, HOT_MIN_TOTAL, MAX_HOT, SKETCH_CAPACITY,
};
use crate::topology::Topology;
use ehj_cluster::SchedulerBook;
use ehj_hash::{skew_aware_partition, BucketMap, HashRange, ReplicaMap, SpaceSaving};
use ehj_metrics::registry::names;
use ehj_metrics::{
    CommCounters, FaultField, Gauge, MetricsHandle, Phase, PhaseTimes, TraceEvent, TraceKind,
    Tracer,
};
use ehj_sim::{Actor, ActorId, Context, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::Mutex;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SchedPhase {
    Build,
    Reshuffle,
    Probe,
    Reporting,
    Done,
}

/// State of the hot-key hand-off round (DESIGN §4i): after the build
/// barrier (and the hybrid's reshuffle, which *moves* tuples and so must
/// run first), every clean participant copies its tuples at the hot
/// positions to every other, so each ends up with the full hot build side.
struct HotKeyHandoff {
    /// The replicated hot positions, sorted ascending.
    hot: Vec<u32>,
    /// Clean (non-spilled) participants; the probe overlay's replica set.
    members: Vec<ActorId>,
    /// `HotKeyDone` replies required before the reshuffle barrier settles.
    expected: usize,
    done: usize,
}

/// The scheduler's registry instruments (no-ops until attached).
struct SchedMetrics {
    /// Number of positions promoted to the hot set at install time.
    sketch_topk: Gauge,
    /// Replica-set / probe fan-out sizes observed at install and probe.
    hotkey_fanout: ehj_metrics::Histogram,
}

impl SchedMetrics {
    fn new(handle: &MetricsHandle) -> Self {
        Self {
            sketch_topk: handle.gauge(names::SCHED_SKETCH_TOPK),
            hotkey_fanout: handle.histogram(names::SCHED_HOTKEY_FANOUT),
        }
    }
}

struct Group {
    /// In-memory replica-set members participating in the reshuffle.
    members: Vec<ActorId>,
    /// Members that spilled to disk: excluded from redistribution (their
    /// tuples are in spill files) but kept as probe-broadcast targets.
    spilled_members: Vec<ActorId>,
    range: HashRange,
    hist: Vec<u64>,
    replies: usize,
    assignments: Vec<(HashRange, ActorId)>,
    done: usize,
}

/// The scheduler.
pub struct Scheduler {
    cfg: Arc<JoinConfig>,
    topo: Topology,
    book: SchedulerBook,
    routing: RoutingTable,
    version: u64,
    phase: SchedPhase,
    // per-phase source accounting
    sources_done: usize,
    src_sent_chunks: u64,
    src_comm: CommCounters,
    // expansion machinery
    overflow_queue: VecDeque<ActorId>,
    /// Nodes that went out of core: their buckets can no longer be split
    /// (the data lives in spill files), so the split pointer stops there.
    spilled_actors: std::collections::HashSet<ActorId>,
    /// Linear-pointer splits in flight, keyed by the old bucket. The paper's
    /// barrier split pointer allows concurrent splits *within* one hashing
    /// level (still only two hash functions active) but a new level cannot
    /// begin until every split of the previous round reported done.
    lp_inflight: std::collections::HashMap<u32, SimTime>,
    expansions: u64,
    split_time: SimTime,
    // barrier waves
    epoch: u64,
    /// Routing version the current wave was armed under; `None` between
    /// waves (nothing armed yet, or the last one settled).
    wave_version: Option<u64>,
    /// Latest `[recv, fwd, pending]` from each actor the wave polled.
    acks: std::collections::HashMap<ActorId, Option<[u64; 3]>>,
    // reshuffle
    groups: Vec<Group>,
    // hot-key routing (DESIGN §4i)
    /// Latest cumulative sketch per source (replaced wholesale on every
    /// snapshot, so re-merging never double-counts).
    sketches: std::collections::HashMap<ActorId, SpaceSaving>,
    /// Whether the hot-key overlay has been installed this run (at most
    /// once: the hot set is frozen at install time).
    hotkey_installed: bool,
    hotkey_handoff: Option<HotKeyHandoff>,
    metrics: SchedMetrics,
    // timings
    build_done_at: SimTime,
    reshuffle_done_at: SimTime,
    /// The [`Self::milestone`] events, whatever the trace level.
    timeline: Vec<TraceEvent>,
    // final collection
    probe_routing: Option<RoutingTable>,
    node_reports: Vec<NodeReport>,
    reports_expected: usize,
    result: Arc<Mutex<Option<JoinReport>>>,
    tracer: Tracer,
}

impl Scheduler {
    /// Creates the scheduler. The final [`JoinReport`] is written into
    /// `result` just before the engine is stopped.
    #[must_use]
    pub fn new(
        cfg: Arc<JoinConfig>,
        topo: Topology,
        result: Arc<Mutex<Option<JoinReport>>>,
    ) -> Self {
        let book = SchedulerBook::new(&cfg.cluster, cfg.initial_nodes);
        let initial_actors: Vec<ActorId> =
            book.working().iter().map(|&n| topo.node_actor(n)).collect();
        let routing = match cfg.algorithm {
            Algorithm::Split => {
                RoutingTable::Buckets(BucketMap::new(initial_actors, cfg.positions as u64))
            }
            // The out-of-core baseline's ranges keep their one owner: it
            // never replicates (its full nodes spill) nor reshuffles.
            Algorithm::Replicated | Algorithm::Hybrid | Algorithm::OutOfCore => {
                RoutingTable::Replica(ReplicaMap::partitioned(cfg.positions, &initial_actors))
            }
        };
        let chunk = cfg.chunk_tuples as u64;
        Self {
            cfg,
            topo,
            book,
            routing,
            version: 1,
            phase: SchedPhase::Build,
            sources_done: 0,
            src_sent_chunks: 0,
            src_comm: CommCounters::new(chunk),
            overflow_queue: VecDeque::new(),
            spilled_actors: std::collections::HashSet::new(),
            lp_inflight: std::collections::HashMap::new(),
            expansions: 0,
            split_time: SimTime::ZERO,
            epoch: 0,
            wave_version: None,
            acks: std::collections::HashMap::new(),
            groups: Vec::new(),
            sketches: std::collections::HashMap::new(),
            hotkey_installed: false,
            hotkey_handoff: None,
            metrics: SchedMetrics::new(&MetricsHandle::disabled()),
            build_done_at: SimTime::ZERO,
            reshuffle_done_at: SimTime::ZERO,
            timeline: Vec::new(),
            probe_routing: None,
            node_reports: Vec::new(),
            reports_expected: 0,
            result,
            tracer: Tracer::off(),
        }
    }

    /// Attaches a tracer; events are emitted through it from then on.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches registry instruments (hot-set size, fan-out histogram).
    #[must_use]
    pub fn with_metrics(mut self, handle: &MetricsHandle) -> Self {
        self.metrics = SchedMetrics::new(handle);
        self
    }

    /// Emits a structured trace event attributed to the scheduler itself.
    fn trace(&self, ctx: &dyn Context<Msg>, kind: TraceKind) {
        self.tracer
            .emit(ctx.now().as_nanos(), ctx.me(), self.data_phase(), kind);
    }

    /// Emits a structured trace event attributed to a specific actor
    /// (events that describe one node's state, like `NodeFull`).
    fn trace_at(&self, ctx: &dyn Context<Msg>, node: ActorId, kind: TraceKind) {
        self.tracer
            .emit(ctx.now().as_nanos(), node, self.data_phase(), kind);
    }

    /// [`Self::trace`] for a milestone — a recruit, a finished split, a
    /// phase end, the hot-key install — which the report's timeline also
    /// keeps, at any trace level.
    fn milestone(&mut self, ctx: &dyn Context<Msg>, kind: TraceKind) {
        let ev = self
            .tracer
            .event(ctx.now().as_nanos(), ctx.me(), self.data_phase(), kind);
        self.tracer.emit_event(&ev);
        self.timeline.push(ev);
    }

    fn active_actors(&self) -> Vec<ActorId> {
        self.book
            .all_active()
            .into_iter()
            .map(|n| self.topo.node_actor(n))
            .collect()
    }

    fn data_phase(&self) -> Phase {
        match self.phase {
            SchedPhase::Build => Phase::Build,
            SchedPhase::Reshuffle => Phase::Reshuffle,
            _ => Phase::Probe,
        }
    }

    fn broadcast_routing(&mut self, ctx: &mut dyn Context<Msg>) {
        self.version += 1;
        let update = |routing: RoutingTable, version: u64| Msg::RoutingUpdate { routing, version };
        for &s in &self.topo.sources {
            ctx.send(s, update(self.routing.clone(), self.version));
        }
        for a in self.active_actors() {
            ctx.send(a, update(self.routing.clone(), self.version));
        }
    }

    // ---- expansion ----

    fn handle_memory_full(&mut self, ctx: &mut dyn Context<Msg>, from: ActorId) {
        // A full node under a skewed stream is the overlay's cue: install
        // it (if the sketches justify one) before recruiting, so the hot
        // keys stop concentrating on the reporter while relief is staged.
        self.maybe_install_overlay(ctx);
        if self.cfg.algorithm == Algorithm::OutOfCore {
            return; // The baseline never expands; nodes spill on their own.
        }
        if !self.overflow_queue.contains(&from) {
            self.overflow_queue.push_back(from);
        }
        self.process_overflows(ctx);
    }

    // ---- hot-key routing (DESIGN §4i) ----

    /// Accepts a source's cumulative sketch snapshot. Snapshots replace
    /// the source's previous slot wholesale, so the merged view never
    /// double-counts a tuple.
    fn handle_sketch_update(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        from: ActorId,
        sketch: SpaceSaving,
    ) {
        if !self.cfg.hot_keys {
            return;
        }
        let cap = SKETCH_CAPACITY as u64;
        if sketch.len() as u64 > cap {
            self.protocol_fault(ctx, FaultField::SketchSize, sketch.len() as u64, cap);
            return;
        }
        self.sketches.insert(from, sketch);
        self.maybe_install_overlay(ctx);
    }

    /// Installs the hot-key overlay when the merged sketches show a key
    /// hot enough to be worth replicating. At most once per run, and only
    /// during the build phase (the hand-off that makes the replica sets
    /// consistent runs at the build/reshuffle barrier).
    fn maybe_install_overlay(&mut self, ctx: &mut dyn Context<Msg>) {
        if !self.cfg.hot_keys || self.hotkey_installed || self.phase != SchedPhase::Build {
            return;
        }
        // Merge in source-id order: the min-count filler makes the merge
        // order-sensitive on tied counters, and hash-map iteration order
        // would leak nondeterminism into the promoted hot set.
        let mut by_source: Vec<(&ActorId, &SpaceSaving)> = self.sketches.iter().collect();
        by_source.sort_unstable_by_key(|&(id, _)| id);
        let mut merged: Option<SpaceSaving> = None;
        for (_, sk) in by_source {
            match merged.as_mut() {
                Some(m) => m.merge(sk),
                None => merged = Some(sk.clone()),
            }
        }
        let Some(merged) = merged else { return };
        if merged.total() < HOT_MIN_TOTAL {
            return;
        }
        // Promote the top keys whose *guaranteed* count (estimate minus
        // over-count error) clears the share threshold — the conservative
        // side of the space-saving bounds, so a uniform stream cannot
        // promote anything by noise.
        let threshold = (HOT_FRACTION * merged.total() as f64).ceil() as u64;
        let mut hot: Vec<u32> = merged
            .top_k()
            .into_iter()
            .take(MAX_HOT)
            .filter(|&(key, count, err)| {
                key < u64::from(self.cfg.positions) && count - err > threshold
            })
            .map(|(key, _, _)| key as u32)
            .collect();
        if hot.is_empty() {
            return;
        }
        hot.sort_unstable();
        hot.dedup();
        let spilled = &self.spilled_actors;
        let replicas: Vec<ActorId> = self
            .active_actors()
            .into_iter()
            .filter(|a| !spilled.contains(a))
            .collect();
        if replicas.is_empty() {
            return;
        }
        self.hotkey_installed = true;
        self.metrics.sketch_topk.add(hot.len() as i64);
        self.metrics.hotkey_fanout.record(replicas.len() as u64);
        self.milestone(
            ctx,
            TraceKind::HotKeysInstalled {
                hot: hot.len() as u64,
                replicas: replicas.len() as u64,
            },
        );
        let inner = self.routing.clone();
        self.routing = RoutingTable::HotKeys {
            overlay: HotKeyOverlay {
                hot,
                replicas,
                extra: Vec::new(),
            },
            inner: Box::new(inner),
        };
        self.broadcast_routing(ctx);
    }

    /// Starts the hot-key hand-off round, if one is due and has not run:
    /// every clean participant copies its hot-position tuples to every
    /// other. Returns true when replies are outstanding (the caller stays
    /// in the reshuffle phase until the barrier settles again).
    fn start_hotkey_handoff(&mut self, ctx: &mut dyn Context<Msg>) -> bool {
        if self.hotkey_handoff.is_some() {
            return false; // already ran
        }
        let Some(overlay) = self.routing.overlay() else {
            return false;
        };
        let hot = overlay.hot.clone();
        let spilled = &self.spilled_actors;
        let members: Vec<ActorId> = self
            .active_actors()
            .into_iter()
            .filter(|a| !spilled.contains(a))
            .collect();
        if members.len() < 2 {
            // A lone clean member already holds every hot tuple (and with
            // none, the probe overlay is dropped): record a completed
            // hand-off so start_probe still sees the hot set.
            self.hotkey_handoff = Some(HotKeyHandoff {
                hot,
                members,
                expected: 0,
                done: 0,
            });
            return false;
        }
        // The hand-off traffic rides the reshuffle lane; its flush rounds
        // count reshuffle-phase chunks only.
        self.sources_done = 0;
        self.src_sent_chunks = 0;
        let expected = members.len();
        for &m in &members {
            ctx.send(
                m,
                Msg::HotKeyPlan {
                    positions: hot.clone(),
                    members: members.clone(),
                },
            );
        }
        self.hotkey_handoff = Some(HotKeyHandoff {
            hot,
            members,
            expected,
            done: 0,
        });
        true
    }

    /// A node's pending queue drained before its queued report was
    /// processed: drop the stale report so the pointer is not advanced (and
    /// a node not recruited) for nothing. The sender retracts only with an
    /// empty `pending` (drained or spilled), so nothing waits on a reply.
    fn handle_relieved(&mut self, from: ActorId) {
        self.overflow_queue.retain(|&a| a != from);
    }

    fn process_overflows(&mut self, ctx: &mut dyn Context<Msg>) {
        loop {
            if self.overflow_queue.is_empty() {
                return;
            }
            // Barrier split pointer: the next split may proceed concurrently
            // unless it would open a new hashing level while splits of the
            // current round are still in flight.
            if let RoutingTable::Buckets(m) = &self.routing {
                if m.next_split_starts_round() && !self.lp_inflight.is_empty() {
                    return; // resume on the next SplitDone
                }
            }
            let Some(full_actor) = self.overflow_queue.pop_front() else {
                return;
            };
            self.process_one_overflow(ctx, full_actor);
        }
    }

    /// Expansion is over for `full_actor`: it spills and goes out of core.
    fn refuse_expansion(&mut self, ctx: &mut dyn Context<Msg>, full_actor: ActorId) {
        self.spilled_actors.insert(full_actor);
        self.trace_at(ctx, full_actor, TraceKind::PoolExhausted);
        ctx.send(full_actor, Msg::NoMoreNodes);
    }

    fn process_one_overflow(&mut self, ctx: &mut dyn Context<Msg>, full_actor: ActorId) {
        match self.cfg.algorithm {
            Algorithm::Replicated | Algorithm::Hybrid => {
                // Skip stale reports: the node must still be the active
                // replica of some range. No reply is owed: the replication
                // that retired the reporter broadcast a `RoutingUpdate`
                // that is behind this report on the way to it, and draining
                // on that update forwards whatever it parked to the new
                // active replica (hot tuples included, by inner routing).
                let is_active = match self.routing.inner() {
                    RoutingTable::Replica(m) => {
                        m.entries().iter().any(|e| e.active() == full_actor)
                    }
                    _ => unreachable!("replication algorithms use replica routing"),
                };
                if !is_active {
                    return;
                }
                let Some(new_node) = self.book.recruit() else {
                    self.refuse_expansion(ctx, full_actor);
                    return;
                };
                let new_actor = self.topo.node_actor(new_node);
                self.expansions += 1;
                self.milestone(ctx, TraceKind::Recruited { node: new_node.0 });
                let RoutingTable::Replica(m) = self.routing.inner_mut() else {
                    unreachable!();
                };
                let range = m.replicate(full_actor, new_actor);
                // §4.2.2, the full node stops receiving — hot tuples too.
                if let RoutingTable::HotKeys { overlay, .. } = &mut self.routing {
                    overlay.hand_over(full_actor, new_actor);
                }
                self.trace_at(
                    ctx,
                    new_actor,
                    TraceKind::Replicated {
                        start: range.start,
                        end: range.end,
                    },
                );
                // The full node stops receiving: bookkeeping per §4.1.2.
                if let Some(full_node) = self.topo.node_of_actor(full_actor) {
                    if self.book.working().contains(&full_node) {
                        self.book.mark_full(full_node);
                        self.trace_at(ctx, full_actor, TraceKind::NodeFull);
                    }
                }
                ctx.send(
                    new_actor,
                    Msg::Activate {
                        routing: self.routing.clone(),
                        version: self.version + 1,
                    },
                );
                self.broadcast_routing(ctx);
            }
            Algorithm::Split => {
                // The pointer bucket cannot split if its owner already
                // went out of core (the bucket's contents are on disk).
                // Expansion is over: the reporter must spill too.
                let pointer_owner = match self.routing.inner() {
                    RoutingTable::Buckets(m) => m.owner_of_bucket(m.split_ptr()),
                    _ => unreachable!("linear-pointer split uses bucket routing"),
                };
                if self.spilled_actors.contains(&pointer_owner) {
                    self.refuse_expansion(ctx, full_actor);
                    return;
                }
                let Some(new_node) = self.book.recruit() else {
                    self.refuse_expansion(ctx, full_actor);
                    return;
                };
                let new_actor = self.topo.node_actor(new_node);
                self.expansions += 1;
                self.milestone(ctx, TraceKind::Recruited { node: new_node.0 });
                let (step, old_owner, pointer) = {
                    let RoutingTable::Buckets(m) = self.routing.inner_mut() else {
                        unreachable!("linear-pointer split uses bucket routing");
                    };
                    let (step, old_owner) = m.split(new_actor);
                    (step, old_owner, m.split_ptr())
                };
                self.trace(
                    ctx,
                    TraceKind::SplitIssued {
                        bucket: step.old,
                        from: old_owner,
                        to: new_actor,
                    },
                );
                self.trace(ctx, TraceKind::SplitPointerAdvance { pointer });
                ctx.send(
                    new_actor,
                    Msg::Activate {
                        routing: self.routing.clone(),
                        version: self.version + 1,
                    },
                );
                self.broadcast_routing(ctx);
                ctx.send(
                    old_owner,
                    Msg::SplitRequest {
                        step,
                        new_node: new_actor,
                    },
                );
                self.lp_inflight.insert(step.old, ctx.now());
            }
            Algorithm::OutOfCore => unreachable!("handled in handle_memory_full"),
        }
    }

    fn handle_split_done(&mut self, ctx: &mut dyn Context<Msg>, old_bucket: u32, moved: u64) {
        let Some(started) = self.lp_inflight.remove(&old_bucket) else {
            return;
        };
        self.split_time += ctx.now().saturating_sub(started);
        self.milestone(
            ctx,
            TraceKind::SplitDone {
                bucket: old_bucket,
                moved,
            },
        );
        self.process_overflows(ctx);
        self.try_settle(ctx);
    }

    // ---- phase barriers ----

    fn barrier_preconditions_met(&self) -> bool {
        let sources_needed = match self.phase {
            SchedPhase::Build | SchedPhase::Probe => self.topo.sources.len(),
            SchedPhase::Reshuffle => 0,
            _ => return false,
        };
        let reshuffle_ready = self.phase != SchedPhase::Reshuffle
            || self.groups.iter().all(|g| g.done == g.members.len());
        let handoff_ready = self
            .hotkey_handoff
            .as_ref()
            .is_none_or(|h| h.done >= h.expected);
        (self.sources_done >= sources_needed)
            && self.overflow_queue.is_empty()
            && self.lp_inflight.is_empty()
            && reshuffle_ready
            && handoff_ready
    }

    /// Arms, re-arms or settles the current phase's barrier — the one
    /// place that does any of the three, called whenever a precondition or
    /// an acked count may have moved.
    fn try_settle(&mut self, ctx: &mut dyn Context<Msg>) {
        if !self.barrier_preconditions_met() {
            return;
        }
        if self.wave_version != Some(self.version) {
            // No wave yet, or routing moved under the armed one: the
            // active set may have grown, so poll it afresh.
            self.epoch += 1;
            self.wave_version = Some(self.version);
            let actors = self.active_actors();
            self.acks = actors.iter().map(|&a| (a, None)).collect();
            let (epoch, phase) = (self.epoch, self.data_phase());
            for a in actors {
                ctx.send(a, Msg::FlushQuery { epoch, phase });
            }
            return;
        }
        let (mut recv, mut fwd, mut pending) = (0, 0, 0);
        for ack in self.acks.values() {
            let Some([r, f, p]) = ack else { return };
            (recv, fwd, pending) = (recv + r, fwd + f, pending + p);
        }
        if pending == 0 && recv == self.src_sent_chunks + fwd {
            self.wave_version = None;
            self.advance_phase(ctx);
        }
    }

    // ---- phase transitions ----

    fn advance_phase(&mut self, ctx: &mut dyn Context<Msg>) {
        match self.phase {
            SchedPhase::Build => {
                self.build_done_at = ctx.now();
                self.milestone(ctx, TraceKind::PhaseDone);
                if self.cfg.algorithm == Algorithm::Hybrid && self.start_reshuffle(ctx) {
                    self.phase = SchedPhase::Reshuffle;
                } else if self.start_hotkey_handoff(ctx) {
                    // Hand-off only: borrow the reshuffle phase for its
                    // barrier (the copies ride the reshuffle lane).
                    self.phase = SchedPhase::Reshuffle;
                } else {
                    self.reshuffle_done_at = ctx.now();
                    self.start_probe(ctx);
                }
            }
            SchedPhase::Reshuffle => {
                // The hybrid's redistribution *moves* tuples, so the
                // hot-key hand-off (which copies them) must run after it —
                // as a second round under the same reshuffle barrier.
                if self.start_hotkey_handoff(ctx) {
                    return;
                }
                self.reshuffle_done_at = ctx.now();
                self.milestone(ctx, TraceKind::PhaseDone);
                self.install_reshuffled_routing();
                self.start_probe(ctx);
            }
            SchedPhase::Probe => {
                self.milestone(ctx, TraceKind::PhaseDone);
                self.phase = SchedPhase::Reporting;
                let actors = self.active_actors();
                self.reports_expected = actors.len();
                for a in actors {
                    ctx.send(a, Msg::ReportRequest);
                }
            }
            _ => {}
        }
    }

    /// Builds the reshuffle groups; returns false when no range was
    /// replicated (nothing to do). Spilled members cannot redistribute
    /// (their build tuples live in spill files), so they sit out the
    /// reshuffle and instead remain probe-broadcast targets for their
    /// range; the surviving in-memory members still rebalance among
    /// themselves when there are at least two of them.
    fn start_reshuffle(&mut self, ctx: &mut dyn Context<Msg>) -> bool {
        let RoutingTable::Replica(m) = self.routing.inner() else {
            return false;
        };
        let spilled = &self.spilled_actors;
        let groups: Vec<Group> = m
            .entries()
            .iter()
            .filter_map(|e| {
                let (spilled_members, members): (Vec<ActorId>, Vec<ActorId>) =
                    e.owners.iter().partition(|o| spilled.contains(o));
                if members.len() < 2 {
                    return None; // nothing to redistribute
                }
                Some(Group {
                    members,
                    spilled_members,
                    range: e.range,
                    hist: vec![0u64; e.range.len() as usize],
                    replies: 0,
                    assignments: Vec::new(),
                    done: 0,
                })
            })
            .collect();
        if groups.is_empty() {
            return false;
        }
        self.groups = groups;
        self.sources_done = 0;
        self.src_sent_chunks = 0;
        for (gid, g) in self.groups.iter().enumerate() {
            for &member in &g.members {
                ctx.send(
                    member,
                    Msg::ReshuffleQuery {
                        group: gid as u32,
                        range: g.range,
                    },
                );
            }
        }
        true
    }

    /// Rejects a malformed or stale control message: the fault is traced
    /// (so it lands in the diagnostic tail of the resulting [`JoinError`])
    /// and this query quiesces with no report, which the runner surfaces
    /// as a protocol error. Indexing scheduler state with an unvalidated
    /// wire value would panic instead — and under the multi-tenant service
    /// a panic takes down every other query sharing the executor.
    ///
    /// [`JoinError`]: crate::runner::JoinError
    fn protocol_fault(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        field: FaultField,
        value: u64,
        bound: u64,
    ) {
        self.trace(
            ctx,
            TraceKind::ProtocolFault {
                field,
                value,
                bound,
            },
        );
        ctx.stop();
    }

    fn handle_reshuffle_counts(&mut self, ctx: &mut dyn Context<Msg>, gid: u32, counts: Vec<u64>) {
        // Both the group id and the count vector arrive off the wire:
        // validate them against our own group table before indexing.
        let Some(hist_len) = self.groups.get(gid as usize).map(|g| g.hist.len()) else {
            let bound = self.groups.len() as u64;
            self.protocol_fault(ctx, FaultField::ReshuffleGroup, gid.into(), bound);
            return;
        };
        if counts.len() != hist_len {
            let bound = hist_len as u64;
            self.protocol_fault(ctx, FaultField::ReshuffleCounts, counts.len() as u64, bound);
            return;
        }
        // Hot positions inside this group's range are replicated by the
        // overlay, not owned by any single member: the planner zeroes them
        // so the cold mass is what gets equalized (with no overlay this is
        // byte-identical to the greedy equal partition).
        let hot_local: Vec<usize> = self
            .routing
            .overlay()
            .map(|o| {
                let range = self.groups[gid as usize].range;
                o.hot
                    .iter()
                    .filter(|&&p| p >= range.start && p < range.end)
                    .map(|&p| (p - range.start) as usize)
                    .collect()
            })
            .unwrap_or_default();
        let g = &mut self.groups[gid as usize];
        for (acc, c) in g.hist.iter_mut().zip(counts) {
            *acc += c;
        }
        g.replies += 1;
        if g.replies < g.members.len() {
            return;
        }
        // Global sum complete: run the skew-aware partition (§4.2.3 +
        // DESIGN §4i).
        let parts = skew_aware_partition(&g.hist, g.members.len(), &hot_local);
        g.assignments = parts
            .iter()
            .zip(&g.members)
            .map(|(&(a, b), &m)| {
                (
                    HashRange::new(g.range.start + a as u32, g.range.start + b as u32),
                    m,
                )
            })
            .collect();
        let plan = g.assignments.clone();
        let members = g.members.clone();
        self.trace(
            ctx,
            TraceKind::ReshufflePlanned {
                group: gid,
                members: members.len() as u64,
            },
        );
        for member in members {
            ctx.send(
                member,
                Msg::ReshufflePlan {
                    group: gid,
                    assignments: plan.clone(),
                },
            );
        }
    }

    fn handle_reshuffle_done(&mut self, ctx: &mut dyn Context<Msg>, gid: u32) {
        let bound = self.groups.len() as u64;
        let Some(g) = self.groups.get_mut(gid as usize) else {
            self.protocol_fault(ctx, FaultField::ReshuffleGroup, gid.into(), bound);
            return;
        };
        g.done += 1;
        self.try_settle(ctx);
    }

    /// Replaces reshuffled replica entries with their new disjoint
    /// assignments, producing the hybrid's probe routing. Entries whose
    /// replica set was skipped (a spilled member) stay replicated and keep
    /// probe broadcast semantics so spilled build tuples are still probed.
    fn install_reshuffled_routing(&mut self) {
        let RoutingTable::Replica(m) = self.routing.inner() else {
            return;
        };
        let mut entries: Vec<ehj_hash::ReplicaEntry<ActorId>> = Vec::new();
        let mut group_iter = self.groups.iter().peekable();
        for e in m.entries() {
            let reshuffled = group_iter.peek().is_some_and(|g| g.range == e.range);
            if reshuffled {
                let g = group_iter.next().expect("peeked");
                entries.extend(g.assignments.iter().map(|&(range, owner)| {
                    // Spilled members stay owners of every subrange: their
                    // on-disk build tuples still need the probes.
                    let mut owners = vec![owner];
                    owners.extend_from_slice(&g.spilled_members);
                    ehj_hash::ReplicaEntry { range, owners }
                }));
            } else {
                entries.push(e.clone());
            }
        }
        self.probe_routing = Some(RoutingTable::Replica(ReplicaMap::from_entries(entries)));
    }

    fn start_probe(&mut self, ctx: &mut dyn Context<Msg>) {
        self.phase = SchedPhase::Probe;
        self.sources_done = 0;
        self.src_sent_chunks = 0;
        // "The lists of working and full join nodes are merged" (§4.1.2).
        self.book.merge_full_into_working();
        // Cold routing: the reshuffled assignments when the hybrid ran a
        // redistribution, otherwise the build table sans any hot overlay.
        let base = self
            .probe_routing
            .clone()
            .unwrap_or_else(|| self.routing.inner().clone());
        let routing = match self.hotkey_handoff.as_ref() {
            // Post-hand-off, every clean member holds the full hot build
            // side: each hot probe goes to one member (round-robin) plus
            // every spilled node, whose private hot tuples live on disk.
            // With no clean members at all (every participant went out of
            // core), the hot build side is scattered across the spill
            // partitions and the extras alone must carry each hot probe.
            Some(h) => {
                let spilled = &self.spilled_actors;
                let extra: Vec<ActorId> = self
                    .active_actors()
                    .into_iter()
                    .filter(|a| spilled.contains(a))
                    .collect();
                if h.members.is_empty() && extra.is_empty() {
                    base
                } else {
                    let rr = u64::from(!h.members.is_empty());
                    self.metrics.hotkey_fanout.record(rr + extra.len() as u64);
                    RoutingTable::HotKeys {
                        overlay: HotKeyOverlay {
                            hot: h.hot.clone(),
                            replicas: h.members.clone(),
                            extra,
                        },
                        inner: Box::new(base),
                    }
                }
            }
            None => base,
        };
        self.version += 1;
        for &s in &self.topo.sources {
            ctx.send(
                s,
                Msg::StartProbe {
                    routing: routing.clone(),
                    version: self.version,
                },
            );
        }
        self.probe_routing = Some(routing);
    }

    fn handle_report(&mut self, ctx: &mut dyn Context<Msg>, report: NodeReport) {
        if self.phase == SchedPhase::Done {
            return; // straggler after completion
        }
        self.node_reports.push(report);
        if self.node_reports.len() < self.reports_expected {
            return;
        }
        self.phase = SchedPhase::Done;
        let now = ctx.now();
        let mut comm = self.src_comm.clone();
        let mut matches = 0u64;
        let mut compares = 0u64;
        let mut spilled_nodes = 0usize;
        let mut build_tuples = 0u64;
        let mut load = Vec::with_capacity(self.node_reports.len());
        for r in &self.node_reports {
            comm.merge(&r.comm);
            matches += r.matches;
            compares += r.compares;
            spilled_nodes += usize::from(r.spilled);
            build_tuples += r.build_tuples;
            load.push(r.build_tuples);
        }
        let times = PhaseTimes {
            build_secs: self.build_done_at.as_secs_f64(),
            reshuffle_secs: (self.reshuffle_done_at - self.build_done_at).as_secs_f64(),
            probe_secs: (now - self.reshuffle_done_at).as_secs_f64(),
            total_secs: now.as_secs_f64(),
        };
        let report = JoinReport {
            algorithm: self.cfg.algorithm,
            times,
            split_time_secs: self.split_time.as_secs_f64(),
            comm,
            load,
            matches,
            compares,
            initial_nodes: self.cfg.initial_nodes,
            final_nodes: self.node_reports.len(),
            expansions: self.expansions,
            spilled_nodes,
            build_tuples,
            probe_tuples: self.cfg.probe_spec().tuples,
            sim_events: 0,
            net_bytes: 0,
            disk_bytes: 0,
            timeline: std::mem::take(&mut self.timeline),
            trace: ehj_metrics::TraceRollup::default(),
            metrics: ehj_metrics::MetricsReport::default(),
        };
        *self.result.lock().expect("report lock") = Some(report);
        ctx.stop();
    }
}

impl Actor<Msg> for Scheduler {
    fn on_start(&mut self, ctx: &mut dyn Context<Msg>) {
        // Activate the initial join nodes, then start the sources.
        for a in self.active_actors() {
            ctx.send(
                a,
                Msg::Activate {
                    routing: self.routing.clone(),
                    version: self.version,
                },
            );
        }
        for &s in &self.topo.sources {
            ctx.send(
                s,
                Msg::StartBuild {
                    routing: self.routing.clone(),
                    version: self.version,
                },
            );
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context<Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::MemoryFull => {
                self.handle_memory_full(ctx, from);
                self.try_settle(ctx);
            }
            Msg::Relieved => self.handle_relieved(from),
            Msg::Spilled => {
                self.spilled_actors.insert(from);
                self.handle_relieved(from);
            }
            Msg::SplitDone { step, moved_tuples } => {
                self.handle_split_done(ctx, step.old, moved_tuples);
            }
            Msg::SourcePhaseDone {
                sent_chunks, comm, ..
            } => {
                self.sources_done += 1;
                self.src_sent_chunks += sent_chunks;
                self.src_comm.merge(&comm);
                self.try_settle(ctx);
            }
            Msg::FlushAck {
                epoch,
                recv_chunks,
                fwd_chunks,
                pending,
            } if epoch == self.epoch => {
                // Only an actor the current wave polled has a slot: an ack
                // from anyone else is malformed and counts for nothing.
                if let Some(slot) = self.acks.get_mut(&from) {
                    *slot = Some([recv_chunks, fwd_chunks, pending]);
                    self.try_settle(ctx);
                }
            }
            Msg::ReshuffleCounts { group, histogram } => {
                self.handle_reshuffle_counts(ctx, group, histogram.counts);
            }
            Msg::ReshuffleDone { group, .. } => self.handle_reshuffle_done(ctx, group),
            Msg::SketchUpdate { sketch } => self.handle_sketch_update(ctx, from, sketch),
            Msg::HotKeyDone => {
                if let Some(h) = self.hotkey_handoff.as_mut() {
                    h.done += 1;
                }
                self.try_settle(ctx);
            }
            Msg::Report(r) => self.handle_report(ctx, *r),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::msg::{Histogram, NodeReport};
    use crate::testutil::ScriptCtx;
    use ehj_cluster::ClusterSpec;
    use ehj_hash::SplitStep;
    use ehj_metrics::CommCounters;

    const SOURCES: usize = 1;
    const NODES: usize = 6;
    const SRC: ActorId = 1;
    /// Join-node actors are 2..8 under the standard wiring.
    const N0: ActorId = 2;
    const N1: ActorId = 3;
    const N2: ActorId = 4;

    fn setup(
        algorithm: Algorithm,
        initial: usize,
    ) -> (Scheduler, ScriptCtx, Arc<Mutex<Option<JoinReport>>>) {
        let mut cfg = JoinConfig::paper_scaled(algorithm, 1000);
        cfg.cluster = ClusterSpec::homogeneous(NODES, 1 << 20);
        cfg.initial_nodes = initial;
        cfg.sources = SOURCES;
        let topo = Topology::with_base(0, SOURCES, NODES);
        let slot: Arc<Mutex<Option<JoinReport>>> = Arc::new(Mutex::new(None));
        let sched = Scheduler::new(Arc::new(cfg), topo, Arc::clone(&slot));
        let ctx = ScriptCtx::new(0);
        (sched, ctx, slot)
    }

    fn ack_all(sched: &mut Scheduler, ctx: &mut ScriptCtx, recv: u64, fwd: u64) {
        // Reply to the outstanding FlushQuery from every polled node.
        let queries: Vec<(ActorId, u64)> = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| match m {
                Msg::FlushQuery { epoch, .. } => Some((*to, *epoch)),
                _ => None,
            })
            .collect();
        ctx.sent.clear();
        for (node, epoch) in queries {
            sched.on_message(
                ctx,
                node,
                Msg::FlushAck {
                    epoch,
                    recv_chunks: recv,
                    fwd_chunks: fwd,
                    pending: 0,
                },
            );
        }
    }

    #[test]
    fn on_start_activates_initial_nodes_and_sources() {
        let (mut sched, mut ctx, _) = setup(Algorithm::Replicated, 2);
        sched.on_start(&mut ctx);
        let activates: Vec<ActorId> = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::Activate { .. }).then_some(*to))
            .collect();
        assert_eq!(activates, vec![N0, N1]);
        let starts: Vec<ActorId> = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::StartBuild { .. }).then_some(*to))
            .collect();
        assert_eq!(starts, vec![SRC]);
    }

    #[test]
    fn routing_shape_matches_algorithm() {
        for alg in Algorithm::ALL {
            let (sched, _, _) = setup(alg, 2);
            match alg {
                Algorithm::Replicated | Algorithm::Hybrid => {
                    assert!(matches!(sched.routing, RoutingTable::Replica(_)));
                }
                Algorithm::Split => assert!(matches!(sched.routing, RoutingTable::Buckets(_))),
                Algorithm::OutOfCore => {
                    // Disjoint ranges: a replica map with one owner each.
                    let RoutingTable::Replica(m) = &sched.routing else {
                        panic!("out of core starts on replica routing");
                    };
                    assert!(m.entries().iter().all(|e| e.owners.len() == 1));
                    assert_eq!(m.all_nodes(), vec![N0, N1]);
                }
            }
        }
    }

    #[test]
    fn replicated_overflow_recruits_and_broadcasts() {
        let (mut sched, mut ctx, _) = setup(Algorithm::Replicated, 2);
        sched.on_start(&mut ctx);
        ctx.sent.clear();
        sched.on_message(&mut ctx, N0, Msg::MemoryFull);
        // New node activated with the updated replica map.
        let activate_to: Vec<ActorId> = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::Activate { .. }).then_some(*to))
            .collect();
        assert_eq!(activate_to.len(), 1);
        let new_actor = activate_to[0];
        assert!(new_actor > N1, "a potential node was recruited");
        // Routing update broadcast to the source and active nodes.
        let updates: Vec<ActorId> = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::RoutingUpdate { .. }).then_some(*to))
            .collect();
        assert!(updates.contains(&SRC));
        assert!(updates.contains(&N0), "the full node learns its relief");
        assert_eq!(sched.expansions, 1);
        // The full node moved to the full list.
        assert_eq!(sched.book.full().len(), 1);
    }

    #[test]
    fn stale_replicated_overflow_is_skipped() {
        let (mut sched, mut ctx, _) = setup(Algorithm::Replicated, 2);
        sched.on_start(&mut ctx);
        sched.on_message(&mut ctx, N0, Msg::MemoryFull);
        ctx.sent.clear();
        // N0 is no longer active for its range; a duplicate report must not
        // recruit again.
        sched.on_message(&mut ctx, N0, Msg::MemoryFull);
        assert_eq!(sched.expansions, 1);
        assert_eq!(ctx.count(|m| matches!(m, Msg::Activate { .. })), 0);
    }

    #[test]
    fn pool_exhaustion_sends_no_more_nodes() {
        let (mut sched, mut ctx, _) = setup(Algorithm::Replicated, NODES);
        sched.on_start(&mut ctx);
        ctx.sent.clear();
        sched.on_message(&mut ctx, N2, Msg::MemoryFull);
        assert_eq!(ctx.sent_to(N2).len(), 1);
        assert!(matches!(ctx.sent_to(N2)[0], Msg::NoMoreNodes));
        assert_eq!(sched.expansions, 0);
        assert!(sched.spilled_actors.contains(&N2));
    }

    #[test]
    fn split_overflow_requests_pointer_bucket_split() {
        let (mut sched, mut ctx, _) = setup(Algorithm::Split, 2);
        sched.on_start(&mut ctx);
        ctx.sent.clear();
        // N1 reports full; the pointer bucket (bucket 0) is owned by N0.
        sched.on_message(&mut ctx, N1, Msg::MemoryFull);
        let reqs: Vec<(ActorId, &Msg)> = ctx
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::SplitRequest { .. }))
            .map(|(to, m)| (*to, m))
            .collect();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].0, N0, "pointer order, not reporter identity");
        assert_eq!(sched.lp_inflight.len(), 1);
    }

    #[test]
    fn split_round_boundary_waits_for_inflight_splits() {
        let (mut sched, mut ctx, _) = setup(Algorithm::Split, 2);
        sched.on_start(&mut ctx);
        ctx.sent.clear();
        // Two reports: bucket 0 and bucket 1 split concurrently (same round).
        sched.on_message(&mut ctx, N0, Msg::MemoryFull);
        sched.on_message(&mut ctx, N1, Msg::MemoryFull);
        assert_eq!(sched.lp_inflight.len(), 2, "same-round splits overlap");
        // A third report would start a new round: it must queue.
        sched.on_message(&mut ctx, N2, Msg::MemoryFull);
        assert_eq!(sched.lp_inflight.len(), 2);
        assert_eq!(sched.overflow_queue.len(), 1);
        // Completing the first two releases the round barrier.
        let steps: Vec<SplitStep> = ctx
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::SplitRequest { step, .. } => Some(*step),
                _ => None,
            })
            .collect();
        for step in steps {
            sched.on_message(
                &mut ctx,
                N0,
                Msg::SplitDone {
                    step,
                    moved_tuples: 0,
                },
            );
        }
        assert_eq!(sched.lp_inflight.len(), 1, "queued report processed");
        assert!(sched.overflow_queue.is_empty());
    }

    #[test]
    fn relieved_retracts_a_queued_report() {
        let (mut sched, mut ctx, _) = setup(Algorithm::Split, 2);
        sched.on_start(&mut ctx);
        ctx.sent.clear();
        sched.on_message(&mut ctx, N0, Msg::MemoryFull);
        sched.on_message(&mut ctx, N1, Msg::MemoryFull);
        sched.on_message(&mut ctx, N2, Msg::MemoryFull);
        assert_eq!(sched.overflow_queue.len(), 1);
        sched.on_message(&mut ctx, N2, Msg::Relieved);
        assert!(sched.overflow_queue.is_empty(), "stale report dropped");
    }

    fn drive_build_to_probe(
        sched: &mut Scheduler,
        ctx: &mut ScriptCtx,
        sent_chunks: u64,
        recv_per_node: u64,
    ) {
        sched.on_message(
            ctx,
            SRC,
            Msg::SourcePhaseDone {
                sent_chunks,
                comm: Box::new(CommCounters::new(100)),
            },
        );
        ack_all(sched, ctx, recv_per_node, 0);
    }

    #[test]
    fn a_late_chunk_settles_the_barrier_through_a_second_unprompted_ack() {
        let (mut sched, mut ctx, _) = setup(Algorithm::OutOfCore, 2);
        sched.on_start(&mut ctx);
        ctx.sent.clear();
        // Source sent 10 chunks but the armed nodes have seen 8 so far: the
        // barrier waits, and nothing is scheduled to wake it.
        drive_build_to_probe(&mut sched, &mut ctx, 10, 4);
        assert_eq!(ctx.count(|m| matches!(m, Msg::StartProbe { .. })), 0);
        assert!(
            ctx.sent_to(0).is_empty(),
            "the scheduler sends itself nothing"
        );
        // The stragglers land; each node re-acks on its own, same epoch.
        let epoch = sched.epoch;
        for node in [N0, N1] {
            assert_eq!(ctx.count(|m| matches!(m, Msg::StartProbe { .. })), 0);
            sched.on_message(
                &mut ctx,
                node,
                Msg::FlushAck {
                    epoch,
                    recv_chunks: 5,
                    fwd_chunks: 0,
                    pending: 0,
                },
            );
        }
        assert_eq!(ctx.count(|m| matches!(m, Msg::StartProbe { .. })), 1);
        assert_eq!(ctx.count(|m| matches!(m, Msg::FlushQuery { .. })), 0);
        assert!(ctx.sent_to(0).is_empty());
    }

    #[test]
    fn an_expansion_under_an_armed_wave_re_arms_it_for_the_recruit() {
        let (mut sched, mut ctx, _) = setup(Algorithm::Replicated, 2);
        sched.on_start(&mut ctx);
        let ack = |epoch, pending| Msg::FlushAck {
            epoch,
            recv_chunks: 6,
            fwd_chunks: 0,
            pending,
        };
        // Every chunk is in, but N0 still holds unhoused tuples: no settle.
        sched.on_message(
            &mut ctx,
            SRC,
            Msg::SourcePhaseDone {
                sent_chunks: 12,
                comm: Box::new(CommCounters::new(100)),
            },
        );
        let armed = sched.epoch;
        sched.on_message(&mut ctx, N0, ack(armed, 3));
        sched.on_message(&mut ctx, N1, ack(armed, 0));
        ctx.sent.clear();
        // Its report recruits a node and moves the routing version: the
        // wave is stale, and the next one polls the recruit too.
        sched.on_message(&mut ctx, N0, Msg::MemoryFull);
        assert_eq!(sched.epoch, armed + 1);
        assert_eq!(ctx.count(|m| matches!(m, Msg::FlushQuery { .. })), 3);
        // N0 drains, but under the stale wave: that ack no longer counts.
        sched.on_message(&mut ctx, N0, ack(armed, 0));
        assert_eq!(ctx.count(|m| matches!(m, Msg::StartProbe { .. })), 0);
        ack_all(&mut sched, &mut ctx, 4, 0);
        assert_eq!(ctx.count(|m| matches!(m, Msg::StartProbe { .. })), 1);
    }

    #[test]
    fn build_barrier_advances_straight_to_probe_without_replication() {
        let (mut sched, mut ctx, _) = setup(Algorithm::Hybrid, 2);
        sched.on_start(&mut ctx);
        ctx.sent.clear();
        drive_build_to_probe(&mut sched, &mut ctx, 10, 5);
        // No range was replicated: hybrid skips the reshuffle entirely.
        assert_eq!(ctx.count(|m| matches!(m, Msg::ReshuffleQuery { .. })), 0);
        assert_eq!(ctx.count(|m| matches!(m, Msg::StartProbe { .. })), 1);
    }

    #[test]
    fn hybrid_reshuffles_replicated_ranges_then_probes_disjoint() {
        let (mut sched, mut ctx, _) = setup(Algorithm::Hybrid, 2);
        sched.on_start(&mut ctx);
        // One replication: N0's range gains a new replica.
        sched.on_message(&mut ctx, N0, Msg::MemoryFull);
        let new_actor = ctx
            .sent
            .iter()
            .find_map(|(to, m)| matches!(m, Msg::Activate { .. }).then_some(*to))
            .expect("recruited");
        ctx.sent.clear();
        // Three active nodes ack 10 received chunks each = the 30 sent.
        drive_build_to_probe(&mut sched, &mut ctx, 30, 10);
        // Reshuffle queries go to both members of the replicated range.
        let queried: Vec<ActorId> = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::ReshuffleQuery { .. }).then_some(*to))
            .collect();
        assert_eq!(queried.len(), 2);
        assert!(queried.contains(&N0) && queried.contains(&new_actor));
        ctx.sent.clear();
        // Histograms: members hold equal loads over the range.
        let range_len = match &sched.routing {
            RoutingTable::Replica(m) => m.entries()[0].range.len(),
            _ => panic!("hybrid uses replica routing"),
        };
        for &member in &[N0, new_actor] {
            sched.on_message(
                &mut ctx,
                member,
                Msg::ReshuffleCounts {
                    group: 0,
                    histogram: Histogram {
                        counts: vec![1; range_len as usize],
                    },
                },
            );
        }
        // Both members receive the plan.
        let planned: Vec<ActorId> = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::ReshufflePlan { .. }).then_some(*to))
            .collect();
        assert_eq!(planned.len(), 2);
        ctx.sent.clear();
        for &member in &[N0, new_actor] {
            sched.on_message(&mut ctx, member, Msg::ReshuffleDone { group: 0 });
        }
        // Reshuffle data barrier: nodes report balanced reshuffle chunks.
        ack_all(&mut sched, &mut ctx, 1, 1);
        let probe_routing = ctx
            .sent
            .iter()
            .find_map(|(_, m)| match m {
                Msg::StartProbe { routing, .. } => Some(routing.clone()),
                _ => None,
            })
            .expect("probe starts after reshuffle");
        // The reshuffled range is now disjoint: every entry has one owner.
        match probe_routing {
            RoutingTable::Replica(m) => {
                assert!(m.entries().iter().all(|e| e.owners.len() == 1));
            }
            other => panic!("hybrid probe routing should be replica-shaped, got {other:?}"),
        }
    }

    #[test]
    fn reports_assemble_the_join_report_and_stop() {
        let (mut sched, mut ctx, slot) = setup(Algorithm::OutOfCore, 2);
        sched.on_start(&mut ctx);
        ctx.sent.clear();
        drive_build_to_probe(&mut sched, &mut ctx, 10, 5);
        // Probe phase: source done, nodes drained.
        sched.on_message(
            &mut ctx,
            SRC,
            Msg::SourcePhaseDone {
                sent_chunks: 4,
                comm: Box::new(CommCounters::new(100)),
            },
        );
        ack_all(&mut sched, &mut ctx, 2, 0);
        let report_requests = ctx.count(|m| matches!(m, Msg::ReportRequest));
        assert_eq!(report_requests, 2);
        for node in [N0, N1] {
            sched.on_message(
                &mut ctx,
                node,
                Msg::Report(Box::new(NodeReport {
                    build_tuples: 50,
                    matches: 7,
                    compares: 70,
                    comm: CommCounters::new(100),
                    spilled: false,
                })),
            );
        }
        assert!(ctx.stopped, "the scheduler stops the engine when done");
        let report = slot
            .lock()
            .expect("report lock")
            .take()
            .expect("report written");
        assert_eq!(report.matches, 14);
        assert_eq!(report.build_tuples, 100);
        assert_eq!(report.final_nodes, 2);
        assert_eq!(report.load, vec![50, 50]);
    }

    // ---- hot-key routing (DESIGN §4i) ----

    fn hot_setup(algorithm: Algorithm, initial: usize) -> (Scheduler, ScriptCtx) {
        let mut cfg = JoinConfig::paper_scaled(algorithm, 1000);
        cfg.cluster = ClusterSpec::homogeneous(NODES, 1 << 20);
        cfg.initial_nodes = initial;
        cfg.sources = SOURCES;
        cfg.hot_keys = true;
        let topo = Topology::with_base(0, SOURCES, NODES);
        let slot = Arc::new(Mutex::new(None));
        let mut sched = Scheduler::new(Arc::new(cfg), topo, slot);
        let mut ctx = ScriptCtx::new(0);
        sched.on_start(&mut ctx);
        ctx.sent.clear();
        (sched, ctx)
    }

    /// 8320 observed tuples, over the minimum total: key 700 holds 96 %
    /// and key 10 about 4 %, both above the hot fraction.
    fn skewed_sketch() -> SpaceSaving {
        let mut sk = SpaceSaving::new(8);
        sk.observe_n(700, 8000);
        sk.observe_n(10, 320);
        sk
    }

    #[test]
    fn skewed_sketch_installs_overlay_and_broadcasts() {
        let (mut sched, mut ctx) = hot_setup(Algorithm::Replicated, 2);
        sched.on_message(
            &mut ctx,
            SRC,
            Msg::SketchUpdate {
                sketch: skewed_sketch(),
            },
        );
        let overlay = sched.routing.overlay().expect("overlay installed");
        assert!(overlay.hot.contains(&700));
        assert_eq!(overlay.replicas, vec![N0, N1]);
        assert!(overlay.extra.is_empty(), "no extras during build");
        assert!(
            ctx.sent
                .iter()
                .any(|(to, m)| *to == SRC && matches!(m, Msg::RoutingUpdate { .. })),
            "sources must learn the overlay"
        );
        assert_eq!(sched.expansions, 0, "an overlay is not an expansion");
    }

    #[test]
    fn a_full_overlay_member_hands_its_replica_slot_to_the_recruit() {
        let (mut sched, mut ctx) = hot_setup(Algorithm::Hybrid, 2);
        sched.on_message(
            &mut ctx,
            SRC,
            Msg::SketchUpdate {
                sketch: skewed_sketch(),
            },
        );
        ctx.sent.clear();
        sched.on_message(&mut ctx, N0, Msg::MemoryFull);
        let recruit = ctx
            .sent
            .iter()
            .find_map(|(to, m)| matches!(m, Msg::Activate { .. }).then_some(*to))
            .expect("recruited");
        // The full node stops receiving hot build tuples as well as cold
        // ones, and the sources are told in the same broadcast.
        let overlay = sched.routing.overlay().expect("overlay stays installed");
        assert_eq!(overlay.replicas, vec![recruit, N1]);
        let told = ctx.sent_to(SRC).into_iter().any(|m| match m {
            Msg::RoutingUpdate { routing, .. } => {
                routing.overlay().is_some_and(|o| !o.replicas.contains(&N0))
            }
            _ => false,
        });
        assert!(told, "sources learn the new replica list");
    }

    #[test]
    fn uniform_sketch_never_installs_an_overlay() {
        let (mut sched, mut ctx) = hot_setup(Algorithm::Replicated, 2);
        let mut sk = SpaceSaving::new(SKETCH_CAPACITY);
        for key in 0..1024u64 {
            sk.observe_n(key, 8); // 8192 total, no key clears its share
        }
        sched.on_message(&mut ctx, SRC, Msg::SketchUpdate { sketch: sk });
        assert!(sched.routing.overlay().is_none());
        assert_eq!(ctx.count(|m| matches!(m, Msg::RoutingUpdate { .. })), 0);
    }

    #[test]
    fn replacing_a_sketch_snapshot_never_double_counts() {
        let (mut sched, mut ctx) = hot_setup(Algorithm::Replicated, 2);
        // Two cumulative snapshots from the same source: only the latest
        // counts. 6000 observed tuples stay under `HOT_MIN_TOTAL` = 8192.
        let mut first = SpaceSaving::new(8);
        first.observe_n(700, 5000);
        let mut second = SpaceSaving::new(8);
        second.observe_n(700, 6000);
        sched.on_message(&mut ctx, SRC, Msg::SketchUpdate { sketch: first });
        sched.on_message(&mut ctx, SRC, Msg::SketchUpdate { sketch: second });
        assert!(
            sched.routing.overlay().is_none(),
            "5000 + 6000 would clear the minimum; a replaced snapshot must not"
        );
    }

    #[test]
    fn oversized_sketch_is_a_protocol_fault() {
        let (mut sched, mut ctx) = hot_setup(Algorithm::Replicated, 2);
        let mut sk = SpaceSaving::new(1024);
        for key in 0..1024u64 {
            sk.observe(key);
        }
        sched.on_message(&mut ctx, SRC, Msg::SketchUpdate { sketch: sk });
        assert!(ctx.stopped, "a sketch beyond the sketch capacity");
        assert!(sched.routing.overlay().is_none());
    }

    #[test]
    fn handoff_runs_at_the_build_barrier_and_probe_gets_the_overlay() {
        let (mut sched, mut ctx) = hot_setup(Algorithm::Replicated, 2);
        sched.on_message(
            &mut ctx,
            SRC,
            Msg::SketchUpdate {
                sketch: skewed_sketch(),
            },
        );
        ctx.sent.clear();
        drive_build_to_probe(&mut sched, &mut ctx, 20, 10);
        // Build barrier settled: the hand-off round starts, not the probe.
        let plans: Vec<ActorId> = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::HotKeyPlan { .. }).then_some(*to))
            .collect();
        assert_eq!(plans, vec![N0, N1]);
        assert_eq!(ctx.count(|m| matches!(m, Msg::StartProbe { .. })), 0);
        ctx.sent.clear();
        for &member in &[N0, N1] {
            sched.on_message(&mut ctx, member, Msg::HotKeyDone);
        }
        // Hand-off barrier: both members report balanced reshuffle-lane
        // chunk counts (each shipped one chunk, each received one).
        ack_all(&mut sched, &mut ctx, 1, 1);
        let probe_routing = ctx
            .sent
            .iter()
            .find_map(|(_, m)| match m {
                Msg::StartProbe { routing, .. } => Some(routing.clone()),
                _ => None,
            })
            .expect("probe starts after the hand-off");
        let overlay = probe_routing.overlay().expect("probe overlay");
        assert_eq!(overlay.hot.first(), Some(&10));
        assert!(overlay.hot.contains(&700));
        assert_eq!(overlay.replicas, vec![N0, N1]);
        assert!(overlay.extra.is_empty(), "no spilled members here");
        assert!(matches!(probe_routing.inner(), RoutingTable::Replica(_)));
    }
}

#[cfg(test)]
mod robustness_tests {
    //! Protocol robustness: the scheduler must tolerate duplicate, stale
    //! and out-of-order control messages (the counting barriers and op
    //! guards exist precisely for this).

    use super::*;
    use crate::config::Algorithm;
    use crate::msg::NodeReport;
    use crate::testutil::ScriptCtx;
    use ehj_cluster::ClusterSpec;
    use ehj_metrics::CommCounters;

    fn setup(algorithm: Algorithm) -> (Scheduler, ScriptCtx) {
        let mut cfg = JoinConfig::paper_scaled(algorithm, 1000);
        cfg.cluster = ClusterSpec::homogeneous(6, 1 << 20);
        cfg.initial_nodes = 2;
        cfg.sources = 1;
        let topo = Topology::with_base(0, 1, 6);
        let slot = Arc::new(Mutex::new(None));
        let mut sched = Scheduler::new(Arc::new(cfg), topo, slot);
        let mut ctx = ScriptCtx::new(0);
        sched.on_start(&mut ctx);
        ctx.sent.clear();
        (sched, ctx)
    }

    #[test]
    fn duplicate_split_done_is_ignored() {
        let (mut sched, mut ctx) = setup(Algorithm::Split);
        sched.on_message(&mut ctx, 2, Msg::MemoryFull);
        let step = ctx
            .sent
            .iter()
            .find_map(|(_, m)| match m {
                Msg::SplitRequest { step, .. } => Some(*step),
                _ => None,
            })
            .expect("split requested");
        sched.on_message(
            &mut ctx,
            2,
            Msg::SplitDone {
                step,
                moved_tuples: 3,
            },
        );
        let splits_after_first = sched.split_time;
        // A duplicate completion for the same bucket must be a no-op.
        sched.on_message(
            &mut ctx,
            2,
            Msg::SplitDone {
                step,
                moved_tuples: 3,
            },
        );
        assert_eq!(sched.split_time, splits_after_first);
        assert!(sched.lp_inflight.is_empty());
    }

    #[test]
    fn stale_flush_acks_from_old_epochs_are_ignored() {
        let (mut sched, mut ctx) = setup(Algorithm::OutOfCore);
        sched.on_message(
            &mut ctx,
            1,
            Msg::SourcePhaseDone {
                sent_chunks: 10,
                comm: Box::new(CommCounters::new(100)),
            },
        );
        let epoch = sched.epoch;
        assert!(sched.wave_version.is_some());
        // An ack from a previous epoch must not count.
        sched.on_message(
            &mut ctx,
            2,
            Msg::FlushAck {
                epoch: epoch - 1,
                recv_chunks: 5,
                fwd_chunks: 0,
                pending: 0,
            },
        );
        assert_eq!(sched.acks[&2], None, "stale epoch ignored");
        // Nor one from an actor this wave never polled.
        sched.on_message(
            &mut ctx,
            7,
            Msg::FlushAck {
                epoch,
                recv_chunks: 10,
                fwd_chunks: 0,
                pending: 0,
            },
        );
        assert!(!sched.acks.contains_key(&7));
        // Correct-epoch acks complete the round.
        for node in [2u32, 3] {
            sched.on_message(
                &mut ctx,
                node,
                Msg::FlushAck {
                    epoch,
                    recv_chunks: 5,
                    fwd_chunks: 0,
                    pending: 0,
                },
            );
        }
        assert!(sched.wave_version.is_none(), "settled");
        assert_eq!(sched.phase, SchedPhase::Probe);
    }

    #[test]
    fn reports_after_done_are_tolerated() {
        let (mut sched, mut ctx) = setup(Algorithm::OutOfCore);
        // Force the reporting phase directly.
        sched.phase = SchedPhase::Reporting;
        sched.reports_expected = 1;
        let report = NodeReport {
            build_tuples: 1,
            matches: 0,
            compares: 0,
            comm: CommCounters::new(100),
            spilled: false,
        };
        sched.on_message(&mut ctx, 2, Msg::Report(Box::new(report.clone())));
        assert!(ctx.stopped);
        // A straggler report after completion must not panic.
        sched.on_message(&mut ctx, 3, Msg::Report(Box::new(report)));
    }

    #[test]
    fn memory_full_in_ooc_mode_is_a_no_op() {
        let (mut sched, mut ctx) = setup(Algorithm::OutOfCore);
        sched.on_message(&mut ctx, 2, Msg::MemoryFull);
        assert_eq!(sched.expansions, 0);
        assert!(sched.overflow_queue.is_empty());
        assert_eq!(ctx.count(|m| matches!(m, Msg::Activate { .. })), 0);
    }

    #[test]
    fn relieved_from_unknown_node_is_harmless() {
        let (mut sched, mut ctx) = setup(Algorithm::Split);
        sched.on_message(&mut ctx, 99, Msg::Relieved);
        assert!(sched.overflow_queue.is_empty());
    }

    fn stub_group(range_len: u32) -> Group {
        Group {
            members: vec![2, 3],
            spilled_members: Vec::new(),
            range: HashRange::new(0, range_len),
            hist: vec![0; range_len as usize],
            replies: 0,
            assignments: Vec::new(),
            done: 0,
        }
    }

    #[test]
    fn out_of_range_reshuffle_group_id_is_rejected_not_a_panic() {
        // Pre-validation this indexed `self.groups[gid]` straight off the
        // wire and panicked — which under the multi-tenant service would
        // take down every other query on the executor.
        let (mut sched, mut ctx) = setup(Algorithm::Hybrid);
        assert!(sched.groups.is_empty(), "no reshuffle started");
        sched.on_message(
            &mut ctx,
            2,
            Msg::ReshuffleCounts {
                group: 7,
                histogram: crate::msg::Histogram { counts: vec![1; 4] },
            },
        );
        assert!(ctx.stopped, "the query quiesces through the error path");
    }

    #[test]
    fn out_of_range_reshuffle_done_is_rejected_not_a_panic() {
        let (mut sched, mut ctx) = setup(Algorithm::Hybrid);
        sched.groups.push(stub_group(4));
        sched.on_message(
            &mut ctx,
            2,
            Msg::ReshuffleDone {
                group: 1, // one past the last valid gid
            },
        );
        assert!(ctx.stopped);
        assert_eq!(sched.groups[0].done, 0, "no group was touched");
    }

    #[test]
    fn reshuffle_counts_length_mismatch_is_rejected_not_asserted() {
        let (mut sched, mut ctx) = setup(Algorithm::Hybrid);
        sched.groups.push(stub_group(4));
        // A well-formed reply accumulates.
        sched.on_message(
            &mut ctx,
            2,
            Msg::ReshuffleCounts {
                group: 0,
                histogram: crate::msg::Histogram { counts: vec![1; 4] },
            },
        );
        assert_eq!(sched.groups[0].replies, 1);
        assert!(!ctx.stopped);
        // A histogram of the wrong width must not zip-truncate into the
        // accumulator (silent corruption in release builds pre-fix).
        sched.on_message(
            &mut ctx,
            3,
            Msg::ReshuffleCounts {
                group: 0,
                histogram: crate::msg::Histogram { counts: vec![1; 3] },
            },
        );
        assert!(ctx.stopped);
        assert_eq!(sched.groups[0].replies, 1, "malformed reply not counted");
    }

    #[test]
    fn split_done_for_unknown_bucket_is_ignored() {
        // The `old_bucket` audit: `handle_split_done` guards through
        // `lp_inflight`, so an unknown bucket id off the wire is dropped
        // without touching split accounting.
        let (mut sched, mut ctx) = setup(Algorithm::Split);
        let before = sched.split_time;
        sched.on_message(
            &mut ctx,
            2,
            Msg::SplitDone {
                step: ehj_hash::SplitStep {
                    old: 9999,
                    new: 10_000,
                    mid: 1,
                },
                moved_tuples: 17,
            },
        );
        assert_eq!(sched.split_time, before);
        assert!(!ctx.stopped);
    }
}
