//! The join-process actor.
//!
//! §4.1.3: a join process builds and maintains a portion of the hash table
//! and performs the join on it. This actor implements the node-side
//! behaviour of all four algorithms:
//!
//! * inserting build tuples with byte-accurate memory accounting and
//!   raising `memory full` exactly when an insert cannot be allocated — a
//!   chunk that lies in one table entry this node owns is appended in one
//!   call, to the table if it wholly fits or to the spill once one is under
//!   way, exactly as storing it tuple by tuple would;
//! * queueing unhoused tuples ("pending buffers") and, on each routing
//!   update, re-forwarding the ones whose range moved to a new node —
//!   the replication-based hand-off of §4.2.2;
//! * performing linear-pointer bucket splits (§4.2.1);
//! * answering reshuffle histogram queries and shipping reshuffle
//!   extractions (§4.2.3);
//! * probing with per-comparison CPU accounting; and
//! * spilling to local disk Grace-style — the whole job of the out-of-core
//!   baseline, and the fallback of any EHJA once the cluster has no
//!   potential nodes left.

use crate::barrier::Tally;
use crate::config::{Algorithm, JoinConfig, ProbeKernel};
use crate::msg::{Histogram, Msg, NodeReport};
use crate::routing::RoutingTable;
use crate::topology::Topology;
use ehj_data::{BufferPool, Tuple, TupleBatch};
use ehj_hash::{HashRange, JoinHashTable, PositionSpace, ProbeScratch, SplitStep};
use ehj_metrics::registry::names;
use ehj_metrics::{
    CommCategory, CommCounters, Counter, Gauge, MetricsHandle, Phase, TraceKind, Tracer,
};
use ehj_sim::{Actor, ActorId, Context};
use ehj_storage::{GraceJoin, SpillBackend};
use std::collections::VecDeque;
use std::sync::Arc;

/// A join node's registry instruments, minted once when the metrics
/// handle is attached. Per-batch latency and batch-size histograms feed
/// the report's percentile tables; the occupancy gauge (updated by delta,
/// so shard sharing stays exact) and the chain-length histogram describe
/// the hash-table layout. All single-branch no-ops when disabled.
struct NodeMetrics {
    build_ns: ehj_metrics::Histogram,
    probe_ns: ehj_metrics::Histogram,
    batch_tuples: ehj_metrics::Histogram,
    /// Build chunks that took the whole-chunk insert.
    build_whole_chunks: Counter,
    chain_len: ehj_metrics::Histogram,
    occupancy: Gauge,
    /// Last table length folded into the gauge.
    occupancy_seen: i64,
    /// Probe tuples through the filtered batch kernels and their tag
    /// rejections: the node's only count of either.
    filter_probes: Counter,
    filter_rejections: Counter,
    /// Probe tuples answered from a replicated hot position (DESIGN §4i).
    hotkey_hits: Counter,
}

impl NodeMetrics {
    fn new(handle: &MetricsHandle) -> Self {
        Self {
            build_ns: handle.histogram(names::NODE_BUILD_NS),
            probe_ns: handle.histogram(names::NODE_PROBE_NS),
            batch_tuples: handle.histogram(names::NODE_BATCH_TUPLES),
            build_whole_chunks: handle.counter(names::NODE_BUILD_WHOLE_CHUNKS),
            chain_len: handle.histogram(names::TABLE_CHAIN_LEN),
            occupancy: handle.gauge(names::NODE_ARENA_TUPLES),
            occupancy_seen: 0,
            filter_probes: handle.counter(names::NODE_FILTER_PROBES),
            filter_rejections: handle.counter(names::NODE_FILTER_REJECTIONS),
            hotkey_hits: handle.counter(names::NODE_HOTKEY_HITS),
        }
    }
}

/// One join process. `B` selects the spill backend: in-memory under the
/// discrete-event simulator (I/O cost charged through the engine's disk
/// model), real files under the threaded runtime.
pub struct JoinNode<B: SpillBackend + Default + Send> {
    cfg: Arc<JoinConfig>,
    /// The query's wiring, shared by every node: the scheduler's id, and
    /// which senders are sources (the only ones whose chunks are acked).
    topo: Arc<Topology>,
    me: ActorId,
    space: PositionSpace,
    capacity_bytes: u64,
    /// What arrived before the first routing table, which activates the
    /// node.
    boot_queue: Vec<(ActorId, Msg)>,
    table: JoinHashTable,
    pending: VecDeque<Tuple>,
    awaiting_relief: bool,
    /// Whether a MemoryFull report may still be queued at the scheduler.
    reported_full: bool,
    /// The table last accepted, shared with the scheduler and every other
    /// recipient of the same routing message; `None` until the node is
    /// activated.
    routing: Option<Arc<RoutingTable>>,
    routing_version: u64,
    /// This node's side of the phase barrier.
    barrier: Tally,
    comm: CommCounters,
    matches: u64,
    compares: u64,
    spill: Option<GraceJoin<B>>,
    reported: bool,
    tracer: Tracer,
    metrics: NodeMetrics,
    /// Reusable per-destination scatter buffers for routing whole batches
    /// (the destination slots persist across messages; no per-tuple map
    /// lookups or per-call rebuilds), sorted by destination.
    scatter: Vec<(ActorId, Vec<Tuple>)>,
    /// Reusable position buffer for the hash-once build path.
    pos_scratch: Vec<u32>,
    /// Reusable position scratch for the batched probe kernel.
    probe_scratch: ProbeScratch,
    /// Hot-key copies received before this node's own `HotKeyPlan`:
    /// inserting them early would re-ship a peer's copies during our own
    /// extraction, so they wait until the plan has been processed.
    hotkey_stash: Vec<TupleBatch>,
    /// Whether this node's `HotKeyPlan` has been processed this run.
    hotkey_plan_seen: bool,
}

impl<B: SpillBackend + Default + Send> JoinNode<B> {
    /// Creates an (initially inactive) join process for the node with
    /// `capacity_bytes` of hash-table memory.
    #[must_use]
    pub fn new(
        cfg: Arc<JoinConfig>,
        topo: Arc<Topology>,
        me: ActorId,
        capacity_bytes: u64,
    ) -> Self {
        let space = PositionSpace::new(cfg.positions, cfg.r.domain, cfg.hasher);
        let table = JoinHashTable::new(space, cfg.schema(), capacity_bytes);
        let chunk = cfg.chunk_tuples as u64;
        Self {
            cfg,
            topo,
            me,
            space,
            capacity_bytes,
            boot_queue: Vec::new(),
            table,
            pending: VecDeque::new(),
            awaiting_relief: false,
            reported_full: false,
            routing: None,
            routing_version: 0,
            barrier: Tally::default(),
            comm: CommCounters::new(chunk),
            matches: 0,
            compares: 0,
            spill: None,
            reported: false,
            tracer: Tracer::off(),
            metrics: NodeMetrics::new(&MetricsHandle::disabled()),
            scatter: Vec::new(),
            pos_scratch: Vec::new(),
            probe_scratch: ProbeScratch::new(),
            hotkey_stash: Vec::new(),
            hotkey_plan_seen: false,
        }
    }

    /// Attaches a tracer; events are emitted through it from then on.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches registry instruments (per-phase latency histograms, batch
    /// sizes, arena occupancy, chain lengths). Instrumentation never calls
    /// `consume_cpu` or changes message flow, so simulated observables are
    /// untouched.
    #[must_use]
    pub fn with_metrics(mut self, handle: &MetricsHandle) -> Self {
        self.metrics = NodeMetrics::new(handle);
        self
    }

    /// Folds the table-length change since the last call into the shared
    /// occupancy gauge (delta-based: exact even when shards are shared).
    fn update_occupancy(&mut self) {
        let now = self.table.len() as i64;
        let delta = now - self.metrics.occupancy_seen;
        if delta != 0 {
            self.metrics.occupancy.add(delta);
            self.metrics.occupancy_seen = now;
        }
    }

    /// Emits a summary-level trace event attributed to this node.
    fn trace(&self, ctx: &dyn Context<Msg>, phase: Phase, kind: TraceKind) {
        self.tracer.emit(ctx.now().as_nanos(), self.me, phase, kind);
    }

    /// Emits a detail-level trace event attributed to this node.
    fn trace_detail(&self, ctx: &dyn Context<Msg>, phase: Phase, kind: TraceKind) {
        self.tracer
            .emit_detail(ctx.now().as_nanos(), self.me, phase, kind);
    }

    fn tuple_bytes(&self) -> u64 {
        self.cfg.schema().tuple_bytes()
    }

    /// The category used when this node forwards build tuples it cannot or
    /// should not house (pending hand-off / stale routing).
    fn forward_category(&self) -> CommCategory {
        match self.cfg.algorithm {
            Algorithm::Replicated | Algorithm::Hybrid => CommCategory::ReplicaForward,
            Algorithm::Split => CommCategory::OwnershipForward,
            Algorithm::OutOfCore => CommCategory::OwnershipForward,
        }
    }

    /// Ships a batch to `to` in chunk-sized data messages, recording the
    /// traffic under `cat`. Chunks are zero-copy views of the batch.
    fn send_tuples(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        to: ActorId,
        phase: Phase,
        cat: CommCategory,
        batch: TupleBatch,
    ) {
        if batch.is_empty() {
            return;
        }
        let tb = self.tuple_bytes();
        for chunk in batch.chunks(self.cfg.chunk_tuples) {
            let n = chunk.len() as u64;
            self.comm.record(phase, cat, n, n * tb);
            self.barrier.forwarded(phase);
            ctx.send(
                to,
                Msg::Data {
                    phase,
                    tuples: chunk,
                    tuple_bytes: tb,
                },
            );
        }
    }

    /// Stages one routed tuple for `dest` in the reusable scatter buffers.
    /// Destinations are few (active nodes a batch fans out to), so a search
    /// of the sorted slots beats any map, and a new one is inserted in
    /// order. A buffer [`Self::ship_scatter`] handed off reserves once, for
    /// `batch` tuples (what the caller is routing), so it does not regrow
    /// tuple by tuple.
    #[inline]
    fn scatter_push(&mut self, dest: ActorId, t: Tuple, batch: usize) {
        let i = match self.scatter.binary_search_by_key(&dest, |&(d, _)| d) {
            Ok(i) => i,
            Err(i) => {
                self.scatter.insert(i, (dest, Vec::new()));
                i
            }
        };
        let buf = &mut self.scatter[i].1;
        if buf.capacity() == 0 {
            buf.reserve_exact(batch);
        }
        buf.push(t);
    }

    /// Ships every staged scatter group (in destination order, the slots'
    /// own, for deterministic traffic) and charges the routing CPU. When `whole` is
    /// the original incoming batch and every tuple routed to one
    /// destination, that batch is re-forwarded as an `Arc` clone instead of
    /// re-materializing the tuples — the common stale-routing case where a
    /// chunk's entire range moved to one new owner.
    fn ship_scatter(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        phase: Phase,
        whole: Option<&TupleBatch>,
    ) {
        let costs = self.cfg.costs;
        let fwd_cat = self.forward_category();
        for i in 0..self.scatter.len() {
            let dest = self.scatter[i].0;
            let n = self.scatter[i].1.len();
            if n == 0 {
                continue;
            }
            ctx.consume_cpu(costs.route_per_tuple * n as u64);
            let batch = match whole {
                Some(b) if b.len() == n => {
                    self.scatter[i].1.clear();
                    b.clone()
                }
                _ => TupleBatch::from(std::mem::take(&mut self.scatter[i].1)),
            };
            self.send_tuples(ctx, dest, phase, fwd_cat, batch);
        }
    }

    /// Brings the join process up on its first routing table: charges the
    /// recruit latency and replays what arrived before it.
    fn activate(&mut self, ctx: &mut dyn Context<Msg>, routing: Arc<RoutingTable>, version: u64) {
        ctx.consume_cpu(self.cfg.costs.recruit_latency);
        self.routing = Some(routing);
        self.routing_version = version;
        let queued = std::mem::take(&mut self.boot_queue);
        for (from, msg) in queued {
            self.dispatch(ctx, from, msg);
        }
    }

    /// Begins spilling: drains the in-memory table into Grace fragments.
    fn activate_spill(&mut self, ctx: &mut dyn Context<Msg>) {
        if self.spill.is_some() {
            return;
        }
        let range = HashRange::new(0, self.cfg.positions);
        let mut grace = GraceJoin::new(
            self.space,
            self.cfg.schema(),
            range,
            self.capacity_bytes,
            self.cfg.grace,
            B::default(),
        );
        let (drained, positions) = self.table.drain_all_with_positions();
        let n = drained.len() as u64;
        ctx.consume_cpu(self.cfg.costs.route_per_tuple * n);
        let bytes = grace.append_build_pre_hashed(&drained, &positions);
        BufferPool::global().give(drained);
        BufferPool::global().give(positions);
        ctx.disk_write(bytes); // the first spill pays a seek; later appends stream
        self.trace(
            ctx,
            Phase::Build,
            TraceKind::Spill {
                bytes,
                fragments: grace.fragments() as u64,
            },
        );
        self.spill = Some(grace);
        self.spill_pending(ctx);
        ctx.send(self.topo.scheduler, Msg::Spilled);
    }

    /// Pending tuples finally have a home on disk: append them and retract
    /// any outstanding overflow report. Shared by spill activation and the
    /// post-spill pending drain.
    fn spill_pending(&mut self, ctx: &mut dyn Context<Msg>) {
        let pending: Vec<Tuple> = std::mem::take(&mut self.pending).into();
        self.spill_append_build(ctx, &pending, None);
        self.awaiting_relief = false;
        self.retract_full_report(ctx);
    }

    /// Raises the §4.1.3 "memory full" condition for the current pending
    /// queue (at most one report outstanding; see `reported_full`).
    fn report_overflow(&mut self, ctx: &mut dyn Context<Msg>) {
        self.awaiting_relief = true;
        self.reported_full = true;
        let pending = self.pending.len() as u64;
        self.trace(ctx, Phase::Build, TraceKind::BucketOverflow { pending });
        ctx.send(self.topo.scheduler, Msg::MemoryFull);
    }

    /// Spills build tuples, passing their `positions` on when the caller
    /// has them so Grace does not hash them again.
    fn spill_append_build(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        tuples: &[Tuple],
        positions: Option<&[u32]>,
    ) {
        if tuples.is_empty() {
            return;
        }
        let grace = self.spill.as_mut().expect("spill active");
        ctx.consume_cpu(self.cfg.costs.route_per_tuple * tuples.len() as u64);
        let bytes = match positions {
            Some(positions) => grace.append_build_pre_hashed(tuples, positions),
            None => grace.append_build(tuples),
        };
        let fragments = grace.fragments() as u64;
        ctx.disk_append(bytes);
        self.trace_detail(ctx, Phase::Build, TraceKind::Spill { bytes, fragments });
    }

    /// The whole-chunk build path: a chunk with no overlay installed whose
    /// lowest and highest positions fall in one table entry this node owns
    /// is appended in one call — to the spill once one is under way, else
    /// to the table if all of it fits. The tuple loop would have stored the
    /// same tuples in the same order and charged the same CPU and disk, so
    /// nothing observable differs. Returns false, having changed nothing,
    /// when any test fails.
    fn build_whole_chunk(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        batch: &[Tuple],
        positions: &[u32],
    ) -> bool {
        let routing = self.routing.as_ref().expect("active node has routing");
        if routing.overlay().is_some() {
            return false;
        }
        let Some(&first) = positions.first() else {
            return false;
        };
        let (lo, hi) = positions
            .iter()
            .fold((first, first), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        // Entries are contiguous ranges, so one entry at both ends covers
        // every position between them.
        if routing.entry_index(lo) != routing.entry_index(hi) || routing.build_dest(lo) != self.me {
            return false;
        }
        if self.spill.is_some() {
            self.spill_append_build(ctx, batch, Some(positions));
        } else if self.table.insert_batch_pre_hashed(batch, positions).is_ok() {
            ctx.consume_cpu(self.cfg.costs.insert_per_tuple * batch.len() as u64);
        } else {
            return false;
        }
        self.metrics.build_whole_chunks.add(1);
        true
    }

    fn handle_build(&mut self, ctx: &mut dyn Context<Msg>, batch: TupleBatch) {
        let _timer = self.metrics.build_ns.start_timer();
        self.metrics.batch_tuples.record(batch.len() as u64);
        // Hash once, in bulk: each position addresses both the routing
        // table and the local hash table, or the spill's fragments.
        let mut positions = std::mem::take(&mut self.pos_scratch);
        self.space.bulk_positions(&batch, &mut positions);
        if !self.build_whole_chunk(ctx, &batch, &positions) {
            self.build_tuple_by_tuple(ctx, &batch, &positions);
        }
        self.pos_scratch = positions;
    }

    /// The build for a chunk the whole-chunk path refused (it straddles
    /// entries, is not all ours, does not wholly fit, or meets an overlay):
    /// each tuple is routed, and one this node owns is inserted under a
    /// capacity check, queued as pending, or spilled with its position.
    fn build_tuple_by_tuple(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        batch: &TupleBatch,
        positions: &[u32],
    ) {
        let costs = self.cfg.costs;
        let routing = self.routing.take().expect("active node has routing");
        let mut to_spill: Vec<Tuple> = Vec::new();
        let mut spill_positions: Vec<u32> = Vec::new();
        let mut inserted: u64 = 0;
        let mut newly_pending: u64 = 0;
        for (&t, &pos) in batch.iter().zip(positions) {
            // Hot positions are replicated: a hot tuple landing anywhere is
            // validly homed, and the post-build hand-off copies it to every
            // clean participant (DESIGN §4i). Forwarding it would break the
            // exactly-once-per-replica-set invariant the sources establish.
            let hot = routing.overlay().is_some_and(|o| o.is_hot(pos));
            let dest = if hot {
                self.me
            } else {
                routing.build_dest(pos)
            };
            if dest != self.me {
                self.scatter_push(dest, t, batch.len());
                continue;
            }
            if self.spill.is_some() {
                to_spill.push(t);
                spill_positions.push(pos);
                continue;
            }
            match self.table.insert_pre_hashed(t, pos) {
                Ok(()) => inserted += 1,
                Err(_) if self.cfg.algorithm == Algorithm::OutOfCore => {
                    // The baseline never expands: go out of core now.
                    self.activate_spill(ctx);
                    to_spill.push(t);
                    spill_positions.push(pos);
                }
                Err(_) => {
                    // A hot tuple that does not fit on a member that is not
                    // the position's inner owner goes to that owner at
                    // once: relief only ever reaches the owner, so parked
                    // here it could wait for an update that never comes.
                    let owner = if hot {
                        routing.inner().build_dest(pos)
                    } else {
                        self.me
                    };
                    if owner != self.me {
                        self.scatter_push(owner, t, batch.len());
                    } else {
                        // The queue is kept from then on (see
                        // `drain_pending`), so it is sized once, for a
                        // chunk.
                        if self.pending.capacity() == 0 {
                            self.pending.reserve(batch.len());
                        }
                        self.pending.push_back(t);
                        newly_pending += 1;
                    }
                }
            }
        }
        self.routing = Some(routing);
        ctx.consume_cpu(costs.insert_per_tuple * inserted);
        let kept_local = inserted + to_spill.len() as u64 + newly_pending;
        self.spill_append_build(ctx, &to_spill, Some(&spill_positions));
        // If nothing stayed local, the original batch may be re-forwardable
        // wholesale (Arc clone) instead of copied out of the scatter buffer.
        let whole = (kept_local == 0).then_some(batch);
        self.ship_scatter(ctx, Phase::Build, whole);
        if newly_pending > 0 && !self.awaiting_relief {
            self.report_overflow(ctx);
        }
    }

    /// Notifies the scheduler that this node no longer needs relief, so a
    /// stale queued overflow report does not trigger a pointless split.
    fn retract_full_report(&mut self, ctx: &mut dyn Context<Msg>) {
        if self.reported_full {
            self.reported_full = false;
            ctx.send(self.topo.scheduler, Msg::Relieved);
        }
    }

    /// Re-examines pending tuples after a routing change: forward the ones
    /// that now belong elsewhere, retry the rest, and escalate again if the
    /// table is still full.
    fn drain_pending(&mut self, ctx: &mut dyn Context<Msg>) {
        if self.pending.is_empty() {
            self.awaiting_relief = false;
            self.retract_full_report(ctx);
            return;
        }
        if self.spill.is_some() {
            self.spill_pending(ctx);
            return;
        }
        let costs = self.cfg.costs;
        let routing = self.routing.take().expect("active node has routing");
        let mut inserted: u64 = 0;
        // One pass over the queue in place: each tuple is popped from the
        // front, and one still unhoused goes to the back, so what stays
        // keeps its order and the queue its allocation.
        let queued = self.pending.len();
        for _ in 0..queued {
            let t = self.pending.pop_front().expect("counted above");
            let pos = self.space.position_of(t.join_attr);
            let hot = routing.overlay().is_some_and(|o| o.is_hot(pos));
            if hot {
                // A replicated position is validly homed on any member, so
                // prefer housing it here; but when the table is full the
                // tuple must follow the *inner* routing like any other
                // pending tuple — relief moves inner ownership, never the
                // overlay, and pinning it here would deadlock the drain.
                // The receiver houses it where it arrives: still exactly
                // once.
                if self.table.insert_pre_hashed(t, pos).is_ok() {
                    inserted += 1;
                    continue;
                }
            }
            let dest = if hot {
                routing.inner().build_dest(pos)
            } else {
                routing.build_dest(pos)
            };
            if dest != self.me {
                self.scatter_push(dest, t, queued);
            } else {
                match self.table.insert_pre_hashed(t, pos) {
                    Ok(()) => inserted += 1,
                    Err(_) => self.pending.push_back(t),
                }
            }
        }
        self.routing = Some(routing);
        ctx.consume_cpu(costs.insert_per_tuple * inserted);
        self.ship_scatter(ctx, Phase::Build, None);
        if self.pending.is_empty() {
            self.awaiting_relief = false;
            self.retract_full_report(ctx);
        } else {
            // Still full after relief: report again (one split per report,
            // the uncontrolled-split discipline of linear hashing).
            self.report_overflow(ctx);
        }
    }

    fn handle_probe(&mut self, ctx: &mut dyn Context<Msg>, tuples: TupleBatch) {
        self.metrics.batch_tuples.record(tuples.len() as u64);
        let _timer = self.metrics.probe_ns.start_timer();
        if let Some(grace) = self.spill.as_mut() {
            ctx.consume_cpu(self.cfg.costs.route_per_tuple * tuples.len() as u64);
            let bytes = grace.append_probe(&tuples);
            let fragments = grace.fragments() as u64;
            ctx.disk_append(bytes);
            self.trace_detail(ctx, Phase::Probe, TraceKind::Spill { bytes, fragments });
            return;
        }
        self.probe_batch(ctx, &tuples);
    }

    /// Probes one batch against the table and accounts for it.
    fn probe_batch(&mut self, ctx: &mut dyn Context<Msg>, tuples: &TupleBatch) {
        let costs = self.cfg.costs;
        let kernel = self.cfg.probe_kernel;
        let stats = self
            .table
            .probe_batch_with(tuples, &mut self.probe_scratch, kernel);
        // The scalar reference has no filter, so it keeps no filter stats.
        if kernel != ProbeKernel::Scalar {
            self.metrics.filter_probes.add(stats.probes);
            self.metrics.filter_rejections.add(stats.rejections);
        }
        let (compared, found) = (stats.compared, stats.matches);
        self.matches += found;
        self.compares += compared;
        if let Some(o) = self.routing.as_deref().and_then(RoutingTable::overlay) {
            // The batched kernel has just hashed exactly this batch into the
            // scratch; the scalar reference fills nothing.
            let hits = match kernel {
                ProbeKernel::Scalar => {
                    let positions = tuples.iter().map(|t| self.space.position_of(t.join_attr));
                    positions.filter(|&pos| o.is_hot(pos)).count()
                }
                ProbeKernel::Batched => {
                    let positions = self.probe_scratch.positions().iter();
                    positions.filter(|&&pos| o.is_hot(pos)).count()
                }
            } as u64;
            if hits > 0 {
                self.metrics.hotkey_hits.add(hits);
            }
        }
        ctx.consume_cpu(
            costs.probe_per_tuple * tuples.len() as u64
                + costs.probe_per_compare * compared
                + costs.per_match * found,
        );
    }

    /// Hot-key hand-off (DESIGN §4i): copy — without removing — this
    /// node's tuples at the hot positions to every other clean participant,
    /// so each replica ends up with the full build side of the hot keys.
    /// Stashed copies from peers whose plan raced ahead of ours are
    /// inserted only after our own extraction, otherwise we would re-ship
    /// a peer's copies and double-count matches.
    fn handle_hotkey_plan(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        positions: Vec<u32>,
        members: Vec<ActorId>,
    ) {
        self.hotkey_plan_seen = true;
        if self.spill.is_none() && !positions.is_empty() {
            let scanned = self.table.len();
            let copies = self.table.collect_positions(&positions);
            ctx.consume_cpu(self.cfg.costs.route_per_tuple * scanned);
            if !copies.is_empty() {
                let batch = TupleBatch::from(copies);
                let me = self.me;
                for &m in members.iter().filter(|&&m| m != me) {
                    self.trace_detail(
                        ctx,
                        Phase::Reshuffle,
                        TraceKind::ReshuffleChunk {
                            to: m,
                            tuples: batch.len() as u64,
                        },
                    );
                    self.send_hotkey_data(ctx, m, batch.clone());
                }
            }
        }
        ctx.send(self.topo.scheduler, Msg::HotKeyDone);
        let stash = std::mem::take(&mut self.hotkey_stash);
        for batch in stash {
            self.insert_hotkey_batch(ctx, &batch);
        }
    }

    /// Ships a hand-off batch in chunk-sized `HotKeyData` messages. The
    /// traffic rides the reshuffle lane: it happens in the same barrier
    /// window and competes with reshuffle transfers for the same links.
    fn send_hotkey_data(&mut self, ctx: &mut dyn Context<Msg>, to: ActorId, batch: TupleBatch) {
        let tb = self.tuple_bytes();
        for chunk in batch.chunks(self.cfg.chunk_tuples) {
            let n = chunk.len() as u64;
            self.comm
                .record(Phase::Reshuffle, CommCategory::ReshuffleTransfer, n, n * tb);
            self.barrier.forwarded(Phase::Reshuffle);
            ctx.send(
                to,
                Msg::HotKeyData {
                    tuples: chunk,
                    tuple_bytes: tb,
                },
            );
        }
    }

    fn insert_hotkey_batch(&mut self, ctx: &mut dyn Context<Msg>, tuples: &TupleBatch) {
        ctx.consume_cpu(self.cfg.costs.insert_per_tuple * tuples.len() as u64);
        if self.spill.is_some() {
            // Spilled members are excluded from the hand-off, but a racing
            // spill still needs the copies to land somewhere durable.
            self.spill_append_build(ctx, tuples, None);
        } else {
            self.table.insert_batch_unchecked(tuples);
        }
    }

    fn handle_reshuffle_data(&mut self, ctx: &mut dyn Context<Msg>, tuples: TupleBatch) {
        // Reshuffle receivers insert without a capacity check: the greedy
        // plan equalizes loads, and the paper redistributes unconditionally.
        ctx.consume_cpu(self.cfg.costs.insert_per_tuple * tuples.len() as u64);
        self.table.insert_batch_unchecked(&tuples);
    }

    fn handle_split_request(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        step: SplitStep,
        new_node: ActorId,
    ) {
        // Scan the bucket (this node's whole table under linear hashing:
        // every node owns exactly one bucket) and extract the upper half of
        // its subrange. Linear hashing subdivides the position space,
        // matching the routing table. A position drain, not
        // `extract_range`: nothing may order the arena before the build
        // barrier (DESIGN §4c).
        let scanned = self.table.len();
        let moved = self
            .table
            .drain_positions(|pos| step.moves_to_new(pos as u64));
        ctx.consume_cpu(self.cfg.costs.route_per_tuple * scanned);
        let moved_count = moved.len() as u64;
        self.send_tuples(
            ctx,
            new_node,
            Phase::Build,
            CommCategory::SplitTransfer,
            moved.into(),
        );
        ctx.send(
            self.topo.scheduler,
            Msg::SplitDone {
                step,
                moved_tuples: moved_count,
            },
        );
    }

    fn handle_reshuffle_plan(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        group: u32,
        assignments: Vec<(HashRange, ActorId)>,
    ) {
        for (subrange, owner) in assignments {
            if owner == self.me || subrange.is_empty() {
                continue;
            }
            let extracted = self.table.extract_range(subrange.start, subrange.end);
            if extracted.is_empty() {
                continue;
            }
            ctx.consume_cpu(self.cfg.costs.route_per_tuple * extracted.len() as u64);
            self.trace_detail(
                ctx,
                Phase::Reshuffle,
                TraceKind::ReshuffleChunk {
                    to: owner,
                    tuples: extracted.len() as u64,
                },
            );
            self.send_tuples(
                ctx,
                owner,
                Phase::Reshuffle,
                CommCategory::ReshuffleTransfer,
                extracted.into(),
            );
        }
        ctx.send(self.topo.scheduler, Msg::ReshuffleDone { group });
    }

    fn handle_report_request(&mut self, ctx: &mut dyn Context<Msg>) {
        if self.reported {
            return;
        }
        self.reported = true;
        let spilled = self.spill.is_some();
        let mut build_tuples = self.table.len();
        if let Some(grace) = self.spill.take() {
            build_tuples += grace.build_tuples();
            let result = grace.finalize();
            ctx.disk_read(result.bytes_read);
            ctx.disk_write(result.bytes_rewritten);
            self.trace(
                ctx,
                Phase::Probe,
                TraceKind::SpillFetch {
                    bytes: result.bytes_read,
                },
            );
            let costs = self.cfg.costs;
            ctx.consume_cpu(
                costs.insert_per_tuple * result.build_inserts
                    + costs.probe_per_compare * result.compares
                    + costs.per_match * result.matches,
            );
            self.matches += result.matches;
            self.compares += result.compares;
        }
        self.table.observe_metrics(&self.metrics.chain_len);
        ctx.send(
            self.topo.scheduler,
            Msg::Report(Box::new(NodeReport {
                build_tuples,
                matches: self.matches,
                compares: self.compares,
                comm: self.comm.clone(),
                spilled,
            })),
        );
    }

    fn dispatch(&mut self, ctx: &mut dyn Context<Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::Data { phase, tuples, .. } => {
                self.barrier.received(phase);
                ctx.consume_cpu(self.cfg.costs.chunk_handling);
                // Flow-control credit for a source's window. A node that
                // forwards, moves or reshuffles chunks has no window, so
                // its chunks are not acked.
                if self.topo.is_source(from) {
                    ctx.send(from, Msg::DataAck);
                }
                match phase {
                    Phase::Build => self.handle_build(ctx, tuples),
                    Phase::Probe => self.handle_probe(ctx, tuples),
                    Phase::Reshuffle => self.handle_reshuffle_data(ctx, tuples),
                }
            }
            Msg::RoutingUpdate { routing, version } => {
                if version > self.routing_version {
                    self.routing = Some(routing);
                    self.routing_version = version;
                }
                self.drain_pending(ctx);
            }
            Msg::SplitRequest { step, new_node } => {
                self.handle_split_request(ctx, step, new_node);
            }
            Msg::ReshuffleQuery { group, range } => {
                let counts = self.table.position_histogram(range.start, range.end);
                let total: u64 = counts.iter().sum();
                ctx.consume_cpu(self.cfg.costs.probe_per_compare * total);
                ctx.send(
                    self.topo.scheduler,
                    Msg::ReshuffleCounts {
                        group,
                        histogram: Histogram { counts },
                    },
                );
            }
            Msg::ReshufflePlan { group, assignments } => {
                self.handle_reshuffle_plan(ctx, group, assignments);
            }
            Msg::HotKeyPlan { positions, members } => {
                self.handle_hotkey_plan(ctx, positions, members);
            }
            Msg::HotKeyData { tuples, .. } => {
                self.barrier.received(Phase::Reshuffle);
                ctx.consume_cpu(self.cfg.costs.chunk_handling);
                if self.hotkey_plan_seen {
                    self.insert_hotkey_batch(ctx, &tuples);
                } else {
                    self.hotkey_stash.push(tuples);
                }
            }
            Msg::NoMoreNodes => self.activate_spill(ctx),
            Msg::FlushQuery { epoch, phase } => self.barrier.arm(epoch, phase),
            Msg::ReportRequest => self.handle_report_request(ctx),
            _ => {}
        }
        self.update_occupancy();
        // An armed node tells the scheduler's barrier its counts once, then
        // again whenever a message moved them: the barrier is never polled.
        if let Some((epoch, counts)) = self.barrier.ack(self.pending.len() as u64) {
            ctx.send(self.topo.scheduler, Msg::FlushAck { epoch, counts });
        }
    }
}

impl<B: SpillBackend + Default + Send> Actor<Msg> for JoinNode<B> {
    fn on_message(&mut self, ctx: &mut dyn Context<Msg>, from: ActorId, msg: Msg) {
        if self.routing.is_none() {
            // The first routing table activates the node. Data can outrun
            // it (the scheduler's update and a source's first chunk race
            // through independent links), so anything else waits for it.
            // The update is then handled like any later one: its table is
            // in place, so it only drains `pending`.
            let Msg::RoutingUpdate { routing, version } = &msg else {
                self.boot_queue.push((from, msg));
                return;
            };
            self.activate(ctx, Arc::clone(routing), *version);
        }
        self.dispatch(ctx, from, msg);
    }
}

#[cfg(test)]
mod tests {
    //! Unit tests drive the node through a scripted context; full-protocol
    //! coverage lives in the runner/integration tests.

    use super::*;
    use crate::config::JoinConfig;
    use crate::testutil::ScriptCtx;
    use ehj_hash::ReplicaMap;
    use ehj_sim::SimTime;
    use ehj_storage::MemBackend;

    const SCHED: ActorId = 0;
    const SOURCE: ActorId = 1;
    const ME: ActorId = 10;
    const OTHER: ActorId = 11;

    /// Scheduler 0, one source (1), join nodes 2..=12 (`ME` and `OTHER`
    /// among them).
    fn topo() -> Arc<Topology> {
        Arc::new(Topology::new(1, 11))
    }

    fn test_cfg(algorithm: Algorithm) -> Arc<JoinConfig> {
        let mut cfg = JoinConfig::paper_scaled(algorithm, 1000);
        // positions == domain: position == attribute value, which keeps the
        // expected routing in these tests easy to read.
        cfg.positions = 1000;
        cfg.r = cfg.r.with_domain(1000);
        cfg.s = cfg.s.with_domain(1000);
        cfg.chunk_tuples = 8;
        Arc::new(cfg)
    }

    fn capacity_tuples(cfg: &JoinConfig, n: u64) -> u64 {
        n * (cfg.schema().tuple_bytes() + ehj_hash::ENTRY_OVERHEAD_BYTES)
    }

    /// Routing: positions [0,500) → ME, [500,1000) → OTHER.
    fn two_node_routing() -> RoutingTable {
        RoutingTable::Replica(ReplicaMap::partitioned(1000, &[ME, OTHER]))
    }

    fn activated_node(algorithm: Algorithm, cap_tuples: u64) -> (JoinNode<MemBackend>, ScriptCtx) {
        let cfg = test_cfg(algorithm);
        let cap = capacity_tuples(&cfg, cap_tuples);
        let mut node = JoinNode::<MemBackend>::new(cfg, topo(), ME, cap);
        let mut ctx = ScriptCtx::new(ME);
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(two_node_routing()),
                version: 1,
            },
        );
        ctx.sent.clear();
        (node, ctx)
    }

    fn build_data(tuples: Vec<Tuple>) -> Msg {
        Msg::Data {
            phase: Phase::Build,
            tuples: tuples.into(),
            tuple_bytes: 116,
        }
    }

    #[test]
    fn metrics_instruments_observe_build_probe_and_occupancy() {
        use ehj_metrics::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let cfg = test_cfg(Algorithm::Replicated);
        let cap = capacity_tuples(&cfg, 100);
        let mut node =
            JoinNode::<MemBackend>::new(cfg, topo(), ME, cap).with_metrics(&registry.handle_for(0));
        let mut ctx = ScriptCtx::new(ME);
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(two_node_routing()),
                version: 1,
            },
        );
        node.on_message(
            &mut ctx,
            1,
            build_data(vec![Tuple::new(1, 100), Tuple::new(2, 200)]),
        );
        node.on_message(
            &mut ctx,
            1,
            Msg::Data {
                phase: Phase::Probe,
                tuples: vec![Tuple::new(3, 100)].into(),
                tuple_bytes: 116,
            },
        );
        node.on_message(&mut ctx, SCHED, Msg::ReportRequest);
        let snap = registry.snapshot();
        let hist = |name: &str| snap.histograms.get(name).expect(name).clone();
        assert_eq!(hist(names::NODE_BUILD_NS).count, 1);
        assert_eq!(hist(names::NODE_PROBE_NS).count, 1);
        let batches = hist(names::NODE_BATCH_TUPLES);
        assert_eq!(batches.count, 2, "one build batch + one probe batch");
        assert_eq!(batches.max, 2);
        let chains = hist(names::TABLE_CHAIN_LEN);
        assert_eq!(chains.count, 2, "two occupied buckets at report time");
        assert_eq!(
            snap.gauges.get(names::NODE_ARENA_TUPLES).copied(),
            Some(2),
            "occupancy gauge tracks resident tuples by delta"
        );
    }

    #[test]
    fn inserts_owned_tuples_and_forwards_stale_ones() {
        let (mut node, mut ctx) = activated_node(Algorithm::Replicated, 100);
        // Attr 100 → position 100 (ours); attr 700 → position 700 (OTHER's).
        node.on_message(
            &mut ctx,
            1,
            build_data(vec![Tuple::new(1, 100), Tuple::new(2, 700)]),
        );
        assert_eq!(node.table.len(), 1);
        // One DataAck back to the sender plus one forwarded chunk.
        assert!(ctx
            .sent
            .iter()
            .any(|(to, m)| *to == 1 && matches!(m, Msg::DataAck)));
        let data: Vec<_> = ctx
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Data { .. }))
            .collect();
        assert_eq!(data.len(), 1);
        let (to, msg) = data[0];
        assert_eq!(*to, OTHER);
        match msg {
            Msg::Data {
                phase: Phase::Build,
                tuples,
                ..
            } => assert_eq!(tuples.as_slice(), [Tuple::new(2, 700)]),
            other => panic!("expected forwarded data, got {other:?}"),
        }
    }

    /// Tuples in every `HotKeyData` send captured so far.
    fn hotkey_tuples_sent(ctx: &ScriptCtx) -> usize {
        ctx.sent
            .iter()
            .map(|(_, m)| match m {
                Msg::HotKeyData { tuples, .. } => tuples.len(),
                _ => 0,
            })
            .sum()
    }

    /// Hot-key wrapper over the two-node routing: position 700 (inner says
    /// OTHER) is hot and replicated on both nodes.
    fn hot_routing() -> RoutingTable {
        RoutingTable::HotKeys {
            overlay: crate::routing::HotKeyOverlay {
                hot: vec![700],
                replicas: vec![ME, OTHER],
                extra: Vec::new(),
            },
            inner: Box::new(two_node_routing()),
        }
    }

    #[test]
    fn hot_build_tuples_insert_locally_despite_inner_routing() {
        let (mut node, mut ctx) = activated_node(Algorithm::Replicated, 100);
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(hot_routing()),
                version: 2,
            },
        );
        ctx.sent.clear();
        // Attr 700 is hot: even though the inner map homes it on OTHER, a
        // replica keeps it (the hand-off will copy it everywhere later).
        node.on_message(
            &mut ctx,
            1,
            build_data(vec![Tuple::new(1, 700), Tuple::new(2, 100)]),
        );
        assert_eq!(node.table.len(), 2);
        assert!(
            ctx.sent.iter().all(|(_, m)| !matches!(m, Msg::Data { .. })),
            "hot tuple must not be forwarded"
        );
    }

    #[test]
    fn hotkey_plan_copies_hot_tuples_without_removing_them() {
        let (mut node, mut ctx) = activated_node(Algorithm::Replicated, 100);
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(hot_routing()),
                version: 2,
            },
        );
        node.on_message(
            &mut ctx,
            1,
            build_data(vec![Tuple::new(1, 700), Tuple::new(2, 100)]),
        );
        ctx.sent.clear();
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::HotKeyPlan {
                positions: vec![700],
                members: vec![ME, OTHER],
            },
        );
        // The original stays resident; a copy ships to the other member.
        assert_eq!(node.table.len(), 2);
        let shipped: Vec<_> = ctx
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::HotKeyData { .. }))
            .collect();
        assert_eq!(shipped.len(), 1);
        let (to, msg) = shipped[0];
        assert_eq!(*to, OTHER);
        match msg {
            Msg::HotKeyData { tuples, .. } => {
                assert_eq!(tuples.as_slice(), [Tuple::new(1, 700)]);
            }
            other => panic!("expected HotKeyData, got {other:?}"),
        }
        assert_eq!(
            hotkey_tuples_sent(&ctx),
            1,
            "one copy shipped before HotKeyDone"
        );
        assert!(ctx
            .sent
            .iter()
            .any(|(to, m)| *to == SCHED && matches!(m, Msg::HotKeyDone)));
    }

    #[test]
    fn hotkey_data_stashes_until_own_plan_arrives() {
        let (mut node, mut ctx) = activated_node(Algorithm::Replicated, 100);
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(hot_routing()),
                version: 2,
            },
        );
        ctx.sent.clear();
        // A peer's copy arrives before our own plan: it must wait, or our
        // extraction would re-ship it and double-count the build side.
        node.on_message(
            &mut ctx,
            OTHER,
            Msg::HotKeyData {
                tuples: vec![Tuple::new(7, 700)].into(),
                tuple_bytes: 116,
            },
        );
        assert_eq!(node.table.len(), 0, "copy stashed, not inserted");
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::HotKeyPlan {
                positions: vec![700],
                members: vec![ME, OTHER],
            },
        );
        assert_eq!(node.table.len(), 1, "stash drains after the plan");
        assert_eq!(hotkey_tuples_sent(&ctx), 0, "nothing of ours was hot");
        assert!(ctx
            .sent
            .iter()
            .any(|(to, m)| *to == SCHED && matches!(m, Msg::HotKeyDone)));
        // Late copies insert directly once the plan has been seen.
        node.on_message(
            &mut ctx,
            OTHER,
            Msg::HotKeyData {
                tuples: vec![Tuple::new(8, 700)].into(),
                tuple_bytes: 116,
            },
        );
        assert_eq!(node.table.len(), 2);
    }

    #[test]
    fn overflow_raises_memory_full_once() {
        let (mut node, mut ctx) = activated_node(Algorithm::Replicated, 2);
        let tuples: Vec<Tuple> = (0..5).map(|i| Tuple::new(i, 100 + i)).collect();
        node.on_message(&mut ctx, 1, build_data(tuples));
        assert_eq!(node.table.len(), 2);
        assert_eq!(node.pending.len(), 3);
        let fulls: Vec<_> = ctx
            .sent
            .iter()
            .filter(|(to, m)| *to == SCHED && matches!(m, Msg::MemoryFull))
            .collect();
        assert_eq!(fulls.len(), 1, "exactly one memory-full report");
        // A second overflowing chunk must not re-report while awaiting.
        ctx.sent.clear();
        node.on_message(&mut ctx, 1, build_data(vec![Tuple::new(9, 120)]));
        assert!(ctx.sent.iter().all(|(_, m)| !matches!(m, Msg::MemoryFull)));
    }

    #[test]
    fn routing_update_forwards_pending_to_new_owner() {
        let (mut node, mut ctx) = activated_node(Algorithm::Replicated, 2);
        let tuples: Vec<Tuple> = (0..5).map(|i| Tuple::new(i, 100 + i)).collect();
        node.on_message(&mut ctx, 1, build_data(tuples));
        ctx.sent.clear();
        // New routing: our whole old range now actively owned by node 12.
        let routing = RoutingTable::Replica(ReplicaMap::partitioned(1000, &[12, OTHER]));
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(routing),
                version: 2,
            },
        );
        assert!(node.pending.is_empty());
        assert!(!node.awaiting_relief);
        let forwarded: u64 = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| match m {
                Msg::Data { tuples, .. } if *to == 12 => Some(tuples.len() as u64),
                _ => None,
            })
            .sum();
        assert_eq!(forwarded, 3);
    }

    #[test]
    fn still_full_after_update_reports_again() {
        let (mut node, mut ctx) = activated_node(Algorithm::Split, 2);
        let tuples: Vec<Tuple> = (0..5).map(|i| Tuple::new(i, 100 + i)).collect();
        node.on_message(&mut ctx, 1, build_data(tuples));
        ctx.sent.clear();
        // Routing update that does not move our range: pending stays.
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(two_node_routing()),
                version: 2,
            },
        );
        assert_eq!(node.pending.len(), 3);
        assert!(node.awaiting_relief);
        assert!(ctx
            .sent
            .iter()
            .any(|(to, m)| *to == SCHED && matches!(m, Msg::MemoryFull)));
    }

    #[test]
    fn probe_counts_matches_and_compares() {
        let (mut node, mut ctx) = activated_node(Algorithm::Replicated, 100);
        node.on_message(
            &mut ctx,
            1,
            build_data(vec![
                Tuple::new(1, 100),
                Tuple::new(2, 100),
                Tuple::new(3, 105),
            ]),
        );
        node.on_message(
            &mut ctx,
            1,
            Msg::Data {
                phase: Phase::Probe,
                tuples: vec![Tuple::new(9, 100), Tuple::new(10, 101)].into(),
                tuple_bytes: 116,
            },
        );
        assert_eq!(node.matches, 2);
        // Probe 100 scans its 2-element chain; probe 101 hits an empty one.
        assert_eq!(node.compares, 2);
    }

    #[test]
    fn batched_probe_agrees_with_scalar_oracle_and_counts_filter_stats() {
        let build: Vec<Tuple> = (0..40).map(|i| Tuple::new(i, 100 + i % 5)).collect();
        // Half the probes hit the five hot chains, half miss at other
        // positions (filter rejections on the occupied ones).
        let probe: Vec<Tuple> = (0..20)
            .map(|i| Tuple::new(1000 + i, if i % 2 == 0 { 100 + i % 5 } else { 200 + i }))
            .collect();
        let run = |kernel: ProbeKernel| {
            let mut cfg = (*test_cfg(Algorithm::Replicated)).clone();
            cfg.probe_kernel = kernel;
            let cfg = Arc::new(cfg);
            let cap = capacity_tuples(&cfg, 100);
            let registry = ehj_metrics::MetricsRegistry::new();
            let mut node = JoinNode::<MemBackend>::new(cfg, topo(), ME, cap)
                .with_metrics(&registry.handle_for(0));
            let mut ctx = ScriptCtx::new(ME);
            node.on_message(
                &mut ctx,
                SCHED,
                Msg::RoutingUpdate {
                    routing: Arc::new(two_node_routing()),
                    version: 1,
                },
            );
            node.on_message(&mut ctx, 1, build_data(build.clone()));
            node.on_message(
                &mut ctx,
                1,
                Msg::Data {
                    phase: Phase::Probe,
                    tuples: probe.clone().into(),
                    tuple_bytes: 116,
                },
            );
            // The registry is the node's only count of the filter's work;
            // the batch count is the probe-latency histogram's.
            let snapshot = registry.snapshot();
            let counter = |name| snapshot.counters.get(name).copied().unwrap_or(0);
            let filter = (
                counter(names::NODE_FILTER_PROBES),
                counter(names::NODE_FILTER_REJECTIONS),
            );
            let batches = snapshot.histograms[names::NODE_PROBE_NS].count;
            (node.matches, node.compares, filter, batches)
        };
        let (sm, sc, sfilter, sb) = run(ProbeKernel::Scalar);
        assert_eq!(sfilter, (0, 0), "scalar path keeps no filter stats");
        let (bm, bc, (bfp, bfr), bb) = run(ProbeKernel::Batched);
        assert_eq!((sm, sc), (bm, bc), "batched must match the scalar oracle");
        assert_eq!(bfp, probe.len() as u64, "filter probes");
        assert!(bfr <= bfp, "tag rejections are a share of the probes");
        assert_eq!((sb, bb), (1, 1), "one probe batch either way");
    }

    fn probe_data(tuples: Vec<Tuple>) -> Msg {
        Msg::Data {
            phase: Phase::Probe,
            tuples: tuples.into(),
            tuple_bytes: 116,
        }
    }

    #[test]
    fn build_side_chunks_arriving_after_the_first_probe_are_found_by_the_next() {
        // The first probe batch orders the arena; a late reshuffle chunk and
        // a late hot-key copy must clear that state so the next batch sees
        // them (both run-time backends can deliver them in this order).
        let (mut node, mut ctx) = activated_node(Algorithm::Hybrid, 100);
        node.on_message(
            &mut ctx,
            1,
            build_data(vec![Tuple::new(1, 100), Tuple::new(2, 105)]),
        );
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::HotKeyPlan {
                positions: Vec::new(),
                members: vec![ME, OTHER],
            },
        );
        let probes = || probe_data(vec![Tuple::new(9, 100), Tuple::new(10, 300)]);
        node.on_message(&mut ctx, 1, probes());
        assert_eq!((node.matches, node.compares), (1, 1));

        node.on_message(
            &mut ctx,
            OTHER,
            Msg::Data {
                phase: Phase::Reshuffle,
                tuples: vec![Tuple::new(3, 100), Tuple::new(4, 300)].into(),
                tuple_bytes: 116,
            },
        );
        node.on_message(&mut ctx, 1, probes());
        assert_eq!(
            (node.matches, node.compares),
            (1 + 3, 1 + 3),
            "the reshuffle chunk must be probed"
        );

        node.on_message(
            &mut ctx,
            OTHER,
            Msg::HotKeyData {
                tuples: vec![Tuple::new(5, 300)].into(),
                tuple_bytes: 116,
            },
        );
        node.on_message(&mut ctx, 1, probes());
        assert_eq!(
            (node.matches, node.compares),
            (4 + 4, 4 + 4),
            "the hot-key copy must be probed"
        );
        assert_eq!(node.table.len(), 5);
    }

    #[test]
    fn data_before_activation_is_queued() {
        let cfg = test_cfg(Algorithm::Replicated);
        let cap = capacity_tuples(&cfg, 10);
        let recruit_latency = cfg.costs.recruit_latency;
        let mut node = JoinNode::<MemBackend>::new(cfg, topo(), ME, cap);
        let mut ctx = ScriptCtx::new(ME);
        // Everything before the first routing table waits: a source's
        // chunk, a peer's forward and the barrier's arming alike.
        node.on_message(&mut ctx, SOURCE, build_data(vec![Tuple::new(1, 100)]));
        node.on_message(&mut ctx, OTHER, build_data(vec![Tuple::new(2, 200)]));
        let arm = Msg::FlushQuery {
            epoch: 3,
            phase: Phase::Build,
        };
        node.on_message(&mut ctx, SCHED, arm);
        assert_eq!(node.table.len(), 0);
        assert!(ctx.sent.is_empty(), "an inactive node answers nothing");
        assert_eq!(ctx.now, SimTime::ZERO, "and spends nothing");
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(two_node_routing()),
                version: 1,
            },
        );
        assert_eq!(node.table.len(), 2, "boot queue replayed");
        assert!(ctx.now >= recruit_latency, "activation charges the recruit");
        assert!(
            matches!(ctx.sent_to(SOURCE)[..], [Msg::DataAck]),
            "the source's chunk is acked, the peer's is not"
        );
        assert_eq!(ctx.count(|m| matches!(m, Msg::DataAck)), 1);
        assert_eq!(flush_acks(&ctx), [(3, [2, 0, 0])], "the replayed arm");
        // A later table is an update, not a second activation.
        let before = ctx.now;
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(two_node_routing()),
                version: 2,
            },
        );
        assert_eq!(ctx.now, before);
        assert_eq!(node.routing_version, 2);
    }

    #[test]
    fn only_a_sources_chunks_are_acked() {
        let (mut node, mut ctx) = activated_node(Algorithm::Replicated, 100);
        node.on_message(&mut ctx, SOURCE, build_data(vec![Tuple::new(1, 100)]));
        assert!(matches!(ctx.sent_to(SOURCE)[..], [Msg::DataAck]));
        // A peer's forwarded chunk and its hot-key copies: no credit back.
        ctx.sent.clear();
        node.on_message(&mut ctx, OTHER, build_data(vec![Tuple::new(2, 200)]));
        node.on_message(
            &mut ctx,
            OTHER,
            Msg::HotKeyData {
                tuples: vec![Tuple::new(3, 300)].into(),
                tuple_bytes: 116,
            },
        );
        assert_eq!(ctx.count(|m| matches!(m, Msg::DataAck)), 0);
        assert_eq!(node.table.len(), 2, "the peer's chunk is still housed");
    }

    #[test]
    fn split_request_moves_matching_tuples() {
        let (mut node, mut ctx) = activated_node(Algorithm::Split, 100);
        // Identity hashing, positions == domain → position = attr.
        // Bucket 0 covers positions [0,500); its split halves that into
        // [0,250) (stays) and [250,500) (moves to the new bucket).
        for (i, v) in [(1u64, 100u64), (2, 300), (3, 240), (4, 499)] {
            node.on_message(&mut ctx, 1, build_data(vec![Tuple::new(i, v)]));
        }
        ctx.sent.clear();
        let step = SplitStep {
            old: 0,
            new: 2,
            mid: 250,
        };
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::SplitRequest {
                step,
                new_node: OTHER,
            },
        );
        // Positions 300 and 499 move; 100 and 240 stay.
        assert_eq!(node.table.len(), 2);
        let mut moved: Vec<u64> = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| match m {
                Msg::Data { tuples, .. } if *to == OTHER => {
                    Some(tuples.iter().map(|t| t.join_attr).collect::<Vec<_>>())
                }
                _ => None,
            })
            .flatten()
            .collect();
        moved.sort_unstable();
        assert_eq!(moved, vec![300, 499]);
        assert!(ctx.sent.iter().any(|(to, m)| {
            *to == SCHED
                && matches!(
                    m,
                    Msg::SplitDone {
                        moved_tuples: 2,
                        ..
                    }
                )
        }));
    }

    #[test]
    fn reshuffle_query_and_plan_roundtrip() {
        let (mut node, mut ctx) = activated_node(Algorithm::Hybrid, 100);
        // Positions 100, 105 and 300 populated.
        node.on_message(
            &mut ctx,
            1,
            build_data(vec![
                Tuple::new(1, 100),
                Tuple::new(2, 105),
                Tuple::new(3, 300),
            ]),
        );
        ctx.sent.clear();
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::ReshuffleQuery {
                group: 0,
                range: HashRange::new(0, 500),
            },
        );
        let hist = ctx
            .sent
            .iter()
            .find_map(|(_, m)| match m {
                Msg::ReshuffleCounts { histogram, .. } => Some(histogram.clone()),
                _ => None,
            })
            .expect("histogram reply");
        assert_eq!(hist.counts.len(), 500);
        assert_eq!(hist.counts[100], 1);
        assert_eq!(hist.counts[105], 1);
        assert_eq!(hist.counts[300], 1);
        ctx.sent.clear();
        // Plan: [0,200) stays ours, [200,500) goes to OTHER.
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::ReshufflePlan {
                group: 0,
                assignments: vec![
                    (HashRange::new(0, 200), ME),
                    (HashRange::new(200, 500), OTHER),
                ],
            },
        );
        assert_eq!(node.table.len(), 2);
        let shipped: usize = ctx
            .sent
            .iter()
            .map(|(to, m)| match m {
                Msg::Data {
                    phase: Phase::Reshuffle,
                    tuples,
                    ..
                } if *to == OTHER => tuples.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(shipped, 1, "the one entry in [200, 500) moved");
        assert!(ctx
            .sent
            .iter()
            .any(|(_, m)| matches!(m, Msg::ReshuffleDone { group: 0 })));
    }

    #[test]
    fn ooc_node_spills_and_finalizes() {
        let (mut node, mut ctx) = activated_node(Algorithm::OutOfCore, 3);
        let tuples: Vec<Tuple> = (0..10).map(|i| Tuple::new(i, 100 + i % 2)).collect();
        node.on_message(&mut ctx, 1, build_data(tuples));
        assert!(node.spill.is_some(), "baseline must spill, not expand");
        assert!(ctx.disk_written > 0);
        assert!(ctx.sent.iter().all(|(_, m)| !matches!(m, Msg::MemoryFull)));
        // Probe: 2 tuples matching the two hot attrs.
        node.on_message(
            &mut ctx,
            1,
            Msg::Data {
                phase: Phase::Probe,
                tuples: vec![Tuple::new(50, 100), Tuple::new(51, 101)].into(),
                tuple_bytes: 116,
            },
        );
        ctx.sent.clear();
        node.on_message(&mut ctx, SCHED, Msg::ReportRequest);
        let report = ctx
            .sent
            .iter()
            .find_map(|(_, m)| match m {
                Msg::Report(r) => Some(r.clone()),
                _ => None,
            })
            .expect("node report");
        assert!(report.spilled);
        assert_eq!(report.matches, 10, "5 copies of each probed attr");
        assert_eq!(report.build_tuples, 10);
        assert!(ctx.disk_read > 0);
    }

    #[test]
    fn no_more_nodes_triggers_spill_fallback() {
        let (mut node, mut ctx) = activated_node(Algorithm::Split, 2);
        let tuples: Vec<Tuple> = (0..6).map(|i| Tuple::new(i, 100 + i)).collect();
        node.on_message(&mut ctx, 1, build_data(tuples));
        assert_eq!(node.pending.len(), 4);
        node.on_message(&mut ctx, SCHED, Msg::NoMoreNodes);
        assert!(node.spill.is_some());
        assert!(node.pending.is_empty());
        assert!(!node.awaiting_relief);
    }

    #[test]
    fn flush_ack_reports_counters() {
        let (mut node, mut ctx) = activated_node(Algorithm::Replicated, 100);
        node.on_message(&mut ctx, 1, build_data(vec![Tuple::new(1, 100)]));
        ctx.sent.clear();
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::FlushQuery {
                epoch: 7,
                phase: Phase::Build,
            },
        );
        match &ctx.sent[0].1 {
            Msg::FlushAck { epoch, counts } => {
                assert_eq!(*epoch, 7);
                assert_eq!(counts.recv, 1);
                assert_eq!(counts.fwd, 0);
                assert_eq!(counts.pending, 0);
            }
            other => panic!("expected ack, got {other:?}"),
        }
    }

    fn flush_acks(ctx: &ScriptCtx) -> Vec<(u64, [u64; 3])> {
        ctx.sent_to(SCHED)
            .into_iter()
            .filter_map(|m| match *m {
                Msg::FlushAck { epoch, counts } => {
                    Some((epoch, [counts.recv, counts.fwd, counts.pending]))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn an_armed_node_re_acks_when_its_counts_move_and_only_then() {
        let (mut node, mut ctx) = activated_node(Algorithm::Replicated, 2);
        node.on_message(&mut ctx, 1, build_data(vec![Tuple::new(1, 100)]));
        assert!(flush_acks(&ctx).is_empty(), "unarmed nodes never ack");
        let arm = Msg::FlushQuery {
            epoch: 7,
            phase: Phase::Build,
        };
        node.on_message(&mut ctx, SCHED, arm);
        assert_eq!(flush_acks(&ctx), [(7, [1, 0, 0])], "armed: acks at once");
        // Messages that leave the armed phase's counts alone: silence.
        ctx.sent.clear();
        node.on_message(&mut ctx, 1, probe_data(vec![Tuple::new(9, 100)]));
        node.on_message(&mut ctx, 1, Msg::DataAck);
        assert!(flush_acks(&ctx).is_empty());
        // A late build chunk: one tuple fits, one is parked, one forwarded.
        let late = vec![Tuple::new(2, 101), Tuple::new(3, 102), Tuple::new(4, 700)];
        node.on_message(&mut ctx, 1, build_data(late));
        assert_eq!(flush_acks(&ctx), [(7, [2, 1, 1])]);
        // Relief: the drain forwards the parked tuple, and says so.
        ctx.sent.clear();
        let routing = RoutingTable::Replica(ReplicaMap::partitioned(1000, &[12, OTHER]));
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(routing.clone()),
                version: 2,
            },
        );
        assert_eq!(flush_acks(&ctx), [(7, [2, 2, 0])]);
        // A second update with nothing left to drain moves nothing.
        ctx.sent.clear();
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(routing),
                version: 3,
            },
        );
        assert!(flush_acks(&ctx).is_empty());
    }

    #[test]
    fn a_hot_tuple_that_does_not_fit_on_a_non_owner_is_forwarded_not_parked() {
        let (mut node, mut ctx) = activated_node(Algorithm::Hybrid, 1);
        node.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(hot_routing()),
                version: 2,
            },
        );
        node.on_message(&mut ctx, 1, build_data(vec![Tuple::new(1, 100)]));
        ctx.sent.clear();
        // Full. Position 700 is hot and this node is a replica, but the
        // inner table homes it on OTHER — where any relief would go.
        node.on_message(&mut ctx, 1, build_data(vec![Tuple::new(2, 700)]));
        assert!(node.pending.is_empty());
        assert_eq!(ctx.count(|m| matches!(m, Msg::MemoryFull)), 0);
        match ctx.sent_to(OTHER)[..] {
            [Msg::Data { tuples, .. }] => assert_eq!(tuples.as_slice(), [Tuple::new(2, 700)]),
            ref other => panic!("expected one forwarded chunk, got {other:?}"),
        }
    }

    /// Prepares two nodes alike, then feeds `chunk` to one through the
    /// message handler and to the other straight through the tuple loop.
    /// Asserts the same table, pending queue, spill partitions, CPU, disk
    /// traffic and messages (the handler's `DataAck` and chunk charge
    /// aside), and returns whether the handler appended the chunk whole.
    fn handler_matches_tuple_loop(
        algorithm: Algorithm,
        cap_tuples: u64,
        prepare: impl Fn(&mut JoinNode<MemBackend>, &mut ScriptCtx),
        chunk: &[Tuple],
    ) -> bool {
        use ehj_metrics::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let run = |through_handler: bool| {
            let (mut node, mut ctx) = activated_node(algorithm, cap_tuples);
            prepare(&mut node, &mut ctx);
            if through_handler {
                node = node.with_metrics(&registry.handle_for(0));
            }
            ctx.sent.clear();
            let start = ctx.now;
            if through_handler {
                node.on_message(&mut ctx, 1, build_data(chunk.to_vec()));
                ctx.sent.retain(|(_, m)| !matches!(m, Msg::DataAck));
                ctx.now -= node.cfg.costs.chunk_handling;
            } else {
                let batch = TupleBatch::from(chunk.to_vec());
                let mut positions = Vec::new();
                node.space.bulk_positions(&batch, &mut positions);
                node.build_tuple_by_tuple(&mut ctx, &batch, &positions);
            }
            let table: Vec<Tuple> = node.table.iter().copied().collect();
            let (sent, spill) = (format!("{:?}", ctx.sent), format!("{:?}", node.spill));
            let disk = ctx.disk_written;
            (table, node.pending, spill, sent, ctx.now - start, disk)
        };
        let (handled, looped) = (run(true), run(false));
        assert_eq!(handled, looped);
        let snap = registry.snapshot();
        let whole = snap.counters.get(names::NODE_BUILD_WHOLE_CHUNKS).copied();
        whole == Some(1)
    }

    /// Tuples at positions `from..to`, one each.
    fn at_positions(from: u64, to: u64) -> Vec<Tuple> {
        (from..to).map(|v| Tuple::new(v, v)).collect()
    }

    #[test]
    fn an_owned_chunk_that_fits_is_appended_whole() {
        let no_prep = |_: &mut JoinNode<MemBackend>, _: &mut ScriptCtx| {};
        let chunk = at_positions(100, 140);
        for algorithm in [Algorithm::Split, Algorithm::Hybrid, Algorithm::OutOfCore] {
            assert!(handler_matches_tuple_loop(algorithm, 40, no_prep, &chunk));
        }
    }

    #[test]
    fn a_chunk_across_two_entries_goes_tuple_by_tuple() {
        // Positions 490..510 straddle ME's and OTHER's ranges.
        let no_prep = |_: &mut JoinNode<MemBackend>, _: &mut ScriptCtx| {};
        let chunk = at_positions(490, 510);
        assert!(!handler_matches_tuple_loop(
            Algorithm::Split,
            100,
            no_prep,
            &chunk
        ));
        // Two entries with the same owner: still one entry test, failed.
        let two_of_mine = |node: &mut JoinNode<MemBackend>, ctx: &mut ScriptCtx| {
            let routing = RoutingTable::Replica(ReplicaMap::partitioned(1000, &[ME, ME, OTHER]));
            node.on_message(
                ctx,
                SCHED,
                Msg::RoutingUpdate {
                    routing: Arc::new(routing),
                    version: 2,
                },
            );
        };
        let chunk = at_positions(320, 350);
        assert!(!handler_matches_tuple_loop(
            Algorithm::Split,
            100,
            two_of_mine,
            &chunk
        ));
    }

    #[test]
    fn an_owned_chunk_that_partly_fits_goes_tuple_by_tuple() {
        // Five of eight fit: the same prefix is inserted, the same tail
        // waits, and one MemoryFull goes out.
        let no_prep = |_: &mut JoinNode<MemBackend>, _: &mut ScriptCtx| {};
        let chunk = at_positions(100, 108);
        assert!(!handler_matches_tuple_loop(
            Algorithm::Split,
            5,
            no_prep,
            &chunk
        ));
        let (mut node, mut ctx) = activated_node(Algorithm::Split, 5);
        node.on_message(&mut ctx, 1, build_data(chunk.clone()));
        assert_eq!(node.table.iter().copied().collect::<Vec<_>>(), chunk[..5]);
        assert!(node.pending.iter().eq(&chunk[5..]));
        assert_eq!(ctx.count(|m| matches!(m, Msg::MemoryFull)), 1);
        // The baseline goes out of core mid-chunk instead.
        assert!(!handler_matches_tuple_loop(
            Algorithm::OutOfCore,
            5,
            no_prep,
            &chunk
        ));
    }

    #[test]
    fn a_chunk_under_an_overlay_goes_tuple_by_tuple() {
        let overlaid = |node: &mut JoinNode<MemBackend>, ctx: &mut ScriptCtx| {
            let routing = hot_routing();
            node.on_message(
                ctx,
                SCHED,
                Msg::RoutingUpdate {
                    routing: Arc::new(routing),
                    version: 2,
                },
            );
        };
        // All cold and ours, yet the overlay rules the fast path out.
        let chunk = at_positions(100, 108);
        assert!(!handler_matches_tuple_loop(
            Algorithm::Hybrid,
            100,
            overlaid,
            &chunk
        ));
    }

    /// Sends `NoMoreNodes`, so the node drains its table into a spill.
    fn spilled(node: &mut JoinNode<MemBackend>, ctx: &mut ScriptCtx) {
        node.on_message(ctx, SCHED, Msg::NoMoreNodes);
        assert!(node.spill.is_some());
    }

    #[test]
    fn an_owned_chunk_after_spill_is_spilled_whole() {
        // Spilled with tuples already drained from the table, then a chunk
        // spread over several fragments; and on the baseline, whose
        // table overflows into the spill.
        let fill = |node: &mut JoinNode<MemBackend>, ctx: &mut ScriptCtx| {
            node.on_message(ctx, 1, build_data(at_positions(0, 30)));
            spilled(node, ctx);
        };
        let chunk = at_positions(10, 400);
        assert!(handler_matches_tuple_loop(
            Algorithm::Split,
            100,
            fill,
            &chunk
        ));
        let overflowed = |node: &mut JoinNode<MemBackend>, ctx: &mut ScriptCtx| {
            node.on_message(ctx, 1, build_data(at_positions(0, 30)));
            assert!(node.spill.is_some());
        };
        assert!(handler_matches_tuple_loop(
            Algorithm::OutOfCore,
            20,
            overflowed,
            &chunk
        ));
    }

    #[test]
    fn a_chunk_across_two_entries_after_spill_goes_tuple_by_tuple() {
        // Positions 490..510 straddle ME's and OTHER's ranges: ours are
        // spilled, theirs forwarded.
        let chunk = at_positions(490, 510);
        assert!(!handler_matches_tuple_loop(
            Algorithm::Split,
            100,
            spilled,
            &chunk
        ));
    }
}
