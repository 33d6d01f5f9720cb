//! The data-source actor.
//!
//! §4.1.2: a data source provides the elements of R and S to the join
//! processes, keeping one buffer per join process; tuples are routed into
//! buffers by hash value and a full buffer is shipped as one chunk. Sources
//! react to scheduler routing updates as the algorithms expand, and in the
//! probe phase of the replication-based algorithm they broadcast each tuple
//! to every replica of its range (the broadcast ships one shared
//! [`TupleBatch`] — an `Arc` clone per replica, never a tuple copy).
//!
//! ## Routing by the cell
//!
//! Ownership is settled per range of positions, not per tuple. The
//! position space is cut into at most `MAX_CELLS` cells of equal
//! power-of-two width, derived from `cfg.positions`; a cell that lies
//! wholly inside one routing-table entry and holds no hot position maps to
//! that entry's buffer, so a tuple finds its buffer with one array read.
//! Only the tuples of a `MIXED` cell — one an entry boundary crosses, or
//! one holding a hot position — are routed one by one. The cell table is
//! built in one walk over the table's entries and dropped with every
//! accepted routing change.
//!
//! ## Flow control
//!
//! The paper's sources wrote to blocking TCP sockets, so a source could
//! never run arbitrarily far ahead of its receivers: when a join node
//! stopped draining, the sender stalled, and a routing update took effect
//! on all data still inside the source. The simulation reproduces that with
//! a credit protocol: at most [`JoinConfig::chunk_tuples`]-sized
//! `CREDIT_CHUNKS` chunks are in flight per destination; every delivered
//! chunk is acknowledged with [`Msg::DataAck`]; chunks awaiting credit stay
//! in the source and are *re-routed* when the routing table changes, and
//! generation pauses while too much output is blocked. Without this, a
//! simulated source would commit every chunk's destination before the first
//! `memory full` round-trip completed, grossly inflating forwarding
//! traffic relative to the real system.

use crate::config::JoinConfig;
use crate::msg::Msg;
use crate::routing::{RoutingTable, HOT_MIN_TOTAL, SKETCH_CAPACITY};
use ehj_data::{SourceGenerator, Tuple, TupleBatch};
use ehj_hash::{PositionSpace, SpaceSaving};
use ehj_metrics::{CommCategory, CommCounters, Phase, TraceKind, Tracer};
use ehj_sim::{Actor, ActorId, Context};
use std::collections::VecDeque;
use std::sync::Arc;

/// Tuples generated per self-sent generation step (at least one chunk).
const GEN_BATCH_MIN: u64 = 1024;

/// Maximum unacknowledged chunks in flight per destination (the emulated
/// TCP receive window).
pub const CREDIT_CHUNKS: usize = 4;

/// Generation pauses while more than this many chunks wait for credit.
const MAX_BLOCKED_CHUNKS: usize = 16;

/// Most cells a source's cell table holds (16 KB of slots).
const MAX_CELLS: u32 = 4096;

/// A cell-table value: the cell straddles a table-entry boundary or holds
/// a hot position, so its tuples are routed one by one.
const MIXED: u32 = u32::MAX;

/// One destination's side of the credit window.
#[derive(Default)]
struct Window {
    /// Credits remaining; `None` until this phase first ships to or hears
    /// from the destination (a first ship finds the full window, a first
    /// ack an empty one).
    credits: Option<usize>,
    /// Full chunks waiting for credit.
    blocked: VecDeque<TupleBatch>,
}

/// One data-source process.
pub struct DataSource {
    cfg: Arc<JoinConfig>,
    index: usize,
    scheduler: ActorId,
    space: PositionSpace,
    phase: Phase,
    gen: Option<SourceGenerator>,
    /// The table last accepted, shared with the scheduler and every other
    /// recipient of the same routing message.
    routing: Option<Arc<RoutingTable>>,
    routing_version: u64,
    /// Accumulation buffers (not-yet-full chunks), one slot per *destination
    /// set*: a full buffer freezes into one immutable [`TupleBatch`] that is
    /// shipped to every member, so a probe broadcast to N replicas clones an
    /// `Arc` N times instead of deep-copying the tuples. In the build phase
    /// every set is a single node and this degenerates to per-destination
    /// buffering. A slot lives until the next phase starts. Each set is
    /// stored here only: a phase has a few dozen slots at most, and only
    /// the first cold tuple of a table entry or a hot tuple looks one up,
    /// so a linear scan over the slots finds it.
    buffers: Vec<(Vec<ActorId>, Vec<Tuple>)>,
    /// Cell → buffer slot: one entry per cell of `1 << cell_shift`
    /// positions, read once per routed tuple. A cell whose positions all
    /// lie in one table entry, none of them hot, holds that entry's slot;
    /// any other cell holds [`MIXED`]. Empty means stale: cleared where
    /// `entry_slots` is, rebuilt by the next route.
    cell_slots: Vec<u32>,
    /// log2 of the positions per cell: the smallest width that keeps the
    /// cell count at or below [`MAX_CELLS`], derived from `cfg.positions`.
    cell_shift: u32,
    /// Routing-table entry index ([`RoutingTable::entry_index`]) → slot in
    /// `buffers`, filled by the cell build and by the first cold tuple of a
    /// [`MIXED`] cell's entry, so every later one skips destination
    /// resolution and the scan over the sets. Entry indices mean nothing
    /// across tables or phases: cleared at `start_phase` and on every
    /// accepted routing update. The buffers stay keyed by set, so tuples
    /// buffered under the old table keep their destinations.
    entry_slots: Vec<Option<usize>>,
    /// Credit window per destination, indexed by actor id (a query's ids
    /// are dense from 0); grown to the highest id heard from, and reset in
    /// place at each phase.
    windows: Vec<Window>,
    /// Chunks waiting for credit, over every window.
    blocked: usize,
    gen_paused: bool,
    draining: bool,
    phase_done_sent: bool,
    sent_chunks: u64,
    comm: CommCounters,
    dest_scratch: Vec<ActorId>,
    /// Generation output buffer, reused across generation steps.
    gen_scratch: Vec<Tuple>,
    /// Bulk-hash output buffer: one routed position per generated tuple,
    /// reused across generation batches.
    pos_scratch: Vec<u32>,
    /// Space-saving sketch over routed build positions (hot-key detection,
    /// DESIGN §4i). `None` unless `cfg.hot_keys`.
    sketch: Option<SpaceSaving>,
    /// Observed-tuple count at which the next cumulative sketch snapshot
    /// goes to the scheduler (doubles after each send).
    sketch_next_send: u64,
    /// Round-robin ticket for hot-position routing, seeded by the source
    /// index so concurrent sources start on different replicas.
    hot_ticket: u64,
    tracer: Tracer,
}

impl DataSource {
    /// Creates source number `index` (of `cfg.sources`).
    #[must_use]
    pub fn new(cfg: Arc<JoinConfig>, index: usize, scheduler: ActorId) -> Self {
        let space = PositionSpace::new(cfg.positions, cfg.r.domain, cfg.hasher);
        let chunk = cfg.chunk_tuples as u64;
        let mut cell_shift = 0;
        while cfg.positions.saturating_sub(1) >> cell_shift >= MAX_CELLS {
            cell_shift += 1;
        }
        Self {
            cfg,
            index,
            scheduler,
            space,
            phase: Phase::Build,
            gen: None,
            routing: None,
            routing_version: 0,
            buffers: Vec::new(),
            cell_slots: Vec::new(),
            cell_shift,
            entry_slots: Vec::new(),
            windows: Vec::new(),
            blocked: 0,
            gen_paused: false,
            draining: false,
            phase_done_sent: false,
            sent_chunks: 0,
            comm: CommCounters::new(chunk),
            dest_scratch: Vec::new(),
            gen_scratch: Vec::new(),
            pos_scratch: Vec::new(),
            sketch: None,
            sketch_next_send: u64::MAX,
            hot_ticket: index as u64,
            tracer: Tracer::off(),
        }
    }

    /// Attaches a tracer; events are emitted through it from then on.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    fn tuple_bytes(&self) -> u64 {
        self.cfg.schema().tuple_bytes()
    }

    fn start_phase(
        &mut self,
        ctx: &mut dyn Context<Msg>,
        phase: Phase,
        routing: Arc<RoutingTable>,
        version: u64,
    ) {
        self.phase = phase;
        self.routing = Some(routing);
        self.routing_version = version;
        self.sent_chunks = 0;
        self.buffers.clear();
        self.entry_slots.clear();
        self.cell_slots.clear();
        for window in &mut self.windows {
            window.credits = None;
            window.blocked.clear();
        }
        self.blocked = 0;
        self.gen_paused = false;
        self.draining = false;
        self.phase_done_sent = false;
        if phase == Phase::Build && self.cfg.hot_keys {
            self.sketch = Some(SpaceSaving::new(SKETCH_CAPACITY));
            // First snapshot once this source alone has seen its share of
            // the global install threshold; then at every doubling.
            self.sketch_next_send = (HOT_MIN_TOTAL / self.cfg.sources as u64).max(256);
        } else {
            self.sketch = None;
            self.sketch_next_send = u64::MAX;
        }
        let spec = match phase {
            Phase::Build => self.cfg.build_spec(),
            Phase::Probe => self.cfg.probe_spec(),
            Phase::Reshuffle => unreachable!("sources do not generate in reshuffle"),
        };
        self.gen = Some(spec.generator_for_source(self.index, self.cfg.sources));
        ctx.send(ctx.me(), Msg::GenStep);
    }

    fn blocked_total(&self) -> usize {
        self.blocked
    }

    /// `dest`'s credit window, created on first use.
    fn window(&mut self, dest: ActorId) -> &mut Window {
        let i = dest as usize;
        if i >= self.windows.len() {
            self.windows.resize_with(i + 1, Window::default);
        }
        &mut self.windows[i]
    }

    /// Transmits one chunk now (credit already taken).
    fn transmit(&mut self, ctx: &mut dyn Context<Msg>, dest: ActorId, tuples: TupleBatch) {
        self.sent_chunks += 1;
        ctx.send(
            dest,
            Msg::Data {
                phase: self.phase,
                tuples,
                tuple_bytes: self.tuple_bytes(),
            },
        );
    }

    /// Ships a full chunk, or parks it until a credit returns.
    fn ship(&mut self, ctx: &mut dyn Context<Msg>, dest: ActorId, tuples: TupleBatch) {
        let window = self.window(dest);
        let credit = window.credits.get_or_insert(CREDIT_CHUNKS);
        if *credit > 0 {
            *credit -= 1;
            self.transmit(ctx, dest, tuples);
        } else {
            window.blocked.push_back(tuples);
            self.blocked += 1;
        }
    }

    /// Ships one frozen batch to every destination of `slot`'s set; the
    /// tuples are shared, each send clones the batch's `Arc`.
    fn ship_all(&mut self, ctx: &mut dyn Context<Msg>, slot: usize, batch: TupleBatch) {
        for i in 0..self.buffers[slot].0.len() {
            let dest = self.buffers[slot].0[i];
            self.ship(ctx, dest, batch.clone());
        }
    }

    /// The buffer slot of a destination set, created on first use with
    /// room for a whole chunk, so it never regrows on its way to a freeze.
    fn slot_for_set(&mut self, dests: &[ActorId]) -> usize {
        if let Some(slot) = self.buffers.iter().position(|(set, _)| set == dests) {
            return slot;
        }
        let chunk = Vec::with_capacity(self.cfg.chunk_tuples);
        self.buffers.push((dests.to_vec(), chunk));
        self.buffers.len() - 1
    }

    /// Buffers one tuple in `slot`, shipping the buffer when it reaches
    /// chunk size.
    fn push_slot(&mut self, ctx: &mut dyn Context<Msg>, slot: usize, t: Tuple) {
        let chunk = self.cfg.chunk_tuples;
        let buf = &mut self.buffers[slot].1;
        buf.push(t);
        if buf.len() >= chunk {
            // The successor is sized for a whole chunk up front, so it never
            // regrows on its way to the next freeze.
            let full = std::mem::replace(buf, Vec::with_capacity(chunk));
            self.ship_all(ctx, slot, full.into());
        }
    }

    fn handle_ack(&mut self, ctx: &mut dyn Context<Msg>, from: ActorId) {
        // Release one blocked chunk for this destination, or bank the
        // credit.
        let window = self.window(from);
        if let Some(tuples) = window.blocked.pop_front() {
            self.blocked -= 1;
            self.transmit(ctx, from, tuples);
        } else {
            let credit = window.credits.get_or_insert(0);
            *credit = (*credit + 1).min(CREDIT_CHUNKS);
        }
        if self.gen_paused && self.blocked_total() <= MAX_BLOCKED_CHUNKS / 2 {
            self.gen_paused = false;
            ctx.send(ctx.me(), Msg::GenStep);
        }
        self.check_drained(ctx);
    }

    /// On a routing change, pull parked chunks back and re-route their
    /// tuples: the data never left this machine, so it follows the new
    /// table (build phase only; probe routing is final).
    fn reroute_blocked(&mut self, ctx: &mut dyn Context<Msg>) {
        if self.phase != Phase::Build {
            return;
        }
        // In destination-id order, which is index order: the re-routed
        // tuple sequence reaches table fill order and every downstream
        // simulated observable.
        let mut parked: Vec<Tuple> = Vec::new();
        for window in &mut self.windows {
            for batch in window.blocked.drain(..) {
                parked.extend_from_slice(&batch);
            }
        }
        self.blocked = 0;
        if parked.is_empty() {
            return;
        }
        self.route_tuples(ctx, &parked);
    }

    /// Resolves the destination set of cold position `pos` the long way,
    /// and records its buffer slot for the rest of table entry `entry`.
    fn resolve_entry(
        &mut self,
        routing: &RoutingTable,
        entry: usize,
        pos: u32,
        dests: &mut Vec<ActorId>,
    ) -> usize {
        match self.phase {
            Phase::Build => {
                dests.clear();
                dests.push(routing.build_dest(pos));
            }
            Phase::Probe => routing.probe_dests(pos, dests),
            Phase::Reshuffle => unreachable!("sources do not route in reshuffle"),
        }
        let slot = self.slot_for_set(dests);
        if self.entry_slots.len() <= entry {
            self.entry_slots.resize(entry + 1, None);
        }
        self.entry_slots[entry] = Some(slot);
        slot
    }

    /// Builds the cell table for `routing` in one walk over its entries,
    /// O(cells + entries): the cells wholly inside an entry take its slot,
    /// resolved once per entry; a cell across an entry boundary stays
    /// [`MIXED`], and so does every cell holding a hot position.
    fn build_cells(&mut self, routing: &RoutingTable) {
        let (shift, end) = (self.cell_shift, self.cfg.positions);
        let mut cells = std::mem::take(&mut self.cell_slots);
        cells.clear();
        cells.resize((end.saturating_sub(1) >> shift) as usize + 1, MIXED);
        let mut dests = std::mem::take(&mut self.dest_scratch);
        // The entry's first position may be hot: resolve through the base
        // table, which is what every cold position of the entry sees.
        let base = routing.inner();
        routing.for_each_entry(|range, entry| {
            // The last cell ends where the position space does.
            let first = range.start.div_ceil(1 << shift) as usize;
            let last = if range.end >= end {
                cells.len()
            } else {
                (range.end >> shift) as usize
            };
            if first < last {
                let slot = self.resolve_entry(base, entry, range.start, &mut dests);
                cells[first..last].fill(slot as u32);
            }
        });
        for &pos in routing.overlay().map_or(&[][..], |o| &o.hot) {
            if let Some(cell) = cells.get_mut((pos >> shift) as usize) {
                *cell = MIXED;
            }
        }
        self.dest_scratch = dests;
        self.cell_slots = cells;
    }

    /// The buffer slot of a tuple in a [`MIXED`] cell.
    fn route_mixed(&mut self, routing: &RoutingTable, pos: u32, dests: &mut Vec<ActorId>) -> usize {
        // Hot positions are round-robined per source ticket: one copy per
        // build tuple (replication happens in the post-barrier hand-off),
        // one answering replica per probe tuple plus any spilled extras.
        // The set changes tuple by tuple, so it is looked up by value.
        if let Some(o) = routing.overlay().filter(|o| o.is_hot(pos)) {
            self.hot_ticket += 1;
            dests.clear();
            match self.phase {
                Phase::Build => dests.push(o.pick(self.hot_ticket)),
                Phase::Probe => o.push_probe_dests(self.hot_ticket, dests),
                Phase::Reshuffle => unreachable!("sources do not route in reshuffle"),
            }
            return self.slot_for_set(dests);
        }
        // Cold positions of one table entry share one set: the first
        // resolves it, the rest index the entry table.
        let entry = routing.entry_index(pos);
        match self.entry_slots.get(entry).copied().flatten() {
            Some(slot) => slot,
            None => self.resolve_entry(routing, entry, pos, dests),
        }
    }

    fn route_tuples(&mut self, ctx: &mut dyn Context<Msg>, tuples: &[Tuple]) {
        let routing = self.routing.take().expect("routing set with phase");
        if self.cell_slots.is_empty() {
            self.build_cells(&routing);
        }
        let cells = std::mem::take(&mut self.cell_slots);
        let shift = self.cell_shift;
        let tb = self.tuple_bytes();
        let mut dests = std::mem::take(&mut self.dest_scratch);
        let mut positions = std::mem::take(&mut self.pos_scratch);
        let mut delivered: u64 = 0;
        let mut routed: u64 = 0;
        let mut fanout_tuples: u64 = 0;
        let mut fanout_copies: u64 = 0;
        // Hash the whole batch once up front (unrolled bulk kernel); every
        // routing shape below addresses the precomputed positions.
        self.space.bulk_positions(tuples, &mut positions);
        // Only a build phase with hot-key detection on has a sketch.
        if let Some(sk) = self.sketch.as_mut() {
            for &pos in &positions {
                sk.observe(pos as u64);
            }
        }
        for (&t, &pos) in tuples.iter().zip(&positions) {
            let slot = match cells[(pos >> shift) as usize] {
                MIXED => self.route_mixed(&routing, pos, &mut dests),
                slot => slot as usize,
            };
            let fanout = self.buffers[slot].0.len() as u64;
            delivered += u64::from(fanout > 0);
            routed += fanout;
            if fanout > 1 {
                fanout_tuples += 1;
                fanout_copies += fanout;
            }
            self.push_slot(ctx, slot, t);
        }
        // The first copy of a tuple is its delivery; broadcast copies beyond
        // it are the paper's extra probe communication.
        let extra = routed - delivered;
        self.comm.record_tuples(
            self.phase,
            CommCategory::SourceDelivery,
            delivered,
            delivered * tb,
        );
        self.comm.record_tuples(
            self.phase,
            CommCategory::ProbeBroadcastExtra,
            extra,
            extra * tb,
        );
        self.dest_scratch = dests;
        self.pos_scratch = positions;
        self.cell_slots = cells;
        if self.routing.is_none() {
            self.routing = Some(routing);
        }
        ctx.consume_cpu(self.cfg.costs.route_per_tuple * routed);
        if let Some(sk) = self.sketch.as_ref() {
            if sk.total() >= self.sketch_next_send {
                // Cumulative snapshot: the scheduler replaces this source's
                // previous slot, so resending the whole sketch never
                // double-counts.
                ctx.send(self.scheduler, Msg::SketchUpdate { sketch: sk.clone() });
                self.sketch_next_send = self.sketch_next_send.saturating_mul(2);
            }
        }
        if fanout_tuples > 0 {
            // One aggregated event per generation batch keeps the trace
            // proportional to batches, not tuples.
            self.tracer.emit_detail(
                ctx.now().as_nanos(),
                ctx.me(),
                self.phase,
                TraceKind::ProbeFanout {
                    tuples: fanout_tuples,
                    copies: fanout_copies,
                },
            );
        }
    }

    fn gen_step(&mut self, ctx: &mut dyn Context<Msg>) {
        if self.gen_paused {
            return;
        }
        if self.blocked_total() > MAX_BLOCKED_CHUNKS {
            // Emulated blocking send: stall until receivers drain.
            self.gen_paused = true;
            return;
        }
        let Some(gen) = self.gen.as_mut() else {
            return;
        };
        let batch = GEN_BATCH_MIN.max(self.cfg.chunk_tuples as u64);
        let mut produced = std::mem::take(&mut self.gen_scratch);
        produced.clear();
        let n = gen.fill(batch, &mut produced);
        if n > 0 {
            ctx.consume_cpu(self.cfg.costs.gen_per_tuple * n);
            self.route_tuples(ctx, &produced);
        }
        self.gen_scratch = produced;
        let remaining = self.gen.as_ref().map_or(0, SourceGenerator::remaining);
        if remaining > 0 {
            ctx.send(ctx.me(), Msg::GenStep);
        } else {
            self.finish_phase(ctx);
        }
    }

    fn finish_phase(&mut self, ctx: &mut dyn Context<Msg>) {
        self.gen = None;
        self.draining = true;
        // check_drained flushes the accumulation buffers (credit-gated) and
        // reports the phase once everything is actually on the wire.
        self.check_drained(ctx);
    }

    /// Once draining and everything has actually been transmitted, report
    /// the phase done (the chunk counts are final at that point).
    fn check_drained(&mut self, ctx: &mut dyn Context<Msg>) {
        if !self.draining || self.phase_done_sent {
            return;
        }
        // Re-routing blocked chunks can land tuples back in accumulation
        // buffers after the final flush; push them out again.
        // In destination-set order, not slot (first-use) order: the flush
        // order reaches every downstream simulated observable.
        let mut pending: Vec<usize> = (0..self.buffers.len())
            .filter(|&slot| !self.buffers[slot].1.is_empty())
            .collect();
        pending.sort_by(|&a, &b| self.buffers[a].0.cmp(&self.buffers[b].0));
        for slot in pending {
            let tuples = std::mem::take(&mut self.buffers[slot].1);
            self.ship_all(ctx, slot, tuples.into());
        }
        if self.blocked_total() > 0 {
            return;
        }
        self.phase_done_sent = true;
        ctx.send(
            self.scheduler,
            Msg::SourcePhaseDone {
                sent_chunks: self.sent_chunks,
                comm: Box::new(std::mem::replace(
                    &mut self.comm,
                    CommCounters::new(self.cfg.chunk_tuples as u64),
                )),
            },
        );
    }
}

impl Actor<Msg> for DataSource {
    fn on_message(&mut self, ctx: &mut dyn Context<Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::StartBuild { routing, version } => {
                self.start_phase(ctx, Phase::Build, routing, version);
            }
            Msg::StartProbe { routing, version } => {
                self.start_phase(ctx, Phase::Probe, routing, version);
            }
            Msg::RoutingUpdate { routing, version } if version > self.routing_version => {
                self.routing = Some(routing);
                self.routing_version = version;
                self.entry_slots.clear();
                self.cell_slots.clear();
                self.reroute_blocked(ctx);
                self.check_drained(ctx);
            }
            Msg::DataAck => self.handle_ack(ctx, from),
            Msg::GenStep => self.gen_step(ctx),
            // Sources ignore everything else.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::testutil::ScriptCtx;
    use ehj_hash::{BucketMap, HashRange, ReplicaEntry, ReplicaMap};
    use std::collections::HashMap;

    const SCHED: ActorId = 0;
    const ME: ActorId = 1;
    const NODE_A: ActorId = 2;
    const NODE_B: ActorId = 3;

    fn cfg(r_tuples: u64, chunk: usize) -> Arc<JoinConfig> {
        cfg_over(r_tuples, chunk, 1000)
    }

    fn cfg_over(r_tuples: u64, chunk: usize, positions: u32) -> Arc<JoinConfig> {
        let mut cfg = JoinConfig::paper_scaled(Algorithm::Replicated, 1000);
        cfg.sources = 1;
        cfg.r.tuples = r_tuples;
        cfg.s.tuples = r_tuples;
        cfg.chunk_tuples = chunk;
        // position == attribute for easy reasoning
        cfg.positions = positions;
        cfg.r = cfg.r.with_domain(u64::from(positions));
        cfg.s = cfg.s.with_domain(u64::from(positions));
        Arc::new(cfg)
    }

    fn two_node_routing() -> RoutingTable {
        RoutingTable::Replica(ReplicaMap::partitioned(1000, &[NODE_A, NODE_B]))
    }

    /// Drives GenStep self-messages until the source stops sending them.
    fn run_gen(src: &mut DataSource, ctx: &mut ScriptCtx) {
        loop {
            let gen_steps = ctx.count(|m| matches!(m, Msg::GenStep));
            if gen_steps == 0 {
                break;
            }
            ctx.sent.retain(|(_, m)| !matches!(m, Msg::GenStep));
            for _ in 0..gen_steps {
                src.on_message(ctx, ME, Msg::GenStep);
            }
        }
    }

    fn data_tuples_to(ctx: &ScriptCtx, to: ActorId) -> u64 {
        ctx.sent
            .iter()
            .filter_map(|(t, m)| match m {
                Msg::Data { tuples, .. } if *t == to => Some(tuples.len() as u64),
                _ => None,
            })
            .sum()
    }

    /// Tuples in every `Data` send captured so far, to any node.
    fn data_tuples_sent(ctx: &ScriptCtx) -> u64 {
        ctx.sent
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::Data { tuples, .. } => Some(tuples.len() as u64),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn build_phase_generates_routes_and_reports() {
        let mut src = DataSource::new(cfg(500, 50), 0, SCHED);
        let mut ctx = ScriptCtx::new(ME);
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::StartBuild {
                routing: Arc::new(two_node_routing()),
                version: 1,
            },
        );
        run_gen(&mut src, &mut ctx);
        // Ack-drain the credit windows until the source reports done.
        let mut guard = 0;
        while ctx.count(|m| matches!(m, Msg::SourcePhaseDone { .. })) == 0 {
            src.on_message(&mut ctx, NODE_A, Msg::DataAck);
            src.on_message(&mut ctx, NODE_B, Msg::DataAck);
            run_gen(&mut src, &mut ctx);
            guard += 1;
            assert!(guard < 10_000, "drain must terminate");
        }
        // Every generated tuple reached exactly one node.
        let total = data_tuples_to(&ctx, NODE_A) + data_tuples_to(&ctx, NODE_B);
        assert_eq!(total, 500);
        // And the scheduler learned the final chunk count.
        let sent_chunks = ctx
            .sent
            .iter()
            .find_map(|(_, m)| match m {
                Msg::SourcePhaseDone { sent_chunks, .. } => Some(*sent_chunks),
                _ => None,
            })
            .expect("phase-done report");
        assert_eq!(data_tuples_sent(&ctx), 500);
        let actual_chunks = ctx.count(|m| matches!(m, Msg::Data { .. }));
        assert_eq!(sent_chunks, actual_chunks as u64);
    }

    #[test]
    fn credits_bound_inflight_chunks_per_destination() {
        // 2000 tuples to one node in 50-tuple chunks = 40 chunks, but only
        // CREDIT_CHUNKS may be on the wire before the first ack.
        let mut src = DataSource::new(cfg(2000, 50), 0, SCHED);
        let mut ctx = ScriptCtx::new(ME);
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::StartBuild {
                routing: Arc::new(RoutingTable::Replica(ReplicaMap::partitioned(
                    1000,
                    &[NODE_A],
                ))),
                version: 1,
            },
        );
        run_gen(&mut src, &mut ctx);
        let sent = ctx.count(|m| matches!(m, Msg::Data { .. }));
        assert_eq!(sent, CREDIT_CHUNKS, "window limits the burst");
        assert!(src.blocked_total() > 0, "the rest waits for credits");
        // Each ack releases exactly one more chunk.
        ctx.sent.clear();
        src.on_message(&mut ctx, NODE_A, Msg::DataAck);
        assert_eq!(ctx.count(|m| matches!(m, Msg::Data { .. })), 1);
    }

    #[test]
    fn drain_completes_only_after_all_chunks_ship() {
        let mut src = DataSource::new(cfg(2000, 50), 0, SCHED);
        let mut ctx = ScriptCtx::new(ME);
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::StartBuild {
                routing: Arc::new(RoutingTable::Replica(ReplicaMap::partitioned(
                    1000,
                    &[NODE_A],
                ))),
                version: 1,
            },
        );
        run_gen(&mut src, &mut ctx);
        assert_eq!(
            ctx.count(|m| matches!(m, Msg::SourcePhaseDone { .. })),
            0,
            "cannot report done while chunks are parked"
        );
        // Ack everything through; GenStep resumes when unblocked.
        let mut guard = 0;
        while src.blocked_total() > 0 || ctx.count(|m| matches!(m, Msg::GenStep)) > 0 {
            run_gen(&mut src, &mut ctx);
            src.on_message(&mut ctx, NODE_A, Msg::DataAck);
            guard += 1;
            assert!(guard < 10_000, "drain must terminate");
        }
        let total = data_tuples_to(&ctx, NODE_A);
        assert_eq!(total, 2000);
        assert_eq!(ctx.count(|m| matches!(m, Msg::SourcePhaseDone { .. })), 1);
    }

    #[test]
    fn probe_phase_broadcasts_to_replicas_and_counts_extra() {
        let mut src = DataSource::new(cfg(300, 100), 0, SCHED);
        let mut ctx = ScriptCtx::new(ME);
        let mut m = ReplicaMap::partitioned(1000, &[NODE_A]);
        let _ = m.replicate(NODE_A, NODE_B);
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::StartProbe {
                routing: Arc::new(RoutingTable::Replica(m)),
                version: 5,
            },
        );
        run_gen(&mut src, &mut ctx);
        // Every probe tuple goes to both replicas.
        assert_eq!(data_tuples_to(&ctx, NODE_A), 300);
        assert_eq!(data_tuples_to(&ctx, NODE_B), 300);
        let done_comm = ctx
            .sent
            .iter()
            .find_map(|(_, m)| match m {
                Msg::SourcePhaseDone { comm, .. } => Some((**comm).clone()),
                _ => None,
            })
            .expect("done report");
        assert_eq!(
            done_comm
                .cell(Phase::Probe, CommCategory::ProbeBroadcastExtra)
                .tuples,
            300,
            "the second copy of each tuple is extra communication"
        );
    }

    #[test]
    fn routing_update_reroutes_parked_chunks() {
        // Fill NODE_A's credit window, then move the whole range to NODE_B:
        // parked chunks must follow the new routing.
        let mut src = DataSource::new(cfg(2000, 50), 0, SCHED);
        let mut ctx = ScriptCtx::new(ME);
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::StartBuild {
                routing: Arc::new(RoutingTable::Replica(ReplicaMap::partitioned(
                    1000,
                    &[NODE_A],
                ))),
                version: 1,
            },
        );
        run_gen(&mut src, &mut ctx);
        assert!(src.blocked_total() > 0);
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(RoutingTable::Replica(ReplicaMap::partitioned(
                    1000,
                    &[NODE_B],
                ))),
                version: 2,
            },
        );
        run_gen(&mut src, &mut ctx);
        // Drain: acks from both nodes release the remaining windows.
        let mut guard = 0;
        while ctx.count(|m| matches!(m, Msg::SourcePhaseDone { .. })) == 0 {
            src.on_message(&mut ctx, NODE_A, Msg::DataAck);
            src.on_message(&mut ctx, NODE_B, Msg::DataAck);
            run_gen(&mut src, &mut ctx);
            guard += 1;
            assert!(guard < 10_000, "must terminate");
        }
        let a = data_tuples_to(&ctx, NODE_A);
        let b = data_tuples_to(&ctx, NODE_B);
        assert_eq!(a + b, 2000, "no tuple may be lost in the re-route");
        assert!(b > 0, "re-routed tuples went to the new owner");
    }

    #[test]
    fn stale_routing_updates_are_ignored() {
        let mut src = DataSource::new(cfg(100, 50), 0, SCHED);
        let mut ctx = ScriptCtx::new(ME);
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::StartBuild {
                routing: Arc::new(two_node_routing()),
                version: 5,
            },
        );
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(RoutingTable::Replica(ReplicaMap::partitioned(
                    1000,
                    &[NODE_B],
                ))),
                version: 3, // older than the active version
            },
        );
        assert_eq!(src.routing_version, 5);
        run_gen(&mut src, &mut ctx);
        assert!(data_tuples_to(&ctx, NODE_A) > 0, "v5 routing still applies");
    }

    /// The routing loop as it was before the slot table: every tuple
    /// resolved with `build_dest` / `probe_dests` and buffered in a
    /// map keyed by destination set. Credits never run out here.
    struct ReferenceRouter {
        phase: Phase,
        space: PositionSpace,
        chunk: usize,
        tuple_bytes: u64,
        hot_ticket: u64,
        buffers: HashMap<Vec<ActorId>, Vec<u64>>,
        chunks: Vec<(ActorId, Vec<u64>)>,
        comm: CommCounters,
    }

    impl ReferenceRouter {
        fn route(&mut self, routing: &RoutingTable, tuples: &[Tuple]) {
            for t in tuples {
                let pos = self.space.position_of(t.join_attr);
                let mut dests = Vec::new();
                match routing.overlay().filter(|o| o.is_hot(pos)) {
                    Some(o) => {
                        self.hot_ticket += 1;
                        match self.phase {
                            Phase::Build => dests.push(o.pick(self.hot_ticket)),
                            _ => o.push_probe_dests(self.hot_ticket, &mut dests),
                        }
                    }
                    None => match self.phase {
                        Phase::Build => dests.push(routing.build_dest(pos)),
                        _ => routing.probe_dests(pos, &mut dests),
                    },
                }
                for i in 0..dests.len() {
                    let cat = if i == 0 {
                        CommCategory::SourceDelivery
                    } else {
                        CommCategory::ProbeBroadcastExtra
                    };
                    self.comm
                        .record_tuples(self.phase, cat, 1, self.tuple_bytes);
                }
                let buf = self.buffers.entry(dests.clone()).or_default();
                buf.push(t.index);
                if buf.len() >= self.chunk {
                    let full = std::mem::take(buf);
                    self.chunks.extend(dests.iter().map(|&d| (d, full.clone())));
                }
            }
        }

        fn flush(&mut self) {
            let mut pending: Vec<_> = self
                .buffers
                .drain()
                .filter(|(_, b)| !b.is_empty())
                .collect();
            pending.sort();
            for (dests, tuples) in pending {
                self.chunks
                    .extend(dests.iter().map(|&d| (d, tuples.clone())));
            }
        }
    }

    /// The `(dest, tuple indices)` chunks in `ctx.sent`, acknowledging each
    /// so the source never runs out of credit.
    fn take_chunks(src: &mut DataSource, ctx: &mut ScriptCtx) -> Vec<(ActorId, Vec<u64>)> {
        let mut chunks = Vec::new();
        for (to, m) in ctx.take_sent() {
            match m {
                Msg::Data { tuples, .. } => {
                    chunks.push((to, tuples.iter().map(|t| t.index).collect()));
                    src.on_message(ctx, to, Msg::DataAck);
                }
                // Keep the self-sent step and the final report.
                other => ctx.sent.push((to, other)),
            }
        }
        assert_eq!(src.blocked_total(), 0, "the script must never block");
        chunks
    }

    /// Every pure cell's slot holds exactly the set each of its positions
    /// routes to under `routing`, and no pure cell holds a hot position.
    fn assert_cells_route_like(src: &DataSource, routing: &RoutingTable) {
        assert!(
            src.cell_slots.iter().any(|&c| c != MIXED),
            "some cell is pure"
        );
        let mut dests = Vec::new();
        for pos in 0..src.cfg.positions {
            let cell = src.cell_slots[(pos >> src.cell_shift) as usize];
            if cell == MIXED {
                continue;
            }
            let hot = routing.overlay().is_some_and(|o| o.is_hot(pos));
            assert!(!hot, "hot position {pos} in a pure cell");
            match src.phase {
                Phase::Build => {
                    dests.clear();
                    dests.push(routing.build_dest(pos));
                }
                _ => routing.probe_dests(pos, &mut dests),
            }
            assert_eq!(src.buffers[cell as usize].0, dests, "position {pos}");
        }
    }

    /// Runs one phase of 6000 tuples in 400-tuple chunks over `positions`
    /// through a source and through the reference: `before` routes the
    /// first two generation steps, a stale update arrives between them,
    /// `after` arrives as a routing update on half-full buffers and routes
    /// the rest. Returns the source, its cell table built for `after`.
    fn assert_matches_reference(
        positions: u32,
        phase: Phase,
        before: RoutingTable,
        after: RoutingTable,
    ) -> DataSource {
        const TUPLES: u64 = 6000;
        const CHUNK: usize = 400;
        let cfg = cfg_over(TUPLES, CHUNK, positions);
        let mut src = DataSource::new(Arc::clone(&cfg), 0, SCHED);
        let mut ctx = ScriptCtx::new(ME);
        let mut reference = ReferenceRouter {
            phase,
            space: PositionSpace::new(cfg.positions, cfg.r.domain, cfg.hasher),
            chunk: CHUNK,
            tuple_bytes: cfg.schema().tuple_bytes(),
            hot_ticket: 0,
            buffers: HashMap::new(),
            chunks: Vec::new(),
            comm: CommCounters::new(CHUNK as u64),
        };
        let spec = match phase {
            Phase::Build => cfg.build_spec(),
            _ => cfg.probe_spec(),
        };
        let mut gen = spec.generator_for_source(0, 1);
        let mut reference_step = |routing: &RoutingTable| {
            let mut tuples = Vec::new();
            gen.fill(GEN_BATCH_MIN, &mut tuples);
            reference.route(routing, &tuples);
        };

        let (routing, version) = (Arc::new(before.clone()), 5);
        let start = match phase {
            Phase::Build => Msg::StartBuild { routing, version },
            _ => Msg::StartProbe { routing, version },
        };
        src.on_message(&mut ctx, SCHED, start);
        let mut chunks = Vec::new();
        let mut step = |src: &mut DataSource, ctx: &mut ScriptCtx| {
            ctx.sent.retain(|(_, m)| !matches!(m, Msg::GenStep));
            src.on_message(ctx, ME, Msg::GenStep);
            chunks.extend(take_chunks(src, ctx));
        };

        step(&mut src, &mut ctx);
        reference_step(&before);
        assert_cells_route_like(&src, &before);
        let (cells, slots) = (src.cell_slots.clone(), src.entry_slots.clone());
        assert!(
            slots.iter().any(Option::is_some),
            "the first step fills slots"
        );
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(RoutingTable::Replica(ReplicaMap::partitioned(
                    positions,
                    &[NODE_B],
                ))),
                version: 3,
            },
        );
        assert_eq!(src.cell_slots, cells, "a stale update leaves the cells");
        assert_eq!(src.entry_slots, slots, "a stale update clears nothing");
        step(&mut src, &mut ctx);
        reference_step(&before);

        assert!(src.buffers.iter().any(|(_, b)| !b.is_empty()));
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::RoutingUpdate {
                routing: Arc::new(after.clone()),
                version: 6,
            },
        );
        assert!(
            src.cell_slots.is_empty(),
            "an accepted update drops the cells"
        );
        assert!(src.entry_slots.is_empty(), "an accepted update clears all");
        while ctx.count(|m| matches!(m, Msg::GenStep)) > 0 {
            step(&mut src, &mut ctx);
            reference_step(&after);
        }
        reference.flush();
        assert_cells_route_like(&src, &after);

        assert_eq!(chunks, reference.chunks);
        let comm = ctx
            .sent
            .iter()
            .find_map(|(_, m)| match m {
                Msg::SourcePhaseDone { comm, .. } => Some((**comm).clone()),
                _ => None,
            })
            .expect("phase-done report");
        assert_eq!(comm, reference.comm);
        src
    }

    const NODE_C: ActorId = 4;
    const NODE_D: ActorId = 5;

    /// One position per cell (shift 0), and four (shift 2): every entry
    /// boundary of a three-way split of 10 000 falls inside a cell.
    const SPACES: [u32; 2] = [1000, 10_000];

    #[test]
    fn the_cell_width_is_derived_from_the_position_space() {
        for (positions, shift, cells) in [
            (1000, 0, 1000),
            (4096, 0, 4096),
            (4097, 1, 2049),
            (10_000, 2, 2500),
            (1 << 18, 6, 4096),
        ] {
            let mut src = DataSource::new(cfg_over(10, 10, positions), 0, SCHED);
            assert_eq!(src.cell_shift, shift, "{positions} positions");
            src.build_cells(&RoutingTable::Replica(ReplicaMap::partitioned(
                positions,
                &[NODE_A, NODE_B, NODE_C],
            )));
            assert_eq!(src.cell_slots.len(), cells, "{positions} positions");
        }
    }

    #[test]
    fn slot_table_survives_a_replica_hand_off() {
        // The middle range's active owner — its build destination, one of
        // its probe destinations — changes under an unchanged entry index.
        for positions in SPACES {
            let before = ReplicaMap::partitioned(positions, &[NODE_A, NODE_B, NODE_C]);
            let mut after = before.clone();
            let _ = after.replicate(NODE_B, NODE_D);
            for phase in [Phase::Build, Phase::Probe] {
                assert_matches_reference(
                    positions,
                    phase,
                    RoutingTable::Replica(before.clone()),
                    RoutingTable::Replica(after.clone()),
                );
            }
        }
    }

    #[test]
    fn slot_table_survives_shifted_range_indices() {
        for positions in SPACES {
            // Splitting the first range in two shifts every later entry
            // index; the cut, like the thirds, falls inside a cell.
            let (third, cut) = (positions / 3, positions / 10 + 1);
            let before = ReplicaMap::partitioned(positions, &[NODE_A, NODE_B, NODE_C]);
            let entry = |start, end, owner| ReplicaEntry {
                range: HashRange::new(start, end),
                owners: vec![owner],
            };
            let mut entries = vec![entry(0, cut, NODE_A), entry(cut, third, NODE_D)];
            entries.extend_from_slice(&before.entries()[1..]);
            let after = ReplicaMap::from_entries(entries);
            let src = assert_matches_reference(
                positions,
                Phase::Build,
                RoutingTable::Replica(before.clone()),
                RoutingTable::Replica(after.clone()),
            );
            let cell = |pos: u32| src.cell_slots[(pos >> src.cell_shift) as usize];
            if src.cell_shift == 0 {
                assert!(
                    src.cell_slots.iter().all(|&c| c != MIXED),
                    "a one-position cell never straddles an entry"
                );
            } else {
                for boundary in [cut, third, 2 * third] {
                    assert_eq!(cell(boundary), MIXED, "boundary {boundary}");
                    assert_ne!(cell(boundary - 4), MIXED, "below {boundary}");
                    assert_ne!(cell(boundary + 4), MIXED, "above {boundary}");
                }
            }
            // The same through a hot-key overlay, whose tuples bypass the
            // table.
            let overlay = crate::routing::HotKeyOverlay {
                hot: (positions * 3 / 10..positions * 42 / 100).collect(),
                replicas: vec![NODE_B, NODE_C],
                extra: vec![],
            };
            let hot = |inner| RoutingTable::HotKeys {
                overlay: overlay.clone(),
                inner: Box::new(RoutingTable::Replica(inner)),
            };
            assert_matches_reference(positions, Phase::Build, hot(before), hot(after));
        }
    }

    #[test]
    fn slot_table_survives_a_bucket_split() {
        for positions in SPACES {
            // The split bucket keeps its number but loses its upper half to
            // a new bucket on another node.
            let before = BucketMap::new(vec![NODE_A, NODE_B, NODE_C], u64::from(positions));
            let mut after = before.clone();
            let _ = after.split(NODE_D);
            assert_matches_reference(
                positions,
                Phase::Build,
                RoutingTable::Buckets(before),
                RoutingTable::Buckets(after),
            );
        }
    }

    #[test]
    fn a_hot_position_inside_a_pure_cell_is_routed_alone() {
        // The overlay arrives mid-phase; its positions sit inside cells
        // whose every other position belongs to one entry.
        const POSITIONS: u32 = 10_000;
        let base = RoutingTable::Replica(ReplicaMap::partitioned(POSITIONS, &[NODE_A, NODE_B]));
        let hot = [4321, 7002];
        let overlaid = RoutingTable::HotKeys {
            overlay: crate::routing::HotKeyOverlay {
                hot: hot.to_vec(),
                replicas: vec![NODE_B, NODE_C, NODE_D],
                extra: vec![],
            },
            inner: Box::new(base.clone()),
        };
        for phase in [Phase::Build, Phase::Probe] {
            let src = assert_matches_reference(POSITIONS, phase, base.clone(), overlaid.clone());
            let cell = |pos: u32| src.cell_slots[(pos >> src.cell_shift) as usize];
            for pos in hot {
                assert_eq!(cell(pos), MIXED, "hot {pos}");
                assert_ne!(cell(pos - 4), MIXED, "below hot {pos}");
                assert_ne!(cell(pos + 4), MIXED, "above hot {pos}");
            }
        }
    }

    #[test]
    fn hot_key_sources_sketch_and_round_robin_builds() {
        // 16 generation batches: a snapshot at `HOT_MIN_TOTAL` = 8192
        // tuples and another at the doubling, which is the last tuple.
        let mut c = (*cfg(16_384, 400)).clone();
        c.hot_keys = true;
        let mut src = DataSource::new(Arc::new(c), 0, SCHED);
        let mut ctx = ScriptCtx::new(ME);
        // Cold positions all belong to NODE_A; the hot tenth round-robins
        // over {A, B}.
        let routing = RoutingTable::HotKeys {
            overlay: crate::routing::HotKeyOverlay {
                hot: (0..100).collect(),
                replicas: vec![NODE_A, NODE_B],
                extra: vec![],
            },
            inner: Box::new(RoutingTable::Replica(ReplicaMap::partitioned(
                1000,
                &[NODE_A],
            ))),
        };
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::StartBuild {
                routing: Arc::new(routing),
                version: 1,
            },
        );
        run_gen(&mut src, &mut ctx);
        let mut guard = 0;
        while ctx.count(|m| matches!(m, Msg::SourcePhaseDone { .. })) == 0 {
            src.on_message(&mut ctx, NODE_A, Msg::DataAck);
            src.on_message(&mut ctx, NODE_B, Msg::DataAck);
            run_gen(&mut src, &mut ctx);
            guard += 1;
            assert!(guard < 10_000, "drain must terminate");
        }
        assert_eq!(
            data_tuples_to(&ctx, NODE_A) + data_tuples_to(&ctx, NODE_B),
            16_384,
            "hot routing must not duplicate or drop build tuples"
        );
        assert!(
            data_tuples_to(&ctx, NODE_B) > 0,
            "round-robin must spread hot tuples to the second replica"
        );
        let sketches = ctx
            .sent
            .iter()
            .filter_map(|(to, m)| match m {
                Msg::SketchUpdate { sketch } if *to == SCHED => Some(sketch.clone()),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert!(!sketches.is_empty(), "threshold crossed: sketch must ship");
        let last = sketches.last().unwrap();
        assert_eq!(last.total(), 16_384, "snapshots are cumulative");
    }

    #[test]
    fn sketches_stay_off_by_default() {
        let mut src = DataSource::new(cfg(1000, 50), 0, SCHED);
        let mut ctx = ScriptCtx::new(ME);
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::StartBuild {
                routing: Arc::new(two_node_routing()),
                version: 1,
            },
        );
        run_gen(&mut src, &mut ctx);
        assert_eq!(ctx.count(|m| matches!(m, Msg::SketchUpdate { .. })), 0);
    }

    #[test]
    fn empty_relation_reports_immediately() {
        let mut src = DataSource::new(cfg(0, 50), 0, SCHED);
        let mut ctx = ScriptCtx::new(ME);
        src.on_message(
            &mut ctx,
            SCHED,
            Msg::StartBuild {
                routing: Arc::new(two_node_routing()),
                version: 1,
            },
        );
        run_gen(&mut src, &mut ctx);
        let sent_chunks = ctx
            .sent
            .iter()
            .find_map(|(_, m)| match m {
                Msg::SourcePhaseDone { sent_chunks, .. } => Some(*sent_chunks),
                _ => None,
            })
            .expect("immediate done");
        assert_eq!((sent_chunks, data_tuples_sent(&ctx)), (0, 0));
    }
}
