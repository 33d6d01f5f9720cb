//! The threaded runtime: a work-stealing executor that runs the same
//! actors as the simulator on a fixed pool of worker threads, on the wall
//! clock ([`Context::now`] is time since the group's admission,
//! `consume_cpu` / `disk_*` are accounting no-ops — real work takes real
//! time). It exists to show that the join algorithms are a real
//! message-passing system and to drive the repository benchmark; the
//! figures use the deterministic simulated backend. The pool multiplexes
//! every actor:
//!
//! * each actor owns an unbounded batch [`Mailbox`]: a send never waits
//!   for room, so a handler never sleeps inside the pool and every channel
//!   is an unbounded FIFO, as in the simulator (see [`crate::mailbox`]);
//! * run queues are **per group per worker**, and locality is the default:
//!   an admission seeds every start task on one *home* worker (homes rotate
//!   per admission), an actor runs where it was readied — newly-readied
//!   actors go to the *front* of the readying worker's queue (a LIFO slot:
//!   the freshly-sent-to actor's cache lines are hot), re-queued actors that
//!   exhausted their message budget go to the *back* (fairness) — and a
//!   worker picks among the groups with work on *its own* queues by
//!   deficit-weighted round-robin (each admission carries a scheduling
//!   weight; a group's deficit is refilled weight-proportionally and
//!   drained by the work its actors do). So a group small enough for one
//!   worker lives and dies on its home: no wakeup, mailbox lock or
//!   allocation of its crosses a core. Deficit charges are byte-proportional
//!   and paid per message, and an exhausted group is preempted at the next
//!   message boundary whenever a rival group has work queued, so a tenant's
//!   share of worker time tracks its weight — not its message volume or its
//!   batch sizes;
//! * stealing is the exception: a worker turns thief only after it has had
//!   no local work for `STEAL_PATIENCE` (50 us) while some was queued
//!   elsewhere (it yields the core meanwhile; with nothing queued anywhere
//!   it parks at once). It then takes one ready actor from the back of a
//!   randomly chosen victim's queue, groups visited in the same deficit
//!   order. A group too big for its home therefore still spreads over the
//!   pool — everything a stolen actor readies lands on the thief's queue —
//!   while work its owner reaches within a migration's cost stays put;
//! * nothing on the per-message path is pool-global: traffic is charged to
//!   the sender's group (each query keeps its own ledger; the pool keeps no
//!   traffic total), the scan cursor, coalescing buffers and dequeue batch
//!   are the worker's own, and a mailbox push or pop is one lock
//!   acquisition;
//! * a handler always runs to completion: preemption happens only between
//!   messages, and the unprocessed tail of a dequeue batch goes back to the
//!   front of the mailbox, so it never reorders or drops a message — even
//!   against a stop sentinel;
//! * [`Context::send`] coalesces per destination: envelopes buffer in a
//!   small per-destination batch and flush in one mailbox lock / one
//!   wakeup, so batched shipping (`TupleBatch`) translates into fewer
//!   wakeups, not just fewer allocations.
//!
//! The pool is **long-lived and multi-tenant**: an [`Executor`] outlives
//! any single run and admits independent actor *groups* over its lifetime
//! (one group per query in the join service; a standalone run is a pool
//! that admits one). Each group owns its actors' slots and numbers its
//! actors from 0, as an engine does: ids are the query's own, on both
//! backends. The only shared table is the list of *live* groups,
//! republished at admission and when a group finishes, and workers follow
//! it through a version-checked snapshot, so the hot path never takes the
//! publish lock. An actor's body and mailbox ring are freed the
//! moment it dies: a finished query costs nothing.
//!
//! Scheduling state machine: every actor is `Idle`, `Queued` (in exactly
//! one run queue), `Running` (owned by exactly one worker) or `Dead`.
//! Transitions into `Queued` happen through one compare-and-swap, which is
//! what makes an actor's handler single-threaded without per-message
//! locking. Stop semantics are **per group**: [`Context::stop`] enqueues a
//! stop sentinel in every mailbox of the *calling actor's group* only.
//! Within that group, messages enqueued before the sentinel are still
//! delivered and everything after it is dropped — and other groups'
//! mailboxes and deliveries are completely unaffected, so
//! one query finishing never drops another query's in-flight batches.

use crate::actor::{Actor, ActorId, Context, Message};
use crate::mailbox::Mailbox;
use crate::time::SimTime;
use ehj_metrics::registry::names;
use ehj_metrics::{Counter, ExecutorStats, Histogram, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Messages drained from a mailbox per lock acquisition.
const DEQUEUE_BATCH: usize = 64;

/// Messages one actor may process before it is re-queued (fairness).
const MSG_BUDGET: usize = 256;

/// Buffered envelopes per destination before an eager flush.
const COALESCE_FLUSH: usize = 32;

/// Distinct destinations buffered per handler before a full flush.
const COALESCE_DESTS: usize = 16;

/// Upper bound on one idle park. Every enqueue, admission, stop and
/// shutdown wakes a parked worker, so this is only a safety net: no actor
/// can arm a delay, and nothing else is due while the run queues are empty.
const MAX_PARK: Duration = Duration::from_millis(20);

/// How long a worker goes without local work, while work is queued on
/// another worker, before it steals: about what a migration costs. A stolen
/// actor drags its mailbox, its body and whatever its peers send it next
/// into the thief's cache, and from then on every message between the two
/// halves of its group crosses cores — a wakeup, a contended mailbox lock,
/// an allocation freed on the other core's arena. A 5k + 5k-tuple query is
/// ~800 actor runs of 1.4 us on average (the longest 30 us), so its home
/// worker reaches anything queued well inside this wait and a thief would
/// only split the query; a big join's runs average 70 us and its queues
/// stay non-empty for milliseconds, so it is stolen from all the same.
/// `service-closed` on 2 workers / 2 cores, M tuples/s: stealing at once
/// (the previous policy) 3.4-3.7, local-first with no wait 8.5-10.3, this
/// wait 11.5-12.2, never stealing 11.2-12.3 — but never stealing halves
/// `expand-hybrid` (23.5 -> 11.7) and `skew-highmatch` (12.5 -> 7.8): a
/// lone group must still spread. See DESIGN §4d.
const STEAL_PATIENCE: Duration = Duration::from_micros(50);

/// Deficit units granted per unit of group weight at each refill round.
/// One processed message costs one unit plus one unit per
/// [`DEFICIT_BYTES_PER_UNIT`] of payload; a send costs one unit per
/// [`DEFICIT_BYTES_PER_UNIT`].
const GROUP_QUANTUM: i64 = 256;

/// Payload bytes that cost one extra deficit unit. Charging by bytes
/// rather than by message count is what makes the weights mean *work*: a
/// tenant shipping fat tuple batches exhausts its round after a few
/// messages, while the same round covers hundreds of control messages.
const DEFICIT_BYTES_PER_UNIT: u64 = 1024;

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const DEAD: u8 = 3;

/// Tuning knobs of the [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Worker threads. `0` means `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Accepted and ignored: a mailbox is unbounded. The field stays
    /// because the repository benchmark builds this struct field by field.
    pub mailbox_capacity: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            mailbox_capacity: 1024,
        }
    }
}

impl ExecutorConfig {
    /// The effective worker count (resolves `0` to the machine's
    /// available parallelism).
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

enum Env<M> {
    Msg { from: ActorId, msg: M },
    Stop,
}

/// One worker's registry instruments, minted once at pool start from the
/// worker's own shard (so hot-path increments never share a cache line
/// with another worker's). All no-ops when the registry is disabled.
struct WorkerMetrics {
    enabled: bool,
    busy_ns: Counter,
    park_ns: Counter,
    park_count: Counter,
    steal_attempts: Counter,
    mailbox_depth: Histogram,
    coalesce_batch: Histogram,
    sched_picks: Counter,
    preempt_count: Counter,
    group_deficit: Histogram,
}

impl WorkerMetrics {
    fn new(metrics: &MetricsRegistry, worker: usize) -> Self {
        let handle = metrics.handle_for(worker);
        Self {
            enabled: handle.is_enabled(),
            busy_ns: handle.counter(names::EXEC_BUSY_NS),
            park_ns: handle.counter(names::EXEC_PARK_NS),
            park_count: handle.counter(names::EXEC_PARKS),
            steal_attempts: handle.counter(names::EXEC_STEAL_ATTEMPTS),
            mailbox_depth: handle.histogram(names::EXEC_MAILBOX_DEPTH),
            coalesce_batch: handle.histogram(names::EXEC_COALESCE_BATCH),
            sched_picks: handle.counter(names::SCHED_PICKS),
            preempt_count: handle.counter(names::SCHED_PREEMPTIONS),
            group_deficit: handle.histogram(names::SCHED_GROUP_DEFICIT),
        }
    }

    /// A wall-clock read, skipped entirely in no-op mode.
    fn clock(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    fn charge_span(&self, started: Option<Instant>, into: &Counter) {
        if let Some(t0) = started {
            into.add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// Per-admission (per-query) state: the group's actor slots (actor `i`
/// lives in `slots[i]`), the group-scoped stop flag, the live count that
/// signals completion, and the group's own traffic totals.
struct GroupState<M: Message> {
    slots: Box<[Slot<M>]>,
    /// Scheduling weight: this group's share of worker time relative to
    /// other runnable groups (deficit-weighted round-robin). Minimum 1.
    weight: u64,
    /// The worker every start task was seeded on. Actors run where they
    /// were readied, so the group stays there until a thief takes part of
    /// it.
    home: usize,
    /// Remaining deficit units this round. Drained by processed messages
    /// and sent bytes, refilled `weight * GROUP_QUANTUM` at a time when
    /// no runnable group has any deficit left. Clamped at minus one full
    /// quantum so a solo group's overdraw stays bounded.
    deficit: AtomicI64,
    /// This group's ready actors (slot indices), one queue per worker: a
    /// worker pops its own and, as a thief, the back of another's.
    queues: Vec<Mutex<VecDeque<u32>>>,
    /// Ready actors across all of this group's queues (fast runnable
    /// check; updated under the owning queue's lock).
    queued: AtomicUsize,
    /// Set by the group's own [`Context::stop`] (or an external cancel);
    /// whoever flips it posts the group's stop sentinels.
    stop: AtomicBool,
    live: AtomicUsize,
    net_bytes: AtomicU64,
    /// Admission time: the zero of the group's [`Context::now`] clock.
    admitted: Instant,
    /// `Some` once every member retired: the group's final ledger.
    done: Mutex<Option<GroupOutcome>>,
    done_cv: Condvar,
    /// Caller resources scoped to the group's run (e.g. an admission
    /// quota grant): dropped the moment the last member retires, so a
    /// submitter streaming admissions is not required to reap handles
    /// before the resources free up. Attach/take are ordered by the
    /// `done` lock.
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<M: Message> GroupState<M> {
    fn charge(&self, bytes: u64) {
        self.net_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Pushes a ready actor into this group's queue for `worker` (front
    /// when `hot`).
    fn push_ready(&self, worker: usize, actor: u32, hot: bool) {
        let mut q = self.queues[worker].lock().expect("group run queue");
        if hot {
            q.push_front(actor);
        } else {
            q.push_back(actor);
        }
        self.queued.fetch_add(1, Ordering::SeqCst);
        drop(q);
    }

    fn pop_ready(&self, worker: usize) -> Option<u32> {
        let mut q = self.queues[worker].lock().expect("group run queue");
        let actor = q.pop_front();
        if actor.is_some() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
        }
        actor
    }

    /// Whether `worker`'s own queue holds ready work of this group.
    fn has_ready(&self, worker: usize) -> bool {
        !self.queues[worker]
            .lock()
            .expect("group run queue")
            .is_empty()
    }

    fn steal_ready(&self, victim: usize) -> Option<u32> {
        let mut q = self.queues[victim].lock().expect("group run queue");
        let actor = q.pop_back();
        if actor.is_some() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
        }
        actor
    }

    /// Charges `units` of work against the group's deficit, clamped at
    /// minus one full quantum (bounded carryover, classic DRR).
    fn charge_deficit(&self, units: i64) {
        let floor = -(self.weight as i64 * GROUP_QUANTUM);
        let _ = self
            .deficit
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                Some((d - units).max(floor))
            });
    }

    /// Grants a fresh weight-proportional round of deficit (capped at one
    /// full quantum so racing refills cannot bank extra rounds).
    fn refill_deficit(&self) {
        let add = self.weight as i64 * GROUP_QUANTUM;
        let _ = self
            .deficit
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                Some((d + add).min(add))
            });
    }

    /// The group's ledger as of now.
    fn ledger(&self) -> GroupOutcome {
        GroupOutcome {
            elapsed: self.admitted.elapsed(),
            net_bytes: self.net_bytes.load(Ordering::Relaxed),
        }
    }

    fn finish(&self, outcome: GroupOutcome) {
        let mut done = self.done.lock().expect("group done lock");
        *done = Some(outcome);
        let payload = self.payload.lock().expect("group payload lock").take();
        self.done_cv.notify_all();
        drop(done);
        drop(payload);
    }
}

struct SlotBody<M: Message> {
    actor: Box<dyn Actor<M>>,
    started: bool,
}

/// A group's slots sit side by side in one block, so each is padded to
/// its own cache lines: two workers running neighbouring actors must not
/// contend on a shared line.
#[repr(align(128))]
struct Slot<M: Message> {
    mailbox: Mailbox<Env<M>>,
    state: AtomicU8,
    /// `None` once the actor died.
    body: Mutex<Option<SlotBody<M>>>,
}

/// The published group table: live groups only (a group leaves it the
/// moment its last member retires), re-published as a whole. Workers hold
/// a local `(version, table)` snapshot refreshed via a version counter, so
/// steady-state scheduling never takes the publish lock.
type Groups<M> = Arc<Vec<Arc<GroupState<M>>>>;

struct Shared<M: Message> {
    /// Publish point of the group table (see [`Groups`]).
    groups: Mutex<Groups<M>>,
    /// Bumped on every group-table publish; workers compare against their
    /// snapshot's version before scanning.
    groups_version: AtomicU64,
    /// Home worker of the next admitted group (rotates).
    next_home: AtomicUsize,
    idle_lock: Mutex<()>,
    wake: Condvar,
    idle_count: AtomicUsize,
    /// Pool shutdown (workers exit). Distinct from any group's stop flag.
    shutdown: AtomicBool,
    live: AtomicUsize,
    workers: usize,
    steals: AtomicU64,
    parks: AtomicU64,
    misrouted: AtomicU64,
    /// High-water mark of any mailbox's depth over the pool's lifetime.
    max_depth: AtomicUsize,
    worker_metrics: Vec<WorkerMetrics>,
}

impl<M: Message> Shared<M> {
    /// Refreshes a worker's `(version, table)` group snapshot if a newer
    /// table was published.
    fn groups_snapshot(&self, cache: &mut (u64, Groups<M>)) {
        let version = self.groups_version.load(Ordering::Acquire);
        if cache.0 != version {
            cache.1 = Arc::clone(&self.groups.lock().expect("group table"));
            cache.0 = version;
        }
    }

    /// Republishes the live-group table with `group` in it (`live`) or
    /// out of it.
    fn publish(&self, group: &Arc<GroupState<M>>, live: bool) {
        let mut table = self.groups.lock().expect("group table");
        let mut next = Vec::with_capacity(table.len() + 1);
        next.extend(table.iter().filter(|g| !Arc::ptr_eq(g, group)).cloned());
        if live {
            next.push(Arc::clone(group));
        }
        *table = Arc::new(next);
        self.groups_version.fetch_add(1, Ordering::Release);
    }

    /// Pushes `actor` into its group's run queue for `worker` (front when
    /// `hot`: the LIFO slot for freshly-readied work) and wakes a parked
    /// worker if any. The caller must own the transition into `QUEUED`.
    fn enqueue_ready(&self, group: &GroupState<M>, worker: usize, actor: u32, hot: bool) {
        group.push_ready(worker, actor, hot);
        if self.idle_count.load(Ordering::SeqCst) > 0 {
            let _g = self.idle_lock.lock().expect("idle lock");
            self.wake.notify_one();
        }
    }

    /// Makes `actor` runnable if it is idle.
    fn try_schedule(&self, group: &GroupState<M>, worker: usize, actor: u32) {
        if group.slots[actor as usize]
            .state
            .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.enqueue_ready(group, worker, actor, true);
        }
    }

    fn note_depth(&self, depth: usize) {
        if depth > self.max_depth.load(Ordering::Relaxed) {
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
        }
    }

    /// Delivers a coalesced batch to slot `to` of `group` and schedules
    /// it. Never waits: the mailbox takes the whole batch.
    fn deliver(&self, group: &GroupState<M>, worker: usize, to: u32, batch: &mut Vec<Env<M>>) {
        let slot = &group.slots[to as usize];
        if slot.state.load(Ordering::Acquire) == DEAD {
            // Like sending on a closed channel in the old runtime: the
            // receiver exited after a stop; dropping is correct.
            batch.clear();
            return;
        }
        let depth = slot.mailbox.append(batch);
        self.note_depth(depth);
        self.worker_metrics[worker]
            .mailbox_depth
            .record(depth as u64);
        self.try_schedule(group, worker, to);
    }

    /// Whether any group other than `me` (any group at all for `None`) has
    /// runnable work: the idle re-check before a park and the competition
    /// check behind every preemption decision. Reads the calling worker's
    /// snapshot, so steady-state scheduling takes no shared lock.
    fn group_runnable(&self, cache: &mut (u64, Groups<M>), me: Option<&GroupState<M>>) -> bool {
        self.groups_snapshot(cache);
        cache.1.iter().any(|g| {
            !me.is_some_and(|me| std::ptr::eq(&**g, me)) && g.queued.load(Ordering::SeqCst) > 0
        })
    }

    /// Flips the shutdown flag and wakes every parked worker.
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            let _g = self.idle_lock.lock().expect("idle lock");
            self.wake.notify_all();
        }
    }

    /// Enqueues a stop sentinel in every mailbox of `group` and schedules
    /// the members so the sentinels are consumed promptly. The caller must
    /// own the `false -> true` transition of `group.stop`.
    fn post_group_sentinels(&self, group: &GroupState<M>, worker: usize) {
        for (id, slot) in (0..).zip(group.slots.iter()) {
            slot.mailbox.push(Env::Stop);
            self.try_schedule(group, worker, id);
        }
        let _g = self.idle_lock.lock().expect("idle lock");
        self.wake.notify_all();
    }

    /// Retires the dead actor in slot `actor` of `group`: frees its body and
    /// mailbox ring, and — when it was the group's last — unpublishes the
    /// group and signals completion.
    fn retire(&self, group: &Arc<GroupState<M>>, actor: u32) {
        let slot = &group.slots[actor as usize];
        slot.state.store(DEAD, Ordering::Release);
        slot.mailbox.close();
        *slot.body.lock().expect("actor slot") = None;
        // Pool count first: whoever `finish` wakes sees both at rest.
        self.live.fetch_sub(1, Ordering::AcqRel);
        if group.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            let outcome = group.ledger();
            self.publish(group, false);
            group.finish(outcome);
        }
    }
}

/// A long-lived work-stealing pool over one fixed set of worker threads.
///
/// An `Executor` admits independent actor **groups** over its lifetime —
/// the multi-tenant join service admits one group per query, a standalone
/// run starts a pool for its one. A group's actors are ids `0..n` of that
/// group, as in an engine; a [`Context::stop`] from inside a group (or
/// [`Executor::cancel`]) quiesces only that group.
pub struct Executor<M: Message> {
    shared: Arc<Shared<M>>,
    handles: Vec<thread::JoinHandle<()>>,
}

/// Handle to one admitted group: its completion and cancel state.
/// Obtained from [`Executor::admit_weighted`] or [`Executor::admit_with`].
/// The group's actors are ids `0..n` of the group itself: ids are the
/// query's own, on both backends.
pub struct Admission<M: Message> {
    group: Arc<GroupState<M>>,
}

impl<M: Message> Admission<M> {
    /// Wall time since admission: the group's own clock, which its actors
    /// read as [`Context::now`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.group.admitted.elapsed()
    }

    /// Attaches a resource to the group's lifetime: it is dropped the
    /// moment the group's last actor retires (immediately, if the group
    /// already finished) — not when this `Admission` is reaped. Use for
    /// RAII resources the run holds, like an admission quota grant.
    pub fn hold_until_done(&self, payload: Box<dyn std::any::Any + Send>) {
        let done = self.group.done.lock().expect("group done lock");
        if done.is_none() {
            *self.group.payload.lock().expect("group payload lock") = Some(payload);
        }
    }
}

/// What a pool observed over its lifetime: its [`ExecutorStats`]. Traffic
/// is each group's own ([`GroupOutcome`]); the pool keeps no total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadedSummary {
    /// Executor observations: steals, parks, mailbox high-water marks.
    pub exec: ExecutorStats,
}

/// What one admitted group measured by the time it completed. Every send,
/// self-sends included, is charged its [`Message::wire_bytes`], so byte
/// accounting matches the simulated backend's per-batch charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupOutcome {
    /// Wall time from admission to the last member retiring.
    pub elapsed: Duration,
    /// Bytes this group's actors sent (self-sends included).
    pub net_bytes: u64,
}

impl<M: Message> Executor<M> {
    /// Starts a pool that stays alive — workers park when idle — until
    /// [`Executor::shutdown`] (or drop). Each worker binds its instruments
    /// (busy/steal/park time, mailbox depths, coalesce sizes) to its own
    /// shard of `metrics`; a disabled registry makes every one a
    /// single-branch no-op.
    #[must_use]
    pub fn start(cfg: &ExecutorConfig, metrics: &MetricsRegistry) -> Self {
        let workers = cfg.effective_workers().max(1);
        let shared = Arc::new(Shared {
            groups: Mutex::new(Arc::new(Vec::new())),
            groups_version: AtomicU64::new(0),
            next_home: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            wake: Condvar::new(),
            idle_count: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            workers,
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            misrouted: AtomicU64::new(0),
            max_depth: AtomicUsize::new(0),
            worker_metrics: (0..workers)
                .map(|w| WorkerMetrics::new(metrics, w))
                .collect(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ehj-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Admits the `count` actors `build(0)` returns, at scheduling weight
    /// 1 (see [`Executor::admit_weighted`]). `build` receives the group's
    /// first id, which is always 0, and `mailbox_capacity` is ignored: a
    /// mailbox is unbounded. Both stay because the repository benchmark
    /// calls this signature.
    ///
    /// # Panics
    /// Panics if `build` returns a different number of actors.
    pub fn admit_with<F>(&self, count: usize, _mailbox_capacity: usize, build: F) -> Admission<M>
    where
        F: FnOnce(ActorId) -> Vec<Box<dyn Actor<M>>>,
    {
        let actors = build(0);
        assert_eq!(actors.len(), count, "admitted actor count mismatch");
        self.admit_weighted(actors, 1)
    }

    /// Admits `actors` as one group — actor `i` is id `i` of the group —
    /// at scheduling weight `weight`: the group's share of worker time
    /// relative to other runnable groups under deficit-weighted
    /// round-robin (`0` is treated as `1`). The actors start immediately.
    /// Every start task goes to one *home* worker (homes rotate per
    /// admission): a group small enough for one worker never leaves it,
    /// and a bigger one spreads by being stolen from. The cost is linear in
    /// the group's size and in the groups live right now — independent of
    /// how many groups the pool has ever run.
    pub fn admit_weighted(&self, actors: Vec<Box<dyn Actor<M>>>, weight: u64) -> Admission<M> {
        let shared = &self.shared;
        let weight = weight.max(1);
        let count = actors.len();
        let slots = actors.into_iter().map(|actor| Slot {
            mailbox: Mailbox::default(),
            // Seeded as QUEUED: every actor gets one start task.
            state: AtomicU8::new(QUEUED),
            body: Mutex::new(Some(SlotBody {
                actor,
                started: false,
            })),
        });
        let group = Arc::new(GroupState {
            slots: slots.collect(),
            weight,
            home: shared.next_home.fetch_add(1, Ordering::Relaxed) % shared.workers,
            // A fresh group starts with one full round of deficit so
            // it is immediately runnable.
            deficit: AtomicI64::new(weight as i64 * GROUP_QUANTUM),
            queues: (0..shared.workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            queued: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(count),
            net_bytes: AtomicU64::new(0),
            admitted: Instant::now(),
            done: Mutex::new(None),
            done_cv: Condvar::new(),
            payload: Mutex::new(None),
        });
        if count == 0 {
            group.finish(group.ledger());
        } else {
            shared.live.fetch_add(count, Ordering::AcqRel);
            // Not published yet: nobody else can see the queue.
            group.queues[group.home]
                .lock()
                .expect("group run queue")
                .extend(0..count as u32);
            group.queued.store(count, Ordering::SeqCst);
            shared.publish(&group, true);
            let _g = shared.idle_lock.lock().expect("idle lock");
            shared.wake.notify_all();
        }
        Admission { group }
    }

    /// Blocks until every actor of `admission`'s group has retired.
    pub fn wait(&self, admission: &Admission<M>) -> GroupOutcome {
        let mut done = admission.group.done.lock().expect("group done lock");
        while done.is_none() {
            done = admission.group.done_cv.wait(done).expect("group done lock");
        }
        done.expect("checked")
    }

    /// Like [`Executor::wait`] with a deadline; `None` on timeout.
    pub fn wait_timeout(
        &self,
        admission: &Admission<M>,
        timeout: Duration,
    ) -> Option<GroupOutcome> {
        let deadline = Instant::now() + timeout;
        let mut done = admission.group.done.lock().expect("group done lock");
        while done.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _timeout) = admission
                .group
                .done_cv
                .wait_timeout(done, left)
                .expect("group done lock");
            done = guard;
        }
        *done
    }

    /// Cancels a group from outside: equivalent to one of its actors
    /// calling [`Context::stop`] — sentinels land at the current mailbox
    /// tails, messages already enqueued are still delivered, everything
    /// after is dropped. Idempotent; no-op on a stopping or finished group.
    pub fn cancel(&self, admission: &Admission<M>) {
        if !admission.group.stop.swap(true, Ordering::AcqRel) {
            self.shared
                .post_group_sentinels(&admission.group, admission.group.home);
        }
    }

    /// `(groups, actors)` admitted and not yet retired.
    #[must_use]
    pub fn live(&self) -> (usize, usize) {
        let groups = self.shared.groups.lock().expect("group table").len();
        (groups, self.shared.live.load(Ordering::Acquire))
    }

    /// The executor counters as of now.
    #[must_use]
    pub fn summary(&self) -> ThreadedSummary {
        let shared = &self.shared;
        ThreadedSummary {
            exec: ExecutorStats {
                workers: shared.workers as u64,
                steals: shared.steals.load(Ordering::Relaxed),
                parks: shared.parks.load(Ordering::Relaxed),
                overflows: 0,
                max_mailbox_depth: shared.max_depth.load(Ordering::Relaxed) as u64,
                timer_fires: 0,
                misrouted: shared.misrouted.load(Ordering::Relaxed),
            },
        }
    }

    /// Stops the workers and waits for them to exit. Actor panics on the
    /// pool surface here, like the old scoped join did.
    pub fn shutdown(mut self) -> ThreadedSummary {
        self.shared.request_shutdown();
        for h in self.handles.drain(..) {
            h.join().expect("worker thread panicked");
        }
        self.summary()
    }
}

impl<M: Message> Drop for Executor<M> {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// What one worker thread keeps to itself from one actor run to the next:
/// nothing here is visible to another core.
struct Local<M: Message> {
    index: usize,
    /// Xorshift state for the victim order (no external RNG dependency).
    rng: u64,
    /// Where this worker's next scan of the group table starts (fairness
    /// of the scan start, not correctness).
    cursor: usize,
    /// `(version, table)` snapshot of the live groups.
    groups: (u64, Groups<M>),
    /// The running actor's dequeue batch.
    scratch: Vec<Env<M>>,
    /// The running actor's coalescing buffers (see [`ExecCtx::pending`]);
    /// every one is empty between runs and keeps its allocation.
    pending: Vec<(u32, Vec<Env<M>>)>,
}

fn worker_loop<M: Message>(shared: &Shared<M>, index: usize) {
    let mut local = Local {
        index,
        rng: 0x9E37_79B9_7F4A_7C15u64 ^ ((index as u64 + 1) << 17),
        cursor: index,
        groups: (0, Arc::new(Vec::new())),
        scratch: Vec::with_capacity(DEQUEUE_BATCH),
        pending: Vec::new(),
    };
    // Since when this worker has looked for local work in vain while some
    // was queued elsewhere (`None` while it has its own, and after a park).
    let mut dry_since: Option<Instant> = None;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some((group, actor)) = next_task(shared, &mut local, false) {
            dry_since = None;
            run_actor(shared, &mut local, &group, actor);
            continue;
        }
        let now = Instant::now();
        if now.duration_since(*dry_since.get_or_insert(now)) >= STEAL_PATIENCE {
            // Their owners have had their chance: take one ready actor.
            if let Some((group, actor)) = next_task(shared, &mut local, true) {
                run_actor(shared, &mut local, &group, actor);
                continue;
            }
        }
        // Work is queued on another worker: give the owner its chance (and,
        // on a shared core, the core).
        if shared.group_runnable(&mut local.groups, None) {
            thread::yield_now();
            continue;
        }
        // Nothing to run anywhere.
        park(shared, &mut local);
        dry_since = None;
    }
}

/// Picks the next ready actor by deficit-weighted round-robin across the
/// runnable groups: from this worker's own queues, or — as a thief
/// (`steal`) — from the other workers'. When every group the pass could
/// have served has exhausted its deficit, each of those groups is granted a
/// fresh weight-proportional round and the scan retries — twice at most: a
/// group overdrawn to its floor of minus one round needs two.
fn next_task<M: Message>(
    shared: &Shared<M>,
    local: &mut Local<M>,
    steal: bool,
) -> Option<(Arc<GroupState<M>>, u32)> {
    shared.groups_snapshot(&mut local.groups);
    let table = &local.groups.1;
    let n = table.len();
    if n == 0 {
        return None;
    }
    let wm = &shared.worker_metrics[local.index];
    let mut refills = 0;
    loop {
        let start = local.cursor % n;
        local.cursor = local.cursor.wrapping_add(1);
        let mut starved = false;
        for k in 0..n {
            let group = &table[(start + k) % n];
            if group.queued.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let deficit = group.deficit.load(Ordering::Acquire);
            if deficit <= 0 {
                starved |= steal || group.has_ready(local.index);
                continue;
            }
            let actor = if steal {
                steal_within_group(shared, group, local.index, &mut local.rng, wm)
            } else {
                group.pop_ready(local.index)
            };
            if let Some(actor) = actor {
                wm.sched_picks.add(1);
                wm.group_deficit.record(deficit as u64);
                return Some((Arc::clone(group), actor));
            }
        }
        if !starved || refills == 2 {
            return None;
        }
        refills += 1;
        // Only the groups this pass could have served: a group whose ready
        // work all sits on another worker is that worker's to refill, or it
        // would be topped up there while it still competes for deficit.
        for group in table.iter() {
            if group.queued.load(Ordering::SeqCst) > 0 && (steal || group.has_ready(local.index)) {
                group.refill_deficit();
            }
        }
    }
}

/// Takes ready work of `group` from the back of another worker's queue,
/// victims tried in a random order.
fn steal_within_group<M: Message>(
    shared: &Shared<M>,
    group: &GroupState<M>,
    index: usize,
    rng: &mut u64,
    wm: &WorkerMetrics,
) -> Option<u32> {
    let n = group.queues.len();
    wm.steal_attempts.add(1);
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let first = (*rng % n as u64) as usize;
    for k in 0..n {
        let victim = (first + k) % n;
        if victim == index {
            continue;
        }
        if let Some(a) = group.steal_ready(victim) {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            return Some(a);
        }
    }
    None
}

/// Parks until woken by new work or `MAX_PARK` passes.
fn park<M: Message>(shared: &Shared<M>, local: &mut Local<M>) {
    let guard = shared.idle_lock.lock().expect("idle lock");
    shared.idle_count.fetch_add(1, Ordering::SeqCst);
    // Re-scan after registering as idle: an enqueue that raced with our
    // empty scan now either sees idle_count > 0 (and will notify) or its
    // push is visible here.
    if shared.group_runnable(&mut local.groups, None) || shared.shutdown.load(Ordering::Acquire) {
        shared.idle_count.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    shared.parks.fetch_add(1, Ordering::Relaxed);
    let wm = &shared.worker_metrics[local.index];
    wm.park_count.add(1);
    let parked_at = wm.clock();
    let _ = shared
        .wake
        .wait_timeout(guard, MAX_PARK)
        .expect("idle lock");
    wm.charge_span(parked_at, &wm.park_ns);
    shared.idle_count.fetch_sub(1, Ordering::SeqCst);
}

/// Runs one scheduled actor: `on_start` if needed, then up to
/// [`MSG_BUDGET`] messages in dequeue batches, then flushes its coalesced
/// sends and re-queues / idles / retires it.
fn run_actor<M: Message>(
    shared: &Shared<M>,
    local: &mut Local<M>,
    group: &Arc<GroupState<M>>,
    actor: u32,
) {
    let index = local.index;
    let scratch = &mut local.scratch;
    let slot = &group.slots[actor as usize];
    slot.state.store(RUNNING, Ordering::Release);
    let mut dead = false;
    let mut preempted = false;
    let wm = &shared.worker_metrics[index];
    let busy_from = wm.clock();
    {
        let mut body_guard = slot.body.lock().expect("actor slot");
        let body = body_guard.as_mut().expect("actor present");
        let mut ctx = ExecCtx {
            shared,
            groups: &mut local.groups,
            worker: index,
            me: actor,
            group,
            pending: &mut local.pending,
            dests: 0,
        };
        if !body.started {
            body.started = true;
            body.actor.on_start(&mut ctx);
        }
        let mut processed = 0usize;
        'budget: while processed < MSG_BUDGET {
            scratch.clear();
            let room = DEQUEUE_BATCH.min(MSG_BUDGET - processed);
            if slot.mailbox.pop_batch(scratch, room) == 0 {
                break;
            }
            let mut iter = scratch.drain(..);
            loop {
                let Some(env) = iter.next() else { break };
                match env {
                    Env::Stop => {
                        // Everything behind the sentinel is dropped, which
                        // is exactly the old engine's recv-until-Stop.
                        dead = true;
                        break 'budget;
                    }
                    Env::Msg { from, msg } => {
                        // Byte-proportional deficit charge, paid as the
                        // work happens so an exhausted group is preempted
                        // at the next message boundary — not after a full
                        // [`MSG_BUDGET`] run of fat batches.
                        let cost = 1 + (msg.wire_bytes() / DEFICIT_BYTES_PER_UNIT) as i64;
                        body.actor.on_message(&mut ctx, from, msg);
                        processed += 1;
                        group.charge_deficit(cost);
                        // Out of deficit with a rival waiting (work-
                        // conserving — a solo group keeps running on an
                        // empty pool): hand the unprocessed tail back to
                        // the mailbox front and give up the worker.
                        preempted = ctx.out_of_deficit();
                        if preempted {
                            slot.mailbox.requeue_front(iter);
                            break 'budget;
                        }
                    }
                }
            }
        }
        scratch.clear();
        ctx.flush_all();
    }
    wm.charge_span(busy_from, &wm.busy_ns);
    if dead {
        shared.retire(group, actor);
    } else if preempted || !slot.mailbox.is_empty() {
        // Preempted or budget exhausted with work left: back of the
        // queue, fair.
        slot.state.store(QUEUED, Ordering::Release);
        shared.enqueue_ready(group, index, actor, false);
    } else {
        slot.state.store(IDLE, Ordering::Release);
        // Close the race with a concurrent deliver that pushed between
        // our emptiness check and the IDLE store.
        if !slot.mailbox.is_empty() {
            shared.try_schedule(group, index, actor);
        }
    }
}

/// The [`Context`] handed to actors running on the pool.
struct ExecCtx<'a, M: Message> {
    shared: &'a Shared<M>,
    /// The running worker's snapshot of the live-group table.
    groups: &'a mut (u64, Groups<M>),
    worker: usize,
    /// The running actor's slot in `group`, which is its id.
    me: u32,
    group: &'a Arc<GroupState<M>>,
    /// Per-destination-slot coalescing buffers, flushed on size or at the
    /// end of the actor's scheduling quantum. The worker's own, reused
    /// from run to run: the first `dests` are this run's destinations, the
    /// rest are spare (empty) buffers.
    pending: &'a mut Vec<(u32, Vec<Env<M>>)>,
    dests: usize,
}

impl<M: Message> ExecCtx<'_, M> {
    /// Flushes one destination's coalesced buffer (leaves it empty,
    /// keeping the allocation).
    fn flush(&mut self, i: usize) {
        let (to, buf) = &mut self.pending[i];
        if !buf.is_empty() {
            let wm = &self.shared.worker_metrics[self.worker];
            wm.coalesce_batch.record(buf.len() as u64);
            self.shared.deliver(self.group, self.worker, *to, buf);
        }
    }

    fn flush_all(&mut self) {
        for i in 0..self.dests {
            self.flush(i);
        }
    }

    fn buffer(&mut self, to: u32, env: Env<M>) {
        let i = match self.pending[..self.dests]
            .iter()
            .position(|(d, _)| *d == to)
        {
            Some(i) => i,
            None => {
                if self.dests >= COALESCE_DESTS {
                    self.flush_all();
                    self.dests = 0;
                }
                match self.pending.get_mut(self.dests) {
                    Some(spare) => spare.0 = to,
                    None => self.pending.push((to, Vec::new())),
                }
                self.dests += 1;
                self.dests - 1
            }
        };
        self.pending[i].1.push(env);
        if self.pending[i].1.len() >= COALESCE_FLUSH {
            self.flush(i);
        }
    }

    /// Whether the group has run out of deficit while some other group
    /// wants this worker — counted as a preemption when so.
    fn out_of_deficit(&mut self) -> bool {
        let yields = self.group.deficit.load(Ordering::Acquire) <= 0
            && self.shared.group_runnable(self.groups, Some(self.group));
        if yields {
            self.shared.worker_metrics[self.worker].preempt_count.add(1);
        }
        yields
    }
}

impl<M: Message> Context<M> for ExecCtx<'_, M> {
    fn now(&self) -> SimTime {
        // The group's own clock: phase times and traces of a query admitted
        // late in a pool's life count from its admission, not the pool's.
        SimTime::from_nanos(self.group.admitted.elapsed().as_nanos() as u64)
    }

    fn me(&self) -> ActorId {
        self.me
    }

    fn send(&mut self, to: ActorId, msg: M) {
        // Actors address only their own group; an id beyond it is a
        // protocol bug, dropped and counted rather than delivered anywhere,
        // and charged nothing, as on the simulated network.
        if to as usize >= self.group.slots.len() {
            self.shared.misrouted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Charge the wire bytes exactly as the simulated network does, so
        // both backends report comparable traffic — to the sender's group,
        // so each query keeps its own traffic ledger. The bytes also drain the sender's scheduling deficit: producing a
        // fat batch costs worker time on the *sending* side (generation,
        // hashing, routing), and charging it here is what lets the
        // scheduler preempt a source that fans out heavy data from cheap
        // control messages.
        let bytes = msg.wire_bytes();
        self.group.charge(bytes);
        let cost = (bytes / DEFICIT_BYTES_PER_UNIT) as i64;
        if cost > 0 {
            self.group.charge_deficit(cost);
        }
        let from = self.me;
        self.buffer(to, Env::Msg { from, msg });
    }

    fn consume_cpu(&mut self, _amount: SimTime) {
        // Real computation takes real time on this backend.
    }

    fn disk_read(&mut self, _bytes: u64) {
        // Real I/O (if any) is performed by the storage backend itself.
    }

    fn disk_write(&mut self, _bytes: u64) {}

    fn disk_append(&mut self, _bytes: u64) {}

    fn stop(&mut self) {
        // Everything this actor sent before stopping must land before the
        // sentinels, like the old engine's channel FIFO did. The sentinels
        // go to this actor's *own group only*: under concurrent queries,
        // one query stopping must not quiesce — or drop batches of — any
        // other query.
        self.flush_all();
        if !self.group.stop.swap(true, Ordering::AcqRel) {
            self.shared.post_group_sentinels(self.group, self.worker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    struct Count(u64);
    impl Message for Count {
        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    /// Relays a counter around a ring of `n` actors.
    struct RingNode {
        next: ActorId,
        limit: u64,
        initiator: bool,
    }
    impl Actor<Count> for RingNode {
        fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
            if self.initiator {
                ctx.send(self.next, Count(1));
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context<Count>, _from: ActorId, msg: Count) {
            if msg.0 >= self.limit {
                ctx.stop();
            } else {
                ctx.send(self.next, Count(msg.0 + 1));
            }
        }
    }

    fn ring(n: u32, limit: u64) -> Vec<Box<dyn Actor<Count>>> {
        (0..n)
            .map(|i| {
                Box::new(RingNode {
                    next: (i + 1) % n,
                    limit,
                    initiator: i == 0,
                }) as Box<dyn Actor<Count>>
            })
            .collect()
    }

    struct StopOnStart;
    impl Actor<Count> for StopOnStart {
        fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
            ctx.stop();
        }
        fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
    }

    #[test]
    fn one_groups_stop_does_not_drop_another_groups_messages() {
        // Regression for the engine-wide stop flag: a query finishing used
        // to flip every mailbox to droppable and sentinel every actor.
        // Now group A stopping must leave group B's ring delivering every
        // hop to its own limit.
        let cfg = ExecutorConfig {
            workers: 2,
            ..ExecutorConfig::default()
        };
        let pool: Executor<Count> = Executor::start(&cfg, &MetricsRegistry::disabled());
        let b = pool.admit_with(4, 0, |_| ring(4, 300));
        let a = pool.admit_with(1, 0, |_| vec![Box::new(StopOnStart)]);
        let a_out = pool.wait(&a);
        let b_out = pool.wait(&b);
        assert_eq!(a_out.net_bytes, 0, "the stopper sent nothing");
        assert_eq!(
            b_out.net_bytes,
            300 * 8,
            "every hop of group B delivered despite group A's stop"
        );
        pool.shutdown();
    }

    #[test]
    fn groups_admitted_after_a_stop_still_run() {
        let pool: Executor<Count> =
            Executor::start(&ExecutorConfig::default(), &MetricsRegistry::disabled());
        let a = pool.admit_with(1, 1024, |_| vec![Box::new(StopOnStart)]);
        pool.wait(&a);
        // Admitted after group A fully quiesced: must be unaffected.
        let b = pool.admit_with(3, 1024, |_| ring(3, 50));
        let b_out = pool.wait(&b);
        assert_eq!(b_out.net_bytes, 50 * 8);
        pool.shutdown();
    }

    #[test]
    fn cancel_quiesces_a_group_externally() {
        // An idle group (no initiator, nothing in flight) never stops by
        // itself; cancel must retire it promptly.
        struct Idle;
        impl Actor<Count> for Idle {
            fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
        }
        let pool: Executor<Count> =
            Executor::start(&ExecutorConfig::default(), &MetricsRegistry::disabled());
        let adm = pool.admit_with(2, 1024, |_| vec![Box::new(Idle), Box::new(Idle)]);
        assert!(
            pool.wait_timeout(&adm, Duration::from_millis(10)).is_none(),
            "idle group does not finish on its own"
        );
        pool.cancel(&adm);
        let out = pool
            .wait_timeout(&adm, Duration::from_secs(10))
            .expect("cancel retires the group");
        assert_eq!(out.net_bytes, 0);
        pool.shutdown();
    }

    #[test]
    fn per_group_traffic_ledgers_are_disjoint() {
        /// Sends its peer five messages and itself one, and never stops.
        struct Lingerer {
            peer: ActorId,
        }
        impl Actor<Count> for Lingerer {
            fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
                for i in 0..5 {
                    ctx.send(self.peer, Count(i));
                }
                ctx.send(ctx.me(), Count(0));
            }
            fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
        }
        struct Mute;
        impl Actor<Count> for Mute {
            fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
        }
        let pool: Executor<Count> =
            Executor::start(&ExecutorConfig::default(), &MetricsRegistry::disabled());
        let a = pool.admit_with(2, 1024, |_| ring(2, 40));
        let b = pool.admit_with(2, 1024, |_| ring(2, 70));
        let (a_out, b_out) = (pool.wait(&a), pool.wait(&b));
        assert_eq!(a_out.net_bytes, 40 * 8);
        assert_eq!(b_out.net_bytes, 70 * 8);
        // A group that never stops by itself: its start task still runs
        // before the cancel's sentinel, so its ledger holds every send of
        // `on_start`, its self-send included.
        let c = pool.admit_with(2, 1024, |_| {
            vec![
                Box::new(Lingerer { peer: 1 }) as Box<dyn Actor<Count>>,
                Box::new(Mute),
            ]
        });
        assert_eq!(pool.live(), (1, 2), "the group is live until cancelled");
        pool.cancel(&c);
        let c_out = pool.wait(&c);
        assert_eq!(c_out.net_bytes, 6 * 8, "six sends, one to itself");
        pool.shutdown();
    }

    /// A message whose wire size is its value: the deficit charges scale
    /// with it.
    struct Sized(u64);
    impl Message for Sized {
        fn wire_bytes(&self) -> u64 {
            self.0
        }
    }

    /// Holds the pool's only worker inside `on_start` until released, so
    /// the groups admitted meanwhile are all queued before any of them runs.
    struct Gate(mpsc::Receiver<()>);
    impl Actor<Sized> for Gate {
        fn on_start(&mut self, _ctx: &mut dyn Context<Sized>) {
            let _ = self.0.recv_timeout(Duration::from_secs(60));
        }
        fn on_message(&mut self, _c: &mut dyn Context<Sized>, _f: ActorId, _m: Sized) {}
    }

    /// A self-send loop of `bytes`-sized messages, one message per actor
    /// run, counting into `done`. After `limit` messages it notes what
    /// `rival` has counted so far and stops its group.
    struct Spinner {
        bytes: u64,
        limit: u64,
        done: Arc<AtomicU64>,
        rival: Arc<AtomicU64>,
        rival_at_stop: Arc<AtomicU64>,
    }
    impl Actor<Sized> for Spinner {
        fn on_start(&mut self, ctx: &mut dyn Context<Sized>) {
            ctx.send(ctx.me(), Sized(self.bytes));
        }
        fn on_message(&mut self, ctx: &mut dyn Context<Sized>, _f: ActorId, m: Sized) {
            if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.limit {
                let rival = self.rival.load(Ordering::Relaxed);
                self.rival_at_stop.store(rival, Ordering::Relaxed);
                ctx.stop();
            } else {
                ctx.send(ctx.me(), m);
            }
        }
    }

    /// Deficit units one message of a [`Spinner`] costs its group: `1 +
    /// bytes / unit` to handle it and `bytes / unit` to send the next.
    fn spin_cost(bytes: u64) -> u64 {
        1 + 2 * (bytes / DEFICIT_BYTES_PER_UNIT)
    }

    /// A pool of one worker, with a live registry to count preemptions.
    fn one_worker() -> (Executor<Sized>, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        let cfg = ExecutorConfig {
            workers: 1,
            ..ExecutorConfig::default()
        };
        (Executor::start(&cfg, &registry), registry)
    }

    fn preemptions(registry: &MetricsRegistry) -> u64 {
        let counters = registry.snapshot().counters;
        counters.get(names::SCHED_PREEMPTIONS).copied().unwrap_or(0)
    }

    /// Runs two spinners as two groups on one worker, `(weight, bytes)`
    /// each, until `b` has handled `b_limit` messages. Returns how many `a`
    /// handled meanwhile and the preemptions the worker counted.
    fn contend(a: (u64, u64), b: (u64, u64), b_limit: u64) -> (u64, u64) {
        let (pool, registry) = one_worker();
        let (release, gate) = mpsc::channel();
        let held = pool.admit_with(1, 16, |_| vec![Box::new(Gate(gate))]);
        let (a_done, b_done) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let a_at_stop = Arc::new(AtomicU64::new(0));
        let spinner = |bytes, limit, done: &Arc<AtomicU64>, rival: &Arc<AtomicU64>| {
            vec![Box::new(Spinner {
                bytes,
                limit,
                done: Arc::clone(done),
                rival: Arc::clone(rival),
                rival_at_stop: Arc::clone(&a_at_stop),
            }) as Box<dyn Actor<Sized>>]
        };
        let ga = pool.admit_weighted(spinner(a.1, u64::MAX, &a_done, &b_done), a.0);
        let gb = pool.admit_weighted(spinner(b.1, b_limit, &b_done, &a_done), b.0);
        release.send(()).expect("the gate is waiting");
        pool.wait(&gb);
        for group in [&ga, &held] {
            pool.cancel(group);
            pool.wait(group);
        }
        pool.shutdown();
        (a_at_stop.load(Ordering::Relaxed), preemptions(&registry))
    }

    #[test]
    fn weights_divide_a_contended_worker_by_work() {
        // Deficit-weighted round-robin on one worker: over whole rounds
        // each group handles `weight * GROUP_QUANTUM` deficit units, so a
        // group's share of messages is its weight over its per-message
        // cost. The deficit of a message is byte-proportional, so a tenant
        // of fat messages gets fewer of them for the same weight. One
        // worker makes the pick order, and so every count, exact; the
        // band is one round of `a`'s messages.
        let b_limit = 8 * GROUP_QUANTUM as u64 * 4;
        for (a, b) in [
            ((1, 8), (1, 8)),
            ((1, 8), (8, 8)),
            ((8, 8), (1, 8)),
            ((1, 8 * 1024), (1, 8)),
            ((4, 8 * 1024), (1, 8)),
        ] {
            let (a_done, preemptions) = contend(a, b, b_limit);
            let per_unit = |(weight, bytes): (u64, u64)| weight as f64 / spin_cost(bytes) as f64;
            let want = b_limit as f64 * per_unit(a) / per_unit(b);
            let round = (a.0 * GROUP_QUANTUM as u64).div_ceil(spin_cost(a.1)) as f64;
            assert!(
                (a_done as f64 - want).abs() <= round + 1.0,
                "a = {a:?} handled {a_done} against b = {b:?}'s {b_limit}, want {want:.0} +- {round}"
            );
            assert!(
                preemptions > 0,
                "a = {a:?}, b = {b:?}: nobody was preempted"
            );
        }
    }

    #[test]
    fn a_lone_group_is_never_preempted() {
        // Work-conserving: out of deficit with no rival queued, a group
        // keeps the worker whatever its weight.
        let (pool, registry) = one_worker();
        let done = Arc::new(AtomicU64::new(0));
        let unused = Arc::new(AtomicU64::new(0));
        let spinner = Spinner {
            bytes: 8 * 1024,
            limit: 20 * GROUP_QUANTUM as u64,
            done: Arc::clone(&done),
            rival: Arc::clone(&unused),
            rival_at_stop: Arc::clone(&unused),
        };
        let group = pool.admit_weighted(vec![Box::new(spinner)], 1);
        pool.wait(&group);
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 20 * GROUP_QUANTUM as u64);
        assert_eq!(preemptions(&registry), 0);
    }

    #[test]
    fn finished_groups_are_reclaimed() {
        // On a long-lived pool a finished group costs nothing: every actor
        // is dropped by the time `wait` returns and the pool's live tables
        // are empty again, however many groups came before.
        struct Dropper(bool, Arc<AtomicU64>);
        impl Drop for Dropper {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        impl Actor<Count> for Dropper {
            fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
                if self.0 {
                    ctx.stop();
                }
            }
            fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
        }
        let cfg = ExecutorConfig {
            workers: 2,
            ..ExecutorConfig::default()
        };
        let pool: Executor<Count> = Executor::start(&cfg, &MetricsRegistry::disabled());
        let drops = Arc::new(AtomicU64::new(0));
        for round in 1..=200 {
            let adm = pool.admit_with(5, 0, |_| {
                (0..5)
                    .map(|i| Box::new(Dropper(i == 0, Arc::clone(&drops))) as Box<dyn Actor<Count>>)
                    .collect()
            });
            pool.wait(&adm);
            assert_eq!(drops.load(Ordering::SeqCst), round * 5, "round {round}");
            assert_eq!(pool.live(), (0, 0), "round {round}");
        }
        pool.shutdown();
    }
}
