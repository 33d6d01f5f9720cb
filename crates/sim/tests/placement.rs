//! Where the [`Executor`] pool runs a group: a group small enough for one
//! worker stays on its home, a lone big group still spreads over every
//! worker, and work queued behind a stalled home is taken over.
//!
//! These tests are CPU-bound and assert on thread placement and wall time,
//! so they live in their own test binary (cargo runs test binaries one
//! after another: they never share the machine with the library's
//! timing-sensitive tests) and take [`SERIAL`] so they do not share it with
//! each other either.

use ehj_metrics::MetricsRegistry;
use ehj_sim::{Actor, ActorId, Admission, Context, Executor, ExecutorConfig, Message};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A sibling that failed has nothing to do with this test.
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Count(u64);
impl Message for Count {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

fn pool(workers: usize) -> (Executor<Count>, ExecutorConfig) {
    let cfg = ExecutorConfig {
        workers,
        ..ExecutorConfig::default()
    };
    (Executor::start(&cfg, &MetricsRegistry::disabled()), cfg)
}

/// Blocks the worker that runs it until released.
struct Blocker {
    entered: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}
impl Actor<Count> for Blocker {
    fn on_start(&mut self, _ctx: &mut dyn Context<Count>) {
        self.entered.send(()).expect("test is listening");
        let _ = self.release.recv_timeout(Duration::from_secs(60));
    }
    fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
}

/// Admits a one-actor group whose `on_start` occupies a worker until the
/// returned sender fires, and waits until it is running.
fn occupy_a_worker(pool: &Executor<Count>) -> (Admission<Count>, mpsc::Sender<()>) {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let blocker = Blocker {
        entered: entered_tx,
        release: release_rx,
    };
    let admission = pool.admit_with(1, 1024, |_| vec![Box::new(blocker)]);
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the blocker started");
    (admission, release_tx)
}

/// A ring node that never stops and notes which threads ran it.
struct TrackedRingNode {
    next: ActorId,
    initiator: bool,
    seen: Arc<Mutex<HashSet<thread::ThreadId>>>,
    hops: Arc<AtomicU64>,
}
impl Actor<Count> for TrackedRingNode {
    fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
        if self.initiator {
            ctx.send(self.next, Count(1));
        }
    }
    fn on_message(&mut self, ctx: &mut dyn Context<Count>, _from: ActorId, msg: Count) {
        self.seen
            .lock()
            .expect("seen")
            .insert(thread::current().id());
        self.hops.fetch_add(1, Ordering::Relaxed);
        ctx.send(self.next, Count(msg.0 + 1));
    }
}

#[test]
fn small_groups_stay_on_their_home_worker() {
    let _serial = serial();
    let (pool, cfg) = pool(2);
    // Hold both workers inside a handler while the rings are admitted, so
    // each leaves it to find its own rings queued: from then on no worker
    // is ever without local work, and none may steal.
    let (anchors, releases): (Vec<_>, Vec<_>) = (0..2).map(|_| occupy_a_worker(&pool)).unzip();
    let steals_before = pool.summary().exec.steals;
    let rings: Vec<_> = (0..8)
        .map(|_| {
            let seen = Arc::new(Mutex::new(HashSet::new()));
            let hops = Arc::new(AtomicU64::new(0));
            let admission = pool.admit_with(3, cfg.mailbox_capacity, |_| {
                (0..3)
                    .map(|i| {
                        Box::new(TrackedRingNode {
                            next: (i + 1) % 3,
                            initiator: i == 0,
                            seen: Arc::clone(&seen),
                            hops: Arc::clone(&hops),
                        }) as Box<dyn Actor<Count>>
                    })
                    .collect()
            });
            (admission, seen, hops)
        })
        .collect();
    for release in releases {
        release.send(()).expect("blocker is waiting");
    }
    let until = Instant::now() + Duration::from_secs(30);
    while rings
        .iter()
        .any(|(_, _, hops)| hops.load(Ordering::Relaxed) < 2_000)
    {
        assert!(Instant::now() < until, "every ring keeps turning");
        thread::sleep(Duration::from_millis(1));
    }
    let threads: Vec<HashSet<thread::ThreadId>> = rings
        .iter()
        .map(|(_, seen, _)| seen.lock().expect("seen").clone())
        .collect();
    assert_eq!(pool.summary().exec.steals, steals_before, "nothing moved");
    for (ring, seen) in threads.iter().enumerate() {
        assert_eq!(seen.len(), 1, "ring {ring} ran on one worker: {seen:?}");
    }
    let homes: HashSet<_> = threads.iter().flatten().collect();
    assert_eq!(homes.len(), 2, "homes rotate over the workers");
    for admission in anchors.iter().chain(rings.iter().map(|(a, _, _)| a)) {
        pool.cancel(admission);
        pool.wait(admission);
    }
    pool.shutdown();
}

/// Does `steps` rounds of real computation, one self-sent message each,
/// and notes which threads ran it; the last cruncher to finish stops the
/// group.
struct Cruncher {
    steps: u64,
    unfinished: Arc<AtomicUsize>,
    seen: Arc<Mutex<HashSet<thread::ThreadId>>>,
}
impl Actor<Count> for Cruncher {
    fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
        ctx.send(ctx.me(), Count(self.steps));
    }
    fn on_message(&mut self, ctx: &mut dyn Context<Count>, _from: ActorId, msg: Count) {
        let mut x = msg.0;
        for _ in 0..20_000 {
            // Opaque per step, or the optimizer folds the recurrence.
            x = std::hint::black_box(
                x.wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407),
            );
        }
        self.seen
            .lock()
            .expect("seen")
            .insert(thread::current().id());
        if msg.0 > 1 {
            ctx.send(ctx.me(), Count(msg.0 - 1));
        } else if self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
            ctx.stop();
        }
    }
}

/// One group of 16 crunchers on `workers` workers: wall time, threads that
/// ran any of it, steals. Long enough (hundreds of milliseconds) that even
/// workers sharing a core each get it many times over.
fn crunch(workers: usize) -> (Duration, usize, u64) {
    let (pool, cfg) = pool(workers);
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let unfinished = Arc::new(AtomicUsize::new(16));
    let started = Instant::now();
    let group = pool.admit_with(16, cfg.mailbox_capacity, |_| {
        (0..16)
            .map(|_| {
                Box::new(Cruncher {
                    steps: 600,
                    unfinished: Arc::clone(&unfinished),
                    seen: Arc::clone(&seen),
                }) as Box<dyn Actor<Count>>
            })
            .collect()
    });
    pool.wait(&group);
    let wall = started.elapsed();
    let threads = seen.lock().expect("seen").len();
    (wall, threads, pool.shutdown().exec.steals)
}

#[test]
fn a_lone_group_still_spreads_over_every_worker() {
    let _serial = serial();
    let cpus = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for workers in [2, 4] {
        // Who ran what and how long it took both depend on what else the
        // machine is doing: one of a few tries has to make it.
        let mut tries = Vec::new();
        let spread = (0..5).any(|_| {
            let (solo, _, _) = crunch(1);
            let (wall, threads, steals) = crunch(workers);
            let ratio = wall.as_secs_f64() / solo.as_secs_f64();
            tries.push((threads, steals, ratio));
            // Every worker ran some of it, got it by stealing, and (where
            // there is a second core to gain from) it paid.
            threads == workers && steals > 0 && (cpus < 2 || ratio < 0.75)
        });
        assert!(
            spread,
            "{workers} workers on {cpus} cpus, (threads, steals, x one-worker time): {tries:?}"
        );
    }
}

/// Relays a counter around a ring of `n` actors; the hop that reaches
/// `limit` stops the group.
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

#[test]
fn an_idle_worker_takes_over_a_stalled_homes_group() {
    let _serial = serial();
    let (pool, cfg) = pool(2);
    let (stalled, release) = occupy_a_worker(&pool);
    let steals_before = pool.summary().exec.steals;
    // Homes rotate, so one of two consecutive admissions is homed on the
    // worker stuck in the blocker. Both must finish while it is stuck: the
    // free worker runs its own and, having waited out its patience, takes
    // the other's.
    let rings: Vec<_> = (0..2)
        .map(|_| {
            pool.admit_with(3, cfg.mailbox_capacity, |_| {
                (0..3)
                    .map(|i| {
                        Box::new(RingNode {
                            next: (i + 1) % 3,
                            limit: 100,
                            initiator: i == 0,
                        }) as Box<dyn Actor<Count>>
                    })
                    .collect()
            })
        })
        .collect();
    for ring in &rings {
        let out = pool
            .wait_timeout(ring, Duration::from_secs(30))
            .expect("finished behind a stalled worker");
        assert_eq!(out.net_bytes, 8 * 100);
    }
    assert_eq!(pool.live(), (1, 1), "the blocker is still in its handler");
    assert!(pool.summary().exec.steals > steals_before);
    release.send(()).expect("blocker is waiting");
    pool.cancel(&stalled);
    pool.wait(&stalled);
    pool.shutdown();
}
