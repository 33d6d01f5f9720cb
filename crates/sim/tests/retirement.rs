//! Late traffic to a retired group on a long-lived [`Executor`] pool: a
//! send toward a dead peer, a cancel after completion and a send outside
//! the sender's block are all dropped — no panic, no delivery to any other
//! group, later groups' counts exact.

use ehj_metrics::MetricsRegistry;
use ehj_sim::{Actor, ActorId, Context, Executor, ExecutorConfig, Message};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Count(u64);
impl Message for Count {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

fn pool() -> Executor<Count> {
    let cfg = ExecutorConfig {
        workers: 2,
        ..ExecutorConfig::default()
    };
    Executor::start(&cfg, &MetricsRegistry::disabled())
}

/// Relays a counter around a ring of `n` actors starting at `base`; the
/// hop that reaches `limit` stops the group.
struct RingNode {
    next: ActorId,
    limit: u64,
    initiator: bool,
    received: Arc<AtomicU64>,
}
impl Actor<Count> for RingNode {
    fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
        if self.initiator {
            ctx.send(self.next, Count(1));
        }
    }
    fn on_message(&mut self, ctx: &mut dyn Context<Count>, _from: ActorId, msg: Count) {
        self.received.fetch_add(1, Ordering::SeqCst);
        if msg.0 >= self.limit {
            ctx.stop();
        } else {
            ctx.send(self.next, Count(msg.0 + 1));
        }
    }
}

/// Runs a fresh 3-actor ring to `limit` hops on `pool` and asserts it saw
/// exactly its own traffic.
fn assert_ring_exact(pool: &Executor<Count>, limit: u64) {
    let received = Arc::new(AtomicU64::new(0));
    let adm = pool.admit_with(3, 1024, |base| {
        (0..3)
            .map(|i| {
                Box::new(RingNode {
                    next: base + (i + 1) % 3,
                    limit,
                    initiator: i == 0,
                    received: Arc::clone(&received),
                }) as Box<dyn Actor<Count>>
            })
            .collect()
    });
    let out = pool.wait(&adm);
    assert_eq!(out.net_messages, limit, "the ring's own ledger");
    assert_eq!(
        received.load(Ordering::SeqCst),
        limit,
        "no foreign delivery"
    );
}

/// Counts what it receives and its own drop.
struct Sink {
    received: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}
impl Drop for Sink {
    fn drop(&mut self) {
        self.dropped.fetch_add(1, Ordering::SeqCst);
    }
}
impl Actor<Count> for Sink {
    fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {
        self.received.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn a_send_toward_a_dead_peer_is_dropped() {
    /// Stops the group, waits until the peer has died (its body is dropped
    /// at death), then sends to it.
    struct StopThenSend {
        peer_dropped: Arc<AtomicU64>,
    }
    impl Actor<Count> for StopThenSend {
        fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
            ctx.stop();
            let until = Instant::now() + Duration::from_secs(10);
            while self.peer_dropped.load(Ordering::SeqCst) == 0 && Instant::now() < until {
                std::thread::yield_now();
            }
            ctx.send(ctx.me() + 1, Count(7));
        }
        fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
    }
    let pool = pool();
    let (received, dropped) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let adm = pool.admit_with(2, 1024, |_| {
        vec![
            Box::new(StopThenSend {
                peer_dropped: Arc::clone(&dropped),
            }),
            Box::new(Sink {
                received: Arc::clone(&received),
                dropped: Arc::clone(&dropped),
            }),
        ]
    });
    let out = pool.wait(&adm);
    assert_eq!(dropped.load(Ordering::SeqCst), 1, "the peer died first");
    assert_eq!(received.load(Ordering::SeqCst), 0);
    assert_eq!(out.net_messages, 1, "charged: the drop is past the wire");
    assert_ring_exact(&pool, 25);
    assert_eq!(pool.shutdown().exec.misrouted, 0);
}

#[test]
fn cancel_after_completion_is_a_no_op() {
    let pool = pool();
    let received = Arc::new(AtomicU64::new(0));
    let adm = pool.admit_with(2, 1024, |base| {
        (0..2)
            .map(|i| {
                Box::new(RingNode {
                    next: base + (i + 1) % 2,
                    limit: 10,
                    initiator: i == 0,
                    received: Arc::clone(&received),
                }) as Box<dyn Actor<Count>>
            })
            .collect()
    });
    let out = pool.wait(&adm);
    pool.cancel(&adm);
    pool.cancel(&adm);
    assert_eq!(pool.wait(&adm), out, "the outcome is final");
    assert_eq!(pool.live(), (0, 0));
    assert_ring_exact(&pool, 30);
    pool.shutdown();
}

#[test]
fn a_send_outside_the_senders_block_is_counted_and_dropped() {
    /// Sends one message to a foreign id, then stops its own group.
    struct Trespasser {
        foreign: ActorId,
    }
    impl Actor<Count> for Trespasser {
        fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
            ctx.send(self.foreign, Count(1));
            ctx.send(ActorId::MAX, Count(2));
            ctx.stop();
        }
        fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
    }
    let pool = pool();
    let (received, dropped) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    // A live, idle neighbour group: the trespasser aims at its block.
    let neighbour = pool.admit_with(1, 1024, |_| {
        vec![Box::new(Sink {
            received: Arc::clone(&received),
            dropped: Arc::clone(&dropped),
        })]
    });
    let adm = pool.admit_with(1, 1024, |_| {
        vec![Box::new(Trespasser {
            foreign: neighbour.base,
        })]
    });
    pool.wait(&adm);
    pool.cancel(&neighbour);
    pool.wait(&neighbour);
    assert_eq!(received.load(Ordering::SeqCst), 0, "never crosses groups");
    assert_eq!(dropped.load(Ordering::SeqCst), 1);
    let summary = pool.shutdown();
    assert_eq!(summary.exec.misrouted, 2);
}
