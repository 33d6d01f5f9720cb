//! What a standalone run relies on: one group alone on a pool of its own,
//! driven through the public [`Executor`] API — accounting, backpressure,
//! self-send loops, stop semantics, stealing and per-channel order.

mod common;

use common::{Chatter, Tally};
use ehj_metrics::MetricsRegistry;
use ehj_sim::{
    Actor, ActorId, Context, Executor, ExecutorConfig, GroupOutcome, Message, ThreadedSummary,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Count(u64);
impl Message for Count {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

/// Runs `actors` as the only group of a fresh pool: the group's own ledger
/// and the pool's executor stats.
fn run_alone(
    workers: usize,
    mailbox_capacity: usize,
    actors: Vec<Box<dyn Actor<Count>>>,
) -> (GroupOutcome, ThreadedSummary) {
    let cfg = ExecutorConfig {
        workers,
        ..ExecutorConfig::default()
    };
    let pool = Executor::start(&cfg, &MetricsRegistry::disabled());
    let group = pool.admit_with(actors.len(), mailbox_capacity, |_| actors);
    let outcome = pool.wait(&group);
    assert_eq!(pool.live(), (0, 0), "every actor retired");
    (outcome, pool.shutdown())
}

/// Relays a counter around a ring, then stops the group.
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

/// Four actors passing a counter for 100 hops.
fn ring() -> Vec<Box<dyn Actor<Count>>> {
    let n = 4u32;
    (0..n)
        .map(|i| {
            Box::new(RingNode {
                next: (i + 1) % n,
                limit: 100,
                initiator: i == 0,
            }) as Box<dyn Actor<Count>>
        })
        .collect()
}

#[test]
fn accounting_is_identical_across_worker_counts() {
    for workers in [1, 2, 8] {
        let (outcome, summary) = run_alone(workers, 1024, ring());
        // 100 counter hops at 8 B each (the initial send is hop 1).
        assert_eq!(outcome.net_bytes, 8 * 100, "{workers} workers");
        assert!(outcome.elapsed > Duration::ZERO);
        assert_eq!(summary.exec.workers, workers as u64);
    }
}

#[test]
fn tiny_mailboxes_apply_backpressure_without_losing_messages() {
    // A 4-deep mailbox under a 100-hop ring: pushes park (or overflow
    // under the liveness escape), yet every hop is still delivered.
    let (outcome, summary) = run_alone(2, 4, ring());
    assert_eq!(outcome.net_bytes, 8 * 100);
    assert!(summary.exec.max_mailbox_depth >= 1);
}

#[test]
fn self_send_loops() {
    struct Looper;
    impl Actor<Count> for Looper {
        fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
            ctx.send(ctx.me(), Count(0));
        }
        fn on_message(&mut self, ctx: &mut dyn Context<Count>, _f: ActorId, m: Count) {
            if m.0 >= 1000 {
                ctx.stop();
            } else {
                ctx.send(ctx.me(), Count(m.0 + 1));
            }
        }
    }
    let (outcome, summary) = run_alone(0, 1024, vec![Box::new(Looper)]);
    assert_eq!(
        outcome.net_bytes,
        1001 * 8,
        "each lap is a charged self-send"
    );
    assert_eq!(summary.exec.misrouted, 0, "its own id is in its block");
}

#[test]
fn stop_reaches_all_actors() {
    struct Idle;
    impl Actor<Count> for Idle {
        fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
    }
    struct Stopper;
    impl Actor<Count> for Stopper {
        fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
            ctx.stop();
        }
        fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
    }
    for workers in [1, 3] {
        let mut actors: Vec<Box<dyn Actor<Count>>> = Vec::new();
        for _ in 0..8 {
            actors.push(Box::new(Idle));
        }
        actors.push(Box::new(Stopper));
        // Must not hang: `run_alone` checks all nine retired.
        run_alone(workers, 1024, actors);
    }
}

/// Counts every message it receives into a shared cell, so tests can
/// observe delivery after the group retired (and its actors were freed).
struct Counter(Arc<AtomicU64>);
impl Actor<Count> for Counter {
    fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn messages_sent_before_stop_are_delivered_after_are_dropped() {
    // Regression for the stop contract: actor 0 sends one message to
    // actor 1, stops, then sends another. The pre-stop message precedes the
    // stop sentinel in actor 1's mailbox and must arrive; the post-stop
    // message lands behind it and must not.
    struct StopperSender;
    impl Actor<Count> for StopperSender {
        fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
            ctx.send(1, Count(1));
            ctx.stop();
            ctx.send(1, Count(2));
        }
        fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
    }
    for workers in [1, 4] {
        let received = Arc::new(AtomicU64::new(0));
        let actors: Vec<Box<dyn Actor<Count>>> = vec![
            Box::new(StopperSender),
            Box::new(Counter(Arc::clone(&received))),
        ];
        let (outcome, _) = run_alone(workers, 1024, actors);
        assert_eq!(
            received.load(Ordering::Relaxed),
            1,
            "exactly the pre-stop message is delivered ({workers} workers)"
        );
        // Both sends are charged: the drop happens at the receiver,
        // after the wire.
        assert_eq!(outcome.net_bytes, 2 * 8);
    }
}

#[test]
fn empty_engine_returns_immediately() {
    // An admission of no actors has nothing to wait for.
    let (outcome, _) = run_alone(0, 1024, Vec::new());
    assert_eq!(outcome.net_bytes, 0);
}

#[test]
fn stealing_spreads_start_work() {
    // With more actors than workers and real per-actor work, a 4-worker
    // pool must complete a fan-in: every actor sends 50 messages to the
    // collector, which stops after 8 * 50.
    struct Blaster {
        to: ActorId,
    }
    impl Actor<Count> for Blaster {
        fn on_start(&mut self, ctx: &mut dyn Context<Count>) {
            for i in 0..50 {
                ctx.send(self.to, Count(i));
            }
        }
        fn on_message(&mut self, _c: &mut dyn Context<Count>, _f: ActorId, _m: Count) {}
    }
    struct Sink {
        got: u64,
    }
    impl Actor<Count> for Sink {
        fn on_message(&mut self, ctx: &mut dyn Context<Count>, _f: ActorId, _m: Count) {
            self.got += 1;
            if self.got == 400 {
                ctx.stop();
            }
        }
    }
    let mut actors: Vec<Box<dyn Actor<Count>>> = vec![Box::new(Sink { got: 0 })];
    for _ in 0..8 {
        actors.push(Box::new(Blaster { to: 0 }));
    }
    let (outcome, _) = run_alone(4, 1024, actors);
    assert_eq!(outcome.net_bytes, 400 * 8);
}

#[test]
fn every_channel_delivers_in_send_order() {
    // Six chatters, 500 numbered sends each to random peers (themselves
    // included), at every worker count and at a mailbox small enough to
    // park senders (on more than one worker; a lone worker overflows the
    // ring at once). A wedged group fails the wait instead of hanging it.
    for workers in [1, 2, 8] {
        for capacity in [2, 1024] {
            let tally = Arc::new(Tally::default());
            let actors = Chatter::group(0x55EE, 6, 500, 4096, 0, &tally);
            let pool = Executor::start(
                &ExecutorConfig {
                    workers,
                    ..ExecutorConfig::default()
                },
                &MetricsRegistry::disabled(),
            );
            let group = pool.admit_with(actors.len(), capacity, |_| actors);
            let retired = pool.wait_timeout(&group, Duration::from_secs(60));
            let case = format!("{workers} workers, capacity {capacity}");
            assert!(retired.is_some(), "{case}: the group did not retire");
            assert_eq!(tally.received.load(Ordering::Relaxed), 6 * 500, "{case}");
            assert_eq!(tally.out_of_order.load(Ordering::Relaxed), 0, "{case}");
            assert_eq!(pool.shutdown().exec.misrouted, 0, "{case}");
        }
    }
}
