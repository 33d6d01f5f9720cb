//! Deterministic discrete-event engine.
//!
//! Events are processed in `(time, sequence)` order; the sequence number is
//! assigned at insertion, so runs are bit-for-bit reproducible. Each actor
//! has a CPU that processes one message at a time: a message arriving while
//! the actor is busy waits until the CPU frees up, and CPU consumed inside a
//! handler delays everything the handler does afterwards (sends depart at
//! the actor's *local* clock).

use crate::actor::{Actor, ActorId, Context, Message};
use crate::disk::{DiskConfig, DiskState};
use crate::net::{NetConfig, Network};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Engine-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Network model parameters.
    pub net: NetConfig,
    /// Disk model parameters.
    pub disk: DiskConfig,
    /// Safety valve: abort if more than this many events are processed.
    pub max_events: u64,
    /// Optional virtual-time limit: event processing stops once the next
    /// event lies beyond this point (remaining events are discarded).
    pub max_time: Option<SimTime>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            net: NetConfig::fast_ethernet_100mbps(),
            disk: DiskConfig::ide_2004(),
            max_events: 500_000_000,
            max_time: None,
        }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained: the system is quiescent.
    Quiescent,
    /// An actor called [`Context::stop`].
    Stopped,
    /// The configured virtual-time limit was reached.
    TimeLimit,
}

/// Summary statistics of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunSummary {
    /// Virtual time at which the last handler finished (makespan).
    pub end_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// Bytes pushed through the network (incl. per-message overhead).
    pub net_bytes: u64,
    /// Messages transferred.
    pub net_messages: u64,
    /// Bytes moved through all simulated disks.
    pub disk_bytes: u64,
    /// Why the run ended.
    pub reason: StopReason,
}

/// Errors surfaced by [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The configured event budget was exhausted — almost always a protocol
    /// livelock in the actors.
    EventLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EventLimitExceeded { limit } => {
                write!(f, "event limit exceeded ({limit} events): likely livelock")
            }
        }
    }
}

impl std::error::Error for EngineError {}

struct Event<M> {
    time: SimTime,
    seq: u64,
    target: ActorId,
    from: ActorId,
    msg: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The discrete-event simulation engine.
pub struct Engine<M: Message> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    queue: BinaryHeap<Event<M>>,
    net: Network,
    disk: DiskState,
    cpu_free: Vec<SimTime>,
    /// Virtual time at which the last handler so far finished.
    end_time: SimTime,
    seq: u64,
    max_events: u64,
    max_time: Option<SimTime>,
}

impl<M: Message> Engine<M> {
    /// Creates an empty engine.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Self {
            actors: Vec::new(),
            queue: BinaryHeap::new(),
            net: Network::new(config.net, 0),
            disk: DiskState::new(config.disk, 0),
            cpu_free: Vec::new(),
            end_time: SimTime::ZERO,
            seq: 0,
            max_events: config.max_events,
            max_time: config.max_time,
        }
    }

    /// Registers an actor; ids are assigned densely in registration order.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = self.actors.len() as ActorId;
        self.actors.push(Some(actor));
        self.cpu_free.push(SimTime::ZERO);
        self.net.ensure_node(id);
        id
    }

    /// Virtual time at which the last handler so far finished: a finished
    /// run's [`RunSummary::end_time`], and how far a run got before
    /// [`Engine::run`] returned an error.
    #[must_use]
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// Injects a bootstrap message delivered to `to` at `time` (bypasses the
    /// network). Useful for tests; production drivers use
    /// [`Actor::on_start`].
    pub fn inject(&mut self, time: SimTime, to: ActorId, from: ActorId, msg: M) {
        let seq = self.next_seq();
        self.queue.push(Event {
            time,
            seq,
            target: to,
            from,
            msg,
        });
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Runs `on_start` for every actor (in id order), then processes events
    /// until quiescence or an actor stops the engine.
    ///
    /// # Errors
    /// Returns [`EngineError::EventLimitExceeded`] if the configured event
    /// budget runs out.
    pub fn run(&mut self) -> Result<RunSummary, EngineError> {
        // An actor that stops during its start hook ends the run before the
        // later actors start.
        for id in 0..self.actors.len() as ActorId {
            if self.dispatch(id, SimTime::ZERO, None) {
                return Ok(self.summary(0, StopReason::Stopped));
            }
        }

        let mut events: u64 = 0;
        while let Some(ev) = self.queue.pop() {
            if self.max_time.is_some_and(|limit| ev.time > limit) {
                self.queue.clear();
                return Ok(self.summary(events, StopReason::TimeLimit));
            }
            events += 1;
            if events > self.max_events {
                return Err(EngineError::EventLimitExceeded {
                    limit: self.max_events,
                });
            }
            let start = ev.time.max(self.cpu_free[ev.target as usize]);
            if self.dispatch(ev.target, start, Some((ev.from, ev.msg))) {
                self.queue.clear();
                return Ok(self.summary(events, StopReason::Stopped));
            }
        }
        Ok(self.summary(events, StopReason::Quiescent))
    }

    /// Runs one handler of actor `id` on its CPU from `start` — its start
    /// hook, or `on_message` for a `(from, msg)` delivery — commits its
    /// sends, and returns whether it stopped the engine.
    fn dispatch(&mut self, id: ActorId, start: SimTime, delivery: Option<(ActorId, M)>) -> bool {
        let idx = id as usize;
        let mut actor = self.actors[idx].take().expect("actor present");
        let mut ctx = EngineCtx {
            me: id,
            local: start,
            net: &mut self.net,
            disk: &mut self.disk,
            staged: Vec::new(),
            stopped: false,
        };
        match delivery {
            None => actor.on_start(&mut ctx),
            Some((from, msg)) => actor.on_message(&mut ctx, from, msg),
        }
        let EngineCtx {
            local,
            staged,
            stopped,
            ..
        } = ctx;
        self.commit(staged);
        self.cpu_free[idx] = local;
        self.end_time = self.end_time.max(local);
        self.actors[idx] = Some(actor);
        stopped
    }

    fn commit(&mut self, staged: Vec<(SimTime, ActorId, ActorId, M)>) {
        for (time, target, from, msg) in staged {
            let seq = self.next_seq();
            self.queue.push(Event {
                time,
                seq,
                target,
                from,
                msg,
            });
        }
    }

    fn summary(&self, events: u64, reason: StopReason) -> RunSummary {
        RunSummary {
            end_time: self.end_time,
            events,
            net_bytes: self.net.bytes_sent(),
            net_messages: self.net.messages_sent(),
            disk_bytes: self.disk.total_bytes(),
            reason,
        }
    }
}

/// [`Context`] implementation backed by the engine.
struct EngineCtx<'a, M: Message> {
    me: ActorId,
    local: SimTime,
    net: &'a mut Network,
    disk: &'a mut DiskState,
    /// (delivery time, target, from, msg) — committed to the heap after the
    /// handler returns, preserving send order via sequence numbers.
    staged: Vec<(SimTime, ActorId, ActorId, M)>,
    stopped: bool,
}

impl<M: Message> Context<M> for EngineCtx<'_, M> {
    fn now(&self) -> SimTime {
        self.local
    }

    fn me(&self) -> ActorId {
        self.me
    }

    fn send(&mut self, to: ActorId, msg: M) {
        let arrival = self.net.transfer(self.me, to, msg.wire_bytes(), self.local);
        self.staged.push((arrival, to, self.me, msg));
    }

    fn consume_cpu(&mut self, amount: SimTime) {
        self.local += amount;
    }

    fn disk_read(&mut self, bytes: u64) {
        self.local = self.disk.read(self.me, bytes, self.local);
    }

    fn disk_write(&mut self, bytes: u64) {
        self.local = self.disk.write(self.me, bytes, self.local);
    }

    fn disk_append(&mut self, bytes: u64) {
        self.local = self.disk.append(self.me, bytes, self.local);
    }

    fn stop(&mut self) {
        self.stopped = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test message: a counter value with a fixed wire size.
    struct Ping(u64);
    impl Message for Ping {
        fn wire_bytes(&self) -> u64 {
            100
        }
    }

    /// Bounces a counter back and forth `limit` times, then stops.
    struct Bouncer {
        peer: ActorId,
        limit: u64,
        seen: Vec<u64>,
        initiator: bool,
        cpu_per_msg: SimTime,
    }

    impl Actor<Ping> for Bouncer {
        fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
            if self.initiator {
                ctx.send(self.peer, Ping(0));
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context<Ping>, _from: ActorId, msg: Ping) {
            ctx.consume_cpu(self.cpu_per_msg);
            self.seen.push(msg.0);
            if msg.0 >= self.limit {
                ctx.stop();
            } else {
                ctx.send(self.peer, Ping(msg.0 + 1));
            }
        }
    }

    fn bouncer_engine(limit: u64, cpu: SimTime) -> Engine<Ping> {
        let mut e = Engine::new(EngineConfig::default());
        let a = e.add_actor(Box::new(Bouncer {
            peer: 1,
            limit,
            seen: vec![],
            initiator: true,
            cpu_per_msg: cpu,
        }));
        let b = e.add_actor(Box::new(Bouncer {
            peer: 0,
            limit,
            seen: vec![],
            initiator: false,
            cpu_per_msg: cpu,
        }));
        assert_eq!((a, b), (0, 1));
        e
    }

    #[test]
    fn ping_pong_terminates_by_stop() {
        let mut e = bouncer_engine(10, SimTime::ZERO);
        let s = e.run().expect("no livelock");
        assert_eq!(s.reason, StopReason::Stopped);
        assert_eq!(s.events, 11); // messages 0..=10
    }

    #[test]
    fn time_advances_with_network_and_cpu() {
        let cpu = SimTime::from_micros(10);
        let mut e = bouncer_engine(3, cpu);
        let s = e.run().expect("runs");
        let net = NetConfig::fast_ethernet_100mbps();
        let hop = net.transfer_time(100) + net.latency;
        // 4 hops (msgs 0,1,2,3) + 4 handler CPU charges.
        assert_eq!(s.end_time, (hop + cpu) * 4);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut e = bouncer_engine(50, SimTime::from_nanos(123));
            let s = e.run().expect("runs");
            (s.end_time, s.events, s.net_bytes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quiescent_when_no_initiator() {
        let mut e = Engine::new(EngineConfig::default());
        let _ = e.add_actor(Box::new(Bouncer {
            peer: 0,
            limit: 5,
            seen: vec![],
            initiator: false,
            cpu_per_msg: SimTime::ZERO,
        }));
        let s = e.run().expect("runs");
        assert_eq!(s.reason, StopReason::Quiescent);
        assert_eq!(s.events, 0);
        assert_eq!(s.end_time, SimTime::ZERO);
    }

    #[test]
    fn event_limit_catches_livelock() {
        struct Loopy;
        impl Actor<Ping> for Loopy {
            fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
                ctx.send(ctx.me(), Ping(0));
            }
            fn on_message(&mut self, ctx: &mut dyn Context<Ping>, _f: ActorId, m: Ping) {
                ctx.consume_cpu(SimTime::from_micros(1));
                ctx.send(ctx.me(), m);
            }
        }
        let mut e = Engine::new(EngineConfig {
            max_events: 1000,
            ..EngineConfig::default()
        });
        let _ = e.add_actor(Box::new(Loopy));
        let err = e.run().expect_err("must hit the event limit");
        assert_eq!(err, EngineError::EventLimitExceeded { limit: 1000 });
        // How far the aborted run got: its 1000 handlers, 1 µs each.
        assert_eq!(e.end_time(), SimTime::from_micros(1000));
    }

    #[test]
    fn inject_bootstraps_without_network() {
        struct Recorder {
            at: Vec<(SimTime, u64)>,
        }
        impl Actor<Ping> for Recorder {
            fn on_message(&mut self, ctx: &mut dyn Context<Ping>, _f: ActorId, m: Ping) {
                self.at.push((ctx.now(), m.0));
            }
        }
        let mut e = Engine::new(EngineConfig::default());
        let id = e.add_actor(Box::new(Recorder { at: vec![] }));
        e.inject(SimTime::from_secs(3), id, id, Ping(7));
        e.inject(SimTime::from_secs(1), id, id, Ping(4));
        let s = e.run().expect("runs");
        assert_eq!(s.events, 2);
        assert_eq!(s.end_time, SimTime::from_secs(3));
    }

    #[test]
    fn a_self_send_arrives_at_the_senders_local_clock_off_the_network() {
        // What a data source's generation loop relies on: a message to
        // itself is handled the moment the handler that sent it has paid
        // for its CPU, and no byte of it crosses the network.
        struct Stepper;
        impl Actor<Ping> for Stepper {
            fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
                ctx.consume_cpu(SimTime::from_millis(1));
                ctx.send(ctx.me(), Ping(0));
            }
            fn on_message(&mut self, ctx: &mut dyn Context<Ping>, _f: ActorId, m: Ping) {
                assert_eq!(ctx.now(), SimTime::from_millis(m.0 + 1), "step {}", m.0);
                ctx.consume_cpu(SimTime::from_millis(1));
                if m.0 < 3 {
                    ctx.send(ctx.me(), Ping(m.0 + 1));
                }
            }
        }
        let mut e = Engine::new(EngineConfig::default());
        let _ = e.add_actor(Box::new(Stepper));
        let s = e.run().expect("runs");
        assert_eq!(s.reason, StopReason::Quiescent);
        assert_eq!(s.events, 4);
        assert_eq!(s.end_time, SimTime::from_millis(5));
        assert_eq!(s.net_bytes, 0);
    }

    #[test]
    fn busy_cpu_delays_next_message() {
        // Two messages injected at t=0 and t=1ns; handler burns 1s of CPU,
        // so the second handler starts at ~1s, not at 1ns.
        struct Burner {
            starts: Vec<SimTime>,
        }
        impl Actor<Ping> for Burner {
            fn on_message(&mut self, ctx: &mut dyn Context<Ping>, _f: ActorId, _m: Ping) {
                self.starts.push(ctx.now());
                ctx.consume_cpu(SimTime::from_secs(1));
            }
        }
        let mut e = Engine::new(EngineConfig::default());
        let id = e.add_actor(Box::new(Burner { starts: vec![] }));
        e.inject(SimTime::ZERO, id, id, Ping(0));
        e.inject(SimTime::from_nanos(1), id, id, Ping(1));
        let s = e.run().expect("runs");
        assert_eq!(s.end_time, SimTime::from_secs(2));
    }

    #[test]
    fn disk_io_blocks_the_actor() {
        struct Spiller;
        impl Actor<Ping> for Spiller {
            fn on_message(&mut self, ctx: &mut dyn Context<Ping>, _f: ActorId, _m: Ping) {
                ctx.disk_write(35_000_000); // 1s at 35 MB/s + 9ms seek
                ctx.disk_read(40_000_000); // 1s at 40 MB/s + 9ms seek
            }
        }
        let mut e = Engine::new(EngineConfig::default());
        let id = e.add_actor(Box::new(Spiller));
        e.inject(SimTime::ZERO, id, id, Ping(0));
        let s = e.run().expect("runs");
        assert_eq!(s.end_time, SimTime::from_secs(2) + SimTime::from_millis(18));
        assert_eq!(s.disk_bytes, 75_000_000);
    }

    #[test]
    fn sends_depart_after_cpu_consumed() {
        // Actor burns 1s then sends: the message must arrive after 1s + net.
        struct SendAfterBurn {
            to: ActorId,
        }
        struct ArrivalProbe {
            arrived: Option<SimTime>,
        }
        impl Actor<Ping> for SendAfterBurn {
            fn on_message(&mut self, ctx: &mut dyn Context<Ping>, _f: ActorId, m: Ping) {
                ctx.consume_cpu(SimTime::from_secs(1));
                ctx.send(self.to, m);
            }
        }
        impl Actor<Ping> for ArrivalProbe {
            fn on_message(&mut self, ctx: &mut dyn Context<Ping>, _f: ActorId, _m: Ping) {
                self.arrived = Some(ctx.now());
                ctx.stop();
            }
        }
        let mut e = Engine::new(EngineConfig::default());
        let a = e.add_actor(Box::new(SendAfterBurn { to: 1 }));
        let _b = e.add_actor(Box::new(ArrivalProbe { arrived: None }));
        e.inject(SimTime::ZERO, a, a, Ping(0));
        let s = e.run().expect("runs");
        let net = NetConfig::fast_ethernet_100mbps();
        assert_eq!(
            s.end_time,
            SimTime::from_secs(1) + net.transfer_time(100) + net.latency
        );
    }
}

#[cfg(test)]
mod time_limit_tests {
    use super::*;

    /// An empty message: its transfer costs the switch latency alone.
    struct Tick(u64);
    impl Message for Tick {
        fn wire_bytes(&self) -> u64 {
            0
        }
    }

    /// Bounces a tick to its peer forever.
    struct Ticker {
        peer: ActorId,
        initiator: bool,
    }
    impl Actor<Tick> for Ticker {
        fn on_start(&mut self, ctx: &mut dyn Context<Tick>) {
            if self.initiator {
                ctx.send(self.peer, Tick(0));
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context<Tick>, _f: ActorId, m: Tick) {
            ctx.send(self.peer, Tick(m.0 + 1));
        }
    }

    /// Two tickers on a network whose every hop takes exactly one second.
    fn ticker_pair(config: EngineConfig) -> Engine<Tick> {
        let mut e = Engine::new(EngineConfig {
            net: NetConfig {
                latency: SimTime::from_secs(1),
                ..NetConfig::infinite()
            },
            ..config
        });
        for (peer, initiator) in [(1, true), (0, false)] {
            let _ = e.add_actor(Box::new(Ticker { peer, initiator }));
        }
        e
    }

    #[test]
    fn time_limit_stops_an_unbounded_system() {
        let mut e = ticker_pair(EngineConfig {
            max_time: Some(SimTime::from_secs(10)),
            ..EngineConfig::default()
        });
        let s = e.run().expect("bounded by time, not events");
        assert_eq!(s.reason, StopReason::TimeLimit);
        // Hops landing at t = 1..=10 ran; t = 11 was beyond the limit.
        assert_eq!(s.events, 10);
        assert_eq!(s.end_time, SimTime::from_secs(10));
    }

    #[test]
    fn no_limit_means_event_budget_governs() {
        let mut e = ticker_pair(EngineConfig {
            max_events: 5,
            ..EngineConfig::default()
        });
        assert!(e.run().is_err(), "unbounded ticker must trip the budget");
    }
}
