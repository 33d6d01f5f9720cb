//! Deterministic discrete-event engine.
//!
//! An engine is built from one query's actor list — actor `i` is id `i`,
//! as in a pool group — and takes its input only from them: every event is
//! a send made by an actor's `on_start` or message handler, pushed into
//! the queue the moment it is made. Events are processed in `(time,
//! sequence)` order; the sequence number is assigned at the send, so runs
//! are bit-for-bit reproducible, and each (sender, receiver) channel's
//! delivery times never decrease (a self-send arrives at the sender's
//! monotone local clock, any other send departs no earlier than the
//! sender's egress frees and lands no earlier than the receiver's ingress
//! frees). Each actor has a CPU that processes one message at a time: a
//! message arriving while the actor is busy waits until the CPU frees up,
//! and CPU consumed inside a handler delays everything the handler does
//! afterwards (sends depart at the actor's *local* clock). A send to an id
//! past the actor list is counted in [`RunSummary::misrouted`] and dropped,
//! as the pool counts it in `ExecutorStats::misrouted`.

use crate::actor::{Actor, ActorId, Context, Message};
use crate::disk::{DiskConfig, DiskState};
use crate::net::{NetConfig, Network};
use crate::time::SimTime;
use ehj_metrics::StopCause;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Engine-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Network model parameters.
    pub net: NetConfig,
    /// Disk model parameters.
    pub disk: DiskConfig,
    /// Safety valve: the run ends as [`StopCause::EventLimit`] once this
    /// many events have been processed and another is due.
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

/// Summary statistics of one simulation run. Its makespan is
/// [`Engine::end_time`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of events processed.
    pub events: u64,
    /// Bytes pushed through the network (incl. per-message overhead).
    pub net_bytes: u64,
    /// Bytes moved through all simulated disks.
    pub disk_bytes: u64,
    /// Sends to an id past the engine's actors: dropped, and charged no
    /// NIC time and no bytes.
    pub misrouted: u64,
    /// Why the run ended: [`StopCause::Completed`] when an actor called
    /// [`Context::stop`], [`StopCause::Quiescent`] when the queue drained,
    /// [`StopCause::TimeLimit`] at [`EngineConfig::max_time`] and
    /// [`StopCause::EventLimit`] at [`EngineConfig::max_events`].
    pub cause: StopCause,
}

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
    actors: Vec<Box<dyn Actor<M>>>,
    queue: BinaryHeap<Event<M>>,
    net: Network,
    disk: DiskState,
    cpu_free: Vec<SimTime>,
    /// Virtual time at which the last handler so far finished.
    end_time: SimTime,
    seq: u64,
    misrouted: u64,
    max_events: u64,
    max_time: Option<SimTime>,
}

impl<M: Message> Engine<M> {
    /// Creates an engine running `actors`: actor `i` is id `i`, and its
    /// CPU, NICs and disk are sized here, once.
    #[must_use]
    pub fn new(config: EngineConfig, actors: Vec<Box<dyn Actor<M>>>) -> Self {
        let count = actors.len();
        Self {
            actors,
            queue: BinaryHeap::new(),
            net: Network::new(config.net, count),
            disk: DiskState::new(config.disk, count),
            cpu_free: vec![SimTime::ZERO; count],
            end_time: SimTime::ZERO,
            seq: 0,
            misrouted: 0,
            max_events: config.max_events,
            max_time: config.max_time,
        }
    }

    /// Virtual time at which the last handler so far finished: a finished
    /// run's makespan, and how far a run got before a limit stopped it.
    #[must_use]
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// Runs `on_start` for every actor (in id order), then processes events
    /// until an actor stops the run, the queue drains or a limit is hit.
    pub fn run(&mut self) -> RunSummary {
        // An actor that stops during its start hook ends the run before the
        // later actors start.
        for id in 0..self.actors.len() as ActorId {
            if self.dispatch(id, SimTime::ZERO, None) {
                return self.end(0, StopCause::Completed);
            }
        }

        let mut events: u64 = 0;
        while let Some(ev) = self.queue.pop() {
            if self.max_time.is_some_and(|limit| ev.time > limit) {
                return self.end(events, StopCause::TimeLimit);
            }
            if events == self.max_events {
                return self.end(events, StopCause::EventLimit);
            }
            events += 1;
            let start = ev.time.max(self.cpu_free[ev.target as usize]);
            if self.dispatch(ev.target, start, Some((ev.from, ev.msg))) {
                return self.end(events, StopCause::Completed);
            }
        }
        self.end(events, StopCause::Quiescent)
    }

    /// Runs one handler of actor `id` on its CPU from `start` — its start
    /// hook, or `on_message` for a `(from, msg)` delivery — and returns
    /// whether it stopped the engine. Its sends go into the queue as it
    /// makes them.
    fn dispatch(&mut self, id: ActorId, start: SimTime, delivery: Option<(ActorId, M)>) -> bool {
        let idx = id as usize;
        let mut ctx = EngineCtx {
            me: id,
            local: start,
            actors: self.actors.len(),
            net: &mut self.net,
            disk: &mut self.disk,
            queue: &mut self.queue,
            seq: &mut self.seq,
            misrouted: &mut self.misrouted,
            stopped: false,
        };
        let actor = &mut self.actors[idx];
        match delivery {
            None => actor.on_start(&mut ctx),
            Some((from, msg)) => actor.on_message(&mut ctx, from, msg),
        }
        let EngineCtx { local, stopped, .. } = ctx;
        self.cpu_free[idx] = local;
        self.end_time = self.end_time.max(local);
        stopped
    }

    /// Discards what is still queued and summarises the run.
    fn end(&mut self, events: u64, cause: StopCause) -> RunSummary {
        self.queue.clear();
        RunSummary {
            events,
            net_bytes: self.net.bytes_sent(),
            disk_bytes: self.disk.total_bytes(),
            misrouted: self.misrouted,
            cause,
        }
    }
}

/// [`Context`] implementation backed by the engine.
struct EngineCtx<'a, M: Message> {
    me: ActorId,
    local: SimTime,
    /// How many actors the engine holds: a send to an id at or past it is
    /// misrouted.
    actors: usize,
    net: &'a mut Network,
    disk: &'a mut DiskState,
    queue: &'a mut BinaryHeap<Event<M>>,
    seq: &'a mut u64,
    misrouted: &'a mut u64,
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
        if to as usize >= self.actors {
            *self.misrouted += 1;
            return;
        }
        let time = self.net.transfer(self.me, to, msg.wire_bytes(), self.local);
        let seq = *self.seq;
        *self.seq += 1;
        self.queue.push(Event {
            time,
            seq,
            target: to,
            from: self.me,
            msg,
        });
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
        let bouncer = |peer, initiator| -> Box<dyn Actor<Ping>> {
            Box::new(Bouncer {
                peer,
                limit,
                seen: vec![],
                initiator,
                cpu_per_msg: cpu,
            })
        };
        Engine::new(
            EngineConfig::default(),
            vec![bouncer(1, true), bouncer(0, false)],
        )
    }

    /// An engine of one actor.
    fn solo(actor: impl Actor<Ping> + 'static) -> Engine<Ping> {
        Engine::new(EngineConfig::default(), vec![Box::new(actor)])
    }

    #[test]
    fn ping_pong_terminates_by_stop() {
        let mut e = bouncer_engine(10, SimTime::ZERO);
        let s = e.run();
        assert_eq!(s.cause, StopCause::Completed);
        assert_eq!(s.events, 11); // messages 0..=10
    }

    #[test]
    fn time_advances_with_network_and_cpu() {
        let cpu = SimTime::from_micros(10);
        let mut e = bouncer_engine(3, cpu);
        e.run();
        let net = NetConfig::fast_ethernet_100mbps();
        let hop = net.transfer_time(100) + net.latency;
        // 4 hops (msgs 0,1,2,3) + 4 handler CPU charges.
        assert_eq!(e.end_time(), (hop + cpu) * 4);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut e = bouncer_engine(50, SimTime::from_nanos(123));
            let s = e.run();
            (e.end_time(), s)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quiescent_when_no_initiator() {
        let mut e = solo(Bouncer {
            peer: 0,
            limit: 5,
            seen: vec![],
            initiator: false,
            cpu_per_msg: SimTime::ZERO,
        });
        let s = e.run();
        assert_eq!(s.cause, StopCause::Quiescent);
        assert_eq!(s.events, 0);
        assert_eq!(e.end_time(), SimTime::ZERO);
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
        let config = EngineConfig {
            max_events: 1000,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(config, vec![Box::new(Loopy)]);
        let s = e.run();
        assert_eq!(s.cause, StopCause::EventLimit);
        // The run stops before the event past the budget.
        assert_eq!(s.events, 1000);
        // How far the stopped run got: its 1000 handlers, 1 µs each.
        assert_eq!(e.end_time(), SimTime::from_micros(1000));
    }

    #[test]
    fn a_send_beyond_the_engine_is_counted_and_dropped() {
        struct Stray;
        impl Actor<Ping> for Stray {
            fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
                if ctx.me() == 0 {
                    ctx.send(2, Ping(0));
                    ctx.send(1, Ping(1));
                }
            }
            fn on_message(&mut self, _c: &mut dyn Context<Ping>, _f: ActorId, m: Ping) {
                assert_eq!(m.0, 1, "only the send to a held id arrives");
            }
        }
        let mut e = Engine::new(
            EngineConfig::default(),
            vec![Box::new(Stray), Box::new(Stray)],
        );
        let s = e.run();
        assert_eq!(s.cause, StopCause::Quiescent);
        assert_eq!(s.events, 1);
        assert_eq!(s.misrouted, 1);
        // Only the second send crossed the network.
        let net = NetConfig::fast_ethernet_100mbps();
        assert_eq!(s.net_bytes, 100 + net.per_message_overhead_bytes);
        assert_eq!(e.end_time(), net.transfer_time(100) + net.latency);
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
        let mut e = solo(Stepper);
        let s = e.run();
        assert_eq!(s.cause, StopCause::Quiescent);
        assert_eq!(s.events, 4);
        assert_eq!(e.end_time(), SimTime::from_millis(5));
        assert_eq!(s.net_bytes, 0);
    }

    #[test]
    fn busy_cpu_delays_next_message() {
        // Two self-sends both arrive at t = 0; the handler burns 1 s of
        // CPU, so the second handler starts at 1 s, not at 0.
        struct Burner;
        impl Actor<Ping> for Burner {
            fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
                ctx.send(ctx.me(), Ping(0));
                ctx.send(ctx.me(), Ping(1));
            }
            fn on_message(&mut self, ctx: &mut dyn Context<Ping>, _f: ActorId, m: Ping) {
                assert_eq!(ctx.now(), SimTime::from_secs(m.0), "message {}", m.0);
                ctx.consume_cpu(SimTime::from_secs(1));
            }
        }
        let mut e = solo(Burner);
        assert_eq!(e.run().events, 2);
        assert_eq!(e.end_time(), SimTime::from_secs(2));
    }

    #[test]
    fn disk_io_blocks_the_actor() {
        struct Spiller;
        impl Actor<Ping> for Spiller {
            fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
                ctx.send(ctx.me(), Ping(0));
            }
            fn on_message(&mut self, ctx: &mut dyn Context<Ping>, _f: ActorId, _m: Ping) {
                ctx.disk_write(35_000_000); // 1s at 35 MB/s + 9ms seek
                ctx.disk_read(40_000_000); // 1s at 40 MB/s + 9ms seek
            }
        }
        let mut e = solo(Spiller);
        let s = e.run();
        assert_eq!(
            e.end_time(),
            SimTime::from_secs(2) + SimTime::from_millis(18)
        );
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
            fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
                ctx.send(ctx.me(), Ping(0));
            }
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
        let actors: Vec<Box<dyn Actor<Ping>>> = vec![
            Box::new(SendAfterBurn { to: 1 }),
            Box::new(ArrivalProbe { arrived: None }),
        ];
        let mut e = Engine::new(EngineConfig::default(), actors);
        assert_eq!(e.run().cause, StopCause::Completed);
        let net = NetConfig::fast_ethernet_100mbps();
        assert_eq!(
            e.end_time(),
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
        let config = EngineConfig {
            net: NetConfig {
                latency: SimTime::from_secs(1),
                ..NetConfig::infinite()
            },
            ..config
        };
        let tickers = [(1, true), (0, false)]
            .map(|(peer, initiator)| Box::new(Ticker { peer, initiator }) as Box<dyn Actor<Tick>>);
        Engine::new(config, tickers.into())
    }

    #[test]
    fn time_limit_stops_an_unbounded_system() {
        let mut e = ticker_pair(EngineConfig {
            max_time: Some(SimTime::from_secs(10)),
            ..EngineConfig::default()
        });
        let s = e.run();
        assert_eq!(s.cause, StopCause::TimeLimit);
        // Hops landing at t = 1..=10 ran; t = 11 was beyond the limit.
        assert_eq!(s.events, 10);
        assert_eq!(e.end_time(), SimTime::from_secs(10));
    }

    #[test]
    fn no_limit_means_event_budget_governs() {
        let mut e = ticker_pair(EngineConfig {
            max_events: 5,
            ..EngineConfig::default()
        });
        let s = e.run();
        assert_eq!(
            s.cause,
            StopCause::EventLimit,
            "unbounded ticker trips the budget"
        );
        assert_eq!(s.events, 5);
    }
}
