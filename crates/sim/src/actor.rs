//! Actor and context abstractions.
//!
//! The EHJA system components (scheduler, data sources, join processes) are
//! written once as [`Actor`] implementations and can be driven by either
//! runtime backend:
//!
//! * the deterministic discrete-event engine ([`crate::engine::Engine`]),
//!   where [`Context::now`] is virtual time, `consume_cpu` advances the
//!   actor's virtual clock and `send` is routed through the network model;
//! * the threaded runtime ([`crate::executor::Executor`]), where a fixed
//!   pool of worker threads multiplexes the actors, `send` enqueues into
//!   the destination's bounded mailbox and `now` is wall-clock time since
//!   the actor's group was admitted.

use crate::time::SimTime;

/// Identifies an actor within one query: its engine, or its pool group.
/// Ids are assigned densely in registration order starting at 0.
pub type ActorId = u32;

/// Messages exchanged between actors.
///
/// `wire_bytes` is the size charged to the network model; data chunks report
/// their payload-inclusive size, control messages a small constant.
pub trait Message: Send + 'static {
    /// On-wire size of this message in bytes.
    fn wire_bytes(&self) -> u64;
}

/// Execution context handed to an actor while it processes a message.
///
/// All effects an actor can have on the world flow through this trait, which
/// is what lets one implementation of the join algorithms run on both the
/// simulated and the threaded backend.
pub trait Context<M: Message> {
    /// Current time: the actor's local virtual clock under simulation
    /// (message arrival time plus CPU consumed so far in this handler), or
    /// wall-clock time under the threaded runtime.
    fn now(&self) -> SimTime;

    /// This actor's id.
    fn me(&self) -> ActorId;

    /// Sends `msg` to `to`. Under simulation the message occupies the
    /// sender's egress NIC and the receiver's ingress NIC for
    /// `wire_bytes / bandwidth` and arrives after the configured latency;
    /// per-(sender, receiver) FIFO ordering is guaranteed by both backends.
    ///
    /// A send to [`Context::me`] is a local hand-off: under simulation it
    /// arrives at the sender's local clock (after any CPU it consumed so
    /// far) and charges no network bytes. It is how an actor drives a loop
    /// of its own, like a data source's generation steps. No method takes
    /// a delay, so an actor with nothing in flight stays quiet until
    /// another actor sends to it. A send to an id the query does not hold
    /// is a protocol bug: both backends count it as misrouted and drop it.
    fn send(&mut self, to: ActorId, msg: M);

    /// Charges `amount` of CPU time to this actor. Under simulation this
    /// advances the local clock (and thus delays subsequent sends and the
    /// actor's availability for the next message); under the threaded
    /// runtime real computation takes real time, so this only feeds the
    /// accounting counters.
    fn consume_cpu(&mut self, amount: SimTime);

    /// Performs a blocking sequential read of `bytes` from this actor's
    /// local disk (charges seek + transfer under simulation).
    fn disk_read(&mut self, bytes: u64);

    /// Performs a blocking sequential write of `bytes` to this actor's
    /// local disk (charges seek + transfer under simulation).
    fn disk_write(&mut self, bytes: u64);

    /// Appends `bytes` to an already-open spill file through a write
    /// buffer: charges transfer time only, no positioning delay (the
    /// common case for per-chunk spill appends).
    fn disk_append(&mut self, bytes: u64);

    /// Requests shutdown of this actor's *group*: the whole engine on the
    /// simulator, the set of actors it was admitted with (one query of a
    /// multi-tenant service) on the threaded backend. Event processing
    /// stops once the current handler returns (simulation) or all group
    /// members observe the stop signal (threaded); remaining queued events
    /// of the group are discarded. Other groups sharing the pool are
    /// unaffected.
    ///
    /// On the threaded backend the stop signal is a sentinel placed at the
    /// tail of every *group member's* mailbox: messages enqueued *before*
    /// the sentinel (including the stopper's own sends earlier in the same
    /// handler) are still delivered, messages enqueued *after* it are
    /// dropped. Sends are charged to the traffic totals either way — the
    /// drop happens at the receiver, past the wire.
    fn stop(&mut self);
}

/// A state machine driven by messages: it starts, then handles one message
/// at a time, and every handler runs to completion. All it does to the
/// world goes through the [`Context`]; there is no other entry point, so a
/// backend schedules an actor only by delivering it a message.
pub trait Actor<M: Message>: Send {
    /// Invoked once before any message is delivered, in actor-id order.
    fn on_start(&mut self, _ctx: &mut dyn Context<M>) {}

    /// Handles one message. `from` is the sending actor (`me()` for a
    /// self-send).
    fn on_message(&mut self, ctx: &mut dyn Context<M>, from: ActorId, msg: M);
}
