//! Shared scripted [`Context`] for actor unit tests: records every effect
//! so tests can drive one actor through a protocol exchange by hand.

use crate::msg::Msg;
use ehj_sim::{ActorId, Context, SimTime};

/// A recording context: sends are captured, CPU advances a virtual clock,
/// disk traffic is tallied.
pub(crate) struct ScriptCtx {
    pub me: ActorId,
    pub now: SimTime,
    /// Every `send` in order, self-sends included.
    pub sent: Vec<(ActorId, Msg)>,
    pub disk_written: u64,
    pub disk_read: u64,
    pub stopped: bool,
}

impl ScriptCtx {
    pub fn new(me: ActorId) -> Self {
        Self {
            me,
            now: SimTime::ZERO,
            sent: Vec::new(),
            disk_written: 0,
            disk_read: 0,
            stopped: false,
        }
    }

    /// Drains the captured messages.
    #[allow(dead_code)]
    pub fn take_sent(&mut self) -> Vec<(ActorId, Msg)> {
        std::mem::take(&mut self.sent)
    }

    /// Messages captured for one recipient.
    pub fn sent_to(&self, to: ActorId) -> Vec<&Msg> {
        self.sent
            .iter()
            .filter(|(t, _)| *t == to)
            .map(|(_, m)| m)
            .collect()
    }

    /// Count of captured messages matching a predicate.
    pub fn count(&self, pred: impl Fn(&Msg) -> bool) -> usize {
        self.sent.iter().filter(|(_, m)| pred(m)).count()
    }
}

impl Context<Msg> for ScriptCtx {
    fn now(&self) -> SimTime {
        self.now
    }
    fn me(&self) -> ActorId {
        self.me
    }
    fn send(&mut self, to: ActorId, msg: Msg) {
        self.sent.push((to, msg));
    }
    fn consume_cpu(&mut self, amount: SimTime) {
        self.now += amount;
    }
    fn disk_read(&mut self, bytes: u64) {
        self.disk_read += bytes;
    }
    fn disk_write(&mut self, bytes: u64) {
        self.disk_written += bytes;
    }
    fn disk_append(&mut self, bytes: u64) {
        self.disk_written += bytes;
    }
    fn stop(&mut self) {
        self.stopped = true;
    }
}
