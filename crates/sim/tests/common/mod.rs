//! What the simulator's and the pool's property tests share: a seeded
//! generator, and an actor that checks per-channel order on either backend.
//!
//! `ehj-sim` sits below `ehj-data`, so a minimal SplitMix64 is inlined here
//! to drive the random cases deterministically (fixed seeds, no external
//! property-testing dependency).

use ehj_sim::{Actor, ActorId, Context, Message, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Minimal deterministic generator for test-case construction (SplitMix64).
pub struct TestRng(pub u64);

impl TestRng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A chatter's message: a tick driving its own send loop, or the next
/// number on a (sender, receiver) channel.
pub enum Chat {
    Tick,
    Numbered { n: u64, bytes: u64 },
}

impl Message for Chat {
    fn wire_bytes(&self) -> u64 {
        match self {
            Self::Tick => 8,
            Self::Numbered { bytes, .. } => *bytes,
        }
    }
}

/// What one group of chatters observed. A panic inside an actor would
/// wedge a pool group, so a violation is counted, not asserted.
#[derive(Default)]
pub struct Tally {
    pub received: AtomicU64,
    pub out_of_order: AtomicU64,
}

/// Sends its quota of numbered messages to random peers, itself included,
/// one to three per tick with a random CPU charge before each burst, and
/// checks that every sender's numbers reach it in order with none missing.
/// The receipt that completes the group's total stops the group.
pub struct Chatter {
    rng: TestRng,
    left: u64,
    total: u64,
    max_bytes: u64,
    max_cpu_ns: u64,
    next_to: Vec<u64>,
    next_from: Vec<u64>,
    tally: Arc<Tally>,
}

impl Chatter {
    /// `peers` chatters, each sending `sends` (at least one) messages of
    /// 1..=`max_bytes` wire bytes and charging 0..=`max_cpu_ns` a burst.
    pub fn group(
        seed: u64,
        peers: usize,
        sends: u64,
        max_bytes: u64,
        max_cpu_ns: u64,
        tally: &Arc<Tally>,
    ) -> Vec<Box<dyn Actor<Chat>>> {
        assert!(sends > 0, "a group that sends nothing never stops");
        (0..peers as u64)
            .map(|i| {
                Box::new(Self {
                    rng: TestRng(seed ^ (i << 32)),
                    left: sends,
                    total: sends * peers as u64,
                    max_bytes,
                    max_cpu_ns,
                    next_to: vec![0; peers],
                    next_from: vec![0; peers],
                    tally: Arc::clone(tally),
                }) as Box<dyn Actor<Chat>>
            })
            .collect()
    }
}

impl Actor<Chat> for Chatter {
    fn on_start(&mut self, ctx: &mut dyn Context<Chat>) {
        ctx.send(ctx.me(), Chat::Tick);
    }

    fn on_message(&mut self, ctx: &mut dyn Context<Chat>, from: ActorId, msg: Chat) {
        match msg {
            Chat::Tick => {
                ctx.consume_cpu(SimTime::from_nanos(self.rng.below(self.max_cpu_ns + 1)));
                let burst = (1 + self.rng.below(3)).min(self.left);
                for _ in 0..burst {
                    let to = self.rng.below(self.next_to.len() as u64) as usize;
                    let n = self.next_to[to];
                    self.next_to[to] += 1;
                    let bytes = 1 + self.rng.below(self.max_bytes);
                    ctx.send(to as ActorId, Chat::Numbered { n, bytes });
                }
                self.left -= burst;
                if self.left > 0 {
                    ctx.send(ctx.me(), Chat::Tick);
                }
            }
            Chat::Numbered { n, .. } => {
                let expected = &mut self.next_from[from as usize];
                if n != *expected {
                    self.tally.out_of_order.fetch_add(1, Ordering::Relaxed);
                }
                *expected = n + 1;
                if self.tally.received.fetch_add(1, Ordering::Relaxed) + 1 == self.total {
                    ctx.stop();
                }
            }
        }
    }
}
