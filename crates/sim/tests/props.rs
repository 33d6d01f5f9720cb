//! Randomized-property tests for the simulation substrate: causality, FIFO
//! ordering and determinism of the engine and its models.

mod common;

use common::{Chatter, Tally, TestRng};
use ehj_metrics::StopCause;
use ehj_sim::{
    Actor, ActorId, Context, DiskConfig, DiskState, Engine, EngineConfig, Message, NetConfig,
    Network, SimTime,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Network deliveries never precede send + latency, and repeated sends
/// between one pair arrive in order (per-sender FIFO).
#[test]
fn network_is_causal_and_fifo() {
    let mut g = TestRng(0x11AA);
    for _ in 0..64 {
        let n_sends = 1 + g.below(199) as usize;
        let cfg = NetConfig::fast_ethernet_100mbps();
        let mut net = Network::new(cfg, 8);
        let mut now = SimTime::ZERO;
        let mut last_arrival = std::collections::HashMap::new();
        for _ in 0..n_sends {
            let from = g.below(8) as u32;
            let to = g.below(8) as u32;
            let bytes = 1 + g.below(200_000 - 1);
            let done = net.transfer(from, to, bytes, now);
            if from != to {
                assert!(done >= now + cfg.latency, "latency must apply");
                // Ingress serializes: arrivals at one receiver are ordered.
                if let Some(&prev) = last_arrival.get(&to) {
                    assert!(done >= prev);
                }
                last_arrival.insert(to, done);
            } else {
                assert_eq!(done, now);
            }
            // Submissions happen at non-decreasing times in this model.
            now += SimTime::from_micros(10);
        }
    }
}

/// One disk serializes its operations; byte accounting is exact.
#[test]
fn disk_serializes_and_accounts() {
    let mut g = TestRng(0x22BB);
    for _ in 0..64 {
        let n_ops = 1 + g.below(99) as usize;
        let mut disk = DiskState::new(DiskConfig::ide_2004(), 4);
        let mut expect_read = [0u64; 4];
        let mut expect_write = [0u64; 4];
        let mut last_done = [SimTime::ZERO; 4];
        for _ in 0..n_ops {
            let node = g.below(4) as u32;
            let bytes = 1 + g.below(10_000_000 - 1);
            let is_read = g.next_u64() & 1 == 0;
            let done = if is_read {
                expect_read[node as usize] += bytes;
                disk.read(node, bytes, SimTime::ZERO)
            } else {
                expect_write[node as usize] += bytes;
                disk.write(node, bytes, SimTime::ZERO)
            };
            assert!(done >= last_done[node as usize]);
            last_done[node as usize] = done;
        }
        for n in 0..4u32 {
            assert_eq!(disk.bytes_read(n), expect_read[n as usize]);
            assert_eq!(disk.bytes_written(n), expect_write[n as usize]);
        }
    }
}

/// Message for the random-relay engine property below.
struct Hop(Vec<u8>);
impl Message for Hop {
    fn wire_bytes(&self) -> u64 {
        64 + self.0.len() as u64
    }
}

/// Relays a token along a scripted path, recording what it saw. The relay
/// holding the token at the start sends it to itself.
struct Relay {
    script: Vec<ActorId>,
    hops_seen: u64,
    cpu: SimTime,
    token: Option<Hop>,
}

impl Actor<Hop> for Relay {
    fn on_start(&mut self, ctx: &mut dyn Context<Hop>) {
        if let Some(token) = self.token.take() {
            ctx.send(ctx.me(), token);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context<Hop>, _from: ActorId, msg: Hop) {
        self.hops_seen += 1;
        ctx.consume_cpu(self.cpu);
        let mut path = msg.0;
        if let Some(next) = path.pop() {
            let target = self.script[next as usize % self.script.len()];
            ctx.send(target, Hop(path));
        } else {
            ctx.stop();
        }
    }
}

/// The engine is deterministic for arbitrary relay topologies: same
/// script, same end time and event count, twice.
#[test]
fn engine_runs_deterministically() {
    let mut g = TestRng(0x33CC);
    for _ in 0..32 {
        let actors = 2 + g.below(4) as usize;
        let path_len = 1 + g.below(59) as usize;
        let path: Vec<u8> = (0..path_len).map(|_| g.next_u64() as u8).collect();
        let cpu_ns = g.below(10_000);

        let run = || {
            let ids: Vec<ActorId> = (0..actors as ActorId).collect();
            let relays = (0..actors)
                .map(|i| {
                    Box::new(Relay {
                        script: ids.clone(),
                        hops_seen: 0,
                        cpu: SimTime::from_nanos(cpu_ns),
                        token: (i == 0).then(|| Hop(path.clone())),
                    }) as Box<dyn Actor<Hop>>
                })
                .collect();
            let mut engine = Engine::new(EngineConfig::default(), relays);
            let summary = engine.run();
            assert_eq!(summary.cause, StopCause::Completed);
            (engine.end_time(), summary)
        };
        assert_eq!(run(), run());
    }
}

/// Every (sender, receiver) channel delivers in send order, whatever the
/// actor count, message sizes and CPU charges: the property a delivery
/// policy choosing among channel heads relies on.
#[test]
fn every_channel_delivers_in_send_order() {
    let mut g = TestRng(0x44DD);
    for case in 0..32 {
        let peers = 1 + g.below(8) as usize;
        let sends = 1 + g.below(200);
        let max_bytes = 1 + g.below(200_000);
        let max_cpu_ns = g.below(50_000);
        let tally = Arc::new(Tally::default());
        let actors = Chatter::group(g.next_u64(), peers, sends, max_bytes, max_cpu_ns, &tally);
        let summary = Engine::new(EngineConfig::default(), actors).run();
        let total = sends * peers as u64;
        assert_eq!(summary.cause, StopCause::Completed, "case {case}");
        assert_eq!(summary.misrouted, 0, "case {case}");
        assert_eq!(tally.received.load(Ordering::Relaxed), total, "case {case}");
        assert_eq!(tally.out_of_order.load(Ordering::Relaxed), 0, "case {case}");
    }
}
