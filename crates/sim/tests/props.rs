//! Randomized-property tests for the simulation substrate: causality, FIFO
//! ordering and determinism of the engine and its models.
//!
//! `ehj-sim` sits below `ehj-data`, so a minimal SplitMix64 is inlined here
//! to drive the random cases deterministically (fixed seeds, no external
//! property-testing dependency).

use ehj_sim::{
    Actor, ActorId, Context, DiskConfig, DiskState, Engine, EngineConfig, Message, NetConfig,
    Network, SimTime,
};

/// Minimal deterministic generator for test-case construction (SplitMix64).
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

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

/// Relays a token along a scripted path, recording what it saw.
struct Relay {
    script: Vec<ActorId>,
    hops_seen: u64,
    cpu: SimTime,
}

impl Actor<Hop> for Relay {
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
            let mut engine: Engine<Hop> = Engine::new(EngineConfig::default());
            let ids: Vec<ActorId> = (0..actors as ActorId).collect();
            for _ in 0..actors {
                let _ = engine.add_actor(Box::new(Relay {
                    script: ids.clone(),
                    hops_seen: 0,
                    cpu: SimTime::from_nanos(cpu_ns),
                }));
            }
            engine.inject(SimTime::ZERO, 0, 0, Hop(path.clone()));
            let summary = engine.run().expect("no livelock");
            (engine.end_time(), summary.events, summary.net_bytes)
        };
        assert_eq!(run(), run());
    }
}
