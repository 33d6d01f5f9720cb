//! Replay: the workload's own tuples pushed single-threaded through each
//! layer's public functions, every call group inside a benchmark-owned
//! span under one `replay` root. The hash and storage layers see the share
//! of one final join node, so chain lengths and table size are those of the
//! real run.

use crate::record::{Fault, Recorder, SpanId};
use ehj_cluster::{NodeId, QuotaLedger};
use ehj_core::{Algorithm, JoinConfig};
use ehj_data::{JoinAttrSampler, Tuple};
use ehj_hash::{
    greedy_equal_partition, BatchProbeStats, HashRange, JoinHashTable, PositionSpace, ProbeScratch,
};
use ehj_metrics::MetricsRegistry;
use ehj_sim::{Actor, ActorId, Context, Executor, ExecutorConfig, Mailbox, Message};
use ehj_storage::{FileBackend, GraceJoin};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub type Metrics = BTreeMap<&'static str, f64>;

/// Final join nodes of the expanding algorithms on every workload here.
const FINAL_NODES: usize = 16;

/// Actors of one query group: scheduler, 8 sources, 24 join nodes.
const GROUP_ACTORS: usize = 33;

const PING_MESSAGES: u32 = 20_000;
const MAILBOX_ROUNDS: usize = 20_000;
const MAILBOX_BATCH: usize = 64;
const MAILBOX_CAPACITY: usize = 1024;
const RESERVES: u32 = 200_000;
const COUNTER_INCS: u32 = 5_000_000;

fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// One final join node's part of the workload: the tuples of both
/// relations whose position lies in the node's `range`.
struct Share {
    space: PositionSpace,
    range: HashRange,
    build: Vec<Tuple>,
    probe: Vec<Tuple>,
}

/// The replay in progress: where its spans hang and what it has measured.
struct Replay<'a> {
    rec: &'a Recorder,
    root: SpanId,
    cfg: &'a JoinConfig,
    m: Metrics,
}

/// Replays every layer with `cfg`'s data. `admits` is how many query
/// groups the admission replay starts on one executor. A disagreement
/// between the hash and the storage replay's match counts is recorded as a
/// failed query.
pub fn replay(rec: &Recorder, cfg: &JoinConfig, workers: usize, admits: usize) -> Metrics {
    rec.span("replay", SpanId::NONE, 0, |root| {
        let mut replay = Replay {
            rec,
            root,
            cfg,
            m: Metrics::new(),
        };
        let share = replay.data();
        let hash_matches = replay.hash(&share);
        let grace_matches = replay.storage(&share);
        let check = rec.begin_query("replay", crate::run::COLD_DEADLINE);
        let agree = if hash_matches == grace_matches {
            Ok(())
        } else {
            Err(Fault::Incorrect(format!(
                "hash replay found {hash_matches} matches, storage replay {grace_matches}"
            )))
        };
        rec.end_query(check, agree);
        replay.sim(workers, admits);
        replay.small_layers();
        replay.m
    })
}

impl Replay<'_> {
    /// Runs `f` in a span under the replay's root; returns its value and
    /// its nanoseconds.
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.rec.span(name, self.root, 0, |_| {
            let started = Instant::now();
            let out = f();
            (out, started.elapsed().as_nanos() as f64)
        })
    }

    /// `ehj-data`: the sampler's construction and one source's slice through
    /// `SourceGenerator::fill`; then both whole relations are generated and
    /// hashed (`ehj-hash`: `bulk_positions`) to cut out one node's share.
    fn data(&mut self) -> Share {
        let cfg = self.cfg;
        let spec = cfg.build_spec();
        let (_, ns) = self.timed("data.sampler", || {
            black_box(JoinAttrSampler::new(spec.dist, spec.domain, spec.seed))
        });
        self.m.insert("data.sampler_setup_ms", ns / 1e6);
        let mut source = spec.generator_for_source(0, cfg.sources);
        let n = source.remaining();
        let mut slice = Vec::with_capacity(n as usize);
        let (_, ns) = self.timed("data.fill", || source.fill(n, &mut slice));
        self.m.insert("data.gen_ns_per_tuple", per(ns, slice.len()));
        let (build, probe) = self.rec.span("data.relations", self.root, 0, |_| {
            (
                spec.generate_distributed(cfg.sources),
                cfg.probe_spec().generate_distributed(cfg.sources),
            )
        });

        let space = PositionSpace::new(cfg.positions, cfg.r.domain, cfg.hasher);
        let nodes = match cfg.algorithm {
            Algorithm::OutOfCore => cfg.initial_nodes,
            _ => FINAL_NODES.min(cfg.cluster.len()),
        };
        let range = HashRange::partition(cfg.positions, nodes)[0];
        let mut positions = Vec::new();
        let ((), ns) = self.timed("hash.positions", || {
            space.bulk_positions(&build, &mut positions);
        });
        self.m
            .insert("hash.position_ns_per_tuple", per(ns, build.len()));
        let in_range = |all: &[Tuple], positions: &[u32]| -> Vec<Tuple> {
            let owned = all.iter().zip(positions);
            owned
                .filter(|(_, pos)| range.contains(**pos))
                .map(|(t, _)| *t)
                .collect()
        };
        let build = in_range(&build, &positions);
        space.bulk_positions(&probe, &mut positions);
        let probe = in_range(&probe, &positions);
        Share {
            space,
            range,
            build,
            probe,
        }
    }

    /// `ehj-hash`: build, probe, plan a two-way reshuffle and carry it out.
    /// Returns the matches the probe found.
    fn hash(&mut self, share: &Share) -> u64 {
        let cfg = self.cfg;
        let Share {
            space,
            range,
            build,
            probe,
        } = share;
        let mut table = JoinHashTable::new(*space, cfg.schema(), u64::MAX);
        let mut positions = Vec::new();
        space.bulk_positions(build, &mut positions);
        let ((), ns) = self.timed("hash.insert", || {
            for (t, pos) in build.iter().zip(&positions) {
                table
                    .insert_pre_hashed(*t, *pos)
                    .expect("the replay table has no capacity limit");
            }
        });
        self.m
            .insert("hash.insert_ns_per_tuple", per(ns, build.len()));

        let mut scratch = ProbeScratch::new();
        let mut stats = BatchProbeStats::default();
        let ((), ns) = self.timed("hash.probe", || {
            for chunk in probe.chunks(cfg.chunk_tuples) {
                stats.absorb(table.probe_batch_with(chunk, &mut scratch, cfg.probe_kernel));
            }
        });
        let per_probe = |count: u64| per(count as f64, probe.len());
        self.m
            .insert("hash.probe_ns_per_tuple", per(ns, probe.len()));
        self.m
            .insert("hash.compares_per_probe", per_probe(stats.compared));
        self.m
            .insert("hash.reject_share", per_probe(stats.rejections));
        self.m
            .insert("hash.matches_per_probe", per_probe(stats.matches));

        let (parts, ns) = self.timed("hash.partition", || {
            let histogram = table.position_histogram(range.start, range.end);
            greedy_equal_partition(&histogram, 2)
        });
        self.m.insert("hash.partition_us", ns / 1e3);
        let cut = range.start + parts[0].1 as u32;
        let mut receiver = JoinHashTable::new(*space, cfg.schema(), u64::MAX);
        let (moved, ns) = self.timed("hash.extract", || {
            let moved = table.extract_range(cut, range.end);
            receiver.insert_batch_unchecked(&moved);
            moved.len()
        });
        self.m.insert("hash.extract_ns_per_tuple", per(ns, moved));
        stats.matches
    }

    /// `ehj-storage`: the same share through a Grace spill on real files.
    /// Returns the matches the out-of-core join found.
    fn storage(&mut self, share: &Share) -> u64 {
        let cfg = self.cfg;
        let capacity = cfg.cluster.spec(NodeId(0)).hash_memory_bytes;
        let mut fragments = 0;
        let mut written = 0;
        let (result, ns) = self.timed("storage.grace", || {
            let mut grace = GraceJoin::new(
                share.space,
                cfg.schema(),
                share.range,
                capacity,
                cfg.grace,
                FileBackend::new(),
            );
            for chunk in share.build.chunks(cfg.chunk_tuples) {
                grace.append_build(chunk);
            }
            for chunk in share.probe.chunks(cfg.chunk_tuples) {
                grace.append_probe(chunk);
            }
            fragments = grace.fragments();
            written = grace.bytes_written();
            grace.finalize()
        });
        let tuples = share.build.len() + share.probe.len();
        let moved = written + result.bytes_read + result.bytes_rewritten;
        self.m.insert("storage.spill_ns_per_tuple", per(ns, tuples));
        self.m
            .insert("storage.bytes_per_tuple", per(moved as f64, tuples));
        self.m.insert("storage.fragments", fragments as f64);
        result.matches
    }

    /// `ehj-cluster` and `ehj-metrics`: one uncontended call each, repeated.
    fn small_layers(&mut self) {
        let ledger = QuotaLedger::new(1 << 30);
        let ((), ns) = self.timed("cluster.reserve", || {
            for _ in 0..RESERVES {
                drop(black_box(ledger.reserve(1 << 20, Duration::from_secs(1))));
            }
        });
        self.m
            .insert("cluster.reserve_ns", ns / f64::from(RESERVES));
        let counter = MetricsRegistry::new().handle().counter("bench.replay");
        let ((), ns) = self.timed("metrics.counter", || {
            for _ in 0..COUNTER_INCS {
                black_box(&counter).add(1);
            }
        });
        black_box(counter.value());
        self.m
            .insert("metrics.counter_inc_ns", ns / f64::from(COUNTER_INCS));
    }
}

struct Ping(u32);

impl Message for Ping {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

/// Returns every ping to its sender with one fewer bounce left; the actor
/// built with `serve` sends the first.
struct Bouncer {
    peer: ActorId,
    serve: bool,
}

impl Actor<Ping> for Bouncer {
    fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
        if self.serve {
            ctx.send(self.peer, Ping(PING_MESSAGES));
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context<Ping>, from: ActorId, msg: Ping) {
        match msg.0 {
            0 => ctx.stop(),
            left => ctx.send(from, Ping(left - 1)),
        }
    }
}

/// An actor with nothing to do; the `stopper` ends its group at once.
struct Idle {
    stopper: bool,
}

impl Actor<Ping> for Idle {
    fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
        if self.stopper {
            ctx.stop();
        }
    }

    fn on_message(&mut self, _ctx: &mut dyn Context<Ping>, _from: ActorId, _msg: Ping) {}
}

impl Replay<'_> {
    /// `ehj-sim`: message hand-off between two actors, the mailbox alone, and
    /// the cost of admitting query-sized groups as one executor ages.
    fn sim(&mut self, workers: usize, admits: usize) {
        let executor: Executor<Ping> = Executor::start(
            &ExecutorConfig {
                workers,
                mailbox_capacity: MAILBOX_CAPACITY,
            },
            &MetricsRegistry::disabled(),
        );
        let ((), ns) = self.timed("sim.msgs", || {
            let pair = executor.admit_with(2, MAILBOX_CAPACITY, |base| {
                let bouncer =
                    |peer, serve| Box::new(Bouncer { peer, serve }) as Box<dyn Actor<Ping>>;
                vec![bouncer(base + 1, true), bouncer(base, false)]
            });
            executor.wait(&pair);
        });
        self.m.insert("sim.msg_ns", ns / f64::from(PING_MESSAGES));

        let mut admit_us = Vec::with_capacity(admits);
        self.rec.span("sim.admit", self.root, 0, |_| {
            for _ in 0..admits {
                let started = Instant::now();
                let group = executor.admit_with(GROUP_ACTORS, MAILBOX_CAPACITY, |_| {
                    (0..GROUP_ACTORS)
                        .map(|i| Box::new(Idle { stopper: i == 0 }) as Box<dyn Actor<Ping>>)
                        .collect()
                });
                executor.wait(&group);
                admit_us.push(started.elapsed().as_nanos() as f64 / 1e3);
            }
        });
        executor.shutdown();
        let edge = admit_us.len().min(100);
        self.m.insert(
            "sim.admit_us_first100",
            crate::stats::mean(&admit_us[..edge]),
        );
        self.m.insert(
            "sim.admit_us_last100",
            crate::stats::mean(&admit_us[admit_us.len() - edge..]),
        );

        let mailbox: Mailbox<u64> = Mailbox::new(MAILBOX_CAPACITY);
        let mut batch = Vec::with_capacity(MAILBOX_BATCH);
        let mut out = Vec::with_capacity(MAILBOX_BATCH);
        let ((), ns) = self.timed("sim.mailbox", || {
            for _ in 0..MAILBOX_ROUNDS {
                batch.extend(0..MAILBOX_BATCH as u64);
                mailbox.push_batch(&mut batch, false);
                out.clear();
                mailbox.pop_batch(&mut out, MAILBOX_BATCH);
                black_box(&out);
            }
        });
        self.m.insert(
            "sim.mailbox_ns_per_item",
            ns / (MAILBOX_ROUNDS * MAILBOX_BATCH) as f64,
        );
    }
}
