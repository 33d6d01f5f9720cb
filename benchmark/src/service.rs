//! The service workloads: many queries on one long-lived `JoinService`.
//!
//! `service-closed` is a closed loop of [`CLOSED_CLIENTS`] clients, each
//! sending its next query when the previous one has reported.
//! `service-noisy` is an open loop: a normal query falls due every
//! [`NORMAL_PERIOD`] whatever happened to the earlier ones and is timed
//! from its due time, while one closed-loop client resubmits the big
//! tenant's query for the whole window. Its window is cut into segments of
//! at most [`NOISY_SEGMENT_S`] seconds, each on a service of its own.

use crate::record::{Fault, Recorder, SpanId};
use crate::run::{deadline_after, trace_level, Args, Expect, Outcome, COLD_DEADLINE};
use crate::spec::{big_cfg, normal_cfgs, Workload};
use crate::stats::median;
use ehj_core::{JoinConfig, JoinService, ServiceConfig};
use ehj_sim::ExecutorStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

pub const CLOSED_CLIENTS: usize = 4;

/// `service-closed` admits this many queries per requested second, not
/// whatever fits in the time: 1500 at the benchmark's 10 seconds. A finished
/// query's actor slots stay allocated and every admission copies the slot
/// table, so latency and memory both depend on how many queries the
/// service has seen; a fixed count keeps that growth in the measurement and
/// comparable across commits. 1500 take about 5 s at the recorded commit.
/// The next 500 take as long again in some runs and 2 s in others (a second
/// regime with latencies to 100 ms), which no bound can gate.
const CLOSED_QUERIES_PER_SECOND: f64 = 150.0;

/// One normal query falls due every 25 ms: 40 per second.
pub const NORMAL_PERIOD: Duration = Duration::from_millis(25);

/// Threads that send the due normal queries. Each blocks for the whole of
/// its query, so there are enough of them that a due query finds one free
/// unless queries run late by more than the limit below anyway.
const NORMAL_SENDERS: usize = 16;

/// A normal query slower than this, from its due time, counts as failed.
const NORMAL_LIMIT: Duration = Duration::from_millis(250);

/// Longest life of one `service-noisy` service. Admission cost on one
/// executor steps up about fivefold near its 500th query group (an open
/// loop at 40/s plus the big tenant gets there in 7 s) and late queries
/// then pile up on the quota ledger. That ageing is `service-closed`'s
/// subject; here the executor stays young, so what is measured is how the
/// scheduler and the ledger arbitrate between unequal tenants.
const NOISY_SEGMENT_S: f64 = 2.5;

/// Warm-up queries of a fresh service (untimed, unsampled).
const WARMUP_CLOSED: u64 = 100;
const WARMUP_NOISY: u64 = 24;
const WARMUP_SMOKE: u64 = 12;

/// The queries of a service workload and what each must report.
pub struct Plan {
    pub normals: Vec<(JoinConfig, Expect)>,
    /// The big tenant (`service-noisy` only).
    pub big: Option<(JoinConfig, Expect)>,
    pub deadline: Duration,
    workers: usize,
    traced: bool,
    warmup: u64,
}

/// What a window measured: its verified queries in admission order.
#[derive(Default)]
pub struct Window {
    pub wall_s: f64,
    pub tuples: u64,
    pub normals: Vec<Outcome>,
    pub bigs: Vec<Outcome>,
    /// How late each open-loop query was sent, in ms.
    pub late_ms: Vec<f64>,
}

impl Window {
    /// Adds `part`'s tuples and queries (not its wall time).
    fn absorb(&mut self, part: Window) {
        self.tuples += part.tuples;
        self.normals.extend(part.normals);
        self.bigs.extend(part.bigs);
        self.late_ms.extend(part.late_ms);
    }
}

/// Starts the workload's service. `service-noisy` arbitrates memory: the
/// budget holds the big tenant and four normal ones.
fn start(plan: &Plan) -> JoinService {
    let demand = |cfg: &JoinConfig| cfg.cluster.total_hash_memory_bytes();
    let budget = plan
        .big
        .as_ref()
        .map(|(big, _)| demand(big) + 4 * demand(&plan.normals[0].0));
    JoinService::start(ServiceConfig {
        workers: plan.workers,
        memory_budget_bytes: budget,
        // The service's own limits stay loose; the recorder's deadline
        // (5 s or ten warm medians) is the one that ends a stalled run.
        admission_patience: COLD_DEADLINE,
        query_deadline: COLD_DEADLINE,
        trace_level: trace_level(plan.traced),
        metrics: plan.traced,
        ..ServiceConfig::default()
    })
}

/// Set-up: configurations, reference match counts, service start, warm-up.
pub fn prepare(rec: &Recorder, args: &Args, workers: usize, traced: bool) -> (Plan, JoinService) {
    let with_expect = |cfg: JoinConfig| {
        let expect = Expect::of(&cfg);
        (cfg, expect)
    };
    let noisy = args.workload == Workload::ServiceNoisy;
    let mut plan = Plan {
        normals: normal_cfgs(args.seed, args.smoke)
            .into_iter()
            .map(with_expect)
            .collect(),
        big: noisy.then(|| with_expect(big_cfg(args.seed, args.smoke))),
        deadline: COLD_DEADLINE,
        workers,
        traced,
        warmup: match (args.smoke, noisy) {
            (true, _) => WARMUP_SMOKE,
            (false, true) => WARMUP_NOISY,
            (false, false) => WARMUP_CLOSED,
        },
    };
    let service = start(&plan);
    let warm_median_s = warm_up(rec, &service, &plan);
    plan.deadline = deadline_after(warm_median_s);
    (plan, service)
}

/// Runs the big tenant's query once and the warm-up's normal queries on a
/// fresh service; returns the normal queries' median latency in seconds.
fn warm_up(rec: &Recorder, service: &JoinService, plan: &Plan) -> f64 {
    if let Some((cfg, expect)) = &plan.big {
        query(rec, service, 0, cfg, expect, None, plan.deadline);
    }
    let warm = closed_window(rec, service, plan, plan.warmup);
    median(&warm.normals.iter().map(|o| o.wall_s).collect::<Vec<_>>())
}

/// One query through `submit` and `wait`, as a `rep` span with
/// `core.submit`, `core.wait` and `verify` beneath it. `due` is the time an
/// open-loop query was due: its latency counts from then, and exceeding
/// [`NORMAL_LIMIT`] fails it.
fn query(
    rec: &Recorder,
    service: &JoinService,
    seq: u64,
    cfg: &JoinConfig,
    expect: &Expect,
    due: Option<Instant>,
    deadline: Duration,
) -> Option<Outcome> {
    let id = rec.begin_query(cfg.algorithm.label(), deadline);
    let rep = rec.open("rep", SpanId::NONE, id);
    let started = Instant::now();
    let handle = rec.span("core.submit", rep, id, |_| service.submit(cfg));
    let submit_s = started.elapsed().as_secs_f64();
    let result = handle.and_then(|h| rec.span("core.wait", rep, id, |_| service.wait(h)));
    let wait_s = started.elapsed().as_secs_f64() - submit_s;
    let wall = due.unwrap_or(started).elapsed();
    let verdict = rec.span("verify", rep, id, |_| {
        expect.check(&result)?;
        if due.is_some() && wall > NORMAL_LIMIT {
            return Err(Fault::Late(format!("{wall:?} from its due time")));
        }
        Ok(())
    });
    rec.close(rep);
    let verified = verdict.is_ok();
    rec.end_query(id, verdict);
    verified.then(|| Outcome {
        seq,
        wall_s: wall.as_secs_f64(),
        submit_s,
        wait_s,
        report: result.expect("verified queries returned a report"),
    })
}

/// Closed loop of `queries` normal queries, rotating the algorithms.
fn closed_window(rec: &Recorder, service: &JoinService, plan: &Plan, queries: u64) -> Window {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let client = || {
        let mut mine = Window::default();
        loop {
            let seq = next.fetch_add(1, Ordering::Relaxed);
            if seq >= queries {
                return mine;
            }
            let (cfg, expect) = &plan.normals[seq as usize % plan.normals.len()];
            if let Some(o) = query(rec, service, seq, cfg, expect, None, plan.deadline) {
                mine.tuples += expect.tuples();
                mine.normals.push(o);
            }
        }
    };
    let parts: Vec<Window> = thread::scope(|s| {
        let clients: Vec<_> = (0..CLOSED_CLIENTS).map(|_| s.spawn(client)).collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect()
    });
    merge(parts, started)
}

/// Open loop of normal queries against the closed-loop big tenant.
fn noisy_window(rec: &Recorder, service: &JoinService, plan: &Plan, seconds: f64) -> Window {
    let (big, big_expect) = plan.big.as_ref().expect("service-noisy has a big tenant");
    let started = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let stop = AtomicBool::new(false);
    let big_client = || {
        let mut mine = Window::default();
        let mut seq = 0;
        while !stop.load(Ordering::Relaxed) {
            if let Some(o) = query(rec, service, seq, big, big_expect, None, plan.deadline) {
                mine.tuples += big_expect.tuples();
                mine.bigs.push(o);
            }
            seq += 1;
        }
        mine
    };
    let sender = |first: usize| {
        let mut mine = Window::default();
        for seq in (first..).step_by(NORMAL_SENDERS) {
            let offset = NORMAL_PERIOD * seq as u32;
            if offset >= window {
                break;
            }
            let due = started + offset;
            thread::sleep(due.saturating_duration_since(Instant::now()));
            mine.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let (cfg, expect) = &plan.normals[seq % plan.normals.len()];
            let due = Some(due);
            if let Some(o) = query(rec, service, seq as u64, cfg, expect, due, plan.deadline) {
                mine.tuples += expect.tuples();
                mine.normals.push(o);
            }
        }
        mine
    };
    let parts: Vec<Window> = thread::scope(|s| {
        let big = s.spawn(big_client);
        let senders: Vec<_> = (0..NORMAL_SENDERS)
            .map(|first| s.spawn(move || sender(first)))
            .collect();
        let mut parts: Vec<Window> = senders
            .into_iter()
            .map(|c| c.join().expect("a sender thread panicked"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        parts.push(big.join().expect("the big tenant's thread panicked"));
        parts
    });
    merge(parts, started)
}

fn merge(parts: Vec<Window>, started: Instant) -> Window {
    let mut all = Window {
        wall_s: started.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for part in parts {
        all.absorb(part);
    }
    all.normals.sort_by_key(|o| o.seq);
    all.bigs.sort_by_key(|o| o.seq);
    all
}

/// The workload's window of `seconds` on a prepared service, which it shuts
/// down. Samples `query_ms`, `submit_ms`, `wait_ms`, `big_ms` and `late_ms`
/// once the window is complete; returns it with the executors' counters.
pub fn window(
    rec: &Recorder,
    args: &Args,
    plan: &Plan,
    service: JoinService,
    seconds: f64,
) -> (Window, ExecutorStats) {
    let (all, exec) = match args.workload {
        Workload::ServiceNoisy => {
            let segments = (seconds / NOISY_SEGMENT_S).ceil().max(1.0);
            let mut all = Window::default();
            let mut exec = ExecutorStats::default();
            let mut service = Some(service);
            for _ in 0..segments as usize {
                let young = service.take().unwrap_or_else(|| {
                    let fresh = start(plan);
                    warm_up(rec, &fresh, plan);
                    fresh
                });
                let part = noisy_window(rec, &young, plan, seconds / segments);
                let stats = young.shutdown().exec;
                exec.steals += stats.steals;
                exec.parks += stats.parks;
                exec.overflows += stats.overflows;
                exec.timer_fires += stats.timer_fires;
                all.wall_s += part.wall_s;
                all.absorb(part);
            }
            (all, exec)
        }
        _ => {
            let queries = (seconds * CLOSED_QUERIES_PER_SECOND).ceil() as u64;
            let all = closed_window(rec, &service, plan, queries);
            (all, service.shutdown().exec)
        }
    };
    for o in &all.normals {
        rec.sample("query_ms", o.wall_s * 1e3);
        rec.sample("submit_ms", o.submit_s * 1e3);
        rec.sample("wait_ms", o.wait_s * 1e3);
    }
    for o in &all.bigs {
        rec.sample("big_ms", o.wall_s * 1e3);
    }
    for late in &all.late_ms {
        rec.sample("late_ms", *late);
    }
    (all, exec)
}
