//! The traced pass (`--trace 1`): every per-layer metric, measured from
//! outside. It never shares a process with the timed pass. Each layer is
//! replayed alone ([`crate::layers`]); then the workload's own query runs
//! with `metrics: true` and `TraceLevel::Summary`, interleaved with
//! untraced runs so the tracing overhead comes from two medians taken in
//! the same minute; then on one worker; then once on the simulator, whose
//! counts repeat exactly.

use crate::layers::{self, Metrics};
use crate::record::{Recorder, SpanId};
use crate::run::{run_once, run_options, untraced, Args, Expect, Outcome, COLD_DEADLINE};
use crate::spec::{PER_LAYER, WORKERS};
use crate::stats::{mean, median, percentile, sorted, supports};
use crate::{service, single};
use ehj_core::{Backend, JoinConfig, JoinReport, RunOptions};
use ehj_metrics::registry::names;
use ehj_metrics::{CommCategory, Phase, TraceLevel};
use ehj_sim::ExecutorStats;

/// Traced repetitions of a single-join workload (odd, so one run is the
/// median), each paired with an untraced one.
const TRACED_REPS: usize = 7;
const ONE_WORKER_REPS: usize = 3;

/// Query groups the admission replay starts on one executor. Admission
/// cost grows linearly with the groups an executor has seen, so a third of
/// `service-closed`'s 3000 queries shows the slope at a ninth of the time.
const ADMITS: usize = 1000;
const ADMITS_SMOKE: usize = 200;

/// Every per-layer metric of `args.workload`, in no particular order.
pub fn per_layer(rec: &Recorder, args: &Args) -> Metrics {
    let mut m = if args.workload.is_service() {
        service_pass(rec, args)
    } else {
        single_pass(rec, args)
    };
    let (attempted, failed) = rec.counts();
    m.insert(
        "bench.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );
    for (name, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    assert_eq!(m.len(), PER_LAYER.len(), "a metric outside PER_LAYER");
    m
}

fn admits(args: &Args) -> usize {
    if args.smoke {
        ADMITS_SMOKE
    } else {
        ADMITS
    }
}

fn single_pass(rec: &Recorder, args: &Args) -> Metrics {
    let traced_opts = run_options(WORKERS, true);
    let p = rec.span("setup", SpanId::NONE, 0, |setup| {
        let p = single::prepare(rec, setup, args);
        // The first traced run of a process pays for the registry's and the
        // monitor's first use: warm that path up too.
        let (cfg, expect) = (&p.cfg, &p.expect);
        run_once(
            rec,
            setup,
            cfg,
            expect,
            &traced_opts,
            "core.run",
            COLD_DEADLINE,
        );
        p
    });
    let mut m = layers::replay(rec, &p.cfg, WORKERS, admits(args));
    let run = |opts: &RunOptions, flavor| {
        run_once(
            rec,
            SpanId::NONE,
            &p.cfg,
            &p.expect,
            opts,
            flavor,
            p.deadline,
        )
    };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..TRACED_REPS {
        plain.extend(run(&untraced(), "core.run.untraced"));
        traced.extend(run(&traced_opts, "core.run"));
    }
    let one_worker: Vec<Outcome> = (0..ONE_WORKER_REPS)
        .filter_map(|_| run(&run_options(1, false), "core.run.1worker"))
        .collect();
    let walls = |outcomes: &[Outcome]| -> Vec<f64> { outcomes.iter().map(|o| o.wall_s).collect() };
    let plain_s = median(&walls(&plain));
    m.insert(
        "sim.speedup_2v1",
        ratio(median(&walls(&one_worker)), plain_s),
    );
    m.insert(
        "metrics.overhead_pct",
        100.0 * (ratio(median(&walls(&traced)), plain_s) - 1.0),
    );
    note_p95_support(traced.len());
    core_metrics(&mut m, &traced, p.expect.tuples(), false);
    if let Some(mid) = median_outcome(&traced) {
        exec_metrics_from_report(&mut m, &mid.report, mid.wall_s);
    }
    sim_oracle(rec, &mut m, &p.cfg, &p.expect);
    m
}

fn service_pass(rec: &Recorder, args: &Args) -> Metrics {
    // Three windows share the run's seconds; set-up and replay come on top.
    let seconds = args.seconds / 3.0;
    let windowed = |workers: usize, traced: bool| {
        let (plan, svc) = rec.span("setup", SpanId::NONE, 0, |_| {
            service::prepare(rec, args, workers, traced)
        });
        let (window, exec) = service::window(rec, args, &plan, svc, seconds);
        (plan, window, exec)
    };

    let (plan, traced, exec) = windowed(WORKERS, true);
    let (replayed, replayed_expect) = plan.big.as_ref().unwrap_or(&plan.normals[2]);
    let mut m = layers::replay(rec, replayed, WORKERS, admits(args));
    let query_ms = sorted(&rec.series("query_ms"));
    note_p95_support(query_ms.len());
    let traced_ms = percentile(&query_ms, 50.0);
    m.insert("core.query_ms_p95", percentile(&query_ms, 95.0));
    m.insert("core.big_query_ms_p50", median(&rec.series("big_ms")));
    m.insert(
        "bench.gen_late_ms_p95",
        percentile(&sorted(&rec.series("late_ms")), 95.0),
    );
    m.insert("core.submit_ms_p50", median(&rec.series("submit_ms")));
    m.insert("core.wait_ms_p50", median(&rec.series("wait_ms")));
    let submits: Vec<f64> = traced.normals.iter().map(|o| o.submit_s * 1e3).collect();
    let edge = submits.len().min(100);
    m.insert("core.submit_ms_first100", mean(&submits[..edge]));
    m.insert(
        "core.submit_ms_last100",
        mean(&submits[submits.len() - edge..]),
    );
    core_metrics(&mut m, &traced.normals, plan.normals[0].1.tuples(), true);
    exec_metrics(&mut m, &exec);
    rec.clear_series();

    let (_, plain, _) = windowed(WORKERS, false);
    let plain_ms = median(&rec.series("query_ms"));
    m.insert(
        "metrics.overhead_pct",
        100.0 * (ratio(traced_ms, plain_ms) - 1.0),
    );
    rec.clear_series();
    let (_, one_worker, _) = windowed(1, false);
    let rate = |w: &service::Window| ratio(w.tuples as f64, w.wall_s);
    m.insert("sim.speedup_2v1", ratio(rate(&plain), rate(&one_worker)));
    rec.clear_series();

    sim_oracle(rec, &mut m, replayed, replayed_expect);
    m
}

/// Says so when `n` latencies are too few to support the p95 printed.
fn note_p95_support(n: usize) {
    if !supports(n, 95.0) {
        println!("# core.query_ms_p95: {n} queries are too few for a p95");
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The outcome with the median wall time.
fn median_outcome(outcomes: &[Outcome]) -> Option<&Outcome> {
    let mut by_wall: Vec<&Outcome> = outcomes.iter().collect();
    by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    by_wall.get(by_wall.len() / 2).copied()
}

/// `core.*` from the traced runs: the phases and counts of the run with
/// the median wall time, read from what `JoinReport` exposes. `edge_s` is
/// that wall minus the three phases (actor construction, engine start and
/// stop, the report), so the four sum to it by construction.
///
/// On a service, `times.build_secs` counts from the executor's start, not
/// the query's; there (`on_service`) the build phase is the query's own
/// elapsed time minus the other two phases.
fn core_metrics(m: &mut Metrics, traced: &[Outcome], tuples: u64, on_service: bool) {
    m.insert("bench.reps", traced.len() as f64);
    let Some(mid) = median_outcome(traced) else {
        return;
    };
    let report = &mid.report;
    let times = report.times;
    let build_s = if on_service {
        times.total_secs - times.reshuffle_secs - times.probe_secs
    } else {
        times.build_secs
    };
    m.insert("core.build_s", build_s);
    m.insert("core.reshuffle_s", times.reshuffle_secs);
    m.insert("core.probe_s", times.probe_secs);
    m.insert(
        "core.edge_s",
        mid.wall_s - build_s - times.reshuffle_secs - times.probe_secs,
    );
    let busy_s = |name: &str| {
        let hist = report.metrics.histograms.iter().find(|h| h.name == name);
        hist.map_or(0.0, |h| h.mean * h.count as f64 / 1e9)
    };
    m.insert("core.node_build_busy_s", busy_s(names::NODE_BUILD_NS));
    m.insert("core.node_probe_busy_s", busy_s(names::NODE_PROBE_NS));
    // What the replayed kernels would cost for this query's tuples, as a
    // share of the worker time the query had: the most a faster kernel
    // could save when nothing else contends.
    let replayed = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let position = replayed("hash.position_ns_per_tuple");
    let kernel_ns = (position + replayed("hash.insert_ns_per_tuple")) * report.build_tuples as f64
        + (position + replayed("hash.probe_ns_per_tuple")) * report.probe_tuples as f64;
    m.insert(
        "core.kernel_share",
        ratio(kernel_ns / 1e9, WORKERS as f64 * mid.wall_s),
    );
    m.insert(
        "core.net_bytes_per_tuple",
        ratio(report.net_bytes as f64, tuples as f64),
    );
    let messages: u64 = Phase::ALL
        .iter()
        .flat_map(|p| CommCategory::ALL.iter().map(|c| report.comm.cell(*p, *c)))
        .map(|cell| cell.messages)
        .sum();
    m.insert(
        "core.msgs_per_ktuple",
        ratio(messages as f64, tuples as f64 / 1e3),
    );
    m.insert(
        "core.extra_build_chunks",
        report.extra_build_chunks() as f64,
    );
    m.insert(
        "core.extra_reshuffle_chunks",
        report.extra_reshuffle_chunks() as f64,
    );
    m.insert(
        "core.extra_probe_chunks",
        report.extra_probe_chunks() as f64,
    );
    m.insert("core.expansions", report.expansions as f64);
    m.insert("core.final_nodes", report.final_nodes as f64);
    m.insert("core.spilled_nodes", report.spilled_nodes as f64);
    m.insert("core.load_imbalance", report.load_stats().imbalance());
    let walls: Vec<f64> = sorted(&traced.iter().map(|o| o.wall_s * 1e3).collect::<Vec<_>>());
    m.entry("core.query_ms_p95")
        .or_insert_with(|| percentile(&walls, 95.0));
    let waits: Vec<f64> = traced.iter().map(|o| o.wait_s * 1e3).collect();
    m.entry("core.wait_ms_p50")
        .or_insert_with(|| median(&waits));
}

/// `sim.*` of a single-join run: its own executor's registry and counters.
fn exec_metrics_from_report(m: &mut Metrics, report: &JoinReport, wall_s: f64) {
    let counter = |name: &str| {
        let found = report.metrics.counters.iter().find(|(k, _)| k == name);
        found.map_or(0.0, |(_, v)| *v as f64)
    };
    let worker_ns = WORKERS as f64 * wall_s * 1e9;
    m.insert(
        "sim.busy_share",
        ratio(counter(names::EXEC_BUSY_NS), worker_ns),
    );
    m.insert(
        "sim.park_share",
        ratio(counter(names::EXEC_PARK_NS), worker_ns),
    );
    m.insert("sim.picks", counter(names::SCHED_PICKS));
    m.insert("sim.preemptions", counter(names::SCHED_PREEMPTIONS));
    let depth = report
        .metrics
        .histograms
        .iter()
        .find(|h| h.name == names::EXEC_MAILBOX_DEPTH);
    m.insert("sim.mailbox_depth_p99", depth.map_or(0.0, |h| h.p99 as f64));
    if let Some(exec) = report.trace.executor {
        m.insert("sim.steals", exec.steals as f64);
        m.insert("sim.parks", exec.parks as f64);
        m.insert("sim.overflows", exec.overflows as f64);
        m.insert("sim.timer_fires", exec.timer_fires as f64);
    }
}

/// `sim.*` of a service window: the pool's lifetime counters. The service
/// starts its executor with a disabled registry, so busy and park time,
/// picks and preemptions are not visible from outside and stay 0.
fn exec_metrics(m: &mut Metrics, exec: &ExecutorStats) {
    m.insert("sim.steals", exec.steals as f64);
    m.insert("sim.parks", exec.parks as f64);
    m.insert("sim.overflows", exec.overflows as f64);
    m.insert("sim.timer_fires", exec.timer_fires as f64);
}

/// One run of `cfg` on the deterministic simulator: virtual time and
/// counts that repeat exactly for a seed, the oracle a later claim about a
/// count may name.
fn sim_oracle(rec: &Recorder, m: &mut Metrics, cfg: &JoinConfig, expect: &Expect) {
    let opts = RunOptions {
        backend: Backend::Simulated,
        trace_level: TraceLevel::Off,
        metrics: false,
        ..RunOptions::default()
    };
    let run = run_once(
        rec,
        SpanId::NONE,
        cfg,
        expect,
        &opts,
        "core.run.sim",
        COLD_DEADLINE,
    );
    if let Some(o) = run {
        m.insert("core.sim_total_s", o.report.times.total_secs);
        m.insert("core.sim_net_bytes", o.report.net_bytes as f64);
        m.insert("core.sim_compares", o.report.compares as f64);
        m.insert("core.sim_events", o.report.sim_events as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{single_join_cfg, Workload};

    #[test]
    fn the_same_seed_gives_identical_simulator_counts() {
        let oracle = |seed| {
            let cfg = single_join_cfg(Workload::ExpandHybrid, seed, true);
            let mut m = Metrics::new();
            sim_oracle(&Recorder::new(false), &mut m, &cfg, &Expect::of(&cfg));
            assert_eq!(m.len(), 4);
            m
        };
        assert_eq!(oracle(11), oracle(11));
        assert_ne!(oracle(11), oracle(12));
    }
}
