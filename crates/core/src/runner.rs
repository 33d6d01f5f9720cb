//! The high-level entry point: wire up a cluster, run one join, return the
//! report — and the one lifecycle every query goes through, standalone or
//! in the multi-tenant service.
//!
//! A query's run state lives in one `QueryRun`: it builds the [`Tracer`]
//! shared by the scheduler, sources and join nodes, always keeps a bounded
//! ring of recent events so every [`JoinError`] carries a diagnostic tail,
//! builds the actor set (ids are the query's own, on both backends), and has
//! the only function that ends a query (report or classified error, totals,
//! metrics snapshot, rollup, flush). [`JoinRunner::run_with`] is that
//! lifecycle for one query: in an engine of its own on the simulator, the
//! only group of a pool of its own on the threaded backend.

use crate::config::JoinConfig;
use crate::join_node::JoinNode;
use crate::msg::Msg;
use crate::report::JoinReport;
use crate::scheduler::Scheduler;
use crate::source::DataSource;
use crate::topology::Topology;
use ehj_metrics::{
    sample_once, ClockKind, ExecutorStats, JsonlSink, MetricsMonitor, MetricsRegistry,
    MetricsReport, Phase, RingSink, RollupSink, StopCause, TraceEvent, TraceKind, TraceLevel,
    TraceSink, Tracer,
};
use ehj_sim::{Actor, Admission, Engine, EngineConfig, Executor, ExecutorConfig, SimTime};
use ehj_storage::{FileBackend, MemBackend, SpillBackend};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

/// How many trailing trace events are kept for error diagnostics.
const ERROR_TAIL_EVENTS: usize = 64;

/// How many of those the `Display` impl prints.
const ERROR_TAIL_SHOWN: usize = 8;

/// Sampling period of the threaded backend's metrics monitor.
const MONITOR_INTERVAL: Duration = Duration::from_millis(5);

/// Which runtime executes the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Deterministic discrete-event simulation with the calibrated
    /// 2004-cluster cost model (the figures' backend).
    #[default]
    Simulated,
    /// A fixed work-stealing worker pool over unbounded batch mailboxes —
    /// every channel a FIFO that never blocks its sender, as on the
    /// simulator — with real temp-file spills (wall-clock benchmarking
    /// backend).
    Threaded,
}

impl Backend {
    /// The clock that stamps this backend's trace events and phase times.
    #[must_use]
    pub fn clock(self) -> ClockKind {
        match self {
            Self::Simulated => ClockKind::Virtual,
            Self::Threaded => ClockKind::Wall,
        }
    }
}

/// Errors surfaced by [`JoinRunner`]. Every variant but `Config` and
/// `Admission` carries the tail of the structured trace so a failed run is
/// diagnosable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// The configuration failed validation.
    Config(String),
    /// The run ended without producing a report: its actors went quiet
    /// ([`StopCause::Quiescent`]), or it ran out of its time or event
    /// budget ([`StopCause::TimeLimit`], [`StopCause::EventLimit`]).
    Stalled {
        /// How the run ended.
        cause: StopCause,
        /// Last trace events before the stall (empty when tracing is off).
        trace: Vec<TraceEvent>,
    },
    /// A malformed or stale control message was rejected (see
    /// [`TraceKind::ProtocolFault`]); the query quiesced instead of
    /// letting the value corrupt — or panic — the scheduler.
    ///
    /// [`TraceKind::ProtocolFault`]: ehj_metrics::TraceKind::ProtocolFault
    Protocol {
        /// Human-readable description of the offending message.
        detail: String,
        /// Last trace events before the fault (includes the fault itself).
        trace: Vec<TraceEvent>,
    },
    /// The service refused to admit the query (memory quota could not be
    /// reserved within the admission patience, or could never be).
    Admission(String),
    /// The query was cancelled before it produced a report.
    Cancelled {
        /// Last trace events before the cancel (empty when tracing is off).
        trace: Vec<TraceEvent>,
    },
}

impl JoinError {
    /// The diagnostic trace tail, if this error carries one.
    #[must_use]
    pub fn trace_tail(&self) -> &[TraceEvent] {
        match self {
            Self::Config(_) | Self::Admission(_) => &[],
            Self::Stalled { trace, .. }
            | Self::Protocol { trace, .. }
            | Self::Cancelled { trace } => trace,
        }
    }

    /// Builds the no-report error: a [`JoinError::Protocol`] when the tail
    /// records a rejected control message, a [`JoinError::Stalled`] with
    /// `cause` otherwise.
    pub(crate) fn from_silent_end(cause: StopCause, trace: Vec<TraceEvent>) -> Self {
        let detail = trace
            .iter()
            .rev()
            .find(|ev| matches!(ev.kind, ehj_metrics::TraceKind::ProtocolFault { .. }))
            .map(|ev| ev.kind.describe());
        match detail {
            Some(detail) => Self::Protocol { detail, trace },
            None => Self::Stalled { cause, trace },
        }
    }

    fn fmt_tail(trace: &[TraceEvent], f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if trace.is_empty() {
            return write!(f, " (no trace recorded; raise the trace level)");
        }
        let shown = &trace[trace.len().saturating_sub(ERROR_TAIL_SHOWN)..];
        write!(f, "; last {} trace events:", shown.len())?;
        for ev in shown {
            write!(
                f,
                "\n  [{:>12.6}s] actor {:>3} {:<9} {}",
                ev.at_nanos as f64 / 1e9,
                ev.node,
                ev.phase.name(),
                ev.kind.describe()
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::Stalled { cause, trace } => {
                write!(
                    f,
                    "join protocol stalled without a report ({})",
                    cause.name()
                )?;
                Self::fmt_tail(trace, f)
            }
            Self::Protocol { detail, trace } => {
                write!(f, "malformed control message rejected: {detail}")?;
                Self::fmt_tail(trace, f)
            }
            Self::Admission(e) => write!(f, "query not admitted: {e}"),
            Self::Cancelled { trace } => {
                write!(f, "query cancelled before completion")?;
                Self::fmt_tail(trace, f)
            }
        }
    }
}

impl std::error::Error for JoinError {}

/// Execution options beyond the [`JoinConfig`] itself.
pub struct RunOptions {
    /// Which runtime executes the join.
    pub backend: Backend,
    /// Worker-pool size for the threaded backend (`None` = available
    /// parallelism). Ignored by the simulated backend.
    pub threads: Option<usize>,
    /// How much to trace. At [`TraceLevel::Summary`] and above, the runner
    /// always keeps a diagnostic ring and a rollup; [`TraceLevel::Off`]
    /// makes every emit a no-op.
    pub trace_level: TraceLevel,
    /// Stream every event as one JSON object per line to this file.
    pub trace_out: Option<PathBuf>,
    /// Additional sinks (tests, embedders).
    pub extra_sinks: Vec<Arc<dyn TraceSink>>,
    /// Whether the live metrics registry records (sharded counters,
    /// histograms, gauges). `false` hands every layer no-op instruments —
    /// the configuration the benchmark's `metrics.overhead_pct` compares
    /// against. Never affects simulated observables either way.
    pub metrics: bool,
    /// Optional time budget on the run's own clock — virtual time on the
    /// simulated backend, wall time since admission on the threaded one. A
    /// run that exceeds it is stopped (cancelled and reaped, on the pool)
    /// and surfaces as a stall diagnostic ([`JoinError::Stalled`] with
    /// [`StopCause::TimeLimit`]). `None` waits without bound.
    pub max_sim_time: Option<SimTime>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            backend: Backend::Simulated,
            threads: None,
            trace_level: TraceLevel::Summary,
            trace_out: None,
            extra_sinks: Vec::new(),
            metrics: true,
            max_sim_time: None,
        }
    }
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("backend", &self.backend)
            .field("threads", &self.threads)
            .field("trace_level", &self.trace_level)
            .field("trace_out", &self.trace_out)
            .field("extra_sinks", &self.extra_sinks.len())
            .field("metrics", &self.metrics)
            .field("max_sim_time", &self.max_sim_time)
            .finish()
    }
}

impl RunOptions {
    /// Options for `backend` with default tracing.
    #[must_use]
    pub fn on(backend: Backend) -> Self {
        Self {
            backend,
            ..Self::default()
        }
    }
}

/// The diagnostic ring: the last protocol events before an error. The
/// metrics monitor's periodic samples stay out of it — at one per 5 ms they
/// would push everything a stall's tail is read for out of 64 slots.
struct TailSink(RingSink);

impl TraceSink for TailSink {
    fn record(&self, ev: &TraceEvent) {
        if !matches!(ev.kind, TraceKind::MetricsSample { .. }) {
            self.0.record(ev);
        }
    }
}

/// The trace sinks of one query: the diagnostic ring, the rollup, and
/// whatever else [`RunOptions`] asked for, behind one [`Tracer`].
struct TraceHarness {
    tracer: Tracer,
    ring: Option<Arc<TailSink>>,
    rollup: Option<Arc<RollupSink>>,
}

impl TraceHarness {
    fn build(opts: &RunOptions) -> Result<Self, JoinError> {
        if opts.trace_level == TraceLevel::Off {
            if let Some(path) = &opts.trace_out {
                return Err(JoinError::Config(format!(
                    "trace output {} needs tracing on: --trace-out (RunOptions::trace_out) \
                     cannot be combined with --trace-level off (TraceLevel::Off)",
                    path.display()
                )));
            }
            return Ok(Self {
                tracer: Tracer::off(),
                ring: None,
                rollup: None,
            });
        }
        let ring = Arc::new(TailSink(RingSink::new(ERROR_TAIL_EVENTS)));
        let rollup = Arc::new(RollupSink::default());
        let mut sinks: Vec<Arc<dyn TraceSink>> =
            vec![Arc::clone(&ring) as _, Arc::clone(&rollup) as _];
        if let Some(path) = &opts.trace_out {
            let file = std::fs::File::create(path).map_err(|e| {
                JoinError::Config(format!("cannot open trace output {}: {e}", path.display()))
            })?;
            let mut writer = std::io::BufWriter::new(file);
            // First line declares which clock stamped `t` in every event
            // below (the timestamps are backend-dependent).
            writeln!(writer, "{}", opts.backend.clock().header_line()).map_err(|e| {
                JoinError::Config(format!("cannot write trace output {}: {e}", path.display()))
            })?;
            sinks.push(Arc::new(JsonlSink::new(Box::new(writer))) as _);
        }
        sinks.extend(opts.extra_sinks.iter().cloned());
        Ok(Self {
            tracer: Tracer::new(opts.trace_level, sinks),
            ring: Some(ring),
            rollup: Some(rollup),
        })
    }

    fn tail(&self) -> Vec<TraceEvent> {
        self.ring.as_ref().map(|r| r.0.tail()).unwrap_or_default()
    }

    /// Records the stop reason, folds the rollup into the report, and
    /// flushes every sink.
    fn finish(&self, at_nanos: u64, cause: StopCause, report: Option<&mut JoinReport>) {
        self.tracer.emit(
            at_nanos,
            0,
            Phase::Probe,
            TraceKind::EngineStop { reason: cause },
        );
        if let (Some(rollup), Some(report)) = (self.rollup.as_ref(), report) {
            report.trace = rollup.snapshot();
        }
        self.tracer.flush();
    }
}

/// What an empty result slot means once a query's actors are gone.
pub(crate) enum SilentEnd {
    /// The query's actors went quiet, or ran out of its time or event
    /// budget, without the scheduler reporting.
    Stalled(StopCause),
    /// The caller cancelled the query.
    Cancelled,
}

/// How one query's actor set ended, as its backend measured it on the
/// query's own clock: the simulator's run summary or the pool's per-group
/// ledger (every send charged its wire bytes, a self-send too).
pub(crate) struct RunEnd {
    /// When the query's last handler finished.
    pub(crate) at_nanos: u64,
    /// Whether that is wall time. The scheduler stamps the report's total
    /// when it assembles it; on a wall clock the group's retirement is the
    /// authoritative end (phase times share its origin, the admission).
    pub(crate) wall: bool,
    pub(crate) events: u64,
    pub(crate) net_bytes: u64,
    pub(crate) disk_bytes: u64,
    /// Metrics samples already emitted during the run: the end-of-run
    /// sample's sequence number.
    pub(crate) samples: u64,
    /// What the run's `executor_stats` trace line reports, if it has one:
    /// the pool's counters on a pool of the run's own, and on the simulator,
    /// which has no workers, its count of sends to an id past the query —
    /// both backends drop such a send — when there was one (a correct run
    /// has none, and its trace no such line). `None` for a query sharing a
    /// pool.
    pub(crate) exec: Option<ExecutorStats>,
    pub(crate) silent: SilentEnd,
}

/// One query's run state, whichever way it runs: the slot its scheduler
/// leaves the report in, its trace harness and its metrics registry. It
/// builds the query's actors and is the only thing that turns their end
/// into a `Result<JoinReport, JoinError>`.
pub(crate) struct QueryRun {
    result: Arc<Mutex<Option<JoinReport>>>,
    harness: TraceHarness,
    registry: MetricsRegistry,
}

impl QueryRun {
    pub(crate) fn new(opts: &RunOptions) -> Result<Self, JoinError> {
        Ok(Self {
            result: Arc::new(Mutex::new(None)),
            harness: TraceHarness::build(opts)?,
            registry: if opts.metrics {
                MetricsRegistry::new()
            } else {
                MetricsRegistry::disabled()
            },
        })
    }

    /// Builds the query's actor set — scheduler, then sources, then join
    /// nodes — at ids 0, 1, 2, ... in that order. Ids are the query's own,
    /// on both backends: an engine registers them from 0, and a pool group
    /// numbers its actors from 0 too.
    fn actors<B: SpillBackend + Default + Send + 'static>(
        &self,
        cfg: &Arc<JoinConfig>,
    ) -> Vec<Box<dyn Actor<Msg>>> {
        let topo = Arc::new(Topology::new(cfg.sources, cfg.cluster.len()));
        let tracer = &self.harness.tracer;
        let mut actors: Vec<Box<dyn Actor<Msg>>> = Vec::with_capacity(topo.actor_count());
        actors.push(Box::new(
            Scheduler::new(Arc::clone(cfg), Arc::clone(&topo), Arc::clone(&self.result))
                .with_tracer(tracer.clone())
                .with_metrics(&self.registry.handle_for(0)),
        ));
        for i in 0..cfg.sources {
            actors.push(Box::new(
                DataSource::new(Arc::clone(cfg), i, topo.scheduler).with_tracer(tracer.clone()),
            ));
        }
        for (i, node) in cfg.cluster.node_ids().enumerate() {
            let capacity = cfg.cluster.spec(node).hash_memory_bytes;
            actors.push(Box::new(
                JoinNode::<B>::new(
                    Arc::clone(cfg),
                    Arc::clone(&topo),
                    topo.node_actor(node),
                    capacity,
                )
                .with_tracer(tracer.clone())
                .with_metrics(&self.registry.handle_for(i)),
            ));
        }
        debug_assert_eq!(actors.len(), topo.actor_count());
        actors
    }

    /// Starts the query as one group of `executor`, at the configuration's
    /// scheduling weight.
    pub(crate) fn admit(&self, executor: &Executor<Msg>, cfg: &Arc<JoinConfig>) -> Admission<Msg> {
        executor.admit_weighted(self.actors::<FileBackend>(cfg), cfg.tenant_weight)
    }

    /// Waits for the query's group to retire and says how it ended:
    /// cancelled by the caller (`cancelled`), out of its time budget, or
    /// quiet. A group still live after `budget` is cancelled and then
    /// reaped, so a wedged protocol ends as a [`StopCause::TimeLimit`]
    /// stall instead of a hang; `None` waits without bound. A group that
    /// does not retire within another `budget` even then ends the same
    /// way, at the group's clock, with no report: its ledger cannot be
    /// read while its actors run.
    pub(crate) fn reap(
        &self,
        executor: &Executor<Msg>,
        admission: &Admission<Msg>,
        budget: Option<Duration>,
        cancelled: bool,
    ) -> RunEnd {
        let mut cause = StopCause::Quiescent;
        let outcome = match budget {
            None => Some(executor.wait(admission)),
            Some(budget) => executor.wait_timeout(admission, budget).or_else(|| {
                executor.cancel(admission);
                cause = StopCause::TimeLimit;
                executor.wait_timeout(admission, budget)
            }),
        };
        let (elapsed, net_bytes, silent) = match outcome {
            Some(outcome) if cancelled => {
                (outcome.elapsed, outcome.net_bytes, SilentEnd::Cancelled)
            }
            Some(outcome) => (
                outcome.elapsed,
                outcome.net_bytes,
                SilentEnd::Stalled(cause),
            ),
            None => {
                // A report left by a group that is still running is not
                // trusted.
                self.result.lock().expect("report lock").take();
                (
                    admission.elapsed(),
                    0,
                    SilentEnd::Stalled(StopCause::TimeLimit),
                )
            }
        };
        RunEnd {
            at_nanos: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            wall: true,
            events: 0,
            net_bytes,
            disk_bytes: 0,
            samples: 0,
            exec: None,
            silent,
        }
    }

    /// Ends the query: emits its executor counters, takes the report its
    /// scheduler left — or says why there is none — stamps the backend's
    /// totals on it, takes the end-of-run metrics sample and the registry
    /// snapshot, folds the trace rollup in and flushes the sinks.
    pub(crate) fn finish(&self, end: RunEnd) -> Result<JoinReport, JoinError> {
        if let Some(exec) = end.exec {
            self.harness.tracer.emit(
                end.at_nanos,
                0,
                Phase::Probe,
                TraceKind::ExecutorStats(Box::new(exec)),
            );
        }
        let report = self.result.lock().expect("report lock").take();
        let Some(mut report) = report else {
            let cause = match end.silent {
                SilentEnd::Stalled(cause) => cause,
                SilentEnd::Cancelled => StopCause::Quiescent,
            };
            self.harness.finish(end.at_nanos, cause, None);
            let trace = self.harness.tail();
            return Err(match end.silent {
                SilentEnd::Stalled(cause) => JoinError::from_silent_end(cause, trace),
                SilentEnd::Cancelled => JoinError::Cancelled { trace },
            });
        };
        if end.wall {
            report.times.total_secs = end.at_nanos as f64 / 1e9;
        }
        report.sim_events = end.events;
        report.net_bytes = end.net_bytes;
        report.disk_bytes = end.disk_bytes;
        // A background monitor cannot observe virtual time, and a query
        // shorter than its period is never sampled: one end-of-run sample.
        sample_once(
            &self.registry,
            &self.harness.tracer,
            end.at_nanos,
            end.samples,
        );
        report.metrics = MetricsReport::from_snapshot(&self.registry.snapshot());
        self.harness
            .finish(end.at_nanos, StopCause::Completed, Some(&mut report));
        Ok(report)
    }
}

/// Runs joins described by a [`JoinConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinRunner;

impl JoinRunner {
    /// Runs one join on the simulated backend with default tracing.
    ///
    /// # Errors
    /// See [`JoinError`].
    pub fn run(cfg: &JoinConfig) -> Result<JoinReport, JoinError> {
        Self::run_with(cfg, &RunOptions::default())
    }

    /// Runs one join with full control over backend and tracing: on the
    /// simulator in an engine of its own, on the threaded backend as the
    /// only group of a pool of its own.
    ///
    /// # Errors
    /// See [`JoinError`].
    pub fn run_with(cfg: &JoinConfig, opts: &RunOptions) -> Result<JoinReport, JoinError> {
        match opts.backend {
            Backend::Simulated => Self::run_simulated(cfg, opts),
            Backend::Threaded => Self::run_threaded(cfg, opts),
        }
    }

    fn run_simulated(cfg: &JoinConfig, opts: &RunOptions) -> Result<JoinReport, JoinError> {
        cfg.validate().map_err(JoinError::Config)?;
        let query = QueryRun::new(opts)?;
        let config = EngineConfig {
            net: cfg.net,
            disk: cfg.disk,
            max_time: opts.max_sim_time,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config, query.actors::<MemBackend>(&Arc::new(cfg.clone())));
        let run = engine.run();
        query.finish(RunEnd {
            at_nanos: engine.end_time().as_nanos(),
            wall: false,
            events: run.events,
            net_bytes: run.net_bytes,
            disk_bytes: run.disk_bytes,
            samples: 0,
            exec: (run.misrouted > 0).then(|| ExecutorStats {
                misrouted: run.misrouted,
                ..ExecutorStats::default()
            }),
            // Only a query that never reported reads this: the scheduler
            // stops the engine the moment it reports, so a stop without a
            // report is its protocol-fault stop, classified from the tail.
            silent: SilentEnd::Stalled(match run.cause {
                StopCause::Completed => StopCause::Quiescent,
                cause => cause,
            }),
        })
    }

    fn run_threaded(cfg: &JoinConfig, opts: &RunOptions) -> Result<JoinReport, JoinError> {
        cfg.validate().map_err(JoinError::Config)?;
        let cfg = Arc::new(cfg.clone());
        let query = QueryRun::new(opts)?;
        let pool = ExecutorConfig {
            workers: opts.threads.unwrap_or(0),
            ..ExecutorConfig::default()
        };
        // The pool is this run's alone, so its workers record into the
        // run's own registry: busy and park time, picks, mailbox depths and
        // coalesce sizes stay in a standalone report.
        let executor = Executor::start(&pool, &query.registry);
        let tracer = &query.harness.tracer;
        let monitor =
            MetricsMonitor::start(query.registry.clone(), tracer.clone(), MONITOR_INTERVAL);
        let admission = query.admit(&executor, &cfg);
        let budget = opts
            .max_sim_time
            .map(|t| Duration::from_nanos(t.as_nanos()));
        let end = query.reap(&executor, &admission, budget, false);
        let samples = monitor.stop();
        let exec = Some(executor.shutdown().exec);
        query.finish(RunEnd {
            samples,
            exec,
            ..end
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use ehj_metrics::registry::names;
    use ehj_metrics::FaultField;

    /// One end of a query: what the slot and the ring hold, how the backend
    /// saw it end, and what `finish` must make of it.
    struct Case {
        name: &'static str,
        report: bool,
        fault: bool,
        wall: bool,
        silent: SilentEnd,
        want: &'static str,
    }

    fn variant(result: &Result<JoinReport, JoinError>) -> &'static str {
        match result {
            Ok(_) => "ok",
            Err(JoinError::Protocol { .. }) => "protocol",
            Err(JoinError::Cancelled { .. }) => "cancelled",
            Err(JoinError::Stalled { .. }) => "stalled",
            Err(JoinError::Config(_) | JoinError::Admission(_)) => "other",
        }
    }

    #[test]
    fn finish_turns_every_end_into_the_right_result() {
        let quiet = || SilentEnd::Stalled(StopCause::Quiescent);
        let case = |name, report, fault, wall, silent, want| Case {
            name,
            report,
            fault,
            wall,
            silent,
            want,
        };
        let cases = [
            case("virtual clock", true, false, false, quiet(), "ok"),
            case("wall clock", true, false, true, quiet(), "ok"),
            // A cancel that lands after the report is advisory.
            case("late cancel", true, false, true, SilentEnd::Cancelled, "ok"),
            case("rejected message", false, true, false, quiet(), "protocol"),
            case(
                "cancelled",
                false,
                false,
                true,
                SilentEnd::Cancelled,
                "cancelled",
            ),
            case("went quiet", false, false, false, quiet(), "stalled"),
            case(
                "out of budget",
                false,
                false,
                false,
                SilentEnd::Stalled(StopCause::TimeLimit),
                "stalled",
            ),
            case(
                "event limit",
                false,
                false,
                false,
                SilentEnd::Stalled(StopCause::EventLimit),
                "stalled",
            ),
        ];
        let template = JoinRunner::run(&JoinConfig::paper_scaled(Algorithm::Hybrid, 2000))
            .expect("template run");
        for c in cases {
            let run = QueryRun::new(&RunOptions::default()).expect("no trace file");
            run.registry.handle().counter(names::EXEC_PARKS).add(3);
            run.harness
                .tracer
                .emit(5, 2, Phase::Build, TraceKind::Recruited { node: 4 });
            if c.fault {
                run.harness.tracer.emit(
                    6,
                    0,
                    Phase::Build,
                    TraceKind::ProtocolFault {
                        field: FaultField::ReshuffleGroup,
                        value: 9,
                        bound: 4,
                    },
                );
            }
            if c.report {
                *run.result.lock().expect("report lock") = Some(template.clone());
            }
            let result = run.finish(RunEnd {
                at_nanos: 2_500_000_000,
                wall: c.wall,
                events: 11,
                net_bytes: 22,
                disk_bytes: 33,
                samples: 0,
                exec: None,
                silent: c.silent,
            });
            assert_eq!(variant(&result), c.want, "{}", c.name);
            match result {
                Ok(report) => {
                    let total = if c.wall {
                        2.5
                    } else {
                        template.times.total_secs
                    };
                    assert_eq!(report.times.total_secs, total, "{}", c.name);
                    assert_eq!(
                        (report.sim_events, report.net_bytes, report.disk_bytes),
                        (11, 22, 33),
                        "{}",
                        c.name
                    );
                    assert!(
                        report
                            .metrics
                            .counters
                            .contains(&(names::EXEC_PARKS.to_owned(), 3)),
                        "{}: registry snapshot taken",
                        c.name
                    );
                    // The recruit, the end-of-run sample and the stop.
                    assert_eq!(report.trace.total, 3, "{}: rollup folded in", c.name);
                    assert_eq!(report.trace.by_kind["engine_stop"], 1, "{}", c.name);
                }
                Err(err) => {
                    let tail = err.trace_tail();
                    let last = tail.last().expect("the tail ends with the stop");
                    assert!(matches!(last.kind, TraceKind::EngineStop { .. }));
                    assert_eq!(last.at_nanos, 2_500_000_000, "{}", c.name);
                    assert_eq!(tail.len(), 2 + usize::from(c.fault), "{}", c.name);
                }
            }
        }
    }

    #[test]
    fn a_misrouted_send_reaches_the_executor_stats_line_however_the_query_ends() {
        // The simulator's count rides `RunEnd` to the line the pool's
        // reaches: the report's rollup, or the error's trace tail.
        let template = JoinRunner::run(&JoinConfig::paper_scaled(Algorithm::Split, 2000))
            .expect("template run");
        assert!(
            template.trace.executor.is_none(),
            "a correct simulated run has no executor line"
        );
        for reported in [true, false] {
            let run = QueryRun::new(&RunOptions::default()).expect("no trace file");
            if reported {
                *run.result.lock().expect("report lock") = Some(template.clone());
            }
            let result = run.finish(RunEnd {
                at_nanos: 1_000,
                wall: false,
                events: 1,
                net_bytes: 0,
                disk_bytes: 0,
                samples: 0,
                exec: Some(ExecutorStats {
                    misrouted: 1,
                    ..ExecutorStats::default()
                }),
                silent: SilentEnd::Stalled(StopCause::Quiescent),
            });
            let exec = match result {
                Ok(report) => report.trace.executor,
                Err(err) => err.trace_tail().iter().find_map(|ev| match &ev.kind {
                    TraceKind::ExecutorStats(exec) => Some(**exec),
                    _ => None,
                }),
            };
            assert_eq!(exec.map(|e| e.misrouted), Some(1), "reported: {reported}");
        }
    }

    #[test]
    fn a_group_that_outlives_its_cancel_still_ends_the_trace() {
        /// Holds its worker until the test lets it go, then stops.
        struct Wedged(std::sync::mpsc::Receiver<()>);
        impl Actor<Msg> for Wedged {
            fn on_start(&mut self, ctx: &mut dyn ehj_sim::Context<Msg>) {
                let _ = self.0.recv();
                ctx.stop();
            }
            fn on_message(
                &mut self,
                _: &mut dyn ehj_sim::Context<Msg>,
                _: ehj_sim::ActorId,
                _: Msg,
            ) {
            }
        }
        let stops = Arc::new(ehj_metrics::RingSink::new(16));
        let opts = RunOptions {
            extra_sinks: vec![Arc::clone(&stops) as _],
            ..RunOptions::on(Backend::Threaded)
        };
        let run = QueryRun::new(&opts).expect("no trace file");
        let executor = Executor::start(&ExecutorConfig::default(), &run.registry);
        let (release, wait) = std::sync::mpsc::channel();
        let admission = executor.admit_weighted(vec![Box::new(Wedged(wait))], 1);
        let end = run.reap(&executor, &admission, Some(Duration::from_millis(1)), false);
        let result = run.finish(end);
        release.send(()).expect("the actor is waiting");
        executor.wait(&admission);
        executor.shutdown();
        assert!(
            matches!(
                result,
                Err(JoinError::Stalled {
                    cause: StopCause::TimeLimit,
                    ..
                })
            ),
            "{result:?}"
        );
        let reasons: Vec<StopCause> = stops
            .tail()
            .into_iter()
            .filter_map(|ev| match ev.kind {
                TraceKind::EngineStop { reason } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, [StopCause::TimeLimit]);
    }
}
