//! The high-level entry point: wire up a cluster, run one join, return the
//! report — and the one lifecycle every query goes through, standalone or
//! in the multi-tenant service.
//!
//! A query's run state lives in one `QueryRun`: it builds the [`Tracer`]
//! shared by the scheduler, sources and join nodes, always keeps a bounded
//! ring of recent events so every [`JoinError`] carries a diagnostic tail,
//! builds the actor set at whatever id block the backend gives it, and has
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
    sample_once, ClockKind, JsonlSink, MetricsMonitor, MetricsRegistry, MetricsReport, Phase,
    RingSink, RollupSink, StopCause, TraceEvent, TraceKind, TraceLevel, TraceSink, Tracer,
};
use ehj_sim::{
    Actor, ActorId, Admission, Engine, EngineConfig, EngineError, Executor, ExecutorConfig,
    GroupOutcome, SimTime, StopReason,
};
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
    /// A fixed work-stealing worker pool over bounded batch mailboxes,
    /// with real temp-file spills (wall-clock benchmarking backend).
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

/// Errors surfaced by [`JoinRunner`]. The engine and stall variants carry
/// the tail of the structured trace so a failed run is diagnosable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// The configuration failed validation.
    Config(String),
    /// The simulation engine aborted (event-budget livelock guard).
    Engine {
        /// The underlying engine error.
        source: EngineError,
        /// Last trace events before the abort (empty when tracing is off).
        trace: Vec<TraceEvent>,
    },
    /// The run ended without producing a report — a protocol stall (or an
    /// exceeded virtual-time budget).
    Stalled {
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
            Self::Engine { trace, .. }
            | Self::Stalled { trace }
            | Self::Protocol { trace, .. }
            | Self::Cancelled { trace } => trace,
        }
    }

    /// Builds the no-report error: a [`JoinError::Protocol`] when the tail
    /// records a rejected control message, a [`JoinError::Stalled`]
    /// otherwise.
    pub(crate) fn from_silent_end(trace: Vec<TraceEvent>) -> Self {
        let detail = trace
            .iter()
            .rev()
            .find(|ev| matches!(ev.kind, ehj_metrics::TraceKind::ProtocolFault { .. }))
            .map(|ev| ev.kind.describe());
        match detail {
            Some(detail) => Self::Protocol { detail, trace },
            None => Self::Stalled { trace },
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
            Self::Engine { source, trace } => {
                write!(f, "engine error: {source}")?;
                Self::fmt_tail(trace, f)
            }
            Self::Stalled { trace } => {
                write!(f, "join protocol stalled without a report")?;
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
    /// and surfaces as a stall diagnostic ([`JoinError::Stalled`]). `None`
    /// waits without bound.
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
    /// The query's actors went quiet, or ran out of its time budget
    /// ([`StopCause::TimeLimit`]), without the scheduler reporting.
    Stalled(StopCause),
    /// The caller cancelled the query.
    Cancelled,
    /// The simulation engine aborted.
    Engine(EngineError),
}

/// How one query's actor set ended, as its backend measured it on the
/// query's own clock: the simulator's run summary or the pool's per-group
/// ledger.
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
    pub(crate) silent: SilentEnd,
}

impl RunEnd {
    /// The end of a pool group (every send charged its wire bytes, a
    /// self-send too).
    pub(crate) fn of_group(outcome: &GroupOutcome, cancelled: bool) -> Self {
        Self {
            at_nanos: u64::try_from(outcome.elapsed.as_nanos()).unwrap_or(u64::MAX),
            wall: true,
            events: 0,
            net_bytes: outcome.net_bytes,
            disk_bytes: 0,
            samples: 0,
            silent: if cancelled {
                SilentEnd::Cancelled
            } else {
                SilentEnd::Stalled(StopCause::Quiescent)
            },
        }
    }
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
    /// nodes — in the dense id block starting at `base`. The tracer is
    /// rebased, so the query's events (and its rollup) stay in its own
    /// 0-based actor namespace wherever the block landed.
    fn actors<B: SpillBackend + Default + Send + 'static>(
        &self,
        cfg: &Arc<JoinConfig>,
        base: ActorId,
    ) -> Vec<Box<dyn Actor<Msg>>> {
        let topo = Topology::with_base(base, cfg.sources, cfg.cluster.len());
        let tracer = self.harness.tracer.rebased(base);
        let mut actors: Vec<Box<dyn Actor<Msg>>> = Vec::with_capacity(topo.actor_count());
        actors.push(Box::new(
            Scheduler::new(Arc::clone(cfg), topo.clone(), Arc::clone(&self.result))
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
                    topo.scheduler,
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
    /// scheduling weight and the default mailbox capacity.
    pub(crate) fn admit(&self, executor: &Executor<Msg>, cfg: &Arc<JoinConfig>) -> Admission<Msg> {
        let count = 1 + cfg.sources + cfg.cluster.len();
        let capacity = ExecutorConfig::default().mailbox_capacity;
        executor.admit_weighted(count, capacity, cfg.tenant_weight, |base| {
            self.actors::<FileBackend>(cfg, base)
        })
    }

    /// Waits for the query's group to retire. A group still live after
    /// `budget` is cancelled and then reaped, so a wedged protocol ends as a
    /// stall diagnostic instead of a hang; `None` waits without bound.
    ///
    /// # Errors
    /// [`JoinError::Stalled`] when even the cancelled group would not
    /// retire within another `budget`.
    pub(crate) fn reap(
        &self,
        executor: &Executor<Msg>,
        admission: &Admission<Msg>,
        budget: Option<Duration>,
    ) -> Result<GroupOutcome, JoinError> {
        let Some(budget) = budget else {
            return Ok(executor.wait(admission));
        };
        if let Some(outcome) = executor.wait_timeout(admission, budget) {
            return Ok(outcome);
        }
        executor.cancel(admission);
        executor
            .wait_timeout(admission, budget)
            .ok_or_else(|| JoinError::Stalled {
                trace: self.harness.tail(),
            })
    }

    /// Ends the query: takes the report its scheduler left — or says why
    /// there is none — stamps the backend's totals on it, takes the
    /// end-of-run metrics sample and the registry snapshot, folds the trace
    /// rollup in and flushes the sinks.
    pub(crate) fn finish(&self, end: RunEnd) -> Result<JoinReport, JoinError> {
        let report = self.result.lock().expect("report lock").take();
        let Some(mut report) = report else {
            let cause = match &end.silent {
                SilentEnd::Stalled(cause) => *cause,
                SilentEnd::Cancelled => StopCause::Quiescent,
                SilentEnd::Engine(_) => StopCause::EventLimit,
            };
            self.harness.finish(end.at_nanos, cause, None);
            let trace = self.harness.tail();
            return Err(match end.silent {
                SilentEnd::Stalled(_) => JoinError::from_silent_end(trace),
                SilentEnd::Cancelled => JoinError::Cancelled { trace },
                SilentEnd::Engine(source) => JoinError::Engine { source, trace },
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
        let mut engine: Engine<Msg> = Engine::new(EngineConfig {
            net: cfg.net,
            disk: cfg.disk,
            max_time: opts.max_sim_time,
            ..EngineConfig::default()
        });
        for actor in query.actors::<MemBackend>(&Arc::new(cfg.clone()), 0) {
            engine.add_actor(actor);
        }
        let run = engine.run();
        let summary = run.as_ref().ok();
        query.finish(RunEnd {
            // The engine's clock, not the summary's: an aborted run has no
            // summary, and its stop is stamped when its last handler ended.
            at_nanos: engine.end_time().as_nanos(),
            wall: false,
            events: summary.map_or(0, |s| s.events),
            net_bytes: summary.map_or(0, |s| s.net_bytes),
            disk_bytes: summary.map_or(0, |s| s.disk_bytes),
            samples: 0,
            // Only a query that never reported reads this: the scheduler
            // stops the engine the moment it reports.
            silent: match run {
                Err(source) => SilentEnd::Engine(source),
                Ok(s) if s.reason == StopReason::TimeLimit => {
                    SilentEnd::Stalled(StopCause::TimeLimit)
                }
                Ok(_) => SilentEnd::Stalled(StopCause::Quiescent),
            },
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
        let outcome = query.reap(&executor, &admission, budget);
        let samples = monitor.stop();
        let exec = executor.shutdown().exec;
        let end = RunEnd {
            samples,
            ..RunEnd::of_group(&outcome?, false)
        };
        tracer.emit(
            end.at_nanos,
            0,
            Phase::Probe,
            TraceKind::ExecutorStats(Box::new(exec)),
        );
        query.finish(end)
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
            Err(JoinError::Engine { .. }) => "engine",
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
                SilentEnd::Engine(EngineError::EventLimitExceeded { limit: 7 }),
                "engine",
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
}
