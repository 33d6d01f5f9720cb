//! The high-level entry point: wire up a cluster, run one join, return the
//! report.
//!
//! [`JoinRunner::run_with`] also owns the tracing plumbing: it builds the
//! [`Tracer`] shared by the scheduler, sources and join nodes, always keeps
//! a bounded ring of recent events so every [`JoinError`] carries a
//! diagnostic tail, folds the rollup counters into the final
//! [`JoinReport`], and optionally streams JSONL to a file.

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
use ehj_sim::{Actor, Engine, EngineConfig, EngineError, SimTime, StopReason, ThreadedEngine};
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
    /// Optional virtual-time budget for the simulated backend; exceeding it
    /// stops the run and surfaces as a stall diagnostic
    /// ([`JoinError::Stalled`]). Ignored by the threaded backend.
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

/// Everything the runner wires into a run's tracer. Also used by the
/// multi-tenant service, which builds one harness per admitted query.
pub(crate) struct TraceHarness {
    pub(crate) tracer: Tracer,
    ring: Option<Arc<RingSink>>,
    rollup: Option<Arc<RollupSink>>,
}

impl TraceHarness {
    pub(crate) fn build(opts: &RunOptions, clock: ClockKind) -> Result<Self, JoinError> {
        if opts.trace_level == TraceLevel::Off {
            return Ok(Self {
                tracer: Tracer::off(),
                ring: None,
                rollup: None,
            });
        }
        let ring = Arc::new(RingSink::new(ERROR_TAIL_EVENTS));
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
            writeln!(writer, "{}", clock.header_line()).map_err(|e| {
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

    pub(crate) fn tail(&self) -> Vec<TraceEvent> {
        self.ring.as_ref().map(|r| r.tail()).unwrap_or_default()
    }

    /// Records the stop reason, folds the rollup into the report, and
    /// flushes every sink.
    pub(crate) fn finish(&self, at_nanos: u64, cause: StopCause, report: Option<&mut JoinReport>) {
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

    /// Runs one join on the chosen backend with default tracing.
    ///
    /// # Errors
    /// See [`JoinError`].
    pub fn run_on(cfg: &JoinConfig, backend: Backend) -> Result<JoinReport, JoinError> {
        Self::run_with(cfg, &RunOptions::on(backend))
    }

    /// Runs one join with full control over backend and tracing.
    ///
    /// # Errors
    /// See [`JoinError`].
    pub fn run_with(cfg: &JoinConfig, opts: &RunOptions) -> Result<JoinReport, JoinError> {
        cfg.validate().map_err(JoinError::Config)?;
        let cfg = Arc::new(cfg.clone());
        let topo = Topology::standard(cfg.sources, cfg.cluster.len());
        let result: Arc<Mutex<Option<JoinReport>>> = Arc::new(Mutex::new(None));
        let clock = match opts.backend {
            Backend::Simulated => ClockKind::Virtual,
            Backend::Threaded => ClockKind::Wall,
        };
        let harness = TraceHarness::build(opts, clock)?;
        let registry = if opts.metrics {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        };
        match opts.backend {
            Backend::Simulated => {
                Self::run_simulated(&cfg, topo, &result, &harness, &registry, opts.max_sim_time)
            }
            Backend::Threaded => Self::run_threaded(
                &cfg,
                topo,
                &result,
                &harness,
                &registry,
                opts.threads.unwrap_or(0),
            ),
        }
    }

    fn run_simulated(
        cfg: &Arc<JoinConfig>,
        topo: Topology,
        result: &Arc<Mutex<Option<JoinReport>>>,
        harness: &TraceHarness,
        registry: &MetricsRegistry,
        max_time: Option<SimTime>,
    ) -> Result<JoinReport, JoinError> {
        let mut engine: Engine<Msg> = Engine::new(EngineConfig {
            net: cfg.net,
            disk: cfg.disk,
            max_time,
            ..EngineConfig::default()
        });
        for actor in build_query_actors::<MemBackend>(cfg, &topo, result, &harness.tracer, registry)
        {
            engine.add_actor(actor);
        }
        let summary = match engine.run() {
            Ok(s) => s,
            Err(source) => {
                harness.finish(0, StopCause::EventLimit, None);
                return Err(JoinError::Engine {
                    source,
                    trace: harness.tail(),
                });
            }
        };
        let end = summary.end_time.as_nanos();
        match summary.reason {
            StopReason::Stopped => {}
            reason => {
                let cause = match reason {
                    StopReason::TimeLimit => StopCause::TimeLimit,
                    _ => StopCause::Quiescent,
                };
                harness.finish(end, cause, None);
                return Err(JoinError::from_silent_end(harness.tail()));
            }
        }
        let report = result.lock().expect("report lock").take();
        let Some(mut report) = report else {
            harness.finish(end, StopCause::Quiescent, None);
            return Err(JoinError::from_silent_end(harness.tail()));
        };
        report.sim_events = summary.events;
        report.net_bytes = summary.net_bytes;
        report.disk_bytes = summary.disk_bytes;
        // A background monitor cannot observe virtual time; one end-of-run
        // sample stands in for the threaded backend's periodic ones.
        sample_once(registry, &harness.tracer, end, 0);
        report.metrics = MetricsReport::from_snapshot(&registry.snapshot());
        harness.finish(end, StopCause::Completed, Some(&mut report));
        Ok(report)
    }

    fn run_threaded(
        cfg: &Arc<JoinConfig>,
        topo: Topology,
        result: &Arc<Mutex<Option<JoinReport>>>,
        harness: &TraceHarness,
        registry: &MetricsRegistry,
        threads: usize,
    ) -> Result<JoinReport, JoinError> {
        let mut engine: ThreadedEngine<Msg> = ThreadedEngine::new()
            .with_workers(threads)
            .with_metrics(registry.clone());
        let tracer = &harness.tracer;
        for actor in build_query_actors::<FileBackend>(cfg, &topo, result, tracer, registry) {
            engine.add_actor(actor);
        }
        let monitor = MetricsMonitor::start(registry.clone(), tracer.clone(), MONITOR_INTERVAL);
        let (summary, _actors) = engine.run();
        monitor.stop();
        let end = summary.elapsed.as_nanos();
        harness.tracer.emit(
            end,
            0,
            Phase::Probe,
            TraceKind::ExecutorStats {
                workers: summary.exec.workers,
                steals: summary.exec.steals,
                parks: summary.exec.parks,
                overflows: summary.exec.overflows,
                max_depth: summary.exec.max_mailbox_depth,
                timer_fires: summary.exec.timer_fires,
            },
        );
        let report = result.lock().expect("report lock").take();
        let Some(mut report) = report else {
            harness.finish(end, StopCause::Quiescent, None);
            return Err(JoinError::from_silent_end(harness.tail()));
        };
        // Under the threaded backend the phase timings accumulated from
        // wall-clock `now()`; total and traffic are authoritative from the
        // engine (every send is charged its wire bytes, like the sim net).
        report.times.total_secs = summary.elapsed.as_secs_f64();
        report.net_bytes = summary.net_bytes;
        report.metrics = MetricsReport::from_snapshot(&registry.snapshot());
        harness.finish(end, StopCause::Completed, Some(&mut report));
        Ok(report)
    }
}

/// Builds one query's actor set — scheduler, then sources, then join
/// nodes — in the dense id order `topo` describes. `topo` may be based at
/// any actor id block ([`Topology::with_base`]), which is how the
/// multi-tenant service namespaces concurrent queries on one executor.
/// Shared by the single-query runner (base 0) and the service.
pub(crate) fn build_query_actors<B: SpillBackend + Default + Send + 'static>(
    cfg: &Arc<JoinConfig>,
    topo: &Topology,
    result: &Arc<Mutex<Option<JoinReport>>>,
    tracer: &Tracer,
    registry: &MetricsRegistry,
) -> Vec<Box<dyn Actor<Msg>>> {
    let mut actors: Vec<Box<dyn Actor<Msg>>> = Vec::with_capacity(topo.actor_count());
    actors.push(Box::new(
        Scheduler::new(Arc::clone(cfg), topo.clone(), Arc::clone(result))
            .with_tracer(tracer.clone())
            .with_metrics(&registry.handle_for(0)),
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
            .with_metrics(&registry.handle_for(i)),
        ));
    }
    debug_assert_eq!(actors.len(), topo.actor_count());
    actors
}
