//! Structured event tracing for join runs.
//!
//! Every interesting control-plane action of the EHJA protocol — bucket
//! overflow, split issue/completion, barrier-split-pointer advance, node
//! recruitment, range replication, full-node hand-off, reshuffle planning
//! and chunk movement, spill/fetch, probe fan-out and engine stop — can be
//! emitted as a [`TraceEvent`] through a [`Tracer`]. Events carry a
//! timestamp in nanoseconds (virtual time on the simulated backend, wall
//! time on the threaded one), the emitting actor id and the phase, so the
//! same instrumentation works on both runtimes.
//!
//! Three sink implementations cover the diagnostic needs:
//!
//! * [`RingSink`] — a bounded in-memory ring whose [`RingSink::tail`] is
//!   attached to join errors, making protocol stalls diagnosable;
//! * [`JsonlSink`] — one JSON object per line, for `--trace-out`;
//! * [`RollupSink`] — per-phase / per-node / per-kind counters merged into
//!   the final report.
//!
//! Tracing is off by default; a disabled [`Tracer`] reduces every `emit` to
//! a single branch so the hot paths pay nothing measurable.

use crate::monitor::{SAMPLED, SAMPLE_WIDTH};
use crate::phases::Phase;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// How much to trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No events are recorded at all.
    #[default]
    Off,
    /// Control-plane events only (splits, recruitment, reshuffle plans,
    /// spills, phase ends) — a few hundred events per run.
    Summary,
    /// Also per-chunk data movement and probe fan-out events.
    Detail,
}

impl TraceLevel {
    /// Stable name, matching the CLI flag values.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Summary => "summary",
            Self::Detail => "detail",
        }
    }

    /// Parses a CLI flag value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Self::Off),
            "summary" => Some(Self::Summary),
            "detail" => Some(Self::Detail),
            _ => None,
        }
    }
}

/// Version of the JSONL trace schema, declared in every file's header line.
/// Bump it whenever an event's keys change: a reader rejects a file of
/// another version instead of guessing at missing keys. Headers written
/// before the schema was versioned carry no `schema` key and read as 1.
pub const TRACE_SCHEMA: u64 = 3;

/// Which clock stamped a run's trace events: virtual nanoseconds on the
/// simulated backend, wall nanoseconds on the threaded one.
///
/// The JSONL writer records this, with [`TRACE_SCHEMA`], in a header line
/// (see [`ClockKind::header_line`]) so a trace file is self-describing and
/// the timeline renderer can label its axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    /// Simulated virtual time.
    Virtual,
    /// Wall-clock time of the threaded backend.
    Wall,
}

impl ClockKind {
    /// Stable name used in the JSONL header.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Virtual => "virtual",
            Self::Wall => "wall",
        }
    }

    /// Axis label for timeline rendering.
    #[must_use]
    pub const fn axis_label(self) -> &'static str {
        match self {
            Self::Virtual => "virtual time",
            Self::Wall => "wall time",
        }
    }

    /// The JSONL header line recording [`TRACE_SCHEMA`] and this clock,
    /// written as the first line of a `--trace-out` file.
    #[must_use]
    pub fn header_line(self) -> String {
        format!(
            "{{\"schema\":{TRACE_SCHEMA},\"clock\":\"{}\"}}",
            self.name()
        )
    }

    /// Parses a JSONL header line (`{"schema":2,"clock":"virtual"}`) into
    /// its schema version and clock; a header without a `schema` key is
    /// version 1. Returns `None` when the line is not a header.
    #[must_use]
    pub fn parse_header_line(line: &str) -> Option<(u64, Self)> {
        let fields = parse_flat_json(line)?;
        if !fields.keys().all(|k| k == "schema" || k == "clock") {
            return None;
        }
        let schema = match fields.get("schema") {
            None => 1,
            Some(JsonVal::Num(n)) => *n,
            Some(_) => return None,
        };
        let clock = match fields.get("clock")? {
            JsonVal::Str(s) if s == "virtual" => Self::Virtual,
            JsonVal::Str(s) if s == "wall" => Self::Wall,
            _ => return None,
        };
        Some((schema, clock))
    }
}

/// How a run ended, on either backend: the simulator's run summary, a
/// stalled join's error and the trace's `engine_stop` event all say it
/// with this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// An actor stopped the run: in a join, the scheduler once it has every
    /// report.
    Completed,
    /// The actors went quiet without a stop — a protocol stall.
    Quiescent,
    /// The time budget was exhausted: virtual time on the simulator, wall
    /// time on the pool.
    TimeLimit,
    /// The event budget was exhausted (livelock guard).
    EventLimit,
}

impl StopCause {
    /// Stable name used in the JSONL form.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Completed => "completed",
            Self::Quiescent => "quiescent",
            Self::TimeLimit => "time_limit",
            Self::EventLimit => "event_limit",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "completed" => Some(Self::Completed),
            "quiescent" => Some(Self::Quiescent),
            "time_limit" => Some(Self::TimeLimit),
            "event_limit" => Some(Self::EventLimit),
            _ => None,
        }
    }
}

/// What happened. Node ids in payloads are actor ids of the run topology
/// (scheduler, sources, then join nodes), except `Recruited::node`, which
/// is the recruit's cluster node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A join node ran out of hash-table memory (`pending` unhoused tuples).
    BucketOverflow {
        /// Tuples queued without a home when the report was raised.
        pending: u64,
    },
    /// The scheduler recruited a potential node into the working set.
    Recruited {
        /// Cluster node id of the recruit.
        node: u32,
    },
    /// A hash range was replicated onto the recruit (§4.2.2).
    Replicated {
        /// First position of the replicated range.
        start: u32,
        /// One past the last position of the replicated range.
        end: u32,
    },
    /// A linear-pointer bucket split was issued to the old owner (§4.2.1).
    SplitIssued {
        /// The bucket being split.
        bucket: u32,
        /// Actor that owns the bucket's current contents.
        from: u32,
        /// Actor receiving the upper half.
        to: u32,
    },
    /// The barrier split pointer advanced after a split was issued.
    SplitPointerAdvance {
        /// New pointer value.
        pointer: u32,
    },
    /// The old owner finished shipping a split bucket's movers.
    SplitDone {
        /// The bucket that was split.
        bucket: u32,
        /// Tuples that moved to the new bucket.
        moved: u64,
    },
    /// A full node stopped receiving build data (hand-off, §4.1.2).
    NodeFull,
    /// No potential nodes remained; the reporter falls back to spilling.
    PoolExhausted,
    /// Tuples were spilled to local disk (Grace-style).
    Spill {
        /// Raw tuple bytes written in this spill step.
        bytes: u64,
        /// Spill fragments the node partitions into.
        fragments: u64,
    },
    /// Spilled fragments were read back for the out-of-core join.
    SpillFetch {
        /// Raw tuple bytes read back.
        bytes: u64,
    },
    /// The hybrid's reshuffle plan for one replica group was computed.
    ReshufflePlanned {
        /// Group index.
        group: u32,
        /// Members redistributing among themselves.
        members: u64,
    },
    /// One reshuffle extraction was shipped (detail level).
    ReshuffleChunk {
        /// Receiving actor.
        to: u32,
        /// Tuples moved.
        tuples: u64,
    },
    /// The scheduler promoted heavy-hitter positions to a replicated hot
    /// set and installed the routing overlay (DESIGN §4i).
    HotKeysInstalled {
        /// Number of positions promoted to the hot set.
        hot: u64,
        /// Size of the replica set sharing the hot build tuples.
        replicas: u64,
    },
    /// Probe tuples were broadcast to multiple replicas (detail level).
    ProbeFanout {
        /// Tuples routed to more than one destination in this batch.
        tuples: u64,
        /// Total copies shipped for those tuples.
        copies: u64,
    },
    /// The phase named by the event's `phase` field completed.
    PhaseDone,
    /// End-of-run counters from the threaded work-stealing executor (boxed,
    /// like a sample's values, so that every event stays small).
    ExecutorStats(Box<ExecutorStats>),
    /// A periodic snapshot of the registry (sampling monitor on the
    /// threaded backend; one end-of-run sample on both).
    MetricsSample {
        /// Sample sequence number within the run.
        seq: u64,
        /// `values[i]` is [`SAMPLED`]`[i]` read at sample time.
        values: Box<[u64; SAMPLE_WIDTH]>,
    },
    /// A malformed or stale control message was rejected instead of
    /// applied: the value arrived off the wire, failed validation against
    /// the receiver's own state, and was routed to the error path rather
    /// than indexing into it.
    ProtocolFault {
        /// Which wire field failed validation.
        field: FaultField,
        /// The offending value.
        value: u64,
        /// The exclusive bound (count/length) the value violated.
        bound: u64,
    },
    /// The engine stopped.
    EngineStop {
        /// Why.
        reason: StopCause,
    },
}

/// Wire fields the scheduler validates before letting them index its own
/// state (see [`TraceKind::ProtocolFault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultField {
    /// A reshuffle group id out of range of the current group table.
    ReshuffleGroup,
    /// A reshuffle count vector whose length does not match the group's
    /// histogram width.
    ReshuffleCounts,
    /// A source sketch whose monitored-entry count exceeds the configured
    /// sketch capacity.
    SketchSize,
}

impl FaultField {
    /// Stable snake_case name (JSONL serialization and error text).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::ReshuffleGroup => "reshuffle_group",
            Self::ReshuffleCounts => "reshuffle_counts",
            Self::SketchSize => "sketch_size",
        }
    }

    /// Inverse of [`FaultField::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reshuffle_group" => Some(Self::ReshuffleGroup),
            "reshuffle_counts" => Some(Self::ReshuffleCounts),
            "sketch_size" => Some(Self::SketchSize),
            _ => None,
        }
    }
}

impl TraceKind {
    /// Stable snake_case name used as the JSONL `kind` discriminator.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            Self::BucketOverflow { .. } => "bucket_overflow",
            Self::Recruited { .. } => "recruited",
            Self::Replicated { .. } => "replicated",
            Self::SplitIssued { .. } => "split_issued",
            Self::SplitPointerAdvance { .. } => "split_pointer_advance",
            Self::SplitDone { .. } => "split_done",
            Self::NodeFull => "node_full",
            Self::PoolExhausted => "pool_exhausted",
            Self::Spill { .. } => "spill",
            Self::SpillFetch { .. } => "spill_fetch",
            Self::ReshufflePlanned { .. } => "reshuffle_planned",
            Self::ReshuffleChunk { .. } => "reshuffle_chunk",
            Self::HotKeysInstalled { .. } => "hot_keys_installed",
            Self::ProbeFanout { .. } => "probe_fanout",
            Self::PhaseDone => "phase_done",
            Self::ExecutorStats(_) => "executor_stats",
            Self::MetricsSample { .. } => "metrics_sample",
            Self::ProtocolFault { .. } => "protocol_fault",
            Self::EngineStop { .. } => "engine_stop",
        }
    }

    /// Human-readable one-liner for error tails and timelines.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::BucketOverflow { pending } => {
                format!("memory full ({pending} pending tuples)")
            }
            Self::Recruited { node } => format!("recruited cluster node n{node}"),
            Self::Replicated { start, end } => {
                format!("replicated range [{start},{end})")
            }
            Self::SplitIssued { bucket, from, to } => {
                format!("split of bucket {bucket} issued ({from} -> {to})")
            }
            Self::SplitPointerAdvance { pointer } => {
                format!("split pointer advanced to {pointer}")
            }
            Self::SplitDone { bucket, moved } => {
                format!("bucket {bucket} split done ({moved} tuples moved)")
            }
            Self::NodeFull => "node marked full (stops receiving)".to_owned(),
            Self::PoolExhausted => "no potential nodes left".to_owned(),
            Self::Spill { bytes, fragments } => {
                format!("spilled {bytes} bytes into {fragments} fragments")
            }
            Self::SpillFetch { bytes } => format!("fetched {bytes} spilled bytes"),
            Self::ReshufflePlanned { group, members } => {
                format!("reshuffle plan for group {group} ({members} members)")
            }
            Self::ReshuffleChunk { to, tuples } => {
                format!("reshuffle moved {tuples} tuples to actor {to}")
            }
            Self::HotKeysInstalled { hot, replicas } => {
                format!("hot-key overlay installed: {hot} positions on {replicas} replicas")
            }
            Self::ProbeFanout { tuples, copies } => {
                format!("probe fan-out: {tuples} tuples -> {copies} copies")
            }
            Self::PhaseDone => "phase complete".to_owned(),
            Self::ExecutorStats(c) => format!(
                "executor: {} workers, {} steals, {} parks, {} overflows, max mailbox {}",
                c.workers, c.steals, c.parks, c.overflows, c.max_mailbox_depth
            ),
            Self::MetricsSample { seq, values } => {
                let read: Vec<String> = SAMPLED
                    .iter()
                    .zip(values.iter())
                    .map(|(s, v)| format!("{} {v}", s.label))
                    .collect();
                format!("metrics sample {seq}: {}", read.join(", "))
            }
            Self::ProtocolFault {
                field,
                value,
                bound,
            } => format!(
                "protocol fault: {} = {value} rejected (bound {bound})",
                field.name()
            ),
            Self::EngineStop { reason } => format!("engine stopped: {}", reason.name()),
        }
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the run started. Which clock produced them —
    /// virtual (simulated backend) or wall (threaded backend) — is
    /// recorded per file in the JSONL header ([`ClockKind`]), not per
    /// event.
    pub at_nanos: u64,
    /// Actor id of the emitter (0 = scheduler, then sources, then nodes).
    pub node: u32,
    /// Phase the emitter was in.
    pub phase: Phase,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Serializes as one flat JSON object (the JSONL schema).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"t_ns\":{},\"node\":{},\"phase\":\"{}\",\"kind\":\"{}\"",
            self.at_nanos,
            self.node,
            self.phase.name(),
            self.kind.name()
        );
        match &self.kind {
            TraceKind::BucketOverflow { pending } => {
                let _ = write!(out, ",\"pending\":{pending}");
            }
            TraceKind::Recruited { node } => {
                let _ = write!(out, ",\"new_node\":{node}");
            }
            TraceKind::Replicated { start, end } => {
                let _ = write!(out, ",\"start\":{start},\"end\":{end}");
            }
            TraceKind::SplitIssued { bucket, from, to } => {
                let _ = write!(out, ",\"bucket\":{bucket},\"from\":{from},\"to\":{to}");
            }
            TraceKind::SplitPointerAdvance { pointer } => {
                let _ = write!(out, ",\"pointer\":{pointer}");
            }
            TraceKind::SplitDone { bucket, moved } => {
                let _ = write!(out, ",\"bucket\":{bucket},\"moved\":{moved}");
            }
            TraceKind::NodeFull | TraceKind::PoolExhausted | TraceKind::PhaseDone => {}
            TraceKind::Spill { bytes, fragments } => {
                let _ = write!(out, ",\"bytes\":{bytes},\"fragments\":{fragments}");
            }
            TraceKind::SpillFetch { bytes } => {
                let _ = write!(out, ",\"bytes\":{bytes}");
            }
            TraceKind::ReshufflePlanned { group, members } => {
                let _ = write!(out, ",\"group\":{group},\"members\":{members}");
            }
            TraceKind::ReshuffleChunk { to, tuples } => {
                let _ = write!(out, ",\"to\":{to},\"tuples\":{tuples}");
            }
            TraceKind::HotKeysInstalled { hot, replicas } => {
                let _ = write!(out, ",\"hot\":{hot},\"replicas\":{replicas}");
            }
            TraceKind::ProbeFanout { tuples, copies } => {
                let _ = write!(out, ",\"tuples\":{tuples},\"copies\":{copies}");
            }
            TraceKind::ExecutorStats(c) => {
                let _ = write!(
                    out,
                    ",\"workers\":{},\"steals\":{},\"parks\":{},\"overflows\":{},\
                     \"max_mailbox_depth\":{},\"timer_fires\":{},\"misrouted\":{}",
                    c.workers,
                    c.steals,
                    c.parks,
                    c.overflows,
                    c.max_mailbox_depth,
                    c.timer_fires,
                    c.misrouted
                );
            }
            TraceKind::MetricsSample { seq, values } => {
                let _ = write!(out, ",\"seq\":{seq}");
                for (s, v) in SAMPLED.iter().zip(values.iter()) {
                    let _ = write!(out, ",\"{}\":{v}", s.name);
                }
            }
            TraceKind::ProtocolFault {
                field,
                value,
                bound,
            } => {
                let _ = write!(
                    out,
                    ",\"field\":\"{}\",\"value\":{value},\"bound\":{bound}",
                    field.name()
                );
            }
            TraceKind::EngineStop { reason } => {
                let _ = write!(out, ",\"reason\":\"{}\"", reason.name());
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line of schema [`TRACE_SCHEMA`] back into an event.
    /// Returns `None` for malformed lines, unknown kinds and lines missing
    /// any of their kind's keys.
    #[must_use]
    pub fn from_json_line(line: &str) -> Option<Self> {
        let fields = parse_flat_json(line)?;
        let num = |k: &str| -> Option<u64> {
            match fields.get(k)? {
                JsonVal::Num(n) => Some(*n),
                _ => None,
            }
        };
        let num32 = |k: &str| -> Option<u32> { num(k).and_then(|n| u32::try_from(n).ok()) };
        let text = |k: &str| -> Option<&str> {
            match fields.get(k)? {
                JsonVal::Str(s) => Some(s.as_str()),
                _ => None,
            }
        };
        let phase = match text("phase")? {
            "build" => Phase::Build,
            "reshuffle" => Phase::Reshuffle,
            "probe" => Phase::Probe,
            _ => return None,
        };
        let kind = match text("kind")? {
            "bucket_overflow" => TraceKind::BucketOverflow {
                pending: num("pending")?,
            },
            "recruited" => TraceKind::Recruited {
                node: num32("new_node")?,
            },
            "replicated" => TraceKind::Replicated {
                start: num32("start")?,
                end: num32("end")?,
            },
            "split_issued" => TraceKind::SplitIssued {
                bucket: num32("bucket")?,
                from: num32("from")?,
                to: num32("to")?,
            },
            "split_pointer_advance" => TraceKind::SplitPointerAdvance {
                pointer: num32("pointer")?,
            },
            "split_done" => TraceKind::SplitDone {
                bucket: num32("bucket")?,
                moved: num("moved")?,
            },
            "node_full" => TraceKind::NodeFull,
            "pool_exhausted" => TraceKind::PoolExhausted,
            "spill" => TraceKind::Spill {
                bytes: num("bytes")?,
                fragments: num("fragments")?,
            },
            "spill_fetch" => TraceKind::SpillFetch {
                bytes: num("bytes")?,
            },
            "reshuffle_planned" => TraceKind::ReshufflePlanned {
                group: num32("group")?,
                members: num("members")?,
            },
            "reshuffle_chunk" => TraceKind::ReshuffleChunk {
                to: num32("to")?,
                tuples: num("tuples")?,
            },
            "hot_keys_installed" => TraceKind::HotKeysInstalled {
                hot: num("hot")?,
                replicas: num("replicas")?,
            },
            "probe_fanout" => TraceKind::ProbeFanout {
                tuples: num("tuples")?,
                copies: num("copies")?,
            },
            "phase_done" => TraceKind::PhaseDone,
            "executor_stats" => TraceKind::ExecutorStats(Box::new(ExecutorStats {
                workers: num("workers")?,
                steals: num("steals")?,
                parks: num("parks")?,
                overflows: num("overflows")?,
                max_mailbox_depth: num("max_mailbox_depth")?,
                timer_fires: num("timer_fires")?,
                misrouted: num("misrouted")?,
            })),
            "metrics_sample" => {
                let mut values = [0; SAMPLE_WIDTH];
                for (v, s) in values.iter_mut().zip(SAMPLED) {
                    *v = num(s.name)?;
                }
                TraceKind::MetricsSample {
                    seq: num("seq")?,
                    values: Box::new(values),
                }
            }
            "protocol_fault" => TraceKind::ProtocolFault {
                field: FaultField::parse(text("field")?)?,
                value: num("value")?,
                bound: num("bound")?,
            },
            "engine_stop" => TraceKind::EngineStop {
                reason: StopCause::parse(text("reason")?)?,
            },
            _ => return None,
        };
        Some(Self {
            at_nanos: num("t_ns")?,
            node: num32("node")?,
            phase,
            kind,
        })
    }
}

enum JsonVal {
    Num(u64),
    Str(String),
}

/// Minimal parser for the flat JSON objects this module emits: string keys,
/// and unsigned-integer / escape-free string values.
fn parse_flat_json(line: &str) -> Option<BTreeMap<String, JsonVal>> {
    let mut out = BTreeMap::new();
    let mut chars = line.trim().char_indices().peekable();
    let s = line.trim();
    let (i0, c0) = chars.next()?;
    if c0 != '{' || i0 != 0 {
        return None;
    }
    loop {
        match chars.peek()? {
            (_, '}') => {
                chars.next();
                return if chars.next().is_none() {
                    Some(out)
                } else {
                    None
                };
            }
            (_, ',') => {
                chars.next();
            }
            _ => {}
        }
        // Key.
        let (_, q) = chars.next()?;
        if q != '"' {
            return None;
        }
        let start = chars.peek()?.0;
        let mut end = start;
        for (i, c) in chars.by_ref() {
            if c == '"' {
                end = i;
                break;
            }
        }
        let key = s.get(start..end)?.to_owned();
        let (_, colon) = chars.next()?;
        if colon != ':' {
            return None;
        }
        // Value.
        let val = match chars.peek()? {
            (_, '"') => {
                chars.next();
                let start = chars.peek()?.0;
                let mut end = start;
                for (i, c) in chars.by_ref() {
                    if c == '"' {
                        end = i;
                        break;
                    }
                }
                JsonVal::Str(s.get(start..end)?.to_owned())
            }
            (_, c) if c.is_ascii_digit() => {
                let start = chars.peek()?.0;
                while matches!(chars.peek(), Some((_, c)) if c.is_ascii_digit()) {
                    chars.next();
                }
                let end = chars.peek().map_or(s.len(), |&(i, _)| i);
                JsonVal::Num(s.get(start..end)?.parse().ok()?)
            }
            _ => return None,
        };
        out.insert(key, val);
    }
}

/// A consumer of trace events. Sinks must be shareable across actor
/// threads (the threaded backend emits concurrently).
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, ev: &TraceEvent);
    /// Flushes buffered output (end of run).
    fn flush(&self) {}
}

/// Cheap cloneable handle that actors emit through. A level of
/// [`TraceLevel::Off`] (the default) turns every emit into one branch.
#[derive(Clone, Default)]
pub struct Tracer {
    level: TraceLevel,
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("level", &self.level)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer (no sinks, level off).
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// A tracer at `level` feeding `sinks`.
    #[must_use]
    pub fn new(level: TraceLevel, sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        Self { level, sinks }
    }

    /// Whether summary-level events are recorded.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.level >= TraceLevel::Summary && !self.sinks.is_empty()
    }

    /// Whether detail-level (per-chunk) events are recorded.
    #[inline]
    #[must_use]
    pub fn detail(&self) -> bool {
        self.level >= TraceLevel::Detail && !self.sinks.is_empty()
    }

    /// The event [`Self::emit`] would record, built whatever the level.
    #[inline]
    #[must_use]
    pub fn event(&self, at_nanos: u64, node: u32, phase: Phase, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at_nanos,
            node,
            phase,
            kind,
        }
    }

    /// Emits a summary-level event.
    #[inline]
    pub fn emit(&self, at_nanos: u64, node: u32, phase: Phase, kind: TraceKind) {
        if self.enabled() {
            self.dispatch(&self.event(at_nanos, node, phase, kind));
        }
    }

    /// Emits an event built by [`Self::event`] at summary level.
    #[inline]
    pub fn emit_event(&self, ev: &TraceEvent) {
        if self.enabled() {
            self.dispatch(ev);
        }
    }

    /// Emits a detail-level event (per-chunk data movement, fan-out).
    #[inline]
    pub fn emit_detail(&self, at_nanos: u64, node: u32, phase: Phase, kind: TraceKind) {
        if self.detail() {
            self.dispatch(&self.event(at_nanos, node, phase, kind));
        }
    }

    fn dispatch(&self, ev: &TraceEvent) {
        for s in &self.sinks {
            s.record(ev);
        }
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

/// Bounded in-memory ring buffer; keeps the last `capacity` events.
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<TraceEvent>>,
}

impl RingSink {
    /// Creates a ring keeping at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// The retained tail, oldest first.
    #[must_use]
    pub fn tail(&self) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .expect("ring lock")
            .iter()
            .cloned()
            .collect()
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: &TraceEvent) {
        let mut buf = self.buf.lock().expect("ring lock");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(ev.clone());
    }
}

/// Writes one JSON object per event to an arbitrary writer.
pub struct JsonlSink {
    out: Mutex<Box<dyn std::io::Write + Send>>,
}

impl JsonlSink {
    /// Wraps a writer (typically a buffered file).
    #[must_use]
    pub fn new(out: Box<dyn std::io::Write + Send>) -> Self {
        Self {
            out: Mutex::new(out),
        }
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, ev: &TraceEvent) {
        let mut out = self.out.lock().expect("jsonl lock");
        let _ = writeln!(out, "{}", ev.to_json_line());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl lock").flush();
    }
}

use std::io::Write as _;

/// What the threaded work-stealing executor observed over its lifetime:
/// the payload of a [`TraceKind::ExecutorStats`] event, which the rollup
/// keeps (threaded backend only; a simulated run leaves it absent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker threads in the pool.
    pub workers: u64,
    /// Ready actors taken from another worker's queue.
    pub steals: u64,
    /// Idle-worker parks (a send never parks: mailboxes are unbounded).
    pub parks: u64,
    /// Always 0: a mailbox has no bound to overflow. Kept because the
    /// frozen benchmark package reads it and the schema-3 parser requires
    /// it.
    pub overflows: u64,
    /// High-water mark of any single mailbox's depth.
    pub max_mailbox_depth: u64,
    /// Always 0: the pool has no timers (an actor's own loop is a
    /// self-send). Kept because the frozen benchmark package reads it.
    pub timer_fires: u64,
    /// Sends addressed to an id beyond the sender's group, dropped (a
    /// protocol bug; zero in a healthy run).
    pub misrouted: u64,
}

/// Per-phase / per-node / per-kind event counts for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceRollup {
    /// Total events recorded.
    pub total: u64,
    /// Events per phase (dense by [`Phase::index`]).
    pub by_phase: [u64; 3],
    /// Events per kind name.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Events per emitting actor.
    pub by_node: BTreeMap<u32, u64>,
    /// Executor counters, when the run emitted them (threaded backend).
    pub executor: Option<ExecutorStats>,
}

impl TraceRollup {
    /// Counts one event.
    pub fn note(&mut self, ev: &TraceEvent) {
        self.total += 1;
        self.by_phase[ev.phase.index()] += 1;
        *self.by_kind.entry(ev.kind.name()).or_insert(0) += 1;
        *self.by_node.entry(ev.node).or_insert(0) += 1;
        if let TraceKind::ExecutorStats(c) = &ev.kind {
            self.executor = Some(**c);
        }
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Count for one kind name (0 when absent).
    #[must_use]
    pub fn kind_count(&self, name: &str) -> u64 {
        self.by_kind.get(name).copied().unwrap_or(0)
    }
}

/// Accumulates a [`TraceRollup`] as events arrive.
#[derive(Default)]
pub struct RollupSink {
    inner: Mutex<TraceRollup>,
}

impl RollupSink {
    /// The rollup so far.
    #[must_use]
    pub fn snapshot(&self) -> TraceRollup {
        self.inner.lock().expect("rollup lock").clone()
    }
}

impl TraceSink for RollupSink {
    fn record(&self, ev: &TraceEvent) {
        self.inner.lock().expect("rollup lock").note(ev);
    }
}

/// Marker character used for a kind on the timeline lanes.
#[must_use]
pub const fn lane_marker(kind: &TraceKind) -> char {
    match kind {
        TraceKind::BucketOverflow { .. } => '!',
        TraceKind::Recruited { .. } | TraceKind::Replicated { .. } => 'R',
        TraceKind::SplitIssued { .. }
        | TraceKind::SplitPointerAdvance { .. }
        | TraceKind::SplitDone { .. } => 'S',
        TraceKind::NodeFull => 'F',
        TraceKind::PoolExhausted => 'X',
        TraceKind::Spill { .. } => 'v',
        TraceKind::SpillFetch { .. } => '^',
        TraceKind::ReshufflePlanned { .. } | TraceKind::ReshuffleChunk { .. } => '#',
        TraceKind::HotKeysInstalled { .. } => 'H',
        TraceKind::ProbeFanout { .. } => 'f',
        TraceKind::PhaseDone => '|',
        TraceKind::ExecutorStats(_) => 'W',
        TraceKind::MetricsSample { .. } => 'm',
        TraceKind::ProtocolFault { .. } => '?',
        TraceKind::EngineStop { .. } => 'E',
    }
}

/// Renders per-node, per-phase timeline lanes: one `width`-column lane per
/// (actor, phase) that saw events, with kind markers placed by timestamp
/// (`*` marks a cell where different kinds collide). The axis is labelled
/// by the clock that stamped the events (from the JSONL header or the
/// backend that ran), or with nanoseconds of an unspecified clock for
/// `None`.
#[must_use]
pub fn render_trace_lanes_clocked(
    events: &[TraceEvent],
    width: usize,
    clock: Option<ClockKind>,
) -> String {
    let width = width.max(10);
    if events.is_empty() {
        return "no trace events\n".to_owned();
    }
    let t0 = events.iter().map(|e| e.at_nanos).min().expect("non-empty");
    let t1 = events.iter().map(|e| e.at_nanos).max().expect("non-empty");
    let span = (t1 - t0).max(1);
    let mut lanes: BTreeMap<(u32, usize), Vec<char>> = BTreeMap::new();
    for ev in events {
        let col = ((ev.at_nanos - t0) as u128 * (width as u128 - 1) / span as u128) as usize;
        let lane = lanes
            .entry((ev.node, ev.phase.index()))
            .or_insert_with(|| vec!['.'; width]);
        let m = lane_marker(&ev.kind);
        lane[col] = match lane[col] {
            '.' => m,
            c if c == m => m,
            _ => '*',
        };
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} trace events over {:.4}s of {} ({} lanes; column = {:.4}s)",
        events.len(),
        span as f64 / 1e9,
        clock.map_or("unlabelled time", ClockKind::axis_label),
        lanes.len(),
        span as f64 / 1e9 / width as f64
    );
    let _ = writeln!(
        out,
        "legend: ! overflow  R recruit/replicate  S split  F full  X exhausted  \
         v spill  ^ fetch  # reshuffle  f fan-out  | phase-done  \
         W executor  m metrics  E stop  * mixed"
    );
    for ((node, phase_idx), lane) in &lanes {
        let _ = writeln!(
            out,
            "  actor {:>3} {:<9} |{}|",
            node,
            Phase::ALL[*phase_idx].name(),
            lane.iter().collect::<String>()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<TraceKind> {
        vec![
            TraceKind::BucketOverflow { pending: 17 },
            TraceKind::Recruited { node: 5 },
            TraceKind::Replicated { start: 0, end: 64 },
            TraceKind::SplitIssued {
                bucket: 3,
                from: 2,
                to: 9,
            },
            TraceKind::SplitPointerAdvance { pointer: 4 },
            TraceKind::SplitDone {
                bucket: 3,
                moved: 1234,
            },
            TraceKind::NodeFull,
            TraceKind::PoolExhausted,
            TraceKind::Spill {
                bytes: 9999,
                fragments: 16,
            },
            TraceKind::SpillFetch { bytes: 4321 },
            TraceKind::ReshufflePlanned {
                group: 2,
                members: 3,
            },
            TraceKind::ReshuffleChunk { to: 11, tuples: 42 },
            TraceKind::HotKeysInstalled {
                hot: 16,
                replicas: 4,
            },
            TraceKind::ProbeFanout {
                tuples: 10,
                copies: 20,
            },
            TraceKind::PhaseDone,
            TraceKind::ExecutorStats(Box::new(ExecutorStats {
                workers: 8,
                steals: 120,
                parks: 3,
                overflows: 0,
                max_mailbox_depth: 512,
                timer_fires: 2,
                misrouted: 1,
            })),
            sample(),
            TraceKind::EngineStop {
                reason: StopCause::Completed,
            },
            TraceKind::EngineStop {
                reason: StopCause::TimeLimit,
            },
        ]
    }

    /// A metrics sample whose every value is distinct.
    fn sample() -> TraceKind {
        TraceKind::MetricsSample {
            seq: 4,
            values: Box::new(std::array::from_fn(|i| 1000 * i as u64 + 7)),
        }
    }

    #[test]
    fn json_round_trips_every_kind() {
        for (i, kind) in every_kind().into_iter().enumerate() {
            let ev = TraceEvent {
                at_nanos: 1_000_000 + i as u64,
                node: i as u32,
                phase: Phase::ALL[i % 3],
                kind,
            };
            let line = ev.to_json_line();
            let back =
                TraceEvent::from_json_line(&line).unwrap_or_else(|| panic!("must parse: {line}"));
            assert_eq!(back, ev, "round trip of {line}");
        }
    }

    #[test]
    fn a_metrics_sample_missing_any_key_is_rejected() {
        let ev = TraceEvent {
            at_nanos: 5,
            node: 0,
            phase: Phase::Probe,
            kind: sample(),
        };
        let line = ev.to_json_line();
        let keys = std::iter::once("seq").chain(SAMPLED.iter().map(|s| s.name));
        for key in keys {
            let start = line.find(&format!(",\"{key}\":")).expect(key);
            let len = line[start + 1..].find([',', '}']).expect("delimited") + 1;
            let dropped = format!("{}{}", &line[..start], &line[start + len..]);
            assert!(
                TraceEvent::from_json_line(&dropped).is_none(),
                "accepted without {key}: {dropped}"
            );
        }
        assert_eq!(TraceEvent::from_json_line(&line), Some(ev));
    }

    #[test]
    fn sketch_size_fault_field_round_trips() {
        assert_eq!(FaultField::SketchSize.name(), "sketch_size");
        assert_eq!(
            FaultField::parse("sketch_size"),
            Some(FaultField::SketchSize)
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"t_ns\":1}",
            "{\"t_ns\":1,\"node\":0,\"phase\":\"build\",\"kind\":\"nope\"}",
            "{\"t_ns\":1,\"node\":0,\"phase\":\"warp\",\"kind\":\"phase_done\"}",
            "{\"t_ns\":1,\"node\":0,\"phase\":\"build\",\"kind\":\"phase_done\"} trailing",
        ] {
            assert!(TraceEvent::from_json_line(bad).is_none(), "accepted: {bad}");
        }
    }

    #[test]
    fn tracer_off_records_nothing() {
        let ring = Arc::new(RingSink::new(8));
        let t = Tracer::new(TraceLevel::Off, vec![ring.clone()]);
        t.emit(1, 0, Phase::Build, TraceKind::PhaseDone);
        t.emit_detail(2, 0, Phase::Build, TraceKind::PhaseDone);
        assert!(!t.enabled());
        assert!(ring.tail().is_empty());
    }

    #[test]
    fn an_event_stays_five_words() {
        // Every join report keeps its scheduler's milestones as events, and
        // a service holds many reports: the bulky payloads stay boxed.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
    }

    #[test]
    fn an_event_is_built_at_any_level_and_emitted_at_its_own() {
        let ring = Arc::new(RingSink::new(8));
        let off = Tracer::new(TraceLevel::Off, vec![ring.clone()]);
        let ev = off.event(1, 2, Phase::Build, TraceKind::PhaseDone);
        assert_eq!(ev.node, 2);
        off.emit_event(&ev);
        assert!(ring.tail().is_empty());
        let on = Tracer::new(TraceLevel::Summary, vec![ring.clone()]);
        on.emit(1, 2, Phase::Build, TraceKind::PhaseDone);
        on.emit_event(&ev);
        assert_eq!(ring.tail(), vec![ev.clone(), ev]);
    }

    #[test]
    fn summary_level_drops_detail_events() {
        let ring = Arc::new(RingSink::new(8));
        let t = Tracer::new(TraceLevel::Summary, vec![ring.clone()]);
        t.emit(1, 0, Phase::Build, TraceKind::PhaseDone);
        t.emit_detail(
            2,
            0,
            Phase::Probe,
            TraceKind::ProbeFanout {
                tuples: 1,
                copies: 2,
            },
        );
        assert_eq!(ring.tail().len(), 1);
        let t = Tracer::new(TraceLevel::Detail, vec![ring.clone()]);
        t.emit_detail(
            3,
            0,
            Phase::Probe,
            TraceKind::ProbeFanout {
                tuples: 1,
                copies: 2,
            },
        );
        assert_eq!(ring.tail().len(), 2);
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let ring = RingSink::new(3);
        for i in 0..10u64 {
            ring.record(&TraceEvent {
                at_nanos: i,
                node: 0,
                phase: Phase::Build,
                kind: TraceKind::PhaseDone,
            });
        }
        let tail = ring.tail();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].at_nanos, 7);
        assert_eq!(tail[2].at_nanos, 9);
    }

    #[test]
    fn rollup_counts_and_merges() {
        let mut a = TraceRollup::default();
        a.note(&TraceEvent {
            at_nanos: 1,
            node: 2,
            phase: Phase::Build,
            kind: TraceKind::NodeFull,
        });
        a.note(&TraceEvent {
            at_nanos: 2,
            node: 2,
            phase: Phase::Probe,
            kind: TraceKind::NodeFull,
        });
        a.note(&TraceEvent {
            at_nanos: 3,
            node: 4,
            phase: Phase::Build,
            kind: TraceKind::PhaseDone,
        });
        assert_eq!(a.total, 3);
        assert_eq!(a.by_phase, [2, 0, 1]);
        assert_eq!(a.kind_count("node_full"), 2);
        assert_eq!(a.kind_count("phase_done"), 1);
        assert_eq!(a.by_node.get(&2), Some(&2));
        assert!(!a.is_empty());
        assert!(TraceRollup::default().is_empty());
    }

    #[test]
    fn rollup_captures_executor_counters() {
        let mut r = TraceRollup::default();
        assert!(r.executor.is_none());
        r.note(&TraceEvent {
            at_nanos: 9,
            node: 0,
            phase: Phase::Probe,
            kind: TraceKind::ExecutorStats(Box::new(ExecutorStats {
                workers: 4,
                steals: 10,
                parks: 1,
                overflows: 0,
                max_mailbox_depth: 33,
                timer_fires: 2,
                misrouted: 0,
            })),
        });
        let exec = r.executor.expect("captured");
        assert_eq!(exec.workers, 4);
        assert_eq!(exec.steals, 10);
        assert_eq!(exec.max_mailbox_depth, 33);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buf").extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(Shared(buf.clone())));
        for kind in every_kind() {
            sink.record(&TraceEvent {
                at_nanos: 7,
                node: 1,
                phase: Phase::Reshuffle,
                kind,
            });
        }
        sink.flush();
        let text = String::from_utf8(buf.lock().expect("buf").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), every_kind().len());
        for line in lines {
            assert!(TraceEvent::from_json_line(line).is_some(), "bad: {line}");
        }
    }

    #[test]
    fn lanes_render_markers_per_phase() {
        let events = vec![
            TraceEvent {
                at_nanos: 0,
                node: 2,
                phase: Phase::Build,
                kind: TraceKind::BucketOverflow { pending: 1 },
            },
            TraceEvent {
                at_nanos: 500,
                node: 2,
                phase: Phase::Build,
                kind: TraceKind::SplitDone {
                    bucket: 0,
                    moved: 9,
                },
            },
            TraceEvent {
                at_nanos: 1000,
                node: 3,
                phase: Phase::Probe,
                kind: TraceKind::PhaseDone,
            },
        ];
        let s = render_trace_lanes_clocked(&events, 40, None);
        assert!(s.contains("actor   2 build"));
        assert!(s.contains("actor   3 probe"));
        assert!(s.contains('!'));
        assert!(s.contains('S'));
        assert!(s.contains("legend"));
        assert!(s.contains("unlabelled time"));
        assert_eq!(
            render_trace_lanes_clocked(&[], 40, None),
            "no trace events\n"
        );
    }

    #[test]
    fn clocked_lanes_label_the_axis() {
        let events = vec![TraceEvent {
            at_nanos: 10,
            node: 0,
            phase: Phase::Build,
            kind: TraceKind::PhaseDone,
        }];
        let virt = render_trace_lanes_clocked(&events, 40, Some(ClockKind::Virtual));
        assert!(virt.contains("virtual time"), "{virt}");
        let wall = render_trace_lanes_clocked(&events, 40, Some(ClockKind::Wall));
        assert!(wall.contains("wall time"), "{wall}");
    }

    #[test]
    fn clock_header_round_trips() {
        for clock in [ClockKind::Virtual, ClockKind::Wall] {
            let line = clock.header_line();
            assert_eq!(
                ClockKind::parse_header_line(&line),
                Some((TRACE_SCHEMA, clock)),
                "{line}"
            );
            // A header line must not parse as a trace event.
            assert!(TraceEvent::from_json_line(&line).is_none());
        }
        // A header from before the schema was versioned reads as 1.
        assert_eq!(
            ClockKind::parse_header_line("{\"clock\":\"wall\"}"),
            Some((1, ClockKind::Wall))
        );
        for bad in [
            "",
            "{\"clock\":\"sundial\"}",
            "{\"clock\":\"wall\",\"extra\":1}",
            "{\"schema\":\"two\",\"clock\":\"wall\"}",
            "{\"schema\":2}",
            "{\"t_ns\":1,\"node\":0,\"phase\":\"build\",\"kind\":\"phase_done\"}",
        ] {
            assert!(
                ClockKind::parse_header_line(bad).is_none(),
                "accepted: {bad}"
            );
        }
    }
}
