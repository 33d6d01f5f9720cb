//! # ehj-metrics — measurement substrate for the EHJA reproduction
//!
//! Phase timing, communication-volume accounting (the "extra chunks" of
//! Figures 4 and 11), load-balance statistics (Figures 12 and 13),
//! plain-text/CSV report rendering for the figure harness, structured
//! event tracing, and the live metrics registry (sharded counters,
//! gauges, latency histograms) with its sampling monitor and Chrome
//! trace-event (Perfetto) exporter.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod comm;
pub mod load;
pub mod monitor;
pub mod perfetto;
pub mod phases;
pub mod registry;
pub mod report;
pub mod trace;

pub use comm::{CommCategory, CommCell, CommCounters};
pub use load::LoadStats;
pub use monitor::{sample_kind, sample_once, MetricsMonitor, SAMPLED, SAMPLE_WIDTH};
pub use perfetto::chrome_trace_json;
pub use phases::{Phase, PhaseTimes};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, HistogramStats, MetricsHandle, MetricsRegistry,
    MetricsReport, MetricsSnapshot, ScopedTimer,
};
pub use report::{fmt_secs, metrics_report_table, trace_rollup_table, TextTable};
pub use trace::{
    lane_marker, render_trace_lanes_clocked, ClockKind, ExecutorStats, FaultField, JsonlSink,
    RingSink, RollupSink, StopCause, TraceEvent, TraceKind, TraceLevel, TraceRollup, TraceSink,
    Tracer, TRACE_SCHEMA,
};
