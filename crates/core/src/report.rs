//! The result of one join run.

use crate::config::Algorithm;
use ehj_metrics::{CommCounters, LoadStats, MetricsReport, PhaseTimes, TraceEvent, TraceRollup};

/// Everything the paper's figures plot, for one run of one algorithm.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// Phase timings (Figures 2, 3, 6–10).
    pub times: PhaseTimes,
    /// Cumulative time spent inside split operations (Figure 5's
    /// "split time"; zero for non-split algorithms).
    pub split_time_secs: f64,
    /// Aggregated communication counters (Figures 4 and 11 use the extra
    /// build-phase chunks).
    pub comm: CommCounters,
    /// Per-node build-side tuple counts at the end of the run, active nodes
    /// only (Figures 12 and 13).
    pub load: Vec<u64>,
    /// Matching (r, s) pairs found — the correctness invariant.
    pub matches: u64,
    /// Probe-side chain comparisons performed.
    pub compares: u64,
    /// Join nodes allocated before execution.
    pub initial_nodes: usize,
    /// Join nodes holding table data at the end.
    pub final_nodes: usize,
    /// Additional nodes recruited during the build phase.
    pub expansions: u64,
    /// Nodes that spilled to disk (all of them for the baseline when
    /// memory ran out; EHJA nodes only as a last-resort fallback).
    pub spilled_nodes: usize,
    /// Build-side tuples stored across all nodes.
    pub build_tuples: u64,
    /// Probe-side tuples generated.
    pub probe_tuples: u64,
    /// Simulator events processed.
    pub sim_events: u64,
    /// Bytes pushed through the simulated network.
    pub net_bytes: u64,
    /// Bytes moved through simulated disks.
    pub disk_bytes: u64,
    /// The scheduler's milestone trace events in order (recruits, finished
    /// splits, phase ends, the hot-key install), recorded whatever the
    /// trace level.
    pub timeline: Vec<TraceEvent>,
    /// Per-phase / per-node / per-kind structured trace event counts
    /// (empty when tracing is off).
    pub trace: TraceRollup,
    /// Registry snapshot: counters, gauges, and latency/size percentile
    /// tables (empty when metrics are disabled).
    pub metrics: MetricsReport,
}

impl JoinReport {
    /// Load-balance statistics over the per-node loads (Figures 12/13).
    #[must_use]
    pub fn load_stats(&self) -> LoadStats {
        LoadStats::from_counts(&self.load)
    }

    /// Extra build-phase communication in paper chunks (Figure 4/11 y-axis).
    #[must_use]
    pub fn extra_build_chunks(&self) -> u64 {
        self.comm.extra_chunks(ehj_metrics::Phase::Build)
    }

    /// Extra probe-phase communication in paper chunks.
    #[must_use]
    pub fn extra_probe_chunks(&self) -> u64 {
        self.comm.extra_chunks(ehj_metrics::Phase::Probe)
    }

    /// Extra reshuffle communication in paper chunks.
    #[must_use]
    pub fn extra_reshuffle_chunks(&self) -> u64 {
        self.comm.extra_chunks(ehj_metrics::Phase::Reshuffle)
    }
}
