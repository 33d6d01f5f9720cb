//! The result of one join run.

use crate::config::Algorithm;
use ehj_metrics::{CommCounters, LoadStats, MetricsReport, PhaseTimes, TraceRollup};

/// One noteworthy event during a run, stamped with simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEvent {
    /// Simulated seconds since the run started.
    pub at_secs: f64,
    /// What happened.
    pub kind: TimelineKind,
}

/// Event kinds recorded on the scheduler's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineKind {
    /// A new join node was recruited (its cluster node id).
    Recruited(u32),
    /// A linear-pointer bucket split completed (the old bucket id).
    SplitDone(u32),
    /// A range-bisect split completed (the cut position).
    RangeSplit(u32),
    /// A node went out of core (its cluster node id).
    Spilled(u32),
    /// The build phase completed.
    BuildDone,
    /// The reshuffle step completed.
    ReshuffleDone,
    /// The probe phase completed (final reports collected).
    ProbeDone,
    /// The hot-key overlay was installed (number of hot positions).
    HotKeysInstalled(u32),
}

impl TimelineKind {
    /// Short human-readable form for log-style rendering.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::Recruited(n) => format!("recruited node n{n}"),
            Self::SplitDone(b) => format!("split bucket {b}"),
            Self::RangeSplit(cut) => format!("range split at position {cut}"),
            Self::Spilled(n) => format!("node n{n} went out of core"),
            Self::BuildDone => "build phase complete".to_owned(),
            Self::ReshuffleDone => "reshuffle complete".to_owned(),
            Self::ProbeDone => "probe phase complete".to_owned(),
            Self::HotKeysInstalled(k) => format!("hot-key overlay installed ({k} positions)"),
        }
    }
}

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
    /// Reshuffle-step duration (Figure 5's "reshuffle time"; equals
    /// `times.reshuffle_secs`).
    pub reshuffle_time_secs: f64,
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
    /// Chronological record of expansions, splits, spills and phase
    /// transitions, as observed by the scheduler.
    pub timeline: Vec<TimelineEvent>,
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
