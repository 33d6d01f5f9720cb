//! Running one query through `ehj-core` and checking what it returns.

use crate::record::{Fault, Recorder, SpanId};
use crate::spec::{Workload, WORKERS};
use ehj_core::{
    expected_matches_for, Backend, JoinConfig, JoinError, JoinReport, JoinRunner, RunOptions,
};
use ehj_metrics::TraceLevel;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Deadline of a query before any warm latency is known.
pub const COLD_DEADLINE: Duration = Duration::from_secs(60);

/// Deadline of a timed query: `max(5 s, 10 x warm median)`.
pub fn deadline_after(warm_median_s: f64) -> Duration {
    Duration::from_secs_f64((10.0 * warm_median_s).max(5.0))
}

/// What a correct run of `cfg` must report.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    matches: u64,
    build_tuples: u64,
    probe_tuples: u64,
}

impl Expect {
    pub fn of(cfg: &JoinConfig) -> Self {
        Self {
            matches: expected_matches_for(cfg),
            build_tuples: cfg.build_spec().tuples,
            probe_tuples: cfg.probe_spec().tuples,
        }
    }

    /// Tuples one verified query accounts for: `|R| + |S|`.
    pub fn tuples(&self) -> u64 {
        self.build_tuples + self.probe_tuples
    }

    pub fn check(&self, result: &Result<JoinReport, JoinError>) -> Result<(), Fault> {
        let report = result
            .as_ref()
            .map_err(|e| Fault::Incorrect(e.to_string()))?;
        let got = (report.matches, report.build_tuples, report.probe_tuples);
        let want = (self.matches, self.build_tuples, self.probe_tuples);
        if got == want {
            Ok(())
        } else {
            Err(Fault::Incorrect(format!(
                "(matches, build, probe) = {got:?}, expected {want:?}"
            )))
        }
    }
}

/// A verified query: client-side timings plus the program's own report.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Position in admission order.
    pub seq: u64,
    /// Latency the client saw, in seconds (from the due time in an open loop).
    pub wall_s: f64,
    pub submit_s: f64,
    pub wait_s: f64,
    pub report: JoinReport,
}

/// The program's trace level of a traced or an untraced run.
pub fn trace_level(traced: bool) -> TraceLevel {
    if traced {
        TraceLevel::Summary
    } else {
        TraceLevel::Off
    }
}

/// Runner options of a threaded run. The timed pass runs untraced: trace
/// level off and a no-op metrics registry.
pub fn run_options(workers: usize, traced: bool) -> RunOptions {
    RunOptions {
        backend: Backend::Threaded,
        threads: Some(workers),
        trace_level: trace_level(traced),
        metrics: traced,
        ..RunOptions::default()
    }
}

pub fn untraced() -> RunOptions {
    run_options(WORKERS, false)
}

/// One `JoinRunner::run_with` call as a `rep` span under `parent`, with
/// `flavor` (the call into the core) and `verify` beneath it. `run_with` can block forever;
/// the query is registered with `deadline` so the watchdog can end the
/// process instead. Returns the outcome of a verified run.
pub fn run_once(
    rec: &Recorder,
    parent: SpanId,
    cfg: &JoinConfig,
    expect: &Expect,
    opts: &RunOptions,
    flavor: &'static str,
    deadline: Duration,
) -> Option<Outcome> {
    let query = rec.begin_query(flavor, deadline);
    let rep = rec.open("rep", parent, query);
    let started = Instant::now();
    let result = rec.span(flavor, rep, query, |_| JoinRunner::run_with(cfg, opts));
    let wall_s = started.elapsed().as_secs_f64();
    let verdict = rec.span("verify", rep, query, |_| expect.check(&result));
    rec.close(rep);
    let verified = verdict.is_ok();
    rec.end_query(query, verdict);
    verified.then(|| Outcome {
        seq: query,
        wall_s,
        submit_s: 0.0,
        wait_s: wall_s,
        report: result.expect("verified runs returned a report"),
    })
}

/// Resets the kernel's record of this process's peak resident set, so the
/// peak read later belongs to the timed window and not to set-up (the
/// reference match count holds both relations in a hash map). Where the
/// kernel refuses, the peak stays that of the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::single_join_cfg;

    #[test]
    fn deadline_has_a_floor_and_scales_with_the_warm_median() {
        assert_eq!(deadline_after(0.01), Duration::from_secs(5));
        assert_eq!(deadline_after(2.0), Duration::from_secs(20));
    }

    #[test]
    fn a_wrong_count_or_an_error_fails_verification() {
        let cfg = single_join_cfg(Workload::ExpandSplit, 3, true);
        let expect = Expect::of(&cfg);
        let rec = Recorder::new(true);
        let outcome = run_once(
            &rec,
            SpanId::NONE,
            &cfg,
            &expect,
            &untraced(),
            "core.run",
            COLD_DEADLINE,
        )
        .expect("the join verifies");
        assert_eq!(outcome.report.matches, expect.matches);
        assert_eq!(rec.counts(), (1, 0));
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["rep", "core.run", "verify"]);

        let mut wrong = outcome.report.clone();
        wrong.matches += 1;
        assert!(expect.check(&Ok(wrong)).is_err());
        let mut short = outcome.report;
        short.build_tuples -= 1;
        assert!(expect.check(&Ok(short)).is_err());
        assert!(expect
            .check(&Err(JoinError::Config("bad".to_owned())))
            .is_err());
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
