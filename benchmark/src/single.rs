//! The single-join workloads: one client repeating one query, closed loop.

use crate::record::{Recorder, SpanId};
use crate::run::{deadline_after, run_once, untraced, Args, Expect, COLD_DEADLINE};
use crate::spec::single_join_cfg;
use crate::stats::median;
use ehj_core::JoinConfig;
use std::time::{Duration, Instant};

/// Verified warm-up runs per set-up; the first two runs of a process are
/// up to twice as slow as the rest.
const WARMUP_REPS: usize = 2;

/// Fewest timed repetitions behind a median, however long they take.
const MIN_REPS: usize = 21;
const MIN_REPS_SMOKE: usize = 3;

/// Everything the timed window needs, built before it starts.
pub struct Prepared {
    pub cfg: JoinConfig,
    pub expect: Expect,
    pub deadline: Duration,
}

/// Set-up: configuration, reference match count, warm-up runs (spans under
/// `parent`).
pub fn prepare(rec: &Recorder, parent: SpanId, args: &Args) -> Prepared {
    let cfg = single_join_cfg(args.workload, args.seed, args.smoke);
    let expect = Expect::of(&cfg);
    let warm: Vec<f64> = (0..WARMUP_REPS)
        .filter_map(|_| {
            let opts = untraced();
            run_once(rec, parent, &cfg, &expect, &opts, "core.run", COLD_DEADLINE)
        })
        .map(|o| o.wall_s)
        .collect();
    Prepared {
        cfg,
        expect,
        deadline: deadline_after(median(&warm)),
    }
}

/// The timed window: repeats the query untraced for `args.seconds` (and at
/// least the minimum repetitions), sampling `query_ms`. Returns the
/// verified tuples and the window's wall seconds.
pub fn timed_window(rec: &Recorder, args: &Args, p: &Prepared) -> (u64, f64) {
    let min_reps = if args.smoke { MIN_REPS_SMOKE } else { MIN_REPS };
    let opts = untraced();
    let started = Instant::now();
    let mut tuples = 0;
    let mut reps = 0;
    while reps < min_reps || started.elapsed().as_secs_f64() < args.seconds {
        let root = SpanId::NONE;
        if let Some(o) = run_once(rec, root, &p.cfg, &p.expect, &opts, "core.run", p.deadline) {
            rec.sample("query_ms", o.wall_s * 1e3);
            tuples += p.expect.tuples();
        }
        reps += 1;
    }
    (tuples, started.elapsed().as_secs_f64())
}
