//! The repo benchmark: seven workloads on the threaded backend, measured
//! end to end (`--trace 0`) and layer by layer (`--trace 1`). See README.md.
//!
//! `benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--smoke] [--out-dir DIR]` prints every metric as `name value unit` and,
//! as the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. It exits non-zero when any query returned an error or a
//! wrong count, or blew its deadline.

mod layers;
mod record;
mod run;
mod service;
mod single;
mod spec;
mod stats;
mod traced;

use layers::Metrics;
use record::{Recorder, SpanId};
use run::Args;
use spec::{Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKERS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

/// How often the watchdog looks at the deadlines of the queries in flight.
const WATCHDOG_PERIOD: Duration = Duration::from_millis(25);

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--smoke] [--out-dir DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ExpandHybrid,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        smoke: false,
        out_dir: PathBuf::from("target/benchmark"),
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(name)
                        .ok_or(format!("unknown workload {name}; one of {known:?}"))?,
                );
            }
            "--seed" => {
                let text = value()?;
                let parsed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                };
                args.seed = parsed.map_err(|e| format!("--seed {text}: {e}"))?;
            }
            "--seconds" => {
                let text = value()?;
                args.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {text}: not a positive number"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: 0 or 1")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Sets up [`SETUP_ROUNDS`] times, dropping each set-up before the next (a
/// dropped service stops its workers); returns the last one and the
/// seconds each took.
fn set_up<T>(mut prepare: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut prepared = None;
    let mut seconds = Vec::with_capacity(SETUP_ROUNDS);
    for _ in 0..SETUP_ROUNDS {
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(prepare());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (prepared.expect("at least one set-up round"), seconds)
}

/// The timed pass: the set-ups, then the timed window of the last one,
/// untraced.
fn end_to_end(rec: &Recorder, args: &Args) -> Metrics {
    let (tuples, wall_s, setup_s) = if args.workload.is_service() {
        let ((plan, svc), setup_s) = set_up(|| service::prepare(rec, args, WORKERS, false));
        run::reset_peak_rss();
        let (w, _) = service::window(rec, args, &plan, svc, args.seconds);
        if plan.big.is_some() {
            let big_ms = stats::median(&rec.series("big_ms"));
            println!("# big tenant n={} p50 {big_ms:.3} ms", w.bigs.len());
        }
        (w.tuples, w.wall_s, setup_s)
    } else {
        let (prepared, setup_s) = set_up(|| single::prepare(rec, SpanId::NONE, args));
        run::reset_peak_rss();
        let (tuples, wall_s) = single::timed_window(rec, args, &prepared);
        (tuples, wall_s, setup_s)
    };
    let query_ms = rec.series("query_ms");
    let [q1, q2, q3] = stats::quartiles(&query_ms);
    println!(
        "# query_ms n={} quartiles {q1:.3} {q2:.3} {q3:.3} max {:.3}; set-ups {setup_s:.3?} s",
        query_ms.len(),
        query_ms.iter().copied().fold(0.0, f64::max)
    );
    Metrics::from([
        ("tuples_per_s", tuples as f64 / wall_s),
        ("query_ms_p50", stats::median(&query_ms)),
        ("peak_rss_mb", run::peak_rss_mb()),
        ("setup_s", stats::median(&setup_s)),
    ])
}

/// Prints `name value unit` lines, then the result object as the last line.
fn report(rec: &Recorder, table: &[(&str, &str)], metrics: &Metrics, complete: bool) -> bool {
    let (attempted, failed) = rec.counts();
    let correct = complete && attempted > 0 && rec.all_correct();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{"
    );
    let mut first = true;
    for (name, unit) in table {
        let Some(value) = metrics.get(name).copied().filter(|v| v.is_finite()) else {
            continue;
        };
        println!("{name} {value} {unit}");
        let sep = if first { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
        first = false;
    }
    println!(
        "failed_share {} share",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{json}}}}}");
    correct
}

fn write_trace(rec: &Recorder, args: &Args) {
    let path = args
        .out_dir
        .join(format!("{}.trace.json", args.workload.name()));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, rec.trace_json(args.workload.name())));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {:#x} workers {WORKERS} host-cpus {} seconds {} pass {}{}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, usize::from),
        args.seconds,
        if args.traced { "traced" } else { "timed" },
        if args.smoke { " (smoke size)" } else { "" },
    );
    let rec = Recorder::new(args.traced);
    let table: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    // The pass runs on a helper thread; this one is the watchdog. A query
    // past its deadline may never return (`JoinRunner::run_with` can block
    // forever), so the partial results are flushed from here and the
    // process exits without joining the helper.
    let (done, outcome) = mpsc::channel();
    let (rec, args) = (&rec, &args);
    let correct = std::thread::scope(|s| {
        // `done` moves into the helper, so its panic disconnects the channel.
        s.spawn(move || {
            let metrics = if args.traced {
                traced::per_layer(rec, args)
            } else {
                end_to_end(rec, args)
            };
            let _ = done.send(metrics);
        });
        loop {
            match outcome.recv_timeout(WATCHDOG_PERIOD) {
                Ok(metrics) => {
                    if args.traced {
                        write_trace(rec, args);
                    }
                    return report(rec, table, &metrics, true);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    eprintln!("the measuring thread panicked");
                    std::process::exit(1);
                }
            }
            if let Some(what) = rec.expired() {
                eprintln!("STALLED: {what} blew its deadline; flushing partial results");
                let partial =
                    Metrics::from([("query_ms_p50", stats::median(&rec.series("query_ms")))]);
                if args.traced {
                    write_trace(rec, args);
                }
                report(rec, table, &partial, false);
                std::process::exit(3);
            }
        }
    });
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse_args(&argv(&[
            "--workload",
            "spill-ooc",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workload, Workload::SpillOoc);
        assert_eq!((args.seed, args.seconds, args.traced), (7, 10.0, true));
        let args =
            parse_args(&argv(&["--workload", "expand-split", "--seed", "0xE41A"])).expect("valid");
        assert_eq!((args.seed, args.traced), (DEFAULT_SEED, false));
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "skew-overlay"],
            &["--workload", "spill-ooc", "--seconds", "0"],
            &["--workload", "spill-ooc", "--trace", "2"],
            &["--workload", "spill-ooc", "--seed"],
            &["--workload", "spill-ooc", "--frobnicate"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    /// Every workload, both passes, at 1/50 size: the output carries every
    /// metric of the pass's table, finite, and every query verified.
    #[test]
    fn smoke_all_workloads_both_passes() {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let args = Args {
                    workload,
                    seed: DEFAULT_SEED,
                    seconds: 0.6,
                    traced,
                    smoke: true,
                    out_dir: std::env::temp_dir(),
                };
                let rec = Recorder::new(traced);
                let (metrics, table): (Metrics, &[(&str, &str)]) = if traced {
                    (traced::per_layer(&rec, &args), &PER_LAYER)
                } else {
                    (end_to_end(&rec, &args), &END_TO_END)
                };
                let (attempted, failed) = rec.counts();
                assert!(attempted > 0, "{} ran no query", workload.name());
                assert_eq!(failed, 0, "{} had failures", workload.name());
                assert_eq!(metrics.len(), table.len());
                for (name, _) in table {
                    let value = metrics[name];
                    assert!(value.is_finite(), "{} {name} = {value}", workload.name());
                }
                if !traced {
                    assert!(metrics.values().all(|v| *v > 0.0), "{metrics:?}");
                }
                assert!(report(&rec, table, &metrics, true));
            }
        }
    }
}
