//! # ehj-cli — the `ehjoin` command-line driver
//!
//! Turns command-line options into [`ehj_core::JoinConfig`]s, runs them on
//! the simulated cluster and renders reports as text, CSV or JSON:
//!
//! ```text
//! ehjoin run --algorithm split --sigma 0.0001 --initial-nodes 4 --verify
//! ehjoin compare --scale 200
//! ehjoin sweep initial-nodes --format csv
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod output;

use args::{Args, Command, Format};
use ehj_core::{
    expected_matches_for, Algorithm, Backend, JoinConfig, JoinError, JoinReport, JoinRunner,
    JoinService, RunOptions, ServiceConfig,
};
use ehj_data::Distribution;
use ehj_metrics::{ClockKind, RingSink, TraceEvent, TraceLevel, TRACE_SCHEMA};
use std::path::PathBuf;
use std::sync::Arc;

/// How many trace events the Perfetto export ring retains.
const PERFETTO_RING_EVENTS: usize = 1 << 20;

/// Builds the configuration an [`Args`] describes for `algorithm`.
#[must_use]
pub fn config_from_args(args: &Args, algorithm: Algorithm) -> JoinConfig {
    let mut cfg = JoinConfig::paper_scaled(algorithm, args.scale);
    if let Some(n) = args.r_tuples {
        cfg.r.tuples = n;
    }
    if let Some(n) = args.s_tuples {
        cfg.s.tuples = n;
    }
    if let Some(sigma) = args.sigma {
        let dist = Distribution::Gaussian { mean: 0.5, sigma };
        cfg.r.dist = dist;
        cfg.s.dist = dist;
    }
    if let Some(theta) = args.zipf {
        let dist = Distribution::Zipf { theta };
        cfg.r.dist = dist;
        cfg.s.dist = dist;
    }
    if args.hot_keys {
        cfg.hot_keys = ehj_core::HotKeyConfig::enabled();
    }
    if args.anti_matched {
        cfg.s.correlation = ehj_data::Correlation::AntiMatched;
    }
    if let Some(n) = args.initial_nodes {
        cfg.initial_nodes = n;
    }
    if let Some(p) = args.payload {
        cfg.r = cfg.r.with_payload(p);
        cfg.s = cfg.s.with_payload(p);
    }
    if let Some(seed) = args.seed {
        cfg.r.seed = seed;
        cfg.s.seed = seed ^ 0x0BAD_CAFE;
    }
    cfg
}

/// The execution options an [`Args`] describes: backend, worker count,
/// tracing and metrics — the same for `run`, `compare` and `sweep`.
#[must_use]
pub fn run_options(args: &Args) -> RunOptions {
    RunOptions {
        backend: args.backend,
        threads: args.threads,
        trace_level: args.trace_level,
        trace_out: args.trace_out.as_ref().map(PathBuf::from),
        metrics: !args.no_metrics,
        ..RunOptions::default()
    }
}

/// Runs one configuration with the given execution options, optionally
/// verifying against the oracle.
///
/// # Errors
/// Propagates [`JoinError`]; verification failures become
/// [`JoinError::Config`] with an explanatory message.
pub fn run_one(cfg: &JoinConfig, verify: bool, opts: &RunOptions) -> Result<JoinReport, JoinError> {
    let report = JoinRunner::run_with(cfg, opts)?;
    if verify {
        let expect = expected_matches_for(cfg);
        if report.matches != expect {
            return Err(JoinError::Config(format!(
                "verification FAILED: {} matches, reference says {expect}",
                report.matches
            )));
        }
    }
    Ok(report)
}

/// Executes a parsed command line, returning the full output text.
///
/// # Errors
/// Returns a printable error message.
pub fn execute(args: &Args) -> Result<String, String> {
    match &args.command {
        Command::Help => Ok(args::USAGE.to_owned()),
        Command::Run => {
            let cfg = config_from_args(args, args.algorithm);
            let mut opts = run_options(args);
            let perfetto_ring = args.perfetto_out.as_ref().map(|_| {
                // The exporter needs the events; tracing must be on.
                if opts.trace_level == TraceLevel::Off {
                    opts.trace_level = TraceLevel::Summary;
                }
                let ring = Arc::new(RingSink::new(PERFETTO_RING_EVENTS));
                opts.extra_sinks.push(ring.clone());
                ring
            });
            let report = run_one(&cfg, args.verify, &opts).map_err(|e| e.to_string())?;
            if let (Some(path), Some(ring)) = (&args.perfetto_out, perfetto_ring) {
                let clock = Some(args.backend.clock());
                let json = ehj_metrics::chrome_trace_json(&ring.tail(), clock);
                std::fs::write(path, json)
                    .map_err(|e| format!("cannot write perfetto output {path}: {e}"))?;
            }
            Ok(match args.format {
                Format::Text => output::render_text(&report),
                Format::Csv => output::render_csv(&report),
                Format::Json => output::render_json(&report),
            })
        }
        Command::Compare => {
            let opts = run_options(args);
            let mut reports = Vec::new();
            for alg in Algorithm::ALL {
                let cfg = config_from_args(args, alg);
                reports.push(run_one(&cfg, args.verify, &opts).map_err(|e| e.to_string())?);
            }
            let title = format!("all algorithms, scale 1/{}", args.scale);
            Ok(render_list(args.format, &title, &reports))
        }
        Command::Sweep { axis } => sweep(args, axis),
        Command::Service => service(args),
        Command::TraceSummary { path } => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace file {path}: {e}"))?;
            trace_summary(&text)
        }
    }
}

/// Renders several reports as one JSON array, one CSV table or the text
/// comparison headed by `title`.
fn render_list(format: Format, title: &str, reports: &[JoinReport]) -> String {
    match format {
        Format::Json => {
            let objects: Vec<String> = reports.iter().map(output::render_json).collect();
            format!("[{}]", objects.join(","))
        }
        Format::Csv => {
            let mut out = output::REPORT_COLUMNS.join(",");
            out.push('\n');
            for r in reports {
                out.push_str(&output::report_row(r).join(","));
                out.push('\n');
            }
            out
        }
        Format::Text => output::render_comparison(title, reports),
    }
}

/// Renders the `trace-summary` view of a JSONL trace: per-node timeline
/// lanes plus the per-kind rollup table.
///
/// # Errors
/// Returns a message when the first line is not a header of schema
/// [`TRACE_SCHEMA`] (naming both versions when it is another schema's) or
/// any later non-empty line fails to parse.
pub fn trace_summary(jsonl: &str) -> Result<String, String> {
    let mut lines = jsonl
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty());
    // The runner stamps the file with one schema-and-clock header.
    let clock = match lines.next() {
        None => None,
        Some((lineno, line)) => {
            let (schema, clock) = ClockKind::parse_header_line(line)
                .ok_or_else(|| format!("line {}: not a trace header: {line}", lineno + 1))?;
            if schema != TRACE_SCHEMA {
                return Err(format!(
                    "trace file has schema {schema}; this build reads schema {TRACE_SCHEMA}"
                ));
            }
            Some(clock)
        }
    };
    let mut events = Vec::new();
    let mut rollup = ehj_metrics::TraceRollup::default();
    for (lineno, line) in lines {
        let ev = TraceEvent::from_json_line(line)
            .ok_or_else(|| format!("line {}: not a trace event: {line}", lineno + 1))?;
        rollup.note(&ev);
        events.push(ev);
    }
    let mut out = ehj_metrics::render_trace_lanes_clocked(&events, 72, clock);
    if !rollup.is_empty() {
        out.push('\n');
        out.push_str(&ehj_metrics::trace_rollup_table(&rollup).render());
    }
    Ok(out)
}

fn sweep(args: &Args, axis: &str) -> Result<String, String> {
    let opts = run_options(args);
    let run = |a: &Args| {
        let cfg = config_from_args(a, args.algorithm);
        run_one(&cfg, args.verify, &opts).map_err(|e| e.to_string())
    };
    let mut reports: Vec<JoinReport> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    match axis {
        "initial-nodes" => {
            for init in [1usize, 2, 4, 8, 16] {
                let mut a = args.clone();
                a.initial_nodes = Some(init);
                reports.push(run(&a)?);
                labels.push(format!("initial={init}"));
            }
        }
        "skew" => {
            for sigma in [None, Some(0.001), Some(0.0001)] {
                let mut a = args.clone();
                a.sigma = sigma;
                reports.push(run(&a)?);
                labels.push(match sigma {
                    None => "uniform".to_owned(),
                    Some(s) => format!("sigma={s}"),
                });
            }
        }
        "size" => {
            for mult in [1u64, 2, 4, 8] {
                let mut a = args.clone();
                let base = config_from_args(args, args.algorithm);
                a.r_tuples = Some(base.r.tuples * mult);
                a.s_tuples = Some(base.s.tuples * mult);
                reports.push(run(&a)?);
                labels.push(format!("{}x", mult));
            }
        }
        other => return Err(format!("unknown sweep axis '{other}'")),
    }
    match args.format {
        Format::Json => Ok(render_list(Format::Json, "", &reports)),
        _ => {
            let mut t = ehj_metrics::TextTable::new(
                format!(
                    "{} sweep over {axis} (scale 1/{})",
                    args.algorithm.label(),
                    args.scale
                ),
                &["case", "total_secs", "build_secs", "final_nodes", "matches"],
            );
            for (label, r) in labels.iter().zip(&reports) {
                t.row(vec![
                    label.clone(),
                    format!("{:.4}", r.times.total_secs),
                    format!("{:.4}", r.times.build_secs),
                    r.final_nodes.to_string(),
                    r.matches.to_string(),
                ]);
            }
            Ok(if args.format == Format::Csv {
                t.to_csv()
            } else {
                t.render()
            })
        }
    }
}

/// Runs the `service` command: a batch of concurrent mixed-algorithm
/// queries on one [`JoinService`]. The simulated backend interleaves all
/// queries deterministically in one engine; the threaded backend admits
/// them onto one shared worker pool and reports wall-clock throughput.
fn service(args: &Args) -> Result<String, String> {
    let cfgs: Vec<JoinConfig> = (0..args.queries)
        .map(|i| {
            let mut cfg = config_from_args(args, Algorithm::ALL[i % Algorithm::ALL.len()]);
            if !args.weights.is_empty() {
                cfg.tenant_weight = args.weights[i % args.weights.len()];
            }
            cfg
        })
        .collect();
    let (reports, summary) = match args.backend {
        Backend::Simulated => {
            let results = JoinService::run_interleaved(&cfgs).map_err(|e| e.to_string())?;
            let mut reports = Vec::with_capacity(results.len());
            for (i, (cfg, result)) in cfgs.iter().zip(results).enumerate() {
                let report =
                    result.map_err(|e| format!("query {i} ({}): {e}", cfg.algorithm.label()))?;
                check_matches(args, i, cfg, &report)?;
                reports.push(report);
            }
            let title = format!(
                "service: {} interleaved queries (simulated, scale 1/{})",
                reports.len(),
                args.scale
            );
            (reports, title)
        }
        Backend::Threaded => {
            let service = JoinService::start(ServiceConfig {
                workers: args.threads.unwrap_or(0),
                memory_budget_bytes: args.memory_budget,
                trace_level: args.trace_level,
                metrics: !args.no_metrics,
                ..ServiceConfig::default()
            });
            let started = std::time::Instant::now();
            let mut handles = Vec::with_capacity(cfgs.len());
            for (i, cfg) in cfgs.iter().enumerate() {
                let handle = service
                    .submit(cfg)
                    .map_err(|e| format!("query {i} ({}): {e}", cfg.algorithm.label()))?;
                handles.push(handle);
            }
            let mut reports = Vec::with_capacity(handles.len());
            for (i, (cfg, handle)) in cfgs.iter().zip(handles).enumerate() {
                let report = service
                    .wait(handle)
                    .map_err(|e| format!("query {i} ({}): {e}", cfg.algorithm.label()))?;
                check_matches(args, i, cfg, &report)?;
                reports.push(report);
            }
            let wall = started.elapsed().as_secs_f64().max(f64::EPSILON);
            service.shutdown();
            let mut latencies: Vec<f64> = reports.iter().map(|r| r.times.total_secs).collect();
            latencies.sort_by(f64::total_cmp);
            let title = format!(
                "service: {} concurrent queries (threaded, {:.1} q/s, p50 {:.1} ms, p99 {:.1} ms)",
                reports.len(),
                reports.len() as f64 / wall,
                nearest_rank(&latencies, 50.0) * 1e3,
                nearest_rank(&latencies, 99.0) * 1e3,
            );
            (reports, title)
        }
    };
    Ok(render_list(args.format, &summary, &reports))
}

/// Enforces `--verify` for one service query.
fn check_matches(
    args: &Args,
    index: usize,
    cfg: &JoinConfig,
    report: &JoinReport,
) -> Result<(), String> {
    if args.verify {
        let expect = expected_matches_for(cfg);
        if report.matches != expect {
            return Err(format!(
                "query {index} ({}) verification FAILED: {} matches, reference says {expect}",
                cfg.algorithm.label(),
                report.matches
            ));
        }
    }
    Ok(())
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        args::parse(s.split_whitespace().map(str::to_owned)).expect("valid args")
    }

    #[test]
    fn run_command_produces_text() {
        let a = parse("run --scale 2000 --verify");
        let out = execute(&a).expect("runs");
        assert!(out.contains("Hybrid"));
        assert!(out.contains("total execution time"));
    }

    #[test]
    fn compare_runs_all_four() {
        let a = parse("compare --scale 2000");
        let out = execute(&a).expect("runs");
        for label in ["Replicated", "Split", "Hybrid", "Out of Core"] {
            assert!(out.contains(label), "missing {label}");
        }
    }

    #[test]
    fn sweep_skew_emits_three_rows() {
        let a = parse("sweep skew --scale 2000 --format csv");
        let out = execute(&a).expect("runs");
        assert_eq!(out.lines().count(), 4); // header + 3 cases
        assert!(out.contains("uniform"));
        assert!(out.contains("sigma=0.0001"));
    }

    #[test]
    fn json_run_is_parseable_shape() {
        let a = parse("run --scale 2000 --format json");
        let out = execute(&a).expect("runs");
        assert!(out.starts_with('{') && out.trim_end().ends_with('}'));
    }

    #[test]
    fn verify_catches_nothing_on_correct_runs() {
        let a = parse("run --scale 2000 --algorithm split --verify");
        assert!(execute(&a).is_ok());
    }

    #[test]
    fn threaded_backend_runs_from_the_cli() {
        let a = parse("run --scale 2000 --backend threaded --threads 2 --verify");
        let out = execute(&a).expect("threaded run");
        assert!(out.contains("total execution time"));
    }

    #[test]
    fn compare_and_sweep_honour_the_backend() {
        // Both used to run on the simulator whatever `--backend` said; a
        // threaded report counts no simulator events.
        let idle = |out: &str| out.matches("\"sim_events\":0").count();
        let line = "compare --scale 2000 --backend threaded --threads 2 --verify --format json";
        assert_eq!(idle(&execute(&parse(line)).expect("threaded compare")), 4);
        let sim = execute(&parse("compare --scale 2000 --format json")).expect("simulated");
        assert_eq!(idle(&sim), 0, "{sim}");
        let line = "sweep skew --scale 2000 --backend threaded --threads 2 --format json";
        assert_eq!(idle(&execute(&parse(line)).expect("threaded sweep")), 3);
    }

    #[test]
    fn bad_distribution_parameters_are_config_errors_on_both_backends() {
        // They used to pass validation: the simulator panicked in the
        // sampler, and on the pool a worker panicked and the run hung.
        for line in [
            "run --scale 1000 --zipf 0",
            "run --scale 1000 --zipf -1",
            "run --scale 1000 --sigma 0",
            "run --scale 1000 --zipf 0 --backend threaded --threads 2",
            "run --scale 1000 --sigma 0 --backend threaded --threads 2",
            "service --scale 1000 --queries 2 --zipf 0 --backend threaded --threads 2",
        ] {
            let err = execute(&parse(line)).expect_err(line);
            assert!(err.contains("invalid configuration"), "{line}: {err}");
        }
    }

    #[test]
    fn trace_out_with_tracing_off_is_an_error_not_a_missing_file() {
        let path = std::env::temp_dir().join(format!("ehj-cli-off-{}.jsonl", std::process::id()));
        let line = format!(
            "run --scale 2000 --trace-level off --trace-out {}",
            path.display()
        );
        let err = execute(&parse(&line)).expect_err("nothing would be written");
        assert!(
            err.contains("--trace-out") && err.contains("--trace-level off"),
            "{err}"
        );
        assert!(!path.exists());
    }

    #[test]
    fn service_command_interleaves_simulated_queries() {
        let a = parse("service --queries 4 --scale 2000 --verify");
        let out = execute(&a).expect("service batch");
        assert!(out.contains("interleaved queries"));
        for label in ["Replicated", "Split", "Hybrid", "Out of Core"] {
            assert!(out.contains(label), "missing {label}");
        }
    }

    #[test]
    fn service_command_runs_threaded_pool() {
        let a = parse("service --queries 4 --scale 2000 --backend threaded --threads 2 --verify");
        let out = execute(&a).expect("service batch");
        assert!(out.contains("concurrent queries"));
        assert!(out.contains("q/s"));
    }

    #[test]
    fn hot_keys_flag_flows_into_config() {
        let a = parse("run --zipf 0.9 --hot-keys");
        let cfg = config_from_args(&a, Algorithm::Hybrid);
        assert!(cfg.hot_keys.enabled);
        assert!(
            !config_from_args(&parse("run"), Algorithm::Hybrid)
                .hot_keys
                .enabled
        );
    }

    #[test]
    fn anti_matched_flag_flows_into_s_spec() {
        let cfg = config_from_args(&parse("run --zipf 0.9 --anti-matched"), Algorithm::Split);
        assert_eq!(cfg.s.correlation, ehj_data::Correlation::AntiMatched);
        assert_eq!(cfg.r.correlation, ehj_data::Correlation::Matched);
        let plain = config_from_args(&parse("run --zipf 0.9"), Algorithm::Split);
        assert_eq!(plain.s.correlation, ehj_data::Correlation::Matched);
    }

    #[test]
    fn anti_matched_run_verifies_under_zipf() {
        let a = parse("run --scale 2000 --algorithm hybrid --zipf 0.9 --anti-matched --verify");
        let out = execute(&a).expect("anti-matched run verifies");
        assert!(out.contains("total execution time"));
    }

    #[test]
    fn hot_key_run_verifies_under_heavy_zipf() {
        let a = parse("run --scale 2000 --algorithm split --zipf 1.2 --hot-keys --verify");
        let out = execute(&a).expect("skew-routed run verifies");
        assert!(out.contains("total execution time"));
    }

    #[test]
    fn overrides_flow_into_config() {
        let a = parse("run --scale 100 --r-tuples 123 --s-tuples 456 --payload 200 --initial-nodes 7 --seed 9");
        let cfg = config_from_args(&a, Algorithm::Split);
        assert_eq!(cfg.r.tuples, 123);
        assert_eq!(cfg.s.tuples, 456);
        assert_eq!(cfg.schema().tuple_bytes(), 216);
        assert_eq!(cfg.initial_nodes, 7);
        assert_eq!(cfg.r.seed, 9);
    }
}
