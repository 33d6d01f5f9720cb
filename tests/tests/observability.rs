//! End-to-end observability coverage: the Perfetto exporter driven
//! through the CLI (golden structural validation at a fixed seed), the
//! clock-labelled trace-summary view, and the metrics registry observed
//! under both backends — including the invariant that instrumentation
//! never perturbs simulated observables.

use ehj_cli::args::parse;
use ehj_cli::execute;
use ehj_core::{Algorithm, Backend, JoinConfig, JoinRunner, RunOptions};
use ehj_metrics::registry::names;
use ehj_metrics::{ClockKind, TRACE_SCHEMA};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn cli(line: &str) -> String {
    let args = parse(line.split_whitespace().map(str::to_owned)).expect("valid args");
    execute(&args).expect("command runs")
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ehj-obs-{}-{tag}", std::process::id()))
}

/// Pulls the value following `key` out of a single-line JSON object
/// (every exporter line is flat, so no nesting arises before the value).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', '"']).expect("delimited");
    &rest[..end]
}

#[test]
fn perfetto_export_is_structurally_valid_at_fixed_seed() {
    let out = temp("golden.json");
    let _ = cli(&format!(
        "run --scale 2000 --seed 7 --trace-level detail --perfetto-out {}",
        out.display()
    ));
    let json = std::fs::read_to_string(&out).expect("perfetto file written");
    let _ = std::fs::remove_file(&out);

    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    // The simulated backend must be labelled as virtual time.
    assert!(json.contains("ehjoin (virtual time)"));
    // Metadata names the scheduler track.
    assert!(json.contains("\"name\":\"scheduler 0\""));
    // The end-of-run metrics sample became counter tracks.
    assert!(json.contains("\"ph\":\"C\""));
    assert!(json.contains("arena occupancy (tuples)"));

    let mut depth_by_tid: BTreeMap<String, i64> = BTreeMap::new();
    let mut last_ts = -1.0f64;
    let mut events = 0usize;
    for line in json.lines().filter(|l| l.contains("\"ph\":\"")) {
        events += 1;
        // Required keys of the trace-event format.
        for key in ["\"name\":", "\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
            assert!(line.contains(key), "missing {key}: {line}");
        }
        let ts: f64 = field(line, "\"ts\":").parse().expect("numeric ts");
        assert!(ts >= 0.0, "negative ts: {line}");
        let ph = field(line, "\"ph\":\"");
        if ph != "M" {
            assert!(ts >= last_ts, "ts not monotone: {line}");
            last_ts = ts;
        }
        let tid = field(line, "\"tid\":").to_owned();
        match ph {
            "B" => *depth_by_tid.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth_by_tid.entry(tid.clone()).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "E before B on tid {tid}: {line}");
            }
            _ => {}
        }
    }
    assert!(events > 10, "a detail run must export many events");
    assert!(
        depth_by_tid.values().all(|d| *d == 0),
        "every B span must close: {depth_by_tid:?}"
    );
}

#[test]
fn trace_summary_reads_header_and_labels_the_clock() {
    let trace = temp("summary.jsonl");
    let _ = cli(&format!(
        "run --scale 2000 --seed 3 --trace-level summary --trace-out {}",
        trace.display()
    ));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        text.starts_with(&format!(
            "{{\"schema\":{TRACE_SCHEMA},\"clock\":\"virtual\"}}\n"
        )),
        "JSONL must lead with the schema-and-clock header"
    );
    let summary = cli(&format!("trace-summary {}", trace.display()));
    let _ = std::fs::remove_file(&trace);
    assert!(
        summary.contains("of virtual time"),
        "timeline axis must name the clock: {summary}"
    );
    assert!(summary.contains("lanes"));
}

#[test]
fn trace_summary_rejects_another_schema_naming_both_versions() {
    let run = |tag: &str, text: &str| {
        let path = temp(tag);
        std::fs::write(&path, text).expect("trace written");
        let args =
            parse(["trace-summary".to_owned(), path.display().to_string()]).expect("valid args");
        let result = execute(&args);
        let _ = std::fs::remove_file(&path);
        result
    };
    let event = "{\"t_ns\":1,\"node\":0,\"phase\":\"build\",\"kind\":\"phase_done\"}\n";
    // A file from before the schema was versioned declares only its clock.
    let old = run("old.jsonl", &format!("{{\"clock\":\"virtual\"}}\n{event}"));
    let err = old.expect_err("an unversioned trace is schema 1");
    assert!(
        err.contains("schema 1") && err.contains(&format!("schema {TRACE_SCHEMA}")),
        "{err}"
    );
    let next = TRACE_SCHEMA + 1;
    let newer = run(
        "newer.jsonl",
        &format!("{{\"schema\":{next},\"clock\":\"wall\"}}\n{event}"),
    );
    let err = newer.expect_err("a newer schema is rejected");
    assert!(err.contains(&format!("schema {next}")), "{err}");
    // A file must declare its schema before its first event.
    assert!(run("headless.jsonl", event).is_err());
    let ok = run(
        "current.jsonl",
        &format!("{}\n{event}", ClockKind::Wall.header_line()),
    );
    assert!(ok.expect("current schema").contains("of wall time"));
}

#[test]
fn registry_report_covers_every_instrumented_layer_threaded() {
    let mut cfg = JoinConfig::paper_scaled(Algorithm::Hybrid, 2000);
    cfg.r.seed = 11;
    cfg.s.seed = 12;
    let opts = RunOptions {
        backend: Backend::Threaded,
        threads: Some(2),
        ..RunOptions::default()
    };
    let report = JoinRunner::run_with(&cfg, &opts).expect("threaded run");
    let m = &report.metrics;
    assert!(!m.is_empty(), "threaded run must record metrics");
    let counter = |name: &str| {
        m.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .1
    };
    assert!(counter(names::EXEC_BUSY_NS) > 0, "workers did work");
    assert!(
        counter(names::NODE_BUILD_WHOLE_CHUNKS) > 0,
        "nodes appended owned chunks whole"
    );
    let hist_names: Vec<&str> = m.histograms.iter().map(|h| h.name.as_str()).collect();
    for required in [
        names::EXEC_MAILBOX_DEPTH,
        names::EXEC_COALESCE_BATCH,
        names::NODE_BUILD_NS,
        names::NODE_PROBE_NS,
        names::NODE_BATCH_TUPLES,
        names::TABLE_CHAIN_LEN,
    ] {
        assert!(
            hist_names.contains(&required),
            "missing histogram {required} in {hist_names:?}"
        );
    }
    for h in &m.histograms {
        assert!(h.count > 0, "empty histograms are dropped from the report");
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max);
    }
}

#[test]
fn metrics_do_not_perturb_simulated_observables() {
    let cfg = JoinConfig::paper_scaled(Algorithm::Split, 2000);
    let run = |metrics: bool| {
        let opts = RunOptions {
            metrics,
            ..RunOptions::default()
        };
        JoinRunner::run_with(&cfg, &opts).expect("simulated run")
    };
    let on = run(true);
    let off = run(false);
    assert!(!on.metrics.is_empty());
    assert!(off.metrics.is_empty(), "disabled registry reports nothing");
    // The whole point of the no-op gate: identical simulated observables.
    assert_eq!(on.matches, off.matches);
    assert_eq!(on.compares, off.compares);
    assert_eq!(on.net_bytes, off.net_bytes);
    assert_eq!(on.sim_events, off.sim_events);
    assert_eq!(on.times.total_secs, off.times.total_secs);
    assert_eq!(on.final_nodes, off.final_nodes);
}
