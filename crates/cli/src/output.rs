//! Report rendering for `ehjoin`: text, CSV and hand-emitted JSON (no
//! external JSON crate needed — the report is flat and numeric).

use ehj_core::JoinReport;
use ehj_metrics::{Phase, TextTable};
use std::fmt::Write as _;

/// Column headers shared by the CSV and comparison outputs.
pub const REPORT_COLUMNS: [&str; 14] = [
    "algorithm",
    "total_secs",
    "build_secs",
    "reshuffle_secs",
    "probe_secs",
    "matches",
    "initial_nodes",
    "final_nodes",
    "expansions",
    "spilled_nodes",
    "extra_build_chunks",
    "extra_probe_chunks",
    "net_bytes",
    "trace_events",
];

/// One report as a row of strings matching [`REPORT_COLUMNS`].
#[must_use]
pub fn report_row(r: &JoinReport) -> Vec<String> {
    vec![
        r.algorithm.label().to_owned(),
        format!("{:.4}", r.times.total_secs),
        format!("{:.4}", r.times.build_secs),
        format!("{:.4}", r.times.reshuffle_secs),
        format!("{:.4}", r.times.probe_secs),
        r.matches.to_string(),
        r.initial_nodes.to_string(),
        r.final_nodes.to_string(),
        r.expansions.to_string(),
        r.spilled_nodes.to_string(),
        r.extra_build_chunks().to_string(),
        r.extra_probe_chunks().to_string(),
        r.net_bytes.to_string(),
        r.trace.total.to_string(),
    ]
}

/// Renders one report as a human-readable block.
#[must_use]
pub fn render_text(r: &JoinReport) -> String {
    let load = r.load_stats();
    let mut out = String::new();
    let _ = writeln!(out, "algorithm            : {}", r.algorithm.label());
    // A simulated run always processed events; the threaded backend
    // reports zero and measures wall clock instead.
    let clock = if r.sim_events > 0 {
        "simulated"
    } else {
        "wall clock"
    };
    let _ = writeln!(
        out,
        "total execution time : {:.4}s ({clock})",
        r.times.total_secs
    );
    let _ = writeln!(out, "  build phase        : {:.4}s", r.times.build_secs);
    let _ = writeln!(out, "  reshuffle step     : {:.4}s", r.times.reshuffle_secs);
    let _ = writeln!(out, "  probe phase        : {:.4}s", r.times.probe_secs);
    let _ = writeln!(out, "matching pairs       : {}", r.matches);
    let _ = writeln!(
        out,
        "join nodes           : {} -> {} ({} recruited, {} spilled)",
        r.initial_nodes, r.final_nodes, r.expansions, r.spilled_nodes
    );
    let _ = writeln!(
        out,
        "extra communication  : build {} chunks, reshuffle {} chunks, probe {} chunks",
        r.extra_build_chunks(),
        r.comm.extra_chunks(Phase::Reshuffle),
        r.extra_probe_chunks()
    );
    let _ = writeln!(
        out,
        "load balance         : min {} / avg {:.0} / max {} tuples per node",
        load.min, load.avg, load.max
    );
    let _ = writeln!(
        out,
        "traffic              : {} network bytes, {} disk bytes, {} sim events",
        r.net_bytes, r.disk_bytes, r.sim_events
    );
    if !r.timeline.is_empty() {
        let _ = writeln!(out, "timeline             :");
        for ev in &r.timeline {
            let _ = writeln!(
                out,
                "  {:>10.4}s  {:<9} {}",
                ev.at_nanos as f64 / 1e9,
                ev.phase.name(),
                ev.kind.describe()
            );
        }
    }
    if !r.trace.is_empty() {
        let _ = writeln!(out);
        out.push_str(&ehj_metrics::trace_rollup_table(&r.trace).render());
    }
    if !r.metrics.is_empty() {
        let _ = writeln!(out);
        out.push_str(&ehj_metrics::metrics_report_table(&r.metrics).render());
    }
    out
}

/// Renders one report as CSV: header + one row, followed (when the
/// registry recorded anything) by a blank line and a metrics block with
/// the percentile table.
#[must_use]
pub fn render_csv(r: &JoinReport) -> String {
    let mut out = format!(
        "{}\n{}\n",
        REPORT_COLUMNS.join(","),
        report_row(r).join(",")
    );
    if !r.metrics.is_empty() {
        out.push('\n');
        out.push_str(&ehj_metrics::metrics_report_table(&r.metrics).to_csv());
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders one report as a flat JSON object (hand-emitted; all values are
/// numbers or short strings, so no escaping subtleties arise).
#[must_use]
pub fn render_json(r: &JoinReport) -> String {
    let load = r.load_stats();
    let mut out = String::from("{");
    let mut first = true;
    let mut field = |out: &mut String, key: &str, val: String| {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", json_escape(key), val);
    };
    field(
        &mut out,
        "algorithm",
        format!("\"{}\"", json_escape(r.algorithm.label())),
    );
    field(&mut out, "total_secs", format!("{:.6}", r.times.total_secs));
    field(&mut out, "build_secs", format!("{:.6}", r.times.build_secs));
    field(
        &mut out,
        "reshuffle_secs",
        format!("{:.6}", r.times.reshuffle_secs),
    );
    field(&mut out, "probe_secs", format!("{:.6}", r.times.probe_secs));
    field(
        &mut out,
        "split_time_secs",
        format!("{:.6}", r.split_time_secs),
    );
    field(&mut out, "matches", r.matches.to_string());
    field(&mut out, "compares", r.compares.to_string());
    field(&mut out, "initial_nodes", r.initial_nodes.to_string());
    field(&mut out, "final_nodes", r.final_nodes.to_string());
    field(&mut out, "expansions", r.expansions.to_string());
    field(&mut out, "spilled_nodes", r.spilled_nodes.to_string());
    field(&mut out, "build_tuples", r.build_tuples.to_string());
    field(&mut out, "probe_tuples", r.probe_tuples.to_string());
    field(
        &mut out,
        "extra_build_chunks",
        r.extra_build_chunks().to_string(),
    );
    field(
        &mut out,
        "extra_probe_chunks",
        r.extra_probe_chunks().to_string(),
    );
    field(&mut out, "load_min", load.min.to_string());
    field(&mut out, "load_avg", format!("{:.2}", load.avg));
    field(&mut out, "load_max", load.max.to_string());
    field(&mut out, "net_bytes", r.net_bytes.to_string());
    field(&mut out, "disk_bytes", r.disk_bytes.to_string());
    field(&mut out, "sim_events", r.sim_events.to_string());
    field(&mut out, "trace_events", r.trace.total.to_string());
    let timeline = r
        .timeline
        .iter()
        .map(|ev| {
            format!(
                "{{\"at_secs\":{:.6},\"phase\":\"{}\",\"event\":\"{}\"}}",
                ev.at_nanos as f64 / 1e9,
                ev.phase.name(),
                json_escape(&ev.kind.describe())
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    field(&mut out, "timeline", format!("[{timeline}]"));
    let counters = r
        .metrics
        .counters
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", json_escape(name)))
        .collect::<Vec<_>>()
        .join(",");
    let gauges = r
        .metrics
        .gauges
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", json_escape(name)))
        .collect::<Vec<_>>()
        .join(",");
    let histograms = r
        .metrics
        .histograms
        .iter()
        .map(|h| {
            format!(
                "{{\"name\":\"{}\",\"count\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                json_escape(&h.name),
                h.count,
                h.mean,
                h.p50,
                h.p90,
                h.p99,
                h.max
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    field(
        &mut out,
        "metrics",
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":[{histograms}]}}"
        ),
    );
    out.push('}');
    out
}

/// Renders a multi-run comparison as an aligned table.
#[must_use]
pub fn render_comparison(title: &str, reports: &[JoinReport]) -> String {
    let mut t = TextTable::new(title, &REPORT_COLUMNS);
    for r in reports {
        t.row(report_row(r));
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehj_core::{Algorithm, JoinConfig, JoinRunner};

    fn sample() -> JoinReport {
        let cfg = JoinConfig::paper_scaled(Algorithm::Hybrid, 2000);
        JoinRunner::run(&cfg).expect("join runs")
    }

    #[test]
    fn text_mentions_the_essentials() {
        let r = sample();
        let s = render_text(&r);
        assert!(s.contains("Hybrid"));
        assert!(s.contains("total execution time"));
        assert!(s.contains("load balance"));
    }

    #[test]
    fn csv_has_header_and_row() {
        let r = sample();
        let s = render_csv(&r);
        let blocks: Vec<&str> = s.split("\n\n").collect();
        let lines: Vec<&str> = blocks[0].lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "row width must match header"
        );
        // The default run records metrics, so a percentile block follows.
        assert_eq!(blocks.len(), 2, "expected a metrics block");
        assert!(blocks[1].contains("p99"));
        assert!(blocks[1].contains(ehj_metrics::registry::names::NODE_PROBE_NS));
    }

    #[test]
    fn text_and_json_carry_metrics() {
        let r = sample();
        assert!(!r.metrics.is_empty(), "default run records metrics");
        let text = render_text(&r);
        assert!(text.contains("metrics"));
        assert!(text.contains("p90"));
        let json = render_json(&r);
        assert!(json.contains("\"metrics\":{\"counters\":{"));
        assert!(json.contains("\"histograms\":[{\"name\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn json_is_structurally_sound() {
        let r = sample();
        let s = render_json(&r);
        assert!(s.starts_with('{') && s.ends_with('}'));
        // Braces balance (the timeline array nests one object per event).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert!(s.contains("\"timeline\":["));
        // Every column key appears.
        for key in ["algorithm", "total_secs", "matches", "final_nodes"] {
            assert!(s.contains(&format!("\"{key}\":")), "missing {key}");
        }
        // Balanced quotes.
        assert_eq!(s.matches('"').count() % 2, 0);
    }

    #[test]
    fn comparison_renders_all_rows() {
        let r = sample();
        let s = render_comparison("demo", &[r.clone(), r]);
        assert!(s.contains("demo"));
        assert_eq!(s.lines().count(), 2 + 2 + 1); // title + header + rule + rows
    }
}
