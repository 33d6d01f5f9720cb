//! Chrome trace-event (Perfetto) JSON export of a run's trace stream.
//!
//! [`chrome_trace_json`] turns the flat [`TraceEvent`] stream — collected
//! by any sink, typically a large ring attached via `extra_sinks` — into
//! the JSON Array Format that `chrome://tracing` and ui.perfetto.dev
//! load directly:
//!
//! * one **phase span** (`"ph":"B"` / `"ph":"E"` pair) per actor per phase
//!   that saw events, clipped to be sequential per actor so the span
//!   nesting is always balanced;
//! * one **instant event** (`"ph":"i"`) per trace event, carrying the
//!   human-readable description in `args` — steals, splits, spills and
//!   stop reasons land on their emitting actor's track;
//! * **counter tracks** (`"ph":"C"`) from [`TraceKind::MetricsSample`]
//!   events, one per [`SAMPLED`] row under its label, rendered by the UIs
//!   as stacked area charts.
//!
//! Timestamps are microseconds (the trace-event unit) converted from the
//! run's nanosecond stamps; the clock that produced them is recorded in
//! the process name so a virtual-time simulated trace is not mistaken for
//! wall time.

use crate::monitor::SAMPLED;
use crate::trace::{lane_marker, ClockKind, TraceEvent, TraceKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON double-quoted literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microseconds (trace-event unit) from a nanosecond stamp.
fn us(nanos: u64) -> f64 {
    nanos as f64 / 1000.0
}

/// Renders `events` as Chrome trace-event JSON (array format wrapped in an
/// object, one event per line). `clock` labels which clock stamped
/// `at_nanos`; pass `None` when unknown.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent], clock: Option<ClockKind>) -> String {
    // (sort key ts, line). Stable sort keeps B-before-E at equal stamps.
    let mut lines: Vec<(f64, String)> = Vec::new();

    // Per-(actor, phase) span extents.
    let mut spans: BTreeMap<u32, BTreeMap<usize, (u64, u64)>> = BTreeMap::new();
    for ev in events {
        let (min, max) = spans
            .entry(ev.node)
            .or_default()
            .entry(ev.phase.index())
            .or_insert((ev.at_nanos, ev.at_nanos));
        *min = (*min).min(ev.at_nanos);
        *max = (*max).max(ev.at_nanos);
    }
    for (node, phases) in &spans {
        // Phases run in index order on every actor; clip each span to
        // start no earlier than the previous one ended, so the B/E pairs
        // on one track are sequential and therefore always balanced.
        let mut prev_end = 0u64;
        let mut first = true;
        for (phase_idx, (min, max)) in phases {
            let start = if first { *min } else { (*min).max(prev_end) };
            let end = (*max).max(start);
            first = false;
            prev_end = end;
            let name = crate::phases::Phase::ALL[*phase_idx].name();
            lines.push((
                us(start),
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"B\",\"ts\":{:.3},\
                     \"pid\":1,\"tid\":{node}}}",
                    us(start)
                ),
            ));
            lines.push((
                us(end),
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"E\",\"ts\":{:.3},\
                     \"pid\":1,\"tid\":{node}}}",
                    us(end)
                ),
            ));
        }
    }

    for ev in events {
        let ts = us(ev.at_nanos);
        if let TraceKind::MetricsSample { values, .. } = &ev.kind {
            for (s, value) in SAMPLED.iter().zip(values.iter()) {
                lines.push((
                    ts,
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":1,\
                         \"tid\":{},\"args\":{{\"value\":{value}}}}}",
                        s.label, ev.node
                    ),
                ));
            }
            continue;
        }
        lines.push((
            ts,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{ts:.3},\"pid\":1,\"tid\":{},\"args\":{{\"marker\":\"{}\",\
                 \"desc\":\"{}\"}}}}",
                ev.kind.name(),
                ev.node,
                lane_marker(&ev.kind),
                esc(&ev.kind.describe())
            ),
        ));
    }

    lines.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite ts"));

    let clock_label = clock.map_or("unlabelled clock", ClockKind::axis_label);
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = writeln!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"ehjoin ({})\"}}}},",
        esc(clock_label)
    );
    for node in spans.keys() {
        let role = if *node == 0 { "scheduler" } else { "actor" };
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,\"tid\":{node},\
             \"args\":{{\"name\":\"{role} {node}\"}}}},"
        );
    }
    for (i, (_, line)) in lines.iter().enumerate() {
        let comma = if i + 1 == lines.len() { "" } else { "," };
        let _ = writeln!(out, "{line}{comma}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::SAMPLE_WIDTH;
    use crate::phases::Phase;

    fn ev(at: u64, node: u32, phase: Phase, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at_nanos: at,
            node,
            phase,
            kind,
        }
    }

    #[test]
    fn spans_balance_and_ts_is_monotone() {
        let events = vec![
            ev(100, 3, Phase::Build, TraceKind::NodeFull),
            ev(900, 3, Phase::Build, TraceKind::PhaseDone),
            // Probe events starting before the last build stamp must not
            // produce overlapping spans on the same track.
            ev(500, 3, Phase::Probe, TraceKind::PhaseDone),
            ev(2000, 3, Phase::Probe, TraceKind::PhaseDone),
            ev(
                1500,
                0,
                Phase::Probe,
                TraceKind::MetricsSample {
                    seq: 0,
                    values: Box::new([1; SAMPLE_WIDTH]),
                },
            ),
        ];
        let json = chrome_trace_json(&events, Some(ClockKind::Virtual));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("virtual time"));
        // One counter track per sampled instrument, under its label.
        for s in SAMPLED {
            assert!(json.contains(&format!("\"name\":\"{}\"", s.label)));
        }
        assert_eq!(json.matches("\"ph\":\"C\"").count(), SAMPLE_WIDTH);
        let mut depth_by_tid: BTreeMap<&str, i64> = BTreeMap::new();
        let mut last_ts = -1.0f64;
        for line in json.lines().filter(|l| l.contains("\"ph\":\"")) {
            let field = |key: &str| -> &str {
                let start = line.find(key).expect(key) + key.len();
                let rest = &line[start..];
                let end = rest.find([',', '}', '"']).expect("delimited");
                &rest[..end]
            };
            let ts: f64 = field("\"ts\":").parse().expect("ts");
            assert!(ts >= 0.0);
            let ph = field("\"ph\":\"");
            if ph != "M" {
                assert!(ts >= last_ts, "ts went backwards: {line}");
                last_ts = ts;
            }
            let tid = field("\"tid\":");
            match ph {
                "B" => *depth_by_tid.entry(tid).or_insert(0) += 1,
                "E" => {
                    let d = depth_by_tid.entry(tid).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "E without B: {line}");
                }
                _ => {}
            }
        }
        assert!(depth_by_tid.values().all(|d| *d == 0), "unbalanced spans");
    }

    #[test]
    fn empty_stream_renders_valid_shell() {
        let json = chrome_trace_json(&[], None);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
