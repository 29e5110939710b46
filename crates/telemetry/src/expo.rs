//! Exposition: Prometheus text format, a JSON snapshot, and a
//! chrome://tracing trace-event export.
//!
//! All three renderers walk the fixed metric catalogue in
//! [`crate::metrics`] (and, for traces, a drained event slice), so
//! exposition never perturbs the hot paths beyond the atomic loads of
//! a snapshot.

use crate::clock;
use crate::journal::{Event, EventKind};
use crate::metrics;
use crate::registry::HistogramSnapshot;
use std::fmt::Write as _;

/// Schema tag of the JSON snapshot produced by [`json_snapshot`].
pub const SNAPSHOT_SCHEMA: &str = "regmon-telemetry-v1";

/// Schema tag embedded in trace exports (`otherData.schema`).
pub const TRACE_SCHEMA: &str = "regmon-trace-v1";

/// Clamp a float to something JSON can carry (no NaN/Inf tokens).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Render the whole registry in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` comments followed by samples,
/// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
/// `_count`.
#[must_use]
pub fn prometheus_text() -> String {
    let mut out = String::with_capacity(4096);
    for c in metrics::counters() {
        let _ = writeln!(out, "# HELP {} {}", c.name(), c.help());
        let _ = writeln!(out, "# TYPE {} counter", c.name());
        let _ = writeln!(out, "{} {}", c.name(), c.value());
    }
    for g in metrics::gauges() {
        let _ = writeln!(out, "# HELP {} {}", g.name(), g.help());
        let _ = writeln!(out, "# TYPE {} gauge", g.name());
        let _ = writeln!(out, "{} {}", g.name(), g.value());
    }
    for h in metrics::histograms() {
        let snap = h.snapshot();
        let _ = writeln!(out, "# HELP {} {}", h.name(), h.help());
        let _ = writeln!(out, "# TYPE {} histogram", h.name());
        let mut cumulative = 0u64;
        for (i, &count) in snap.buckets.iter().enumerate() {
            cumulative = cumulative.wrapping_add(count);
            match HistogramSnapshot::upper_bound(i) {
                Some(le) => {
                    let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cumulative}", h.name());
                }
                None => {
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {cumulative}", h.name());
                }
            }
        }
        let _ = writeln!(out, "{}_sum {}", h.name(), snap.sum);
        let _ = writeln!(out, "{}_count {}", h.name(), snap.count);
    }
    out
}

/// Render the registry (and journal high-level state) as one JSON
/// object, schema [`SNAPSHOT_SCHEMA`].
#[must_use]
pub fn json_snapshot() -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"enabled\":{},\"clock\":{{\"mode\":\"{}\",\"tick\":{}}}",
        crate::enabled(),
        clock::mode().name(),
        clock::tick()
    );
    out.push_str(",\"counters\":{");
    for (i, c) in metrics::counters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", c.name(), c.value());
    }
    out.push_str("},\"gauges\":{");
    for (i, g) in metrics::gauges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", g.name(), g.value());
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in metrics::histograms().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let snap = h.snapshot();
        let _ = write!(out, "\"{}\":{{\"buckets\":[", h.name());
        for (j, b) in snap.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        let _ = write!(out, "],\"count\":{},\"sum\":{}}}", snap.count, snap.sum);
    }
    let _ = write!(
        out,
        "}},\"journal\":{{\"recorded\":{}}}}}",
        crate::journal::recorded()
    );
    out
}

fn trace_args(out: &mut String, kind: &EventKind) {
    match *kind {
        EventKind::LpdTransition {
            region,
            from,
            to,
            r,
            rt,
            phase_change,
        } => {
            let _ = write!(
                out,
                "{{\"region\":{region},\"from\":\"{from}\",\"to\":\"{to}\",\"r\":{},\"rt\":{},\"phase_change\":{phase_change}}}",
                finite(r),
                finite(rt)
            );
        }
        EventKind::GpdTransition {
            from,
            to,
            drift,
            phase_change,
        } => {
            let _ = write!(
                out,
                "{{\"from\":\"{from}\",\"to\":\"{to}\",\"drift\":{},\"phase_change\":{phase_change}}}",
                finite(drift)
            );
        }
        EventKind::UcrBreach { ucr, threshold } => {
            let _ = write!(
                out,
                "{{\"ucr\":{},\"threshold\":{}}}",
                finite(ucr),
                finite(threshold)
            );
        }
        EventKind::RegionFormed { region } | EventKind::RegionEvicted { region } => {
            let _ = write!(out, "{{\"region\":{region}}}");
        }
        EventKind::Backpressure { shard, units } => {
            let _ = write!(out, "{{\"shard\":{shard},\"units\":{units}}}");
        }
        EventKind::QueueHighWater { shard, depth } => {
            let _ = write!(out, "{{\"shard\":{shard},\"depth\":{depth}}}");
        }
        EventKind::IntervalEnd { interval, ucr } => {
            let _ = write!(out, "{{\"interval\":{interval},\"ucr\":{}}}", finite(ucr));
        }
        EventKind::ChangePoint {
            region,
            metric,
            magnitude,
            confidence,
        } => {
            let _ = write!(
                out,
                "{{\"region\":{region},\"metric\":\"{metric}\",\"magnitude\":{},\"confidence\":{}}}",
                finite(magnitude),
                finite(confidence)
            );
        }
    }
}

/// Render drained journal events in the chrome://tracing trace-event
/// JSON format (object form). Each journal entry becomes a
/// thread-scoped instant event: `ts` is the virtual-clock timestamp,
/// `pid` the tenant, `tid` the region/shard track.
#[must_use]
pub fn trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(256 + events.len() * 160);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":",
            ev.kind.name(),
            ev.kind.category(),
            ev.tick,
            ev.tenant,
            ev.kind.track()
        );
        trace_args(&mut out, &ev.kind);
        out.push('}');
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"{TRACE_SCHEMA}\",\"clock\":\"{}\",\"events\":{}}}}}",
        clock::mode().name(),
        events.len()
    );
    out
}

/// Validate a Prometheus text exposition: every line must be a
/// well-formed `# HELP`/`# TYPE` comment or a `name[{labels}] value`
/// sample. Returns the number of samples.
///
/// # Errors
///
/// Returns the 1-based line number and reason for the first malformed
/// line.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let rest = parts.next().unwrap_or("");
            match keyword {
                "HELP" if valid_name(name) && !rest.is_empty() => {}
                "TYPE"
                    if valid_name(name)
                        && matches!(
                            rest,
                            "counter" | "gauge" | "histogram" | "summary" | "untyped"
                        ) => {}
                _ => return Err(format!("line {lineno}: malformed comment {line:?}")),
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no value in {line:?}"))?;
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {lineno}: unterminated labels in {line:?}"));
                }
                name
            }
            None => series,
        };
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad metric name in {line:?}"));
        }
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return Err(format!("line {lineno}: bad sample value in {line:?}"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal;
    use crate::registry::HISTOGRAM_BUCKETS;

    #[test]
    fn prometheus_text_self_validates() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        metrics::QUEUE_BATCH_UNITS.record(3);
        metrics::INTERVALS_PROCESSED.inc();
        let text = prometheus_text();
        crate::set_enabled(false);
        let samples = validate_prometheus(&text).expect("exposition must parse");
        // Every counter and gauge is one sample; every histogram is
        // BUCKETS + sum + count.
        let expected = metrics::counters().len()
            + metrics::gauges().len()
            + metrics::histograms().len() * (HISTOGRAM_BUCKETS + 2);
        assert_eq!(samples, expected);
        crate::reset();
    }

    #[test]
    fn durability_counters_round_trip_through_exposition() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        metrics::SERVE_RECOVERIES.inc();
        metrics::WAL_RECORDS.add(7);
        metrics::SEND_RETRIES.add(2);
        metrics::SERVE_TIMEOUTS.inc();
        metrics::SERVE_CONNS_SHED.inc();
        let text = prometheus_text();
        let snap = json_snapshot();
        crate::set_enabled(false);
        validate_prometheus(&text).expect("exposition must parse");
        for (name, value) in [
            ("regmon_serve_recoveries_total", "1"),
            ("regmon_wal_records_total", "7"),
            ("regmon_send_retries_total", "2"),
            ("regmon_serve_timeouts_total", "1"),
            ("regmon_serve_conns_shed_total", "1"),
        ] {
            assert!(
                text.contains(&format!("{name} {value}")),
                "{name} missing from exposition:\n{text}"
            );
            assert!(snap.contains(name), "{name} missing from JSON snapshot");
        }
        crate::reset();
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_prometheus("not a metric line").is_err());
        assert!(validate_prometheus("# HELP").is_err());
        assert!(validate_prometheus("name{le=\"1\" 3").is_err());
        assert!(validate_prometheus("9name 3").is_err());
        assert!(validate_prometheus("ok_total notanumber").is_err());
        assert_eq!(validate_prometheus("ok_total 3"), Ok(1));
    }

    #[test]
    fn json_snapshot_parses_back() {
        let _guard = crate::test_guard();
        let snap = json_snapshot();
        let v = crate::parse::parse(&snap).expect("snapshot must be valid JSON");
        assert_eq!(
            v.get("schema").and_then(crate::parse::JsonValue::as_str),
            Some(SNAPSHOT_SCHEMA)
        );
        assert!(v.get("counters").is_some());
        assert!(v.get("histograms").is_some());
    }

    #[test]
    fn trace_json_round_trips_every_event_kind() {
        let _guard = crate::test_guard();
        let kinds = [
            EventKind::LpdTransition {
                region: 3,
                from: "Stable",
                to: "Unstable",
                r: 0.41,
                rt: 0.5,
                phase_change: true,
            },
            EventKind::GpdTransition {
                from: "Stable",
                to: "Transition",
                drift: 0.12,
                phase_change: false,
            },
            EventKind::UcrBreach {
                ucr: 0.6,
                threshold: 0.4,
            },
            EventKind::RegionFormed { region: 9 },
            EventKind::RegionEvicted { region: 9 },
            EventKind::Backpressure { shard: 2, units: 8 },
            EventKind::QueueHighWater {
                shard: 2,
                depth: 32,
            },
            EventKind::IntervalEnd {
                interval: 17,
                ucr: 0.25,
            },
            EventKind::ChangePoint {
                region: u64::MAX,
                metric: "ucr",
                magnitude: 0.4,
                confidence: 0.984375,
            },
        ];
        let events: Vec<journal::Event> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| journal::Event {
                seq: i as u64,
                tick: 10 + i as u64,
                tenant: 1,
                kind,
            })
            .collect();
        let text = trace_json(&events);
        let v = crate::parse::parse(&text).expect("trace must be valid JSON");
        let arr = v
            .get("traceEvents")
            .and_then(crate::parse::JsonValue::as_array)
            .expect("traceEvents array");
        assert_eq!(arr.len(), kinds.len());
        for (ev, kind) in arr.iter().zip(&kinds) {
            assert_eq!(
                ev.get("name").and_then(crate::parse::JsonValue::as_str),
                Some(kind.name())
            );
            assert_eq!(
                ev.get("ph").and_then(crate::parse::JsonValue::as_str),
                Some("i")
            );
            assert!(ev
                .get("ts")
                .and_then(crate::parse::JsonValue::as_f64)
                .is_some());
            assert!(ev.get("args").is_some());
        }
        assert_eq!(
            v.get("otherData")
                .and_then(|o| o.get("schema"))
                .and_then(crate::parse::JsonValue::as_str),
            Some(TRACE_SCHEMA)
        );
    }
}
