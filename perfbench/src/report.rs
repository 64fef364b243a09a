//! Metric names, units, and the result lines a run prints.
//!
//! The last stdout line of a run is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed`, and `metrics`. Its metrics are
//! [`END_TO_END`] for an untraced run and [`PER_LAYER`] for a traced
//! one, on every workload, so both lists hold only metrics every
//! workload can measure. [`DETAIL`] metrics apply to some workloads
//! only (or can be zero by construction); they are printed on the
//! lines before the JSON object. README.md maps each to the end-to-end
//! metric it should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("msgs_per_s", "msg/s"),
    ("wall_s", "s"),
    ("cpu_ns_per_msg", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gq.produce_ns_per_msg", "ns"),
    ("gq.consume_ns_per_msg", "ns"),
    ("gq.producer_blocked_frac", "ratio"),
    ("gq.producer_spins_per_slot", "ratio"),
    ("gq.empty_poll_frac", "ratio"),
    ("gq.pool_hit_frac", "ratio"),
    ("pgas.pack_ns_per_msg", "ns"),
    ("pgas.seal_ns_per_kib", "ns"),
    ("pgas.open_ns_per_kib", "ns"),
    ("pgas.apply_ns_per_msg", "ns"),
    ("pgas.avg_packet_bytes", "B"),
    ("pgas.timeout_flush_frac", "ratio"),
    ("net.send_ns_per_pkt", "ns"),
    ("net.recv_ns_per_pkt", "ns"),
    ("gravel.chan_stalls_per_kpkt", "1/kpkt"),
    ("gravel.window_stalls_per_kpkt", "1/kpkt"),
    ("gravel.retransmits", "count"),
    ("gravel.agg_apply_p50_us", "us"),
    ("gravel.agg_apply_p99_us", "us"),
    ("gravel.quiesce_tail_ms", "ms"),
    ("gravel.rpc_credit_stalls", "count"),
    ("gravel.rpc_timeouts", "count"),
    ("trace.agg.drain_self_ms", "ms"),
    ("trace.agg.flush_self_ms", "ms"),
    ("trace.net.apply_self_ms", "ms"),
    ("simt.offload_ns_per_msg", "ns"),
    ("node.fwd_ns_per_msg", "ns"),
    ("node.rebuild_ns_per_msg", "ns"),
    ("telemetry.trace_overhead_frac", "ratio"),
];

/// Metrics printed before the JSON object only: `(name, unit)`.
const DETAIL: &[(&str, &str)] = &[
    ("ops_failed_frac", "ratio"),
    ("rounds", "count"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("get_samples", "count"),
    ("gravel.iter_ms_p50", "ms"),
    ("node.startup_s", "s"),
    ("node.fwd_per_packet", "ratio"),
    ("node.retransmits", "count"),
    ("node.link_drops", "count"),
    ("node.deadline_misses", "count"),
    ("trace.gq.offload_self_ms", "ms"),
    ("trace.agg.retransmit_self_ms", "ms"),
    ("trace.dropped_spans", "count"),
    ("host.cpu_steal_frac", "ratio"),
];

/// Unit of a known metric name.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(DETAIL)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output checked matched its reference.
    pub correct: bool,
    /// Operations attempted (messages and GETs).
    pub attempted: u64,
    /// Operations not applied by their deadline, GET errors, and
    /// operations whose output mismatched.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record `name`; it must be declared in one of the lists above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// The human-readable lines: every metric this run measured.
pub fn human_lines(workload: &str, out: &Outcome) -> String {
    let mut s = String::new();
    for (name, value) in &out.metrics {
        let _ = writeln!(
            s,
            "{workload:>14}  {name:<32} {value:>16.6} {}",
            unit_of(name)
        );
    }
    s
}

/// The final JSON line: `names` (END_TO_END or PER_LAYER) from `out`.
/// Panics if one is missing — a run must measure all of them.
pub fn json_line(out: &Outcome, names: &[(&str, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            fmt_num(*v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed
    )
}

/// A finite JSON number with all its digits.
fn fmt_num(v: f64) -> String {
    format!("{:?}", if v.is_finite() { v } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(list: &serde::Value) -> Vec<(String, String)> {
        match list {
            serde::Value::Array(items) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect(),
            other => panic!("not a list: {other:?}"),
        }
    }

    /// The names this benchmark prints are the ones BENCHMARK.json
    /// declares, with the same units.
    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |l: &[(&str, &str)]| {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(declared(doc.get("end_to_end").unwrap()), own(END_TO_END));
        assert_eq!(declared(doc.get("per_layer").unwrap()), own(PER_LAYER));
    }

    /// Every metric the benchmark's specification names is printed,
    /// either in the JSON object or on the lines before it.
    #[test]
    fn every_specified_metric_is_printed() {
        let spec = [
            "setup_s",
            "msgs_per_s",
            "wall_s",
            "cpu_ns_per_msg",
            "get_p50_us",
            "get_p99_us",
            "ops_failed_frac",
            "peak_rss_mib",
            "gq.produce_ns_per_msg",
            "gq.consume_ns_per_msg",
            "gq.producer_blocked_frac",
            "gq.producer_spins_per_slot",
            "gq.empty_poll_frac",
            "gq.pool_hit_frac",
            "pgas.pack_ns_per_msg",
            "pgas.seal_ns_per_kib",
            "pgas.open_ns_per_kib",
            "pgas.apply_ns_per_msg",
            "pgas.avg_packet_bytes",
            "pgas.timeout_flush_frac",
            "net.send_ns_per_pkt",
            "net.recv_ns_per_pkt",
            "gravel.chan_stalls_per_kpkt",
            "gravel.window_stalls_per_kpkt",
            "gravel.retransmits",
            "gravel.agg_apply_p50_us",
            "gravel.agg_apply_p99_us",
            "gravel.quiesce_tail_ms",
            "gravel.iter_ms_p50",
            "gravel.rpc_credit_stalls",
            "gravel.rpc_timeouts",
            "trace.gq.offload_self_ms",
            "trace.agg.drain_self_ms",
            "trace.agg.flush_self_ms",
            "trace.agg.retransmit_self_ms",
            "trace.net.apply_self_ms",
            "simt.offload_ns_per_msg",
            "node.startup_s",
            "node.fwd_per_packet",
            "node.retransmits",
            "node.link_drops",
            "node.deadline_misses",
            "telemetry.trace_overhead_frac",
        ];
        for name in spec {
            unit_of(name);
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Default::default()
        };
        for (n, _) in END_TO_END {
            out.set(n, 1.5);
        }
        let line = json_line(&out, END_TO_END);
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("msgs_per_s").unwrap();
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some("msg/s"));
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn json_line_refuses_a_missing_metric() {
        json_line(&Outcome::default(), END_TO_END);
    }
}
