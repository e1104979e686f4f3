//! The metric catalogue and the result line.

use crate::layers::kind_name;
use airfinger_features::FeatureKind;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("push_p50_ns", "ns"),
    ("push_p99_ns", "ns"),
    ("recog_p50_us", "us"),
    ("recog_p99_us", "us"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics other than the per-kind feature timings, printed
/// with `--trace 1`: (name, unit).
const PER_LAYER: [(&str, &str); 32] = [
    ("engine.ingest_ns", "ns"),
    ("engine.close_ns", "ns"),
    ("engine.windows", "count"),
    ("engine.window_len_p50", "samples"),
    ("engine.window_len_max", "samples"),
    ("engine.allocs_per_push", "count"),
    ("engine.alloc_bytes_per_push", "bytes"),
    ("dsp.sbc_ns", "ns"),
    ("dsp.threshold_ns", "ns"),
    ("dsp.segment_ns", "ns"),
    ("filter.ns_per_window", "ns"),
    ("filter.reject_pct", "%"),
    ("features.ns_per_window", "ns"),
    ("ml.predict_ns_per_window", "ns"),
    ("ml.fit_s", "s"),
    ("zebra.finish_ns_per_window", "ns"),
    ("obs.tax_ns_per_push", "ns"),
    ("obs.monitor_ns_per_push", "ns"),
    ("fleet.enqueue_ns", "ns"),
    ("fleet.round_p50_us", "us"),
    ("fleet.round_p99_us", "us"),
    ("fleet.windows_per_round", "count"),
    ("fleet.queue_max", "samples"),
    ("fleet.shed", "count"),
    ("fleet.busy_pct", "%"),
    ("gen.trace_s", "s"),
    ("gen.lag_p99_us", "us"),
    ("quality.accuracy_pct", "%"),
    ("quality.false_pos_per_min", "events/min"),
    ("quality.failed_ops_pct", "%"),
    ("trace.attributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Name of the per-kind feature timing metric.
#[must_use]
pub fn kind_metric(kind: FeatureKind) -> String {
    format!("features.kind_ns.{}", kind_name(kind))
}

/// Every per-layer metric: (name, unit).
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    all.extend(
        FeatureKind::table1()
            .into_iter()
            .map(|k| (kind_metric(k), "ns")),
    );
    all
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations the measured phase attempted.
    pub attempted: u64,
    /// Of those, how many failed (errors plus shed sessions).
    pub failed: u64,
    /// Metrics in catalogue order: (name, unit, value).
    pub metrics: Vec<(String, String, f64)>,
    /// Failed checks; empty when every output was correct.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: one JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_short() {
        let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), PER_LAYER.len() + 25);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.iter().all(|n| n.len() <= 64));
    }

    #[test]
    fn json_line_shape() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s".into(), "s".into(), 0.25)],
            problems: Vec::new(),
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
