//! The metric names, their units, and the one-line JSON result.

use std::collections::BTreeMap;

use fidelity_obs::json::{escape_into, number_into};

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("campaign_s", "s"),
    ("inj_per_s", "1/s"),
    ("injections", "count"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 25] = [
    ("workloads.build_s", "s"),
    ("dnn.engine_new_s", "s"),
    ("dnn.trace_s", "s"),
    ("dnn.forward_us", "us"),
    ("dnn.resume_dense_us", "us"),
    ("dnn.workspace_hit_rate", "ratio"),
    ("inject.dense_us_p50", "us"),
    ("inject.dense_us_p99", "us"),
    ("inject.layer_masked_frac", "ratio"),
    ("batch.delta_us_p50", "us"),
    ("batch.delta_us_p99", "us"),
    ("batch.delta_eligible_frac", "ratio"),
    ("batch.installs", "count"),
    ("outcome.is_correct_us", "us"),
    ("campaign.run_s", "s"),
    ("campaign.cpu_util", "ratio"),
    ("resilience.ckpt_bytes", "bytes"),
    ("resilience.resume_s", "s"),
    ("adaptive.waves", "count"),
    ("adaptive.strata_sampled", "count"),
    ("adaptive.bound_over_eps", "ratio"),
    ("adaptive.cert_verify_s", "s"),
    ("fit.eq2_s", "s"),
    ("ledger.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The benchmark's verdict for one run.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// (name, value, unit), in the order of the metric list.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Pairs every metric of `list` with its value. The values must name
    /// exactly the listed metrics, so the printed names cannot drift from
    /// the list.
    pub fn new(
        correct: bool,
        attempted: usize,
        failed: usize,
        list: &[(&'static str, &'static str)],
        mut values: BTreeMap<&'static str, f64>,
    ) -> Result<Report, String> {
        let metrics = list
            .iter()
            .map(|&(name, unit)| {
                values
                    .remove(name)
                    .map(|v| (name, v, unit))
                    .ok_or_else(|| format!("metric `{name}` was not measured"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(extra) = values.keys().next() {
            return Err(format!("metric `{extra}` is not in the metric list"));
        }
        Ok(Report {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            escape_into(&mut out, name);
            out.push_str(": {\"value\": ");
            number_into(&mut out, *value);
            out.push_str(", \"unit\": ");
            escape_into(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_obs::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no `{key}` list"),
        }
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let Some(Json::Arr(items)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<&str> = items
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn report_requires_exactly_the_listed_metrics() {
        let list = [("a", "s"), ("b", "count")];
        let values = |pairs: &[(&'static str, f64)]| pairs.iter().copied().collect();
        let ok = Report::new(true, 3, 0, &list, values(&[("b", 2.0), ("a", 1.5)])).unwrap();
        assert_eq!(
            ok.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(Report::new(true, 1, 0, &list, values(&[("a", 1.0)])).is_err());
        let extra = values(&[("a", 1.0), ("b", 1.0), ("c", 1.0)]);
        assert!(Report::new(true, 1, 0, &list, extra).is_err());
    }

    #[test]
    fn result_line_parses_as_json() {
        let values = [("a", 0.25)].into_iter().collect();
        let r = Report::new(false, 1, 1, &[("a", "ms")], values).unwrap();
        let doc = parse(&r.json()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("a"))
                .and_then(|a| a.get("value")),
            Some(&Json::Num(0.25))
        );
    }
}
