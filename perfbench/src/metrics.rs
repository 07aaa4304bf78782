//! The metric registry and the result line.
//!
//! Every workload prints every metric of one list: the end-to-end list
//! with tracing off, the per-layer list with tracing on. A layer a
//! workload bypasses reads 0 there (no calls, no time).

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("runs_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("warm_p50_us", "us"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.run_us", "us"),
    ("engine.events_per_run", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.stale_ratio", "ratio"),
    ("engine.scratch_grows", "count"),
    ("reduce.fold_us", "us"),
    ("reduce.merge_us", "us"),
    ("reduce.share", "ratio"),
    ("batch.busy_share", "ratio"),
    ("batch.overhead_us", "us"),
    ("spec.grid_build_us", "us"),
    ("spec.materialize_us", "us"),
    ("canon.encode_us", "us"),
    ("canon.decode_us", "us"),
    ("canon.hash_us", "us"),
    ("protocol.request_codec_us", "us"),
    ("protocol.response_codec_us", "us"),
    ("serve.ping_us", "us"),
    ("cache.load_hit_us", "us"),
    ("cache.load_miss_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.entries", "count"),
    ("emit.table_json_us", "us"),
    ("serve.computations", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.unattributed_ms", "ms"),
    ("campaign.unrecovered_midway", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_pct", "%"),
    ("trace.spans", "count"),
    ("samples.cold", "count"),
    ("samples.warm", "count"),
    ("warm_p90_us", "us"),
];

/// Render the result line: `correct`, `attempted`, `failed` and one
/// `{value, unit}` entry per metric of `list`, in list order. Fails if a
/// metric is missing or not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut entries = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number ({v})"));
        }
        entries.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_unique_and_carries_a_unit() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "metric {name} has bad unit {unit:?}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let values: BTreeMap<_, _> = [("a_s", 1.5), ("b", 2.0)].into_iter().collect();
        let line = result_line(true, 3, 0, &[("a_s", "s"), ("b", "count")], &values).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(result_line(true, 1, 0, &[("c", "s")], &values).is_err());
        let nan: BTreeMap<_, _> = [("a_s", f64::NAN)].into_iter().collect();
        assert!(result_line(true, 1, 0, &[("a_s", "s")], &nan).is_err());
    }
}
