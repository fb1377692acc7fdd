//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! lists the same names (a unit test keeps the two in step).

/// End-to-end metrics: reported by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("depminer.mine_s", "s"),
    ("depminer2.mine_s", "s"),
    ("tane.mine_s", "s"),
    ("fdep.mine_s", "s"),
    ("approx.mine_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: reported by every traced run. A name ending in
/// `_s` is the time spent in the spans of that name (without the suffix);
/// the others are counts and sizes.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("relation.spdb_s", "s"),
    ("relation.spdb_bytes", "bytes"),
    ("relation.csv_parse_s", "s"),
    ("relation.csv_bytes", "bytes"),
    ("agree.alg2_s", "s"),
    ("agree.alg3_s", "s"),
    ("agree.maximal_classes", "count"),
    ("agree.couples", "count"),
    ("agree.sets", "count"),
    ("maxset.cmax_s", "s"),
    ("maxset.max_sets", "count"),
    ("maxset.cmax_sets", "count"),
    ("lhs.transversals_s", "s"),
    ("lhs.candidates", "count"),
    ("lhs.fd_output_s", "s"),
    ("lhs.fds", "count"),
    ("armstrong.build_s", "s"),
    ("armstrong.rows", "count"),
    ("tane.levels", "count"),
    ("tane.candidates", "count"),
    ("tane.partition_products", "count"),
    ("tane.trip_s", "s"),
    ("tane.resume_s", "s"),
    ("tane.resume_frontier", "count"),
    ("fdep.negative_cover_size", "count"),
    ("fdep.couples", "count"),
    ("fdep.armed_s", "s"),
    ("approx.fds", "count"),
    ("approx.trip_s", "s"),
    ("approx.resume_s", "s"),
    ("depminer.trip_s", "s"),
    ("depminer.resume_s", "s"),
    ("depminer2.trip_s", "s"),
    ("depminer2.resume_s", "s"),
    ("engine.session_s", "s"),
    ("engine.direct_s", "s"),
    ("govern.frames_written", "count"),
    ("govern.frame_bytes", "bytes"),
    ("govern.frame_write_s", "s"),
    ("govern.frame_read_s", "s"),
    ("observe.export_s", "s"),
    ("observe.profile_bytes", "bytes"),
    ("parallel.threads", "count"),
    ("parallel.agree_t2_s", "s"),
    ("parallel.transversals_t2_s", "s"),
    ("parallel.tane_t2_s", "s"),
    ("trace.rounds", "count"),
    ("trace.total_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_observe::json::{parse, Value};

    fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&spec, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), owned(&PER_LAYER));
    }
}
