//! Every metric the ledger reports, by name, with its unit, direction
//! and — for the end-to-end ones — the bound `BENCHMARK.json` gates it
//! by. The binary refuses to finish a run that leaves a declared metric
//! unmeasured, and a test holds this list equal to `BENCHMARK.json`.

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Reported by every workload with
/// `--trace 0`; the "operation" is a query, except on `durable-mixed`
/// where it is a durable write.
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", "lower", 0.25),
    gated("ops_per_s", "1/s", "higher", 0.25),
    gated("op_p50_us", "us", "lower", 0.25),
    gated("f1_at_10", "ratio", "higher", 0.01),
    gated("resident_bytes_per_poi", "B", "lower", 0.001),
    // 1 + `persist.durability_ok`, so that the gate has a value that is
    // never 0 to take a share of: 2 when the run restarted its durable
    // engine and every compared answer came back equal, 1 when it did not
    // (or never restarted one). A drop from 2 to 1 is half, over any bound.
    gated("durability_level", "level", "higher", 0.25),
];

/// Single layers, reported by every workload with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    layer("datagen.generate_s", "s", "lower"),
    layer("datagen.queries_s", "s", "lower"),
    layer("prep.prepare_s", "s", "lower"),
    layer("prep.warm_s", "s", "lower"),
    layer("embed.query_us", "us", "lower"),
    layer("retrieval.narrow_us", "us", "lower"),
    layer("retrieval.paper5_us", "us", "lower"),
    layer("retrieval.broad_us", "us", "lower"),
    layer("retrieval.keyword_us", "us", "lower"),
    layer("retrieval.forced_exact_us", "us", "lower"),
    layer("retrieval.forced_hnsw_us", "us", "lower"),
    layer("retrieval.forced_grid_us", "us", "lower"),
    layer("retrieval.forced_irtree_us", "us", "lower"),
    layer("retrieval.strategy_share.exact", "ratio", "higher"),
    layer("retrieval.strategy_share.hnsw", "ratio", "higher"),
    layer("retrieval.strategy_share.grid", "ratio", "higher"),
    layer("retrieval.strategy_share.irtree", "ratio", "higher"),
    layer("retrieval.predicted_over_actual", "ratio", "higher"),
    layer("retrieval.plan_memo_hit_rate", "ratio", "higher"),
    layer("vecdb.exact_scan_us", "us", "lower"),
    layer("vecdb.hnsw_search_us", "us", "lower"),
    layer("vecdb.total_bytes_per_poi", "B", "lower"),
    layer("vecdb.quant_bytes_per_poi", "B", "lower"),
    layer("vecdb.payload_bytes_per_poi", "B", "lower"),
    layer("vecdb.id_index_bytes_per_poi", "B", "lower"),
    layer("llm.refine_us", "us", "lower"),
    layer("llm.simulated_ms", "ms", "lower"),
    layer("engine.query_us", "us", "lower"),
    layer("engine.query_tail_us", "us", "lower"),
    layer("engine.query_tail_pct", "%", "higher"),
    layer("engine.batch1_us", "us", "lower"),
    layer("engine.batch64_us_per_query", "us", "lower"),
    layer("engine.batch_differs_share", "ratio", "lower"),
    layer("engine.f1_at_10_em", "ratio", "higher"),
    layer("engine.apply_us", "us", "lower"),
    layer("serve.w1_added_us", "us", "lower"),
    layer("serve.mean_batch", "count", "higher"),
    layer("serve.mean_queue_wait_us", "us", "lower"),
    layer("serve.shed", "count", "lower"),
    layer("serve.cache_hit_rate", "ratio", "higher"),
    layer("serve.cache_stale_evictions", "count", "lower"),
    layer("serve.negative_hits", "count", "higher"),
    layer("net.w1_added_us", "us", "lower"),
    layer("net.encode_request_us", "us", "lower"),
    layer("net.decode_response_us", "us", "lower"),
    layer("net.request_bytes", "B", "lower"),
    layer("net.response_bytes", "B", "lower"),
    layer("wire.closed_qps", "1/s", "higher"),
    layer("wire.closed_p50_us", "us", "lower"),
    layer("wire.closed_tail_us", "us", "lower"),
    layer("wire.closed_tail_pct", "%", "higher"),
    layer("wire.open_p50_us", "us", "lower"),
    layer("wire.open_p99_us", "us", "lower"),
    layer("wire.open_p999_us", "us", "lower"),
    layer("wire.open_max_us", "us", "lower"),
    layer("wire.open_slo_miss_share", "ratio", "lower"),
    layer("loadgen.max_late_us", "us", "lower"),
    layer("loadgen.sent", "count", "higher"),
    layer("wal.bytes_per_mutation", "B", "lower"),
    layer("wal.encode_us", "us", "lower"),
    layer("durable.mutations_per_s", "1/s", "higher"),
    layer("durable.mutate_p50_us", "us", "lower"),
    layer("durable.mutate_added_us", "us", "lower"),
    layer("durable.mutate_tail_us", "us", "lower"),
    layer("durable.mutate_tail_pct", "%", "higher"),
    layer("durable.reader_qps", "1/s", "higher"),
    layer("durable.reader_p50_us", "us", "lower"),
    layer("durable.reader_tail_us", "us", "lower"),
    layer("durable.reader_tail_pct", "%", "higher"),
    layer("persist.save_s", "s", "lower"),
    layer("persist.checkpoint_stall_ms", "ms", "lower"),
    layer("persist.snapshot_bytes_per_poi", "B", "lower"),
    layer("persist.recover_s", "s", "lower"),
    // Reads 0 until a durable metro can be reopened; see the README.
    layer("persist.durability_ok", "0/1", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde_json::Value;

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} in {v:?}"))
    }

    /// `BENCHMARK.json` and the binary declare the same workloads and
    /// the same metrics, in the same order, with the same units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench: Value = serde_json::from_str(&file).expect("BENCHMARK.json parses");

        let workloads = bench.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (json, ours) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(json, "name"), ours.name);
            assert_eq!(text(json, "why"), ours.why);
            assert!(ours.why.len() <= 200 && !ours.why.contains('\n'));
        }
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let json = bench.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(json.len(), ours.len(), "{key}");
            for (json, ours) in json.iter().zip(ours) {
                assert_eq!(text(json, "name"), ours.name);
                assert_eq!(text(json, "unit"), ours.unit, "{}", ours.name);
                assert_eq!(text(json, "better"), ours.better, "{}", ours.name);
                assert_eq!(json.get("bound").and_then(Value::as_f64), ours.bound);
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
