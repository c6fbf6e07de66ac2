//! CI bench-regression gate.
//!
//! Reads the output of a `cargo bench` run (the shim criterion's
//! `name  time: X unit/iter` lines) from a file, compares the baseline
//! file's gated rows against the fresh run, and exits non-zero if any
//! regresses by more than the allowed factor (default 2x). Two baseline
//! layouts are supported:
//!
//! - **Explicit** (`BENCH_batch.json`): a `gate_us_per_iter` map names
//!   the gated rows directly and `reference_us_per_iter` names the
//!   fixed workloads used for machine-speed calibration.
//! - **Planner-style** (`BENCH_planner.json`): every
//!   `results_us_per_iter.<range>.planned` row is gated, and the
//!   non-`planned` strategy rows are the calibration references.
//!
//! Two guards keep the absolute wall-clock comparison honest across
//! machines:
//!
//! - **Speed calibration**: the non-`planned` strategy rows (exact-scan,
//!   grid-prefilter, …) are fixed workloads present in both the baseline
//!   and the fresh run, so the median of their measured/baseline ratios
//!   estimates how much slower this machine is than the recording
//!   machine; limits scale by that ratio (clamped to ≥ 1 so a faster
//!   machine never loosens the gate). A planner regression shows up as
//!   `planned` moving against its *co-measured* backends, which the
//!   calibration cannot mask.
//! - **Absolute grace floor**: microsecond-scale rows never fail within
//!   `GRACE_US` of the baseline, whatever the ratio (quick-window means
//!   jitter by tens of microseconds on a loaded box).
//!
//! ```sh
//! CRITERION_WINDOW_MS=25 cargo bench --bench planner | tee bench.out
//! cargo run -p bench --bin check_regression -- bench.out BENCH_planner.json
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Regression factor: fail when measured > factor * calibrated baseline.
const DEFAULT_FACTOR: f64 = 2.0;
/// Absolute grace in microseconds: rows this close to the baseline never
/// fail, whatever the ratio (quick-mode means on a loaded CI box jitter
/// by tens of microseconds).
const GRACE_US: f64 = 25.0;

fn unit_to_us(value: f64, unit: &str) -> Option<f64> {
    match unit {
        "ns" => Some(value / 1e3),
        "µs" | "us" => Some(value),
        "ms" => Some(value * 1e3),
        "s" => Some(value * 1e6),
        _ => None,
    }
}

/// Parses `planner/narrow/planned   time:   49.000 µs/iter` lines into
/// a name → mean-µs map.
fn parse_bench_output(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some((name_part, time_part)) = line.split_once("time:") else {
            continue;
        };
        let mut fields = time_part.split_whitespace();
        let (Some(value), Some(unit_per_iter)) = (fields.next(), fields.next()) else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let Some(unit) = unit_per_iter.strip_suffix("/iter") else {
            continue;
        };
        if let Some(us) = unit_to_us(value, unit) {
            out.insert(name_part.trim().to_owned(), us);
        }
    }
    out
}

/// Reads a flat `{row-name: µs}` map from a baseline key.
fn parse_flat_map(json: &serde_json::Value, key: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(serde_json::Value::Object(rows)) = json.get(key) else {
        return out;
    };
    for (name, v) in rows.iter() {
        if let Some(us) = v.as_f64() {
            out.insert(name.clone(), us);
        }
    }
    out
}

/// The rows the gate enforces. An explicit `gate_us_per_iter` map wins;
/// otherwise every `results_us_per_iter.<range>.planned` row is gated
/// under the planner-style `planner/<range>/planned` name.
fn parse_baseline(json: &serde_json::Value) -> BTreeMap<String, f64> {
    let explicit = parse_flat_map(json, "gate_us_per_iter");
    if !explicit.is_empty() {
        return explicit;
    }
    let mut out = BTreeMap::new();
    let Some(serde_json::Value::Object(results)) = json.get("results_us_per_iter") else {
        return out;
    };
    for (range, row) in results.iter() {
        if let Some(planned) = row.get("planned").and_then(serde_json::Value::as_f64) {
            out.insert(format!("planner/{range}/planned"), planned);
        }
    }
    out
}

/// Fixed reference workloads used to estimate this machine's speed
/// relative to the recording machine: an explicit
/// `reference_us_per_iter` map, or (planner-style) the non-`planned`
/// strategy rows.
fn parse_reference_rows(json: &serde_json::Value) -> BTreeMap<String, f64> {
    let explicit = parse_flat_map(json, "reference_us_per_iter");
    if !explicit.is_empty() {
        return explicit;
    }
    let mut out = BTreeMap::new();
    let Some(serde_json::Value::Object(results)) = json.get("results_us_per_iter") else {
        return out;
    };
    for (range, row) in results.iter() {
        let Some(strategies) = row.as_object() else {
            continue;
        };
        for (strategy, v) in strategies.iter() {
            if strategy == "planned" || strategy == "estimated_selectivity" {
                continue;
            }
            if let Some(us) = v.as_f64() {
                out.insert(format!("planner/{range}/{strategy}"), us);
            }
        }
    }
    out
}

/// Median measured/baseline ratio over the reference rows present in
/// both sets, clamped to ≥ 1 (a faster machine keeps the recorded
/// limits). Returns 1.0 when no reference row is shared.
fn speed_calibration(measured: &BTreeMap<String, f64>, reference: &BTreeMap<String, f64>) -> f64 {
    let mut ratios: Vec<f64> = reference
        .iter()
        .filter_map(|(name, &base_us)| {
            let &got_us = measured.get(name)?;
            (base_us > 0.0).then_some(got_us / base_us)
        })
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2].max(1.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, bench_out_path, baseline_path] = &args[..] else {
        eprintln!("usage: check_regression <bench-output-file> <BENCH_planner.json>");
        return ExitCode::from(2);
    };
    let bench_out = match std::fs::read_to_string(bench_out_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {bench_out_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline_json: serde_json::Value = match serde_json::from_str(&baseline_text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {baseline_path} is not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let factor = std::env::var("BENCH_REGRESSION_FACTOR")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_FACTOR);

    let measured = parse_bench_output(&bench_out);
    let baseline = parse_baseline(&baseline_json);
    if baseline.is_empty() {
        eprintln!("error: no `planned` baselines found in {baseline_path}");
        return ExitCode::from(2);
    }
    let calibration = speed_calibration(&measured, &parse_reference_rows(&baseline_json));
    println!("machine speed calibration: x{calibration:.2} vs recording machine");

    let mut failed = false;
    for (name, &base_us) in &baseline {
        match measured.get(name) {
            None => {
                eprintln!("FAIL {name}: present in baseline but missing from bench output");
                failed = true;
            }
            Some(&got_us) => {
                let scaled = base_us * calibration;
                let limit = (scaled * factor).max(scaled + GRACE_US);
                let verdict = if got_us > limit { "FAIL" } else { "ok  " };
                println!(
                    "{verdict} {name}: measured {got_us:.1} µs vs baseline {base_us:.1} µs \
                     (limit {limit:.1} µs)"
                );
                if got_us > limit {
                    failed = true;
                }
            }
        }
    }

    if failed {
        eprintln!("bench regression gate: FAILED (factor {factor}, grace {GRACE_US} µs)");
        ExitCode::FAILURE
    } else {
        println!("bench regression gate: passed (factor {factor}, grace {GRACE_US} µs)");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shim_criterion_lines() {
        let text = "range narrow: estimated selectivity 0.007\n\
                    planner/narrow/planned                  time:     49.000 µs/iter\n\
                    planner/mid/exact-scan                  time:    303.800 µs/iter\n\
                    planner/plan_only/mid                   time:    610.000 ns/iter\n\
                    not a bench line\n";
        let m = parse_bench_output(text);
        assert_eq!(m.len(), 3);
        assert!((m["planner/narrow/planned"] - 49.0).abs() < 1e-9);
        assert!((m["planner/plan_only/mid"] - 0.61).abs() < 1e-9);
    }

    #[test]
    fn baseline_extracts_planned_rows() {
        let json: serde_json::Value = serde_json::from_str(
            r#"{"results_us_per_iter": {
                "narrow": {"planned": 5.0, "exact-scan": 47.6},
                "mid": {"planned": 334.7},
                "plan_only_mid": 0.61
            }}"#,
        )
        .unwrap();
        let b = parse_baseline(&json);
        assert_eq!(b.len(), 2);
        assert!((b["planner/narrow/planned"] - 5.0).abs() < 1e-9);
        assert!((b["planner/mid/planned"] - 334.7).abs() < 1e-9);
    }

    #[test]
    fn calibration_uses_median_reference_ratio() {
        let baseline: BTreeMap<String, f64> = [
            ("planner/narrow/exact-scan", 10.0),
            ("planner/mid/exact-scan", 100.0),
            ("planner/broad/exact-scan", 200.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        // Machine uniformly 3x slower → calibration 3.
        let measured: BTreeMap<String, f64> = [
            ("planner/narrow/exact-scan", 30.0),
            ("planner/mid/exact-scan", 300.0),
            ("planner/broad/exact-scan", 600.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        assert!((speed_calibration(&measured, &baseline) - 3.0).abs() < 1e-9);
        // Faster machine clamps to 1 (the gate never loosens downward).
        let fast: BTreeMap<String, f64> =
            baseline.iter().map(|(k, v)| (k.clone(), v / 2.0)).collect();
        assert!((speed_calibration(&fast, &baseline) - 1.0).abs() < 1e-9);
        // No shared rows → neutral calibration.
        assert!((speed_calibration(&BTreeMap::new(), &baseline) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reference_rows_exclude_planned_and_selectivity() {
        let json: serde_json::Value = serde_json::from_str(
            r#"{"results_us_per_iter": {
                "narrow": {"planned": 5.0, "exact-scan": 47.6,
                           "grid-prefilter": 4.1, "estimated_selectivity": 0.007},
                "plan_only_mid": 0.61
            }}"#,
        )
        .unwrap();
        let r = parse_reference_rows(&json);
        assert_eq!(r.len(), 2);
        assert!(r.contains_key("planner/narrow/exact-scan"));
        assert!(r.contains_key("planner/narrow/grid-prefilter"));
    }

    #[test]
    fn explicit_gate_and_reference_maps_win() {
        let json: serde_json::Value = serde_json::from_str(
            r#"{
                "gate_us_per_iter": {"batch/mid/batched-64": 120.0},
                "reference_us_per_iter": {"batch/mid/sequential-64": 800.0},
                "results_us_per_iter": {"narrow": {"planned": 5.0, "exact-scan": 47.6}}
            }"#,
        )
        .unwrap();
        let gate = parse_baseline(&json);
        assert_eq!(gate.len(), 1);
        assert!((gate["batch/mid/batched-64"] - 120.0).abs() < 1e-9);
        let reference = parse_reference_rows(&json);
        assert_eq!(reference.len(), 1);
        assert!((reference["batch/mid/sequential-64"] - 800.0).abs() < 1e-9);
    }

    #[test]
    fn nested_predicted_columns_are_ignored_by_reference_parsing() {
        let json: serde_json::Value = serde_json::from_str(
            r#"{"results_us_per_iter": {
                "narrow": {"planned": 5.0, "ir-tree": 4.5,
                           "exact-scan": 47.6,
                           "predicted_us": {"exact-scan": 50.0},
                           "estimated_selectivity": 0.007}
            }}"#,
        )
        .unwrap();
        let r = parse_reference_rows(&json);
        assert!(r.contains_key("planner/narrow/exact-scan"));
        assert!(r.contains_key("planner/narrow/ir-tree"));
        assert!(!r.contains_key("planner/narrow/predicted_us"));
        let gated = parse_baseline(&json);
        assert_eq!(gated.len(), 1, "only `planned` is baseline-gated");
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(unit_to_us(1000.0, "ns"), Some(1.0));
        assert_eq!(unit_to_us(2.0, "ms"), Some(2000.0));
        assert_eq!(unit_to_us(1.0, "s"), Some(1e6));
        assert_eq!(unit_to_us(1.0, "parsecs"), None);
    }
}
