//! Runs the built ledger end to end on a small world: every workload,
//! untraced and traced, one second each. Sized for `cargo test --release`;
//! a debug build prepares the world several times slower.

use std::process::Command;

use serde_json::Value;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("a name")
                    .to_owned(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("a unit")
                    .to_owned(),
            )
        })
        .collect()
}

/// Runs one workload and returns the result object of its last line.
fn run(workload: &str, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--pois", "2000"])
        .output()
        .expect("the ledger binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace {trace} exited with {}:\n{stderr}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

#[test]
fn every_workload_reports_every_declared_metric_once() {
    let bench = benchmark();
    let workloads = bench.get("workloads").and_then(Value::as_array).unwrap();
    assert_eq!(workloads.len(), 4);
    for workload in workloads {
        let workload = workload.get("name").and_then(Value::as_str).unwrap();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{workload} trace {trace}: {result:?}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
            let declared = names(bench.get(key).unwrap());
            // An object holds a key once; equal counts and every
            // declared name present means exactly the declared set.
            assert_eq!(metrics.len(), declared.len(), "{workload} trace {trace}");
            for (name, unit) in &declared {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
                let value = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                if !trace {
                    assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn a_bad_command_line_fails_without_a_result() {
    for args in [
        &[
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "wire-mixed", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "wire-mixed",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
            .args(args)
            .output()
            .expect("the ledger binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
