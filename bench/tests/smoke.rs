//! `--quick` smoke of the whole benchmark: every workload, untraced and
//! traced, must emit exactly the names `BENCHMARK.json` declares, each
//! with its unit, and check its outputs correct.

use std::collections::BTreeSet;
use std::process::Command;

use serde_json::Value;

fn object(v: &Value) -> &std::collections::BTreeMap<String, Value> {
    match v {
        Value::Object(m) => m,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn declared(decl: &Value, list: &str) -> Vec<(String, String)> {
    array(&object(decl)[list])
        .iter()
        .map(|m| {
            let m = object(m);
            (
                m["name"].as_str().expect("name").to_owned(),
                m["unit"].as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

#[test]
fn quick_runs_emit_exactly_the_declared_names() {
    let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let decl: Value = serde_json::from_str(
        &std::fs::read_to_string(manifest_dir.join("../BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let workloads: Vec<String> = array(&object(&decl)["workloads"])
        .iter()
        .map(|w| object(w)["name"].as_str().expect("name").to_owned())
        .collect();
    assert_eq!(
        workloads,
        ["power_warm", "scan_cold", "ingest", "txn_churn"]
    );
    let seconds = object(&decl)["run_seconds"].as_u64().expect("run_seconds");

    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
                .args(["--workload", workload, "--seed", "7", "--quick"])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .output()
                .expect("run wallbench");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("result line is JSON");
            let result = object(&result);
            let keys: BTreeSet<&str> = result.keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                BTreeSet::from(["attempted", "correct", "failed", "metrics"])
            );
            assert_eq!(result["correct"], Value::Bool(true), "{workload}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{workload}");
            assert!(result["attempted"].as_u64().expect("attempted") >= 1);

            let want = declared(&decl, list);
            let metrics = object(&result["metrics"]);
            let got: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
            let names: BTreeSet<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(got, names, "{workload} --trace {trace}");
            for (name, unit) in &want {
                let m = object(&metrics[name]);
                assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{name}");
                let value = m["value"].as_f64().expect("numeric value");
                assert!(value.is_finite(), "{name}");
                if list == "end_to_end" {
                    assert!(value > 0.0, "{name} @ {workload} must never be 0");
                }
            }
        }
    }
}
