//! Runs every workload at the `--quick` smoke size, untraced and
//! traced, through the `run` subcommand, and checks the result file
//! against `BENCHMARK.json`: every declared workload ran, every
//! declared metric is present, finite and well spelled, nothing failed.

use hummingbird_benchmark::json::{self, Value};
use hummingbird_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::Command;

fn names(spec: &Value, list: &str) -> Vec<(String, Option<String>)> {
    spec.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{list}' list"))
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Value::as_str).expect("entry has a name");
            (name.to_owned(), entry.get("unit").and_then(Value::as_str).map(str::to_owned))
        })
        .collect()
}

fn well_spelled(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Checks one run's `metrics` object against the declared list.
fn check_metrics(workload: &str, run: &Value, declared: &[(String, Option<String>)]) {
    let result = run.get("result").unwrap_or_else(|| panic!("{workload}: no result"));
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload}: incorrect run");
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}: failed_share != 0"
    );
    assert!(
        result.get("attempted").and_then(Value::as_f64).is_some_and(|a| a >= 1.0),
        "{workload}"
    );
    let Some(Value::Obj(metrics)) = result.get("metrics") else { panic!("{workload}: no metrics") };
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(printed, wanted, "{workload}: printed metrics differ from BENCHMARK.json");
    for ((name, unit), (_, value)) in declared.iter().zip(metrics) {
        assert!(well_spelled(name), "{workload}: metric name {name:?}");
        let v = value.get("value").and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
        assert_eq!(
            value.get("unit").and_then(Value::as_str),
            unit.as_deref(),
            "{workload}: {name} unit"
        );
    }
}

#[test]
fn quick_suite_reports_every_declared_metric_for_every_workload() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec_text =
        std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&spec_text).expect("BENCHMARK.json parses");
    let (workloads, end_to_end, per_layer) =
        (names(&spec, "workloads"), names(&spec, "end_to_end"), names(&spec, "per_layer"));

    // BENCHMARK.json and the code declare the same lists.
    let code = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
    };
    assert_eq!(workloads.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(), WORKLOADS);
    assert_eq!(end_to_end, code(&END_TO_END));
    assert_eq!(per_layer, code(&PER_LAYER));
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u.as_deref() == Some("s")));

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_result.json");
    let status = Command::new(env!("CARGO_BIN_EXE_hummingbird-benchmark"))
        .args(["run", "--quick", "--traced", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("benchmark binary starts");
    assert!(status.success(), "the quick suite must exit 0, got {status:?}");

    let result =
        json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("result parses");
    for label in ["nproc", "aes_backend", "git_revision", "rustc", "seed", "loopback", "wall_s"] {
        assert!(result.get("labels").and_then(|l| l.get(label)).is_some(), "label {label} missing");
    }
    for (workload, _) in &workloads {
        assert!(well_spelled(workload), "workload name {workload:?}");
        let entry = result
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap_or_else(|| panic!("{workload} did not run"));
        check_metrics(workload, entry.get("untraced").expect("untraced run"), &end_to_end);
        check_metrics(workload, entry.get("traced").expect("traced run"), &per_layer);
        let trace = manifest.join(format!("out/trace_{workload}.jsonl"));
        assert!(
            trace.metadata().is_ok_and(|m| m.len() > 0),
            "{} missing or empty",
            trace.display()
        );
    }
}
