//! `compare <a> <b>`: per (workload, end-to-end metric) medians,
//! quartile spreads and relative change between two result files — or
//! two directories of them — labelled against the bounds in
//! `BENCHMARK.json`.
//!
//! With one file a side, the population of a metric is its repetition
//! values inside that run; with a directory a side, it is the reported
//! value of every run in the directory.

use crate::json::{self, Value};
use crate::stats;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Spec {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn load_spec(path: &Path) -> Result<(Vec<String>, Vec<Spec>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let names = |key: &str| -> Result<Vec<&Value>, String> {
        Ok(doc
            .get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("{}: no '{key}' list", path.display()))?
            .iter()
            .collect())
    };
    let str_of = |v: &Value, key: &str| -> Result<String, String> {
        Ok(v.get(key)
            .and_then(Value::as_str)
            .ok_or(format!("{}: entry without '{key}'", path.display()))?
            .to_owned())
    };
    let workloads =
        names("workloads")?.into_iter().map(|w| str_of(w, "name")).collect::<Result<_, _>>()?;
    let metrics = names("end_to_end")?
        .into_iter()
        .map(|m| {
            Ok(Spec {
                name: str_of(m, "name")?,
                unit: str_of(m, "unit")?,
                higher_is_better: str_of(m, "better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64).ok_or("metric without 'bound'")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

/// The result files of one side: the file itself, or every `.json`
/// file of the directory in name order.
fn load_side(path: &Path) -> Result<Vec<Value>, String> {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("cannot list {}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![path.to_owned()]
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("{} holds no result files", path.display()));
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f)
                .map_err(|e| format!("cannot read {}: {e}", f.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// The population of `(workload, metric)` on one side.
fn population(side: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    fn run<'a>(file: &'a Value, workload: &str) -> Option<&'a Value> {
        file.get("workloads")?.get(workload)?.get("untraced")
    }
    let reported = |file: &Value| {
        run(file, workload)?.get("result")?.get("metrics")?.get(metric)?.get("value")?.as_f64()
    };
    if side.len() > 1 {
        return side.iter().filter_map(reported).collect();
    }
    let reps: Vec<f64> = run(&side[0], workload)
        .and_then(|r| r.get("detail")?.get("values")?.get(metric)?.as_arr())
        .map(|values| values.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    if reps.is_empty() {
        reported(&side[0]).into_iter().collect()
    } else {
        reps
    }
}

/// `same | better | worse | unresolved` for one metric.
fn label(spec: &Spec, a: &[f64], b: &[f64]) -> (&'static str, f64) {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return ("unresolved", 0.0);
    };
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = if spec.higher_is_better { -change } else { change };
    // Set-up time is bounded on its medians only, as the acceptance
    // driver does.
    let noisy = |v: &[f64]| stats::quartile_spread(v).is_some_and(|s| s > spec.bound);
    let verdict = if spec.name != "setup_s" && (noisy(a) || noisy(b)) {
        "unresolved"
    } else if worse_by > spec.bound {
        "worse"
    } else if -worse_by > spec.bound {
        "better"
    } else {
        "same"
    };
    (verdict, change)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b, ..] = args else {
        return Err("compare needs two result files or two directories".into());
    };
    if a.starts_with("--") || b.starts_with("--") {
        return Err("compare takes its two paths first, then --spec".into());
    }
    let spec_path = match crate::flag(args, "--spec")? {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    };
    let (workloads, metrics) = load_spec(&spec_path)?;
    let (side_a, side_b) = (load_side(Path::new(a))?, load_side(Path::new(b))?);
    println!("a: {a} ({} run(s))   b: {b} ({} run(s))", side_a.len(), side_b.len());
    println!(
        "{:<20} {:<16} {:<5} {:>14} {:>8} {:>14} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "unit", "median a", "spread", "median b", "spread", "change", "bound"
    );
    let pct = |v: Option<f64>| v.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
    let mut worse = 0;
    let mut unresolved = 0;
    for w in &workloads {
        for m in &metrics {
            let (pa, pb) = (population(&side_a, w, &m.name), population(&side_b, w, &m.name));
            if pa.is_empty() || pb.is_empty() {
                continue;
            }
            let (verdict, change) = label(m, &pa, &pb);
            worse += usize::from(verdict == "worse");
            unresolved += usize::from(verdict == "unresolved");
            println!(
                "{:<20} {:<16} {:<5} {:>14.4} {:>8} {:>14.4} {:>8} {:>+8.1}% {:>5.0}%  {verdict}",
                w,
                m.name,
                m.unit,
                stats::median(&pa).unwrap_or(0.0),
                pct(stats::quartile_spread(&pa)),
                stats::median(&pb).unwrap_or(0.0),
                pct(stats::quartile_spread(&pb)),
                change * 100.0,
                m.bound * 100.0,
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, higher: bool) -> Spec {
        Spec { name: name.into(), unit: "x".into(), higher_is_better: higher, bound: 0.1 }
    }

    #[test]
    fn labels_follow_direction_and_bound() {
        let steady_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(label(&spec("ops_per_s", true), &steady_a, &up).0, "better");
        assert_eq!(label(&spec("ops_per_s", true), &up, &steady_a).0, "worse");
        assert_eq!(label(&spec("latency_p50_us", false), &steady_a, &up).0, "worse");
        assert_eq!(label(&spec("latency_p50_us", false), &steady_a, &steady_a).0, "same");
    }

    #[test]
    fn wide_spread_is_unresolved_except_for_setup() {
        let noisy = [100.0, 150.0, 60.0, 130.0, 80.0];
        let calm = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(label(&spec("ops_per_s", true), &noisy, &calm).0, "unresolved");
        assert_eq!(label(&spec("setup_s", false), &noisy, &calm).0, "same");
        assert_eq!(label(&spec("ops_per_s", true), &[], &calm).0, "unresolved");
    }
}
