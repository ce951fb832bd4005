//! The repository's regression benchmark. One binary, three uses:
//!
//! ```text
//! hummingbird-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! hummingbird-benchmark run [--workload <name>] [--seed <n>] [--seconds <s>] [--traced] [--quick] [--out <file>]
//! hummingbird-benchmark compare <a> <b> [--spec <BENCHMARK.json>]
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of its standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `run` runs
//! every workload, each in a fresh child process of this binary (so
//! set-up time and peak memory are per workload), and writes a labelled
//! result file; `compare` diffs two result files, or two directories of
//! them, against the bounds in `BENCHMARK.json`. See `README.md`.

mod chain;
mod compare;
mod control;
mod host;
pub mod json;
mod layers;
pub mod metrics;
mod netsim;
mod router;
pub mod stats;
mod trace;
mod workload;

use json::Value;
use metrics::{Layers, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Recorder;
use workload::Rep;

/// Prefix of the line that carries repetition values and labels from a
/// workload process to `run`.
const DETAIL_PREFIX: &str = "detail ";
/// Spans a traced run may record before further spans are counted as
/// overflow instead.
const TRACE_CAPACITY: usize = 1 << 20;
/// An untraced run is `GROUPS` set-ups, each followed by
/// `REPS_PER_GROUP` repetitions of `seconds / (GROUPS × REPS_PER_GROUP)`.
const GROUPS: usize = 5;
const REPS_PER_GROUP: usize = 4;
/// Traced repetitions of a traced run (alternating with untraced ones).
const TRACED_REPS: usize = 3;

/// Runs the command line `args` (without the program name) and returns
/// the process's exit code.
pub fn cli(args: &[String]) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => single(args),
    };
    match outcome {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("{usage}");
            eprintln!(
                "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
                 \x20      run [--workload <name>] [--seed <n>] [--seconds <s>] [--traced] [--quick] [--out <file>]\n\
                 \x20      compare <a> <b> [--spec <BENCHMARK.json>]\n\
                 workloads: {}",
                WORKLOADS.join(" ")
            );
            ExitCode::from(2)
        }
    }
}

/// Value of `--name <v>` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{name} needs a value")),
    }
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)?.map(|v| v.parse().map_err(|_| format!("bad {name} '{v}'"))).transpose()
}

/// Where traces and result files go: `out/` beside this package's
/// manifest, whatever the working directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one repetition and notes how much CPU the process got for it.
fn repetition(w: &mut dyn workload::Workload, seconds: f64, rec: &mut Recorder) -> Rep {
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let mut rep = w.repetition(seconds, rec);
    let wall = t0.elapsed().as_secs_f64();
    if let (Some((u0, s0)), Some((u1, s1))) = (cpu0, host::cpu_seconds()) {
        rep.cpu_per_wall = (u1 - u0 + s1 - s0) / wall.max(1e-9);
    }
    rep
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::Str(unit.into()))])
}

// ---------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------

fn single(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload")?.ok_or("missing --workload")?;
    let seed: u64 = parsed_flag(args, "--seed")?.ok_or("missing --seed")?;
    let seconds: f64 = parsed_flag(args, "--seconds")?.ok_or("missing --seconds")?;
    let trace = match flag(args, "--trace")?.ok_or("missing --trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}'")),
    };
    let quick = args.iter().any(|a| a == "--quick");
    if !WORKLOADS.contains(&name) {
        return Err(format!("unknown workload '{name}'"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("bad --seconds '{seconds}'"));
    }
    let started = Instant::now();
    println!("workload {name}  seed {seed}  seconds {seconds}  trace {}", u8::from(trace));

    // The run is `groups` × (one timed set-up + `reps` repetitions): the
    // set-ups are spread over the run so that a slow phase of the host
    // does not catch all of them.
    let (groups, reps) = if quick { (1, 3) } else { (GROUPS, REPS_PER_GROUP) };
    let rep_seconds = seconds / (groups * reps) as f64;
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setup_times = Vec::with_capacity(groups);
    let mut built: Option<Box<dyn workload::Workload>> = None;
    let mut set_up = |built: &mut Option<Box<dyn workload::Workload>>| {
        drop(built.take());
        let t0 = Instant::now();
        *built = workload::build(name, seed, quick);
        setup_times.push(t0.elapsed().as_secs_f64());
    };

    let (metrics, detail) = if !trace {
        let mut done: Vec<Rep> = Vec::with_capacity(groups * reps);
        for _ in 0..groups {
            set_up(&mut built);
            let w = built.as_mut().expect("workload names were checked");
            for _ in 0..reps {
                done.push(repetition(w.as_mut(), rep_seconds, &mut Recorder::off()));
            }
            let (a, f) = w.verify(&mut failures);
            attempted += a;
            failed += f;
        }
        for rep in &mut done {
            attempted += rep.attempted;
            failed += rep.failed;
            failures.append(&mut rep.failures);
        }
        end_to_end(&setup_times, &done)
    } else {
        // Traced and untraced repetitions alternate; the best traced rate
        // against the best untraced rate is the tracing overhead.
        set_up(&mut built);
        let w = built.as_mut().expect("workload names were checked");
        let mut rec = Recorder::on(Instant::now(), TRACE_CAPACITY);
        let (mut plain_rate, mut traced_rate) = (0.0f64, 0.0f64);
        let mut plain_p90 = f64::INFINITY;
        let mut last_traced = Rep::default();
        let traced_reps = if quick { 1 } else { TRACED_REPS };
        for i in 0..2 * traced_reps + 1 {
            let traced = i % 2 == 1;
            let mut off = Recorder::off();
            let mut rep =
                repetition(w.as_mut(), rep_seconds, if traced { &mut rec } else { &mut off });
            attempted += rep.attempted;
            failed += rep.failed;
            failures.append(&mut rep.failures);
            let rate = rep.ops as f64 / rep.wall_s.max(1e-12);
            if traced {
                traced_rate = traced_rate.max(rate);
                last_traced = rep;
            } else {
                plain_rate = plain_rate.max(rate);
                plain_p90 = plain_p90.min(percentiles(&rep).1);
            }
        }
        let mut out = Layers::default();
        w.layers(&last_traced, &mut rec, &mut out);
        out.set("trace.untraced_ops_per_s", plain_rate);
        out.set("trace.traced_ops_per_s", traced_rate);
        out.set("trace.overhead_share", (plain_rate - traced_rate) / plain_rate.max(1e-12));
        out.set("trace.spans", rec.spans().len() as f64);
        out.set("latency.p90_us", plain_p90);
        out.set("host.peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0));
        out.set("host.cpu_per_wall", last_traced.cpu_per_wall);
        if rec.overflowed > 0 {
            eprintln!(
                "trace: {} spans beyond the preallocated {TRACE_CAPACITY} not recorded",
                rec.overflowed
            );
        }
        let path = out_dir().join(format!("trace_{name}.jsonl"));
        match trace::write_jsonl(&path, rec.spans()) {
            Ok(()) => println!("  wrote {} spans to {}", rec.spans().len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        per_layer(&out)
    };
    let w = built.expect("at least one set-up ran");

    for f in &failures {
        eprintln!("FAIL {name}: {f}");
    }
    let attempted = attempted.max(1);
    println!(
        "  {:<38} {:>16} ratio   ({failed} of {attempted} operations)",
        "failed_share",
        failed as f64 / attempted as f64
    );
    println!("  run wall {:.2} s", started.elapsed().as_secs_f64());

    let labels = Value::obj(
        w.labels()
            .into_iter()
            .chain([("nproc", Value::Num(host::nproc() as f64)), ("loopback", Value::Bool(true))]),
    );
    println!(
        "{DETAIL_PREFIX}{}",
        Value::obj([
            ("workload", Value::Str(name.into())),
            ("seed", Value::Num(seed as f64)),
            ("seconds", Value::Num(seconds)),
            ("repetitions", Value::Num((groups * reps) as f64)),
            ("setups", Value::Num(groups as f64)),
            ("wall_s", Value::Num(started.elapsed().as_secs_f64())),
            ("labels", labels),
            ("values", detail),
        ])
        .to_line()
    );
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(failed == 0)),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failed as f64)),
            ("metrics", metrics),
        ])
        .to_line()
    );
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// A repetition's exact p50 and p90 latency, µs (0 without samples).
fn percentiles(rep: &Rep) -> (f64, f64) {
    let sorted = stats::sorted(rep.latencies_us.clone());
    let pick = |p| stats::percentile(&sorted, p).unwrap_or(0.0);
    (pick(0.5), pick(0.9))
}

/// The end-to-end metrics of an untraced run, printed by name and unit
/// and returned as the `metrics` object plus the per-repetition values.
///
/// Each reported value is the **best repetition's**: the highest rate,
/// the lowest p50, the shortest set-up. Interference on a
/// shared host only ever slows a repetition down, and it comes in
/// phases of seconds, so the best of twenty short repetitions spread
/// over the run repeats far better than their median; the median and
/// the quartile spread are printed beside it.
fn end_to_end(setup_times: &[f64], reps: &[Rep]) -> (Value, Value) {
    let rates: Vec<f64> = reps.iter().map(|r| r.ops as f64 / r.wall_s.max(1e-12)).collect();
    let (p50s, p90s): (Vec<f64>, Vec<f64>) = reps.iter().map(percentiles).unzip();
    let samples: usize = reps.iter().map(|r| r.latencies_us.len()).sum();
    let lowest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    // In `END_TO_END` order: setup_s, ops_per_s, latency_p50_us.
    let values: [(f64, &[f64]); 3] =
        [(lowest(setup_times), setup_times), (highest(&rates), &rates), (lowest(&p50s), &p50s)];
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    for ((name, unit), (value, each)) in END_TO_END.iter().zip(values) {
        let beside = match (stats::median(each), stats::quartile_spread(each)) {
            (Some(m), Some(s)) => {
                format!(
                    "   (best of {}; median {m:.6}, quartile spread {:.1} %)",
                    each.len(),
                    s * 100.0
                )
            }
            _ => String::new(),
        };
        println!("  {name:<38} {value:>16.6} {unit:<7}{beside}");
        metrics.push((*name, metric(value, unit)));
        detail.push((*name, Value::nums(each)));
    }
    // Not bounded (see README), but worth a line in every run.
    let cpu: Vec<f64> = reps.iter().map(|r| r.cpu_per_wall).collect();
    let rss = host::peak_rss_mib().unwrap_or(0.0);
    println!(
        "  latency p90, best repetition: {:.3} us (median repetition {:.3}); peak RSS {rss:.1} MiB; \
         process CPU per wall second, median repetition: {:.2}",
        lowest(&p90s),
        stats::median(&p90s).unwrap_or(0.0),
        stats::median(&cpu).unwrap_or(0.0)
    );
    detail.push(("latency.p90_us", Value::nums(&p90s)));
    detail.push(("host.peak_rss_mb", Value::nums(&[rss])));
    detail.push(("host.cpu_per_wall", Value::nums(&cpu)));
    let per_rep = samples / reps.len().max(1);
    match stats::highest_supported(per_rep) {
        Some(p) => println!(
            "  {samples} latency samples, {per_rep} a repetition: the highest percentile with ten \
             samples beyond it is p{}",
            p * 100.0
        ),
        None => println!(
            "  {samples} latency samples, {per_rep} a repetition: too few for a percentile with ten \
             samples beyond it; p50 is a nearest-rank pick"
        ),
    }
    (Value::obj(metrics), Value::obj(detail))
}

/// The per-layer metrics of a traced run, printed and returned, plus
/// the three accounting rows.
fn per_layer(out: &Layers) -> (Value, Value) {
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = out.get(name);
        println!("  {name:<38} {value:>16.4} {unit}");
        metrics.push((name, metric(value, unit)));
    }
    let g = |name: &str| out.get(name);
    println!("  accounting (ns per packet; a row of zeros means the workload never enters those layers):");
    println!(
        "    stages {:.1} + residual {:.1} = engine {:.1}",
        g("account.engine_stage_sum_ns"),
        g("router.residual_ns"),
        g("account.engine_ns_per_pkt")
    );
    println!(
        "    clone {:.1} + tax {:.1} = sharded {:.1}",
        g("runtime.clone_ns_per_pkt"),
        g("runtime.tax_ns"),
        g("runtime.sharded_ns_per_pkt")
    );
    println!(
        "    floor {:.1} + wire {:.1} + engine {:.1} + residual {:.1} = chain {:.1}",
        g("testbed.udp_hop_floor_ns"),
        g("wire.new_checked_ns"),
        g("router.process_ns"),
        g("testbed.residual_ns"),
        g("testbed.chain_ns_per_pkt")
    );
    (Value::obj(metrics), Value::Obj(Vec::new()))
}

// ---------------------------------------------------------------------
// Every workload, each in its own process
// ---------------------------------------------------------------------

fn suite(args: &[String]) -> Result<ExitCode, String> {
    let only = flag(args, "--workload")?;
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(1);
    let quick = args.iter().any(|a| a == "--quick");
    let traced = args.iter().any(|a| a == "--traced");
    let seconds: f64 = parsed_flag(args, "--seconds")?.unwrap_or(if quick { 0.5 } else { 10.0 });
    if let Some(name) = only {
        if !WORKLOADS.contains(&name) {
            return Err(format!("unknown workload '{name}'"));
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let started = Instant::now();
    let mut results = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        let mut entry = vec![];
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if quick {
                cmd.arg("--quick");
            }
            let output = cmd.output().map_err(|e| format!("cannot start {name}: {e}"))?;
            let text = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let result = lines.pop().and_then(|l| json::parse(l).ok());
            let detail = lines
                .pop()
                .and_then(|l| l.strip_prefix(DETAIL_PREFIX))
                .and_then(|l| json::parse(l).ok());
            for line in lines {
                println!("{line}");
            }
            let (Some(result), Some(detail)) = (result, detail) else {
                eprintln!("FAIL {name}: no result (exit {:?})", output.status.code());
                all_correct = false;
                continue;
            };
            all_correct &=
                output.status.success() && result.get("correct") == Some(&Value::Bool(true));
            entry.push((
                if trace { "traced" } else { "untraced" },
                Value::obj([("result", result), ("detail", detail)]),
            ));
        }
        results.push((*name, Value::obj(entry)));
        println!();
    }
    let file = Value::obj([
        (
            "labels",
            Value::obj([
                ("nproc", Value::Num(host::nproc() as f64)),
                ("aes_backend", Value::Str(hummingbird_crypto::active_backend().name().into())),
                ("git_revision", Value::Str(host::git_revision())),
                ("rustc", Value::Str(host::rustc_version())),
                ("seed", Value::Num(seed as f64)),
                ("seconds", Value::Num(seconds)),
                ("quick", Value::Bool(quick)),
                ("loopback", Value::Bool(true)),
                ("wall_s", Value::Num(started.elapsed().as_secs_f64())),
            ]),
        ),
        ("workloads", Value::obj(results)),
    ]);
    let path = match flag(args, "--out")? {
        Some(p) => PathBuf::from(p),
        None => out_dir().join(format!("result_seed{seed}.json")),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_line() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({:.1} s for the whole run)",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
