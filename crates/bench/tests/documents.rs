//! Runs each trajectory-writing binary at a small size with `--json` and
//! checks the document it actually wrote: the run exits 0, the file
//! parses, and its key skeleton equals that of the checked-in
//! `BENCH_*.json` it regenerates. Also: a document that cannot be written
//! fails the run, and a calibration file that does not parse stops a
//! sweep before it starts.

use std::path::PathBuf;
use std::process::{Command, Output};

use hummingbird_bench::json::{parse, Value};

/// A temporary directory of this test process, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("hummingbird-bench-documents-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `bin` with `args` from `dir`, so nothing lands in the repository.
fn run(bin: &str, args: &[&str], dir: &TempDir) -> Output {
    Command::new(bin).args(args).current_dir(&dir.0).output().expect("spawn binary")
}

/// Every key path of `v` in first-seen order, array elements merged
/// (`.records[].engine`).
fn skeleton(v: &Value) -> Vec<String> {
    fn walk(v: &Value, path: &str, out: &mut Vec<String>) {
        match v {
            Value::Obj(pairs) => {
                for (key, v) in pairs {
                    let path = format!("{path}.{key}");
                    if !out.contains(&path) {
                        out.push(path.clone());
                    }
                    walk(v, &path, out);
                }
            }
            Value::Arr(items) => items.iter().for_each(|v| walk(v, &format!("{path}[]"), out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(v, "", &mut out);
    out
}

fn check_document(bin: &str, args: &[&str], checked_in: &str) {
    let dir = TempDir::new(bin.rsplit('/').next().expect("binary name"));
    let path = dir.0.join("doc.json");
    let mut args = args.to_vec();
    args.extend(["--json", path.to_str().expect("UTF-8 temp path")]);
    let out = run(bin, &args, &dir);
    assert!(out.status.success(), "{bin} {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let doc = parse(&std::fs::read_to_string(&path).expect("document written"))
        .unwrap_or_else(|e| panic!("{bin}: document does not parse: {e}"));
    let reference = parse(checked_in).expect("checked-in document parses");
    assert_eq!(skeleton(&doc), skeleton(&reference), "{bin}");
}

#[test]
fn fig5_forwarding_writes_the_hotpath_document() {
    check_document(
        env!("CARGO_BIN_EXE_fig5_forwarding"),
        &["--engine", "null", "--sharded", "--cores", "1", "--pkts", "1000"],
        include_str!("../../../BENCH_hotpath.json"),
    );
}

#[test]
fn overload_sweep_writes_the_overload_document() {
    check_document(
        env!("CARGO_BIN_EXE_overload_sweep"),
        &["--pkts", "100"],
        include_str!("../../../BENCH_overload.json"),
    );
}

#[test]
fn a_failed_document_write_fails_the_run() {
    let dir = TempDir::new("unwritable");
    let args = ["--engine", "null", "--cores", "1", "--pkts", "1000"];
    let out = run(
        env!("CARGO_BIN_EXE_fig5_forwarding"),
        &[&args[..], &["--json", "/nonexistent-dir/x.json"]].concat(),
        &dir,
    );
    assert!(!out.status.success(), "exit {:?} after a failed write", out.status.code());
}

#[test]
fn a_calibration_file_that_does_not_parse_exits_2() {
    let dir = TempDir::new("broken-calibration");
    std::fs::write(dir.0.join("BENCH_hotpath.json"), "{\"records\": [").expect("write file");
    for bin in [env!("CARGO_BIN_EXE_overload_sweep"), env!("CARGO_BIN_EXE_latency_comparison")] {
        let out = run(bin, &["--pkts", "1"], &dir);
        assert_eq!(out.status.code(), Some(2), "{bin}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("BENCH_hotpath.json"), "{bin}");
    }
}
