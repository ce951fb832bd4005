//! Runs each document-writing run at a small size with `--json` and
//! checks the document it actually wrote: the run exits 0, the file
//! parses, and its key paths are the schema's. Also: the overload sweep
//! records a measured service cost for every family, a document that
//! cannot be written fails the run, a point that processed no packet is
//! written as `null`, and no run writes a file it was not asked for.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use hummingbird_bench::json::{parse, Value};

/// A temporary directory of this test process, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    /// A new empty directory; `name` only labels it, so tests that run
    /// at once may share one.
    fn new(name: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("hummingbird-bench-documents-{}-{n}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// The names of the files in the directory.
    fn files(&self) -> Vec<String> {
        let entries = std::fs::read_dir(&self.0).expect("read temp dir");
        entries.map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned()).collect()
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

/// Object member lookup.
fn member<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    let Value::Obj(pairs) = v else { return None };
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Runs `bin args --json <file>` from a temp dir and returns the parsed
/// document it wrote.
fn document(bin: &str, args: &[&str]) -> Value {
    let dir = TempDir::new(bin.rsplit('/').next().expect("binary name"));
    let path = dir.0.join("doc.json");
    let mut args = args.to_vec();
    args.extend(["--json", path.to_str().expect("UTF-8 temp path")]);
    let out = run(bin, &args, &dir);
    assert!(out.status.success(), "{bin} {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    parse(&std::fs::read_to_string(&path).expect("document written"))
        .unwrap_or_else(|e| panic!("{bin}: document does not parse: {e}"))
}

/// The key paths of `paper --claim fig5 --sharded`'s document (the
/// hot-path schema in `paper`'s module doc), in document order.
const HOTPATH_KEYS: &str = "
    .schema .bench .aes_backend .hardware_threads .batch .records .records[].engine
    .records[].mode .records[].cores .records[].payload_b .records[].ns_per_pkt .records[].mpps
    .scaling .scaling[].engine .scaling[].mode .scaling[].curve .scaling[].curve[].cores
    .scaling[].curve[].mpps .scaling[].curve[].speedup .scaling[].curve[].exec";

/// The key paths of `overload_sweep`'s document (the overload schema in
/// its module doc), in document order.
const OVERLOAD_KEYS: &str = "
    .schema .bench .pkts_cap .service_ns .service_ns.hummingbird .service_ns.helia
    .service_ns.drkey .service_ns.epic .records .records[].family .records[].shards
    .records[].offered_kbps .records[].reserved_delivery .records[].reserved_goodput_kbps
    .records[].reserved_p99_ms .records[].be_delivery .records[].be_goodput_kbps
    .records[].be_p99_ms .records[].retransmits .records[].timeouts .records[].stalls
    .records[].queue_drops .records[].service_queue_drops .records[].completed .saturation
    .saturation[].family .saturation[].shards .saturation[].saturation_kbps
    .saturation[].post_goodput_kbps .saturation[].reserved_held";

#[test]
fn fig5_forwarding_writes_the_hotpath_document() {
    let doc = document(
        env!("CARGO_BIN_EXE_paper"),
        &["--claim", "fig5", "--engine", "null", "--sharded", "--cores", "1", "--pkts", "1000"],
    );
    assert_eq!(skeleton(&doc), HOTPATH_KEYS.split_whitespace().collect::<Vec<_>>());
}

#[test]
fn overload_sweep_writes_the_overload_document() {
    // Run from an empty directory: the service costs come from the run.
    let doc = document(env!("CARGO_BIN_EXE_overload_sweep"), &["--pkts", "100"]);
    assert_eq!(skeleton(&doc), OVERLOAD_KEYS.split_whitespace().collect::<Vec<_>>());
    let Some(Value::Obj(costs)) = member(&doc, "service_ns") else { panic!("no service_ns") };
    for (family, ns) in costs {
        assert!(matches!(ns, Value::Num(ns) if ns.is_finite() && *ns > 0.0), "{family}: {ns}");
    }
}

#[test]
fn a_failed_document_write_fails_the_run() {
    let dir = TempDir::new("unwritable");
    let args = ["--claim", "fig5", "--engine", "null", "--cores", "1", "--pkts", "1000"];
    let out = run(
        env!("CARGO_BIN_EXE_paper"),
        &[&args[..], &["--json", "/nonexistent-dir/x.json"]].concat(),
        &dir,
    );
    assert!(!out.status.success(), "exit {:?} after a failed write", out.status.code());
}

#[test]
fn a_point_that_processed_no_packet_is_written_as_null() {
    // 2 packets over 4 cores is 0 per core: the 4-core points ran empty.
    let doc = document(
        env!("CARGO_BIN_EXE_paper"),
        &["--claim", "fig5", "--engine", "null", "--cores", "1,4", "--pkts", "2", "--sharded"],
    );
    let Some(Value::Arr(records)) = member(&doc, "records") else { panic!("no records") };
    let mut empty = 0;
    for r in records {
        let measured = [member(r, "ns_per_pkt"), member(r, "mpps")];
        if member(r, "cores") == Some(&Value::Num(4.0)) {
            empty += 1;
            assert_eq!(measured, [Some(&Value::Null); 2], "{r}");
        } else {
            assert!(measured.iter().all(|m| matches!(m, Some(Value::Num(n)) if *n > 0.0)), "{r}");
        }
    }
    assert_eq!(empty, 5, "four payload records and one sharded record at 4 cores");
    let Some(Value::Arr(curves)) = member(&doc, "scaling") else { panic!("no scaling") };
    for curve in curves {
        let Some(Value::Arr(points)) = member(curve, "curve") else { panic!("no curve") };
        let empty_point = &points[1];
        assert_eq!(member(empty_point, "mpps"), Some(&Value::Null), "{empty_point}");
        assert_eq!(member(empty_point, "speedup"), Some(&Value::Null), "{empty_point}");
    }
}

#[test]
fn without_json_no_run_writes_a_file() {
    let runs: [(&str, &[&str]); 3] = [
        (
            env!("CARGO_BIN_EXE_paper"),
            &["--claim", "fig5", "--engine", "null", "--cores", "1", "--pkts", "100"],
        ),
        (env!("CARGO_BIN_EXE_overload_sweep"), &["--pkts", "10"]),
        (env!("CARGO_BIN_EXE_latency_comparison"), &["--pkts", "1"]),
    ];
    for (bin, args) in runs {
        let dir = TempDir::new("no-json");
        let out = run(bin, args, &dir);
        assert!(out.status.success(), "{bin}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(dir.files(), Vec::<String>::new(), "{bin} wrote into its working directory");
    }
}
