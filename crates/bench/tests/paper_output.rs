//! The seeded paper claims print the same bytes on every run, in debug
//! and release and under either AES backend: Table 1 and Fig. 4 buy
//! whole paths on a seeded world, Table 2 calls every contract once, and
//! §2 runs the Helia-style service next to the market. Each digest test
//! pins the SHA-256 of one claim's stdout, so a change to the listing
//! search, the purchase path or the table layout shows here. The timed
//! claims cannot be pinned; their shape can.

use std::process::{Command, Output};

use hummingbird_crypto::sha256::Sha256;

/// Runs `bin` with `args` and returns its output; the run must succeed.
fn run(bin: &str, args: &[&str]) -> Output {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    assert!(out.status.success(), "{bin} {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

fn assert_stdout_digest(bin: &str, args: &[&str], want: &str) {
    let out = run(bin, args);
    let got: String = Sha256::digest(&out.stdout).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(got, want, "{bin} {args:?} printed:\n{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn sec2_output_is_unchanged() {
    assert_stdout_digest(
        env!("CARGO_BIN_EXE_paper"),
        &["--claim", "sec2"],
        "47e97fcbe2da53521a05ed2be921239d09f966991e58be830cf605ebea12221e",
    );
}

#[test]
fn table1_output_is_unchanged() {
    assert_stdout_digest(
        env!("CARGO_BIN_EXE_paper"),
        &["--claim", "table1"],
        "b42946727f0dd4fccf3713233483268964b864171292d705de6d6c43747c2215",
    );
}

#[test]
fn table2_output_is_unchanged() {
    assert_stdout_digest(
        env!("CARGO_BIN_EXE_paper"),
        &["--claim", "table2"],
        "0b3c59976a3ce35c01e6f8e859b4204860321f98e76be5fb4d0bbad90a6ff543",
    );
}

#[test]
fn fig4_output_is_unchanged() {
    assert_stdout_digest(
        env!("CARGO_BIN_EXE_paper"),
        &["--claim", "fig4"],
        "817c38c59452bfd62359dea90b02c955e2d698dcec97bbdd86cd06540a0fabe7",
    );
}

/// A Fig. 5 point that processed no packet prints `—` in every
/// measurement cell, never a real-looking `0.00`: at `--pkts 2` each of
/// 4 cores gets no packet, in the clone table and in the sharded one,
/// while the 1-core points still measure.
#[test]
fn fig5_prints_a_dash_for_a_point_without_packets() {
    let args =
        ["--claim", "fig5", "--engine", "null", "--cores", "1,4", "--pkts", "2", "--sharded"];
    let out = run(env!("CARGO_BIN_EXE_paper"), &args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows = |cores: &str| -> Vec<Vec<&str>> {
        let cells = stdout.lines().map(|line| line.split_whitespace().collect::<Vec<_>>());
        cells.filter(|cells| cells.first() == Some(&cores)).collect()
    };
    // The clone table, then the sharded one (its last cell is `exec`).
    let empty = rows("4");
    assert_eq!(empty.len(), 2, "{stdout}");
    assert_eq!(empty[0][1..], ["—"; 4], "{stdout}");
    assert_eq!(empty[1][1..5], ["—"; 4], "{stdout}");
    let measured = rows("1");
    assert_eq!(measured.len(), 2, "{stdout}");
    for row in measured {
        assert!(!row.contains(&"—"), "a 1-core point processed packets: {stdout}");
    }
}

/// A flag that no selected claim reads exits 2, naming the flags the
/// selected claims do read; the CI smoke leg's command line still runs.
#[test]
fn paper_rejects_flags_no_selected_claim_reads() {
    let paper = env!("CARGO_BIN_EXE_paper");
    for args in ["fig5 --json /tmp/x.json", "fig5 --core 4", "table1 --pkts 10"] {
        let out = Command::new(paper).arg("--claim").args(args.split(' ')).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = stderr.contains("the selected claims read");
        assert!(out.status.code() == Some(2) && named, "--claim {args}: {stderr}");
    }
    run(
        paper,
        &["--claim", "fig5", "--engine", "all", "--sharded", "--cores", "1,2", "--pkts", "20"],
    );
}

/// `--help` exits 0 and lists every claim with its caption and the
/// flags it reads.
#[test]
fn help_lists_every_claim_with_its_flags() {
    let out = run(env!("CARGO_BIN_EXE_paper"), &["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = |id: &str| stdout.lines().find(|l| l.split_whitespace().next() == Some(id));
    for id in ["sec2", "table1", "table2", "fig4", "fig5", "table3", "table4", "fig14", "fig15"] {
        assert!(line(id).is_some(), "{id}: {stdout}");
    }
    let fig5 = line("fig5").unwrap();
    let fig5_flags = "--engine --cores --pkts --sharded --batch";
    assert!(fig5.contains("Fig. 5") && fig5.ends_with(fig5_flags), "{stdout}");
    assert!(line("fig14").unwrap().ends_with("--cores --pkts"), "{stdout}");
    assert!(!line("table1").unwrap().contains("--"), "{stdout}");
}
