//! The seeded paper claims print the same bytes on every run, in debug
//! and release and under either AES backend: Table 1 and Fig. 4 buy
//! whole paths on a seeded testbed, Table 2 calls every contract once.
//! Each test pins the SHA-256 of one claim's stdout, so a change to the
//! listing search, the purchase path or the table layout shows here.

use std::process::Command;

use hummingbird_crypto::sha256::Sha256;

fn assert_stdout_digest(bin: &str, args: &[&str], want: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    assert!(out.status.success(), "{bin} {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let got: String = Sha256::digest(&out.stdout).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(got, want, "{bin} {args:?} printed:\n{}", String::from_utf8_lossy(&out.stdout));
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
