//! What the benchmark reads about its own process and host (Linux
//! `/proc`; there is no libc crate offline).

use std::process::Command;

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(user, system)` CPU seconds consumed by every thread of this
/// process so far. `/proc/self/stat` counts in USER_HZ ticks, which is
/// 100 on every Linux ABI, so differences are good to 10 ms.
pub fn cpu_seconds() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / 100.0, stime / 100.0))
}

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// First line a command prints, or `"unknown"` (a bare checkout is not
/// a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn git_revision() -> String {
    first_line("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
}

pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}
