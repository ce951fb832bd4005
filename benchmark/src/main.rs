//! See the library's documentation for the command line.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    hummingbird_benchmark::cli(&args)
}
