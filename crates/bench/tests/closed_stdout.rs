//! Both binaries write stdout through `koc_bench::print`: a reader that
//! closes the pipe early (`koc-bench timeline | head`) ends the run quietly
//! with exit 0, and any other write error exits 1 with the reason.

use std::process::{Command, Output};

/// Runs `bin` with `args`, its stdout a pipe whose read end is closed.
fn run_into_closed_pipe(bin: &str, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(writer)
        .output()
        .expect("spawn the binary")
}

fn assert_quiet_success(what: &str, out: &Output) {
    assert_eq!(
        out.status.code(),
        Some(0),
        "{what}: a closed stdout must end the run with exit 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "{what}: a closed stdout must end the run quietly; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn koc_bench_ends_quietly_when_stdout_is_closed() {
    let out = run_into_closed_pipe(
        env!("CARGO_BIN_EXE_koc-bench"),
        &["timeline", "--len", "100"],
    );
    assert_quiet_success("koc-bench timeline", &out);
}

#[test]
fn koc_experiments_ends_quietly_when_stdout_is_closed() {
    let out = run_into_closed_pipe(env!("CARGO_BIN_EXE_koc-experiments"), &["table1"]);
    assert_quiet_success("koc-experiments table1", &out);
}

/// `/dev/full` takes no bytes: every write fails with "no space left on
/// device", an error that is not a closed pipe.
#[cfg(target_os = "linux")]
#[test]
fn other_stdout_write_errors_exit_1_with_the_reason() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(env!("CARGO_BIN_EXE_koc-experiments"))
        .arg("table1")
        .stdout(full)
        .output()
        .expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("failed to write to stdout"), "{stderr}");
}
