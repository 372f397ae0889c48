//! The `hetflow` binary's exit codes and messages for edge-case input.

use std::process::{Command, Output};

fn hetflow(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hetflow")).args(args).output().expect("spawn hetflow")
}

#[test]
fn noop_with_zero_tasks_exits_2_instead_of_reporting_zero_latencies() {
    let out = hetflow(&["noop", "--tasks", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no table of 0.0 ms rows");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--tasks must be at least 1"), "stderr: {err}");
}

#[test]
fn noop_with_tasks_reports_every_component() {
    let out = hetflow(&["noop", "--store", "redis", "--size", "1000", "--tasks", "2"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for row in ["thinker->server", "serialization", "server->worker", "lifetime"] {
        assert!(text.contains(row), "missing {row} in:\n{text}");
    }
}
