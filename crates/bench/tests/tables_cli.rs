//! `tables` rejects input it does not understand: a mistyped subcommand
//! or flag must fail loudly (exit 2 with the usage), never print
//! nothing and exit 0, and never run with a flag silently ignored.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on bad input");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(stderr.contains("usage: tables"), "stderr: {stderr}");
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    assert_usage_error(&tables(&["fleets"]), "unknown subcommand `fleets`");
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    // `--host=` (not `--hosts=`) used to run the default 1,000 hosts.
    assert_usage_error(&tables(&["fleet", "--host=10"]), "unknown flag `--host=10`");
    // A flag another subcommand accepts is still unknown here.
    assert_usage_error(
        &tables(&["ckptcadence", "--hosts=10"]),
        "unknown flag `--hosts=10`",
    );
    assert_usage_error(&tables(&["table1", "extra"]), "unknown flag `extra`");
}

#[test]
fn malformed_flag_value_exits_2_with_usage() {
    assert_usage_error(
        &tables(&["ckptcadence", "--requests=many"]),
        "bad value `many` for --requests",
    );
}

#[test]
fn hosts_below_two_exits_2_with_usage() {
    // `fleet --hosts=0|1` used to panic on its p99 gate, and the
    // community subcommands on the engine's two-host assert.
    for cmd in [
        "fig6mc",
        "fig7mc",
        "fig8mc",
        "shards",
        "fleet",
        "fleetrecover",
        "fig9fail",
        "fig9dist",
    ] {
        for hosts in ["--hosts=0", "--hosts=1"] {
            assert_usage_error(&tables(&[cmd, hosts]), "--hosts must be at least 2");
        }
    }
}
