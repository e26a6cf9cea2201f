//! `run_scenario` on a configuration it must refuse: an unknown controller
//! name is a configuration error reported with exit code 2, the way an
//! unreadable or malformed file is, never a panic.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn unknown_controller_is_a_config_error_not_a_panic() {
    let config = r#"{
        "kind": "farm",
        "service_time": 1.0,
        "arrival_rate": 1.0,
        "contract": { "MinThroughput": 0.5 },
        "horizon": 5.0,
        "controller": "pid"
    }"#;
    let mut child = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn run_scenario");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(config.as_bytes())
        .expect("write config");
    let out = child.wait_with_output().expect("run_scenario exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains(r#"bad scenario config: unknown controller "pid""#),
        "stderr:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "no report for a refused config");
}
