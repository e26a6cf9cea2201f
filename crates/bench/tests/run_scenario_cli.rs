//! `run_scenario` on configurations it must refuse: an unknown controller
//! name or an unknown key is a configuration error reported with exit
//! code 2, the way an unreadable or malformed file is, never a panic and
//! never a run of some other experiment.

use std::io::Write;
use std::process::{Command, Stdio};

/// Feeds `config` to `run_scenario -` and asserts it is refused with exit
/// code 2, no report on stdout and `message` on stderr.
fn assert_refused(config: &str, message: &str) {
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
    assert!(stderr.contains(message), "stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "no report for a refused config");
}

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
    assert_refused(config, r#"bad scenario config: unknown controller "pid""#);
}

#[test]
fn misspelt_key_is_a_config_error_not_a_default() {
    // Read as absent, `recruit_latncy` would run the 10 s default.
    let config = r#"{
        "kind": "farm",
        "service_time": 1.0,
        "arrival_rate": 1.0,
        "contract": { "MinThroughput": 0.5 },
        "horizon": 5.0,
        "recruit_latncy": 2.0
    }"#;
    assert_refused(
        config,
        r#"bad scenario config: unknown key "recruit_latncy""#,
    );
}
