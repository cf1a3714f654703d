//! End-to-end smoke test of the `kbpd` binary: pipe a three-job batch
//! through stdin and compare stdout byte-for-byte against the golden
//! transcript (the same transcript CI diffs against). Also pins the
//! typed startup failure on a malformed `KBP_SERVICE_WORKERS`.

use std::io::Write;
use std::process::{Command, Stdio};

const INPUT: &str = include_str!("data/smoke_input.jsonl");
const GOLDEN: &str = include_str!("data/smoke_golden.jsonl");

fn run_kbpd(envs: &[(&str, &str)], input: &str) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kbpd"));
    // Isolate from the ambient environment: the test must pin the
    // configuration it runs under.
    for var in [
        "KBP_SERVICE_WORKERS",
        "KBP_SERVICE_QUEUE",
        "KBP_SERVICE_CACHE",
    ] {
        cmd.env_remove(var);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("kbpd spawns");
    // A startup-failure run may exit before reading stdin; a broken
    // pipe here is fine, the assertions below look at status/output.
    let _ = child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes());
    child.wait_with_output().expect("kbpd exits")
}

#[test]
fn golden_three_job_batch() {
    // Worker count and cache state must not change a byte of output:
    // run the same batch under several configurations.
    for envs in [
        &[("KBP_SERVICE_WORKERS", "1")][..],
        &[("KBP_SERVICE_WORKERS", "2")][..],
        &[("KBP_SERVICE_WORKERS", "4"), ("KBP_SERVICE_CACHE", "off")][..],
    ] {
        let output = run_kbpd(envs, INPUT);
        assert!(output.status.success(), "kbpd failed under {envs:?}");
        let stdout = String::from_utf8(output.stdout).expect("utf8 output");
        assert_eq!(stdout, GOLDEN, "output diverged from golden under {envs:?}");
    }
}

#[test]
fn stale_generation_gate_variable_is_ignored() {
    // The engine reads no environment: a leftover setting of the removed
    // generation gate neither blocks startup nor changes a byte.
    let output = run_kbpd(&[("KBP_GEN_QUOTIENT_MIN_WORLDS", "wide")], INPUT);
    assert!(output.status.success(), "kbpd refused a stale variable");
    let stdout = String::from_utf8(output.stdout).expect("utf8 output");
    assert_eq!(stdout, GOLDEN);
}

#[test]
fn malformed_worker_config_is_a_startup_error() {
    let output = run_kbpd(&[("KBP_SERVICE_WORKERS", "a few")], INPUT);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
    assert!(
        stderr.contains("KBP_SERVICE_WORKERS"),
        "stderr should name the variable: {stderr}"
    );
    assert!(output.stdout.is_empty(), "no responses before startup");
}

#[test]
fn bad_lines_get_error_responses_in_order() {
    let input = "this is not json\n{\"id\":9,\"kind\":\"solve\",\"scenario\":\"zoo_plain\"}\n";
    let output = run_kbpd(&[("KBP_SERVICE_WORKERS", "2")], input);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one response per line: {stdout}");
    assert!(lines[0].contains("\"ok\":false") && lines[0].contains("\"parse\""));
    assert!(lines[1].contains("\"id\":9") && lines[1].contains("\"ok\":true"));
}
