//! End-to-end smoke test of the `kbpd` binary: pipe a three-job batch
//! through stdin and compare stdout byte-for-byte against the golden
//! transcript (the same transcript CI diffs against). Also pins the
//! typed startup failure on a malformed `KBP_SERVICE_WORKERS`, that
//! variables of the removed artifact cache are ignored, the exit
//! when the reader of stdout goes away, and the stdin pipe's exemption
//! from the per-client quota and the connection protection policies.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const INPUT: &str = include_str!("data/smoke_input.jsonl");
const GOLDEN: &str = include_str!("data/smoke_golden.jsonl");

/// Spawns `kbpd` in stdin mode with piped stdio under exactly `envs`:
/// the test must pin the configuration it runs under, so every
/// `KBP_SERVICE_*` variable of the ambient environment is removed.
fn spawn_kbpd(envs: &[(&str, &str)]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kbpd"));
    for (var, _) in std::env::vars() {
        if var.starts_with("KBP_SERVICE_") {
            cmd.env_remove(var);
        }
    }
    cmd.envs(envs.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("kbpd spawns")
}

fn run_kbpd(envs: &[(&str, &str)], input: &str) -> std::process::Output {
    let mut child = spawn_kbpd(envs);
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
    // Worker count must not change a byte of output: run the same
    // batch under several configurations.
    for envs in [
        &[("KBP_SERVICE_WORKERS", "1")][..],
        &[("KBP_SERVICE_WORKERS", "2")][..],
        &[("KBP_SERVICE_WORKERS", "4")][..],
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
fn stale_cache_variables_are_ignored() {
    // The artifact cache and its two knobs are gone: values that used
    // to refuse startup (a non-boolean switch, a zero session bound)
    // now neither block it nor change a byte.
    let output = run_kbpd(
        &[
            ("KBP_SERVICE_CACHE", "maybe"),
            ("KBP_SERVICE_CACHE_SESSIONS", "0"),
        ],
        INPUT,
    );
    assert_eq!(
        output.status.code(),
        Some(0),
        "kbpd refused a stale variable"
    );
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

/// Waits up to `limit` for `child` to exit; kills it and fails the test
/// if it is still running then, so a hang fails instead of wedging.
fn wait_or_kill(child: &mut Child, limit: Duration, what: &str) {
    let deadline = Instant::now() + limit;
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("kbpd still running {limit:?} after {what}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn exits_when_stdout_goes_away() {
    // `yes '{"kind":"health"}' | kbpd | head -1`: input never ends, so
    // only the dead stdout can stop the daemon.
    let mut child = spawn_kbpd(&[("KBP_SERVICE_WORKERS", "1")]);
    let mut stdin = child.stdin.take().expect("stdin piped");
    let writer = std::thread::spawn(
        move || {
            while stdin.write_all(b"{\"kind\":\"health\"}\n").is_ok() {}
        },
    );
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first response");
    assert!(first.contains("\"kind\":\"health\""), "{first}");
    drop(stdout);
    wait_or_kill(&mut child, Duration::from_secs(10), "stdout closed");
    // The writer ends on the broken pipe once kbpd is gone.
    writer.join().expect("writer thread");
}

#[test]
fn stdin_pipe_is_exempt_from_quota_and_protection_policies() {
    // One worker and a pending quota of 1 would refuse a socket client's
    // burst; a 50 ms idle timeout would close a socket client that goes
    // quiet mid-line. The operator's pipe gets neither.
    let mut child = spawn_kbpd(&[
        ("KBP_SERVICE_WORKERS", "1"),
        ("KBP_SERVICE_CLIENT_PENDING", "1"),
        ("KBP_SERVICE_IDLE_TIMEOUT_MS", "50"),
    ]);
    let mut stdin = child.stdin.take().expect("stdin piped");
    let lines: Vec<String> = (1..=8)
        .map(|id| format!("{{\"id\":{id},\"kind\":\"solve\",\"scenario\":\"muddy_children_3\"}}\n"))
        .collect();
    for line in &lines[..4] {
        stdin.write_all(line.as_bytes()).expect("write");
    }
    let (head, tail) = lines[4].split_at(lines[4].len() / 2);
    stdin.write_all(head.as_bytes()).expect("write");
    stdin.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(400));
    stdin.write_all(tail.as_bytes()).expect("write");
    for line in &lines[5..] {
        stdin.write_all(line.as_bytes()).expect("write");
    }
    drop(stdin);
    wait_or_kill(&mut child, Duration::from_secs(60), "the batch");
    let output = child.wait_with_output().expect("kbpd output");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8 output");
    let responses: Vec<&str> = stdout.lines().collect();
    assert_eq!(responses.len(), 8, "one answer per request: {stdout}");
    for (i, response) in responses.iter().enumerate() {
        let id = format!("{{\"id\":{},\"ok\":true,", i + 1);
        assert!(
            response.starts_with(&id),
            "answer {i} in order and ok: {response}"
        );
    }
    assert!(!stdout.contains("quota_exceeded"), "{stdout}");
    for notice in [
        "idle_timeout",
        "read_deadline",
        "write_budget",
        "write_stall",
    ] {
        assert!(!stdout.contains(notice), "no {notice} notice: {stdout}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn stdin_mode_thread_inventory() {
    // Serving thread (the plane), the stdin forwarder and the workers:
    // no more than `workers + 2` while stdin is held open.
    let workers = 2;
    let mut child = spawn_kbpd(&[("KBP_SERVICE_WORKERS", "2")]);
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin.write_all(b"{\"kind\":\"health\"}\n").expect("write");
    stdin.flush().expect("flush");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("health answer");
    let tasks = std::fs::read_dir(format!("/proc/{}/task", child.id()))
        .expect("/proc/<pid>/task readable")
        .count();
    drop(stdin);
    wait_or_kill(&mut child, Duration::from_secs(10), "stdin closed");
    assert!(
        tasks <= workers + 2,
        "stdin mode ran {tasks} threads with {workers} workers"
    );
}
