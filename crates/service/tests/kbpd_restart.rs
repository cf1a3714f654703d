//! Warm-restart determinism: a killed-and-restarted `kbpd` with a
//! persisted cache directory must answer a repeated batch bit-identically
//! to a cold daemon — and the warmth must be *visible* in metrics
//! (sessions preloaded at startup, cache hits when the batch repeats).

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};

const INPUT: &str = include_str!("data/smoke_input.jsonl");
const GOLDEN: &str = include_str!("data/smoke_golden.jsonl");

const KBP_VARS: &[&str] = &[
    "KBP_SERVICE_WORKERS",
    "KBP_SERVICE_QUEUE",
    "KBP_SERVICE_CACHE",
    "KBP_SERVICE_CACHE_SESSIONS",
    "KBP_SERVICE_CACHE_DIR",
    "KBP_SERVICE_CLIENT_PENDING",
    "KBP_SERVICE_MAX_CONNECTIONS",
    "KBP_SERVICE_MAX_LINE",
    "KBP_SERVICE_IDLE_TIMEOUT_MS",
    "KBP_SERVICE_WRITE_BUDGET_BYTES",
    "KBP_SERVICE_WRITE_STALL_MS",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kbpd-restart-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

fn spawn_daemon(cache_dir: &std::path::Path) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kbpd"));
    for var in KBP_VARS {
        cmd.env_remove(var);
    }
    cmd.env("KBP_SERVICE_WORKERS", "2");
    cmd.env("KBP_SERVICE_CACHE_DIR", cache_dir);
    let mut child = cmd
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("kbpd spawns");
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("stdout piped");
    let announce = BufReader::new(stdout)
        .lines()
        .next()
        .expect("announce line")
        .expect("announce reads");
    let addr = announce
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("address in announce")
        .to_string();
    Daemon { child, stdin, addr }
}

impl Daemon {
    fn shutdown(mut self) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("kbpd exits");
        assert!(status.success(), "graceful shutdown exits 0: {status:?}");
    }
}

/// Runs the golden batch, then a metrics probe on the same connection
/// *after* all batch responses arrived (so execution — and therefore
/// cache-hit accounting — has finished). Returns (batch, metrics).
fn batch_then_metrics(addr: &str) -> (Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(INPUT.as_bytes()).expect("write batch");
    stream.flush().expect("flush");
    let expected = INPUT.lines().count();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut batch = Vec::new();
    let mut line = String::new();
    while batch.len() < expected {
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("read response") > 0,
            "connection closed early: {batch:?}"
        );
        batch.push(line.trim_end_matches('\n').to_string());
    }
    writeln!(stream, "{{\"kind\":\"metrics\",\"id\":999}}").expect("write metrics");
    stream.shutdown(Shutdown::Write).expect("half-close");
    line.clear();
    assert!(
        reader.read_line(&mut line).expect("read metrics") > 0,
        "no metrics response"
    );
    (batch, line.trim_end_matches('\n').to_string())
}

fn metric(metrics: &str, key: &str) -> u64 {
    metrics
        .split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .filter(|digits| !digits.is_empty())
        })
        .unwrap_or_else(|| panic!("metric {key} missing in {metrics}"))
        .parse()
        .expect("metric parses")
}

#[test]
fn restarted_daemon_answers_bit_identically_and_visibly_warm() {
    let cache_dir = temp_dir("warm");
    let golden: Vec<&str> = GOLDEN.lines().collect();

    // Cold run: empty cache directory, golden answers, then a graceful
    // shutdown that persists the solve sessions.
    let cold = spawn_daemon(&cache_dir);
    let (cold_batch, cold_metrics) = batch_then_metrics(&cold.addr);
    assert_eq!(cold_batch, golden, "cold daemon matches the golden bytes");
    assert_eq!(metric(&cold_metrics, "preloaded"), 0, "{cold_metrics}");
    cold.shutdown();

    let persisted: Vec<_> = std::fs::read_dir(&cache_dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "kbps"))
        .collect();
    assert!(
        !persisted.is_empty(),
        "shutdown must persist solve sessions to {}",
        cache_dir.display()
    );

    // Warm run: same directory. Same bytes on the wire, but the cache
    // preloaded the persisted sessions and the repeated batch hits.
    let warm = spawn_daemon(&cache_dir);
    let (warm_batch, warm_metrics) = batch_then_metrics(&warm.addr);
    assert_eq!(
        warm_batch, cold_batch,
        "a warm restart must answer bit-identically to the cold daemon"
    );
    assert!(
        metric(&warm_metrics, "preloaded") >= 1,
        "restart must preload persisted sessions: {warm_metrics}"
    );
    assert!(
        metric(&warm_metrics, "hits") >= 1,
        "repeated batch must hit the preloaded sessions: {warm_metrics}"
    );
    warm.shutdown();

    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn corrupt_cache_files_cold_start_instead_of_crashing() {
    let cache_dir = temp_dir("corrupt");
    std::fs::create_dir_all(&cache_dir).expect("mkdir");
    // A validly-named file full of garbage: the daemon must skip it and
    // serve cold, not refuse to start or crash.
    std::fs::write(cache_dir.join("00000000deadbeef.kbps"), b"not a session")
        .expect("write garbage");
    let daemon = spawn_daemon(&cache_dir);
    let (batch, metrics) = batch_then_metrics(&daemon.addr);
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        batch, golden,
        "garbage in the store must not change answers"
    );
    assert!(
        metric(&metrics, "persist_failures") >= 1,
        "the skipped file is counted: {metrics}"
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
