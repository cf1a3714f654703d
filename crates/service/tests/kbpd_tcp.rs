//! Socket-mode end-to-end tests of the `kbpd` binary: the golden
//! transcript over real TCP, two concurrent clients (whole-line and
//! interleaved-partial-write framing), per-client quota rejections,
//! graceful shutdown on stdin EOF, and the readiness loop's adaptive
//! sleep (tight after progress, backed off when idle).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

const INPUT: &str = include_str!("data/smoke_input.jsonl");
const GOLDEN: &str = include_str!("data/smoke_golden.jsonl");

/// Every variable the daemon reads; tests must pin their environment.
const KBP_VARS: &[&str] = &[
    "KBP_SERVICE_WORKERS",
    "KBP_SERVICE_QUEUE",
    "KBP_SERVICE_CACHE_DIR",
    "KBP_SERVICE_CLIENT_PENDING",
    "KBP_SERVICE_MAX_CONNECTIONS",
    "KBP_SERVICE_MAX_LINE",
    "KBP_SERVICE_IDLE_TIMEOUT_MS",
    "KBP_SERVICE_WRITE_BUDGET_BYTES",
    "KBP_SERVICE_WRITE_STALL_MS",
];

struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

fn spawn_daemon(envs: &[(&str, &str)]) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kbpd"));
    for var in KBP_VARS {
        cmd.env_remove(var);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
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
    let mut lines = BufReader::new(stdout).lines();
    let announce = lines
        .next()
        .expect("an announce line")
        .expect("announce reads");
    assert!(
        announce.contains("\"kind\":\"listening\""),
        "unexpected announce: {announce}"
    );
    let addr = announce
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("announce carries the address")
        .to_string();
    Daemon { child, stdin, addr }
}

impl Daemon {
    fn connect(&self) -> TcpStream {
        TcpStream::connect(&self.addr).expect("connect to kbpd")
    }

    /// Graceful shutdown: close stdin (the shutdown signal) and wait.
    fn shutdown(mut self) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("kbpd exits");
        assert!(status.success(), "graceful shutdown exits 0: {status:?}");
    }
}

/// Sends a whole batch, half-closes, and reads every response line.
fn roundtrip(stream: &mut TcpStream, input: &str) -> Vec<String> {
    stream.write_all(input.as_bytes()).expect("write batch");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read response") > 0 {
        lines.push(line.trim_end_matches('\n').to_string());
        line.clear();
    }
    lines
}

#[test]
fn golden_transcript_over_tcp() {
    let daemon = spawn_daemon(&[("KBP_SERVICE_WORKERS", "2")]);
    let mut stream = daemon.connect();
    let responses = roundtrip(&mut stream, INPUT);
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(responses, golden, "socket mode must match the golden bytes");
    daemon.shutdown();
}

#[test]
fn two_concurrent_clients_each_get_the_golden_transcript() {
    let daemon = spawn_daemon(&[("KBP_SERVICE_WORKERS", "4")]);
    let addr_a = daemon.addr.clone();
    let addr_b = daemon.addr.clone();
    let run = |addr: String| {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            roundtrip(&mut stream, INPUT)
        })
    };
    let a = run(addr_a).join().expect("client a");
    let b = run(addr_b).join().expect("client b");
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(a, golden, "client a");
    assert_eq!(b, golden, "client b");
    daemon.shutdown();
}

#[test]
fn interleaved_partial_writes_do_not_mix_clients() {
    // Two clients dribble their requests a few bytes at a time, with
    // pauses, so the daemon's reads interleave mid-line. Framing is per
    // connection, so each client still gets exactly its own responses.
    let daemon = spawn_daemon(&[("KBP_SERVICE_WORKERS", "4")]);
    let make_client = |requests: Vec<String>, addr: String| {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            for request in &requests {
                let bytes = request.as_bytes();
                for chunk in bytes.chunks(7) {
                    stream.write_all(chunk).expect("partial write");
                    stream.flush().expect("flush");
                    std::thread::sleep(Duration::from_millis(2));
                }
                stream.write_all(b"\n").expect("newline");
            }
            stream.shutdown(Shutdown::Write).expect("half-close");
            let mut reader = BufReader::new(stream);
            let mut out = Vec::new();
            let mut line = String::new();
            while reader.read_line(&mut line).expect("read") > 0 {
                out.push(line.trim_end_matches('\n').to_string());
                line.clear();
            }
            out
        })
    };
    let a = make_client(
        vec![
            r#"{"id":1,"kind":"solve","scenario":"zoo_plain"}"#.to_string(),
            r#"{"id":2,"kind":"solve","scenario":"bit_transmission"}"#.to_string(),
        ],
        daemon.addr.clone(),
    );
    let b = make_client(
        vec![
            r#"{"id":100,"kind":"solve","scenario":"muddy_children_3"}"#.to_string(),
            r#"{"id":101,"kind":"solve","scenario":"zoo_plain"}"#.to_string(),
        ],
        daemon.addr.clone(),
    );
    let a = a.join().expect("client a");
    let b = b.join().expect("client b");
    let ids = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .map(|l| {
                l.split("\"id\":")
                    .nth(1)
                    .and_then(|rest| rest.split(',').next())
                    .expect("id field")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(ids(&a), vec!["1", "2"], "client a, in order: {a:?}");
    assert_eq!(ids(&b), vec!["100", "101"], "client b, in order: {b:?}");
    assert!(a.iter().all(|l| l.contains("\"ok\":true")), "{a:?}");
    assert!(b.iter().all(|l| l.contains("\"ok\":true")), "{b:?}");
    daemon.shutdown();
}

#[test]
fn quota_overflow_is_a_typed_response_not_a_drop() {
    let daemon = spawn_daemon(&[
        ("KBP_SERVICE_WORKERS", "1"),
        ("KBP_SERVICE_CLIENT_PENDING", "1"),
    ]);
    let mut stream = daemon.connect();
    let mut batch = String::new();
    for id in 0..6 {
        batch.push_str(&format!(
            "{{\"id\":{id},\"kind\":\"solve\",\"scenario\":\"muddy_children_3\"}}\n"
        ));
    }
    let responses = roundtrip(&mut stream, &batch);
    assert_eq!(responses.len(), 6, "every request answered: {responses:?}");
    for (i, line) in responses.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"id\":{i},")),
            "response {i} out of order: {line}"
        );
    }
    assert!(
        responses.iter().any(|l| l.contains("\"quota_exceeded\"")),
        "a 6-deep burst against quota 1 must trip the quota: {responses:?}"
    );
    assert!(
        responses.iter().any(|l| l.contains("\"ok\":true")),
        "the admitted job is served: {responses:?}"
    );
    daemon.shutdown();
}

#[test]
fn health_and_metrics_answer_over_tcp() {
    let daemon = spawn_daemon(&[("KBP_SERVICE_WORKERS", "2")]);
    let mut stream = daemon.connect();
    let responses = roundtrip(
        &mut stream,
        "{\"kind\":\"health\",\"id\":1}\n{\"kind\":\"metrics\",\"id\":2}\n",
    );
    assert_eq!(responses.len(), 2);
    assert!(
        responses[0].contains("\"kind\":\"health\"") && responses[0].contains("\"status\":\"ok\""),
        "{responses:?}"
    );
    assert!(
        responses[1].contains("\"kind\":\"metrics\"")
            && responses[1].contains("\"queue_depth\"")
            && responses[1].contains("\"workers_busy\"")
            && responses[1].contains("\"definitions\""),
        "{responses:?}"
    );
    daemon.shutdown();
}

#[test]
fn shutdown_drains_accepted_jobs_before_exit() {
    let daemon = spawn_daemon(&[("KBP_SERVICE_WORKERS", "1")]);
    let mut stream = daemon.connect();
    for id in 0..4 {
        writeln!(
            stream,
            "{{\"id\":{id},\"kind\":\"solve\",\"scenario\":\"bit_transmission\"}}"
        )
        .expect("write");
    }
    stream.flush().expect("flush");
    // Give the daemon's reader a moment to admit the burst, then pull
    // the plug while the single worker is still grinding through it.
    std::thread::sleep(Duration::from_millis(100));
    daemon.shutdown();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read after drain");
    let responses: Vec<&str> = body.lines().collect();
    assert_eq!(
        responses.len(),
        4,
        "every admitted job answered before exit: {body}"
    );
    for (i, line) in responses.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"id\":{i},")) && line.contains("\"ok\":true"),
            "response {i}: {line}"
        );
    }
}

/// Sends one request line (in one write) and reads its one response
/// line.
fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) -> String {
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("write request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    line
}

/// The first unsigned number after `"key":` in a response line.
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
fn closed_loop_inline_answers_do_not_wait_out_the_tick() {
    // `health` is answered inline by the plane, so each round trip is
    // the loop's reaction time. A loop that slept a fixed 1 ms tick
    // between passes took over 230 ms for these 200 trips.
    let daemon = spawn_daemon(&[("KBP_SERVICE_WORKERS", "1")]);
    let mut stream = daemon.connect();
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    assert!(ask(&mut stream, &mut reader, r#"{"kind":"health"}"#).contains("\"ok\":true"));
    let start = Instant::now();
    for _ in 0..200 {
        let answer = ask(&mut stream, &mut reader, r#"{"kind":"health"}"#);
        assert!(answer.contains("\"status\":\"ok\""), "{answer}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(150),
        "200 closed-loop health trips took {elapsed:?}"
    );
    daemon.shutdown();
}

#[test]
fn idle_plane_backs_off_to_the_tick() {
    // Ten idle connections and a probe: over 500 ms of quiet the loop
    // must be back at its 1 ms tick, about 500 passes. A loop stuck at
    // its 50 µs floor would make thousands.
    let daemon = spawn_daemon(&[("KBP_SERVICE_WORKERS", "1")]);
    let _idle: Vec<TcpStream> = (0..10).map(|_| daemon.connect()).collect();
    let mut probe = daemon.connect();
    let mut reader = BufReader::new(probe.try_clone().expect("clone stream"));
    std::thread::sleep(Duration::from_millis(50));
    let before = ask(&mut probe, &mut reader, r#"{"kind":"metrics"}"#);
    std::thread::sleep(Duration::from_millis(500));
    let after = ask(&mut probe, &mut reader, r#"{"kind":"metrics"}"#);
    let connections = after
        .split("\"connections\":")
        .nth(1)
        .expect("metrics carry the plane block");
    assert_eq!(
        metric(connections, "active") + metric(connections, "idle"),
        11,
        "every connection held open: {after}"
    );
    let passes = metric(&after, "passes") - metric(&before, "passes");
    assert!(passes <= 600, "{passes} passes over 500 idle ms");
    daemon.shutdown();
}
