//! Wire-level chaos tests of the `kbpd` event-driven connection plane.
//!
//! A seeded fleet of adversarial clients (stalled readers, tricklers,
//! half-closers, mid-stream resets, oversized floods, connect churn —
//! see `chaos/mod.rs`) hammers a release daemon while well-behaved
//! clients assert the contract the plane must keep: bit-identical,
//! in-order responses within a deadline, every forced disconnect typed
//! and counted, drain-on-shutdown even when the owed connection died,
//! and a thread inventory that does not grow with connection count.
//!
//! The seed comes from `KBP_CHAOS_SEED` (default 1) so CI can run a
//! fixed seed matrix; every failure message carries the seed.

mod chaos;

use chaos::{fetch_metrics, metric, run_client, schedule, ChaosKind, Proxy};
use proptest::prelude::*;
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

fn chaos_seed() -> u64 {
    std::env::var("KBP_CHAOS_SEED")
        .ok()
        .and_then(|raw| raw.trim().parse().ok())
        .unwrap_or(1)
}

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
    let addr = announce
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("announce carries the address")
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

/// Sends a batch, half-closes, reads every line under a read deadline.
fn roundtrip_with_deadline(addr: &str, input: &str, deadline: Duration) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(input.as_bytes()).expect("write batch");
    stream.shutdown(Shutdown::Write).expect("half-close");
    stream.set_read_timeout(Some(deadline)).expect("deadline");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read within deadline") > 0 {
        lines.push(line.trim_end_matches('\n').to_string());
        line.clear();
    }
    lines
}

/// Tags every job line of the smoke input with a tenant token. The
/// `client` field is never echoed, so the golden bytes are unchanged.
fn tagged_input(client: &str) -> String {
    INPUT
        .lines()
        .map(|line| {
            if line.trim().is_empty() {
                line.to_string()
            } else {
                line.replacen('{', &format!("{{\"client\":\"{client}\","), 1)
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// The headline witness: a seeded chaos fleet cannot disturb
/// well-behaved clients — golden bytes, per-connection order, within a
/// deadline — and the daemon survives to shut down gracefully.
#[test]
fn well_behaved_clients_get_golden_bytes_under_chaos() {
    let seed = chaos_seed();
    let daemon = spawn_daemon(&[
        ("KBP_SERVICE_WORKERS", "4"),
        ("KBP_SERVICE_MAX_CONNECTIONS", "64"),
        ("KBP_SERVICE_IDLE_TIMEOUT_MS", "2000"),
        ("KBP_SERVICE_WRITE_STALL_MS", "2000"),
    ]);
    let fleet = schedule(seed, 12);
    let chaos_threads: Vec<_> = fleet
        .into_iter()
        .map(|kind| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || run_client(&addr, &kind))
        })
        .collect();
    let golden_threads: Vec<_> = (0..3)
        .map(|i| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                let input = tagged_input(&format!("golden-{i}"));
                roundtrip_with_deadline(&addr, &input, Duration::from_secs(30))
            })
        })
        .collect();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    for (i, thread) in golden_threads.into_iter().enumerate() {
        let responses = thread.join().expect("golden client thread");
        assert_eq!(
            responses, golden,
            "golden client {i} must get the exact golden bytes under chaos seed {seed}"
        );
    }
    for thread in chaos_threads {
        thread.join().expect("chaos client thread");
    }
    // The plane is still healthy and reports tenant-scoped metrics.
    let metrics = fetch_metrics(&daemon.addr);
    assert!(
        metrics.contains("\"connections\"") && metrics.contains("\"disconnects\""),
        "metrics expose the plane under seed {seed}: {metrics}"
    );
    daemon.shutdown();
}

/// Thread-inventory witness: 40 idle connections are served by a
/// bounded plane, not a thread pair each. With 4 workers the whole
/// daemon needs ~7 threads; we assert a hard ceiling of 16 and, for
/// the record, the strict `< 2N` the old design could never meet.
#[cfg(target_os = "linux")]
#[test]
fn thread_inventory_is_bounded_with_many_idle_connections() {
    const IDLE_CONNS: usize = 40;
    let daemon = spawn_daemon(&[
        ("KBP_SERVICE_WORKERS", "4"),
        ("KBP_SERVICE_MAX_CONNECTIONS", "64"),
        ("KBP_SERVICE_IDLE_TIMEOUT_MS", "0"),
    ]);
    let mut holders = Vec::new();
    for _ in 0..IDLE_CONNS {
        holders.push(TcpStream::connect(&daemon.addr).expect("idle connect"));
    }
    // One active client proves the plane is serving while the idle
    // fleet sits connected.
    let responses = roundtrip_with_deadline(&daemon.addr, INPUT, Duration::from_secs(30));
    assert_eq!(responses, GOLDEN.lines().collect::<Vec<_>>());
    let tasks = std::fs::read_dir(format!("/proc/{}/task", daemon.child.id()))
        .expect("/proc/<pid>/task readable")
        .count();
    assert!(
        tasks <= 16,
        "plane threads must not scale with connections: {tasks} threads for {IDLE_CONNS} idle conns"
    );
    assert!(
        tasks < 2 * IDLE_CONNS,
        "strictly below the old 2-per-conn design"
    );
    drop(holders);
    daemon.shutdown();
}

/// Idle and half-open connections are reaped with *typed* notices, and
/// each forced close lands in its own metrics counter.
#[test]
fn idle_and_half_open_connections_get_typed_notices() {
    let daemon = spawn_daemon(&[
        ("KBP_SERVICE_WORKERS", "1"),
        ("KBP_SERVICE_IDLE_TIMEOUT_MS", "400"),
    ]);
    let read_notice = |stream: TcpStream| -> String {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("notice line");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("eof after notice");
        assert!(rest.is_empty(), "connection closes after the notice");
        line
    };
    // A silent connection: idle_timeout.
    let idle = TcpStream::connect(&daemon.addr).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("deadline");
    // A half-open line (bytes but no newline): read_deadline.
    let mut half = TcpStream::connect(&daemon.addr).expect("connect half");
    half.write_all(b"{\"id\":1,\"kind\":\"so")
        .expect("partial line");
    half.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("deadline");
    let idle_notice = read_notice(idle);
    let half_notice = read_notice(half);
    assert!(
        idle_notice.contains("\"kind\":\"idle_timeout\"") && idle_notice.contains("\"ok\":false"),
        "typed idle notice: {idle_notice}"
    );
    assert!(
        half_notice.contains("\"kind\":\"read_deadline\"") && half_notice.contains("\"ok\":false"),
        "typed half-open notice: {half_notice}"
    );
    let metrics = fetch_metrics(&daemon.addr);
    assert!(metric(&metrics, "idle_timeout") >= 1, "{metrics}");
    assert!(metric(&metrics, "read_deadline") >= 1, "{metrics}");
    daemon.shutdown();
}

/// A reader that stalls with a growing backlog trips the write budget
/// and is closed — while a concurrent well-behaved client still gets
/// its golden bytes within the deadline (slowloris does not convoy).
#[test]
fn slow_reader_trips_the_write_budget_without_delaying_others() {
    let daemon = spawn_daemon(&[
        ("KBP_SERVICE_WORKERS", "2"),
        ("KBP_SERVICE_WRITE_BUDGET_BYTES", "4096"),
    ]);
    // Metrics requests are answered inline, so a flood the client never
    // reads grows the outbuf fast, past any kernel socket buffering.
    let mut flood = TcpStream::connect(&daemon.addr).expect("connect flood");
    let line = b"{\"kind\":\"metrics\",\"id\":1}\n";
    let mut tripped = false;
    'outer: for _ in 0..200 {
        for _ in 0..50 {
            if flood.write_all(line).is_err() {
                tripped = true; // daemon closed us mid-flood: also fine
                break 'outer;
            }
        }
        let metrics = fetch_metrics(&daemon.addr);
        if metric(&metrics, "write_budget") >= 1 {
            tripped = true;
            break;
        }
    }
    assert!(
        tripped,
        "a never-reading metrics flood must trip the budget"
    );
    // The well-behaved client is unaffected.
    let responses = roundtrip_with_deadline(&daemon.addr, INPUT, Duration::from_secs(30));
    assert_eq!(responses, GOLDEN.lines().collect::<Vec<_>>());
    daemon.shutdown();
}

/// Drain honesty: when the owing connection was force-closed, its
/// completed jobs are dropped *and counted*, and shutdown still
/// terminates instead of waiting for a client that no longer exists.
#[test]
fn force_closed_connections_drop_responses_but_never_wedge_the_drain() {
    let daemon = spawn_daemon(&[
        ("KBP_SERVICE_WORKERS", "1"),
        ("KBP_SERVICE_WRITE_BUDGET_BYTES", "2048"),
        ("KBP_SERVICE_QUEUE", "64"),
    ]);
    let mut victim = TcpStream::connect(&daemon.addr).expect("connect victim");
    // Slow jobs first (one worker grinds through eight solves), then an unread
    // inline-metrics flood to blow the write budget while they are
    // still in flight.
    for id in 0..8 {
        writeln!(
            victim,
            "{{\"id\":{id},\"kind\":\"solve\",\"scenario\":\"bit_transmission\"}}"
        )
        .expect("write job");
    }
    for _ in 0..4000 {
        if victim
            .write_all(b"{\"kind\":\"metrics\",\"id\":2}\n")
            .is_err()
        {
            break; // force-closed under our feet — that is the point
        }
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let dropped = loop {
        let metrics = fetch_metrics(&daemon.addr);
        let dropped = metric(&metrics, "responses_dropped");
        if dropped >= 1 {
            break dropped;
        }
        assert!(
            Instant::now() < deadline,
            "force-closed connection's responses must be counted dropped: {metrics}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(dropped >= 1);
    // The drain must still terminate (Daemon::shutdown asserts exit 0).
    daemon.shutdown();
}

/// The harness itself is honest: a zero-chaos proxy run is
/// byte-identical to a direct connection.
#[test]
fn zero_chaos_proxy_is_byte_identical_to_direct() {
    let daemon = spawn_daemon(&[("KBP_SERVICE_WORKERS", "2")]);
    let proxy = Proxy::spawn(daemon.addr.clone());
    let direct = roundtrip_with_deadline(&daemon.addr, INPUT, Duration::from_secs(30));
    let proxied = roundtrip_with_deadline(proxy.addr(), INPUT, Duration::from_secs(30));
    assert_eq!(proxied, direct, "the proxy adds nothing to the wire");
    assert_eq!(direct, GOLDEN.lines().collect::<Vec<_>>());
    daemon.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chaos schedule is a pure function of the seed: same seed,
    /// same event sequence — and a longer schedule extends a shorter
    /// one rather than reshuffling it (so growing a CI matrix never
    /// changes the meaning of existing seeds).
    #[test]
    fn chaos_schedule_is_seed_deterministic(seed in 0u64..1_000_000, n in 1usize..32) {
        let a = schedule(seed, n);
        let b = schedule(seed, n);
        prop_assert_eq!(&a, &b);
        let longer = schedule(seed, n + 5);
        prop_assert_eq!(&longer[..n], &a[..]);
    }

    /// Every seed yields a well-formed fleet with bounded parameters
    /// (no schedule can accidentally demand unbounded work).
    #[test]
    fn chaos_schedules_are_well_formed(seed in 0u64..1_000_000) {
        for kind in schedule(seed, 16) {
            match kind {
                ChaosKind::StalledReader { jobs, stall_ms } => {
                    prop_assert!((1..=4).contains(&jobs) && stall_ms < 250);
                }
                ChaosKind::Trickle { jobs, chunk, pause_ms } => {
                    prop_assert!((1..=3).contains(&jobs) && chunk >= 1 && pause_ms <= 5);
                }
                ChaosKind::HalfClose { jobs } | ChaosKind::MidStreamReset { jobs } => {
                    prop_assert!((1..=4).contains(&jobs));
                }
                ChaosKind::OversizedFlood { lines, line_len } => {
                    prop_assert!((1..=4).contains(&lines) && line_len >= 2048);
                }
                ChaosKind::Churn { connects } => {
                    prop_assert!((2..=7).contains(&connects));
                }
            }
        }
    }
}
