//! The `kbpd-mix` workload: the `kbpd` daemon as a child process, driven
//! over one TCP connection as a closed loop (one request in flight).
//!
//! Requests are a seeded draw over the registry scenarios (default and
//! raised horizons; `solve`, `check`, `fault_lattice`, `enumerate`) and
//! the three `examples/dsl` programs, which are `define`d in set-up and
//! solved by name: consecutive blocks, each a seeded permutation of every
//! distinct job, so that every run sends the same mix and only the order
//! depends on the seed. Every fiftieth request re-`define`s one of those
//! programs with a fresh revision comment, which changes its fingerprint:
//! the next jobs on it miss the artifact cache and write to it, beside
//! the repeated requests that read it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use kbp_service::json::{self, Json};
use kbp_service::{parse_request, registry, Request, Service, ServiceConfig};

use crate::stats::{median, ms, quantile, share, status_mib};
use crate::trace::Tracer;
use crate::{Measured, Outcome};

/// The DSL programs defined in set-up, as (wire name, source path).
const DSL: [(&str, &str); 3] = [
    ("dsl_bit_transmission", "examples/dsl/bit_transmission.kbp"),
    ("dsl_muddy_children_3", "examples/dsl/muddy_children_3.kbp"),
    (
        "dsl_coordinated_attack",
        "examples/dsl/coordinated_attack.kbp",
    ),
];
/// One request in this many redefines a DSL program (a 2% share).
const REDEFINE_EVERY: u64 = 50;
/// How far past its default horizon a scenario is also requested.
const RAISED: usize = 2;
/// The tenant token on every request; definitions are owned by it.
const CLIENT: &str = "kbpbench";
/// A response slower than this counts the connection as dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// SplitMix64: the seeded source of the request sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One distinct job of the mix.
struct Job {
    kind: &'static str,
    scenario: String,
    horizon: usize,
}

impl Job {
    fn line(&self, id: u64) -> String {
        json::obj(vec![
            ("id", Json::U64(id)),
            ("kind", Json::Str(self.kind.into())),
            ("scenario", Json::Str(self.scenario.clone())),
            ("horizon", Json::U64(self.horizon as u64)),
            ("client", Json::Str(CLIENT.into())),
        ])
        .to_line()
    }
}

/// The distinct jobs: every registry scenario at its default and raised
/// horizon, every DSL program at its own; `enumerate` at default
/// horizons only (raised, it grows exponentially).
fn distinct_jobs(dsl: &[(String, String, usize)]) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut push = |kinds: &[&'static str], scenario: &str, horizon: usize| {
        for &kind in kinds {
            jobs.push(Job {
                kind,
                scenario: scenario.to_string(),
                horizon,
            });
        }
    };
    for entry in registry() {
        let h = entry.default_horizon;
        if !entry.solvable {
            push(&["enumerate"], entry.name, h);
            continue;
        }
        let kinds: &[&str] = if entry.lattice.is_some() {
            &["solve", "check", "fault_lattice"]
        } else {
            &["solve", "check"]
        };
        push(kinds, entry.name, h);
        push(kinds, entry.name, h + RAISED);
        push(&["enumerate"], entry.name, h);
    }
    for (name, _, h) in dsl {
        push(&["solve", "check", "enumerate"], name, *h);
        push(&["solve", "check"], name, h + RAISED);
    }
    jobs
}

/// `kbpd --listen 127.0.0.1:0` as a child process.
struct Daemon {
    child: Child,
    /// Closing it is the daemon's graceful-shutdown signal.
    stdin: Option<ChildStdin>,
    /// Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(kbpd: &Path) -> Result<Self, String> {
        let mut child = Command::new(kbpd)
            .args(["--listen", "127.0.0.1:0"])
            .env_remove("KBP_SERVICE_CACHE_DIR")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", kbpd.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().ok_or("kbpd stdout not piped")?);
        let mut line = String::new();
        let announced = stdout.read_line(&mut line).map_err(|e| e.to_string());
        let mut daemon = Daemon {
            child,
            stdin,
            _stdout: stdout,
            addr: String::new(),
        };
        announced?;
        daemon.addr = json::parse(line.trim())
            .ok()
            .and_then(|j| j.get("addr").and_then(Json::as_str).map(str::to_string))
            .ok_or_else(|| format!("kbpd did not announce its address: {line:?}"))?;
        Ok(daemon)
    }

    fn peak_rss_mib(&self) -> Result<f64, String> {
        status_mib(&self.child.id().to_string(), "VmHWM")
    }

    /// Closes stdin and waits for the drain to finish.
    fn shutdown(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("kbpd exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("kbpd did not shut down within 30 s".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One TCP connection to the daemon.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }
}

enum Op {
    Job(usize),
    Define(usize),
}

/// A set-up `kbpd-mix`: the daemon, its connection, and the in-process
/// reference service that has seen the same requests.
pub struct Mix {
    daemon: Daemon,
    conn: Conn,
    reference: Service,
    jobs: Vec<Job>,
    /// Per job, the reference response after its `{"id":0,` prefix.
    expected: Vec<String>,
    /// Per DSL program: (wire name, source, default horizon).
    dsl: Vec<(String, String, usize)>,
    revisions: Vec<u64>,
    rng: Rng,
    /// The rest of the current block: a seeded permutation of every
    /// distinct job, so each run draws the same mix in its own order.
    block: Vec<usize>,
    drawn: u64,
    next_id: u64,
}

impl Mix {
    /// Spawns the daemon, defines the DSL programs, computes the
    /// reference answer of every distinct job in-process, and makes one
    /// wire pass over every distinct job, checking each answer.
    pub fn set_up(kbpd: &Path, seed: u64) -> Result<Self, String> {
        let mut dsl = Vec::new();
        for (name, path) in DSL {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let compiled = kbp_lang::compile(&source)
                .map_err(|d| format!("{path} does not compile: {d:?}"))?;
            let horizon =
                usize::try_from(compiled.default_horizon()).map_err(|e| format!("{path}: {e}"))?;
            dsl.push((name.to_string(), source, horizon));
        }
        let config = ServiceConfig::from_env()
            .map_err(|e| format!("service configuration: {e}"))?
            .cache_dir(None);
        let daemon = Daemon::spawn(kbpd)?;
        let conn = Conn::open(&daemon.addr).map_err(|e| format!("connecting to kbpd: {e}"))?;
        let jobs = distinct_jobs(&dsl);
        let mut mix = Mix {
            daemon,
            conn,
            reference: Service::new(config),
            expected: Vec::new(),
            revisions: vec![0; dsl.len()],
            dsl,
            jobs,
            rng: Rng(seed),
            block: Vec::new(),
            drawn: 0,
            next_id: 1,
        };
        for d in 0..mix.dsl.len() {
            let line = mix.define_line(d);
            let want = mix.reference_answer(&line)?;
            mix.expect_wire(&line, &want)?;
        }
        for j in 0..mix.jobs.len() {
            let want = mix.reference_answer(&mix.jobs[j].line(0))?;
            let suffix = want
                .strip_prefix("{\"id\":0,")
                .ok_or_else(|| format!("reference answer without a leading id: {want}"))?;
            mix.expected.push(suffix.to_string());
            let id = mix.take_id();
            let line = mix.jobs[j].line(id);
            mix.expect_wire(&line, &with_id(id, suffix))?;
        }
        Ok(mix)
    }

    fn take_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// A `define` of DSL program `d` at its current revision.
    fn define_line(&mut self, d: usize) -> String {
        let (name, source, _) = &self.dsl[d];
        let mut text = source.clone();
        if self.revisions[d] > 0 {
            text.push_str(&format!("\n# revision {}\n", self.revisions[d]));
        }
        let (name, id) = (name.clone(), self.take_id());
        json::obj(vec![
            ("op", Json::Str("define".into())),
            ("id", Json::U64(id)),
            ("name", Json::Str(name)),
            ("source", Json::Str(text)),
            ("client", Json::Str(CLIENT.into())),
        ])
        .to_line()
    }

    /// The in-process answer to one request line.
    fn reference_answer(&self, line: &str) -> Result<String, String> {
        match parse_request(line) {
            Ok(Request::Job(job)) => Ok(self.reference.execute(&job).to_line()),
            Ok(Request::Define(req)) => Ok(self.reference.define_response(&req, CLIENT).to_line()),
            _ => Err(format!("not a job or define request: {line}")),
        }
    }

    /// Set-up round trip: the answer must match, or set-up fails.
    fn expect_wire(&mut self, line: &str, want: &str) -> Result<(), String> {
        let got = self
            .conn
            .round_trip(line)
            .map_err(|e| format!("set-up request failed: {e}"))?;
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "set-up answer differs\n  request {line}\n  wire    {got}\n  in-proc {want}"
            ))
        }
    }

    fn draw(&mut self) -> Op {
        self.drawn += 1;
        if self.drawn.is_multiple_of(REDEFINE_EVERY) {
            return Op::Define(self.rng.below(self.dsl.len()));
        }
        if self.block.is_empty() {
            self.block = (0..self.jobs.len()).collect();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        Op::Job(self.block.pop().unwrap_or_default())
    }

    /// The next request of the sequence, its class, and for a job the
    /// precomputed answer it must get.
    fn next_request(&mut self) -> (String, &'static str, Option<String>) {
        match self.draw() {
            Op::Define(d) => {
                self.revisions[d] += 1;
                (self.define_line(d), "define", None)
            }
            Op::Job(j) => {
                let id = self.take_id();
                let want = with_id(id, &self.expected[j]);
                (self.jobs[j].line(id), self.jobs[j].kind, Some(want))
            }
        }
    }

    /// Sends one request and reads its answer; a transport error
    /// reconnects and counts the op as failed.
    fn wire(&mut self, line: &str) -> (Duration, Result<String, String>) {
        let started = Instant::now();
        let result = self.conn.round_trip(line);
        let latency = started.elapsed();
        match result {
            Ok(got) => (latency, Ok(got)),
            Err(e) => {
                let reconnect = Conn::open(&self.daemon.addr).map(|c| self.conn = c);
                let note = reconnect
                    .err()
                    .map_or(String::new(), |r| format!("; reconnect: {r}"));
                (latency, Err(format!("transport: {e}{note}")))
            }
        }
    }

    /// The untraced closed loop for `seconds`.
    pub fn run_untraced(&mut self, seconds: f64) -> Outcome {
        let mut outcome = Outcome::default();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            let (line, _, precomputed) = self.next_request();
            // A define's answer is computed in-process (a cheap compile),
            // which also keeps the reference's definitions in step.
            let want = precomputed.map_or_else(|| self.reference_answer(&line), Ok);
            let (latency, got) = self.wire(&line);
            outcome.record(ms(latency), verdict(&line, got, want));
        }
        outcome.wall = started.elapsed();
        outcome
    }

    /// Reads the daemon's `metrics` op.
    fn probe(&mut self) -> Result<Json, String> {
        let line = self
            .conn
            .round_trip("{\"kind\":\"metrics\"}")
            .map_err(|e| format!("metrics probe: {e}"))?;
        json::parse(&line).map_err(|e| format!("metrics probe: {e}"))
    }

    /// The traced run: half the time traced, each wire request followed
    /// by the same request through the in-process reference service
    /// (which has seen the same sequence, so its cache mirrors the
    /// daemon's) and its answer compared byte for byte; then half the
    /// time untraced.
    pub fn run_traced(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Result<(Outcome, Measured), String> {
        let before = self.probe()?;
        let mut outcome = Outcome::default();
        let mut by_class: HashMap<&'static str, Vec<f64>> = HashMap::new();
        let mut overhead = Vec::new();
        let started = Instant::now();
        let mut op = 0;
        while started.elapsed().as_secs_f64() < seconds / 2.0 {
            let (line, class, _) = self.next_request();
            let wire_start = Instant::now();
            let (latency, got) = self.wire(&line);
            let wire_span = tracer.record(
                "kbp-service.wire",
                op,
                None,
                wire_start,
                wire_start + latency,
            );
            let (want, exec_span) = tracer.span("kbp-service.execute", op, Some(wire_span), || {
                self.reference_answer(&line)
            });
            overhead.push(ms(latency) - ms(tracer.duration(exec_span)));
            by_class.entry(class).or_default().push(ms(latency));
            outcome.record(ms(latency), verdict(&line, got, want));
            op += 1;
        }
        outcome.wall = started.elapsed();
        let after = self.probe()?;
        let untraced = self.run_untraced(seconds / 2.0);

        let mut compile = Vec::new();
        for _ in 0..20 {
            for (_, source, _) in &self.dsl {
                let (compiled, span) = tracer.span("kbp-lang.compile", op, None, || {
                    kbp_lang::compile(source).is_ok()
                });
                if !compiled {
                    return Err("a DSL program stopped compiling".into());
                }
                compile.push(tracer.duration(span).as_secs_f64() * 1e6);
            }
        }

        let delta = |path: &[&str]| {
            let read = |j: &Json| {
                path.iter()
                    .try_fold(j, |j, k| j.get(k))
                    .and_then(Json::as_u64)
                    .map_or(0, |v| v as usize)
            };
            read(&after).saturating_sub(read(&before))
        };
        let hits = delta(&["cache", "hits"]);
        let misses = delta(&["cache", "misses"]);
        let class_p50 = |c: &str| median(by_class.get(c).map_or(&[][..], Vec::as_slice));
        let measured = vec![
            ("kbp-lang.compile_us", median(&compile)),
            (
                "kbp-service.execute_ms",
                median(&tracer.per_op_ms("kbp-service.execute")),
            ),
            ("kbp-service.wire_overhead_ms", median(&overhead)),
            ("kbp-service.op.solve_p50_ms", class_p50("solve")),
            ("kbp-service.op.check_p50_ms", class_p50("check")),
            (
                "kbp-service.op.fault_lattice_p50_ms",
                class_p50("fault_lattice"),
            ),
            ("kbp-service.op.enumerate_p50_ms", class_p50("enumerate")),
            ("kbp-service.op.define_p50_ms", class_p50("define")),
            (
                "kbp-service.latency_p99_ms",
                quantile(&untraced.latencies_ms, 0.99),
            ),
            ("kbp-service.cache_hit_share", share(hits, hits + misses)),
            (
                "kbp-service.layers_restored_share",
                share(delta(&["layers_restored"]), delta(&["layers_total"])),
            ),
            (
                "trace.overhead_share",
                outcome.ops_per_s() / untraced.ops_per_s(),
            ),
        ];
        outcome.attempted += untraced.attempted;
        outcome.failures.extend(untraced.failures);
        Ok((outcome, measured))
    }

    /// Peak resident memory of the daemon, then a graceful shutdown.
    pub fn finish(self) -> Result<f64, String> {
        let peak = self.daemon.peak_rss_mib()?;
        let _ = self.conn.writer.shutdown(std::net::Shutdown::Both);
        self.daemon.shutdown()?;
        Ok(peak)
    }
}

fn with_id(id: u64, suffix: &str) -> String {
    format!("{{\"id\":{id},{suffix}")
}

/// `None` when the wire answer is the expected one; otherwise what went
/// wrong: a typed refusal (`queue_full`, `quota_exceeded`,
/// `definition_quota`, ...), a transport error, or a different answer.
fn verdict(
    line: &str,
    got: Result<String, String>,
    want: Result<String, String>,
) -> Option<String> {
    match (got, want) {
        (Ok(got), Ok(want)) if got == want => None,
        (Ok(got), Ok(want)) => {
            let refusal = json::parse(&got).ok().and_then(|j| {
                let kind = j.get("error")?.get("kind")?.as_str()?.to_string();
                Some(kind)
            });
            let what = refusal.map_or("wrong answer".to_string(), |k| format!("refused ({k})"));
            Some(format!(
                "{what}: request {line}\n  wire    {got}\n  in-proc {want}"
            ))
        }
        (Err(e), _) | (_, Err(e)) => Some(format!("request {line}: {e}")),
    }
}
