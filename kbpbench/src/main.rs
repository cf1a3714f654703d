//! `kbpbench` — the repository benchmark: end-to-end metrics for the
//! `witness`, `muddy-wide` and `kbpd-mix` workloads and, in a separate
//! traced run, per-crate metrics from spans around public calls.
//!
//! ```text
//! python3 kbpbench/run.py --workload witness --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `run.py` builds this package and `kbpd`, then runs this binary with
//! `--kbpd <path>`. The last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; see README.md for the
//! workloads, the metrics and how steady they are.

mod mix;
mod solve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use stats::{median, status_mib, Metric, Report};
use trace::Tracer;

/// Set-ups per untraced run: this process's own plus fresh processes
/// that only set up; `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;
/// Failures echoed to stderr in full; the rest are only counted.
const FAILURES_SHOWN: usize = 5;

#[derive(Clone, Copy)]
enum Workload {
    Witness,
    MuddyWide,
    KbpdMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "witness" => Some(Workload::Witness),
            "muddy-wide" => Some(Workload::MuddyWide),
            "kbpd-mix" => Some(Workload::KbpdMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Witness => "witness",
            Workload::MuddyWide => "muddy-wide",
            Workload::KbpdMix => "kbpd-mix",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    kbpd: PathBuf,
    /// Only set up, print the set-up time, and exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut kbpd) = (None, None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (witness, muddy-wide, kbpd-mix)")
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            "--kbpd" => kbpd = Some(PathBuf::from(value)),
            _ => return Err(format!("unexpected argument {flag:?}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        kbpd: kbpd.ok_or("--kbpd is required")?,
        setup_only,
    })
}

/// What a timed phase measured.
#[derive(Default)]
pub struct Outcome {
    pub latencies_ms: Vec<f64>,
    pub attempted: usize,
    /// What went wrong, one entry per failed op.
    pub failures: Vec<String>,
    pub wall: Duration,
}

impl Outcome {
    pub fn record(&mut self, latency_ms: f64, failure: Option<String>) {
        self.latencies_ms.push(latency_ms);
        self.attempted += 1;
        self.failures.extend(failure);
    }

    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.wall.as_secs_f64()
    }
}

/// Every per-layer metric with its unit, in the order printed.
const PER_LAYER: [(&str, &str); 32] = [
    ("kbp-core.solve_ms", "ms"),
    ("kbp-core.induce_self_ms", "ms"),
    ("kbp-core.protocol_entries", "count"),
    ("kbp-core.guard_evaluations", "count"),
    ("kbp-core.layers_gen_quotiented", "count"),
    ("kbp-core.layers_quotiented", "count"),
    ("kbp-core.layers_sharded", "count"),
    ("kbp-core.layers_carried", "count"),
    ("kbp-systems.generate_ms", "ms"),
    ("kbp-systems.resident_worlds", "count"),
    ("kbp-systems.explicit_worlds", "count"),
    ("kbp-systems.gen_quotient_useful_share", "share"),
    ("kbp-systems.stabilize_ms", "ms"),
    ("kbp-systems.layer_renaming_ms", "ms"),
    ("kbp-systems.renaming_found_share", "share"),
    ("kbp-systems.rss_after_generate_mib", "MiB"),
    ("kbp-kripke.populate_ms", "ms"),
    ("kbp-kripke.populate_worlds", "count"),
    ("kbp-kripke.quotient_useful_share", "share"),
    ("kbp-kripke.shards", "count"),
    ("kbp-lang.compile_us", "us"),
    ("kbp-service.execute_ms", "ms"),
    ("kbp-service.wire_overhead_ms", "ms"),
    ("kbp-service.op.solve_p50_ms", "ms"),
    ("kbp-service.op.check_p50_ms", "ms"),
    ("kbp-service.op.fault_lattice_p50_ms", "ms"),
    ("kbp-service.op.enumerate_p50_ms", "ms"),
    ("kbp-service.op.define_p50_ms", "ms"),
    ("kbp-service.latency_p99_ms", "ms"),
    ("kbp-service.cache_hit_share", "share"),
    ("kbp-service.layers_restored_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Per-layer metrics a workload measured, by name.
pub type Measured = Vec<(&'static str, f64)>;

/// The full per-layer line from what a workload measured: metrics of
/// crates the workload never calls read 0.
fn per_layer(measured: &Measured) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// Set-up as a fresh process would pay it: runs this binary with
/// `--setup-only` and reads the seconds it reports.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .args(["--seconds", "1", "--trace", "0", "--setup-only", "--kbpd"])
        .arg(&args.kbpd)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("set-up process failed ({})", out.status));
    }
    text.lines()
        .last()
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| format!("set-up process printed {text:?}"))
}

/// A workload after set-up, ready for its timed phase. One exists per
/// process, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum SetUp {
    Solve(solve::SolveWorkload),
    Mix(mix::Mix),
}

impl SetUp {
    fn new(args: &Args) -> Result<Self, String> {
        Ok(match args.workload {
            Workload::Witness => SetUp::Solve(solve::SolveWorkload::set_up(solve::Which::Witness)?),
            Workload::MuddyWide => {
                SetUp::Solve(solve::SolveWorkload::set_up(solve::Which::MuddyWide)?)
            }
            Workload::KbpdMix => SetUp::Mix(mix::Mix::set_up(&args.kbpd, args.seed)?),
        })
    }

    /// The untraced timed phase; returns it with the solving process's
    /// peak resident memory (MiB).
    fn untraced(self, seconds: f64) -> Result<(Outcome, f64), String> {
        match self {
            SetUp::Solve(w) => {
                let outcome = w.run_untraced(seconds);
                Ok((outcome, status_mib("self", "VmHWM")?))
            }
            SetUp::Mix(mut mix) => {
                let outcome = mix.run_untraced(seconds);
                Ok((outcome, mix.finish()?))
            }
        }
    }

    /// The traced run; returns it with the per-layer metrics.
    fn traced(self, seconds: f64, tracer: &mut Tracer) -> Result<(Outcome, Vec<Metric>), String> {
        let (outcome, measured) = match self {
            SetUp::Solve(w) => w.run_traced(seconds, tracer),
            SetUp::Mix(mut mix) => {
                let measured = mix.run_traced(seconds, tracer)?;
                mix.finish()?;
                measured
            }
        };
        Ok((outcome, per_layer(&measured)))
    }

    fn finish(self) -> Result<(), String> {
        match self {
            SetUp::Solve(_) => Ok(()),
            SetUp::Mix(mix) => mix.finish().map(drop),
        }
    }
}

fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let workload = SetUp::new(args)?;
    let setup = start.elapsed().as_secs_f64();
    let (outcome, metrics) = if args.trace {
        let mut tracer = Tracer::new();
        let measured = workload.traced(args.seconds, &mut tracer)?;
        let path = PathBuf::from(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("kbpbench: spans written to {}", path.display());
        measured
    } else {
        let (outcome, peak) = workload.untraced(args.seconds)?;
        let mut setups = vec![setup];
        for _ in 1..SETUP_SAMPLES {
            setups.push(setup_in_child(args)?);
        }
        eprintln!("kbpbench: set-up samples (s): {setups:?}");
        let metrics = vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("latency_p50_ms", median(&outcome.latencies_ms), "ms"),
            Metric::new("ops_per_s", outcome.ops_per_s(), "1/s"),
            Metric::new("peak_rss_mib", peak, "MiB"),
        ];
        (outcome, metrics)
    };
    for f in outcome.failures.iter().take(FAILURES_SHOWN) {
        eprintln!("kbpbench: failed op: {f}");
    }
    Ok(Report {
        correct: outcome.failures.is_empty(),
        attempted: outcome.attempted,
        failed: outcome.failures.len(),
        metrics,
    })
}

/// `--setup-only`: set up, tear down, and report the set-up seconds.
fn set_up_only(args: &Args, start: Instant) -> Result<f64, String> {
    let workload = SetUp::new(args)?;
    let setup = start.elapsed().as_secs_f64();
    workload.finish()?;
    Ok(setup)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kbpbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match set_up_only(&args, start) {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("kbpbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args, start) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("kbpbench: {e}");
            ExitCode::FAILURE
        }
    }
}
