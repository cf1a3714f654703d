//! Load-test the batch-solving service: push the full scenario registry
//! (including fault-lattice rungs and a budget grid) through the worker
//! pool twice and verify the two transcripts are bit-identical. Every
//! job solves cold, so the two passes should also take about the same
//! time; both wall times are printed.
//!
//! Run with: `cargo run --release --example service_load`

use std::time::Instant;

use knowledge_programs::kbp_core::Budget;
use knowledge_programs::kbp_service::{registry, JobKind, JobRequest, Service, ServiceConfig};

fn main() {
    let workers = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    let service = Service::new(ServiceConfig::new().workers(workers));

    // One batch spanning every scenario, every fault rung it supports,
    // and a small budget grid on the heaviest transmission scenarios.
    let mut jobs: Vec<JobRequest> = Vec::new();
    let mut push = |kind: JobKind, scenario: &str, fault: Option<&str>, budget: Budget| {
        let id = jobs.len() as u64;
        jobs.push(JobRequest {
            id,
            kind,
            scenario: scenario.to_string(),
            horizon: None,
            fault: fault.map(str::to_string),
            fault_seed: 7,
            budget,
            max_solutions: None,
            max_branches: None,
            client: None,
        });
    };
    for entry in registry() {
        if entry.solvable {
            push(JobKind::Solve, entry.name, None, Budget::new());
            push(JobKind::Check, entry.name, None, Budget::new());
        } else {
            push(JobKind::Enumerate, entry.name, None, Budget::new());
        }
        if entry.lattice.is_some() {
            push(JobKind::FaultLattice, entry.name, None, Budget::new());
            for rung in ["loss", "crash-stop", "loss+crash-stop"] {
                push(JobKind::Solve, entry.name, Some(rung), Budget::new());
            }
        }
    }
    for points in [50, 500, 5000] {
        push(
            JobKind::Solve,
            "sequence_transmission_2",
            None,
            Budget::new().max_layer_points(points),
        );
    }
    println!(
        "batch: {} jobs over {} scenarios, {} workers",
        jobs.len(),
        registry().len(),
        workers
    );

    let pass = || {
        let started = Instant::now();
        let lines: Vec<String> = service
            .run_batch(&jobs)
            .iter()
            .map(knowledge_programs::kbp_service::json::Json::to_line)
            .collect();
        (lines, started.elapsed())
    };
    let (first, first_time) = pass();
    let (second, second_time) = pass();

    assert_eq!(first, second, "second pass diverged from the first");
    println!("first pass:  {first_time:?}");
    println!("second pass: {second_time:?}");
    println!("transcripts bit-identical: {} lines", first.len());

    let ok = first.iter().filter(|l| l.contains("\"ok\":true")).count();
    println!("responses ok: {ok}/{}", first.len());
}
