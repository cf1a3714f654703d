//! Service-level determinism: the same batch of jobs must produce
//! bit-identical JSON responses regardless of worker count, and on a
//! second pass through the same service. This is the service
//! counterpart of `parallel_determinism.rs` — worker scheduling is a
//! performance knob, never a semantic one.

use kbp_core::Budget;
use kbp_service::{registry, JobKind, JobRequest, Service, ServiceConfig};

fn job(id: u64, kind: JobKind, scenario: &str) -> JobRequest {
    JobRequest {
        id,
        kind,
        scenario: scenario.to_string(),
        horizon: None,
        fault: None,
        fault_seed: 0,
        budget: Budget::new(),
        max_solutions: None,
        max_branches: None,
        client: None,
    }
}

/// A batch exercising every job kind, several scenarios, fault rungs,
/// and a couple of deliberate errors (unknown scenario, unsupported
/// solve of a future-referring program).
fn mixed_batch() -> Vec<JobRequest> {
    let mut jobs = vec![
        job(1, JobKind::Solve, "bit_transmission"),
        job(2, JobKind::Check, "muddy_children_3"),
        job(3, JobKind::Enumerate, "zoo_self_fulfilling"),
        job(4, JobKind::Solve, "zoo_plain"),
        job(5, JobKind::FaultLattice, "bit_transmission"),
        job(6, JobKind::Solve, "no_such_scenario"),
        job(7, JobKind::Solve, "zoo_self_defeating"),
        job(8, JobKind::Check, "coordinated_attack"),
    ];
    let mut faulty = job(9, JobKind::Solve, "bit_transmission");
    faulty.fault = Some("loss".to_string());
    faulty.fault_seed = 11;
    jobs.push(faulty);
    // Repeat a job: a repeat answers like the first run.
    jobs.push(job(10, JobKind::Solve, "bit_transmission"));
    jobs
}

fn render(service: &Service, jobs: &[JobRequest]) -> Vec<String> {
    service
        .run_batch(jobs)
        .iter()
        .map(kbp_service::json::Json::to_line)
        .collect()
}

#[test]
fn batch_output_is_invariant_across_workers() {
    let jobs = mixed_batch();
    let reference = render(&Service::new(ServiceConfig::new().workers(1)), &jobs);
    assert_eq!(reference.len(), jobs.len());
    assert_eq!(
        reference[9],
        reference[0].replacen("\"id\":1,", "\"id\":10,", 1)
    );

    let available = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    for workers in [1, 2, available] {
        let service = Service::new(ServiceConfig::new().workers(workers));
        let lines = render(&service, &jobs);
        assert_eq!(lines, reference, "divergence at workers={workers}");
        // Run the same batch again on the same service: the second pass
        // must also be bit-identical.
        let again = render(&service, &jobs);
        assert_eq!(
            again, reference,
            "second-pass divergence at workers={workers}"
        );
    }
}

#[test]
fn every_registry_scenario_is_deterministic_across_workers() {
    let jobs: Vec<JobRequest> = registry()
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let kind = if entry.solvable {
                JobKind::Solve
            } else {
                JobKind::Enumerate
            };
            job(i as u64, kind, entry.name)
        })
        .collect();
    let reference = render(&Service::new(ServiceConfig::new().workers(1)), &jobs);
    let parallel = render(&Service::new(ServiceConfig::new().workers(3)), &jobs);
    assert_eq!(reference, parallel);
}
