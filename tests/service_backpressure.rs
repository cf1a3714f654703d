//! Backpressure and budget behaviour of the service: strict admission
//! rejects deterministically with a typed `QueueFull` hint, and a
//! budget-exhausted job reports a partial outcome that leaves later
//! full-budget jobs on the same service untouched.

use kbp_core::Budget;
use kbp_service::{JobKind, JobRequest, Service, ServiceConfig};

fn job(id: u64, scenario: &str) -> JobRequest {
    JobRequest {
        id,
        kind: JobKind::Solve,
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

fn lines(service: &Service, jobs: &[JobRequest]) -> Vec<String> {
    service
        .run_batch_strict(jobs)
        .iter()
        .map(kbp_service::json::Json::to_line)
        .collect()
}

#[test]
fn strict_admission_rejects_exactly_the_overflow() {
    let jobs: Vec<JobRequest> = (0..6).map(|i| job(i, "zoo_plain")).collect();
    let service = Service::new(ServiceConfig::new().workers(3).queue_capacity(4));
    let responses = lines(&service, &jobs);
    assert_eq!(responses.len(), 6);
    for (i, line) in responses.iter().enumerate() {
        if i < 4 {
            assert!(
                line.contains("\"ok\":true") && line.contains("\"outcome\":\"complete\""),
                "job {i} should be admitted: {line}"
            );
        } else {
            assert!(
                line.contains("\"ok\":false")
                    && line.contains("\"queue_full\"")
                    && line.contains("\"capacity\":4")
                    && line.contains("\"retry_after_ms\":50")
                    && line.contains(&format!("\"id\":{i}")),
                "job {i} should be shed with a typed hint: {line}"
            );
        }
    }
    assert_eq!(service.stats().queue_rejections, 2);
}

#[test]
fn rejections_are_deterministic_across_worker_counts() {
    let jobs: Vec<JobRequest> = (0..8)
        .map(|i| {
            job(
                i,
                if i % 2 == 0 {
                    "zoo_plain"
                } else {
                    "muddy_children_3"
                },
            )
        })
        .collect();
    let reference = lines(
        &Service::new(ServiceConfig::new().workers(1).queue_capacity(5)),
        &jobs,
    );
    for workers in [2, 4] {
        let got = lines(
            &Service::new(ServiceConfig::new().workers(workers).queue_capacity(5)),
            &jobs,
        );
        assert_eq!(got, reference, "workers={workers}");
    }
}

#[test]
fn exhausted_budget_yields_partial_and_leaves_later_solves_intact() {
    let service = Service::new(ServiceConfig::new().workers(1));

    // A budget of one guard evaluation cannot finish bit transmission.
    let mut starved = job(1, "bit_transmission");
    starved.budget = Budget::new().max_guard_evaluations(1);
    let partial = service.execute(&starved).to_line();
    assert!(
        partial.contains("\"outcome\":\"partial\"")
            && partial.contains("\"exhausted\":{\"resource\":\"guard_evaluations\""),
        "starved job should report its exhausted resource: {partial}"
    );

    // The same context at full budget, on the same service, must match
    // a solve on a fresh service exactly.
    let after = service.execute(&job(2, "bit_transmission")).to_line();
    let fresh_service = Service::new(ServiceConfig::new().workers(1));
    let fresh = fresh_service.execute(&job(2, "bit_transmission")).to_line();
    assert_eq!(after, fresh, "a partial solve changed a later answer");
    assert!(after.contains("\"outcome\":\"complete\""));
}

#[test]
fn partial_check_reports_without_verifying() {
    let service = Service::new(ServiceConfig::new().workers(1));
    let mut starved = job(1, "bit_transmission");
    starved.kind = JobKind::Check;
    starved.budget = Budget::new().max_layer_points(1);
    let line = service.execute(&starved).to_line();
    assert!(
        line.contains("\"outcome\":\"partial\"") && !line.contains("is_implementation"),
        "a partial solve has nothing to verify: {line}"
    );
}
