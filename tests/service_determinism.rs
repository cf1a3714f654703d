//! Service-level determinism: the same batch of jobs must produce
//! bit-identical JSON responses regardless of worker count and of
//! whether the cross-request artifact cache is enabled. This is the
//! service counterpart of `parallel_determinism.rs` — worker scheduling
//! and cache warmth are performance knobs, never semantic ones.

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
    // Repeat a job so the warm path is exercised within a single batch.
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
fn batch_output_is_invariant_across_workers_and_cache() {
    let jobs = mixed_batch();
    let reference = render(
        &Service::new(ServiceConfig::new().workers(1).cache(false)),
        &jobs,
    );
    assert_eq!(reference.len(), jobs.len());

    let available = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    for workers in [1, 2, available] {
        for cache in [false, true] {
            let service = Service::new(ServiceConfig::new().workers(workers).cache(cache));
            let lines = render(&service, &jobs);
            assert_eq!(
                lines, reference,
                "divergence at workers={workers} cache={cache}"
            );
            // Run the same batch again on the now-warm service: the
            // second pass must also be bit-identical.
            let warm = render(&service, &jobs);
            assert_eq!(
                warm, reference,
                "warm divergence at workers={workers} cache={cache}"
            );
        }
    }
}

#[test]
fn artifact_cache_respects_its_session_bound() {
    // Distinct scenarios hash to distinct context fingerprints; with the
    // bound forced to 1, every switch evicts the previous session — and
    // the responses still match the unbounded run bit-for-bit.
    let jobs = mixed_batch();
    let unbounded = Service::new(ServiceConfig::new().workers(2).cache(true));
    let reference = render(&unbounded, &jobs);
    assert!(
        unbounded.stats().cache.sessions > 1,
        "batch must span contexts"
    );
    assert_eq!(unbounded.stats().cache.evictions, 0);

    let bounded = Service::new(
        ServiceConfig::new()
            .workers(2)
            .cache(true)
            .cache_sessions(1),
    );
    let lines = render(&bounded, &jobs);
    assert_eq!(lines, reference, "cache bound leaked into the wire format");
    let stats = bounded.stats().cache;
    assert_eq!(stats.capacity, 1);
    assert!(stats.sessions <= 1, "cache exceeded its bound: {stats:?}");
    assert!(stats.evictions > 0, "bound of 1 must evict: {stats:?}");
    // A second pass keeps honouring the bound.
    let warm = render(&bounded, &jobs);
    assert_eq!(warm, reference);
    assert!(bounded.stats().cache.sessions <= 1);
}

#[test]
fn warm_pass_actually_restores_layers() {
    let jobs = mixed_batch();
    let service = Service::new(ServiceConfig::new().workers(2).cache(true));
    let cold = render(&service, &jobs);
    let after_cold = service.stats();
    let warm = render(&service, &jobs);
    let after_warm = service.stats();
    assert_eq!(cold, warm, "cache warmth leaked into the wire format");
    assert!(
        after_warm.layers_restored > after_cold.layers_restored,
        "second pass should restore snapshotted layers: {after_warm:?}"
    );
    assert!(after_warm.cache.hits > 0, "cache should report hits");
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
    let reference = render(
        &Service::new(ServiceConfig::new().workers(1).cache(false)),
        &jobs,
    );
    let parallel = render(
        &Service::new(ServiceConfig::new().workers(3).cache(true)),
        &jobs,
    );
    assert_eq!(reference, parallel);
}
