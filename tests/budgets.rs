//! Budgeted solving: exhausted budgets degrade gracefully into a
//! [`PartialSolution`] whose induced prefix is a prefix of the unique
//! implementation.

use kbp_core::{Budget, Resource, SolveError, SyncSolver};
use kbp_scenarios::muddy_children::MuddyChildren;
use std::time::Duration;

#[test]
fn guard_evaluation_budget_yields_one_layer_partial() {
    // A 1-guard-evaluation budget cannot pay for layer 1's induction:
    // the partial solution covers exactly the layers induced before
    // exhaustion, and — by the unique-implementation theorem — that
    // prefix is a prefix of THE answer.
    let sc = MuddyChildren::new(3);
    let ctx = sc.context();
    let kbp = sc.kbp();
    let outcome = SyncSolver::new(&ctx, &kbp)
        .horizon(4)
        .budget(Budget::new().max_guard_evaluations(1))
        .solve_budgeted()
        .unwrap();
    let partial = outcome.partial().expect("budget must exhaust");
    assert_eq!(partial.exhausted().resource, Resource::GuardEvaluations);
    assert_eq!(partial.exhausted().at_layer, 1);
    assert_eq!(partial.completed_layers(), 1);
    assert_eq!(partial.per_layer().len(), 1);

    // The layer-0 prefix agrees with the full (unbudgeted) solution.
    let full = SyncSolver::new(&ctx, &kbp).horizon(4).solve().unwrap();
    assert_eq!(
        partial.system().layer(0).len(),
        full.system().layer(0).len()
    );
    assert_eq!(
        partial.per_layer()[0].protocol_entries,
        full.per_layer()[0].protocol_entries
    );
    for (agent, view, acts) in partial.protocol().iter() {
        assert_eq!(full.protocol().get(agent, &view), Some(acts));
    }
}

#[test]
fn unbudgeted_solve_surfaces_exhaustion_as_error() {
    let sc = MuddyChildren::new(3);
    let ctx = sc.context();
    let kbp = sc.kbp();
    let err = SyncSolver::new(&ctx, &kbp)
        .horizon(4)
        .budget(Budget::new().max_layer_points(2))
        .solve()
        .unwrap_err();
    match err {
        SolveError::Budget(b) => assert_eq!(b.resource, Resource::LayerPoints),
        other => panic!("expected budget error, got {other}"),
    }
}

#[test]
fn generous_budget_changes_nothing() {
    let sc = MuddyChildren::new(3);
    let ctx = sc.context();
    let kbp = sc.kbp();
    let plain = SyncSolver::new(&ctx, &kbp).horizon(4).solve().unwrap();
    let outcome = SyncSolver::new(&ctx, &kbp)
        .horizon(4)
        .budget(
            Budget::new()
                .deadline(Duration::from_secs(3600))
                .max_layer_points(1 << 20)
                .max_guard_evaluations(1 << 30)
                .max_memory_bytes(1 << 30),
        )
        .solve_budgeted()
        .unwrap();
    let complete = outcome.solution().expect("generous budget must complete");
    assert_eq!(complete.protocol(), plain.protocol());
    assert_eq!(complete.stats(), plain.stats());
}

#[test]
fn per_layer_stats_cover_every_layer_and_sum_to_totals() {
    let sc = MuddyChildren::new(3);
    let ctx = sc.context();
    let kbp = sc.kbp();
    let solution = SyncSolver::new(&ctx, &kbp).horizon(4).solve().unwrap();
    assert_eq!(solution.per_layer().len(), 5);
    let evals: usize = solution
        .per_layer()
        .iter()
        .map(|l| l.guard_evaluations)
        .sum();
    assert_eq!(evals, solution.stats().guard_evaluations);
    let entries: usize = solution
        .per_layer()
        .iter()
        .map(|l| l.protocol_entries)
        .sum();
    assert_eq!(entries, solution.stats().protocol_entries);
    for (t, layer) in solution.per_layer().iter().enumerate() {
        assert_eq!(layer.layer, t);
        assert_eq!(layer.points, solution.system().layer(t).len());
    }
}
