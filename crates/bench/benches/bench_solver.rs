//! E8 — Solver scaling: the inductive fixed-point construction against
//! horizon, agent count, and environment nondeterminism, on random
//! contexts with random past-determined programs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kbp_bench::{cell, report_table};
use kbp_core::{Kbp, SyncSolver};
use kbp_logic::{Agent, Formula, PropId};
use kbp_systems::random::{random_context, RandomContextConfig};
use kbp_systems::ActionId;
use std::time::Duration;

/// A simple past-determined program for `agents` agents: each agent acts
/// when it does NOT know `q_0`, with action 1, default 0.
fn simple_kbp(agents: usize) -> Kbp {
    let mut b = Kbp::builder();
    for i in 0..agents {
        let a = Agent::new(i);
        b = b
            .clause(
                a,
                Formula::not(Formula::knows(a, Formula::prop(PropId::new(0)))),
                ActionId(1),
            )
            .default_action(a, ActionId(0));
    }
    b.build()
}

fn reproduce() {
    // Report layer growth for one representative configuration.
    let cfg = RandomContextConfig {
        states: 16,
        agents: 2,
        actions: 2,
        env_moves: 2,
        initial: 3,
        obs_classes: 4,
        props: 2,
    };
    let ctx = random_context(11, &cfg);
    let kbp = simple_kbp(2);
    let solution = SyncSolver::new(&ctx, &kbp)
        .horizon(8)
        .solve()
        .expect("solves");
    let rows: Vec<Vec<String>> = (0..solution.system().layer_count())
        .map(|t| vec![cell(t), cell(solution.system().layer(t).explicit_len())])
        .collect();
    report_table(
        "E8 solver layer growth (random context, 2 agents, env branching 2)",
        &["layer", "points"],
        &rows,
    );
}

fn bench(c: &mut Criterion) {
    reproduce();
    let mut group = c.benchmark_group("e8_solver");

    // Horizon sweep.
    for horizon in [2usize, 4, 6, 8] {
        let cfg = RandomContextConfig {
            states: 16,
            agents: 2,
            actions: 2,
            env_moves: 2,
            initial: 3,
            obs_classes: 4,
            props: 2,
        };
        let ctx = random_context(11, &cfg);
        let kbp = simple_kbp(2);
        group.bench_with_input(
            BenchmarkId::new("horizon", horizon),
            &horizon,
            |b, &horizon| {
                b.iter(|| {
                    SyncSolver::new(&ctx, &kbp)
                        .horizon(horizon)
                        .solve()
                        .expect("solves")
                });
            },
        );
    }

    // Agent-count sweep.
    for agents in [1usize, 2, 3, 4] {
        let cfg = RandomContextConfig {
            states: 12,
            agents,
            actions: 2,
            env_moves: 1,
            initial: 3,
            obs_classes: 3,
            props: 2,
        };
        let ctx = random_context(13, &cfg);
        let kbp = simple_kbp(agents);
        group.bench_with_input(BenchmarkId::new("agents", agents), &agents, |b, _| {
            b.iter(|| {
                SyncSolver::new(&ctx, &kbp)
                    .horizon(5)
                    .solve()
                    .expect("solves")
            });
        });
    }

    // Environment-branching sweep.
    for env_moves in [1usize, 2, 3] {
        let cfg = RandomContextConfig {
            states: 12,
            agents: 2,
            actions: 2,
            env_moves,
            initial: 2,
            obs_classes: 3,
            props: 2,
        };
        let ctx = random_context(17, &cfg);
        let kbp = simple_kbp(2);
        group.bench_with_input(
            BenchmarkId::new("env_branching", env_moves),
            &env_moves,
            |b, _| {
                b.iter(|| {
                    SyncSolver::new(&ctx, &kbp)
                        .horizon(5)
                        .solve()
                        .expect("solves")
                });
            },
        );
    }
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1000))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench
}
criterion_main!(benches);
