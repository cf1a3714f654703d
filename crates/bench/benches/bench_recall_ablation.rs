//! E9 — Ablation: perfect recall vs observational local states.
//! Reproduce the structural difference (layer growth vs stabilisation)
//! and measure the cost difference on the transmission scenarios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kbp_bench::{cell, report_table};
use kbp_core::SyncSolver;
use kbp_scenarios::bit_transmission::{BitTransmission, Channel};
use kbp_systems::Recall;
use std::time::Duration;

fn reproduce() {
    let sc = BitTransmission::new(Channel::Lossy);
    let ctx = sc.context();
    let kbp = sc.kbp();
    let horizon = 8;
    let perfect = SyncSolver::new(&ctx, &kbp)
        .horizon(horizon)
        .solve()
        .expect("solves");
    let obs = SyncSolver::new(&ctx, &kbp)
        .horizon(horizon)
        .recall(Recall::Observational)
        .solve()
        .expect("solves");
    let mut rows = Vec::new();
    for t in 0..=horizon {
        rows.push(vec![
            cell(t),
            cell(perfect.system().layer(t).explicit_len()),
            cell(obs.system().layer(t).explicit_len()),
        ]);
    }
    rows.push(vec![
        cell("stab."),
        cell(format!("{:?}", perfect.stabilized())),
        cell(format!("{:?}", obs.stabilized())),
    ]);
    assert!(obs.stabilized().is_some(), "observational must stabilize");
    assert!(
        perfect.system().layer(horizon).explicit_len() > obs.system().layer(horizon).explicit_len(),
        "perfect recall must keep splitting histories"
    );
    report_table(
        "E9 recall ablation on bit transmission (layer sizes)",
        &["layer", "perfect", "observational"],
        &rows,
    );
}

fn bench(c: &mut Criterion) {
    reproduce();
    let mut group = c.benchmark_group("e9_recall");
    for horizon in [4usize, 8, 12, 16] {
        let sc = BitTransmission::new(Channel::Lossy);
        let ctx = sc.context();
        let kbp = sc.kbp();
        group.bench_with_input(
            BenchmarkId::new("perfect", horizon),
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
        let sc2 = BitTransmission::new(Channel::Lossy);
        let ctx2 = sc2.context();
        let kbp2 = sc2.kbp();
        group.bench_with_input(
            BenchmarkId::new("observational", horizon),
            &horizon,
            |b, &horizon| {
                b.iter(|| {
                    SyncSolver::new(&ctx2, &kbp2)
                        .horizon(horizon)
                        .recall(Recall::Observational)
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
