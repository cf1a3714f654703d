//! E14 — Cross-layer carry-forward, the evaluation engine's one
//! batch-level optimization.
//!
//! Two comparisons, each with output equality asserted in-bench:
//!
//! 1. **Carry-forward kernel** (`carry`): under observational recall the
//!    sequence-transmission layers saturate and consecutive layers become
//!    isomorphic. Compares re-evaluating a join-heavy batch (15
//!    `C_G`/`D_G`/`E_G` formulas over one two-agent set) on the next layer
//!    from scratch against `layer_renaming` (1-WL proposal + full S5
//!    isomorphism verification) + `EvalCache::carried_forward` (pointwise
//!    bit remap). The renaming search is *inside* the timed region, so
//!    the speedup is net of the certificate's cost.
//! 2. **Solver row**: sequence transmission (m = 2) under observational
//!    recall solved with carry-forward on vs off, protocols asserted
//!    equal. Its layers plateau at 48 points, above
//!    `DEFAULT_CARRY_THRESHOLD`, so the row times carry against refill.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kbp_bench::{cell, expect, report_table};
use kbp_core::SyncSolver;
use kbp_kripke::{EvalCache, EvalEngine};
use kbp_logic::{AgentSet, Formula, FormulaArena, FormulaId};
use kbp_scenarios::sequence_transmission::{Channel, SequenceTransmission, Tagging};
use kbp_systems::{generate, layer_renaming, FullProtocol, Recall};
use std::time::Duration;

/// 15 group-modality formulas, all over the same agent set — maximal
/// contention on the per-cache partition-join memo.
fn join_formulas(sc: &SequenceTransmission) -> Vec<Formula> {
    let g = AgentSet::all(2);
    let props = [
        sc.done_r(),
        sc.done_s(),
        sc.got_one(),
        sc.prefix_ok(),
        sc.caught_up(),
    ];
    let mut out = Vec::new();
    for p in props {
        let f = Formula::prop(p);
        out.push(Formula::common(g, f.clone()));
        out.push(Formula::distributed(g, f.clone()));
        out.push(Formula::everyone(g, f));
    }
    out
}

fn bench_carry(c: &mut Criterion, rows: &mut Vec<Vec<String>>) {
    let sc = SequenceTransmission::new(3, Tagging::Alternating, Channel::Lossy);
    let ctx = sc.context();
    let full = FullProtocol::for_context(&ctx);
    let sys = generate(&ctx, &full, Recall::Observational, 16).expect("generates");
    let (prev_t, next_t) = (1..sys.layer_count())
        .find(|&t| layer_renaming(sys.layer(t - 1), sys.layer(t)).is_some())
        .map(|t| (t - 1, t))
        .expect("observational recall yields an isomorphic consecutive pair");

    let mut arena = FormulaArena::new();
    let ids: Vec<FormulaId> = join_formulas(&sc).iter().map(|f| arena.intern(f)).collect();
    let engine = EvalEngine::new(arena);
    let mut prev = EvalCache::new();
    engine
        .populate(sys.layer(prev_t).model(), &mut prev, &ids)
        .expect("evaluates");

    let refill = || {
        let mut cache = EvalCache::new();
        engine
            .populate(sys.layer(next_t).model(), &mut cache, &ids)
            .expect("evaluates");
        ids.iter()
            .map(|&id| cache.get(id).expect("root present").count())
            .sum::<usize>()
    };
    let carry = || {
        let ren = layer_renaming(sys.layer(prev_t), sys.layer(next_t)).expect("isomorphic");
        let cache = prev.carried_forward(&ren).expect("carries");
        ids.iter()
            .map(|&id| cache.get(id).expect("root present").count())
            .sum::<usize>()
    };
    rows.push(vec![
        cell(format!("carry_kernel/t{prev_t}..{next_t}")),
        cell(1usize),
        cell(sys.layer(next_t).len()),
        expect("carry = refill", refill(), carry()),
    ]);
    let mut group = c.benchmark_group("e14_carry_forward");
    group.bench_function(BenchmarkId::new("kernel_refill", "seq_obs"), |b| {
        b.iter(|| black_box(refill()));
    });
    group.bench_function(BenchmarkId::new("kernel_carry", "seq_obs"), |b| {
        b.iter(|| black_box(carry()));
    });
    group.finish();
}

fn bench_solver_carry(c: &mut Criterion, rows: &mut Vec<Vec<String>>) {
    let sc = SequenceTransmission::new(2, Tagging::Alternating, Channel::Lossy);
    let ctx = sc.context();
    let kbp = sc.kbp();
    let solve = |carry: bool| {
        SyncSolver::new(&ctx, &kbp)
            .horizon(10)
            .recall(Recall::Observational)
            .carry_forward(carry)
            .solve()
            .expect("solves")
    };
    let on = solve(true);
    let off = solve(false);
    assert_eq!(on.protocol(), off.protocol(), "carry changed the solution");
    rows.push(vec![
        cell("solver/seq_obs_h10"),
        cell(on.system().layer_count()),
        cell(on.stats().layers_carried),
        expect(
            "carry-on guard lookups = carry-off",
            on.stats().guard_evaluations,
            off.stats().guard_evaluations,
        ),
    ]);
    let mut group = c.benchmark_group("e14_carry_forward");
    group.bench_function(BenchmarkId::new("solver_carry_on", "seq_obs"), |b| {
        b.iter(|| black_box(solve(true).stats().layers_carried));
    });
    group.bench_function(BenchmarkId::new("solver_carry_off", "seq_obs"), |b| {
        b.iter(|| black_box(solve(false).stats().layers_carried));
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    let mut rows = Vec::new();
    bench_carry(c, &mut rows);
    bench_solver_carry(c, &mut rows);

    report_table(
        "E14 carry-forward (expected: equal outputs; col3 = points or carried layers)",
        &["workload", "layers", "points/carried", "equal"],
        &rows,
    );
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench
}
criterion_main!(benches);
