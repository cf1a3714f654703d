//! Bit transmission under injected faults, solved under a budget.
//!
//! FHMV put all nondeterminism — including faults — inside the context:
//! a lossy channel is not special semantics, it is an environment that
//! sometimes chooses "lose". `kbp_faults` makes that executable: a
//! [`FaultSchedule`] deterministically scripts which faults occur when,
//! and [`FaultyContext`] turns any context into its faulty counterpart.
//! The same solver then re-derives the protocol under each fault model.
//!
//! Run with: `cargo run --example faulty_bit_transmission`

use knowledge_programs::kbp_faults::loss_lattice;
use knowledge_programs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sc = BitTransmission::new(Channel::Lossy);
    let horizon = 5;
    let delivered = Formula::eventually(Formula::prop(sc.receiver_has_bit()));

    // ---- a lattice of fault models ------------------------------------
    // none ⊑ {loss, crash-stop} ⊑ loss+crash-stop: every scenario solves
    // under each, and the knowledge the protocol can attain shrinks as the
    // faults grow.
    let knows_bit = Formula::knows_whether(sc.receiver(), Formula::prop(sc.bit()));
    println!("fault model        layers  points  guard evals  points where K_R bit");
    for (name, schedule) in loss_lattice(7, EnvActionId(3), sc.receiver(), 1) {
        let faulty = FaultyContext::new(sc.context(), schedule);
        let solution = SyncSolver::new(&faulty, &sc.kbp())
            .horizon(horizon)
            .solve()?;
        let stats = solution.stats();
        let sys = solution.system();
        let ev = Evaluator::new(sys, &knows_bit)?;
        // Explicit points: a representative counts with its multiplicity.
        let knowing: u64 = sys
            .points()
            .filter(|&p| ev.holds(p))
            .map(|p| sys.layer(p.time).multiplicity(p.node))
            .sum();
        println!(
            "{name:<18} {:>6}  {:>6}  {:>11}  {:>8} / {}",
            stats.layers, stats.points, stats.guard_evaluations, knowing, stats.points
        );
    }

    // ---- unbounded loss: the adversary wins ---------------------------
    let total_loss = FaultSchedule::new(7).env_fault_always(
        knowledge_programs::kbp_faults::EnvFault::Force(EnvActionId(3)),
    );
    let faulty = FaultyContext::new(sc.context(), total_loss);
    let solution = SyncSolver::new(&faulty, &sc.kbp())
        .horizon(horizon)
        .solve()?;
    println!(
        "\nunder scheduled total loss, the bit is {} delivered",
        if solution.system().holds_initially(&delivered)? {
            "still"
        } else {
            "never"
        }
    );

    // ---- budgeted solving: graceful degradation -----------------------
    // Cap guard evaluations far below what the full solve needs: instead
    // of dying, the solver returns the layers it finished — a prefix of
    // THE unique implementation, by the determinacy of the induction.
    let outcome = SyncSolver::new(&sc.context(), &sc.kbp())
        .horizon(horizon)
        .budget(Budget::new().max_guard_evaluations(10))
        .solve_budgeted()?;
    match outcome {
        SolveOutcome::Complete(_) => println!("\nbudget was generous: solve completed"),
        SolveOutcome::Partial(partial) => {
            let why = partial.exhausted();
            println!(
                "\nbudgeted solve stopped: {} exhausted before layer {}",
                why.resource, why.at_layer
            );
            for layer in partial.per_layer() {
                println!(
                    "  layer {}: {} points, {} guard evals, {} protocol entries",
                    layer.layer, layer.points, layer.guard_evaluations, layer.protocol_entries
                );
            }
            println!(
                "  {} protocol entries salvaged (a prefix of the unique answer)",
                partial.protocol().len()
            );
        }
    }
    Ok(())
}
