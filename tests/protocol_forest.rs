//! The solver's protocol lives on the local-state forest: the induction
//! records one interned set id per local state, and `MapProtocol` is read
//! off the system's forests at the end. These tests rebuild each solved
//! protocol history by history with `MapProtocol::insert`, from
//! `InterpretedSystem::local_view` of every member local of every layer,
//! and require the two to be equal, to count the same entries as the
//! solver's statistics, and to iterate each `(agent, history)` once.

use std::collections::HashSet;

use kbp_core::{Kbp, SolveStats, SyncSolver};
use kbp_logic::Agent;
use kbp_service::registry;
use kbp_systems::{ActionId, InterpretedSystem, MapProtocol, Recall};

/// `protocol` rebuilt by insertion, in layer, node, agent and member
/// order, with the program's defaults.
fn rebuilt(system: &InterpretedSystem, kbp: &Kbp, protocol: &MapProtocol) -> MapProtocol {
    let mut out = MapProtocol::new(vec![ActionId(0)]);
    for program in kbp.programs() {
        out.set_agent_default(program.agent(), vec![program.default_action()]);
    }
    for t in 0..system.layer_count() {
        let layer = system.layer(t);
        for node in 0..layer.len() {
            for program in kbp.programs() {
                let agent = program.agent();
                for &local in layer.members(agent, node) {
                    let history = system.local_view(agent, local);
                    let actions = protocol
                        .get(agent, &history)
                        .unwrap_or_else(|| panic!("no entry for {agent} at {history:?}"))
                        .to_vec();
                    out.insert(agent, history, actions);
                }
            }
        }
    }
    out
}

/// The three checks, on one solved (or partially solved) protocol.
fn check(
    name: &str,
    system: &InterpretedSystem,
    kbp: &Kbp,
    protocol: &MapProtocol,
    stats: SolveStats,
) {
    let again = rebuilt(system, kbp, protocol);
    assert!(*protocol == again, "{name}: solved != rebuilt");
    assert!(again == *protocol, "{name}: rebuilt != solved");
    assert_eq!(protocol.len(), stats.protocol_entries, "{name}: len");
    let keys: HashSet<(Agent, Vec<_>)> = protocol.iter().map(|(a, h, _)| (a, h)).collect();
    assert_eq!(keys.len(), protocol.len(), "{name}: iter repeats a key");
    assert_eq!(
        protocol.iter().count(),
        protocol.len(),
        "{name}: iter count"
    );
}

#[test]
fn solved_protocols_match_their_rebuilt_tables() {
    let mut observational = 0;
    for entry in registry().iter().filter(|e| e.solvable) {
        let (ctx, kbp) = entry.build();
        for recall in [Recall::Perfect, Recall::Observational] {
            let solved = SyncSolver::new(&ctx, &kbp)
                .horizon(entry.default_horizon)
                .recall(recall)
                .solve();
            let solution = match (recall, solved) {
                (_, Ok(s)) => s,
                // Not every program has a memoryless implementation.
                (Recall::Observational, Err(_)) => continue,
                (_, Err(e)) => panic!("{}: {e}", entry.name),
            };
            if recall == Recall::Observational {
                observational += 1;
            }
            let name = format!("{} {recall:?}", entry.name);
            check(
                &name,
                solution.system(),
                &kbp,
                solution.protocol(),
                solution.stats(),
            );
        }
    }
    assert!(
        observational > 0,
        "no scenario solved under observational recall"
    );
}

#[test]
fn node_limit_partial_protocol_matches_its_rebuilt_table() {
    let entry = registry()
        .iter()
        .find(|e| e.name == "muddy_children_3")
        .expect("registry scenario");
    let (ctx, kbp) = entry.build();
    let full = SyncSolver::new(&ctx, &kbp)
        .horizon(entry.default_horizon)
        .solve()
        .expect("solves");
    // Room for the first layer and not the second: the first step interns
    // the next layer's local states, then fails on the limit.
    let limit = full.system().layer(0).len() + 1;
    assert!(full.system().layer(1).len() > 1);
    let outcome = SyncSolver::new(&ctx, &kbp)
        .horizon(entry.default_horizon)
        .node_limit(limit)
        .solve_budgeted()
        .expect("degrades");
    let partial = outcome.partial().expect("partial");
    assert_eq!(partial.completed_layers(), 1);
    assert_eq!(partial.system().layer_count(), 1);
    check(
        "partial",
        partial.system(),
        &kbp,
        partial.protocol(),
        partial.stats(),
    );
    // The prefix agrees with the complete protocol.
    for (agent, history, actions) in partial.protocol().iter() {
        assert_eq!(full.protocol().get(agent, &history), Some(actions));
    }
}
