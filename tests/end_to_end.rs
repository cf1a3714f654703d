//! End-to-end pipeline tests: every scenario solves, verifies as a fixed
//! point, satisfies its specifications, and the different views of the
//! framework (solver, checker, enumerator, model checker) agree.

use kbp_scenarios::sequence_transmission::Channel as SeqChannel;
use kbp_systems::{generate_until_stable, GenerateError};
use knowledge_programs::prelude::*;

#[test]
fn bit_transmission_full_pipeline() {
    let sc = BitTransmission::new(Channel::Lossy);
    let ctx = sc.context();
    let kbp = sc.kbp();
    assert_eq!(kbp.validate(&ctx), Ok(()));

    let solution = SyncSolver::new(&ctx, &kbp).horizon(5).solve().unwrap();
    let report = check_implementation(&ctx, &kbp, solution.protocol(), Recall::Perfect, 5).unwrap();
    assert!(report.is_implementation(), "{report}");

    let sys = solution.system();
    assert!(sys.holds_initially(&sc.safety()).unwrap());
    assert!(sys.holds_initially(&sc.ladder()).unwrap());
}

#[test]
fn implementation_check_compares_every_explicit_point() {
    // The checker compares a candidate point by point, so it counts every
    // (explicit point, agent) pair even where the solver's own system is
    // held as bisimulation representatives. A candidate that changes one
    // entry need not be a function of the knowledge state; it must come
    // back as a mismatch report, not as a generation error.
    let sc = BitTransmission::new(Channel::Lossy);
    let ctx = sc.context();
    let kbp = sc.kbp();
    let solution = SyncSolver::new(&ctx, &kbp).horizon(5).solve().unwrap();
    assert!(
        solution.stats().layers_gen_quotiented > 0,
        "the solve compresses"
    );
    let report = check_implementation(&ctx, &kbp, solution.protocol(), Recall::Perfect, 5).unwrap();
    assert_eq!(
        report.points_checked(),
        ctx.agent_count() * solution.stats().points
    );
    for (agent, history, actions) in solution.protocol().iter() {
        let other = if actions == [ActionId(0)] {
            ActionId(1)
        } else {
            ActionId(0)
        };
        let mut candidate = solution.protocol().clone();
        candidate.insert(agent, history.to_vec(), vec![other]);
        let report = check_implementation(&ctx, &kbp, &candidate, Recall::Perfect, 5)
            .unwrap_or_else(|e| panic!("{agent} at {history:?}: {e}"));
        assert!(!report.is_implementation(), "{agent} at {history:?}");
        // Each mismatch names the local state whose prescription differs.
        for m in report.mismatches() {
            let view = report.system().local_view(m.agent, m.local);
            let mut prescribed = candidate.actions(&LocalView {
                agent: m.agent,
                history: &view,
            });
            prescribed.sort_unstable();
            prescribed.dedup();
            assert_eq!(prescribed, m.prescribed, "{m}");
            assert_ne!(m.induced, m.prescribed, "{m}");
        }
    }
}

#[test]
fn generation_unrolls_protocols_that_split_bisimulation_classes() {
    // Fused generation refuses choices that differ inside a bisimulation
    // class; `generate` and `generate_until_stable` then unroll the
    // protocol explicitly, so every candidate has its explicit system.
    let sc = BitTransmission::new(Channel::Lossy);
    let ctx = sc.context();
    let solution = SyncSolver::new(&ctx, &sc.kbp()).horizon(5).solve().unwrap();
    let mut refused = 0;
    for (agent, history, actions) in solution.protocol().iter() {
        let other = if actions == [ActionId(0)] {
            ActionId(1)
        } else {
            ActionId(0)
        };
        let mut candidate = solution.protocol().clone();
        candidate.insert(agent, history.to_vec(), vec![other]);

        let mut fused = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
        if let Some(e) = (0..5).find_map(|_| fused.step_with(&candidate).err()) {
            assert!(
                matches!(e, GenerateError::QuotientChoiceMismatch { .. }),
                "{e}"
            );
            refused += 1;
        }
        let mut explicit = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
        explicit.set_gen_quotient_min_worlds(usize::MAX);
        for _ in 0..5 {
            explicit.step_with(&candidate).unwrap();
        }
        let explicit = explicit.finish();

        let sys = generate(&ctx, &candidate, Recall::Perfect, 5)
            .unwrap_or_else(|e| panic!("{agent} at {history:?}: {e}"));
        assert_eq!(sys.explicit_point_count(), explicit.explicit_point_count());
        let (until, _) = generate_until_stable(&ctx, &candidate, Recall::Perfect, 5)
            .unwrap_or_else(|e| panic!("{agent} at {history:?}: {e}"));
        let layers = until.layer_count();
        assert_eq!(
            (0..layers)
                .map(|t| until.layer(t).explicit_len())
                .sum::<u64>(),
            (0..layers)
                .map(|t| explicit.layer(t).explicit_len())
                .sum::<u64>(),
            "{agent} at {history:?}"
        );
    }
    assert!(refused > 0, "some candidate splits a class");
}

#[test]
fn muddy_children_three_views_agree() {
    // KBP solving, public-announcement updating, and direct layer-model
    // checking all tell the same story.
    let sc = MuddyChildren::new(3);
    let ctx = sc.context();
    let solution = SyncSolver::new(&ctx, &sc.kbp()).horizon(4).solve().unwrap();
    for mask in 1u32..8 {
        let k = mask.count_ones() as usize;
        assert_eq!(sc.yes_round(solution.system(), mask), Some(k));
        assert_eq!(sc.rounds_until_known(mask), k);
    }
}

#[test]
fn sequence_transmission_matrix() {
    // (tagging × channel) → (prefix-safe, completes)
    let cases = [
        (Tagging::Alternating, SeqChannel::Lossy, true, false),
        (Tagging::Alternating, SeqChannel::Reliable, true, true),
        (Tagging::None, SeqChannel::Lossy, false, false),
        (Tagging::None, SeqChannel::Reliable, false, true),
    ];
    for (tagging, channel, safe, completes) in cases {
        let sc = SequenceTransmission::new(2, tagging, channel);
        let ctx = sc.context();
        let solution = SyncSolver::new(&ctx, &sc.kbp()).horizon(8).solve().unwrap();
        let sys = solution.system();
        assert_eq!(
            sys.holds_initially(&sc.prefix_safety()).unwrap(),
            safe,
            "{tagging:?}/{channel:?} safety"
        );
        assert_eq!(
            sys.holds_initially(&sc.liveness()).unwrap(),
            completes,
            "{tagging:?}/{channel:?} liveness"
        );
    }
}

#[test]
fn robot_pipeline_with_model_checker() {
    let sc = Robot::new(12, 4, 7);
    let ctx = sc.context();
    let kbp = sc.kbp();
    let solution = SyncSolver::new(&ctx, &kbp).horizon(8).solve().unwrap();
    assert!(solution.system().holds_initially(&sc.safety()).unwrap());
    assert!(solution.system().holds_initially(&sc.liveness()).unwrap());

    // Independently: explore the full context (all behaviours) and show
    // that halting *without* knowledge can end outside the goal — i.e.
    // the knowledge guard is doing real work.
    let any = kbp_systems::FullProtocol::for_context(&ctx);
    let graph = StateGraph::explore(&ctx, &any, 100_000).unwrap();
    let mck = Mck::new(&graph);
    let reckless_unsafe = ctl::ef(Formula::and([
        Formula::prop(sc.halted()),
        Formula::not(Formula::prop(sc.in_goal())),
    ]));
    assert!(
        mck.check(&reckless_unsafe).unwrap().holds_initially(),
        "an unconstrained robot can halt outside the goal"
    );
}

#[test]
fn zoo_counts_via_public_api() {
    let ctx = fixed_point_zoo::lamp_context();
    let counts: Vec<usize> = fixed_point_zoo::all()
        .iter()
        .map(|e| {
            Enumerator::new(&ctx, &e.kbp)
                .horizon(3)
                .enumerate()
                .unwrap()
                .count()
        })
        .collect();
    assert_eq!(counts, vec![0, 1, 2]);
}

#[test]
fn prelude_exposes_a_working_surface() {
    // Parse a formula, build a small model, check it — all through the
    // prelude.
    let mut voc = Vocabulary::new();
    let f = parse("K{alice} (rain -> wet)", &mut voc).unwrap();
    assert_eq!(f.agents().len(), 1);

    let alice = voc.agent("alice").unwrap();
    let rain = voc.prop("rain").unwrap();
    let wet = voc.prop("wet").unwrap();
    let mut b = S5Builder::new(1, 2);
    let w0 = b.add_world([rain, wet]);
    let w1 = b.add_world([]);
    b.link(alice, w0, w1);
    let m = b.build();
    assert!(m.check(w0, &f).unwrap());
}

#[test]
fn cross_crate_formula_flow() {
    // A formula parsed from text drives a KBP that the solver handles.
    let sc = BitTransmission::new(Channel::Reliable);
    let ctx = sc.context();
    // The same guard as the scenario's sender clause, but written in the
    // concrete syntax (names resolve through the context vocabulary).
    let mut voc = ctx.vocabulary().clone();
    let guard = parse("!K{sender} (K{receiver} bit | K{receiver} !bit)", &mut voc).unwrap();
    let kbp = Kbp::builder()
        .clause(sc.sender(), guard, ActionId(1))
        .default_action(sc.sender(), ActionId(0))
        .default_action(sc.receiver(), ActionId(0))
        .build();
    assert_eq!(kbp.validate(&ctx), Ok(()));
    let solution = SyncSolver::new(&ctx, &kbp).horizon(3).solve().unwrap();
    // Over a RELIABLE channel the sender knows its first send arrived —
    // no acknowledgement needed: send once, then stop.
    let s = sc.sender();
    assert_eq!(
        solution.protocol().get(s, &[Obs(0)]),
        Some(&[ActionId(1)][..])
    );
    assert_eq!(
        solution.protocol().get(s, &[Obs(0), Obs(0)]),
        Some(&[ActionId(0)][..])
    );
}

#[test]
fn run_extraction_consistency() {
    let sc = MuddyChildren::new(3);
    let ctx = sc.context();
    let solution = SyncSolver::new(&ctx, &sc.kbp()).horizon(3).solve().unwrap();
    let sys = solution.system();
    // Muddy children is deterministic per initial state: exactly 7 runs.
    assert_eq!(sys.run_count(), 7);
    let runs = sys.runs(100);
    assert_eq!(runs.len(), 7);
    for run in &runs {
        assert_eq!(run.horizon(), 3);
    }
    // First run exists and starts at layer 0.
    assert_eq!(sys.first_run().point(0).time, 0);
}

#[test]
fn stationary_and_bounded_views_agree_on_safety() {
    // For the bit-transmission safety property (an invariant over global
    // states), the bounded unrolling and the stationary graph must agree.
    let sc = BitTransmission::new(Channel::Lossy);
    let ctx = sc.context();
    let solution = SyncSolver::new(&ctx, &sc.kbp())
        .horizon(6)
        .recall(Recall::Observational)
        .solve()
        .unwrap();
    let invariant = Formula::always(Formula::implies(
        Formula::prop(sc.sender_has_ack()),
        Formula::prop(sc.receiver_has_bit()),
    ));
    let bounded = solution.system().holds_initially(&invariant).unwrap();
    let graph = StateGraph::explore(&ctx, solution.protocol(), 10_000).unwrap();
    let stationary = Mck::new(&graph)
        .check(&invariant)
        .unwrap()
        .holds_initially();
    assert_eq!(bounded, stationary);
    assert!(bounded);
}
