//! Cross-checks quotient-first *generation* against explicit generation.
//!
//! With `SyncSolver::gen_quotient_min_worlds` at 0, `SystemBuilder::step`
//! unrolls on bisimulation representatives: successors are computed for
//! one representative per class, canonicalized, and folded by
//! multiplicity, so the explicit frontier is never resident. That path
//! must be observationally invisible — for every scenario and both
//! recall modes, the solution the fused generation produces must be
//! bit-identical to the explicit one: protocol, stabilization point,
//! explicit-equivalent point counts, per-layer breakdown, and stats
//! (after normalizing the sanctioned generation diagnostics, exactly as
//! `parallel_determinism.rs` does).

use kbp_core::{Kbp, LayerStats, SyncSolver};
use kbp_logic::random::{RandomSource, SplitMix64};
use kbp_logic::{Agent, Formula, PropId};
use kbp_scenarios::bit_transmission::{BitTransmission, Channel};
use kbp_scenarios::coordinated_attack::CoordinatedAttack;
use kbp_scenarios::muddy_children::MuddyChildren;
use kbp_scenarios::robot::Robot;
use kbp_scenarios::sequence_transmission::{SequenceTransmission, Tagging};
use kbp_systems::random::{random_context, RandomContextConfig};
use kbp_systems::{ActionId, FnContext, Recall};
use proptest::prelude::*;

fn scenarios() -> Vec<(&'static str, FnContext, Kbp, usize, Recall)> {
    let mc = MuddyChildren::new(3);
    let bt = BitTransmission::new(Channel::Lossy);
    let st = SequenceTransmission::new(2, Tagging::Alternating, Channel::Lossy);
    let ro = Robot::new(7, 3, 5);
    let ca = CoordinatedAttack::new(Channel::Lossy);
    vec![
        ("muddy_children", mc.context(), mc.kbp(), 4, Recall::Perfect),
        (
            "bit_transmission",
            bt.context(),
            bt.kbp(),
            6,
            Recall::Perfect,
        ),
        (
            "bit_transmission_obs",
            bt.context(),
            bt.kbp(),
            6,
            Recall::Observational,
        ),
        (
            "sequence_transmission",
            st.context(),
            st.kbp(),
            6,
            Recall::Perfect,
        ),
        ("robot", ro.context(), ro.kbp(), 6, Recall::Perfect),
        (
            "coordinated_attack",
            ca.context(),
            ca.kbp(),
            5,
            Recall::Perfect,
        ),
    ]
}

fn normalized(per_layer: &[LayerStats]) -> Vec<LayerStats> {
    per_layer
        .iter()
        .map(|l| LayerStats {
            gen_quotient_worlds: 0,
            gen_quotient_ratio: 0,
            ..*l
        })
        .collect()
}

#[test]
fn fused_generation_matches_explicit_everywhere() {
    for (name, ctx, kbp, horizon, recall) in scenarios() {
        let explicit = SyncSolver::new(&ctx, &kbp)
            .horizon(horizon)
            .recall(recall)
            .gen_quotient_min_worlds(usize::MAX)
            .solve()
            .unwrap_or_else(|e| panic!("{name}: explicit solve failed: {e}"));
        let fused = SyncSolver::new(&ctx, &kbp)
            .horizon(horizon)
            .recall(recall)
            .gen_quotient_min_worlds(0)
            .solve()
            .unwrap_or_else(|e| panic!("{name}: fused solve failed: {e}"));
        assert_eq!(
            explicit.protocol(),
            fused.protocol(),
            "{name}: protocol diverged under fused generation"
        );
        assert_eq!(
            explicit.stabilized(),
            fused.stabilized(),
            "{name}: stabilization diverged under fused generation"
        );
        assert_eq!(
            normalized(explicit.per_layer()),
            normalized(fused.per_layer()),
            "{name}: per-layer breakdown diverged under fused generation"
        );
        let mut expected = explicit.stats();
        let got = fused.stats();
        // Generation diagnostics are sanctioned to differ, and
        // carry-forward warmth depends on the layer widths.
        expected.layers_gen_quotiented = got.layers_gen_quotiented;
        expected.layers_carried = got.layers_carried;
        assert_eq!(
            expected, got,
            "{name}: stats diverged under fused generation"
        );
    }
}

#[test]
fn fused_generation_strictly_compresses_the_zoo() {
    // The equalities above must not be satisfied vacuously by
    // singleton-class layers: on the history-rich transmission scenarios
    // the representative frontier must be strictly narrower than the
    // explicit one somewhere (and on sequence transmission it must also
    // stop growing where the explicit frontier keeps multiplying).
    let mut compressed = Vec::new();
    for (name, ctx, kbp, horizon, recall) in scenarios() {
        let fused = SyncSolver::new(&ctx, &kbp)
            .horizon(horizon)
            .recall(recall)
            .gen_quotient_min_worlds(0)
            .solve()
            .unwrap_or_else(|e| panic!("{name}: fused solve failed: {e}"));
        if fused
            .per_layer()
            .iter()
            .any(|l| l.gen_quotient_worlds > 0 && l.gen_quotient_worlds < l.points)
        {
            compressed.push(name);
        }
    }
    for expected in [
        "bit_transmission",
        "sequence_transmission",
        "coordinated_attack",
    ] {
        assert!(
            compressed.contains(&expected),
            "{expected} no longer compresses under fused generation (got {compressed:?})"
        );
    }
}

/// A random agent-subjective past-determined guard, as in
/// `unique_implementation.rs`.
fn random_guard(rng: &mut SplitMix64, agent: Agent, props: usize) -> Formula {
    let atom = |rng: &mut SplitMix64| {
        let p = Formula::prop(PropId::new(rng.below(props) as u32));
        let k = Formula::knows(agent, p);
        if rng.below(2) == 0 {
            k
        } else {
            Formula::not(k)
        }
    };
    match rng.below(3) {
        0 => atom(rng),
        1 => Formula::and([atom(rng), atom(rng)]),
        _ => Formula::or([atom(rng), atom(rng)]),
    }
}

fn random_kbp(seed: u64, agents: usize, actions: usize, props: usize) -> Kbp {
    let mut rng = SplitMix64::new(seed);
    let mut b = Kbp::builder();
    for i in 0..agents {
        let agent = Agent::new(i);
        for _ in 0..1 + rng.below(2) {
            let guard = random_guard(&mut rng, agent, props);
            b = b.clause(agent, guard, ActionId(rng.below(actions) as u32));
        }
        b = b.default_action(agent, ActionId(rng.below(actions) as u32));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fused generation is observationally invisible on random contexts
    /// and programs too, under both recall modes: identical solutions,
    /// or — when no memoryless protocol implements the program under
    /// observational recall — identical errors.
    #[test]
    fn fused_generation_matches_explicit_on_random_contexts(
        ctx_seed in 0u64..10_000,
        kbp_seed in 0u64..10_000,
        observational in any::<bool>(),
    ) {
        let cfg = RandomContextConfig {
            states: 8,
            agents: 2,
            actions: 2,
            env_moves: 2,
            initial: 3,
            obs_classes: 3,
            props: 2,
        };
        let ctx = random_context(ctx_seed, &cfg);
        let kbp = random_kbp(kbp_seed, 2, 2, 2);
        prop_assume!(kbp.validate(&ctx).is_ok());
        let recall = if observational {
            Recall::Observational
        } else {
            Recall::Perfect
        };
        let solve = |gate: usize| {
            SyncSolver::new(&ctx, &kbp)
                .horizon(4)
                .recall(recall)
                .gen_quotient_min_worlds(gate)
                .solve()
        };
        match (solve(usize::MAX), solve(0)) {
            (Ok(explicit), Ok(fused)) => {
                prop_assert_eq!(explicit.protocol(), fused.protocol());
                prop_assert_eq!(explicit.stabilized(), fused.stabilized());
                prop_assert_eq!(explicit.stats().points, fused.stats().points);
                prop_assert_eq!(
                    normalized(explicit.per_layer()),
                    normalized(fused.per_layer())
                );
            }
            (Err(e), Err(f)) => prop_assert_eq!(e.to_string(), f.to_string()),
            (explicit, fused) => prop_assert!(
                false,
                "one path failed where the other solved: explicit {:?}, fused {:?}",
                explicit.map(|s| s.stats().points),
                fused.map(|s| s.stats().points)
            ),
        }
    }
}
