//! Property tests for finite-state controller extraction: on random
//! contexts and random past-determined programs, the extracted Moore
//! machines replay the derived protocol exactly and remain fixed points.

use kbp_core::{check_implementation, ControllerProtocol, Kbp, SyncSolver};
use kbp_logic::random::{RandomSource, SplitMix64};
use kbp_logic::{Agent, Formula, PropId};
use kbp_systems::random::{random_context, RandomContextConfig};
use kbp_systems::{ActionId, LocalView, ProtocolFn, Recall};
use proptest::prelude::*;

fn random_kbp(seed: u64, agents: usize, actions: usize) -> Kbp {
    let mut rng = SplitMix64::new(seed);
    let mut b = Kbp::builder();
    for i in 0..agents {
        let agent = Agent::new(i);
        let p = Formula::prop(PropId::new(rng.below(2) as u32));
        let guard = if rng.below(2) == 0 {
            Formula::knows(agent, p)
        } else {
            Formula::not(Formula::knows(agent, p))
        };
        b = b
            .clause(agent, guard, ActionId(rng.below(actions) as u32))
            .default_action(agent, ActionId(rng.below(actions) as u32));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The extracted machines replay every table entry.
    #[test]
    fn machines_replay_the_table(ctx_seed in 0u64..10_000, kbp_seed in 0u64..10_000) {
        let cfg = RandomContextConfig {
            states: 8,
            agents: 2,
            actions: 2,
            env_moves: 2,
            initial: 2,
            obs_classes: 3,
            props: 2,
        };
        let ctx = random_context(ctx_seed, &cfg);
        let kbp = random_kbp(kbp_seed, 2, 2);
        prop_assume!(kbp.validate(&ctx).is_ok());
        let solution = SyncSolver::new(&ctx, &kbp).horizon(4).solve().unwrap();
        let machines = ControllerProtocol::from_solution(&solution, &kbp).unwrap();
        for (agent, history, actions) in solution.protocol().iter() {
            let mut got = machines.actions(&LocalView {
                agent,
                history: &history,
            });
            got.sort_unstable();
            let mut want = actions.to_vec();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(got, want, "agent {} history {:?}", agent, history);
        }
    }

    /// The machines, run as a protocol, are still an implementation.
    #[test]
    fn machines_remain_fixed_points(ctx_seed in 0u64..10_000, kbp_seed in 0u64..10_000) {
        let cfg = RandomContextConfig {
            states: 6,
            agents: 2,
            actions: 2,
            env_moves: 1,
            initial: 2,
            obs_classes: 3,
            props: 2,
        };
        let ctx = random_context(ctx_seed, &cfg);
        let kbp = random_kbp(kbp_seed, 2, 2);
        prop_assume!(kbp.validate(&ctx).is_ok());
        let horizon = 4;
        let solution = SyncSolver::new(&ctx, &kbp).horizon(horizon).solve().unwrap();
        let machines = ControllerProtocol::from_solution(&solution, &kbp).unwrap();
        let report =
            check_implementation(&ctx, &kbp, &machines, Recall::Perfect, horizon).unwrap();
        prop_assert!(report.is_implementation(), "{}", report);
    }

    /// Machines never have more states than the table has entries
    /// (merging only shrinks), and always at least one state.
    #[test]
    fn machine_size_is_bounded_by_the_table(ctx_seed in 0u64..10_000, kbp_seed in 0u64..10_000) {
        let cfg = RandomContextConfig::default();
        let ctx = random_context(ctx_seed, &cfg);
        let kbp = random_kbp(kbp_seed, 2, 2);
        prop_assume!(kbp.validate(&ctx).is_ok());
        let solution = SyncSolver::new(&ctx, &kbp).horizon(4).solve().unwrap();
        let machines = ControllerProtocol::from_solution(&solution, &kbp).unwrap();
        for ctrl in machines.controllers() {
            let entries = solution
                .protocol()
                .iter()
                .filter(|(a, _, _)| *a == ctrl.agent())
                .count();
            prop_assert!(ctrl.state_count() >= 1);
            prop_assert!(
                ctrl.state_count() <= entries + 1,
                "agent {}: {} states from {} entries",
                ctrl.agent(),
                ctrl.state_count(),
                entries
            );
        }
    }
}
