//! Checks generation against an independent oracle.
//!
//! The oracle is a naive unroller written straight from the `Context`
//! interface: it enumerates run prefixes from `initial_states`,
//! `env_actions`, `transition` and `observe`, lets the protocol act on
//! each agent's local state (the observation history under perfect
//! recall, the last observation under observational recall), and keeps a
//! layer as the set of distinct `(global state, local states)` pairs. It
//! shares no code with `SystemBuilder`.
//!
//! Forced-explicit layers must equal the oracle's point sets. Default
//! layers, which may be held as bisimulation representatives, must match
//! three ways: per global state the multiplicities sum to the oracle's
//! point count, per agent the member locals cover exactly the oracle's
//! local states, and `explicit_len` is the oracle's layer width.

use kbp_core::{Kbp, SyncSolver};
use kbp_logic::random::{RandomSource, SplitMix64};
use kbp_logic::{Agent, Formula, PropId};
use kbp_scenarios::bit_transmission::{BitTransmission, Channel};
use kbp_scenarios::coordinated_attack::CoordinatedAttack;
use kbp_scenarios::muddy_children::MuddyChildren;
use kbp_scenarios::robot::Robot;
use kbp_scenarios::sequence_transmission::{SequenceTransmission, Tagging};
use kbp_systems::random::{random_context, RandomContextConfig};
use kbp_systems::{
    generate, ActionId, Context, FnContext, GlobalState, InterpretedSystem, JointAction, LocalView,
    Obs, Point, ProtocolFn, Recall, SystemBuilder,
};
use std::collections::{HashMap, HashSet};

/// An explicit point: the global state and every agent's local state.
type Explicit = (GlobalState, Vec<Vec<Obs>>);

/// Every way to pick one action per agent from `sets`.
fn product(sets: &[Vec<ActionId>]) -> Vec<Vec<ActionId>> {
    sets.iter().fold(vec![Vec::new()], |acc, set| {
        acc.iter()
            .flat_map(|prefix| {
                set.iter().map(move |&a| {
                    let mut joint = prefix.clone();
                    joint.push(a);
                    joint
                })
            })
            .collect()
    })
}

/// The oracle: layers `0..=horizon` of `protocol` in `ctx`, each the set
/// of distinct explicit points at that time.
fn oracle(
    ctx: &dyn Context,
    protocol: &dyn ProtocolFn,
    recall: Recall,
    horizon: usize,
) -> Vec<HashSet<Explicit>> {
    let agents = ctx.agent_count();
    let observe = |s: &GlobalState| -> Vec<Obs> {
        (0..agents).map(|i| ctx.observe(Agent::new(i), s)).collect()
    };
    let first: HashSet<Explicit> = ctx
        .initial_states()
        .into_iter()
        .map(|s| {
            let locals = observe(&s).into_iter().map(|o| vec![o]).collect();
            (s, locals)
        })
        .collect();
    let mut layers = vec![first];
    for _ in 0..horizon {
        let mut next: HashSet<Explicit> = HashSet::new();
        for (state, locals) in &layers[layers.len() - 1] {
            let sets: Vec<Vec<ActionId>> = (0..agents)
                .map(|i| {
                    protocol.actions(&LocalView {
                        agent: Agent::new(i),
                        history: &locals[i],
                    })
                })
                .collect();
            for acts in product(&sets) {
                for env in ctx.env_actions(state) {
                    let succ = ctx.transition(state, &JointAction::new(env, acts.clone()));
                    let succ_locals = observe(&succ)
                        .into_iter()
                        .zip(locals)
                        .map(|(o, history)| match recall {
                            Recall::Perfect => {
                                let mut h = history.clone();
                                h.push(o);
                                h
                            }
                            Recall::Observational => vec![o],
                        })
                        .collect();
                    next.insert((succ, succ_locals));
                }
            }
        }
        layers.push(next);
    }
    layers
}

/// Layer `t` of `sys` read as explicit points, one per node.
fn points_of(sys: &InterpretedSystem, t: usize) -> HashSet<Explicit> {
    (0..sys.layer(t).len())
        .map(|node| {
            let p = Point { time: t, node };
            let locals = (0..sys.agent_count())
                .map(|i| sys.local_view(Agent::new(i), sys.local(Agent::new(i), p)))
                .collect();
            (sys.global_state(p).clone(), locals)
        })
        .collect()
}

/// Unrolls `protocol` with fused generation switched off.
fn forced_explicit(
    ctx: &dyn Context,
    protocol: &dyn ProtocolFn,
    recall: Recall,
    horizon: usize,
) -> InterpretedSystem {
    let mut b = SystemBuilder::new(ctx, recall).unwrap();
    b.set_gen_quotient_min_worlds(usize::MAX);
    for _ in 0..horizon {
        b.step_with(protocol).unwrap();
    }
    b.finish()
}

fn check_explicit(name: &str, sys: &InterpretedSystem, want: &[HashSet<Explicit>]) {
    assert_eq!(sys.layer_count(), want.len(), "{name}: layer count");
    for (t, want) in want.iter().enumerate() {
        assert!(!sys.layer(t).is_reduced(), "{name}: layer {t} is reduced");
        assert_eq!(sys.layer(t).len(), want.len(), "{name}: layer {t} width");
        assert_eq!(&points_of(sys, t), want, "{name}: layer {t} points");
    }
}

/// The three-way check of a default system; explicit layers must also
/// equal the oracle's point sets. Returns whether some layer was reduced
/// and strictly narrower than its explicit width.
fn check_default(name: &str, sys: &InterpretedSystem, want: &[HashSet<Explicit>]) -> bool {
    assert_eq!(sys.layer_count(), want.len(), "{name}: layer count");
    let mut compressed = false;
    for (t, want) in want.iter().enumerate() {
        let layer = sys.layer(t);
        let mut got_counts: HashMap<&GlobalState, u64> = HashMap::new();
        for node in 0..layer.len() {
            let state = sys.global_state(Point { time: t, node });
            *got_counts.entry(state).or_default() += layer.multiplicity(node);
        }
        let mut want_counts: HashMap<&GlobalState, u64> = HashMap::new();
        for (state, _) in want {
            *want_counts.entry(state).or_default() += 1;
        }
        assert_eq!(
            got_counts, want_counts,
            "{name}: layer {t} counts per state"
        );
        for i in 0..sys.agent_count() {
            let agent = Agent::new(i);
            let got: HashSet<Vec<Obs>> = (0..layer.len())
                .flat_map(|node| layer.members(agent, node))
                .map(|&l| sys.local_view(agent, l))
                .collect();
            let want: HashSet<Vec<Obs>> = want.iter().map(|(_, ls)| ls[i].clone()).collect();
            assert_eq!(got, want, "{name}: layer {t} locals of agent {i}");
        }
        assert_eq!(
            layer.explicit_len(),
            want.len() as u64,
            "{name}: layer {t} explicit width"
        );
        if layer.is_reduced() {
            compressed |= (layer.len() as u64) < layer.explicit_len();
        } else {
            assert_eq!(&points_of(sys, t), want, "{name}: layer {t} points");
        }
    }
    compressed
}

/// Checks both generation modes of `protocol` against the oracle.
/// Returns whether default generation compressed some layer and whether
/// it reduced any layer at all.
fn check(
    name: &str,
    ctx: &dyn Context,
    protocol: &dyn ProtocolFn,
    recall: Recall,
    horizon: usize,
) -> (bool, bool) {
    let want = oracle(ctx, protocol, recall, horizon);
    check_explicit(
        name,
        &forced_explicit(ctx, protocol, recall, horizon),
        &want,
    );
    let sys = generate(ctx, protocol, recall, horizon).unwrap();
    let reduced = (0..sys.layer_count()).any(|t| sys.layer(t).is_reduced());
    (check_default(name, &sys, &want), reduced)
}

fn zoo() -> Vec<(&'static str, FnContext, Kbp, usize)> {
    let mc = MuddyChildren::new(3);
    let bt = BitTransmission::new(Channel::Lossy);
    let st = SequenceTransmission::new(2, Tagging::Alternating, Channel::Lossy);
    let ro = Robot::new(7, 3, 5);
    let ca = CoordinatedAttack::new(Channel::Lossy);
    vec![
        ("muddy_children", mc.context(), mc.kbp(), 4),
        ("bit_transmission", bt.context(), bt.kbp(), 6),
        ("sequence_transmission", st.context(), st.kbp(), 6),
        ("robot", ro.context(), ro.kbp(), 6),
        ("coordinated_attack", ca.context(), ca.kbp(), 5),
    ]
}

#[test]
fn generation_matches_the_oracle_on_the_zoo() {
    let mut compressed = Vec::new();
    let mut reduced = Vec::new();
    for (name, ctx, kbp, horizon) in zoo() {
        let perfect = SyncSolver::new(&ctx, &kbp)
            .horizon(horizon)
            .solve()
            .unwrap_or_else(|e| panic!("{name}: solve failed: {e}"));
        for recall in [Recall::Perfect, Recall::Observational] {
            // Where no memoryless protocol implements the program, the
            // perfect-recall solution's protocol drives observational
            // generation instead: any protocol is a fair input.
            let own = SyncSolver::new(&ctx, &kbp)
                .horizon(horizon)
                .recall(recall)
                .solve()
                .ok();
            let protocol = own.as_ref().unwrap_or(&perfect).protocol();
            let label = format!("{name} {recall:?}");
            let (c, r) = check(&label, &ctx, protocol, recall, horizon);
            if c {
                compressed.push(label.clone());
            }
            if r {
                reduced.push(label);
            }
        }
    }
    // The comparisons must not pass vacuously: sequence transmission is
    // the compressing scenario, and the robot's twin frontiers keep it
    // explicit under perfect recall.
    assert!(
        compressed
            .iter()
            .any(|l| l == "sequence_transmission Perfect"),
        "no compression on sequence transmission: {compressed:?}"
    );
    assert!(
        !reduced.iter().any(|l| l == "robot Perfect"),
        "the robot's twin frontiers were folded: {reduced:?}"
    );
}

/// A protocol that is an arbitrary fixed function of the local state:
/// one or two actions picked by hashing the history. It need not be
/// knowledge-based, so it may split a bisimulation class and send
/// `generate` down its explicit fallback.
struct HashProtocol {
    seed: u64,
    actions: usize,
}

impl ProtocolFn for HashProtocol {
    fn actions(&self, view: &LocalView<'_>) -> Vec<ActionId> {
        let mut h = self.seed ^ (view.agent.index() as u64) << 32;
        for o in view.history {
            h = SplitMix64::new(h ^ o.0).next_u64();
        }
        let a = (h % self.actions as u64) as u32;
        if h >> 40 & 3 == 0 {
            vec![ActionId(a), ActionId((a + 1) % self.actions as u32)]
        } else {
            vec![ActionId(a)]
        }
    }
}

/// A random agent-subjective guard, as in `gen_quotient_crosscheck.rs`.
fn random_guard(rng: &mut SplitMix64, agent: Agent, props: usize) -> Formula {
    let atom = |rng: &mut SplitMix64| {
        let k = Formula::knows(agent, Formula::prop(PropId::new(rng.below(props) as u32)));
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

#[test]
fn generation_matches_the_oracle_on_random_contexts() {
    let cfg = RandomContextConfig {
        states: 8,
        agents: 2,
        actions: 2,
        env_moves: 2,
        initial: 3,
        obs_classes: 3,
        props: 2,
    };
    let horizon = 4;
    let (mut solved, mut compressed) = (0, 0);
    for seed in 0..24u64 {
        let ctx = random_context(seed, &cfg);
        for recall in [Recall::Perfect, Recall::Observational] {
            let hashed = HashProtocol {
                seed,
                actions: cfg.actions,
            };
            let label = format!("seed {seed} {recall:?}");
            let (c, _) = check(&format!("{label} hashed"), &ctx, &hashed, recall, horizon);
            compressed += usize::from(c);
            let kbp = random_kbp(
                seed.wrapping_mul(31) + 7,
                cfg.agents,
                cfg.actions,
                cfg.props,
            );
            if kbp.validate(&ctx).is_err() {
                continue;
            }
            let solution = SyncSolver::new(&ctx, &kbp)
                .horizon(horizon)
                .recall(recall)
                .solve();
            if let Ok(solution) = solution {
                let (c, _) = check(
                    &format!("{label} solved"),
                    &ctx,
                    solution.protocol(),
                    recall,
                    horizon,
                );
                compressed += usize::from(c);
                solved += 1;
            }
        }
    }
    assert!(solved >= 12, "only {solved} random programs solved");
    assert!(compressed > 0, "no random draw compressed a layer");
}
