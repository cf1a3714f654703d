//! Property tests: the S5 axioms and the normal forms, over random
//! models and random formulas.

use kbp_kripke::{S5Builder, S5Model, WorldId};
use kbp_logic::random::{random_formula, FormulaConfig, SplitMix64};
use kbp_logic::{Agent, AgentSet, Formula, PropId, Vocabulary};
use proptest::prelude::*;

const AGENTS: usize = 2;
const PROPS: usize = 3;

/// A random S5 model described by plain data (so proptest can shrink it).
#[derive(Debug, Clone)]
struct ModelSpec {
    /// For each world, the set of true props (bitmask over PROPS).
    worlds: Vec<u8>,
    /// Indistinguishability links: (agent, world a, world b).
    links: Vec<(usize, usize, usize)>,
}

fn model_spec() -> impl Strategy<Value = ModelSpec> {
    (2usize..7).prop_flat_map(|n| {
        let worlds = proptest::collection::vec(0u8..(1 << PROPS), n);
        let links = proptest::collection::vec((0..AGENTS, 0..n, 0..n), 0..12);
        (worlds, links).prop_map(|(worlds, links)| ModelSpec { worlds, links })
    })
}

fn build(spec: &ModelSpec) -> S5Model {
    let mut b = S5Builder::new(AGENTS, PROPS);
    for &mask in &spec.worlds {
        let props = (0..PROPS)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| PropId::new(i as u32));
        b.add_world(props);
    }
    for &(agent, wa, wb) in &spec.links {
        b.link(Agent::new(agent), WorldId::new(wa), WorldId::new(wb));
    }
    b.build()
}

fn formula_from_seed(seed: u64, temporal: bool) -> Formula {
    let cfg = FormulaConfig {
        props: PROPS,
        agents: AGENTS,
        max_depth: 5,
        temporal,
        groups: true,
    };
    random_formula(&mut SplitMix64::new(seed), &cfg)
}

proptest! {
    /// Axiom T (truth): K_i φ → φ.
    #[test]
    fn axiom_t(spec in model_spec(), seed in any::<u64>(), agent in 0..AGENTS) {
        let m = build(&spec);
        let phi = formula_from_seed(seed, false);
        let t = Formula::implies(Formula::knows(Agent::new(agent), phi.clone()), phi);
        prop_assert!(m.holds_everywhere(&t).unwrap());
    }

    /// Axiom 4 (positive introspection): K φ → K K φ.
    #[test]
    fn axiom_four(spec in model_spec(), seed in any::<u64>(), agent in 0..AGENTS) {
        let m = build(&spec);
        let a = Agent::new(agent);
        let phi = formula_from_seed(seed, false);
        let k = Formula::knows(a, phi);
        let four = Formula::implies(k.clone(), Formula::knows(a, k));
        prop_assert!(m.holds_everywhere(&four).unwrap());
    }

    /// Axiom 5 (negative introspection): ¬K φ → K ¬K φ.
    #[test]
    fn axiom_five(spec in model_spec(), seed in any::<u64>(), agent in 0..AGENTS) {
        let m = build(&spec);
        let a = Agent::new(agent);
        let phi = formula_from_seed(seed, false);
        let nk = Formula::not(Formula::knows(a, phi));
        let five = Formula::implies(nk.clone(), Formula::knows(a, nk));
        prop_assert!(m.holds_everywhere(&five).unwrap());
    }

    /// Distribution (axiom K): K(φ→ψ) → (Kφ → Kψ).
    #[test]
    fn axiom_k(spec in model_spec(), s1 in any::<u64>(), s2 in any::<u64>(), agent in 0..AGENTS) {
        let m = build(&spec);
        let a = Agent::new(agent);
        let phi = formula_from_seed(s1, false);
        let psi = formula_from_seed(s2, false);
        let dist = Formula::implies(
            Formula::knows(a, Formula::implies(phi.clone(), psi.clone())),
            Formula::implies(Formula::knows(a, phi), Formula::knows(a, psi)),
        );
        prop_assert!(m.holds_everywhere(&dist).unwrap());
    }

    /// C_G φ implies every finite E_G-iterate.
    #[test]
    fn common_implies_everyone_chain(spec in model_spec(), seed in any::<u64>()) {
        let m = build(&spec);
        let g = AgentSet::all(AGENTS);
        let phi = formula_from_seed(seed, false);
        let c = Formula::common(g, phi.clone());
        let mut e = phi;
        for _ in 0..3 {
            e = Formula::Everyone(g, Box::new(e));
            let implied = Formula::implies(c.clone(), e.clone());
            prop_assert!(m.holds_everywhere(&implied).unwrap());
        }
    }

    /// C_G is a fixed point: C_G φ ↔ E_G (φ ∧ C_G φ).
    #[test]
    fn common_knowledge_fixpoint(spec in model_spec(), seed in any::<u64>()) {
        let m = build(&spec);
        let g = AgentSet::all(AGENTS);
        let phi = formula_from_seed(seed, false);
        let c = Formula::common(g, phi.clone());
        let unfolded = Formula::Everyone(g, Box::new(Formula::and([phi, c.clone()])));
        let fix = Formula::iff(c, unfolded);
        prop_assert!(m.holds_everywhere(&fix).unwrap());
    }

    /// K_i φ implies D_G φ for i ∈ G (distributed knowledge pools).
    #[test]
    fn knowledge_implies_distributed(spec in model_spec(), seed in any::<u64>(), agent in 0..AGENTS) {
        let m = build(&spec);
        let g = AgentSet::all(AGENTS);
        let a = Agent::new(agent);
        let phi = formula_from_seed(seed, false);
        let f = Formula::implies(
            Formula::knows(a, phi.clone()),
            Formula::Distributed(g, Box::new(phi)),
        );
        prop_assert!(m.holds_everywhere(&f).unwrap());
    }

    /// NNF preserves satisfaction world by world.
    #[test]
    fn nnf_preserves_satisfaction(spec in model_spec(), seed in any::<u64>()) {
        let m = build(&spec);
        let phi = formula_from_seed(seed, false);
        let nnf = phi.nnf();
        prop_assert_eq!(
            m.satisfying(&phi).unwrap(),
            m.satisfying(&nnf).unwrap(),
            "nnf changed the meaning of {}", phi
        );
    }

    /// simplify preserves satisfaction world by world.
    #[test]
    fn simplify_preserves_satisfaction(spec in model_spec(), seed in any::<u64>()) {
        let m = build(&spec);
        let phi = formula_from_seed(seed, false);
        let simp = phi.simplify();
        prop_assert_eq!(
            m.satisfying(&phi).unwrap(),
            m.satisfying(&simp).unwrap(),
            "simplify changed the meaning of {}", phi
        );
    }

    /// Parser round-trip: printing with a vocabulary and re-parsing yields
    /// the same formula.
    #[test]
    fn parse_roundtrip(seed in any::<u64>(), temporal in any::<bool>()) {
        let mut voc = Vocabulary::new();
        for a in 0..AGENTS {
            voc.add_agent(format!("ag{a}"));
        }
        for p in 0..PROPS {
            voc.add_prop(format!("prop{p}"));
        }
        let phi = formula_from_seed(seed, temporal);
        let printed = phi.to_string_with(&voc);
        let reparsed = kbp_lang::parse_formula(&printed, &mut voc.clone())
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e:?}"));
        prop_assert_eq!(phi, reparsed, "round-trip failed via `{}`", printed);
    }

    /// The bisimulation quotient preserves every formula at every world.
    #[test]
    fn quotient_preserves_formulas(spec in model_spec(), seed in any::<u64>()) {
        let m = build(&spec);
        let q = m.quotient();
        let phi = formula_from_seed(seed, false);
        for w in m.worlds() {
            prop_assert_eq!(
                m.check(w, &phi).unwrap(),
                q.model().check(q.class_of(w).unwrap(), &phi).unwrap(),
                "quotient changed {} at {}", phi, w
            );
        }
    }

    /// Announcing a true objective formula makes it known (success of
    /// propositional announcements).
    #[test]
    fn objective_announcements_succeed(spec in model_spec(), seed in any::<u64>(), agent in 0..AGENTS) {
        let m = build(&spec);
        let cfg = FormulaConfig {
            props: PROPS,
            agents: AGENTS,
            max_depth: 4,
            temporal: false,
            groups: false,
        };
        // Draw until objective (propositional) — mask out modalities by
        // substituting K-subformulas away is overkill; just retry seeds.
        let mut rng = SplitMix64::new(seed);
        let mut phi = random_formula(&mut rng, &cfg);
        for _ in 0..20 {
            if phi.is_objective() {
                break;
            }
            phi = random_formula(&mut rng, &cfg);
        }
        prop_assume!(phi.is_objective());
        match m.announce(&phi) {
            Ok(upd) => {
                let known = Formula::knows(Agent::new(agent), phi);
                prop_assert!(upd.model().holds_everywhere(&known).unwrap());
            }
            Err(kbp_kripke::AnnounceError::Inconsistent) => {
                // φ holds nowhere; nothing to check.
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
        }
    }
}
