//! Pinned parser round-trip regressions, run against `kbp-lang`'s
//! formula and program entries.
//!
//! Deterministic replays of cases that the `parse_roundtrip` property in
//! `tests/s5_properties.rs` has flagged historically (the seeds in
//! `tests/s5_properties.proptest-regressions`), plus hand-crafted ASTs
//! built from the *raw* `Formula` variants — bypassing the smart
//! constructors — that probe every precedence and associativity corner of
//! the printer/parser pair. These run as plain unit tests, so they are
//! exercised even when the proptest regression file is not picked up.
//! Last, every registry scenario's program is printed as `program` blocks
//! by `Kbp::to_pretty` and read back.

use kbp_lang::{parse_formula, parse_program};
use kbp_logic::random::{random_formula, FormulaConfig, SplitMix64};
use kbp_logic::{Agent, AgentSet, Formula, PropId, Vocabulary};

const AGENTS: usize = 2;
const PROPS: usize = 3;

fn voc() -> Vocabulary {
    let mut voc = Vocabulary::new();
    for a in 0..AGENTS {
        voc.add_agent(format!("ag{a}"));
    }
    for p in 0..PROPS {
        voc.add_prop(format!("prop{p}"));
    }
    voc
}

/// Print with the test vocabulary, reparse, and demand structural equality.
fn roundtrip(phi: &Formula) -> Result<(), String> {
    let v = voc();
    let printed = phi.to_string_with(&v);
    match parse_formula(&printed, &mut v.clone()) {
        Ok(re) if &re == phi => Ok(()),
        Ok(re) => Err(format!("`{printed}`: {phi:?} != {re:?}")),
        Err(e) => Err(format!("`{printed}`: parse error {e:?}")),
    }
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

/// Seeds recorded in `tests/s5_properties.proptest-regressions`, replayed
/// deterministically. Each entry is `(seed, temporal)` exactly as shrunk.
#[test]
fn recorded_proptest_seeds() {
    let cases: &[(u64, bool)] = &[(18226086364413993154, false)];
    for &(seed, temporal) in cases {
        let phi = formula_from_seed(seed, temporal);
        roundtrip(&phi).unwrap_or_else(|e| panic!("seed {seed} (temporal={temporal}): {e}"));
    }
}

/// Hand-crafted precedence/associativity corners, built from raw variants
/// so the printer cannot rely on smart-constructor normalisation.
#[test]
fn crafted_precedence_corners() {
    let p = |i: u32| Formula::prop(PropId::new(i));
    let a0 = Agent::new(0);
    let mut g = AgentSet::new();
    g.insert(a0);
    g.insert(Agent::new(1));
    #[rustfmt::skip]
    let cases: Vec<Formula> = vec![
        // -> is right-associative: the left-nested form needs parens...
        Formula::Implies(Box::new(Formula::Implies(Box::new(p(0)), Box::new(p(1)))), Box::new(p(2))),
        // ...and the right-nested form must print without them.
        Formula::Implies(Box::new(p(0)), Box::new(Formula::Implies(Box::new(p(1)), Box::new(p(2))))),
        Formula::Iff(Box::new(Formula::Iff(Box::new(p(0)), Box::new(p(1)))), Box::new(p(2))),
        // & binds tighter than |, and vice versa under nesting.
        Formula::And(vec![Formula::Or(vec![p(0), p(1)]), p(2)]),
        Formula::Or(vec![Formula::And(vec![p(0), p(1)]), p(2)]),
        // Negation over n-ary and modal operands.
        Formula::Not(Box::new(Formula::And(vec![p(0), p(1)]))),
        Formula::Not(Box::new(Formula::Knows(a0, Box::new(p(0))))),
        Formula::Knows(a0, Box::new(Formula::And(vec![p(0), p(1)]))),
        // U associativity, both nestings.
        Formula::Until(Box::new(Formula::Until(Box::new(p(0)), Box::new(p(1)))), Box::new(p(2))),
        Formula::Until(Box::new(p(0)), Box::new(Formula::Until(Box::new(p(1)), Box::new(p(2))))),
        Formula::Always(Box::new(Formula::Until(Box::new(p(0)), Box::new(p(1))))),
        Formula::Until(Box::new(Formula::Not(Box::new(p(0)))), Box::new(p(1))),
        // Nested group modalities.
        Formula::Everyone(g, Box::new(Formula::Common(g, Box::new(p(0))))),
        // n-ary flattening survives the trip.
        Formula::And(vec![p(0), p(1), p(2)]),
        // Mixed-precedence combinations around ->, <-> and the lattice ops.
        Formula::Or(vec![Formula::Implies(Box::new(p(0)), Box::new(p(1))), p(2)]),
        Formula::Implies(Box::new(Formula::Or(vec![p(0), p(1)])), Box::new(p(2))),
        Formula::Iff(Box::new(p(0)), Box::new(Formula::Implies(Box::new(p(1)), Box::new(p(2))))),
        Formula::Next(Box::new(Formula::Until(Box::new(p(0)), Box::new(p(1))))),
        Formula::And(vec![Formula::Iff(Box::new(p(0)), Box::new(p(1))), p(2)]),
    ];
    let mut failures = Vec::new();
    for c in &cases {
        if let Err(e) = roundtrip(c) {
            failures.push(e);
        }
    }
    assert!(
        failures.is_empty(),
        "{} crafted cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every registry scenario's program, printed by `Kbp::to_pretty` with
/// its own vocabulary and action names, reads back as the same `Kbp`: the
/// program printer and the one grammar agree on every shipped vocabulary.
#[test]
fn every_registry_scenario_reparses() {
    for entry in kbp_service::registry() {
        let (ctx, kbp) = entry.build();
        let src = kbp.to_pretty(&ctx);
        assert!(src.contains("case "), "{}: no clause printed", entry.name);
        let reparsed =
            parse_program(&src, &ctx).unwrap_or_else(|d| panic!("{}: {d:?}\n{src}", entry.name));
        assert_eq!(reparsed, kbp, "{}:\n{src}", entry.name);
    }
}
