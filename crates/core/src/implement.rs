//! The implementation relation: `P` implements `Pg` iff
//! `P = Pg^{I^rep(P, γ)}`.
//!
//! Given a candidate protocol `P`, generate the (bounded) system it
//! produces, evaluate every guard of the knowledge-based program *in that
//! system*, and compare the induced action sets with what `P` actually
//! prescribes at every reached local state. Equality everywhere means `P`
//! is a fixed point — an implementation.
//!
//! Unlike the inductive solver, this check supports future-referring
//! guards: guards are interned into a [`FormulaArena`] and evaluated with
//! the bounded-temporal batch driver
//! [`satisfying_layers`](kbp_systems::satisfying_layers), so all guards of
//! all programs share one arena and one subformula cache per layer.

use crate::program::Kbp;
use crate::solve::SolveError;
use kbp_kripke::BitSet;
use kbp_logic::{Agent, FormulaArena, FormulaId};
use kbp_systems::{
    generate, satisfying_layers, ActionId, Context, InterpretedSystem, LocalId, Point, ProtocolFn,
    Recall,
};
use std::collections::HashMap;
use std::fmt;

/// One disagreement between the candidate protocol and the program's
/// induced protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The agent at which the disagreement occurs.
    pub agent: Agent,
    /// A witnessing point (on a layer held as bisimulation
    /// representatives, the class representative).
    pub point: Point,
    /// The agent's local state that disagrees; its history is
    /// [`InterpretedSystem::local_view`]`(agent, local)`. On a layer held
    /// as bisimulation representatives it is a member local of `point`'s
    /// class, not necessarily the representative's own.
    pub local: LocalId,
    /// What the program induces there (evaluated in the candidate's own
    /// system).
    pub induced: Vec<ActionId>,
    /// What the candidate protocol prescribes there.
    pub prescribed: Vec<ActionId>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "agent {} at point {}: program induces {:?}, protocol prescribes {:?}",
            self.agent, self.point, self.induced, self.prescribed
        )
    }
}

/// The result of an implementation check.
#[derive(Debug)]
pub struct ImplementationReport {
    system: InterpretedSystem,
    mismatches: Vec<Mismatch>,
    points_checked: usize,
}

impl ImplementationReport {
    /// Whether the candidate is a (bounded) implementation: no point
    /// disagreed.
    #[must_use]
    pub fn is_implementation(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The disagreements found (empty iff implementation): one per
    /// disagreeing `(point, agent)` pair on an explicit layer, and one per
    /// disagreeing member local of a class on a layer held as
    /// bisimulation representatives, so a class contributes at most as
    /// many entries as its agent has member locals there, not its
    /// multiplicity.
    #[must_use]
    pub fn mismatches(&self) -> &[Mismatch] {
        &self.mismatches
    }

    /// The system generated by the candidate protocol.
    #[must_use]
    pub fn system(&self) -> &InterpretedSystem {
        &self.system
    }

    /// Number of `(point, agent)` pairs compared, counting explicit
    /// points: a class of a layer held as bisimulation representatives
    /// counts with its multiplicity.
    #[must_use]
    pub fn points_checked(&self) -> usize {
        self.points_checked
    }
}

impl fmt::Display for ImplementationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_implementation() {
            write!(
                f,
                "implementation confirmed ({} point-agent pairs checked)",
                self.points_checked
            )
        } else {
            writeln!(
                f,
                "NOT an implementation: {} disagreement(s), e.g.:",
                self.mismatches.len()
            )?;
            for m in self.mismatches.iter().take(5) {
                writeln!(f, "  {m}")?;
            }
            Ok(())
        }
    }
}

/// Checks whether `protocol` implements `kbp` in `ctx` over a bounded
/// horizon.
///
/// # Errors
///
/// * [`SolveError::Kbp`] — the program is invalid for the context.
/// * [`SolveError::Generate`] — the candidate's system could not be built.
/// * [`SolveError::Eval`] — a guard could not be evaluated.
/// * [`SolveError::LocalityViolation`] — a guard declared local is not a
///   function of the agent's local state in the candidate's system.
///
/// # Example
///
/// ```
/// use kbp_core::{check_implementation, Kbp};
/// use kbp_logic::{Agent, Formula, Vocabulary};
/// use kbp_systems::{ActionId, ContextBuilder, GlobalState, MapProtocol, Obs, Recall};
///
/// let mut voc = Vocabulary::new();
/// let a_name = voc.add_agent("a");
/// let lit = voc.add_prop("lit");
/// // Lamp starts off; "switch" turns it on; agent sees the lamp.
/// let ctx = ContextBuilder::new(voc)
///     .initial_state(GlobalState::new(vec![0]))
///     .agent_actions(a_name, ["noop", "switch"])
///     .transition(|s, j| if j.acts[0] == ActionId(1) { s.with_reg(0, 1) } else { s.clone() })
///     .observe(|_, s| Obs(u64::from(s.reg(0))))
///     .props(move |p, s| p == lit && s.reg(0) == 1)
///     .build();
///
/// let a = Agent::new(0);
/// // "If you don't know the lamp is lit, switch it on."
/// let kbp = Kbp::builder()
///     .clause(a, Formula::not(Formula::knows(a, Formula::prop(lit))), ActionId(1))
///     .default_action(a, ActionId(0))
///     .build();
///
/// // Candidate: switch at the initial observation, then noop.
/// let mut p = MapProtocol::new(vec![ActionId(0)]);
/// p.insert(a, vec![Obs(0)], vec![ActionId(1)]);
/// let report = check_implementation(&ctx, &kbp, &p, Recall::Perfect, 3)?;
/// assert!(report.is_implementation());
///
/// // Candidate: never switch — the guard stays true, so NOT a fixed point.
/// let lazy = MapProtocol::new(vec![ActionId(0)]);
/// let report = check_implementation(&ctx, &kbp, &lazy, Recall::Perfect, 3)?;
/// assert!(!report.is_implementation());
/// # Ok::<(), kbp_core::SolveError>(())
/// ```
pub fn check_implementation(
    ctx: &dyn Context,
    kbp: &Kbp,
    protocol: &dyn ProtocolFn,
    recall: Recall,
    horizon: usize,
) -> Result<ImplementationReport, SolveError> {
    kbp.validate(ctx)?;
    let system = generate(ctx, protocol, recall, horizon)?;
    let (mismatches, points_checked) = compare_on_system(&system, kbp, protocol)?;
    Ok(ImplementationReport {
        system,
        mismatches,
        points_checked,
    })
}

/// Shared comparison core: evaluates guards in `system` and compares the
/// induced action sets against `protocol` at every point.
///
/// Interns every guard into a fresh arena; callers that already hold an
/// interned arena (the enumerator) go through
/// [`compare_with_sets`] instead so the whole run keeps a single arena.
pub(crate) fn compare_on_system(
    system: &InterpretedSystem,
    kbp: &Kbp,
    protocol: &dyn ProtocolFn,
) -> Result<(Vec<Mismatch>, usize), SolveError> {
    let mut arena = FormulaArena::new();
    let guard_ids: Vec<FormulaId> = kbp
        .programs()
        .iter()
        .flat_map(|p| p.clauses().iter())
        .map(|c| arena.intern(&c.guard))
        .collect();
    compare_on_system_with(system, kbp, protocol, &arena, &guard_ids)
}

/// Arena-aware comparison: `guard_ids` are the interned guards of all
/// programs' clauses, flattened program-major / clause-minor.
pub(crate) fn compare_on_system_with(
    system: &InterpretedSystem,
    kbp: &Kbp,
    protocol: &dyn ProtocolFn,
    arena: &FormulaArena,
    guard_ids: &[FormulaId],
) -> Result<(Vec<Mismatch>, usize), SolveError> {
    let sets = satisfying_layers(system, arena, guard_ids)?;
    compare_with_sets(system, kbp, protocol, &sets)
}

/// Comparison against precomputed satisfaction sets (`sets[g][t]` is the
/// set of layer-`t` nodes satisfying the `g`-th flattened guard).
pub(crate) fn compare_with_sets(
    system: &InterpretedSystem,
    kbp: &Kbp,
    protocol: &dyn ProtocolFn,
    sets: &[Vec<BitSet>],
) -> Result<(Vec<Mismatch>, usize), SolveError> {
    let mut mismatches = Vec::new();
    let mut points_checked = 0usize;

    let mut offset = 0usize;
    for program in kbp.programs() {
        let agent = program.agent();
        let clause_sets = &sets[offset..offset + program.clauses().len()];
        offset += program.clauses().len();

        for t in 0..system.layer_count() {
            let layer = system.layer(t);
            // Check guard locality within the layer while we're at it.
            let mut by_local: HashMap<LocalId, Vec<bool>> = HashMap::new();
            for node in 0..layer.len() {
                let point = Point { time: t, node };
                let truths: Vec<bool> = clause_sets.iter().map(|s| s[t].contains(node)).collect();
                let points = usize::try_from(layer.multiplicity(node)).unwrap_or(usize::MAX);
                points_checked = points_checked.saturating_add(points);
                // On a reduced layer a class's explicit points carry every
                // member local.
                for &local in layer.members(agent, node) {
                    match by_local.get(&local) {
                        Some(prev) if *prev != truths => {
                            let clause = prev
                                .iter()
                                .zip(&truths)
                                .position(|(a, b)| a != b)
                                .unwrap_or(0);
                            return Err(SolveError::LocalityViolation {
                                agent,
                                clause,
                                time: t,
                            });
                        }
                        Some(_) => {}
                        None => {
                            by_local.insert(local, truths.clone());
                        }
                    }

                    let induced = program.induced_actions(&truths);
                    let history = system.local_view(agent, local);
                    let mut prescribed = protocol.actions(&kbp_systems::LocalView {
                        agent,
                        history: &history,
                    });
                    prescribed.sort_unstable();
                    prescribed.dedup();
                    if induced != prescribed {
                        mismatches.push(Mismatch {
                            agent,
                            point,
                            local,
                            induced,
                            prescribed,
                        });
                    }
                }
            }
        }
    }
    Ok((mismatches, points_checked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbp_logic::{Formula, PropId, Vocabulary};
    use kbp_systems::{ContextBuilder, FnContext, GlobalState, MapProtocol, Obs};

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    /// Lamp context: switch turns the (visible) lamp on, latching.
    fn lamp() -> FnContext {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("a");
        let lit = voc.add_prop("lit");
        ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop", "switch"])
            .transition(|s, j| {
                if j.acts[0] == ActionId(1) {
                    s.with_reg(0, 1)
                } else {
                    s.clone()
                }
            })
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(move |q, s| q == lit && s.reg(0) == 1)
            .build()
    }

    fn lamp_kbp() -> Kbp {
        let a = Agent::new(0);
        Kbp::builder()
            .clause(a, Formula::not(Formula::knows(a, p(0))), ActionId(1))
            .default_action(a, ActionId(0))
            .build()
    }

    #[test]
    fn correct_candidate_is_confirmed() {
        let ctx = lamp();
        let kbp = lamp_kbp();
        let a = Agent::new(0);
        let mut proto = MapProtocol::new(vec![ActionId(0)]);
        proto.insert(a, vec![Obs(0)], vec![ActionId(1)]);
        let report = check_implementation(&ctx, &kbp, &proto, Recall::Perfect, 4).unwrap();
        assert!(report.is_implementation(), "{report}");
        assert!(report.points_checked() >= 5);
        assert!(report.to_string().contains("confirmed"));
    }

    #[test]
    fn lazy_candidate_is_refuted_with_witness() {
        let ctx = lamp();
        let kbp = lamp_kbp();
        let lazy = MapProtocol::new(vec![ActionId(0)]);
        let report = check_implementation(&ctx, &kbp, &lazy, Recall::Perfect, 4).unwrap();
        assert!(!report.is_implementation());
        let m = &report.mismatches()[0];
        assert_eq!(m.induced, vec![ActionId(1)]);
        assert_eq!(m.prescribed, vec![ActionId(0)]);
        assert_eq!(m.point.time, 0);
        assert!(report.to_string().contains("NOT an implementation"));
    }

    #[test]
    fn overeager_candidate_is_refuted() {
        // Switching forever: once lit is known, the guard fails, so the
        // program induces noop — switching again disagrees.
        let ctx = lamp();
        let kbp = lamp_kbp();
        let a = Agent::new(0);
        let mut eager = MapProtocol::new(vec![ActionId(1)]);
        eager.set_agent_default(a, vec![ActionId(1)]);
        let report = check_implementation(&ctx, &kbp, &eager, Recall::Perfect, 3).unwrap();
        assert!(!report.is_implementation());
        // The disagreement is at a point where the lamp is already lit.
        let m = &report.mismatches()[0];
        assert!(m.point.time >= 1);
        assert_eq!(m.induced, vec![ActionId(0)]);
    }

    #[test]
    fn future_guards_are_supported_here() {
        // "If you know the lamp will eventually be lit, noop; else switch."
        // Candidate A: always switch — then F lit holds on all runs, the
        // guard is true everywhere... but then the program induces noop,
        // contradiction. Candidate B: never switch — F lit fails, guard
        // false, program induces switch, contradiction. Both refuted:
        // this program has NO implementation of either shape.
        let ctx = lamp();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(
                a,
                Formula::not(Formula::knows(a, Formula::eventually(p(0)))),
                ActionId(1),
            )
            .default_action(a, ActionId(0))
            .build();
        let mut always = MapProtocol::new(vec![ActionId(1)]);
        always.set_agent_default(a, vec![ActionId(1)]);
        let never = MapProtocol::new(vec![ActionId(0)]);
        let ra = check_implementation(&ctx, &kbp, &always, Recall::Perfect, 3).unwrap();
        let rb = check_implementation(&ctx, &kbp, &never, Recall::Perfect, 3).unwrap();
        assert!(!ra.is_implementation());
        assert!(!rb.is_implementation());
    }

    #[test]
    fn self_fulfilling_future_guard_has_two_implementations() {
        // "If you know the lamp will eventually be lit, switch." (sic —
        // acting *because* it will happen). Always-switch: F lit true,
        // guard true, induces switch: fixed point. Never-switch: F lit
        // false, guard false, induces noop: fixed point. Two
        // implementations — FHMV's classic indeterminacy.
        let ctx = lamp();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, Formula::eventually(p(0))), ActionId(1))
            .default_action(a, ActionId(0))
            .build();
        let mut always = MapProtocol::new(vec![ActionId(1)]);
        always.set_agent_default(a, vec![ActionId(1)]);
        let never = MapProtocol::new(vec![ActionId(0)]);
        let ra = check_implementation(&ctx, &kbp, &always, Recall::Perfect, 3).unwrap();
        let rb = check_implementation(&ctx, &kbp, &never, Recall::Perfect, 3).unwrap();
        assert!(ra.is_implementation(), "{ra}");
        assert!(rb.is_implementation(), "{rb}");
    }
}
