//! Evaluation of epistemic–temporal formulas at points of a bounded
//! generated system.
//!
//! Knowledge operators are evaluated on each layer's S5 model (synchronous
//! semantics: `K_i` quantifies over same-time points with equal local
//! state). Temporal operators are evaluated by backward induction over the
//! layers, with **universal path quantification** over the protocol's and
//! environment's nondeterminism and **bounded-run semantics**: runs end at
//! the horizon, so `X φ` is false on the last layer, and `F φ` / `G φ` /
//! `U` are read on the truncated suffix.
//!
//! Universal path semantics is the right reading for knowledge tests about
//! the future: `K_i F φ` holds when, for every point the agent cannot
//! distinguish and every way the future can unfold from it, `φ` eventually
//! holds — the agent *knows* `φ` is coming. Dually `¬K_i ¬F φ` ("the agent
//! considers `F φ` possible") quantifies existentially.

use crate::system::{InterpretedSystem, Point};
use kbp_kripke::{BitSet, EvalCache, EvalEngine, EvalError};
use kbp_logic::{Formula, FormulaArena, FormulaId, InternedNode};

/// A compiled evaluation of one formula over all points of a system.
///
/// Construction computes, for every subformula and every layer, the set of
/// nodes satisfying it; queries are then O(1). Reuse one evaluator for many
/// point queries of the same formula.
///
/// # Example
///
/// ```
/// use kbp_systems::{generate, ContextBuilder, GlobalState, Obs, Recall, ActionId,
///                   LocalView, Evaluator, Point};
/// use kbp_logic::{Formula, Vocabulary};
///
/// let mut voc = Vocabulary::new();
/// let agent = voc.add_agent("counter");
/// let done = voc.add_prop("done");
/// let ctx = ContextBuilder::new(voc)
///     .initial_state(GlobalState::new(vec![0]))
///     .agent_actions(agent, ["tick"])
///     .transition(|s, _| s.with_reg(0, (s.reg(0) + 1).min(3)))
///     .observe(|_, s| Obs(u64::from(s.reg(0))))
///     .props(move |p, s| p == done && s.reg(0) == 3)
///     .build();
/// let tick = |_: &LocalView<'_>| vec![ActionId(0)];
/// let sys = generate(&ctx, &tick, Recall::Perfect, 4)?;
///
/// // "done eventually holds" is true from the start.
/// let ev = Evaluator::new(&sys, &Formula::eventually(Formula::prop(done)))?;
/// assert!(ev.holds(Point { time: 0, node: 0 }));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Evaluator<'s> {
    sys: &'s InterpretedSystem,
    /// sat[t] = nodes of layer t satisfying the (root) formula.
    sat: Vec<BitSet>,
}

impl<'s> Evaluator<'s> {
    /// Compiles `formula` over `sys`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] for out-of-range propositions or agents, or an
    /// empty group modality. (Temporal operators are supported here, unlike
    /// on static models.)
    pub fn new(sys: &'s InterpretedSystem, formula: &Formula) -> Result<Self, EvalError> {
        let mut arena = FormulaArena::new();
        let root = arena.intern(formula);
        let mut sets = satisfying_layers(sys, &arena, &[root])?;
        let sat = sets.swap_remove(0);
        Ok(Evaluator { sys, sat })
    }

    /// Whether the formula holds at `point`.
    ///
    /// # Panics
    ///
    /// Panics if the point is out of range.
    #[must_use]
    pub fn holds(&self, point: Point) -> bool {
        self.sat[point.time].contains(point.node)
    }

    /// The nodes of layer `t` satisfying the formula.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn satisfying(&self, t: usize) -> &BitSet {
        &self.sat[t]
    }

    /// The system this evaluator is bound to.
    #[must_use]
    pub fn system(&self) -> &'s InterpretedSystem {
        self.sys
    }
}

impl InterpretedSystem {
    /// Evaluates `formula` at a single point (compiles a fresh
    /// [`Evaluator`]; prefer reusing one for repeated queries).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::new`].
    ///
    /// # Panics
    ///
    /// Panics if the point is out of range.
    pub fn eval(&self, point: Point, formula: &Formula) -> Result<bool, EvalError> {
        Ok(Evaluator::new(self, formula)?.holds(point))
    }

    /// Whether `formula` holds at every point of layer 0 — "the formula
    /// holds initially, whatever the initial state".
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::new`].
    pub fn holds_initially(&self, formula: &Formula) -> Result<bool, EvalError> {
        let ev = Evaluator::new(self, formula)?;
        Ok(ev.satisfying(0).count() == self.layer(0).len())
    }
}

/// For each layer, the nodes all of whose children lie in `next` (nodes of
/// the next layer). Nodes of the last layer have no children: `vacuous`
/// decides whether they qualify.
fn all_children_in(
    sys: &InterpretedSystem,
    t: usize,
    next: Option<&BitSet>,
    vacuous: bool,
) -> BitSet {
    let layer = sys.layer(t);
    let mut out = BitSet::new(layer.len());
    match next {
        None => {
            if vacuous {
                out = BitSet::full(layer.len());
            }
        }
        Some(next) => {
            for (ni, node) in layer.nodes().iter().enumerate() {
                if node.children().iter().all(|&c| next.contains(c)) {
                    out.insert(ni);
                }
            }
        }
    }
    out
}

/// Evaluates a batch of interned `roots` on every layer of `sys`,
/// returning `result[r][t]` = nodes of layer `t` satisfying `roots[r]`.
///
/// This is a thin driver over the shared evaluation kernel of
/// `kbp-kripke`: the reachable part of `arena` is walked once in
/// postorder; every non-temporal node is evaluated per layer through that
/// layer's [`EvalCache`] (so each *distinct* subformula costs one
/// evaluation per layer, and group partitions are memoized), while
/// temporal nodes are computed here by backward induction over the layers
/// — with universal path quantification and bounded-run semantics — and
/// inserted into the per-layer caches so enclosing formulas pick them up
/// transparently.
///
/// Evaluating all guards of a program through one arena is how the solver
/// and enumerator share subformula work across clauses; pass one root for
/// the single-formula case (see [`Evaluator`]).
///
/// # Errors
///
/// Returns [`EvalError`] for out-of-range propositions or agents, or an
/// empty group modality.
///
/// # Panics
///
/// Panics if a root id was not issued by `arena`.
pub fn satisfying_layers(
    sys: &InterpretedSystem,
    arena: &FormulaArena,
    roots: &[FormulaId],
) -> Result<Vec<Vec<BitSet>>, EvalError> {
    satisfying_layers_impl(sys, arena, roots, &mut |t, cache, id| {
        sys.layer(t).model().satisfying_cached(cache, arena, id)?;
        Ok(())
    })
}

/// Like [`satisfying_layers`], but static nodes are evaluated through
/// `engine` and its shared arena.
///
/// The walk uses the engine's arena; `roots` must be ids issued by
/// [`EvalEngine::arena`].
///
/// # Errors
///
/// Returns [`EvalError`] for out-of-range propositions or agents, or an
/// empty group modality.
///
/// # Panics
///
/// Panics if a root id was not issued by the engine's arena.
pub fn satisfying_layers_with(
    sys: &InterpretedSystem,
    engine: &EvalEngine,
    roots: &[FormulaId],
) -> Result<Vec<Vec<BitSet>>, EvalError> {
    satisfying_layers_impl(sys, engine.arena(), roots, &mut |t, cache, id| {
        engine.populate(sys.layer(t).model(), cache, &[id])
    })
}

/// Shared postorder walk: temporal nodes by backward induction here,
/// static nodes through `eval_static(layer, cache, id)` (which must leave
/// `cache.get(id)` populated).
fn satisfying_layers_impl(
    sys: &InterpretedSystem,
    arena: &FormulaArena,
    roots: &[FormulaId],
    eval_static: &mut dyn FnMut(usize, &mut EvalCache, FormulaId) -> Result<(), EvalError>,
) -> Result<Vec<Vec<BitSet>>, EvalError> {
    let layers = sys.layer_count();
    let mut caches: Vec<EvalCache> = (0..layers).map(|_| EvalCache::new()).collect();
    // Per-layer sets of one already-evaluated child, cloned out of the
    // caches for the backward inductions.
    let child_sets = |caches: &[EvalCache], f: FormulaId| -> Result<Vec<BitSet>, EvalError> {
        caches
            .iter()
            .map(|c| {
                c.get(f)
                    .cloned()
                    .ok_or(EvalError::Internal("postorder child missing from cache"))
            })
            .collect()
    };
    for id in arena.reachable(roots) {
        match arena.node(id) {
            InternedNode::Next(f) => {
                let sat = child_sets(&caches, *f)?;
                for (t, cache) in caches.iter_mut().enumerate() {
                    let next = if t + 1 < layers {
                        Some(&sat[t + 1])
                    } else {
                        None
                    };
                    // Strong next: false at the horizon.
                    cache.insert(id, all_children_in(sys, t, next, false))?;
                }
            }
            InternedNode::Always(f) => {
                let sat = child_sets(&caches, *f)?;
                let mut next: Option<BitSet> = None;
                for t in (0..layers).rev() {
                    let mut g = all_children_in(sys, t, next.as_ref(), true);
                    g.intersect_with(&sat[t]);
                    caches[t].insert(id, g.clone())?;
                    next = Some(g);
                }
            }
            InternedNode::Eventually(f) => {
                let sat = child_sets(&caches, *f)?;
                let mut next: Option<BitSet> = None;
                for t in (0..layers).rev() {
                    // φ now, or all futures reach it (no children ⇒ only "now").
                    let mut fset = all_children_in(sys, t, next.as_ref(), false);
                    fset.union_with(&sat[t]);
                    caches[t].insert(id, fset.clone())?;
                    next = Some(fset);
                }
            }
            InternedNode::Until(a, b) => {
                let sa = child_sets(&caches, *a)?;
                let sb = child_sets(&caches, *b)?;
                let mut next: Option<BitSet> = None;
                for t in (0..layers).rev() {
                    let mut u = all_children_in(sys, t, next.as_ref(), false);
                    u.intersect_with(&sa[t]);
                    u.union_with(&sb[t]);
                    caches[t].insert(id, u.clone())?;
                    next = Some(u);
                }
            }
            _ => {
                // Static node: the kernel evaluates it against each
                // layer's model; children are already cached, so the
                // recursion inside is at most one level deep.
                for (t, cache) in caches.iter_mut().enumerate() {
                    eval_static(t, cache, id)?;
                }
            }
        }
    }
    roots
        .iter()
        .map(|&r| child_sets(&caches, r))
        .collect::<Result<Vec<_>, EvalError>>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ActionId, ContextBuilder, EnvActionId, FnContext};
    use crate::protocol::LocalView;
    use crate::state::{GlobalState, Obs};
    use crate::system::{generate, Recall};
    use kbp_logic::{Agent, AgentSet, Vocabulary};

    /// Counter 0..=3, saturating; `done` at 3; agent sees the counter.
    fn counter_context() -> FnContext {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("counter");
        let done = voc.add_prop("done");
        ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["tick"])
            .transition(|s, _| s.with_reg(0, (s.reg(0) + 1).min(3)))
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(move |p, s| p == done && s.reg(0) == 3)
            .build()
    }

    fn p0() -> Formula {
        Formula::prop(kbp_logic::PropId::new(0))
    }

    #[test]
    fn eventually_done_holds_from_start() {
        let ctx = counter_context();
        let tick = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &tick, Recall::Perfect, 4).unwrap();
        let ev = Evaluator::new(&sys, &Formula::eventually(p0())).unwrap();
        assert!(ev.holds(Point { time: 0, node: 0 }));
        assert!(sys.holds_initially(&Formula::eventually(p0())).unwrap());
    }

    #[test]
    fn eventually_fails_if_horizon_too_short() {
        let ctx = counter_context();
        let tick = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &tick, Recall::Perfect, 2).unwrap();
        // Bounded semantics: the run ends at t=2 with counter 2.
        assert!(!sys.holds_initially(&Formula::eventually(p0())).unwrap());
    }

    #[test]
    fn always_and_next() {
        let ctx = counter_context();
        let tick = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &tick, Recall::Perfect, 4).unwrap();
        // From t=3 on, done holds forever (within the bound).
        let ev = Evaluator::new(&sys, &Formula::always(p0())).unwrap();
        assert!(ev.holds(Point { time: 3, node: 0 }));
        assert!(!ev.holds(Point { time: 0, node: 0 }));
        // Strong next: false at the last layer even for true operand.
        let nx = Evaluator::new(&sys, &Formula::next(Formula::True)).unwrap();
        assert!(nx.holds(Point { time: 0, node: 0 }));
        assert!(!nx.holds(Point { time: 4, node: 0 }));
    }

    #[test]
    fn until_semantics() {
        let ctx = counter_context();
        let tick = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &tick, Recall::Perfect, 4).unwrap();
        // (!done) U done holds initially.
        let u = Formula::until(Formula::not(p0()), p0());
        assert!(sys.holds_initially(&u).unwrap());
        // false U done still holds where done already holds.
        let u2 = Formula::until(Formula::False, p0());
        let ev = Evaluator::new(&sys, &u2).unwrap();
        assert!(ev.holds(Point { time: 3, node: 0 }));
        assert!(!ev.holds(Point { time: 0, node: 0 }));
    }

    /// Env may or may not ever set the flag; agent observes nothing.
    fn maybe_context() -> FnContext {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("watcher");
        let flag = voc.add_prop("flag");
        ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop"])
            .env_protocol(|s| {
                if s.reg(0) == 1 {
                    vec![EnvActionId(0)] // once set, stays
                } else {
                    vec![EnvActionId(0), EnvActionId(1)]
                }
            })
            .transition(|s, j| {
                if j.env == EnvActionId(1) {
                    s.with_reg(0, 1)
                } else {
                    s.clone()
                }
            })
            .observe(|_, _| Obs(0))
            .props(move |p, s| p == flag && s.reg(0) == 1)
            .build()
    }

    #[test]
    fn universal_path_quantification() {
        let ctx = maybe_context();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 3).unwrap();
        let root = Point { time: 0, node: 0 };
        // Not all futures set the flag.
        assert!(!sys.eval(root, &Formula::eventually(p0())).unwrap());
        // But some future does: ¬G¬flag.
        let possible = Formula::not(Formula::always(Formula::not(p0())));
        assert!(sys.eval(root, &possible).unwrap());
    }

    #[test]
    fn knowledge_of_the_future() {
        let ctx = counter_context();
        let tick = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &tick, Recall::Perfect, 4).unwrap();
        let a = Agent::new(0);
        // Deterministic context: the agent knows done is coming.
        let f = Formula::knows(a, Formula::eventually(p0()));
        assert!(sys.holds_initially(&f).unwrap());
    }

    #[test]
    fn ignorance_of_uncertain_future() {
        let ctx = maybe_context();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 3).unwrap();
        let a = Agent::new(0);
        let root = Point { time: 0, node: 0 };
        // The agent does not know the flag will be set...
        assert!(!sys
            .eval(root, &Formula::knows(a, Formula::eventually(p0())))
            .unwrap());
        // ...and does not know it never will (some future does set it).
        assert!(!sys
            .eval(
                root,
                &Formula::knows(a, Formula::always(Formula::not(p0())))
            )
            .unwrap());
        // Under universal path quantification, ¬(F flag) means "not all
        // futures set the flag", which the agent *does* know here.
        assert!(sys
            .eval(
                root,
                &Formula::knows(a, Formula::not(Formula::eventually(p0())))
            )
            .unwrap());
    }

    #[test]
    fn errors_propagate() {
        let ctx = counter_context();
        let tick = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &tick, Recall::Perfect, 1).unwrap();
        let bad = Formula::prop(kbp_logic::PropId::new(42));
        assert!(matches!(
            Evaluator::new(&sys, &bad),
            Err(EvalError::PropOutOfRange(_))
        ));
        let bad_agent = Formula::knows(Agent::new(5), Formula::True);
        assert!(matches!(
            Evaluator::new(&sys, &bad_agent),
            Err(EvalError::AgentOutOfRange(_))
        ));
        let empty = Formula::Common(AgentSet::EMPTY, Box::new(Formula::True));
        assert!(matches!(
            Evaluator::new(&sys, &empty),
            Err(EvalError::EmptyGroup)
        ));
    }
}
