//! The shared evaluation engine.
//!
//! Every satisfaction-set computation in the workspace — solver guards,
//! enumerator branch tests, bounded-temporal layer evaluation, CTLK model
//! checking — is the same operation: walk an interned [`FormulaArena`] in
//! postorder over one S5 layer, memoizing each distinct subformula in an
//! [`EvalCache`]. [`EvalEngine`] packages that walk behind a stable API so
//! all consumers share one arena (one interning pass, maximal subformula
//! sharing) and one kernel (the word-level partition routines of this
//! crate).
//!
//! The walk is sequential: one postorder pass per batch of roots.
//!
//! **Temporal hooks** ([`TemporalOps`] / [`EvalEngine::populate_temporal`]):
//! the static kernel cannot evaluate `X/F/G/U`; a consumer that can
//! (backward induction in `kbp-systems`, CTL fixpoints in `kbp-mck`)
//! supplies the four set-level operators and the engine drives the
//! postorder walk, memoizing temporal results per [`FormulaId`] like any
//! other node.

use crate::bitset::BitSet;
use crate::eval::{EvalCache, EvalError};
use crate::model::S5Model;
use kbp_logic::{Formula, FormulaArena, FormulaId, InternedNode};
use std::convert::Infallible;

/// Set-level temporal operators, supplied by evaluators that have a
/// notion of time (bounded layers, an explored state graph, …).
///
/// Each operator maps the satisfaction set(s) of the subformula(s) to the
/// satisfaction set of the temporal formula **on the same model**. The
/// engine calls them during [`EvalEngine::populate_temporal`]'s postorder
/// walk, so arguments are always fully evaluated.
pub trait TemporalOps {
    /// Satisfaction set of `X φ` given that of `φ`.
    fn next(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `F φ` given that of `φ`.
    fn eventually(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `G φ` given that of `φ`.
    fn always(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `φ U ψ` given those of `φ` and `ψ`.
    fn until(&self, hold: &BitSet, target: &BitSet) -> BitSet;
}

/// The unified arena-based evaluator.
///
/// Owns the [`FormulaArena`] for a whole run (a solve, an enumeration, a
/// model-checking session). Per-layer state lives in the caller's
/// [`EvalCache`]s, so one engine serves any number of layers/models.
///
/// # Example
///
/// ```
/// use kbp_kripke::{EvalCache, EvalEngine, S5Builder};
/// use kbp_logic::{Agent, Formula, FormulaArena, PropId};
///
/// let a = Agent::new(0);
/// let p = Formula::prop(PropId::new(0));
/// let mut b = S5Builder::new(1, 1);
/// let w0 = b.add_world([PropId::new(0)]);
/// let w1 = b.add_world([]);
/// b.link(a, w0, w1);
/// let m = b.build();
///
/// let mut engine = EvalEngine::new(FormulaArena::new());
/// let yes = engine.intern(&Formula::knows(a, p.clone()));
/// let no = engine.intern(&Formula::not(Formula::knows(a, p)));
///
/// let mut cache = EvalCache::new();
/// let sets = engine.satisfying_sets(&m, &mut cache, &[yes, no])?;
/// assert_eq!(sets[1], sets[0].complemented());
/// # Ok::<(), kbp_kripke::EvalError>(())
/// ```
#[derive(Debug)]
pub struct EvalEngine {
    arena: FormulaArena,
}

impl EvalEngine {
    /// Wraps `arena`.
    #[must_use]
    pub fn new(arena: FormulaArena) -> Self {
        EvalEngine { arena }
    }

    /// Same as [`new`](Self::new); never fails. Inert; kept only while
    /// the `kbpbench` benchmark names it.
    ///
    /// # Errors
    ///
    /// None: the engine reads no environment variable.
    pub fn from_env(arena: FormulaArena) -> Result<Self, Infallible> {
        Ok(Self::new(arena))
    }

    /// The engine's arena.
    #[must_use]
    pub fn arena(&self) -> &FormulaArena {
        &self.arena
    }

    /// Interns `formula` into the engine's arena.
    pub fn intern(&mut self, formula: &Formula) -> FormulaId {
        self.arena.intern(formula)
    }

    /// Fills `cache` with the satisfaction sets of `roots` (and all their
    /// subformulas) on `model`, in one postorder walk. Already-cached
    /// formulas are not recomputed: a seeded entry is authoritative.
    ///
    /// # Errors
    ///
    /// Same conditions as [`S5Model::satisfying_cached`]; on error the
    /// cache retains the entries filled so far (all of them valid).
    pub fn populate(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<(), EvalError> {
        cache.bind(model.world_count())?;
        for &id in roots {
            model.eval_into_cache(cache, &self.arena, id)?;
        }
        Ok(())
    }

    /// Same as [`populate`](Self::populate). Inert; kept only while the
    /// `kbpbench` benchmark names it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`populate`](Self::populate).
    pub fn populate_prereduced(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<(), EvalError> {
        self.populate(model, cache, roots)
    }

    /// Like [`populate`](Self::populate), but accepts temporal operators:
    /// `X/F/G/U` nodes are computed from their (already evaluated)
    /// children via `ops` and memoized in `cache` like any other node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`S5Model::satisfying_cached`] (minus
    /// [`EvalError::Temporal`], which this walk handles).
    pub fn populate_temporal(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
        ops: &dyn TemporalOps,
    ) -> Result<(), EvalError> {
        cache.bind(model.world_count())?;
        for id in self.arena.reachable(roots) {
            if cache.has(id) {
                continue;
            }
            let missing = EvalError::Internal("postorder child missing from cache");
            let set = match self.arena.node(id) {
                InternedNode::Next(f) => ops.next(cache.get(*f).ok_or(missing)?),
                InternedNode::Eventually(f) => ops.eventually(cache.get(*f).ok_or(missing)?),
                InternedNode::Always(f) => ops.always(cache.get(*f).ok_or(missing)?),
                InternedNode::Until(a, b) => ops.until(
                    cache.get(*a).ok_or(missing.clone())?,
                    cache.get(*b).ok_or(missing)?,
                ),
                _ => {
                    // Non-temporal: children are cached, so this recurses
                    // at most one level before hitting the memo.
                    model.eval_into_cache(cache, &self.arena, id)?;
                    continue;
                }
            };
            cache.insert(id, set)?;
        }
        Ok(())
    }

    /// [`populate`](Self::populate) followed by cloning out the root sets,
    /// in root order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`populate`](Self::populate).
    pub fn satisfying_sets(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<Vec<BitSet>, EvalError> {
        self.populate(model, cache, roots)?;
        roots
            .iter()
            .map(|&r| {
                cache
                    .get(r)
                    .cloned()
                    .ok_or(EvalError::Internal("root missing after populate"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::S5Builder;
    use kbp_logic::{Agent, AgentSet, PropId};

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    fn model() -> S5Model {
        let mut b = S5Builder::new(2, 3);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0), PropId::new(1)]);
        let w2 = b.add_world([PropId::new(2)]);
        let w3 = b.add_world([]);
        b.link(Agent::new(0), w0, w1);
        b.link(Agent::new(1), w1, w2);
        b.link(Agent::new(0), w2, w3);
        b.build()
    }

    fn guards() -> Vec<Formula> {
        let g = AgentSet::all(2);
        vec![
            Formula::knows(Agent::new(0), p(0)),
            Formula::not(Formula::knows(Agent::new(0), p(0))),
            Formula::common(g, Formula::or([p(0), p(2)])),
            Formula::Distributed(g, Box::new(p(1))),
            Formula::implies(p(2), Formula::knows(Agent::new(1), p(2))),
            Formula::iff(p(0), p(1)),
        ]
    }

    #[test]
    fn populate_respects_existing_cache_entries() {
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new());
        let ids: Vec<_> = guards().iter().map(|f| engine.intern(f)).collect();
        let mut cache = EvalCache::new();
        // Pre-seed a shared subformula with a *wrong* value; populate must
        // treat it as authoritative (the carry-forward contract).
        let k = engine.intern(&Formula::knows(Agent::new(0), p(0)));
        cache.insert(k, BitSet::full(m.world_count())).unwrap();
        engine.populate(&m, &mut cache, &ids).unwrap();
        // ¬K₀p₀ was computed from the seeded set, proving the seed was
        // read rather than recomputed.
        let neg = engine.intern(&Formula::not(Formula::knows(Agent::new(0), p(0))));
        assert!(cache.get(neg).unwrap().is_empty());
    }

    #[test]
    fn eval_errors_propagate() {
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new());
        let bad = engine.intern(&Formula::knows(Agent::new(9), p(0)));
        let ok = engine.intern(&p(0));
        let mut cache = EvalCache::new();
        assert_eq!(
            engine.populate(&m, &mut cache, &[ok, bad]),
            Err(EvalError::AgentOutOfRange(Agent::new(9)))
        );
    }

    #[test]
    fn temporal_walk_uses_ops_and_memoizes() {
        struct Const(BitSet);
        impl TemporalOps for Const {
            fn next(&self, _: &BitSet) -> BitSet {
                self.0.clone()
            }
            fn eventually(&self, phi: &BitSet) -> BitSet {
                phi.clone()
            }
            fn always(&self, phi: &BitSet) -> BitSet {
                phi.clone()
            }
            fn until(&self, _: &BitSet, target: &BitSet) -> BitSet {
                target.clone()
            }
        }
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new());
        // ¬X p0 — the Not must read the ops-computed X node.
        let root = engine.intern(&Formula::not(Formula::next(p(0))));
        let marker = BitSet::from_indices(m.world_count(), [1usize, 3]);
        let ops = Const(marker.clone());
        let mut cache = EvalCache::new();
        engine
            .populate_temporal(&m, &mut cache, &[root], &ops)
            .unwrap();
        assert_eq!(*cache.get(root).unwrap(), marker.complemented());
    }
}
