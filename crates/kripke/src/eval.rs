//! Evaluation of epistemic formulas on S5 models.

use crate::bitset::BitSet;
use crate::model::{S5Model, WorldId};
use crate::partition::Partition;
use kbp_logic::{Agent, AgentSet, Formula, FormulaArena, FormulaId, InternedNode, PropId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced when a formula cannot be evaluated on a static model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The formula contains a temporal operator; static Kripke models have
    /// no notion of time (use the systems/mck crates for runs).
    Temporal,
    /// A proposition id exceeds the model's proposition count.
    PropOutOfRange(PropId),
    /// An agent id exceeds the model's agent count.
    AgentOutOfRange(Agent),
    /// A group modality was applied to the empty group.
    EmptyGroup,
    /// An [`EvalCache`] bound to a model with `cache_worlds` worlds was
    /// reused against a model with `model_worlds` worlds; call
    /// [`EvalCache::clear`] between layers.
    ModelMismatch {
        /// World count the cache is bound to.
        cache_worlds: usize,
        /// World count of the model the cache was offered to.
        model_worlds: usize,
    },
    /// A satisfaction set of length `got` was supplied to a semantic
    /// operator on a model with `expected` worlds.
    LengthMismatch {
        /// The model's world count.
        expected: usize,
        /// The supplied bitset's length.
        got: usize,
    },
    /// An internal invariant was violated; indicates a bug in this crate,
    /// never malformed input.
    Internal(&'static str),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Temporal => {
                write!(
                    f,
                    "temporal operators cannot be evaluated on a static model"
                )
            }
            EvalError::PropOutOfRange(p) => {
                write!(f, "proposition {p} is out of range for this model")
            }
            EvalError::AgentOutOfRange(a) => {
                write!(f, "agent {a} is out of range for this model")
            }
            EvalError::EmptyGroup => write!(f, "group modality applied to the empty group"),
            EvalError::ModelMismatch {
                cache_worlds,
                model_worlds,
            } => write!(
                f,
                "EvalCache bound to a {cache_worlds}-world model reused against a \
                 {model_worlds}-world model; call clear() between layers"
            ),
            EvalError::LengthMismatch { expected, got } => write!(
                f,
                "satisfaction set has {got} bits but the model has {expected} worlds"
            ),
            EvalError::Internal(what) => {
                write!(f, "internal evaluation invariant violated: {what}")
            }
        }
    }
}

impl Error for EvalError {}

/// Memo for repeated evaluation against **one** model (one time layer of
/// a generated system, say): satisfaction sets keyed by interned
/// [`FormulaId`], plus the group partitions backing `C_G` / `D_G`, which
/// are by far the most expensive per-layer artifacts.
///
/// The cache is bound to the first model it is used with (by world count;
/// reuse against a different-sized model is reported as
/// [`EvalError::ModelMismatch`]); call [`clear`](EvalCache::clear) before
/// moving to the next layer. Evaluating a batch of guards through one cache makes
/// every distinct subformula — a guard shared with its negation, a
/// repeated `knows_whether` disjunct, a group partition used by several
/// modalities — cost one evaluation instead of one per occurrence.
///
/// # Example
///
/// ```
/// use kbp_kripke::{EvalCache, S5Builder};
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
/// let guard = Formula::knows(a, p);
/// let mut arena = FormulaArena::new();
/// let yes = arena.intern(&guard);
/// let no = arena.intern(&Formula::not(guard));
///
/// let mut cache = EvalCache::new();
/// let sat = m.satisfying_cached(&mut cache, &arena, yes)?.clone();
/// // The negation reuses the cached K-evaluation.
/// let neg = m.satisfying_cached(&mut cache, &arena, no)?;
/// assert_eq!(*neg, sat.complemented());
/// # Ok::<(), kbp_kripke::EvalError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    worlds: Option<usize>,
    sat: HashMap<FormulaId, BitSet>,
    joins: HashMap<AgentSet, Partition>,
    refinements: HashMap<AgentSet, Partition>,
}

impl EvalCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// Drops all cached sets and partitions, unbinding the cache from its
    /// model so it can be reused for the next layer.
    pub fn clear(&mut self) {
        self.worlds = None;
        self.sat.clear();
        self.joins.clear();
        self.refinements.clear();
    }

    /// Number of distinct subformulas with a cached satisfaction set.
    #[must_use]
    pub fn cached_formulas(&self) -> usize {
        self.sat.len()
    }

    /// Number of cached group partitions (joins plus refinements).
    #[must_use]
    pub fn cached_partitions(&self) -> usize {
        self.joins.len() + self.refinements.len()
    }

    /// The cached satisfaction set of `id`, if already evaluated.
    #[must_use]
    pub fn get(&self, id: FormulaId) -> Option<&BitSet> {
        self.sat.get(&id)
    }

    /// Stores an externally computed satisfaction set for `id` (used by
    /// temporal evaluators, whose fixpoints the static kernel cannot
    /// compute). Later cached evaluation of any formula containing `id`
    /// short-circuits to this set.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::ModelMismatch`] or
    /// [`EvalError::LengthMismatch`] if `set`'s length disagrees with the
    /// model the cache is bound to.
    pub fn insert(&mut self, id: FormulaId, set: BitSet) -> Result<(), EvalError> {
        self.bind(set.len())?;
        self.sat.insert(id, set);
        Ok(())
    }

    /// A new cache whose satisfaction sets are this cache's sets mapped
    /// through a world renaming: bit `i` of each new set is bit
    /// `renaming[i]` of the old set. Cached partitions are *not* carried
    /// (they are cheap to rebuild and rarely needed after a carry).
    ///
    /// This is the cross-layer carry-forward step: when two layers are
    /// isomorphic as S5 models under `renaming` (new world `i` ≅ old world
    /// `renaming[i]`), satisfaction of every non-temporal formula is
    /// preserved pointwise, so the new cache is exactly the evaluation
    /// result on the new layer — no recomputation.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::ModelMismatch`] if `renaming`'s length differs
    /// from the bound world count, or [`EvalError::LengthMismatch`] if an
    /// entry indexes out of range. An unbound cache carries to an empty
    /// cache bound to `renaming.len()` worlds.
    pub fn carried_forward(&self, renaming: &[u32]) -> Result<EvalCache, EvalError> {
        if let Some(w) = self.worlds {
            if w != renaming.len() {
                return Err(EvalError::ModelMismatch {
                    cache_worlds: w,
                    model_worlds: renaming.len(),
                });
            }
        }
        let n = renaming.len();
        let mut out = EvalCache::new();
        out.worlds = Some(n);
        for (&id, set) in &self.sat {
            let mut mapped = BitSet::new(n);
            for (i, &j) in renaming.iter().enumerate() {
                if (j as usize) >= set.len() {
                    return Err(EvalError::LengthMismatch {
                        expected: set.len(),
                        got: j as usize,
                    });
                }
                if set.contains(j as usize) {
                    mapped.insert(i);
                }
            }
            out.sat.insert(id, mapped);
        }
        Ok(out)
    }

    /// Whether `id` already has a cached satisfaction set.
    pub(crate) fn has(&self, id: FormulaId) -> bool {
        self.sat.contains_key(&id)
    }

    /// Always `0`: the evaluation-time quotient this reported on is gone.
    /// Inert; kept only while the `kbpbench` benchmark names it.
    #[must_use]
    pub fn quotient_worlds(&self) -> usize {
        0
    }

    pub(crate) fn bind(&mut self, worlds: usize) -> Result<(), EvalError> {
        match self.worlds {
            None => {
                self.worlds = Some(worlds);
                Ok(())
            }
            Some(w) if w == worlds => Ok(()),
            Some(w) => Err(EvalError::ModelMismatch {
                cache_worlds: w,
                model_worlds: worlds,
            }),
        }
    }
}

impl S5Model {
    /// The set of worlds at which `formula` holds.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if the formula contains temporal operators,
    /// mentions out-of-range propositions or agents, or applies a group
    /// modality to an empty group.
    ///
    /// # Example
    ///
    /// ```
    /// use kbp_kripke::S5Builder;
    /// use kbp_logic::{Agent, Formula, PropId};
    ///
    /// let a = Agent::new(0);
    /// let p = PropId::new(0);
    /// let mut b = S5Builder::new(1, 1);
    /// let w0 = b.add_world([p]);
    /// let w1 = b.add_world([p]);
    /// b.link(a, w0, w1);
    /// let m = b.build();
    /// let sat = m.satisfying(&Formula::knows(a, Formula::prop(p)))?;
    /// assert_eq!(sat.count(), 2); // p holds in the whole cell
    /// # Ok::<(), kbp_kripke::EvalError>(())
    /// ```
    pub fn satisfying(&self, formula: &Formula) -> Result<BitSet, EvalError> {
        let n = self.world_count();
        match formula {
            Formula::True => Ok(BitSet::full(n)),
            Formula::False => Ok(BitSet::new(n)),
            Formula::Prop(p) => {
                if p.index() >= self.prop_count() {
                    return Err(EvalError::PropOutOfRange(*p));
                }
                Ok(self.prop_worlds(*p).clone())
            }
            Formula::Not(f) => Ok(self.satisfying(f)?.complemented()),
            Formula::And(items) => {
                let mut acc = BitSet::full(n);
                for f in items {
                    acc.intersect_with(&self.satisfying(f)?);
                }
                Ok(acc)
            }
            Formula::Or(items) => {
                let mut acc = BitSet::new(n);
                for f in items {
                    acc.union_with(&self.satisfying(f)?);
                }
                Ok(acc)
            }
            Formula::Implies(a, b) => {
                let mut acc = self.satisfying(a)?;
                acc.complement();
                acc.union_with(&self.satisfying(b)?);
                Ok(acc)
            }
            Formula::Iff(a, b) => {
                // a ↔ b is ¬(a ⊕ b): one XOR and one complement, in place.
                let mut acc = self.satisfying(a)?;
                acc.xor_with(&self.satisfying(b)?);
                acc.complement();
                Ok(acc)
            }
            Formula::Knows(agent, f) => {
                let sat = self.satisfying(f)?;
                self.knowing(*agent, &sat)
            }
            Formula::Everyone(group, f) => {
                let sat = self.satisfying(f)?;
                self.everyone_knowing(*group, &sat)
            }
            Formula::Common(group, f) => {
                let sat = self.satisfying(f)?;
                self.common_knowing(*group, &sat)
            }
            Formula::Distributed(group, f) => {
                let sat = self.satisfying(f)?;
                self.distributed_knowing(*group, &sat)
            }
            Formula::Next(_) | Formula::Eventually(_) | Formula::Always(_) | Formula::Until(..) => {
                Err(EvalError::Temporal)
            }
        }
    }

    /// Semantic `K_i`: the worlds whose whole `agent`-cell lies inside
    /// `sat`. This is the set-level counterpart of
    /// `satisfying(K_i φ)` for `sat = satisfying(φ)`; evaluators that
    /// compute their own satisfaction sets (e.g. the bounded-temporal
    /// evaluator of `kbp-systems`) call it directly.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::AgentOutOfRange`] or
    /// [`EvalError::LengthMismatch`] on misuse.
    pub fn knowing(&self, agent: Agent, sat: &BitSet) -> Result<BitSet, EvalError> {
        if agent.index() >= self.agent_count() {
            return Err(EvalError::AgentOutOfRange(agent));
        }
        self.check_len(sat)?;
        Ok(blocks_inside(self.partition(agent), sat))
    }

    /// Semantic `E_G`: worlds where every agent in `group` knows `sat`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::EmptyGroup`],
    /// [`EvalError::AgentOutOfRange`] or [`EvalError::LengthMismatch`] on
    /// misuse.
    pub fn everyone_knowing(&self, group: AgentSet, sat: &BitSet) -> Result<BitSet, EvalError> {
        self.check_group(group)?;
        self.check_len(sat)?;
        let mut acc = BitSet::full(self.world_count());
        for agent in group.iter() {
            acc.intersect_with(&self.knowing(agent, sat)?);
        }
        Ok(acc)
    }

    /// Semantic `C_G`: worlds whose whole `group`-connected component lies
    /// inside `sat`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`everyone_knowing`](Self::everyone_knowing).
    pub fn common_knowing(&self, group: AgentSet, sat: &BitSet) -> Result<BitSet, EvalError> {
        self.check_len(sat)?;
        Ok(blocks_inside(&self.group_join(group)?, sat))
    }

    /// Semantic `D_G`: worlds whose block in the common refinement of the
    /// group's partitions lies inside `sat`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`everyone_knowing`](Self::everyone_knowing).
    pub fn distributed_knowing(&self, group: AgentSet, sat: &BitSet) -> Result<BitSet, EvalError> {
        self.check_len(sat)?;
        Ok(blocks_inside(&self.group_refinement(group)?, sat))
    }

    fn check_len(&self, sat: &BitSet) -> Result<(), EvalError> {
        if sat.len() == self.world_count() {
            Ok(())
        } else {
            Err(EvalError::LengthMismatch {
                expected: self.world_count(),
                got: sat.len(),
            })
        }
    }

    fn check_group(&self, group: AgentSet) -> Result<(), EvalError> {
        if group.is_empty() {
            return Err(EvalError::EmptyGroup);
        }
        for a in group.iter() {
            if a.index() >= self.agent_count() {
                return Err(EvalError::AgentOutOfRange(a));
            }
        }
        Ok(())
    }

    /// The partition whose blocks are the `group`-connected components —
    /// the accessibility relation of common knowledge `C_G`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::EmptyGroup`] or
    /// [`EvalError::AgentOutOfRange`] on misuse.
    pub fn group_join(&self, group: AgentSet) -> Result<Partition, EvalError> {
        self.check_group(group)?;
        let mut it = group.iter();
        let Some(first) = it.next() else {
            return Err(EvalError::EmptyGroup);
        };
        let mut acc = self.partition(first).clone();
        for a in it {
            acc = acc.join_with(self.partition(a));
        }
        Ok(acc)
    }

    /// The common refinement of the group's partitions — the accessibility
    /// relation of distributed knowledge `D_G`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::EmptyGroup`] or
    /// [`EvalError::AgentOutOfRange`] on misuse.
    pub fn group_refinement(&self, group: AgentSet) -> Result<Partition, EvalError> {
        self.check_group(group)?;
        let mut it = group.iter();
        let Some(first) = it.next() else {
            return Err(EvalError::EmptyGroup);
        };
        let mut acc = self.partition(first).clone();
        for a in it {
            acc = acc.refine_with(self.partition(a));
        }
        Ok(acc)
    }

    /// Whether `formula` holds at `world`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`satisfying`](Self::satisfying).
    pub fn check(&self, world: WorldId, formula: &Formula) -> Result<bool, EvalError> {
        Ok(self.satisfying(formula)?.contains(world.index()))
    }

    /// Whether `formula` holds at every world of the model (validity in
    /// the model).
    ///
    /// # Errors
    ///
    /// Same conditions as [`satisfying`](Self::satisfying).
    pub fn holds_everywhere(&self, formula: &Formula) -> Result<bool, EvalError> {
        Ok(self.satisfying(formula)?.count() == self.world_count())
    }

    /// The set of worlds at which the interned formula `id` holds,
    /// memoizing every distinct subformula (and every group partition) in
    /// `cache`. Semantically identical to
    /// [`satisfying`](Self::satisfying)`(&arena.resolve(id))`, but a batch
    /// of related formulas evaluated through one cache costs one
    /// evaluation per *distinct* subformula instead of one per
    /// occurrence.
    ///
    /// The returned reference points into the cache; clone it if it must
    /// outlive later cache calls.
    ///
    /// # Errors
    ///
    /// Same conditions as [`satisfying`](Self::satisfying), plus
    /// [`EvalError::ModelMismatch`] if `cache` was previously used with a
    /// model of a different world count (call [`EvalCache::clear`]
    /// between layers).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from `arena`.
    pub fn satisfying_cached<'c>(
        &self,
        cache: &'c mut EvalCache,
        arena: &FormulaArena,
        id: FormulaId,
    ) -> Result<&'c BitSet, EvalError> {
        cache.bind(self.world_count())?;
        self.eval_into_cache(cache, arena, id)?;
        cache
            .sat
            .get(&id)
            .ok_or(EvalError::Internal("satisfaction set missing after eval"))
    }

    pub(crate) fn eval_into_cache(
        &self,
        cache: &mut EvalCache,
        arena: &FormulaArena,
        id: FormulaId,
    ) -> Result<(), EvalError> {
        if cache.sat.contains_key(&id) {
            return Ok(());
        }
        let n = self.world_count();
        let set = match arena.node(id) {
            InternedNode::True => BitSet::full(n),
            InternedNode::False => BitSet::new(n),
            InternedNode::Prop(p) => {
                if p.index() >= self.prop_count() {
                    return Err(EvalError::PropOutOfRange(*p));
                }
                self.prop_worlds(*p).clone()
            }
            InternedNode::Not(f) => {
                self.eval_into_cache(cache, arena, *f)?;
                let mut s = cache.sat[f].clone();
                s.complement();
                s
            }
            InternedNode::And(items) => {
                let mut acc = BitSet::full(n);
                for f in items {
                    self.eval_into_cache(cache, arena, *f)?;
                    acc.intersect_with(&cache.sat[f]);
                }
                acc
            }
            InternedNode::Or(items) => {
                let mut acc = BitSet::new(n);
                for f in items {
                    self.eval_into_cache(cache, arena, *f)?;
                    acc.union_with(&cache.sat[f]);
                }
                acc
            }
            InternedNode::Implies(a, b) => {
                self.eval_into_cache(cache, arena, *a)?;
                self.eval_into_cache(cache, arena, *b)?;
                let mut acc = cache.sat[a].clone();
                acc.complement();
                acc.union_with(&cache.sat[b]);
                acc
            }
            InternedNode::Iff(a, b) => {
                self.eval_into_cache(cache, arena, *a)?;
                self.eval_into_cache(cache, arena, *b)?;
                let mut acc = cache.sat[a].clone();
                acc.xor_with(&cache.sat[b]);
                acc.complement();
                acc
            }
            InternedNode::Knows(agent, f) => {
                self.eval_into_cache(cache, arena, *f)?;
                self.knowing(*agent, &cache.sat[f])?
            }
            InternedNode::Everyone(group, f) => {
                self.eval_into_cache(cache, arena, *f)?;
                self.everyone_knowing(*group, &cache.sat[f])?
            }
            InternedNode::Common(group, f) => {
                self.eval_into_cache(cache, arena, *f)?;
                // Disjoint field borrows: the join partition cache and
                // the satisfaction cache are separate maps.
                let part = match cache.joins.entry(*group) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(v) => v.insert(self.group_join(*group)?),
                };
                blocks_inside(part, &cache.sat[f])
            }
            InternedNode::Distributed(group, f) => {
                self.eval_into_cache(cache, arena, *f)?;
                let part = match cache.refinements.entry(*group) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(v) => v.insert(self.group_refinement(*group)?),
                };
                blocks_inside(part, &cache.sat[f])
            }
            InternedNode::Next(_)
            | InternedNode::Eventually(_)
            | InternedNode::Always(_)
            | InternedNode::Until(..) => return Err(EvalError::Temporal),
        };
        cache.sat.insert(id, set);
        Ok(())
    }

    /// [`common_knowing`](Self::common_knowing) with the group's joined
    /// partition memoized in `cache` — evaluators that query several
    /// formulas over one layer pay for each group's connected components
    /// once.
    ///
    /// # Errors
    ///
    /// Same conditions as [`common_knowing`](Self::common_knowing), plus
    /// [`EvalError::ModelMismatch`] for a cache bound to a different
    /// model.
    pub fn common_knowing_cached(
        &self,
        cache: &mut EvalCache,
        group: AgentSet,
        sat: &BitSet,
    ) -> Result<BitSet, EvalError> {
        self.check_len(sat)?;
        cache.bind(self.world_count())?;
        let part = match cache.joins.entry(group) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(self.group_join(group)?),
        };
        Ok(blocks_inside(part, sat))
    }

    /// [`distributed_knowing`](Self::distributed_knowing) with the
    /// group's refined partition memoized in `cache`.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`distributed_knowing`](Self::distributed_knowing), plus
    /// [`EvalError::ModelMismatch`] for a cache bound to a different
    /// model.
    pub fn distributed_knowing_cached(
        &self,
        cache: &mut EvalCache,
        group: AgentSet,
        sat: &BitSet,
    ) -> Result<BitSet, EvalError> {
        self.check_len(sat)?;
        cache.bind(self.world_count())?;
        let part = match cache.refinements.entry(group) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(self.group_refinement(group)?),
        };
        Ok(blocks_inside(part, sat))
    }
}

/// Worlds whose whole block (in `partition`) is inside `sat` — the
/// set-level kernel behind `K_i` / `C_G` / `D_G`.
///
/// Word-level: one pass over the *complement* of `sat` (only set bits of
/// `!word` are visited) marks every block with a member outside `sat`;
/// the surviving blocks are then emitted with direct word stores. Cost is
/// `O(words + misses + |output|)` instead of a bounds-checked per-bit
/// query for every world of every block.
///
/// # Panics
///
/// Panics if `partition.len() != sat.len()`.
#[must_use]
pub fn blocks_inside(partition: &Partition, sat: &BitSet) -> BitSet {
    assert_eq!(partition.len(), sat.len(), "universe size mismatch");
    let n = sat.len();
    let block_ids = partition.block_ids();
    let mut bad = vec![false; partition.block_count()];
    let words = sat.words();
    for (wi, &word) in words.iter().enumerate() {
        let mut miss = !word;
        if (wi + 1) * 64 > n {
            // Mask off the padding beyond the universe in the last word.
            miss &= u64::MAX >> (words.len() * 64 - n);
        }
        while miss != 0 {
            let w = wi * 64 + miss.trailing_zeros() as usize;
            bad[block_ids[w] as usize] = true;
            miss &= miss - 1;
        }
    }
    let mut out = BitSet::new(n);
    let out_words = out.words_mut();
    for (b, block) in partition.blocks().enumerate() {
        if !bad[b] {
            for &w in block {
                out_words[(w >> 6) as usize] |= 1u64 << (w & 63);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::S5Builder;

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    /// Two agents, three worlds: p true in w0,w1; q true in w1 only.
    /// Agent 0 can't distinguish w0/w1; agent 1 can't distinguish w1/w2.
    fn sample() -> (S5Model, [WorldId; 3]) {
        let mut b = S5Builder::new(2, 2);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0), PropId::new(1)]);
        let w2 = b.add_world([]);
        b.link(Agent::new(0), w0, w1);
        b.link(Agent::new(1), w1, w2);
        (b.build(), [w0, w1, w2])
    }

    #[test]
    fn propositional_connectives() {
        let (m, [w0, w1, w2]) = sample();
        assert!(m.check(w0, &p(0)).unwrap());
        assert!(!m.check(w2, &p(0)).unwrap());
        assert!(m.check(w1, &Formula::and([p(0), p(1)])).unwrap());
        assert!(m.check(w2, &Formula::not(p(0))).unwrap());
        assert!(m.check(w2, &Formula::implies(p(0), p(1))).unwrap());
        assert!(m.check(w1, &Formula::iff(p(0), p(1))).unwrap());
        assert!(m.check(w2, &Formula::iff(p(0), p(1))).unwrap());
        assert!(!m.check(w0, &Formula::iff(p(0), p(1))).unwrap());
    }

    #[test]
    fn knowledge_quantifies_over_cells() {
        let (m, [w0, w1, w2]) = sample();
        let a0 = Agent::new(0);
        let a1 = Agent::new(1);
        // Agent 0's cell at w0 is {w0,w1}: p holds at both.
        assert!(m.check(w0, &Formula::knows(a0, p(0))).unwrap());
        // But q holds only at w1, so agent 0 does not know q at w1.
        assert!(!m.check(w1, &Formula::knows(a0, p(1))).unwrap());
        // Agent 1's cell at w1 is {w1,w2}: p fails at w2.
        assert!(!m.check(w1, &Formula::knows(a1, p(0))).unwrap());
        // At w0, agent 1's cell is {w0}: knows everything true there.
        assert!(m.check(w0, &Formula::knows(a1, p(0))).unwrap());
        assert!(!m.check(w2, &Formula::knows(a1, p(0))).unwrap());
    }

    #[test]
    fn s5_validities_hold() {
        let (m, _) = sample();
        let a = Agent::new(0);
        // T: K p -> p
        let t = Formula::implies(Formula::knows(a, p(0)), p(0));
        assert!(m.holds_everywhere(&t).unwrap());
        // 4: K p -> K K p
        let four = Formula::implies(
            Formula::knows(a, p(0)),
            Formula::knows(a, Formula::knows(a, p(0))),
        );
        assert!(m.holds_everywhere(&four).unwrap());
        // 5: !K p -> K !K p
        let five = Formula::implies(
            Formula::not(Formula::knows(a, p(0))),
            Formula::knows(a, Formula::not(Formula::knows(a, p(0)))),
        );
        assert!(m.holds_everywhere(&five).unwrap());
    }

    #[test]
    fn everyone_is_conjunction_of_knows() {
        let (m, _) = sample();
        let g = AgentSet::all(2);
        let e = Formula::Everyone(g, Box::new(p(0)));
        let conj = Formula::and([
            Formula::knows(Agent::new(0), p(0)),
            Formula::knows(Agent::new(1), p(0)),
        ]);
        assert_eq!(m.satisfying(&e).unwrap(), m.satisfying(&conj).unwrap());
    }

    #[test]
    fn common_knowledge_uses_components() {
        let (m, [w0, _, _]) = sample();
        let g = AgentSet::all(2);
        // The whole model is one {0,1}-component (w0~0 w1~1 w2), and p
        // fails at w2, so C p holds nowhere.
        assert!(m.satisfying(&Formula::common(g, p(0))).unwrap().is_empty());
        // C true holds everywhere.
        assert!(m.check(w0, &Formula::common(g, Formula::True)).unwrap());
    }

    #[test]
    fn common_knowledge_entails_everyone_chain() {
        let (m, _) = sample();
        let g = AgentSet::all(2);
        // C p -> E E p is S5-valid; check on the model.
        let f = Formula::implies(
            Formula::common(g, p(0)),
            Formula::Everyone(g, Box::new(Formula::Everyone(g, Box::new(p(0))))),
        );
        assert!(m.holds_everywhere(&f).unwrap());
    }

    #[test]
    fn distributed_knowledge_pools_information() {
        let (m, [w0, w1, w2]) = sample();
        let g = AgentSet::all(2);
        // Intersection of the partitions is discrete: {w0},{w1},{w2}.
        // So D_G q holds exactly where q holds.
        let d = Formula::Distributed(g, Box::new(p(1)));
        assert!(!m.check(w0, &d).unwrap());
        assert!(m.check(w1, &d).unwrap());
        assert!(!m.check(w2, &d).unwrap());
        // Neither agent alone knows q at w1.
        assert!(!m.check(w1, &Formula::knows(Agent::new(0), p(1))).unwrap());
        assert!(!m.check(w1, &Formula::knows(Agent::new(1), p(1))).unwrap());
    }

    #[test]
    fn everyone_knowing_rejects_empty_group_up_front() {
        let (m, _) = sample();
        let full = BitSet::full(m.world_count());
        // The group check fires before any per-agent work is attempted.
        assert_eq!(
            m.everyone_knowing(AgentSet::EMPTY, &full),
            Err(EvalError::EmptyGroup)
        );
    }

    #[test]
    fn semantic_operators_reject_wrong_length() {
        let (m, _) = sample();
        let short = BitSet::full(1);
        let err = EvalError::LengthMismatch {
            expected: m.world_count(),
            got: 1,
        };
        assert_eq!(m.knowing(Agent::new(0), &short), Err(err.clone()));
        let g = AgentSet::all(2);
        assert_eq!(m.everyone_knowing(g, &short), Err(err.clone()));
        assert_eq!(m.common_knowing(g, &short), Err(err.clone()));
        assert_eq!(m.distributed_knowing(g, &short), Err(err));
    }

    #[test]
    fn cached_evaluation_matches_plain() {
        let (m, _) = sample();
        let g = AgentSet::all(2);
        let formulas = [
            Formula::iff(p(0), p(1)),
            Formula::implies(Formula::knows(Agent::new(0), p(0)), p(1)),
            Formula::common(g, p(0)),
            Formula::Distributed(g, Box::new(p(1))),
            Formula::Everyone(g, Box::new(Formula::Everyone(g, Box::new(p(0))))),
            Formula::not(Formula::common(g, Formula::or([p(0), p(1)]))),
        ];
        let mut arena = FormulaArena::new();
        let ids: Vec<_> = formulas.iter().map(|f| arena.intern(f)).collect();
        let mut cache = EvalCache::new();
        for (f, id) in formulas.iter().zip(ids) {
            let plain = m.satisfying(f).unwrap();
            let cached = m.satisfying_cached(&mut cache, &arena, id).unwrap();
            assert_eq!(*cached, plain, "mismatch for {f}");
        }
        // Both group modalities over `g` hit the same memoized partitions.
        assert_eq!(cache.cached_partitions(), 2);
        assert!(cache.cached_formulas() >= formulas.len());
    }

    #[test]
    fn cached_evaluation_reports_errors() {
        let (m, _) = sample();
        let mut arena = FormulaArena::new();
        let cases = [
            (Formula::eventually(p(0)), EvalError::Temporal),
            (p(9), EvalError::PropOutOfRange(PropId::new(9))),
            (
                Formula::knows(Agent::new(9), p(0)),
                EvalError::AgentOutOfRange(Agent::new(9)),
            ),
            (
                Formula::Common(AgentSet::EMPTY, Box::new(p(0))),
                EvalError::EmptyGroup,
            ),
        ];
        for (f, err) in cases {
            let id = arena.intern(&f);
            let mut cache = EvalCache::new();
            assert_eq!(
                m.satisfying_cached(&mut cache, &arena, id).unwrap_err(),
                err
            );
        }
    }

    #[test]
    fn cache_rejects_model_of_different_size() {
        let (m, _) = sample();
        let mut small = S5Builder::new(1, 1);
        small.add_world([]);
        let m2 = small.build();
        let mut arena = FormulaArena::new();
        let id = arena.intern(&Formula::True);
        let mut cache = EvalCache::new();
        m.satisfying_cached(&mut cache, &arena, id).unwrap();
        assert_eq!(
            m2.satisfying_cached(&mut cache, &arena, id),
            Err(EvalError::ModelMismatch {
                cache_worlds: m.world_count(),
                model_worlds: m2.world_count(),
            })
        );
        // After clearing, the cache rebinds to the new model.
        cache.clear();
        assert!(m2.satisfying_cached(&mut cache, &arena, id).is_ok());
    }

    #[test]
    fn errors_are_reported() {
        let (m, _) = sample();
        assert_eq!(
            m.satisfying(&Formula::eventually(p(0))),
            Err(EvalError::Temporal)
        );
        assert_eq!(
            m.satisfying(&p(9)),
            Err(EvalError::PropOutOfRange(PropId::new(9)))
        );
        assert_eq!(
            m.satisfying(&Formula::knows(Agent::new(9), p(0))),
            Err(EvalError::AgentOutOfRange(Agent::new(9)))
        );
        assert_eq!(
            m.satisfying(&Formula::Common(AgentSet::EMPTY, Box::new(p(0)))),
            Err(EvalError::EmptyGroup)
        );
    }
}
