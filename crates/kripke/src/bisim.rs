//! Bisimulation quotienting of S5 models.
//!
//! Two worlds are *bisimilar* when they satisfy the same propositions and,
//! for every agent, their information cells contain bisimilar worlds
//! (S5 partitions make the usual back-and-forth conditions symmetric).
//! Quotienting by bisimilarity yields the smallest model satisfying
//! exactly the same formulas at corresponding worlds — useful to keep
//! iterated announcement/update pipelines from blowing up, and
//! quotient-first generation (DESIGN.md §17) relies on it to unroll a
//! system on class representatives.
//!
//! The refinement kernel here is *exact* hash-signature partition
//! refinement: colours are folded through an open-addressing
//! [`PairMap`](crate::partition) whose probes compare full 64-bit keys,
//! so "hash" collisions can never merge distinct signatures — the chain
//! encoding is injective and the result is the true maximal
//! bisimulation, not an approximation.

use crate::bitset::BitSet;
use crate::eval::EvalError;
use crate::model::{S5Model, WorldId};
use crate::partition::{PairMap, Partition, UnionFind};
use kbp_logic::{Agent, PropId};

/// The result of quotienting a model by bisimilarity.
#[derive(Debug, Clone)]
pub struct Quotient {
    model: S5Model,
    class_of: Vec<WorldId>,
}

impl Quotient {
    /// The quotient model.
    #[must_use]
    pub fn model(&self) -> &S5Model {
        &self.model
    }

    /// Consumes the quotient, returning the model.
    #[must_use]
    pub fn into_model(self) -> S5Model {
        self.model
    }

    /// The quotient world corresponding to an original world, or `None`
    /// if `old` is out of range for the original model.
    #[must_use]
    pub fn class_of(&self, old: WorldId) -> Option<WorldId> {
        self.class_of.get(old.index()).copied()
    }
}

/// One stage of signature refinement against a single equivalence
/// relation: split every colour class by the *set* of colours visible in
/// each element's cell. The per-cell colour set is folded into a dense id
/// by chaining sorted, deduplicated colours through a [`PairMap`]; start
/// links are tagged with bit 63 and carry the set length, so the chain
/// encoding is injective (dense accumulator ids stay far below 2^31).
fn refine_stage(colour: &mut Vec<u32>, count: &mut usize, rel: &Partition) {
    let n = colour.len();
    let nb = rel.block_count();
    let mut set_of_block = vec![0u32; nb];
    let mut chain = PairMap::for_inserts(n.max(nb));
    let mut scratch: Vec<u32> = Vec::new();
    for (b, members) in rel.blocks().enumerate() {
        scratch.clear();
        scratch.extend(members.iter().map(|&w| colour[w as usize]));
        scratch.sort_unstable();
        scratch.dedup();
        debug_assert!(!scratch.is_empty(), "partition blocks are non-empty");
        let Some(&first) = scratch.first() else {
            continue;
        };
        let start = (1u64 << 63) | ((scratch.len() as u64) << 32) | u64::from(first);
        let mut acc = chain.get_or_insert_with(start, |id| id);
        for &c in &scratch[1..] {
            acc = chain.get_or_insert_with((u64::from(acc) << 32) | u64::from(c), |id| id);
        }
        set_of_block[b] = acc;
    }
    // Split by (old colour, cell colour-set); including the old colour in
    // the key makes every stage a refinement, so class counts are
    // monotone non-decreasing and count equality across a full round of
    // relations certifies stability with respect to every one of them.
    let mut map = PairMap::for_inserts(n);
    let ids = rel.block_ids();
    let mut next = vec![0u32; n];
    for (w, slot) in next.iter_mut().enumerate() {
        let key = (u64::from(colour[w]) << 32) | u64::from(set_of_block[ids[w] as usize]);
        *slot = map.get_or_insert_with(key, |id| id);
    }
    *colour = next;
    *count = map.len();
}

/// Refines `colour` by one boolean splitter given as raw bitset words
/// (bit `w` = membership of world `w`).
fn split_by_bits(colour: &mut Vec<u32>, count: &mut usize, words: &[u64]) {
    let n = colour.len();
    let mut map = PairMap::for_inserts((*count * 2).min(n));
    let mut next = vec![0u32; n];
    for (w, slot) in next.iter_mut().enumerate() {
        let bit = (words[w >> 6] >> (w & 63)) & 1;
        let key = (u64::from(colour[w]) << 1) | bit;
        *slot = map.get_or_insert_with(key, |id| id);
    }
    *colour = next;
    *count = map.len();
}

/// Refines `colour` by an existing partition (used to fold a previous
/// class partition into the initial split when a quotient is rebuilt).
fn split_by_partition(colour: &mut Vec<u32>, count: &mut usize, split: &Partition) {
    let n = colour.len();
    let mut map = PairMap::for_inserts(n);
    let ids = split.block_ids();
    let mut next = vec![0u32; n];
    for (w, slot) in next.iter_mut().enumerate() {
        let key = (u64::from(colour[w]) << 32) | u64::from(ids[w]);
        *slot = map.get_or_insert_with(key, |id| id);
    }
    *colour = next;
    *count = map.len();
}

/// The exact partition-refinement kernel behind [`S5Model::bisimilarity`].
///
/// Initial split: `props` (the evaluation vocabulary), then `splits`
/// (partitions folded in wholesale). Rounds then refine against every
/// agent partition in `relations` until a full round leaves the class
/// count unchanged.
fn refine_bisim(
    model: &S5Model,
    props: &[PropId],
    splits: &[&Partition],
    relations: &[&Partition],
) -> Partition {
    let n = model.world_count();
    if n == 0 {
        return Partition::discrete(0);
    }
    let mut colour: Vec<u32> = vec![0; n];
    let mut count: usize = 1;
    for &p in props {
        split_by_bits(&mut colour, &mut count, model.prop_worlds(p).words());
        if count == n {
            return Partition::discrete(n);
        }
    }
    for split in splits {
        split_by_partition(&mut colour, &mut count, split);
        if count == n {
            return Partition::discrete(n);
        }
    }
    loop {
        let before = count;
        for rel in relations {
            refine_stage(&mut colour, &mut count, rel);
            if count == n {
                return Partition::discrete(n);
            }
        }
        if count == before {
            break;
        }
    }
    Partition::from_dense_labels(colour, count)
}

impl S5Model {
    /// Computes the partition of worlds into maximal bisimilarity classes.
    ///
    /// Runs exact hash-signature partition refinement: start from
    /// valuation equality over the full proposition vocabulary and
    /// repeatedly split classes whose members see different sets of
    /// classes in some agent's cell, until stable.
    #[must_use]
    pub fn bisimilarity(&self) -> Partition {
        let props: Vec<PropId> = (0..self.prop_count())
            .map(|p| PropId::new(p as u32))
            .collect();
        let relations: Vec<&Partition> = (0..self.agent_count())
            .map(|a| self.partition(Agent::new(a)))
            .collect();
        refine_bisim(self, &props, &[], &relations)
    }

    /// Vocabulary-aware bisimilarity: like [`S5Model::bisimilarity`], but
    /// the initial split uses only `props` (the propositions that occur in
    /// the formulas about to be evaluated), plus `splits` partitions that
    /// must come out class-constant.
    ///
    /// Worlds merged by the resulting partition agree on every formula
    /// built from `props` with `K`/`E_G`/`C_G` modalities.
    ///
    /// # Errors
    ///
    /// [`EvalError::PropOutOfRange`] if a prop exceeds the model's
    /// vocabulary; [`EvalError::LengthMismatch`] if a split is not sized
    /// to this model's universe.
    pub fn bisimilarity_within(
        &self,
        props: &[PropId],
        splits: &[&Partition],
    ) -> Result<Partition, EvalError> {
        let n = self.world_count();
        for &p in props {
            if p.index() >= self.prop_count() {
                return Err(EvalError::PropOutOfRange(p));
            }
        }
        for part in splits {
            if part.len() != n {
                return Err(EvalError::LengthMismatch {
                    expected: n,
                    got: part.len(),
                });
            }
        }
        let agents: Vec<&Partition> = (0..self.agent_count())
            .map(|a| self.partition(Agent::new(a)))
            .collect();
        Ok(refine_bisim(self, props, splits, &agents))
    }

    /// Packages a class partition as a [`Quotient`]: the quotient model
    /// (block representatives carry the valuation; two classes are
    /// agent-linked iff some members are linked, closed transitively per
    /// explicit cell in near-linear time) plus the world projection.
    pub(crate) fn quotient_from(&self, classes: &Partition) -> Quotient {
        let n_new = classes.block_count();
        let valuation = (0..self.prop_count())
            .map(|p| {
                BitSet::from_indices(
                    n_new,
                    (0..n_new).filter(|&b| {
                        let rep = classes.block(b)[0] as usize;
                        self.prop_holds(WorldId::new(rep), PropId::new(p as u32))
                    }),
                )
            })
            .collect();
        let partitions = (0..self.agent_count())
            .map(|a| {
                let mut uf = UnionFind::new(n_new);
                for cell in self.partition(Agent::new(a)).blocks() {
                    let first = classes.block_of(cell[0] as usize);
                    for &v in &cell[1..] {
                        uf.union(first, classes.block_of(v as usize));
                    }
                }
                uf.into_partition()
            })
            .collect();
        let model = S5Model::from_parts(self.prop_count(), valuation, partitions, n_new);
        let class_of = (0..self.world_count())
            .map(|w| WorldId::new(classes.block_of(w)))
            .collect();
        Quotient { model, class_of }
    }

    /// Quotients the model by bisimilarity, returning the reduced model and
    /// the mapping from old worlds to their classes.
    ///
    /// The quotient satisfies the same epistemic formulas: for every world
    /// `w` and formula `φ`, `self, w ⊨ φ` iff `quotient, class_of(w) ⊨ φ`.
    ///
    /// # Example
    ///
    /// ```
    /// use kbp_kripke::S5Builder;
    /// use kbp_logic::PropId;
    ///
    /// let p = PropId::new(0);
    /// let mut b = S5Builder::new(1, 1);
    /// let w0 = b.add_world([p]);
    /// let w1 = b.add_world([p]); // duplicate of w0
    /// let m = b.build();
    /// let q = m.quotient();
    /// assert_eq!(q.model().world_count(), 1);
    /// assert_eq!(q.class_of(w0), q.class_of(w1));
    /// assert!(q.class_of(w0).is_some());
    /// ```
    #[must_use]
    pub fn quotient(&self) -> Quotient {
        let part = self.bisimilarity();
        self.quotient_from(&part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::S5Builder;
    use kbp_logic::random::{random_formula, FormulaConfig, RandomSource, SplitMix64};
    use kbp_logic::{Agent, AgentSet, Formula};

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    #[test]
    fn duplicate_worlds_collapse() {
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0)]);
        let w2 = b.add_world([]);
        b.link(a, w0, w2);
        b.link(a, w1, w2);
        let m = b.build();
        let q = m.quotient();
        assert_eq!(q.model().world_count(), 2);
        assert_eq!(q.class_of(w0), q.class_of(w1));
        assert_ne!(q.class_of(w0), q.class_of(w2));
    }

    #[test]
    fn different_valuations_do_not_collapse() {
        let mut b = S5Builder::new(1, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([]);
        let m = b.build();
        let q = m.quotient();
        assert_ne!(q.class_of(w0), q.class_of(w1));
        assert_eq!(q.model().world_count(), 2);
    }

    #[test]
    fn out_of_range_world_maps_to_none() {
        let mut b = S5Builder::new(1, 1);
        b.add_world([PropId::new(0)]);
        let m = b.build();
        let q = m.quotient();
        assert!(q.class_of(WorldId::new(0)).is_some());
        assert!(q.class_of(WorldId::new(7)).is_none());
    }

    #[test]
    fn epistemic_structure_distinguishes_worlds() {
        // w0: agent's cell is {w0}; w1: cell is {w1, w2} with w2 differing
        // in valuation. Same valuation at w0, w1 — but different knowledge.
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0)]);
        let w2 = b.add_world([]);
        b.link(a, w1, w2);
        let m = b.build();
        let q = m.quotient();
        assert_ne!(q.class_of(w0), q.class_of(w1));
        // Knowledge is preserved: agent knows p at w0, not at w1.
        let kp = Formula::knows(a, p(0));
        assert!(q.model().check(q.class_of(w0).unwrap(), &kp).unwrap());
        assert!(!q.model().check(q.class_of(w1).unwrap(), &kp).unwrap());
    }

    #[test]
    fn quotient_preserves_random_formulas() {
        let mut rng = SplitMix64::new(20240706);
        // Model: 6 worlds, 2 agents, 2 props with some sharing.
        let mut b = S5Builder::new(2, 2);
        let mut ws = Vec::new();
        for i in 0..6u32 {
            let mut props = Vec::new();
            if i % 2 == 0 {
                props.push(PropId::new(0));
            }
            if i < 3 {
                props.push(PropId::new(1));
            }
            ws.push(b.add_world(props));
        }
        b.link(Agent::new(0), ws[0], ws[2]);
        b.link(Agent::new(0), ws[1], ws[3]);
        b.link(Agent::new(1), ws[2], ws[4]);
        b.link(Agent::new(1), ws[3], ws[5]);
        let m = b.build();
        let q = m.quotient();
        let cfg = FormulaConfig {
            props: 2,
            agents: 2,
            max_depth: 5,
            temporal: false,
            groups: true,
        };
        for _ in 0..120 {
            let f = random_formula(&mut rng, &cfg);
            for &w in &ws {
                let orig = m.check(w, &f).unwrap();
                let quot = q.model().check(q.class_of(w).unwrap(), &f).unwrap();
                assert_eq!(orig, quot, "formula {f} differs at {w}");
            }
        }
    }

    #[test]
    fn quotient_is_idempotent() {
        let mut b = S5Builder::new(2, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0)]);
        let w2 = b.add_world([]);
        b.link(Agent::new(0), w0, w1);
        b.link(Agent::new(1), w1, w2);
        let m = b.build();
        let q1 = m.quotient().into_model();
        let q2 = q1.quotient().into_model();
        assert_eq!(q1.world_count(), q2.world_count());
    }

    #[test]
    fn common_knowledge_survives_quotient() {
        let g = AgentSet::all(2);
        let mut b = S5Builder::new(2, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0)]);
        b.link(Agent::new(0), w0, w1);
        let m = b.build();
        let f = Formula::common(g, p(0));
        let q = m.quotient();
        assert_eq!(
            m.check(w0, &f).unwrap(),
            q.model().check(q.class_of(w0).unwrap(), &f).unwrap()
        );
    }

    #[test]
    fn vocabulary_restricted_bisimilarity_merges_irrelevant_props() {
        // Two worlds differ only in prop 1; with vocabulary {prop 0} they
        // are bisimilar, with the full vocabulary they are not.
        let mut b = S5Builder::new(1, 2);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0), PropId::new(1)]);
        b.link(Agent::new(0), w0, w1);
        let m = b.build();
        let narrow = m.bisimilarity_within(&[PropId::new(0)], &[]).unwrap();
        assert_eq!(narrow.block_count(), 1);
        assert_eq!(m.bisimilarity().block_count(), 2);
    }

    #[test]
    fn splits_stay_class_constant() {
        let mut b = S5Builder::new(1, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0)]);
        let w2 = b.add_world([PropId::new(0)]);
        b.link(Agent::new(0), w0, w1);
        b.link(Agent::new(0), w1, w2);
        let m = b.build();
        // Without extras every world merges.
        let free = m.bisimilarity_within(&[PropId::new(0)], &[]).unwrap();
        assert_eq!(free.block_count(), 1);
        // A split partition is refined, never coarsened.
        let split = Partition::from_keys(3, |w| usize::from(w == 1));
        let split_part = m.bisimilarity_within(&[], &[&split]).unwrap();
        assert!(!split_part.same_block(w0.index(), w1.index()));
        assert!(split_part.same_block(w0.index(), w2.index()));
    }

    #[test]
    fn bisimilarity_within_validates_inputs() {
        let mut b = S5Builder::new(1, 1);
        b.add_world([PropId::new(0)]);
        let m = b.build();
        assert!(matches!(
            m.bisimilarity_within(&[PropId::new(9)], &[]),
            Err(EvalError::PropOutOfRange(_))
        ));
        let wrong = Partition::discrete(5);
        assert!(matches!(
            m.bisimilarity_within(&[], &[&wrong]),
            Err(EvalError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn fast_kernel_matches_reference_on_random_models() {
        // Reference: the naive signature loop the kernel replaced.
        fn reference(m: &S5Model) -> Partition {
            use std::collections::BTreeSet;
            let n = m.world_count();
            let mut part = Partition::from_keys(n, |w| {
                (0..m.prop_count())
                    .map(|p| m.prop_holds(WorldId::new(w), PropId::new(p as u32)))
                    .collect::<Vec<bool>>()
            });
            loop {
                let next = Partition::from_keys(n, |w| {
                    let mut sig: Vec<usize> = vec![part.block_of(w)];
                    for a in 0..m.agent_count() {
                        let cell = m.cell(Agent::new(a), WorldId::new(w));
                        let classes: BTreeSet<usize> =
                            cell.iter().map(|&v| part.block_of(v as usize)).collect();
                        sig.push(classes.len());
                        sig.extend(classes);
                        sig.push(usize::MAX);
                    }
                    sig
                });
                if next.block_count() == part.block_count() {
                    return next;
                }
                part = next;
            }
        }
        let mut rng = SplitMix64::new(0xb151);
        for round in 0..40 {
            let worlds = 1 + (rng.next_u64() % 12) as usize;
            let agents = 1 + (rng.next_u64() % 3) as usize;
            let props = 1 + (rng.next_u64() % 3) as usize;
            let mut b = S5Builder::new(agents, props);
            let mut ws = Vec::new();
            for _ in 0..worlds {
                let mask = rng.next_u64();
                let held = (0..props)
                    .filter(|&p| mask & (1 << p) != 0)
                    .map(|p| PropId::new(p as u32));
                ws.push(b.add_world(held));
            }
            for _ in 0..worlds * 2 {
                let a = Agent::new((rng.next_u64() % agents as u64) as usize);
                let x = ws[(rng.next_u64() % worlds as u64) as usize];
                let y = ws[(rng.next_u64() % worlds as u64) as usize];
                b.link(a, x, y);
            }
            let m = b.build();
            let fast = m.bisimilarity();
            let slow = reference(&m);
            assert_eq!(
                fast, slow,
                "kernel diverged from reference in round {round}"
            );
        }
    }
}
