//! Hash-consed formula interning.
//!
//! A [`FormulaArena`] assigns every structurally distinct (sub)formula a
//! dense [`FormulaId`]; interning a formula interns its whole subtree, so
//! repeated subformulas — a guard and its negation, a `knows_whether`
//! disjunction mentioning the same proposition twice, the shared body of
//! `E_G E_G φ` — collapse to a single node. Evaluators keyed on
//! `FormulaId` (see `kbp_kripke::EvalCache`) then compute each distinct
//! subformula once per model instead of once per syntactic occurrence.
//!
//! Ids are issued in postorder: every node's children have strictly
//! smaller ids, so a pass over `0..len()` visits children before parents.
//!
//! # Example
//!
//! ```
//! use kbp_logic::{Formula, FormulaArena, PropId};
//!
//! let p = Formula::prop(PropId::new(0));
//! let f = Formula::and([p.clone(), Formula::not(p.clone())]);
//!
//! let mut arena = FormulaArena::new();
//! let id = arena.intern(&f);
//! // `p` occurs twice but is stored once; the arena holds p, ¬p, and
//! // the conjunction — three nodes.
//! assert_eq!(arena.len(), 3);
//! assert_eq!(arena.resolve(id), f);
//! ```

use crate::agents::{Agent, AgentSet};
use crate::formula::{Formula, PropId};
use std::collections::HashMap;

/// Identifier of an interned formula inside a [`FormulaArena`].
///
/// Ids are only meaningful relative to the arena that issued them; mixing
/// ids across arenas is a logic error (detected by the range assertion in
/// [`FormulaArena::node`] at best).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FormulaId(u32);

impl FormulaId {
    /// The dense index of this id (`0..arena.len()`).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned formula node: the [`Formula`] shape with child subtrees
/// replaced by [`FormulaId`]s into the same arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InternedNode {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// An atomic proposition.
    Prop(PropId),
    /// Negation.
    Not(FormulaId),
    /// N-ary conjunction.
    And(Vec<FormulaId>),
    /// N-ary disjunction.
    Or(Vec<FormulaId>),
    /// Material implication.
    Implies(FormulaId, FormulaId),
    /// Biconditional.
    Iff(FormulaId, FormulaId),
    /// `K_i φ`.
    Knows(Agent, FormulaId),
    /// `E_G φ`.
    Everyone(AgentSet, FormulaId),
    /// `C_G φ`.
    Common(AgentSet, FormulaId),
    /// `D_G φ`.
    Distributed(AgentSet, FormulaId),
    /// `X φ`.
    Next(FormulaId),
    /// `F φ`.
    Eventually(FormulaId),
    /// `G φ`.
    Always(FormulaId),
    /// `φ U ψ`.
    Until(FormulaId, FormulaId),
}

/// A hash-consing arena of formulas.
///
/// Interning is structural: two formulas that are `==` as ASTs receive the
/// same [`FormulaId`], whether they arrive as subtrees of one formula or
/// as separately interned formulas. The arena only grows; reuse one arena
/// for a whole batch of related formulas (all the guards of a program, all
/// the subformulas of a specification) to maximize sharing.
#[derive(Debug, Clone, Default)]
pub struct FormulaArena {
    nodes: Vec<InternedNode>,
    index: HashMap<InternedNode, FormulaId>,
}

impl FormulaArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        FormulaArena::default()
    }

    /// Number of distinct nodes interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all issued ids in postorder (children before
    /// parents).
    pub fn ids(&self) -> impl Iterator<Item = FormulaId> {
        (0..self.nodes.len() as u32).map(FormulaId)
    }

    /// Interns `formula` and its whole subtree, returning the root id.
    ///
    /// Interning the same structure twice returns the same id and adds no
    /// nodes.
    pub fn intern(&mut self, formula: &Formula) -> FormulaId {
        let node = match formula {
            Formula::True => InternedNode::True,
            Formula::False => InternedNode::False,
            Formula::Prop(p) => InternedNode::Prop(*p),
            Formula::Not(f) => InternedNode::Not(self.intern(f)),
            Formula::And(items) => {
                InternedNode::And(items.iter().map(|f| self.intern(f)).collect())
            }
            Formula::Or(items) => InternedNode::Or(items.iter().map(|f| self.intern(f)).collect()),
            Formula::Implies(a, b) => InternedNode::Implies(self.intern(a), self.intern(b)),
            Formula::Iff(a, b) => InternedNode::Iff(self.intern(a), self.intern(b)),
            Formula::Knows(i, f) => InternedNode::Knows(*i, self.intern(f)),
            Formula::Everyone(g, f) => InternedNode::Everyone(*g, self.intern(f)),
            Formula::Common(g, f) => InternedNode::Common(*g, self.intern(f)),
            Formula::Distributed(g, f) => InternedNode::Distributed(*g, self.intern(f)),
            Formula::Next(f) => InternedNode::Next(self.intern(f)),
            Formula::Eventually(f) => InternedNode::Eventually(self.intern(f)),
            Formula::Always(f) => InternedNode::Always(self.intern(f)),
            Formula::Until(a, b) => InternedNode::Until(self.intern(a), self.intern(b)),
        };
        self.add(node)
    }

    fn add(&mut self, node: InternedNode) -> FormulaId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        // 2^32 distinct nodes cannot be interned before memory is
        // exhausted (each costs tens of bytes); if the count somehow
        // saturates, stop growing and alias to the final node rather than
        // panicking.
        let Ok(raw) = u32::try_from(self.nodes.len()) else {
            return FormulaId(u32::MAX);
        };
        let id = FormulaId(raw);
        self.nodes.push(node.clone());
        self.index.insert(node, id);
        id
    }

    /// The node behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    #[must_use]
    pub fn node(&self, id: FormulaId) -> &InternedNode {
        &self.nodes[id.index()]
    }

    /// Calls `visit` on each direct child id of `id`, in syntactic order.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    pub fn visit_children(&self, id: FormulaId, visit: &mut dyn FnMut(FormulaId)) {
        match self.node(id) {
            InternedNode::True | InternedNode::False | InternedNode::Prop(_) => {}
            InternedNode::Not(f)
            | InternedNode::Knows(_, f)
            | InternedNode::Everyone(_, f)
            | InternedNode::Common(_, f)
            | InternedNode::Distributed(_, f)
            | InternedNode::Next(f)
            | InternedNode::Eventually(f)
            | InternedNode::Always(f) => visit(*f),
            InternedNode::And(items) | InternedNode::Or(items) => {
                for f in items {
                    visit(*f);
                }
            }
            InternedNode::Implies(a, b) | InternedNode::Iff(a, b) | InternedNode::Until(a, b) => {
                visit(*a);
                visit(*b);
            }
        }
    }

    /// All ids reachable from `roots` (the roots and their transitive
    /// subformulas), in postorder: children always precede parents.
    ///
    /// Because ids are issued postorder (children strictly smaller), the
    /// result is simply the reachable subset of `0..len()` in ascending
    /// order. Evaluators use this to walk exactly the formulas a batch of
    /// roots needs, even when the arena holds unrelated nodes.
    ///
    /// # Panics
    ///
    /// Panics if any root was not issued by this arena.
    #[must_use]
    pub fn reachable(&self, roots: &[FormulaId]) -> Vec<FormulaId> {
        let mut marked = vec![false; self.nodes.len()];
        let mut stack: Vec<FormulaId> = Vec::new();
        for &root in roots {
            // Range-check here so the panic contract is at the API edge.
            assert!(root.index() < self.nodes.len(), "foreign FormulaId");
            stack.push(root);
        }
        while let Some(id) = stack.pop() {
            if marked[id.index()] {
                continue;
            }
            marked[id.index()] = true;
            self.visit_children(id, &mut |c| stack.push(c));
        }
        marked
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| FormulaId(i as u32))
            .collect()
    }

    /// Reconstructs the exact [`Formula`] AST behind `id` (structural
    /// inverse of [`intern`](Self::intern); no smart-constructor
    /// simplification is applied).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    #[must_use]
    pub fn resolve(&self, id: FormulaId) -> Formula {
        let b = |f: &FormulaId| Box::new(self.resolve(*f));
        match self.node(id) {
            InternedNode::True => Formula::True,
            InternedNode::False => Formula::False,
            InternedNode::Prop(p) => Formula::Prop(*p),
            InternedNode::Not(f) => Formula::Not(b(f)),
            InternedNode::And(items) => {
                Formula::And(items.iter().map(|f| self.resolve(*f)).collect())
            }
            InternedNode::Or(items) => {
                Formula::Or(items.iter().map(|f| self.resolve(*f)).collect())
            }
            InternedNode::Implies(x, y) => Formula::Implies(b(x), b(y)),
            InternedNode::Iff(x, y) => Formula::Iff(b(x), b(y)),
            InternedNode::Knows(i, f) => Formula::Knows(*i, b(f)),
            InternedNode::Everyone(g, f) => Formula::Everyone(*g, b(f)),
            InternedNode::Common(g, f) => Formula::Common(*g, b(f)),
            InternedNode::Distributed(g, f) => Formula::Distributed(*g, b(f)),
            InternedNode::Next(f) => Formula::Next(b(f)),
            InternedNode::Eventually(f) => Formula::Eventually(b(f)),
            InternedNode::Always(f) => Formula::Always(b(f)),
            InternedNode::Until(x, y) => Formula::Until(b(x), b(y)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_formula, FormulaConfig, SplitMix64};

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    #[test]
    fn shared_subtrees_collapse() {
        let mut arena = FormulaArena::new();
        let guard = Formula::knows(Agent::new(0), p(0));
        let id1 = arena.intern(&guard);
        let id2 = arena.intern(&Formula::not(guard.clone()));
        // ¬(K p) contains K p: interning it adds only the Not node.
        assert_eq!(arena.len(), 3); // p, K p, ¬K p
        assert_eq!(arena.node(id2), &InternedNode::Not(id1));
        // Re-interning is a no-op returning the same id.
        assert_eq!(arena.intern(&guard), id1);
        assert_eq!(arena.len(), 3);
    }

    #[test]
    fn children_precede_parents() {
        let mut arena = FormulaArena::new();
        let f = Formula::iff(
            Formula::and([p(0), p(1)]),
            Formula::or([p(0), Formula::not(p(1))]),
        );
        let root = arena.intern(&f);
        assert_eq!(root.index(), arena.len() - 1);
        for id in arena.ids() {
            let ok = match arena.node(id) {
                InternedNode::True | InternedNode::False | InternedNode::Prop(_) => true,
                InternedNode::Not(f)
                | InternedNode::Knows(_, f)
                | InternedNode::Everyone(_, f)
                | InternedNode::Common(_, f)
                | InternedNode::Distributed(_, f)
                | InternedNode::Next(f)
                | InternedNode::Eventually(f)
                | InternedNode::Always(f) => f.index() < id.index(),
                InternedNode::And(items) | InternedNode::Or(items) => {
                    items.iter().all(|f| f.index() < id.index())
                }
                InternedNode::Implies(a, b)
                | InternedNode::Iff(a, b)
                | InternedNode::Until(a, b) => a.index() < id.index() && b.index() < id.index(),
            };
            assert!(ok, "child id >= parent id at {id:?}");
        }
    }

    #[test]
    fn resolve_roundtrips_random_formulas() {
        let mut rng = SplitMix64::new(0xFEED);
        let cfg = FormulaConfig {
            temporal: true,
            ..FormulaConfig::default()
        };
        let mut arena = FormulaArena::new();
        for _ in 0..200 {
            let f = random_formula(&mut rng, &cfg);
            let id = arena.intern(&f);
            assert_eq!(arena.resolve(id), f);
        }
    }

    #[test]
    fn reachable_is_postorder_and_restricted_to_roots() {
        let mut arena = FormulaArena::new();
        let shared = Formula::knows(Agent::new(0), p(0));
        let a = arena.intern(&Formula::not(shared.clone()));
        let _unrelated = arena.intern(&p(7));
        let b = arena.intern(&Formula::and([shared, p(1)]));
        let reach = arena.reachable(&[a, b]);
        // Children precede parents.
        for (pos, &id) in reach.iter().enumerate() {
            arena.visit_children(id, &mut |c| {
                assert!(reach[..pos].contains(&c), "child {c:?} after parent");
            });
        }
        // The unrelated proposition is not visited.
        assert!(!reach.contains(&_unrelated));
        assert!(reach.contains(&a) && reach.contains(&b));
        // p0, K p0, ¬K p0, p1, (K p0 ∧ p1)
        assert_eq!(reach.len(), 5);
        // Empty roots reach nothing.
        assert!(arena.reachable(&[]).is_empty());
    }

    #[test]
    fn distinct_structures_get_distinct_ids() {
        let mut arena = FormulaArena::new();
        let a = arena.intern(&Formula::Implies(Box::new(p(0)), Box::new(p(1))));
        let b = arena.intern(&Formula::Implies(Box::new(p(1)), Box::new(p(0))));
        assert_ne!(a, b);
        // Modal wrapper identity distinguishes agents and groups.
        let k0 = arena.intern(&Formula::knows(Agent::new(0), p(0)));
        let k1 = arena.intern(&Formula::knows(Agent::new(1), p(0)));
        assert_ne!(k0, k1);
    }
}
