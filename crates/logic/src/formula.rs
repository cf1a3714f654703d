//! The epistemic–temporal formula AST.

use crate::agents::{Agent, AgentSet};
use crate::vocabulary::Vocabulary;
use std::fmt;

/// A proposition identifier, a dense index assigned by a
/// [`Vocabulary`](crate::Vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PropId(u32);

impl PropId {
    /// Creates a proposition id from a raw index.
    #[must_use]
    pub fn new(index: u32) -> Self {
        PropId(index)
    }

    /// The dense index of this proposition.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PropId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A formula of epistemic–temporal logic.
///
/// The propositional fragment is `True`, `False`, [`Prop`](Formula::Prop)
/// and the usual connectives (with n-ary conjunction and disjunction). The
/// epistemic modalities are `K_i` ([`Knows`](Formula::Knows)), `E_G`
/// ([`Everyone`](Formula::Everyone)), `C_G` ([`Common`](Formula::Common))
/// and `D_G` ([`Distributed`](Formula::Distributed)). The linear-time
/// operators [`Next`](Formula::Next), [`Eventually`](Formula::Eventually),
/// [`Always`](Formula::Always) and [`Until`](Formula::Until) speak about the
/// rest of a run.
///
/// Prefer the smart constructors ([`Formula::and`], [`Formula::not`], …)
/// over building variants directly: they flatten and simplify trivial cases
/// so structural tests stay predictable.
///
/// # Example
///
/// ```
/// use kbp_logic::{Formula, PropId, Agent};
///
/// let p = Formula::prop(PropId::new(0));
/// let f = Formula::and([p.clone(), Formula::True]);
/// assert_eq!(f, p); // `and` drops neutral elements
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// An atomic proposition.
    Prop(PropId),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction (invariant: `len >= 2` when built via [`Formula::and`]).
    And(Vec<Formula>),
    /// N-ary disjunction (invariant: `len >= 2` when built via [`Formula::or`]).
    Or(Vec<Formula>),
    /// Material implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Biconditional.
    Iff(Box<Formula>, Box<Formula>),
    /// `K_i φ` — agent `i` knows `φ`.
    Knows(Agent, Box<Formula>),
    /// `E_G φ` — every agent in `G` knows `φ`.
    Everyone(AgentSet, Box<Formula>),
    /// `C_G φ` — `φ` is common knowledge among `G`.
    Common(AgentSet, Box<Formula>),
    /// `D_G φ` — `φ` is distributed knowledge among `G`.
    Distributed(AgentSet, Box<Formula>),
    /// `X φ` — `φ` holds at the next point of the run.
    Next(Box<Formula>),
    /// `F φ` — `φ` holds at some present-or-future point of the run.
    Eventually(Box<Formula>),
    /// `G φ` — `φ` holds at every present-or-future point of the run.
    Always(Box<Formula>),
    /// `φ U ψ` — `ψ` eventually holds and `φ` holds until then.
    Until(Box<Formula>, Box<Formula>),
}

impl Formula {
    // ---- constructors ------------------------------------------------

    /// An atomic proposition.
    #[must_use]
    pub fn prop(p: PropId) -> Formula {
        Formula::Prop(p)
    }

    /// Negation, collapsing double negations and constants.
    ///
    /// (A static constructor by design, like the other connectives — not
    /// the `std::ops::Not` trait method.)
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Conjunction; flattens nested `And`s, drops `true`, and
    /// short-circuits on `false`.
    #[must_use]
    pub fn and<I: IntoIterator<Item = Formula>>(conjuncts: I) -> Formula {
        let mut out = Vec::new();
        for c in conjuncts {
            match c {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(items) => out.extend(items),
                other => out.push(other),
            }
        }
        match (out.pop(), out.is_empty()) {
            (None, _) => Formula::True,
            (Some(single), true) => single,
            (Some(last), false) => {
                out.push(last);
                Formula::And(out)
            }
        }
    }

    /// Disjunction; flattens nested `Or`s, drops `false`, and
    /// short-circuits on `true`.
    #[must_use]
    pub fn or<I: IntoIterator<Item = Formula>>(disjuncts: I) -> Formula {
        let mut out = Vec::new();
        for d in disjuncts {
            match d {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(items) => out.extend(items),
                other => out.push(other),
            }
        }
        match (out.pop(), out.is_empty()) {
            (None, _) => Formula::False,
            (Some(single), true) => single,
            (Some(last), false) => {
                out.push(last);
                Formula::Or(out)
            }
        }
    }

    /// Material implication `a -> b`, simplifying constant antecedents and
    /// consequents.
    #[must_use]
    pub fn implies(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::True, b) => b,
            (Formula::False, _) => Formula::True,
            (_, Formula::True) => Formula::True,
            (a, Formula::False) => Formula::not(a),
            (a, b) => Formula::Implies(Box::new(a), Box::new(b)),
        }
    }

    /// Biconditional `a <-> b`, simplifying constants.
    #[must_use]
    pub fn iff(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::True, b) => b,
            (a, Formula::True) => a,
            (Formula::False, b) => Formula::not(b),
            (a, Formula::False) => Formula::not(a),
            (a, b) => Formula::Iff(Box::new(a), Box::new(b)),
        }
    }

    /// `K_i φ` — knowledge of a single agent.
    #[must_use]
    pub fn knows(agent: Agent, f: Formula) -> Formula {
        Formula::Knows(agent, Box::new(f))
    }

    /// `¬K_i ¬φ` — agent `i` considers `φ` possible.
    #[must_use]
    pub fn possible(agent: Agent, f: Formula) -> Formula {
        Formula::not(Formula::knows(agent, Formula::not(f)))
    }

    /// `K_i φ ∨ K_i ¬φ` — agent `i` knows whether `φ`.
    #[must_use]
    pub fn knows_whether(agent: Agent, f: Formula) -> Formula {
        Formula::or([
            Formula::knows(agent, f.clone()),
            Formula::knows(agent, Formula::not(f)),
        ])
    }

    /// `E_G φ`. A singleton group reduces to `K_i φ`.
    #[must_use]
    pub fn everyone(group: AgentSet, f: Formula) -> Formula {
        match (group.len(), group.iter().next()) {
            (1, Some(solo)) => Formula::knows(solo, f),
            _ => Formula::Everyone(group, Box::new(f)),
        }
    }

    /// `C_G φ`.
    #[must_use]
    pub fn common(group: AgentSet, f: Formula) -> Formula {
        Formula::Common(group, Box::new(f))
    }

    /// `D_G φ`. A singleton group reduces to `K_i φ`.
    #[must_use]
    pub fn distributed(group: AgentSet, f: Formula) -> Formula {
        match (group.len(), group.iter().next()) {
            (1, Some(solo)) => Formula::knows(solo, f),
            _ => Formula::Distributed(group, Box::new(f)),
        }
    }

    /// `X φ`.
    #[must_use]
    pub fn next(f: Formula) -> Formula {
        Formula::Next(Box::new(f))
    }

    /// `F φ`.
    #[must_use]
    pub fn eventually(f: Formula) -> Formula {
        Formula::Eventually(Box::new(f))
    }

    /// `G φ`.
    #[must_use]
    pub fn always(f: Formula) -> Formula {
        Formula::Always(Box::new(f))
    }

    /// `φ U ψ`.
    #[must_use]
    pub fn until(a: Formula, b: Formula) -> Formula {
        Formula::Until(Box::new(a), Box::new(b))
    }

    // ---- structural queries -------------------------------------------

    /// Direct subformulas, left to right.
    #[must_use]
    pub fn children(&self) -> Vec<&Formula> {
        match self {
            Formula::True | Formula::False | Formula::Prop(_) => Vec::new(),
            Formula::Not(f)
            | Formula::Knows(_, f)
            | Formula::Everyone(_, f)
            | Formula::Common(_, f)
            | Formula::Distributed(_, f)
            | Formula::Next(f)
            | Formula::Eventually(f)
            | Formula::Always(f) => vec![f],
            Formula::And(items) | Formula::Or(items) => items.iter().collect(),
            Formula::Implies(a, b) | Formula::Iff(a, b) | Formula::Until(a, b) => {
                vec![a, b]
            }
        }
    }

    /// Iterates over all subformulas (including `self`), pre-order.
    #[must_use]
    pub fn subformulas(&self) -> SubformulaIter<'_> {
        SubformulaIter { stack: vec![self] }
    }

    /// Number of connectives, modalities and atoms in the formula.
    #[must_use]
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Height of the syntax tree (an atom has depth 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Agents mentioned at this node only (not in subformulas).
    #[must_use]
    pub fn top_agents(&self) -> AgentSet {
        match self {
            Formula::Knows(a, _) => AgentSet::singleton(*a),
            Formula::Everyone(g, _) | Formula::Common(g, _) | Formula::Distributed(g, _) => *g,
            _ => AgentSet::EMPTY,
        }
    }

    /// All agents mentioned anywhere in the formula.
    #[must_use]
    pub fn agents(&self) -> AgentSet {
        self.subformulas()
            .fold(AgentSet::EMPTY, |acc, f| acc.union(f.top_agents()))
    }

    /// All propositions mentioned anywhere in the formula, sorted and
    /// deduplicated.
    #[must_use]
    pub fn props(&self) -> Vec<PropId> {
        let mut out: Vec<PropId> = self
            .subformulas()
            .filter_map(|f| match f {
                Formula::Prop(p) => Some(*p),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the formula contains no modal operator at all — it speaks
    /// only about the current global state ("objective" in the KBP
    /// literature).
    #[must_use]
    pub fn is_objective(&self) -> bool {
        self.subformulas().all(|f| {
            !matches!(
                f,
                Formula::Knows(..)
                    | Formula::Everyone(..)
                    | Formula::Common(..)
                    | Formula::Distributed(..)
                    | Formula::Next(..)
                    | Formula::Eventually(..)
                    | Formula::Always(..)
                    | Formula::Until(..)
            )
        })
    }

    /// Whether the formula contains a temporal operator anywhere.
    #[must_use]
    pub fn has_temporal(&self) -> bool {
        self.subformulas().any(|f| {
            matches!(
                f,
                Formula::Next(..)
                    | Formula::Eventually(..)
                    | Formula::Always(..)
                    | Formula::Until(..)
            )
        })
    }

    /// Whether the formula contains an epistemic operator anywhere.
    #[must_use]
    pub fn has_epistemic(&self) -> bool {
        self.subformulas().any(|f| {
            matches!(
                f,
                Formula::Knows(..)
                    | Formula::Everyone(..)
                    | Formula::Common(..)
                    | Formula::Distributed(..)
            )
        })
    }

    /// Maximum nesting depth of epistemic operators (`0` for a purely
    /// propositional/temporal formula).
    #[must_use]
    pub fn modal_depth(&self) -> usize {
        let child_max = self
            .children()
            .iter()
            .map(|c| c.modal_depth())
            .max()
            .unwrap_or(0);
        match self {
            Formula::Knows(..)
            | Formula::Everyone(..)
            | Formula::Common(..)
            | Formula::Distributed(..) => child_max + 1,
            _ => child_max,
        }
    }

    /// Whether the truth of the formula at a point is determined by agent
    /// `i`'s local state alone (FHMV call such tests "local to `i`").
    ///
    /// This is the syntactic check used when validating a knowledge-based
    /// program: a formula is `i`-subjective if it is a Boolean combination
    /// of formulas of the form `K_i ψ` and `C_G ψ` with `i ∈ G` (both are
    /// semantically determined by `i`'s local state in an S5 system).
    ///
    /// Bare propositions are rejected; use
    /// [`is_subjective_for_with`](Self::is_subjective_for_with) to allow
    /// propositions known to be local to the agent.
    #[must_use]
    pub fn is_subjective_for(&self, agent: Agent) -> bool {
        self.is_subjective_for_with(agent, |_| false)
    }

    /// Like [`is_subjective_for`](Self::is_subjective_for), additionally
    /// accepting any proposition for which `is_local_prop` returns `true`
    /// (e.g. a proposition whose valuation is a function of the agent's
    /// local state).
    pub fn is_subjective_for_with(
        &self,
        agent: Agent,
        is_local_prop: impl Fn(PropId) -> bool + Copy,
    ) -> bool {
        match self {
            Formula::True | Formula::False => true,
            Formula::Prop(p) => is_local_prop(*p),
            Formula::Not(f) => f.is_subjective_for_with(agent, is_local_prop),
            Formula::And(items) | Formula::Or(items) => items
                .iter()
                .all(|f| f.is_subjective_for_with(agent, is_local_prop)),
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                a.is_subjective_for_with(agent, is_local_prop)
                    && b.is_subjective_for_with(agent, is_local_prop)
            }
            Formula::Knows(a, _) => *a == agent,
            Formula::Common(g, _) => g.contains(agent),
            // E_G and D_G for non-singleton G are not determined by a single
            // agent's local state; singletons are normalised to K by the
            // smart constructors but handle raw variants conservatively.
            Formula::Everyone(g, _) | Formula::Distributed(g, _) => {
                g.len() == 1 && g.contains(agent)
            }
            Formula::Next(_) | Formula::Eventually(_) | Formula::Always(_) | Formula::Until(..) => {
                false
            }
        }
    }

    /// Whether every temporal operator occurs *inside* some epistemic
    /// operator or not at all — i.e. the formula's truth at `(r, m)` is a
    /// Boolean combination of current-state facts and knowledge facts.
    ///
    /// Knowledge-based-program guards must have their temporal operators
    /// under a `K`; a bare top-level `F p` is not a meaningful guard.
    #[must_use]
    pub fn temporal_under_epistemic(&self) -> bool {
        fn go(f: &Formula) -> bool {
            match f {
                Formula::Next(_)
                | Formula::Eventually(_)
                | Formula::Always(_)
                | Formula::Until(..) => false,
                Formula::Knows(..)
                | Formula::Everyone(..)
                | Formula::Common(..)
                | Formula::Distributed(..) => true,
                _ => f.children().into_iter().all(go),
            }
        }
        go(self)
    }

    /// Renames every agent according to `rename` — in `K_i` and in every
    /// group modality, member by member (groups simply collect the
    /// images, so a non-injective renaming shrinks them). Useful when
    /// composing scenarios whose vocabularies assign different indices to
    /// the "same" agent.
    #[must_use]
    pub fn map_agents(&self, rename: &impl Fn(Agent) -> Agent) -> Formula {
        let map_group = |g: AgentSet| -> AgentSet { g.iter().map(rename).collect() };
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Prop(p) => Formula::Prop(*p),
            Formula::Not(f) => Formula::not(f.map_agents(rename)),
            Formula::And(items) => Formula::and(items.iter().map(|f| f.map_agents(rename))),
            Formula::Or(items) => Formula::or(items.iter().map(|f| f.map_agents(rename))),
            Formula::Implies(a, b) => Formula::implies(a.map_agents(rename), b.map_agents(rename)),
            Formula::Iff(a, b) => Formula::iff(a.map_agents(rename), b.map_agents(rename)),
            Formula::Knows(a, f) => Formula::knows(rename(*a), f.map_agents(rename)),
            Formula::Everyone(g, f) => Formula::everyone(map_group(*g), f.map_agents(rename)),
            Formula::Common(g, f) => Formula::common(map_group(*g), f.map_agents(rename)),
            Formula::Distributed(g, f) => Formula::distributed(map_group(*g), f.map_agents(rename)),
            Formula::Next(f) => Formula::next(f.map_agents(rename)),
            Formula::Eventually(f) => Formula::eventually(f.map_agents(rename)),
            Formula::Always(f) => Formula::always(f.map_agents(rename)),
            Formula::Until(a, b) => Formula::until(a.map_agents(rename), b.map_agents(rename)),
        }
    }

    /// Renames every proposition according to `rename` (a special case of
    /// [`substitute`](Self::substitute) that preserves shape exactly).
    #[must_use]
    pub fn map_props(&self, rename: &impl Fn(PropId) -> PropId) -> Formula {
        self.substitute(&|p| Some(Formula::Prop(rename(p))))
    }

    /// Replaces every occurrence of each proposition by the formula given
    /// by `subst` (propositions mapped to `None` are left unchanged).
    #[must_use]
    pub fn substitute(&self, subst: &impl Fn(PropId) -> Option<Formula>) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Prop(p) => subst(*p).unwrap_or(Formula::Prop(*p)),
            Formula::Not(f) => Formula::not(f.substitute(subst)),
            Formula::And(items) => Formula::and(items.iter().map(|f| f.substitute(subst))),
            Formula::Or(items) => Formula::or(items.iter().map(|f| f.substitute(subst))),
            Formula::Implies(a, b) => Formula::implies(a.substitute(subst), b.substitute(subst)),
            Formula::Iff(a, b) => Formula::iff(a.substitute(subst), b.substitute(subst)),
            Formula::Knows(a, f) => Formula::knows(*a, f.substitute(subst)),
            Formula::Everyone(g, f) => Formula::everyone(*g, f.substitute(subst)),
            Formula::Common(g, f) => Formula::common(*g, f.substitute(subst)),
            Formula::Distributed(g, f) => Formula::distributed(*g, f.substitute(subst)),
            Formula::Next(f) => Formula::next(f.substitute(subst)),
            Formula::Eventually(f) => Formula::eventually(f.substitute(subst)),
            Formula::Always(f) => Formula::always(f.substitute(subst)),
            Formula::Until(a, b) => Formula::until(a.substitute(subst), b.substitute(subst)),
        }
    }

    /// Renders the formula using the names in `voc` (falls back to raw ids
    /// for unknown propositions/agents).
    #[must_use]
    pub fn to_string_with(&self, voc: &Vocabulary) -> String {
        let mut s = String::new();
        self.fmt_prec(&mut s, 0, Some(voc));
        s
    }

    fn prec(&self) -> u8 {
        match self {
            Formula::Iff(..) => 1,
            Formula::Implies(..) => 2,
            Formula::Or(..) => 3,
            Formula::And(..) => 4,
            Formula::Until(..) => 5,
            Formula::Not(..)
            | Formula::Knows(..)
            | Formula::Everyone(..)
            | Formula::Common(..)
            | Formula::Distributed(..)
            | Formula::Next(..)
            | Formula::Eventually(..)
            | Formula::Always(..) => 6,
            Formula::True | Formula::False | Formula::Prop(_) => 7,
        }
    }

    fn group_str(g: AgentSet, voc: Option<&Vocabulary>) -> String {
        let mut s = String::from("{");
        for (k, a) in g.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            match voc {
                Some(v) if a.index() < v.agent_count() => s.push_str(v.agent_name(a)),
                _ => s.push_str(&a.to_string()),
            }
        }
        s.push('}');
        s
    }

    fn fmt_prec(&self, out: &mut String, parent_prec: u8, voc: Option<&Vocabulary>) {
        let my_prec = self.prec();
        let need_parens = my_prec < parent_prec;
        if need_parens {
            out.push('(');
        }
        match self {
            Formula::True => out.push_str("true"),
            Formula::False => out.push_str("false"),
            Formula::Prop(p) => match voc {
                Some(v) if p.index() < v.prop_count() => out.push_str(v.prop_name(*p)),
                _ => out.push_str(&p.to_string()),
            },
            Formula::Not(f) => {
                out.push('!');
                f.fmt_prec(out, my_prec + 1, voc);
            }
            Formula::And(items) => {
                for (k, f) in items.iter().enumerate() {
                    if k > 0 {
                        out.push_str(" & ");
                    }
                    f.fmt_prec(out, my_prec + 1, voc);
                }
            }
            Formula::Or(items) => {
                for (k, f) in items.iter().enumerate() {
                    if k > 0 {
                        out.push_str(" | ");
                    }
                    f.fmt_prec(out, my_prec + 1, voc);
                }
            }
            Formula::Implies(a, b) => {
                a.fmt_prec(out, my_prec + 1, voc);
                out.push_str(" -> ");
                b.fmt_prec(out, my_prec, voc);
            }
            Formula::Iff(a, b) => {
                a.fmt_prec(out, my_prec + 1, voc);
                out.push_str(" <-> ");
                b.fmt_prec(out, my_prec, voc);
            }
            Formula::Knows(a, f) => {
                out.push_str("K{");
                match voc {
                    Some(v) if a.index() < v.agent_count() => out.push_str(v.agent_name(*a)),
                    _ => out.push_str(&a.to_string()),
                }
                out.push_str("} ");
                f.fmt_prec(out, my_prec, voc);
            }
            Formula::Everyone(g, f) => {
                out.push('E');
                out.push_str(&Self::group_str(*g, voc));
                out.push(' ');
                f.fmt_prec(out, my_prec, voc);
            }
            Formula::Common(g, f) => {
                out.push('C');
                out.push_str(&Self::group_str(*g, voc));
                out.push(' ');
                f.fmt_prec(out, my_prec, voc);
            }
            Formula::Distributed(g, f) => {
                out.push('D');
                out.push_str(&Self::group_str(*g, voc));
                out.push(' ');
                f.fmt_prec(out, my_prec, voc);
            }
            Formula::Next(f) => {
                out.push_str("X ");
                f.fmt_prec(out, my_prec, voc);
            }
            Formula::Eventually(f) => {
                out.push_str("F ");
                f.fmt_prec(out, my_prec, voc);
            }
            Formula::Always(f) => {
                out.push_str("G ");
                f.fmt_prec(out, my_prec, voc);
            }
            Formula::Until(a, b) => {
                a.fmt_prec(out, my_prec + 1, voc);
                out.push_str(" U ");
                b.fmt_prec(out, my_prec, voc);
            }
        }
        if need_parens {
            out.push(')');
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.fmt_prec(&mut s, 0, None);
        f.write_str(&s)
    }
}

impl From<PropId> for Formula {
    fn from(p: PropId) -> Formula {
        Formula::Prop(p)
    }
}

/// Pre-order iterator over subformulas; see [`Formula::subformulas`].
#[derive(Debug, Clone)]
pub struct SubformulaIter<'a> {
    stack: Vec<&'a Formula>,
}

impl<'a> Iterator for SubformulaIter<'a> {
    type Item = &'a Formula;

    fn next(&mut self) -> Option<&'a Formula> {
        let f = self.stack.pop()?;
        let children = f.children();
        self.stack.extend(children.into_iter().rev());
        Some(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    #[test]
    fn smart_and_flattens_and_short_circuits() {
        let f = Formula::and([p(0), Formula::and([p(1), p(2)]), Formula::True]);
        assert_eq!(f, Formula::And(vec![p(0), p(1), p(2)]));
        assert_eq!(Formula::and([p(0), Formula::False]), Formula::False);
        assert_eq!(Formula::and([]), Formula::True);
        assert_eq!(Formula::and([p(3)]), p(3));
    }

    #[test]
    fn smart_or_flattens_and_short_circuits() {
        let f = Formula::or([p(0), Formula::or([p(1), p(2)]), Formula::False]);
        assert_eq!(f, Formula::Or(vec![p(0), p(1), p(2)]));
        assert_eq!(Formula::or([p(0), Formula::True]), Formula::True);
        assert_eq!(Formula::or([]), Formula::False);
    }

    #[test]
    fn not_collapses() {
        assert_eq!(Formula::not(Formula::not(p(0))), p(0));
        assert_eq!(Formula::not(Formula::True), Formula::False);
    }

    #[test]
    fn implies_simplifies_constants() {
        assert_eq!(Formula::implies(Formula::True, p(0)), p(0));
        assert_eq!(Formula::implies(Formula::False, p(0)), Formula::True);
        assert_eq!(Formula::implies(p(0), Formula::False), Formula::not(p(0)));
    }

    #[test]
    fn singleton_groups_reduce_to_k() {
        let a = Agent::new(2);
        let g = AgentSet::singleton(a);
        assert_eq!(Formula::everyone(g, p(0)), Formula::knows(a, p(0)));
        assert_eq!(Formula::distributed(g, p(0)), Formula::knows(a, p(0)));
    }

    #[test]
    fn size_and_depth() {
        let f = Formula::knows(Agent::new(0), Formula::and([p(0), p(1)]));
        assert_eq!(f.size(), 4);
        assert_eq!(f.depth(), 3);
        assert_eq!(f.modal_depth(), 1);
    }

    #[test]
    fn props_sorted_dedup() {
        let f = Formula::and([p(3), p(1), p(3)]);
        assert_eq!(
            f.props(),
            vec![PropId::new(1), PropId::new(3)],
            "sorted, deduplicated"
        );
    }

    #[test]
    fn agents_collected_from_all_levels() {
        let f = Formula::knows(
            Agent::new(0),
            Formula::common(AgentSet::all(3), Formula::knows(Agent::new(5), p(0))),
        );
        let ags = f.agents();
        assert!(ags.contains(Agent::new(0)));
        assert!(ags.contains(Agent::new(2)));
        assert!(ags.contains(Agent::new(5)));
        assert_eq!(ags.len(), 4); // {0, 1, 2, 5}
    }

    #[test]
    fn objectivity_and_fragments() {
        assert!(Formula::and([p(0), Formula::not(p(1))]).is_objective());
        assert!(!Formula::knows(Agent::new(0), p(0)).is_objective());
        assert!(Formula::eventually(p(0)).has_temporal());
        assert!(!Formula::eventually(p(0)).has_epistemic());
        assert!(Formula::knows(Agent::new(0), p(0)).has_epistemic());
    }

    #[test]
    fn subjectivity_accepts_own_knowledge_only() {
        let me = Agent::new(0);
        let other = Agent::new(1);
        assert!(Formula::knows(me, p(0)).is_subjective_for(me));
        assert!(!Formula::knows(other, p(0)).is_subjective_for(me));
        assert!(Formula::not(Formula::knows(me, p(0))).is_subjective_for(me));
        // Bare propositions are not subjective by default...
        assert!(!p(0).is_subjective_for(me));
        // ...unless declared local.
        assert!(p(0).is_subjective_for_with(me, |_| true));
    }

    #[test]
    fn subjectivity_of_common_knowledge() {
        let me = Agent::new(0);
        let g = AgentSet::all(2);
        assert!(Formula::common(g, p(0)).is_subjective_for(me));
        let g_without_me: AgentSet = [Agent::new(1), Agent::new(2)].into_iter().collect();
        assert!(!Formula::common(g_without_me, p(0)).is_subjective_for(me));
    }

    #[test]
    fn subjectivity_rejects_bare_temporal() {
        let me = Agent::new(0);
        assert!(!Formula::eventually(p(0)).is_subjective_for(me));
        // ... but accepts temporal under the agent's own K.
        assert!(Formula::knows(me, Formula::eventually(p(0))).is_subjective_for(me));
    }

    #[test]
    fn temporal_under_epistemic_check() {
        let me = Agent::new(0);
        assert!(Formula::knows(me, Formula::eventually(p(0))).temporal_under_epistemic());
        assert!(!Formula::eventually(Formula::knows(me, p(0))).temporal_under_epistemic());
        assert!(p(0).temporal_under_epistemic());
    }

    #[test]
    fn map_agents_renames_everywhere() {
        let f = Formula::knows(
            Agent::new(0),
            Formula::common(AgentSet::all(2), Formula::knows(Agent::new(1), p(0))),
        );
        let shifted = f.map_agents(&|a| Agent::new(a.index() + 2));
        let expected = Formula::knows(
            Agent::new(2),
            Formula::common(
                [Agent::new(2), Agent::new(3)].into_iter().collect(),
                Formula::knows(Agent::new(3), p(0)),
            ),
        );
        assert_eq!(shifted, expected);
        // Identity renaming is the identity.
        assert_eq!(f.map_agents(&|a| a), f);
    }

    #[test]
    fn map_agents_can_merge_groups() {
        let g: AgentSet = [Agent::new(0), Agent::new(1)].into_iter().collect();
        let f = Formula::common(g, p(0));
        let merged = f.map_agents(&|_| Agent::new(5));
        assert_eq!(
            merged,
            Formula::common(AgentSet::singleton(Agent::new(5)), p(0))
        );
    }

    #[test]
    fn map_props_preserves_shape() {
        let f = Formula::and([p(0), Formula::knows(Agent::new(0), Formula::not(p(1)))]);
        let shifted = f.map_props(&|q| PropId::new(q.index() as u32 + 10));
        assert_eq!(
            shifted,
            Formula::and([p(10), Formula::knows(Agent::new(0), Formula::not(p(11)))])
        );
        assert_eq!(shifted.size(), f.size());
    }

    #[test]
    fn substitution_replaces_props() {
        let f = Formula::and([p(0), Formula::knows(Agent::new(0), p(1))]);
        let g = f.substitute(&|q: PropId| {
            if q == PropId::new(1) {
                Some(Formula::not(p(2)))
            } else {
                None
            }
        });
        assert_eq!(
            g,
            Formula::and([p(0), Formula::knows(Agent::new(0), Formula::not(p(2)))])
        );
    }

    #[test]
    fn subformula_iterator_is_preorder() {
        let f = Formula::and([p(0), Formula::not(p(1))]);
        let kinds: Vec<String> = f.subformulas().map(|s| format!("{s}")).collect();
        assert_eq!(kinds, vec!["p0 & !p1", "p0", "!p1", "p1"]);
    }

    #[test]
    fn display_precedence() {
        let f = Formula::or([Formula::and([p(0), p(1)]), p(2)]);
        assert_eq!(f.to_string(), "p0 & p1 | p2");
        let g = Formula::and([Formula::or([p(0), p(1)]), p(2)]);
        assert_eq!(g.to_string(), "(p0 | p1) & p2");
        let h = Formula::not(Formula::and([p(0), p(1)]));
        assert_eq!(h.to_string(), "!(p0 & p1)");
        let k = Formula::knows(Agent::new(1), Formula::implies(p(0), p(1)));
        assert_eq!(k.to_string(), "K{a1} (p0 -> p1)");
    }

    #[test]
    fn display_with_vocabulary_names() {
        let mut voc = Vocabulary::new();
        let alice = voc.add_agent("alice");
        let rain = voc.add_prop("rain");
        let f = Formula::knows(alice, Formula::prop(rain));
        assert_eq!(f.to_string_with(&voc), "K{alice} rain");
    }
}
