//! Agents and sets of agents.

use std::fmt;

/// An agent identity, a dense index assigned by a
/// [`Vocabulary`](crate::Vocabulary).
///
/// At most [`Agent::MAX_AGENTS`] agents are supported so that an
/// [`AgentSet`] fits in a single machine word; the systems modelled in the
/// knowledge-based-programs literature have a handful of agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Agent(u8);

impl Agent {
    /// The maximum number of distinct agents (`64`).
    pub const MAX_AGENTS: usize = 64;

    /// Creates an agent from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Agent::MAX_AGENTS`.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(
            index < Self::MAX_AGENTS,
            "agent index {index} out of range (max {})",
            Self::MAX_AGENTS
        );
        Agent(index as u8)
    }

    /// The dense index of this agent.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A set of agents, used as the group index of `E`, `C` and `D` modalities.
///
/// Represented as a 64-bit mask; construction is infallible for any agents
/// produced by a [`Vocabulary`](crate::Vocabulary).
///
/// # Example
///
/// ```
/// use kbp_logic::{Agent, AgentSet};
///
/// let g: AgentSet = [Agent::new(0), Agent::new(2)].into_iter().collect();
/// assert_eq!(g.len(), 2);
/// assert!(g.contains(Agent::new(2)));
/// assert!(!g.contains(Agent::new(1)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentSet(u64);

impl AgentSet {
    /// The empty set of agents.
    pub const EMPTY: AgentSet = AgentSet(0);

    /// Creates an empty agent set.
    #[must_use]
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// The set containing every agent index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > Agent::MAX_AGENTS`.
    #[must_use]
    pub fn all(n: usize) -> Self {
        assert!(n <= Agent::MAX_AGENTS, "agent count {n} out of range");
        if n == Agent::MAX_AGENTS {
            AgentSet(u64::MAX)
        } else {
            AgentSet((1u64 << n) - 1)
        }
    }

    /// The singleton set `{agent}`.
    #[must_use]
    pub fn singleton(agent: Agent) -> Self {
        AgentSet(1u64 << agent.index())
    }

    /// Inserts an agent; returns `true` if it was not already present.
    pub fn insert(&mut self, agent: Agent) -> bool {
        let bit = 1u64 << agent.index();
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes an agent; returns `true` if it was present.
    pub fn remove(&mut self, agent: Agent) -> bool {
        let bit = 1u64 << agent.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Whether `agent` belongs to the set.
    #[must_use]
    pub fn contains(self, agent: Agent) -> bool {
        self.0 & (1u64 << agent.index()) != 0
    }

    /// Number of agents in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: AgentSet) -> AgentSet {
        AgentSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: AgentSet) -> AgentSet {
        AgentSet(self.0 & other.0)
    }

    /// Whether `self` is a subset of `other`.
    #[must_use]
    pub fn is_subset(self, other: AgentSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over the members in increasing index order.
    #[must_use]
    pub fn iter(self) -> AgentSetIter {
        AgentSetIter(self.0)
    }
}

impl FromIterator<Agent> for AgentSet {
    fn from_iter<T: IntoIterator<Item = Agent>>(iter: T) -> Self {
        let mut set = AgentSet::new();
        for a in iter {
            set.insert(a);
        }
        set
    }
}

impl Extend<Agent> for AgentSet {
    fn extend<T: IntoIterator<Item = Agent>>(&mut self, iter: T) {
        for a in iter {
            self.insert(a);
        }
    }
}

impl IntoIterator for AgentSet {
    type Item = Agent;
    type IntoIter = AgentSetIter;

    fn into_iter(self) -> AgentSetIter {
        self.iter()
    }
}

impl From<Agent> for AgentSet {
    fn from(agent: Agent) -> Self {
        AgentSet::singleton(agent)
    }
}

impl fmt::Display for AgentSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, a) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the members of an [`AgentSet`], in increasing index order.
#[derive(Debug, Clone)]
pub struct AgentSetIter(u64);

impl Iterator for AgentSetIter {
    type Item = Agent;

    fn next(&mut self) -> Option<Agent> {
        if self.0 == 0 {
            return None;
        }
        let idx = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(Agent::new(idx))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for AgentSetIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_contains_only_its_member() {
        let a = Agent::new(3);
        let s = AgentSet::singleton(a);
        assert!(s.contains(a));
        assert!(!s.contains(Agent::new(2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = AgentSet::new();
        assert!(s.insert(Agent::new(5)));
        assert!(!s.insert(Agent::new(5)));
        assert!(s.remove(Agent::new(5)));
        assert!(!s.remove(Agent::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn all_enumerates_prefix() {
        let s = AgentSet::all(4);
        let v: Vec<usize> = s.iter().map(Agent::index).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_max_agents_is_full() {
        let s = AgentSet::all(Agent::MAX_AGENTS);
        assert_eq!(s.len(), Agent::MAX_AGENTS);
        assert!(s.contains(Agent::new(63)));
    }

    #[test]
    fn union_intersection_subset() {
        let a: AgentSet = [Agent::new(0), Agent::new(1)].into_iter().collect();
        let b: AgentSet = [Agent::new(1), Agent::new(2)].into_iter().collect();
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersection(b).len(), 1);
        assert!(a.intersection(b).is_subset(a));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn iterator_order_is_increasing() {
        let s: AgentSet = [Agent::new(9), Agent::new(2), Agent::new(40)]
            .into_iter()
            .collect();
        let v: Vec<usize> = s.iter().map(Agent::index).collect();
        assert_eq!(v, vec![2, 9, 40]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn agent_index_out_of_range_panics() {
        let _ = Agent::new(64);
    }

    #[test]
    fn display_forms() {
        let s: AgentSet = [Agent::new(0), Agent::new(2)].into_iter().collect();
        assert_eq!(s.to_string(), "{a0,a2}");
        assert_eq!(Agent::new(7).to_string(), "a7");
    }
}
