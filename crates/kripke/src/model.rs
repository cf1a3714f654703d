//! Finite S5ₙ Kripke structures.

use crate::bitset::BitSet;
use crate::partition::{Partition, UnionFind};
use kbp_logic::{Agent, PropId};
use std::fmt;

/// Identifier of a world in an [`S5Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorldId(u32);

impl WorldId {
    /// Creates a world id from a raw index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        WorldId(index as u32)
    }

    /// The dense index of this world.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WorldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A finite multi-agent S5 Kripke structure: a set of worlds, a valuation
/// of propositions, and one *partition* of the worlds per agent (each
/// agent's accessibility relation is the equivalence relation induced by
/// its partition — exactly the "same local state" relation of interpreted
/// systems).
///
/// Build one with [`S5Builder`].
///
/// # Example
///
/// ```
/// use kbp_kripke::S5Builder;
/// use kbp_logic::{Agent, Formula, PropId};
///
/// let alice = Agent::new(0);
/// let p = PropId::new(0);
/// let mut b = S5Builder::new(1, 1);
/// let w0 = b.add_world([p]);
/// let w1 = b.add_world([]);
/// b.link(alice, w0, w1); // Alice cannot tell the worlds apart
/// let model = b.build();
///
/// let f = Formula::knows(alice, Formula::prop(p));
/// assert!(!model.check(w0, &f)?); // p true but not known
/// # Ok::<(), kbp_kripke::EvalError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct S5Model {
    num_props: usize,
    /// For each proposition, the set of worlds where it holds.
    valuation: Vec<BitSet>,
    /// For each agent, its information partition.
    partitions: Vec<Partition>,
    num_worlds: usize,
}

impl S5Model {
    pub(crate) fn from_parts(
        num_props: usize,
        valuation: Vec<BitSet>,
        partitions: Vec<Partition>,
        num_worlds: usize,
    ) -> Self {
        debug_assert_eq!(valuation.len(), num_props);
        debug_assert!(valuation.iter().all(|v| v.len() == num_worlds));
        debug_assert!(partitions.iter().all(|p| p.len() == num_worlds));
        S5Model {
            num_props,
            valuation,
            partitions,
            num_worlds,
        }
    }

    /// Number of worlds.
    #[must_use]
    pub fn world_count(&self) -> usize {
        self.num_worlds
    }

    /// Number of agents.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.partitions.len()
    }

    /// Number of propositions in the valuation.
    #[must_use]
    pub fn prop_count(&self) -> usize {
        self.num_props
    }

    /// Iterates over all world ids.
    pub fn worlds(&self) -> impl Iterator<Item = WorldId> {
        (0..self.num_worlds).map(WorldId::new)
    }

    /// Whether proposition `p` holds at `world`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `world` are out of range.
    #[must_use]
    pub fn prop_holds(&self, world: WorldId, p: PropId) -> bool {
        self.valuation[p.index()].contains(world.index())
    }

    /// The set of worlds where proposition `p` holds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn prop_worlds(&self, p: PropId) -> &BitSet {
        &self.valuation[p.index()]
    }

    /// Agent `i`'s information partition.
    ///
    /// # Panics
    ///
    /// Panics if the agent is out of range.
    #[must_use]
    pub fn partition(&self, agent: Agent) -> &Partition {
        &self.partitions[agent.index()]
    }

    /// Whether `agent` cannot distinguish `a` from `b`.
    ///
    /// # Panics
    ///
    /// Panics if the agent or either world is out of range.
    #[must_use]
    pub fn indistinguishable(&self, agent: Agent, a: WorldId, b: WorldId) -> bool {
        self.partitions[agent.index()].same_block(a.index(), b.index())
    }

    /// The information cell of `agent` at `world`: all worlds the agent
    /// considers possible there.
    ///
    /// # Panics
    ///
    /// Panics if the agent or world is out of range.
    #[must_use]
    pub fn cell(&self, agent: Agent, world: WorldId) -> &[u32] {
        let p = &self.partitions[agent.index()];
        p.block(p.block_of(world.index()))
    }
}

/// Incremental builder for [`S5Model`].
///
/// Worlds start pairwise distinguishable for every agent; call
/// [`link`](S5Builder::link) to merge information cells (the equivalence
/// closure is taken automatically), or
/// [`partition_by_key`](S5Builder::partition_by_key) to set an agent's
/// whole partition from an observation function.
#[derive(Debug, Clone)]
pub struct S5Builder {
    num_agents: usize,
    num_props: usize,
    props_of_world: Vec<Vec<PropId>>,
    links: Vec<Vec<(u32, u32)>>,
    explicit: Vec<Option<Partition>>,
}

impl S5Builder {
    /// Creates a builder for a model with the given numbers of agents and
    /// propositions.
    #[must_use]
    pub fn new(num_agents: usize, num_props: usize) -> Self {
        S5Builder {
            num_agents,
            num_props,
            props_of_world: Vec::new(),
            links: vec![Vec::new(); num_agents],
            explicit: vec![None; num_agents],
        }
    }

    /// Adds a world at which exactly the given propositions hold, returning
    /// its id.
    ///
    /// # Panics
    ///
    /// Panics if any proposition index is out of range.
    pub fn add_world(&mut self, props: impl IntoIterator<Item = PropId>) -> WorldId {
        let props: Vec<PropId> = props.into_iter().collect();
        for p in &props {
            assert!(
                p.index() < self.num_props,
                "proposition {p} out of range ({} props)",
                self.num_props
            );
        }
        let id = WorldId::new(self.props_of_world.len());
        self.props_of_world.push(props);
        id
    }

    /// Declares worlds `a` and `b` indistinguishable for `agent`.
    ///
    /// # Panics
    ///
    /// Panics if the agent is out of range or either world was not added.
    pub fn link(&mut self, agent: Agent, a: WorldId, b: WorldId) -> &mut Self {
        assert!(agent.index() < self.num_agents, "agent out of range");
        let n = self.props_of_world.len();
        assert!(a.index() < n && b.index() < n, "world out of range");
        self.links[agent.index()].push((a.0, b.0));
        self
    }

    /// Sets `agent`'s partition by grouping worlds with equal keys,
    /// discarding any previous [`link`](S5Builder::link) calls for that
    /// agent. Call after all worlds have been added.
    ///
    /// # Panics
    ///
    /// Panics if the agent is out of range.
    pub fn partition_by_key<K: std::hash::Hash + Eq>(
        &mut self,
        agent: Agent,
        key: impl Fn(WorldId) -> K,
    ) -> &mut Self {
        assert!(agent.index() < self.num_agents, "agent out of range");
        let n = self.props_of_world.len();
        self.explicit[agent.index()] = Some(Partition::from_keys(n, |x| key(WorldId::new(x))));
        self.links[agent.index()].clear();
        self
    }

    /// Sets `agent`'s partition like
    /// [`partition_by_key`](S5Builder::partition_by_key), for keys that
    /// are already small dense ids: grouping goes through
    /// [`Partition::from_index_keys`]'s slot table instead of a hash map.
    ///
    /// # Panics
    ///
    /// Panics if the agent is out of range.
    pub fn partition_by_index_key(
        &mut self,
        agent: Agent,
        key: impl Fn(WorldId) -> usize,
    ) -> &mut Self {
        assert!(agent.index() < self.num_agents, "agent out of range");
        let n = self.props_of_world.len();
        self.explicit[agent.index()] =
            Some(Partition::from_index_keys(n, |x| key(WorldId::new(x))));
        self.links[agent.index()].clear();
        self
    }

    /// Finalises the model.
    #[must_use]
    pub fn build(mut self) -> S5Model {
        let n = self.props_of_world.len();
        let mut valuation = vec![BitSet::new(n); self.num_props];
        for (w, props) in self.props_of_world.iter().enumerate() {
            for p in props {
                valuation[p.index()].insert(w);
            }
        }
        let mut partitions = Vec::with_capacity(self.num_agents);
        for i in 0..self.num_agents {
            if let Some(p) = self.explicit[i].take() {
                partitions.push(p);
            } else {
                let mut uf = UnionFind::new(n);
                for &(a, b) in &self.links[i] {
                    uf.union(a as usize, b as usize);
                }
                partitions.push(uf.into_partition());
            }
        }
        S5Model::from_parts(self.num_props, valuation, partitions, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_valuation() {
        let p = PropId::new(0);
        let q = PropId::new(1);
        let mut b = S5Builder::new(1, 2);
        let w0 = b.add_world([p, q]);
        let w1 = b.add_world([q]);
        let m = b.build();
        assert!(m.prop_holds(w0, p));
        assert!(!m.prop_holds(w1, p));
        assert!(m.prop_holds(w1, q));
        assert_eq!(m.world_count(), 2);
        assert_eq!(m.prop_count(), 2);
    }

    #[test]
    fn links_take_equivalence_closure() {
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 0);
        let w0 = b.add_world([]);
        let w1 = b.add_world([]);
        let w2 = b.add_world([]);
        b.link(a, w0, w1);
        b.link(a, w1, w2);
        let m = b.build();
        assert!(m.indistinguishable(a, w0, w2), "transitivity");
        assert!(m.indistinguishable(a, w0, w0), "reflexivity");
        assert_eq!(m.cell(a, w1), &[0, 1, 2]);
    }

    #[test]
    fn partition_by_key_overrides_links() {
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 0);
        let w0 = b.add_world([]);
        let w1 = b.add_world([]);
        b.link(a, w0, w1);
        b.partition_by_key(a, |w| w.index()); // discrete
        let m = b.build();
        assert!(!m.indistinguishable(a, w0, w1));
    }

    #[test]
    fn default_partition_is_discrete() {
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 0);
        let w0 = b.add_world([]);
        let w1 = b.add_world([]);
        let m = b.build();
        assert!(!m.indistinguishable(a, w0, w1));
        assert_eq!(m.partition(a).block_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn world_prop_out_of_range_panics() {
        let mut b = S5Builder::new(1, 1);
        b.add_world([PropId::new(5)]);
    }
}
