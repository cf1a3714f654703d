//! Protocols: functions from local states to nonempty sets of actions.
//!
//! In FHMV a protocol `P_i` maps each local state of agent `i` to the set
//! of actions it may perform there (a singleton for deterministic
//! protocols). Here a local state is presented to the protocol as a
//! [`LocalView`] — the agent's observation history (perfect recall) or its
//! current observation (observational semantics).

use crate::context::ActionId;
use crate::state::{LocalId, LocalTable, Obs};
use crate::system::{InterpretedSystem, StepChoices};
use kbp_logic::Agent;
use std::collections::HashMap;

/// An agent's local state as seen by a protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalView<'a> {
    /// Whose local state this is.
    pub agent: Agent,
    /// The observation sequence, oldest first. Under perfect recall this is
    /// the whole history (length = time + 1); under observational semantics
    /// it contains only the current observation (length 1).
    pub history: &'a [Obs],
}

impl LocalView<'_> {
    /// The most recent observation, or `Obs(0)` for an empty history
    /// (never produced by the framework).
    #[must_use]
    pub fn current(&self) -> Obs {
        self.history.last().copied().unwrap_or(Obs(0))
    }

    /// The time step this view belongs to (history length − 1) under
    /// perfect recall; `0` under observational semantics, and for an empty
    /// history (never produced by the framework).
    #[must_use]
    pub fn time(&self) -> usize {
        self.history.len().saturating_sub(1)
    }
}

/// A joint protocol: for every agent and local view, the nonempty set of
/// actions the agent may take.
///
/// Implemented by closures `Fn(&LocalView) -> Vec<ActionId>` and by
/// [`MapProtocol`].
pub trait ProtocolFn {
    /// The actions the agent may perform at this local state. Must be
    /// nonempty and must depend only on the view (same view ⇒ same set).
    fn actions(&self, view: &LocalView<'_>) -> Vec<ActionId>;
}

impl<F> ProtocolFn for F
where
    F: Fn(&LocalView<'_>) -> Vec<ActionId>,
{
    fn actions(&self, view: &LocalView<'_>) -> Vec<ActionId> {
        self(view)
    }
}

/// A finite, table-driven joint protocol keyed by exact observation
/// histories, with a per-agent default for unlisted histories.
///
/// This is the concrete artifact produced by the `kbp-core` solvers: the
/// standard protocol that implements a knowledge-based program.
///
/// # Example
///
/// ```
/// use kbp_systems::{MapProtocol, ProtocolFn, LocalView, ActionId, Obs};
/// use kbp_logic::Agent;
///
/// let a = Agent::new(0);
/// let mut p = MapProtocol::new(vec![ActionId(0)]); // default: action 0
/// p.insert(a, vec![Obs(1)], vec![ActionId(1)]);
///
/// let seen_one = [Obs(1)];
/// let view = LocalView { agent: a, history: &seen_one };
/// assert_eq!(p.actions(&view), vec![ActionId(1)]);
/// let seen_zero = [Obs(0)];
/// let view = LocalView { agent: a, history: &seen_zero };
/// assert_eq!(p.actions(&view), vec![ActionId(0)]); // default
/// ```
///
/// Each agent's histories live on a forest of local states, the
/// `(parent, observation)` interning a generated system uses
/// ([`LocalTable`]), with one interned action-set id per forest node, or
/// none: a history is an entry only if its own node holds a set, so the
/// interior nodes on its path need not be entries. A lookup walks the
/// history's path, and a knowledge-based program induces few distinct
/// sets however many histories it acts at. The forest's index keeps the
/// default hasher: histories are sequences of context-defined observation
/// codes, which a user's `.kbp` context chooses freely. Equality compares
/// the resolved `(agent, history) → set` map, so it depends neither on
/// insertion order nor on the order histories or sets were interned in.
#[derive(Debug, Clone, Default)]
pub struct MapProtocol {
    /// Explicit entries, indexed by agent; agents past the end have none.
    agents: Vec<AgentEntries>,
    /// The entries' action sets, by interned id.
    sets: ActionSets,
    /// Number of explicit entries: forest nodes that hold a set.
    len: usize,
    agent_defaults: HashMap<Agent, Vec<ActionId>>,
    default: Vec<ActionId>,
}

/// One agent's entries: `set_of[node]` is the interned set at forest node
/// `node`, or [`NO_SET`]. Always as long as the forest.
#[derive(Debug, Clone, Default)]
struct AgentEntries {
    forest: LocalTable,
    set_of: Vec<u32>,
}

/// The set id of a forest node or choice slot without an entry.
pub(crate) const NO_SET: u32 = u32::MAX;

impl AgentEntries {
    /// The interned set of the entry at `history`, if it has one.
    fn get(&self, history: &[Obs]) -> Option<u32> {
        let node = self.forest.lookup(history)?;
        self.set_of
            .get(node.index())
            .copied()
            .filter(|&id| id != NO_SET)
    }

    /// Whether each of these entries, resolved through `sets`, is an entry
    /// of `other` with an equal set: one probe into `other`'s forest per
    /// node of this one, parents first.
    fn within(&self, sets: &ActionSets, other: &AgentEntries, other_sets: &ActionSets) -> bool {
        let mut image: Vec<Option<LocalId>> = Vec::with_capacity(self.set_of.len());
        for (n, &id) in self.set_of.iter().enumerate() {
            let (parent, obs) = self.forest.entry(LocalId(n as u32));
            let node = match parent {
                None => other.forest.find(None, obs),
                Some(p) => image[p.index()].and_then(|q| other.forest.find(Some(q), obs)),
            };
            image.push(node);
            if id != NO_SET {
                let theirs = node
                    .and_then(|m| other.set_of.get(m.index()).copied())
                    .filter(|&t| t != NO_SET);
                if theirs.is_none_or(|t| sets.get(id) != other_sets.get(t)) {
                    return false;
                }
            }
        }
        true
    }
}

impl PartialEq for MapProtocol {
    fn eq(&self, other: &Self) -> bool {
        // Equal counts and every entry of `self` found in `other` leave
        // `other` no entry of its own.
        self.default == other.default
            && self.agent_defaults == other.agent_defaults
            && self.len == other.len
            && self
                .agents
                .iter()
                .enumerate()
                .all(|(i, mine)| match other.agents.get(i) {
                    Some(theirs) => mine.within(&self.sets, theirs, &other.sets),
                    None => mine.within(&self.sets, &AgentEntries::default(), &other.sets),
                })
    }
}

impl Eq for MapProtocol {}

/// Distinct action sets interned to dense ids: equal ids, equal sets.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActionSets {
    sets: Vec<Vec<ActionId>>,
    ids: HashMap<Vec<ActionId>, u32>,
}

impl ActionSets {
    /// The id of `actions`, interning it on first sight.
    pub(crate) fn intern(&mut self, actions: Vec<ActionId>) -> u32 {
        if let Some(&id) = self.ids.get(actions.as_slice()) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.ids.insert(actions.clone(), id);
        self.sets.push(actions);
        id
    }

    /// The set interned under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub(crate) fn get(&self, id: u32) -> &[ActionId] {
        &self.sets[id as usize]
    }

    /// Whether `id` names a set of this table.
    pub(crate) fn contains(&self, id: u32) -> bool {
        (id as usize) < self.sets.len()
    }
}

impl MapProtocol {
    /// Creates an empty protocol with the given default action set
    /// (returned for any history without an explicit entry).
    ///
    /// # Panics
    ///
    /// Panics if `default` is empty — protocols must always offer an
    /// action.
    #[must_use]
    pub fn new(default: Vec<ActionId>) -> Self {
        assert!(!default.is_empty(), "default action set must be nonempty");
        MapProtocol {
            default,
            ..MapProtocol::default()
        }
    }

    /// The protocol that acts as `choices` does at every local state of
    /// `system` it holds a choice for, and by `default` elsewhere: the
    /// system's local-state forests, with the choices' set ids on their
    /// nodes. This is how a solver that records its induced sets per
    /// [`LocalId`](crate::LocalId) hands over its protocol; choices for
    /// local ids the system does not hold are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `default` is empty.
    #[must_use]
    pub fn from_choices(
        default: Vec<ActionId>,
        system: &InterpretedSystem,
        choices: StepChoices,
    ) -> Self {
        assert!(!default.is_empty(), "default action set must be nonempty");
        let lens: Vec<usize> = (0..system.agent_count())
            .map(|i| system.local_table(i).len())
            .collect();
        let (slots, sets) = choices.into_slots(&lens);
        let agents: Vec<AgentEntries> = slots
            .into_iter()
            .enumerate()
            .map(|(i, set_of)| AgentEntries {
                forest: system.local_table(i).clone(),
                set_of,
            })
            .collect();
        let len = agents
            .iter()
            .flat_map(|e| &e.set_of)
            .filter(|&&id| id != NO_SET)
            .count();
        MapProtocol {
            agents,
            sets,
            len,
            agent_defaults: HashMap::new(),
            default,
        }
    }

    /// Sets a per-agent default action set, overriding the global default
    /// for that agent's unlisted histories.
    ///
    /// # Panics
    ///
    /// Panics if `actions` is empty.
    pub fn set_agent_default(&mut self, agent: Agent, actions: Vec<ActionId>) {
        assert!(!actions.is_empty(), "default action set must be nonempty");
        self.agent_defaults.insert(agent, actions);
    }

    /// Sets the action set for one history, replacing any it had.
    ///
    /// # Panics
    ///
    /// Panics if `history` or `actions` is empty: every local state has
    /// at least one observation, and protocols must always act.
    pub fn insert(&mut self, agent: Agent, history: Vec<Obs>, actions: Vec<ActionId>) {
        assert!(!history.is_empty(), "history must be nonempty");
        assert!(!actions.is_empty(), "action set must be nonempty");
        let id = self.sets.intern(actions);
        let i = agent.index();
        if i >= self.agents.len() {
            self.agents.resize_with(i + 1, AgentEntries::default);
        }
        let entries = &mut self.agents[i];
        let forest = &mut entries.forest;
        let mut node = forest.intern_root(history[0]);
        for &obs in &history[1..] {
            node = forest.intern_child(node, obs);
        }
        entries.set_of.resize(forest.len(), NO_SET);
        let slot = &mut entries.set_of[node.index()];
        if *slot == NO_SET {
            self.len += 1;
        }
        *slot = id;
    }

    /// Looks up the explicit entry for a history, if any.
    #[must_use]
    pub fn get(&self, agent: Agent, history: &[Obs]) -> Option<&[ActionId]> {
        let id = self.agents.get(agent.index())?.get(history)?;
        Some(self.sets.get(id))
    }

    /// Number of explicit entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the protocol has no explicit entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(agent, history, actions)` entries: agent by agent,
    /// each agent's in the order its forest interned their local states
    /// (a history after its prefixes).
    pub fn iter(&self) -> impl Iterator<Item = (Agent, Vec<Obs>, &[ActionId])> + '_ {
        self.agents.iter().enumerate().flat_map(move |(i, e)| {
            e.set_of
                .iter()
                .enumerate()
                .filter(|&(_, &id)| id != NO_SET)
                .map(move |(n, &id)| {
                    let history = e.forest.history(LocalId(n as u32));
                    (Agent::new(i), history, self.sets.get(id))
                })
        })
    }

    /// Renders the protocol as a sorted, human-readable table using the
    /// context's agent and action names.
    ///
    /// # Example
    ///
    /// (Output shape:)
    ///
    /// ```text
    /// sender:
    ///   [obs:0]        -> send
    ///   [obs:0,obs:2]  -> noop
    /// ```
    #[must_use]
    pub fn to_pretty(&self, ctx: &dyn crate::context::Context) -> String {
        use std::fmt::Write as _;
        let voc = ctx.vocabulary();
        let mut entries: Vec<(Agent, Vec<Obs>, &[ActionId])> = self.iter().collect();
        entries.sort_by(|x, y| (x.0, x.1.len(), &x.1).cmp(&(y.0, y.1.len(), &y.1)));
        let mut out = String::new();
        let mut current: Option<Agent> = None;
        for (agent, history, actions) in entries {
            if current != Some(agent) {
                let name = if agent.index() < voc.agent_count() {
                    voc.agent_name(agent).to_owned()
                } else {
                    agent.to_string()
                };
                let _ = writeln!(out, "{name}:");
                current = Some(agent);
            }
            let hist: Vec<String> = history.iter().map(ToString::to_string).collect();
            let acts: Vec<String> = actions.iter().map(|&a| ctx.action_name(agent, a)).collect();
            let _ = writeln!(out, "  [{}] -> {}", hist.join(","), acts.join("|"));
        }
        out
    }

    /// Whether every entry is a singleton (a deterministic protocol).
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        self.default.len() == 1
            && self.agent_defaults.values().all(|v| v.len() == 1)
            && self
                .agents
                .iter()
                .flat_map(|e| &e.set_of)
                .all(|&id| id == NO_SET || self.sets.get(id).len() == 1)
    }
}

impl ProtocolFn for MapProtocol {
    fn actions(&self, view: &LocalView<'_>) -> Vec<ActionId> {
        self.get(view.agent, view.history)
            .or_else(|| self.agent_defaults.get(&view.agent).map(Vec::as_slice))
            .unwrap_or(&self.default)
            .to_vec()
    }
}

/// The maximally permissive protocol: every agent may always take any of
/// its actions. Running it generates the *full* system of the context —
/// the right system for verifying context-level properties with the model
/// checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullProtocol {
    action_counts: [usize; kbp_logic::Agent::MAX_AGENTS],
    agents: usize,
}

impl FullProtocol {
    /// Creates the full protocol for a context's action repertoires.
    #[must_use]
    pub fn for_context(ctx: &dyn crate::context::Context) -> Self {
        let mut action_counts = [0usize; kbp_logic::Agent::MAX_AGENTS];
        for (i, slot) in action_counts.iter_mut().take(ctx.agent_count()).enumerate() {
            *slot = ctx.action_count(Agent::new(i));
        }
        FullProtocol {
            action_counts,
            agents: ctx.agent_count(),
        }
    }
}

impl ProtocolFn for FullProtocol {
    fn actions(&self, view: &LocalView<'_>) -> Vec<ActionId> {
        debug_assert!(view.agent.index() < self.agents);
        (0..self.action_counts[view.agent.index()])
            .map(|k| ActionId(k as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_view_accessors() {
        let h = [Obs(1), Obs(2), Obs(3)];
        let v = LocalView {
            agent: Agent::new(0),
            history: &h,
        };
        assert_eq!(v.current(), Obs(3));
        assert_eq!(v.time(), 2);
    }

    #[test]
    fn empty_local_view_saturates_to_time_zero() {
        let v = LocalView {
            agent: Agent::new(0),
            history: &[],
        };
        assert_eq!(v.time(), 0);
        assert_eq!(v.current(), Obs(0));
    }

    #[test]
    fn map_protocol_lookup_and_default() {
        let a = Agent::new(0);
        let b = Agent::new(1);
        let mut p = MapProtocol::new(vec![ActionId(9)]);
        p.insert(a, vec![Obs(0), Obs(1)], vec![ActionId(1), ActionId(2)]);
        assert_eq!(
            p.get(a, &[Obs(0), Obs(1)]),
            Some(&[ActionId(1), ActionId(2)][..])
        );
        assert_eq!(p.get(b, &[Obs(0), Obs(1)]), None, "keyed per agent");
        let h = [Obs(0), Obs(1)];
        let v = LocalView {
            agent: b,
            history: &h,
        };
        assert_eq!(p.actions(&v), vec![ActionId(9)]);
        assert!(!p.is_deterministic());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn map_protocol_equality_ignores_insertion_order() {
        let (a, b, c) = (Agent::new(0), Agent::new(2), Agent::new(5));
        let mut p = MapProtocol::new(vec![ActionId(0)]);
        p.insert(a, vec![Obs(1)], vec![ActionId(1)]);
        p.insert(b, vec![Obs(1), Obs(2)], vec![ActionId(0), ActionId(1)]);
        let mut q = MapProtocol::new(vec![ActionId(0)]);
        q.insert(b, vec![Obs(1), Obs(2)], vec![ActionId(0), ActionId(1)]);
        q.insert(a, vec![Obs(1)], vec![ActionId(1)]);
        assert_eq!(p, q);
        q.insert(c, vec![Obs(0)], vec![ActionId(0)]);
        assert_ne!(p, q);
        assert_ne!(q, p);
        // Same entries under different agents differ.
        let mut r = MapProtocol::new(vec![ActionId(0)]);
        r.insert(c, vec![Obs(1)], vec![ActionId(1)]);
        r.insert(b, vec![Obs(1), Obs(2)], vec![ActionId(0), ActionId(1)]);
        assert_ne!(p, r);
        // Defaults take part.
        let mut d = p.clone();
        d.set_agent_default(a, vec![ActionId(1)]);
        assert_ne!(p, d);
        assert_eq!((p.len(), q.len()), (2, 3));
        let mut entries: Vec<_> = q.iter().map(|(agent, h, _)| (agent, h)).collect();
        entries.sort();
        assert_eq!(
            entries,
            vec![
                (a, vec![Obs(1)]),
                (b, vec![Obs(1), Obs(2)]),
                (c, vec![Obs(0)])
            ]
        );
    }

    #[test]
    fn map_protocol_equality_ignores_interning_order() {
        let (a, b) = (Agent::new(0), Agent::new(1));
        let (one, both) = (vec![ActionId(1)], vec![ActionId(0), ActionId(1)]);
        let rows = [
            (a, vec![Obs(0)], one.clone()),
            (a, vec![Obs(1)], both.clone()),
            (b, vec![Obs(0)], both.clone()),
            (b, vec![Obs(2)], one.clone()),
        ];
        // `p` meets `one` first and `q` meets `both` first, so the two
        // tables intern the same sets under swapped ids.
        let mut p = MapProtocol::new(vec![ActionId(0)]);
        for (agent, h, acts) in rows.iter().cloned() {
            p.insert(agent, h, acts);
        }
        let mut q = MapProtocol::new(vec![ActionId(0)]);
        for k in [1, 2, 3, 0] {
            let (agent, h, acts) = rows[k].clone();
            q.insert(agent, h, acts);
        }
        assert_eq!(p, q);
        assert_eq!(q, p);
        // One differing set breaks equality either way round.
        let mut r = q.clone();
        r.insert(b, vec![Obs(2)], both.clone());
        assert_ne!(p, r);
        assert_ne!(r, p);
        // Overwriting it back restores equality, though `r` still holds
        // the set it no longer uses.
        r.insert(b, vec![Obs(2)], one);
        assert_eq!(p, r);
        assert_eq!(r.get(b, &[Obs(2)]), Some(&[ActionId(1)][..]));
    }

    #[test]
    fn map_protocol_actions_fall_back_to_agent_then_global_default() {
        let (a, b, c) = (Agent::new(0), Agent::new(1), Agent::new(7));
        let mut p = MapProtocol::new(vec![ActionId(9)]);
        p.set_agent_default(b, vec![ActionId(4)]);
        p.insert(b, vec![Obs(3)], vec![ActionId(2)]);
        let actions = |agent, history: &[Obs]| p.actions(&LocalView { agent, history });
        assert_eq!(actions(b, &[Obs(3)]), vec![ActionId(2)], "entry");
        assert_eq!(actions(b, &[Obs(4)]), vec![ActionId(4)], "agent default");
        assert_eq!(actions(a, &[Obs(3)]), vec![ActionId(9)], "global default");
        assert_eq!(
            actions(c, &[Obs(3)]),
            vec![ActionId(9)],
            "agent past the table"
        );
    }

    #[test]
    fn entries_on_an_interior_node_and_its_extension() {
        let a = Agent::new(0);
        let mut p = MapProtocol::new(vec![ActionId(0)]);
        p.insert(a, vec![Obs(1), Obs(2)], vec![ActionId(1)]);
        p.insert(a, vec![Obs(1), Obs(2), Obs(3)], vec![ActionId(2)]);
        assert_eq!(p.get(a, &[Obs(1), Obs(2)]), Some(&[ActionId(1)][..]));
        assert_eq!(
            p.get(a, &[Obs(1), Obs(2), Obs(3)]),
            Some(&[ActionId(2)][..])
        );
        assert_eq!(p.len(), 2);
        // The root on their path is interned but holds no entry.
        assert_eq!(p.get(a, &[Obs(1)]), None, "interior node without entry");
        assert_eq!(p.get(a, &[Obs(1), Obs(3)]), None, "missing path");
        assert_eq!(p.get(a, &[Obs(2)]), None, "missing root");
        assert_eq!(p.get(a, &[]), None, "empty history");
        let entries: Vec<_> = p
            .iter()
            .map(|(agent, h, acts)| (agent, h, acts.to_vec()))
            .collect();
        assert_eq!(
            entries,
            vec![
                (a, vec![Obs(1), Obs(2)], vec![ActionId(1)]),
                (a, vec![Obs(1), Obs(2), Obs(3)], vec![ActionId(2)]),
            ],
            "forest order, prefixes first"
        );
    }

    #[test]
    fn insert_overwrites_an_entry() {
        let a = Agent::new(3);
        let mut p = MapProtocol::new(vec![ActionId(0)]);
        p.insert(a, vec![Obs(1)], vec![ActionId(1)]);
        p.insert(a, vec![Obs(1)], vec![ActionId(2)]);
        assert_eq!(p.get(a, &[Obs(1)]), Some(&[ActionId(2)][..]));
        assert_eq!(p.len(), 1);
        assert_eq!(p.iter().count(), 1);
    }

    #[test]
    fn equality_ignores_forest_and_set_interning_order() {
        let (a, b) = (Agent::new(0), Agent::new(1));
        let rows = [
            (a, vec![Obs(5)], vec![ActionId(1)]),
            (
                a,
                vec![Obs(5), Obs(6), Obs(7)],
                vec![ActionId(0), ActionId(2)],
            ),
            (a, vec![Obs(4), Obs(6)], vec![ActionId(2)]),
            (b, vec![Obs(6), Obs(6)], vec![ActionId(1)]),
        ];
        let mut p = MapProtocol::new(vec![ActionId(0)]);
        for (agent, h, acts) in rows.iter().cloned() {
            p.insert(agent, h, acts);
        }
        // `q` interns the forests and the sets in another order, starting
        // with one entry `p` lacks.
        let mut q = MapProtocol::new(vec![ActionId(0)]);
        q.insert(b, vec![Obs(4)], vec![ActionId(9)]);
        for (agent, h, acts) in rows.iter().rev().cloned() {
            q.insert(agent, h, acts);
        }
        assert_ne!(p, q, "q holds one more entry");
        let mut p2 = p.clone();
        p2.insert(b, vec![Obs(4)], vec![ActionId(9)]);
        assert_eq!(p2, q);
        assert_eq!(q, p2);
        // The same entries under a different set, or a different history,
        // differ.
        let mut r = q.clone();
        r.insert(a, vec![Obs(5), Obs(6), Obs(7)], vec![ActionId(2)]);
        assert_ne!(p2, r);
        assert_ne!(r, p2);
        let mut s = MapProtocol::new(vec![ActionId(0)]);
        for (agent, h, acts) in rows.iter().cloned() {
            let mut h = h;
            h.reverse();
            s.insert(agent, h, acts);
        }
        assert_ne!(p, s);
        assert_ne!(s, p);
    }

    #[test]
    fn closure_protocols_work() {
        let p = |view: &LocalView<'_>| {
            if view.current() == Obs(0) {
                vec![ActionId(0)]
            } else {
                vec![ActionId(1)]
            }
        };
        let h = [Obs(5)];
        assert_eq!(
            ProtocolFn::actions(
                &p,
                &LocalView {
                    agent: Agent::new(0),
                    history: &h
                }
            ),
            vec![ActionId(1)]
        );
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_default_rejected() {
        let _ = MapProtocol::new(Vec::new());
    }

    #[test]
    fn pretty_rendering_groups_by_agent_and_sorts() {
        let mut voc = kbp_logic::Vocabulary::new();
        let a = voc.add_agent("alice");
        let b = voc.add_agent("bob");
        let ctx = crate::context::ContextBuilder::new(voc)
            .initial_state(crate::state::GlobalState::new(vec![0]))
            .agent_actions(a, ["wait", "go"])
            .agent_actions(b, ["wait"])
            .transition(|s, _| s.clone())
            .observe(|_, _| Obs(0))
            .props(|_, _| false)
            .build();
        let mut p = MapProtocol::new(vec![ActionId(0)]);
        p.insert(b, vec![Obs(0)], vec![ActionId(0)]);
        p.insert(a, vec![Obs(0), Obs(1)], vec![ActionId(0)]);
        p.insert(a, vec![Obs(0)], vec![ActionId(1)]);
        let s = p.to_pretty(&ctx);
        let alice_pos = s.find("alice:").unwrap();
        let bob_pos = s.find("bob:").unwrap();
        assert!(alice_pos < bob_pos, "{s}");
        assert!(s.contains("[obs:0] -> go"), "{s}");
        assert!(s.contains("[obs:0,obs:1] -> wait"), "{s}");
        // Short history before long one.
        assert!(s.find("[obs:0] -> go").unwrap() < s.find("[obs:0,obs:1]").unwrap());
    }

    #[test]
    fn determinism_check() {
        let mut p = MapProtocol::new(vec![ActionId(0)]);
        assert!(p.is_deterministic());
        p.insert(Agent::new(0), vec![Obs(1)], vec![ActionId(1)]);
        assert!(p.is_deterministic());
        p.insert(Agent::new(0), vec![Obs(2)], vec![ActionId(1), ActionId(0)]);
        assert!(!p.is_deterministic());
    }
}
