//! Synchronous generated systems: the finite prefix of `R^rep(P, γ)`.
//!
//! A [`SystemBuilder`] unrolls a context layer by layer. Layer `t` holds
//! the *points* at time `t`: epistemically distinct run prefixes, i.e.
//! (global state, per-agent local state) combinations. Each layer carries
//! an S5 model (worlds = points, partitions = equal local state) on which
//! knowledge formulas are evaluated — exactly the synchronous semantics of
//! FHMV's interpreted systems.
//!
//! Points with equal global state *and* equal local states for every agent
//! are merged: they satisfy the same atemporal, epistemic and
//! future-temporal formulas, and generate the same subtree, so merging is
//! sound for everything this workspace evaluates (there are no past-time
//! operators).

use crate::context::{ActionId, Context, ContextError, JointAction};
use crate::protocol::{ActionSets, LocalView, ProtocolFn, NO_SET};
use crate::state::{GlobalState, LocalId, LocalTable, Obs, StateId, StateTable};
use kbp_kripke::{Partition, S5Builder, S5Model, UnionFind};
use kbp_logic::{Agent, PropId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasher, RandomState};

/// How agents' local states evolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Recall {
    /// Local state = full observation history (FHMV's canonical choice;
    /// knowledge grows over time).
    #[default]
    Perfect,
    /// Local state = current observation only (memoryless agents;
    /// MCMAS-style "observational" semantics, still synchronous).
    Observational,
}

/// A point of the system: a node of layer `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// The time step (layer index).
    pub time: usize,
    /// The node index within the layer.
    pub node: usize,
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.time, self.node)
    }
}

/// One epistemically distinct point at a fixed time.
#[derive(Debug, Clone)]
pub struct Node {
    state: StateId,
    locals: Vec<LocalId>,
    parents: Vec<u32>,
    edges: Vec<(u32, JointAction)>,
}

impl Node {
    /// The interned global state at this point.
    #[must_use]
    pub fn state(&self) -> StateId {
        self.state
    }

    /// The interned local state of `agent` at this point.
    ///
    /// # Panics
    ///
    /// Panics if the agent index is out of range.
    #[must_use]
    pub fn local(&self, agent: Agent) -> LocalId {
        self.locals[agent.index()]
    }

    /// All agents' local states, indexed by agent.
    #[must_use]
    pub fn locals(&self) -> &[LocalId] {
        &self.locals
    }

    /// Indices of this node's parents in the previous layer (empty at
    /// time 0).
    #[must_use]
    pub fn parents(&self) -> &[u32] {
        &self.parents
    }

    /// Outgoing edges: `(child index in next layer, joint action)`. Several
    /// edges may lead to the same child (different joint actions with equal
    /// effect). Empty in the last layer.
    #[must_use]
    pub fn edges(&self) -> &[(u32, JointAction)] {
        &self.edges
    }

    /// Deduplicated child indices in the next layer.
    #[must_use]
    pub fn children(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.edges.iter().map(|&(c, _)| c as usize).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// The bisimulation-class structure of a reduced layer. Node `k` is the
/// representative of class `k`; the structure records how many explicit
/// points each class stands for and, per agent, the local states those
/// points carry (the class-level indistinguishability structure).
///
/// Stored exactly on the layers the fused step generates; see DESIGN.md
/// §17.
#[derive(Debug, Clone)]
pub struct QuotientFrontier {
    /// Exact number of explicit points each class stands for.
    multiplicity: Vec<u64>,
    /// `members[agent].get(class)`: sorted, deduplicated local states
    /// held by the explicit points of the class. Always contains the
    /// representative's own local state.
    members: Vec<MemberLists>,
    /// Sum of all multiplicities: the explicit-equivalent layer width.
    explicit_points: u64,
}

impl QuotientFrontier {
    /// Number of bisimulation classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.multiplicity.len()
    }

    /// Exact number of explicit points `class` stands for.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[must_use]
    pub fn multiplicity(&self, class: usize) -> u64 {
        self.multiplicity[class]
    }

    /// The explicit-equivalent width of the layer: the number of points
    /// an explicit unrolling would hold at this time step.
    #[must_use]
    pub fn explicit_points(&self) -> u64 {
        self.explicit_points
    }

    /// The local states of `agent` across the explicit points of
    /// `class`, sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if the agent or class is out of range.
    #[must_use]
    pub fn members(&self, agent: Agent, class: usize) -> &[LocalId] {
        self.members[agent.index()].get(class)
    }
}

/// One agent's member-local lists, one list per class, flat: list `c` is
/// `locals[start[c]..start[c + 1]]`. Lists are appended at the tail of
/// the buffer and sorted and deduplicated in place when closed, so a
/// layer's lists cost two allocations whatever their number.
#[derive(Debug, Clone)]
struct MemberLists {
    /// One more entry than there are closed lists; the last is where the
    /// open list begins.
    start: Vec<u32>,
    locals: Vec<LocalId>,
}

impl MemberLists {
    fn with_capacity(lists: usize) -> Self {
        let mut start = Vec::with_capacity(lists + 1);
        start.push(0);
        MemberLists {
            start,
            locals: Vec::with_capacity(lists),
        }
    }

    /// Closed list `c`.
    fn get(&self, c: usize) -> &[LocalId] {
        &self.locals[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// Where the open list begins in the buffer.
    fn open_start(&self) -> usize {
        self.start[self.start.len() - 1] as usize
    }

    /// Sorts and deduplicates the open list in place, and closes it.
    fn close(&mut self) {
        let open = self.open_start();
        let list = &mut self.locals[open..];
        list.sort_unstable();
        let mut kept = 0;
        for r in 0..list.len() {
            if kept == 0 || list[r] != list[kept - 1] {
                list[kept] = list[r];
                kept += 1;
            }
        }
        self.locals.truncate(open + kept);
        self.start.push(self.locals.len() as u32);
    }

    /// Closes a list holding the buffer range `range` again, which is
    /// already sorted and deduplicated.
    fn close_copy_of(&mut self, range: std::ops::Range<usize>) {
        self.locals.extend_from_within(range);
        self.start.push(self.locals.len() as u32);
    }
}

/// The points at one time step, together with their S5 knowledge model.
#[derive(Debug, Clone)]
pub struct Layer {
    nodes: Vec<Node>,
    model: S5Model,
    quotient: Option<QuotientFrontier>,
}

impl Layer {
    /// The points in this layer.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of points materialized in this layer. On a layer generated
    /// by the fused step+quotient path these are bisimulation
    /// representatives; use [`explicit_len`](Self::explicit_len) for the
    /// width an explicit unrolling would have.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the layer is empty (never produced by the builder).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The explicit-equivalent width: the number of points an explicit
    /// unrolling would hold at this time step. Equals
    /// [`len`](Self::len) for explicitly generated layers.
    #[must_use]
    pub fn explicit_len(&self) -> u64 {
        match &self.quotient {
            Some(q) => q.explicit_points(),
            None => self.nodes.len() as u64,
        }
    }

    /// The number of explicit points node `node` stands for: its class
    /// multiplicity on a reduced layer (see [`is_reduced`](Self::is_reduced)),
    /// else `1`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range on a reduced layer.
    #[must_use]
    pub fn multiplicity(&self, node: usize) -> u64 {
        self.quotient.as_ref().map_or(1, |q| q.multiplicity(node))
    }

    /// The local states of `agent` at the explicit points node `node`
    /// stands for: the class's member locals on a reduced layer, else the
    /// node's own local state.
    ///
    /// # Panics
    ///
    /// Panics if the agent or node is out of range.
    #[must_use]
    pub fn members(&self, agent: Agent, node: usize) -> &[LocalId] {
        match &self.quotient {
            Some(q) => q.members(agent, node),
            None => std::slice::from_ref(&self.nodes[node].locals[agent.index()]),
        }
    }

    /// The bisimulation-class structure of a reduced layer; `None` on an
    /// explicit layer.
    #[must_use]
    pub fn quotient(&self) -> Option<&QuotientFrontier> {
        self.quotient.as_ref()
    }

    /// Whether the layer's nodes are class representatives (one node per
    /// bisimulation class, with multiplicities and member locals): true
    /// exactly for the layers the fused step generates.
    #[must_use]
    pub fn is_reduced(&self) -> bool {
        self.quotient.is_some()
    }

    /// The S5 model of this time slice: world `k` is node `k`, each
    /// agent's partition groups nodes with equal local state — or, on a
    /// reduced layer, links classes sharing any member local state — and
    /// the valuation is the context's valuation of the nodes' global
    /// states.
    #[must_use]
    pub fn model(&self) -> &S5Model {
        &self.model
    }
}

/// Errors raised while generating a system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The context failed validation.
    Context(ContextError),
    /// No action set was provided for a local state present in the layer.
    MissingChoice {
        /// The agent whose choice is missing.
        agent: Agent,
        /// The local state without a choice.
        local: LocalId,
    },
    /// An empty action set was provided (protocols must always act).
    EmptyChoice {
        /// The agent with the empty choice.
        agent: Agent,
        /// The local state with the empty choice.
        local: LocalId,
    },
    /// An action outside the agent's repertoire was chosen.
    ActionOutOfRange {
        /// The agent.
        agent: Agent,
        /// The offending action.
        action: ActionId,
    },
    /// The environment protocol offered no action at a reachable state.
    EnvStuck(GlobalState),
    /// The unrolling exceeded the configured node budget.
    NodeLimit {
        /// The configured limit.
        limit: usize,
    },
    /// Action choices disagreed across a bisimulation class: two points
    /// the fused generation path holds as one class were given different
    /// action sets. Protocols derived from subjective (knowledge-based)
    /// guards cannot trigger this — guard truth is constant on a class —
    /// so it flags externally supplied choices that are not functions of
    /// the knowledge state.
    QuotientChoiceMismatch {
        /// The agent whose choices disagree.
        agent: Agent,
        /// A member local state whose choice differs from its class
        /// representative's.
        local: LocalId,
    },
    /// Internal quotient bookkeeping failed. Defensive: the conditions
    /// (valuation mismatch, cross-class successor collisions under
    /// perfect recall) are unreachable for frontiers the builder agrees
    /// to fold, and surface as typed errors rather than wrong counts if
    /// an invariant is ever violated.
    Quotient(String),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::Context(e) => write!(f, "invalid context: {e}"),
            GenerateError::MissingChoice { agent, local } => {
                write!(
                    f,
                    "no action chosen for agent {agent} at local state {local}"
                )
            }
            GenerateError::EmptyChoice { agent, local } => {
                write!(
                    f,
                    "empty action set for agent {agent} at local state {local}"
                )
            }
            GenerateError::ActionOutOfRange { agent, action } => {
                write!(f, "action {action} outside the repertoire of agent {agent}")
            }
            GenerateError::EnvStuck(s) => {
                write!(f, "environment offers no action at reachable state {s}")
            }
            GenerateError::NodeLimit { limit } => {
                write!(f, "unrolling exceeded the node budget of {limit}")
            }
            GenerateError::QuotientChoiceMismatch { agent, local } => {
                write!(
                    f,
                    "choices disagree within a bisimulation class: agent {agent} at \
                     local state {local} differs from its class representative"
                )
            }
            GenerateError::Quotient(msg) => write!(f, "quotient generation failed: {msg}"),
        }
    }
}

impl Error for GenerateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GenerateError::Context(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ContextError> for GenerateError {
    fn from(e: ContextError) -> Self {
        GenerateError::Context(e)
    }
}

/// Per-step action choices: for each agent, an action set per local state
/// occurring in the current layer. A table may also hold choices for
/// local states of earlier layers, which a step ignores: the `kbp-core`
/// solver keeps one table for a whole solve and reads its protocol off
/// it ([`MapProtocol::from_choices`](crate::MapProtocol::from_choices)).
///
/// Keying by [`LocalId`] makes class-consistency automatic: all points
/// where the agent has the same local state necessarily receive the same
/// action set — the defining property of a protocol.
///
/// Each agent's choices are a dense slot vector over the window of local
/// ids set so far, so a lookup is an index, not a hash. Under perfect
/// recall a layer's local states are a contiguous id range; the window
/// grows geometrically at either end, so any `set` order costs amortized
/// constant time, and memory is proportional to the span of ids set.
/// Slots refer to an interned table of the distinct action sets (a
/// knowledge-based program induces at most `2^clauses` of them).
#[derive(Debug, Clone, Default)]
pub struct StepChoices {
    /// Indexed by agent.
    windows: Vec<ChoiceWindow>,
    /// The distinct action sets, by interned id.
    sets: ActionSets,
}

/// One agent's slots: `slots[k]` is the interned set id chosen for local
/// `lo + k`, or [`ChoiceWindow::UNSET`].
#[derive(Debug, Clone, Default)]
struct ChoiceWindow {
    lo: u32,
    slots: Vec<u32>,
}

impl ChoiceWindow {
    const UNSET: u32 = NO_SET;

    fn get(&self, local: LocalId) -> Option<u32> {
        let k = local.0.checked_sub(self.lo)? as usize;
        self.slots.get(k).copied().filter(|&id| id != Self::UNSET)
    }

    fn set(&mut self, local: LocalId, id: u32) {
        let l = local.0;
        if self.slots.is_empty() {
            self.lo = l;
        } else if l < self.lo {
            // Grow downwards by at least the current width, so a
            // descending fill stays linear.
            let lo = l.min(self.lo.saturating_sub(self.slots.len() as u32));
            let grow = (self.lo - lo) as usize;
            self.slots
                .splice(0..0, std::iter::repeat_n(Self::UNSET, grow));
            self.lo = lo;
        }
        let k = (l - self.lo) as usize;
        if k >= self.slots.len() {
            self.slots.resize(k + 1, Self::UNSET);
        }
        self.slots[k] = id;
    }
}

impl StepChoices {
    /// Creates an empty choice table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the action set for one `(agent, local state)` pair.
    pub fn set(&mut self, agent: Agent, local: LocalId, actions: Vec<ActionId>) {
        let id = self.intern_set(actions);
        self.set_interned(agent, local, id);
    }

    /// Interns an action set in this table, returning the id to pass to
    /// [`set_interned`](Self::set_interned): equal sets, equal ids.
    pub fn intern_set(&mut self, actions: Vec<ActionId>) -> u32 {
        self.sets.intern(actions)
    }

    /// Sets the action set for one `(agent, local state)` pair to the set
    /// interned under `id`, and returns the id the pair held before, if
    /// any.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`intern_set`](Self::intern_set)
    /// on this table.
    pub fn set_interned(&mut self, agent: Agent, local: LocalId, id: u32) -> Option<u32> {
        assert!(
            self.sets.contains(id),
            "action set id foreign to this table"
        );
        let i = agent.index();
        if i >= self.windows.len() {
            self.windows.resize_with(i + 1, ChoiceWindow::default);
        }
        let window = &mut self.windows[i];
        let prev = window.get(local);
        window.set(local, id);
        prev
    }

    /// Looks up the action set for a pair, if present.
    #[must_use]
    pub fn get(&self, agent: Agent, local: LocalId) -> Option<&[ActionId]> {
        self.set_id(agent, local).map(|id| self.sets.get(id))
    }

    /// For agent `i < lens.len()`, the set id chosen for each local id in
    /// `0..lens[i]` ([`NO_SET`] where none was), with the table the ids
    /// refer to. Agents past the last one given a choice get no vector.
    pub(crate) fn into_slots(self, lens: &[usize]) -> (Vec<Vec<u32>>, ActionSets) {
        let slots = self
            .windows
            .iter()
            .zip(lens)
            .map(|(w, &len)| {
                let mut dense = vec![NO_SET; len];
                let lo = (w.lo as usize).min(dense.len());
                let hi = (lo + w.slots.len()).min(dense.len());
                dense[lo..hi].copy_from_slice(&w.slots[..hi - lo]);
                dense
            })
            .collect();
        (slots, self.sets)
    }

    /// The interned id of the pair's action set: equal ids, equal sets.
    fn set_id(&self, agent: Agent, local: LocalId) -> Option<u32> {
        self.windows.get(agent.index())?.get(local)
    }

    /// The interned id of the action set for a pair, checked to be
    /// present, non-empty and within the agent's `action_count` actions.
    fn validated(
        &self,
        agent: Agent,
        local: LocalId,
        action_count: usize,
    ) -> Result<u32, GenerateError> {
        let id = self
            .set_id(agent, local)
            .ok_or(GenerateError::MissingChoice { agent, local })?;
        let set = self.sets.get(id);
        if set.is_empty() {
            return Err(GenerateError::EmptyChoice { agent, local });
        }
        match set.iter().find(|a| a.index() >= action_count) {
            Some(&action) => Err(GenerateError::ActionOutOfRange { agent, action }),
            None => Ok(id),
        }
    }
}

/// Incrementally unrolls a context under externally supplied action
/// choices.
///
/// The `kbp-core` solver drives this builder directly (it must see each
/// layer's knowledge before choosing actions); plain protocol execution
/// uses [`SystemBuilder::step_with`] or the convenience function
/// [`generate`].
pub struct SystemBuilder<'c> {
    ctx: &'c dyn Context,
    recall: Recall,
    states: StateTable,
    locals: Vec<LocalTable>,
    layers: Vec<Layer>,
    node_limit: usize,
    nodes_created: usize,
    gen_quotient_min_worlds: usize,
}

impl Clone for SystemBuilder<'_> {
    /// Cloning snapshots the unrolling — used by search procedures that
    /// explore alternative action choices from a common prefix.
    fn clone(&self) -> Self {
        SystemBuilder {
            ctx: self.ctx,
            recall: self.recall,
            states: self.states.clone(),
            locals: self.locals.clone(),
            layers: self.layers.clone(),
            node_limit: self.node_limit,
            nodes_created: self.nodes_created,
            gen_quotient_min_worlds: self.gen_quotient_min_worlds,
        }
    }
}

impl fmt::Debug for SystemBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("layers", &self.layers.len())
            .field("nodes_created", &self.nodes_created)
            .finish_non_exhaustive()
    }
}

impl<'c> SystemBuilder<'c> {
    /// Starts an unrolling: validates the context and builds layer 0 from
    /// the initial states.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError::Context`] if the context is malformed.
    pub fn new(ctx: &'c dyn Context, recall: Recall) -> Result<Self, GenerateError> {
        ctx.validate()?;
        let agents = ctx.agent_count();
        let mut b = SystemBuilder {
            ctx,
            recall,
            states: StateTable::new(),
            locals: (0..agents).map(|_| LocalTable::new()).collect(),
            layers: Vec::new(),
            node_limit: 2_000_000,
            nodes_created: 0,
            gen_quotient_min_worlds: 0,
        };
        let mut index = PointIndex::new();
        let mut nodes: Vec<Node> = Vec::new();
        for state in ctx.initial_states() {
            let locals: Vec<LocalId> = (0..agents)
                .map(|i| {
                    let obs = ctx.observe(Agent::new(i), &state);
                    b.locals[i].intern_root(obs)
                })
                .collect();
            let sid = b.states.intern(state);
            if let Err(digest) = index.find(&nodes, sid, &locals) {
                index.insert(digest, nodes.len() as u32);
                nodes.push(Node {
                    state: sid,
                    locals,
                    parents: Vec::new(),
                    edges: Vec::new(),
                });
            }
        }
        b.nodes_created = nodes.len();
        let model = b.model_of(nodes.iter().map(Node::state), |w, i| {
            nodes[w].locals[i].index()
        });
        b.layers.push(Layer {
            nodes,
            model,
            quotient: None,
        });
        Ok(b)
    }

    /// Caps the total number of nodes the unrolling may create
    /// (default: two million).
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// Sets the fused-generation gate: only explicit frontiers at least
    /// this wide are folded to bisimulation representatives (with
    /// multiplicities) before stepping. The default `0` fuses every
    /// eligible frontier; `usize::MAX` keeps generation explicit, for
    /// callers whose state indexes explicit points.
    pub fn set_gen_quotient_min_worlds(&mut self, worlds: usize) {
        self.gen_quotient_min_worlds = worlds;
    }

    /// The fused-generation gate in force.
    #[must_use]
    pub fn gen_quotient_min_worlds(&self) -> usize {
        self.gen_quotient_min_worlds
    }

    /// The context being unrolled.
    #[must_use]
    pub fn context(&self) -> &'c dyn Context {
        self.ctx
    }

    /// The recall discipline in force.
    #[must_use]
    pub fn recall(&self) -> Recall {
        self.recall
    }

    /// Index of the last layer built so far (time of the frontier).
    #[must_use]
    pub fn time(&self) -> usize {
        self.layers.len() - 1
    }

    /// The frontier layer.
    ///
    /// # Panics
    ///
    /// Panics if the builder holds no layers — impossible by construction,
    /// since layer 0 is built in `new` and never removed.
    #[must_use]
    pub fn current(&self) -> &Layer {
        &self.layers[self.layers.len() - 1]
    }

    /// A previously built layer.
    ///
    /// # Panics
    ///
    /// Panics if `t > self.time()`.
    #[must_use]
    pub fn layer(&self, t: usize) -> &Layer {
        &self.layers[t]
    }

    /// The observation history of a local state of `agent` (as a protocol
    /// would see it).
    ///
    /// # Panics
    ///
    /// Panics if the ids are foreign to this builder.
    #[must_use]
    pub fn local_history(&self, agent: Agent, local: LocalId) -> Vec<Obs> {
        self.locals[agent.index()].history(local)
    }

    /// The global state interned under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is foreign to this builder.
    #[must_use]
    pub fn global_state(&self, id: StateId) -> &GlobalState {
        self.states.state(id)
    }

    /// The distinct `(agent, local state)` pairs of the frontier layer —
    /// exactly the pairs a [`StepChoices`] for the next
    /// [`step`](Self::step) must cover. On a reduced frontier this
    /// includes every *member* local state of every class, not just the
    /// representatives': the explicit points a class stands for are real
    /// run prefixes and a protocol must act at each of them.
    #[must_use]
    pub fn frontier_locals(&self) -> Vec<(Agent, LocalId)> {
        // First-occurrence order. Local ids are dense, so each agent's
        // dedup is a slot table over the range of ids it holds.
        let layer = self.current();
        let agents = self.ctx.agent_count();
        let mut seen: Vec<LocalSlots> = (0..agents)
            .map(|i| {
                LocalSlots::over(
                    (0..layer.len()).flat_map(|node| layer.members(Agent::new(i), node)),
                )
            })
            .collect();
        let mut out: Vec<(Agent, LocalId)> = Vec::new();
        let mut note = |i: usize, l: LocalId| {
            if seen[i].insert(l) {
                out.push((Agent::new(i), l));
            }
        };
        match layer.quotient() {
            Some(q) => {
                for i in 0..agents {
                    for c in 0..q.class_count() {
                        for &l in q.members(Agent::new(i), c) {
                            note(i, l);
                        }
                    }
                }
            }
            None => {
                for node in layer.nodes() {
                    for (i, &l) in node.locals.iter().enumerate() {
                        note(i, l);
                    }
                }
            }
        }
        out
    }

    /// The S5 model over worlds holding the given global states: the
    /// valuation is the context's, and an agent `i` cannot tell worlds
    /// `v` and `w` apart iff `key(v, i) == key(w, i)`. Keys are dense ids
    /// (local-state indices or member-link root labels), grouped through
    /// a slot table.
    fn model_of(
        &self,
        states: impl Iterator<Item = StateId>,
        key: impl Fn(usize, usize) -> usize,
    ) -> S5Model {
        let prop_count = self.ctx.vocabulary().prop_count();
        let mut mb = S5Builder::new(self.ctx.agent_count(), prop_count);
        for sid in states {
            let state = self.states.state(sid);
            let props = (0..prop_count)
                .map(|p| PropId::new(p as u32))
                .filter(|&p| self.ctx.prop_holds(p, state));
            mb.add_world(props);
        }
        for i in 0..self.ctx.agent_count() {
            mb.partition_by_index_key(Agent::new(i), |w| key(w.index(), i));
        }
        mb.build()
    }

    /// The bisimulation classes of `model`, whose world `w` holds global
    /// state `state(w)`, further split by global state: members of a
    /// class must share a transition function, not just a valuation.
    fn classes_of(
        &self,
        model: &S5Model,
        state: impl Fn(usize) -> StateId,
    ) -> Result<Partition, GenerateError> {
        let split = Partition::from_index_keys(model.world_count(), |w| state(w).index());
        let props: Vec<PropId> = (0..self.ctx.vocabulary().prop_count())
            .map(|p| PropId::new(p as u32))
            .collect();
        model
            .bisimilarity_within(&props, &[&split])
            .map_err(|e| GenerateError::Quotient(e.to_string()))
    }

    /// Extends the unrolling by one time step using the given choices.
    ///
    /// The frontier is stepped as classes, one successor set per class
    /// representative. A reduced frontier's classes are its nodes; an
    /// explicit frontier at least
    /// [`gen_quotient_min_worlds`](Self::gen_quotient_min_worlds) wide and
    /// free of perfect-recall twins is folded to its bisimulation classes
    /// first. Either way the step is *fused*: the successors are
    /// canonicalized and folded by multiplicity, so the new layer is
    /// reduced and nothing explicit is materialized (DESIGN.md §17).
    /// Otherwise every node is its own class and the successors are
    /// committed as an explicit layer. Solutions induced from the layers
    /// are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Returns a [`GenerateError`] if a choice is missing, empty or out of
    /// range, if two member locals of one class received different
    /// choices, if the environment protocol is stuck, or if the node
    /// budget is exceeded (in which case the builder's layers are left
    /// unchanged).
    pub fn step(&mut self, choices: &StepChoices) -> Result<(), GenerateError> {
        let ctx = self.ctx;
        let agents = ctx.agent_count();
        let recall = self.recall;
        let t = self.time();
        let layer = &self.layers[t];
        let fold = match layer.quotient {
            None if layer.len() >= self.gen_quotient_min_worlds => self.quotient_frontier()?,
            _ => None,
        };
        let (reps, folded) = match fold {
            Some((reps, q)) => (reps, Some(q)),
            None => ((0..layer.len() as u32).collect(), None),
        };
        let quotient = layer.quotient.as_ref().or(folded.as_ref());
        let fused = quotient.is_some();
        // Class `c` stands for `multiplicity(c)` explicit points carrying
        // the member locals `members(i, c)`; without a quotient every node
        // is its own class.
        let members = |i: usize, c: usize| match quotient {
            Some(q) => q.members[i].get(c),
            None => std::slice::from_ref(&layer.nodes[c].locals[i]),
        };
        let multiplicity = |c: usize| quotient.map_or(1, |q| q.multiplicity[c]);

        // Resolve and validate the action sets per class. Every member
        // local of a class must have received the representative's set —
        // the defining property of a knowledge-based protocol, violated
        // only by externally crafted choices.
        // `action_sets[c * agents + i]` is agent `i`'s set at class `c`.
        let action_counts: Vec<usize> = (0..agents)
            .map(|i| ctx.action_count(Agent::new(i)))
            .collect();
        let mut action_sets: Vec<&[ActionId]> = Vec::with_capacity(reps.len() * agents);
        for (c, &rep) in reps.iter().enumerate() {
            let node = &layer.nodes[rep as usize];
            for (i, &count) in action_counts.iter().enumerate() {
                let agent = Agent::new(i);
                let id = choices.validated(agent, node.locals[i], count)?;
                for &ml in members(i, c) {
                    if ml != node.locals[i] && choices.validated(agent, ml, count)? != id {
                        return Err(GenerateError::QuotientChoiceMismatch { agent, local: ml });
                    }
                }
                action_sets.push(choices.sets.get(id));
            }
        }

        // Successors of the representatives, deduplicated by
        // `(state, locals)`. A fused step also records each child's
        // lineage and, `agents` per child, its observations.
        let mut index = PointIndex::new();
        let mut children: Vec<Node> = Vec::new();
        let mut lineage: Vec<Lineage> = Vec::new();
        let mut child_obs: Vec<Obs> = Vec::new();
        let mut obs: Vec<Obs> = Vec::with_capacity(agents);
        let mut locals: Vec<LocalId> = Vec::with_capacity(agents);
        let mut new_edges: Vec<Vec<(u32, JointAction)>> = vec![Vec::new(); layer.len()];
        for (c, (&rep, sets)) in reps.iter().zip(action_sets.chunks(agents)).enumerate() {
            let node = &layer.nodes[rep as usize];
            let state = self.states.state(node.state).clone();
            let env_moves = ctx.env_actions(&state);
            if env_moves.is_empty() {
                return Err(GenerateError::EnvStuck(state));
            }
            // Cartesian product over agents' action sets.
            let mut combo: Vec<usize> = vec![0; agents];
            loop {
                let mut acts: Vec<ActionId> = (0..agents).map(|i| sets[i][combo[i]]).collect();
                for (e, &env) in env_moves.iter().enumerate() {
                    // The last move takes the vector itself: one
                    // allocation per edge.
                    let acts = if e + 1 == env_moves.len() {
                        std::mem::take(&mut acts)
                    } else {
                        acts.clone()
                    };
                    let joint = JointAction::new(env, acts);
                    let next = ctx.transition(&state, &joint);
                    obs.clear();
                    obs.extend((0..agents).map(|i| ctx.observe(Agent::new(i), &next)));
                    locals.clear();
                    locals.extend((0..agents).map(|i| match recall {
                        Recall::Perfect => self.locals[i].intern_child(node.locals[i], obs[i]),
                        Recall::Observational => self.locals[i].intern_root(obs[i]),
                    }));
                    let sid = self.states.intern(next);
                    let child = match index.find(&children, sid, &locals) {
                        Ok(child) => {
                            let child = child as usize;
                            if fused && lineage[child].last != c as u32 {
                                // A successor tuple shared by two classes
                                // forces equal parent local tuples under
                                // perfect recall — the classes are *twins*,
                                // and twins carry identical explicit fibers
                                // (see the fiber invariant on
                                // `quotient_frontier`), so the child's fiber
                                // is counted once, not summed.
                                let first = lineage[child].first as usize;
                                if recall == Recall::Perfect
                                    && (layer.nodes[reps[first] as usize].locals != node.locals
                                        || multiplicity(first) != multiplicity(c))
                                {
                                    return Err(GenerateError::Quotient(
                                        "cross-class successor collision between non-twin \
                                         classes under perfect recall"
                                            .into(),
                                    ));
                                }
                                lineage[child].last = c as u32;
                            }
                            child
                        }
                        Err(digest) => {
                            index.insert(digest, children.len() as u32);
                            children.push(Node {
                                state: sid,
                                locals: locals.clone(),
                                parents: Vec::new(),
                                edges: Vec::new(),
                            });
                            if fused {
                                lineage.push(Lineage {
                                    first: c as u32,
                                    last: c as u32,
                                    // Observational child tuples are explicit
                                    // points themselves (locals carry no
                                    // parent memory); a perfect-recall child
                                    // chains its parent class's fiber.
                                    multiplicity: match recall {
                                        Recall::Perfect => multiplicity(c),
                                        Recall::Observational => 1,
                                    },
                                });
                                child_obs.extend_from_slice(&obs);
                            }
                            children.len() - 1
                        }
                    };
                    let parents = &mut children[child].parents;
                    if parents.last() != Some(&rep) {
                        parents.push(rep);
                    }
                    new_edges[rep as usize].push((child as u32, joint));
                }
                // Advance the product counter.
                let mut k = 0;
                loop {
                    if k == agents {
                        break;
                    }
                    combo[k] += 1;
                    if combo[k] < sets[k].len() {
                        break;
                    }
                    combo[k] = 0;
                    k += 1;
                }
                if k == agents {
                    break;
                }
            }
        }

        let n_new = children.len();
        if self.nodes_created + n_new > self.node_limit {
            return Err(GenerateError::NodeLimit {
                limit: self.node_limit,
            });
        }

        let (nodes, model, quotient) = if fused {
            // Member locals of each child, per agent: the chain images of
            // its first parent class's member locals under the child's
            // observation (perfect recall), or the child's own root local
            // (observational). This is what keeps the local-state forest —
            // and with it every protocol history — explicit-complete while
            // the point tuples stay folded. Children of one class with one
            // observation share their image, so the cache keeps the buffer
            // range of the first and later ones copy it.
            let mut child_members: Vec<MemberLists> = (0..agents)
                .map(|_| MemberLists::with_capacity(n_new))
                .collect();
            let mut chain_cache: HashMap<(u32, usize, Obs), (u32, u32)> = HashMap::new();
            for (w, ch) in children.iter().enumerate() {
                let c = lineage[w].first;
                for (i, lists) in child_members.iter_mut().enumerate() {
                    let ms = members(i, c as usize);
                    // A lone member is the representative's own local,
                    // whose chain image is the child's local.
                    if recall == Recall::Observational || ms.len() == 1 {
                        lists.locals.push(ch.locals[i]);
                        lists.close();
                        continue;
                    }
                    let o = child_obs[w * agents + i];
                    match chain_cache.entry((c, i, o)) {
                        Entry::Occupied(e) => {
                            let (from, to) = *e.get();
                            lists.close_copy_of(from as usize..to as usize);
                        }
                        Entry::Vacant(v) => {
                            let table = &mut self.locals[i];
                            let from = lists.open_start();
                            lists
                                .locals
                                .extend(ms.iter().map(|&l| table.intern_child(l, o)));
                            lists.close();
                            v.insert((from as u32, lists.open_start() as u32));
                        }
                    }
                }
            }

            // Canonicalize: bisimilarity over the successor set, with the
            // class-level indistinguishability structure (children sharing
            // a member local are linked), seeded by global state only:
            // futures depend on the state, but not on which lineage
            // produced a point. Merging across parent classes is where
            // perfect-recall history compression comes from — distinct
            // observation histories over the same state whose knowledge
            // content coincides fold into one representative. The fold
            // unions the member locals of every merged child, so the folded
            // class's fiber is exactly the union of the (pairwise disjoint)
            // child fibers and the multiplicity sum stays an exact
            // explicit-point count.
            let roots = member_link_roots(agents, n_new, |w, i| child_members[i].get(w));
            let cmodel = self.model_of(children.iter().map(Node::state), |w, i| {
                roots[i][w] as usize
            });
            let classes = self.classes_of(&cmodel, |w| children[w].state)?;
            let labels = classes.block_ids();
            for e in new_edges.iter_mut().flatten() {
                e.0 = labels[e.0 as usize];
            }
            if classes.block_count() == n_new {
                // A discrete partition merges nothing: the children are
                // the classes and their model is the layer's.
                let multiplicity: Vec<u64> = lineage.iter().map(|l| l.multiplicity).collect();
                let explicit_points = multiplicity.iter().sum();
                let q = QuotientFrontier {
                    multiplicity,
                    members: child_members,
                    explicit_points,
                };
                (children, cmodel, Some(q))
            } else {
                let (reps, q) = fold_blocks(
                    &classes,
                    agents,
                    |w| lineage[w].multiplicity,
                    |w, i| child_members[i].get(w),
                );
                let nodes: Vec<Node> = classes
                    .blocks()
                    .zip(&reps)
                    .map(|(block, &rep)| {
                        let mut parents: Vec<u32> = block
                            .iter()
                            .flat_map(|&w| children[w as usize].parents.iter().copied())
                            .collect();
                        parents.sort_unstable();
                        parents.dedup();
                        Node {
                            state: children[rep as usize].state,
                            locals: children[rep as usize].locals.clone(),
                            parents,
                            edges: Vec::new(),
                        }
                    })
                    .collect();
                // Classes are linked iff they share a member local.
                let roots = member_link_roots(agents, nodes.len(), |c, i| q.members[i].get(c));
                let model =
                    self.model_of(nodes.iter().map(Node::state), |w, i| roots[i][w] as usize);
                (nodes, model, Some(q))
            }
        } else {
            let model = self.model_of(children.iter().map(Node::state), |w, i| {
                children[w].locals[i].index()
            });
            (children, model, None)
        };

        // Commit.
        self.nodes_created += n_new;
        for (ni, edges) in new_edges.into_iter().enumerate() {
            if !edges.is_empty() {
                self.layers[t].nodes[ni].edges = edges;
            }
        }
        self.layers.push(Layer {
            nodes,
            model,
            quotient,
        });
        Ok(())
    }

    /// Folds the explicit frontier into its bisimulation classes: per
    /// class the representative node (the block minimum), the
    /// multiplicity and the member locals. Returns `None` — leaving the
    /// step explicit — when the layer is not eligible: under perfect
    /// recall a frontier holding *twins* (distinct points that agree on
    /// every agent's local state and differ only in global state) cannot
    /// be folded, because twin points may sit in classes whose explicit
    /// fibers overlap without coinciding, making exact multiplicities
    /// unrecoverable from per-agent member sets.
    ///
    /// **Fiber invariant.** Folding a twin-free layer yields classes with
    /// pairwise *disjoint* fibers and pairwise distinct representative
    /// local tuples. One fused step preserves a weaker shape that is
    /// still exactly countable: any two classes have either disjoint
    /// fibers (distinct local tuples) or *identical* fibers (twin
    /// classes, born when one class branches to different global states
    /// under equal observations — both heirs chain the same parent
    /// fiber). A successor tuple shared across classes therefore always
    /// comes from twin parents, and its multiplicity is their common
    /// fiber size counted once ([`step`](Self::step) verifies twinhood
    /// defensively).
    fn quotient_frontier(&self) -> Result<Option<(Vec<u32>, QuotientFrontier)>, GenerateError> {
        let layer = self.current();
        let nodes = layer.nodes();
        if self.recall == Recall::Perfect {
            let mut seen: HashMap<&[LocalId], StateId> = HashMap::new();
            for node in nodes {
                if *seen.entry(node.locals()).or_insert(node.state) != node.state {
                    return Ok(None);
                }
            }
        }
        let classes = self.classes_of(layer.model(), |w| nodes[w].state)?;
        Ok(Some(fold_blocks(
            &classes,
            self.ctx.agent_count(),
            |_| 1,
            |w, i| std::slice::from_ref(&nodes[w].locals[i]),
        )))
    }

    /// Extends the unrolling by one step, deriving choices from a
    /// protocol.
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`](Self::step).
    pub fn step_with(&mut self, protocol: &dyn ProtocolFn) -> Result<(), GenerateError> {
        let mut choices = StepChoices::new();
        for (agent, local) in self.frontier_locals() {
            let history = self.local_history(agent, local);
            let view = LocalView {
                agent,
                history: &history,
            };
            choices.set(agent, local, protocol.actions(&view));
        }
        self.step(&choices)
    }

    /// Finalises the unrolling into an immutable [`InterpretedSystem`].
    #[must_use]
    pub fn finish(self) -> InterpretedSystem {
        InterpretedSystem {
            layers: self.layers,
            states: self.states,
            locals: self.locals,
            agents: self.ctx.agent_count(),
            recall: self.recall,
        }
    }
}

/// A set of local ids within a known range, as one flag per id.
struct LocalSlots {
    lo: usize,
    seen: Vec<bool>,
}

impl LocalSlots {
    /// An empty set over the range spanned by `locals`.
    fn over<'l>(locals: impl Iterator<Item = &'l LocalId>) -> Self {
        let (lo, hi) = locals.fold((usize::MAX, 0), |(lo, hi), l| {
            (lo.min(l.index()), hi.max(l.index()))
        });
        LocalSlots {
            lo,
            seen: vec![false; hi.saturating_sub(lo) + 1],
        }
    }

    /// Adds `l`, which must lie in the range; whether it was absent.
    fn insert(&mut self, l: LocalId) -> bool {
        !std::mem::replace(&mut self.seen[l.index() - self.lo], true)
    }
}

/// Union-find roots linking elements that share any member local for
/// an agent: `get(element, agent)` yields the element's member local
/// set. Returns, per agent, a root label in `0..n` per element — the
/// transitive closure of "shares a local", which is exactly the
/// equivalence an S5 partition can carry. The first holder of each local
/// sits in a slot table over the agent's local range; when no local is
/// held twice, every element is its own root and no union-find is built.
fn member_link_roots<'m>(
    agents: usize,
    n: usize,
    get: impl Fn(usize, usize) -> &'m [LocalId],
) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(agents);
    for i in 0..agents {
        let (lo, hi) = (0..n)
            .flat_map(|w| get(w, i))
            .fold((usize::MAX, 0), |(lo, hi), l| {
                (lo.min(l.index()), hi.max(l.index()))
            });
        let mut first = vec![u32::MAX; hi.saturating_sub(lo) + 1];
        let mut uf: Option<UnionFind> = None;
        for w in 0..n {
            for &l in get(w, i) {
                let slot = &mut first[l.index() - lo];
                if *slot == u32::MAX {
                    *slot = w as u32;
                } else {
                    uf.get_or_insert_with(|| UnionFind::new(n))
                        .union(*slot as usize, w);
                }
            }
        }
        out.push(match uf {
            Some(mut uf) => (0..n).map(|w| uf.find(w) as u32).collect(),
            None => (0..n as u32).collect(),
        });
    }
    out
}

/// Folds each block of `classes` into one class: the block minimum as
/// representative, the sum of its elements' multiplicities `mult`, and
/// per agent the sorted union of their member locals
/// `members(element, agent)`. Returns the representatives alongside.
fn fold_blocks<'m>(
    classes: &Partition,
    agents: usize,
    mult: impl Fn(usize) -> u64,
    members: impl Fn(usize, usize) -> &'m [LocalId],
) -> (Vec<u32>, QuotientFrontier) {
    let k = classes.block_count();
    let mut reps = Vec::with_capacity(k);
    let mut multiplicity = Vec::with_capacity(k);
    let mut per_agent: Vec<MemberLists> =
        (0..agents).map(|_| MemberLists::with_capacity(k)).collect();
    for block in classes.blocks() {
        // Blocks ascend, so the first element is the minimum.
        reps.push(block.first().copied().unwrap_or(0));
        multiplicity.push(block.iter().map(|&w| mult(w as usize)).sum());
        for (i, lists) in per_agent.iter_mut().enumerate() {
            for &w in block {
                lists.locals.extend_from_slice(members(w as usize, i));
            }
            lists.close();
        }
    }
    let explicit_points = multiplicity.iter().sum();
    let q = QuotientFrontier {
        multiplicity,
        members: per_agent,
        explicit_points,
    };
    (reps, q)
}

/// Deduplicates a layer's points by `(state, locals)` without owning a
/// key per point: the map holds a SipHash digest of the pair under a
/// random key drawn per layer, and points whose digests collide are
/// chained and compared against the stored nodes themselves.
struct PointIndex {
    hasher: RandomState,
    /// The latest point with each digest.
    latest: HashMap<u64, u32>,
    /// `earlier[k]`: the previous point with point `k`'s digest, or
    /// [`PointIndex::NONE`].
    earlier: Vec<u32>,
}

impl PointIndex {
    const NONE: u32 = u32::MAX;

    fn new() -> Self {
        PointIndex {
            hasher: RandomState::new(),
            latest: HashMap::new(),
            earlier: Vec::new(),
        }
    }

    /// The index of point `(state, locals)` among `nodes`, or the digest
    /// to [`insert`](Self::insert) it under.
    fn find(&self, nodes: &[Node], state: StateId, locals: &[LocalId]) -> Result<u32, u64> {
        let digest = self.hasher.hash_one((state, locals));
        let mut k = self.latest.get(&digest).copied().unwrap_or(Self::NONE);
        while k != Self::NONE {
            let node = &nodes[k as usize];
            if node.state == state && node.locals == locals {
                return Ok(k);
            }
            k = self.earlier[k as usize];
        }
        Err(digest)
    }

    /// Records point `k`, the next one pushed, under `digest`.
    fn insert(&mut self, digest: u64, k: u32) {
        debug_assert_eq!(k as usize, self.earlier.len());
        let earlier = self.latest.insert(digest, k).unwrap_or(Self::NONE);
        self.earlier.push(earlier);
    }
}

/// How a child of a fused step descends from the frontier's classes.
struct Lineage {
    /// The first class that reached the child; its member locals' chain
    /// images are the child's.
    first: u32,
    /// The latest class that reached the child (classes step in order).
    last: u32,
    /// Exact number of explicit points the child stands for.
    multiplicity: u64,
}

/// A finished bounded unrolling of a protocol in a context: FHMV's
/// interpreted system, truncated at a horizon.
///
/// Points are addressed as [`Point`]s; knowledge is evaluated on each
/// layer's S5 model, temporal operators by backward induction over layers
/// (see [`Evaluator`](crate::Evaluator)).
#[derive(Debug)]
pub struct InterpretedSystem {
    layers: Vec<Layer>,
    states: StateTable,
    locals: Vec<LocalTable>,
    agents: usize,
    recall: Recall,
}

impl InterpretedSystem {
    /// Number of layers (horizon + 1).
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The horizon: largest time step in the system.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.layers.len() - 1
    }

    /// Number of agents.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.agents
    }

    /// The recall discipline the system was generated under.
    #[must_use]
    pub fn recall(&self) -> Recall {
        self.recall
    }

    /// The layer at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= layer_count`.
    #[must_use]
    pub fn layer(&self, t: usize) -> &Layer {
        &self.layers[t]
    }

    /// Iterates over all points, layer by layer.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.layers
            .iter()
            .enumerate()
            .flat_map(|(t, layer)| (0..layer.len()).map(move |node| Point { time: t, node }))
    }

    /// Total number of points materialized (bisimulation representatives
    /// on layers generated by the fused step+quotient path).
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.layers.iter().map(Layer::len).sum()
    }

    /// Total number of explicit-equivalent points: the point count an
    /// explicit unrolling of the same context and protocol would have.
    /// Equals [`point_count`](Self::point_count) when no layer was
    /// generated by the fused step+quotient path.
    #[must_use]
    pub fn explicit_point_count(&self) -> u64 {
        self.layers.iter().map(Layer::explicit_len).sum()
    }

    /// The node behind a point.
    ///
    /// # Panics
    ///
    /// Panics if the point is out of range.
    #[must_use]
    pub fn node(&self, point: Point) -> &Node {
        &self.layers[point.time].nodes[point.node]
    }

    /// The global state at a point.
    ///
    /// # Panics
    ///
    /// Panics if the point is out of range.
    #[must_use]
    pub fn global_state(&self, point: Point) -> &GlobalState {
        self.states.state(self.node(point).state)
    }

    /// The observation history of `agent`'s local state `local` (length
    /// `time+1` under perfect recall, `1` under observational semantics).
    ///
    /// # Panics
    ///
    /// Panics if the ids are foreign to this system.
    #[must_use]
    pub fn local_view(&self, agent: Agent, local: LocalId) -> Vec<Obs> {
        self.locals[agent.index()].history(local)
    }

    /// The local-state forest of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn local_table(&self, i: usize) -> &LocalTable {
        &self.locals[i]
    }

    /// The local state of `agent` at `point`.
    ///
    /// # Panics
    ///
    /// Panics if the point or agent is out of range.
    #[must_use]
    pub fn local(&self, agent: Agent, point: Point) -> LocalId {
        self.node(point).local(agent)
    }

    /// Points of layer `point.time` the agent cannot distinguish from
    /// `point` (including the point itself).
    ///
    /// # Panics
    ///
    /// Panics if the point or agent is out of range.
    #[must_use]
    pub fn indistinguishable_points(&self, agent: Agent, point: Point) -> Vec<Point> {
        let layer = &self.layers[point.time];
        layer
            .model()
            .cell(agent, kbp_kripke::WorldId::new(point.node))
            .iter()
            .map(|&w| Point {
                time: point.time,
                node: w as usize,
            })
            .collect()
    }
}

/// Generates the bounded system of `protocol` in `ctx`: unrolls `horizon`
/// steps (producing `horizon + 1` layers). Eligible layers are generated
/// fused, as by [`SystemBuilder::step`]; a protocol that acts differently
/// at bisimilar points, which fused generation refuses, is unrolled
/// explicitly instead.
///
/// # Errors
///
/// Propagates any [`GenerateError`] from the builder.
///
/// # Example
///
/// ```
/// use kbp_systems::{generate, ContextBuilder, GlobalState, Obs, Recall, ActionId, LocalView};
/// use kbp_logic::Vocabulary;
///
/// let mut voc = Vocabulary::new();
/// let agent = voc.add_agent("counter");
/// let ctx = ContextBuilder::new(voc)
///     .initial_state(GlobalState::new(vec![0]))
///     .agent_actions(agent, ["tick"])
///     .transition(|s, _| s.with_reg(0, s.reg(0) + 1))
///     .observe(|_, s| Obs(u64::from(s.reg(0))))
///     .props(|_, _| false)
///     .build();
/// let tick = |_: &LocalView<'_>| vec![ActionId(0)];
/// let sys = generate(&ctx, &tick, Recall::Perfect, 3)?;
/// assert_eq!(sys.layer_count(), 4);
/// # Ok::<(), kbp_systems::GenerateError>(())
/// ```
pub fn generate(
    ctx: &dyn Context,
    protocol: &dyn ProtocolFn,
    recall: Recall,
    horizon: usize,
) -> Result<InterpretedSystem, GenerateError> {
    unroll_or_explicit(ctx, recall, |mut b| {
        for _ in 0..horizon {
            b.step_with(protocol)?;
        }
        Ok(b.finish())
    })
}

/// Runs `unroll` on a fresh builder. If fused generation refuses the
/// protocol's choices because they split a bisimulation class, runs it
/// again on a builder that keeps generation explicit, where every
/// protocol can be unrolled.
fn unroll_or_explicit<'c, T>(
    ctx: &'c dyn Context,
    recall: Recall,
    unroll: impl Fn(SystemBuilder<'c>) -> Result<T, GenerateError>,
) -> Result<T, GenerateError> {
    match unroll(SystemBuilder::new(ctx, recall)?) {
        Err(GenerateError::QuotientChoiceMismatch { .. }) => {
            let mut b = SystemBuilder::new(ctx, recall)?;
            b.set_gen_quotient_min_worlds(usize::MAX);
            unroll(b)
        }
        done => done,
    }
}

/// Generates the bounded system of `protocol`, stopping early once two
/// consecutive layers are structurally equivalent (see
/// [`InterpretedSystem::stabilization`]) or `max_horizon` is reached.
///
/// Returns the system together with the stabilisation layer, if found.
/// Checking signatures after every step costs roughly one colour
/// refinement per layer — worth it whenever stabilisation is expected
/// well before the horizon. Protocols that act differently at bisimilar
/// points are unrolled explicitly, as by [`generate`].
///
/// # Errors
///
/// Propagates any [`GenerateError`] from the builder.
///
/// # Example
///
/// ```
/// use kbp_systems::{generate_until_stable, ContextBuilder, GlobalState, Obs,
///                   Recall, ActionId, LocalView};
/// use kbp_logic::Vocabulary;
///
/// let mut voc = Vocabulary::new();
/// let agent = voc.add_agent("x");
/// let ctx = ContextBuilder::new(voc)
///     .initial_state(GlobalState::new(vec![0]))
///     .agent_actions(agent, ["tick"])
///     .transition(|s, _| s.with_reg(0, (s.reg(0) + 1).min(3)))
///     .observe(|_, s| Obs(u64::from(s.reg(0))))
///     .props(|_, _| false)
///     .build();
/// let tick = |_: &LocalView<'_>| vec![ActionId(0)];
/// let (sys, stable) = generate_until_stable(&ctx, &tick, Recall::Perfect, 50)?;
/// assert_eq!(stable, Some(3));       // counter saturates at 3
/// assert!(sys.layer_count() <= 6);   // far less than the 50 allowed
/// # Ok::<(), kbp_systems::GenerateError>(())
/// ```
pub fn generate_until_stable(
    ctx: &dyn Context,
    protocol: &dyn ProtocolFn,
    recall: Recall,
    max_horizon: usize,
) -> Result<(InterpretedSystem, Option<usize>), GenerateError> {
    // Signatures are defined on finished systems; snapshot via clone.
    let sig = |b: &SystemBuilder<'_>| {
        let snapshot = b.clone().finish();
        snapshot.layer_signature(snapshot.horizon())
    };
    unroll_or_explicit(ctx, recall, |mut b| {
        let mut prev = sig(&b);
        for t in 0..max_horizon {
            b.step_with(protocol)?;
            let cur = sig(&b);
            if cur == prev {
                return Ok((b.finish(), Some(t)));
            }
            prev = cur;
        }
        Ok((b.finish(), None))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ContextBuilder, EnvActionId, FnContext};
    use kbp_logic::{Formula, Vocabulary};

    /// One agent; hidden bit fixed at start (two initial states); the
    /// agent observes nothing (obs 0); action "look" flips a flag that
    /// makes the bit observable afterwards.
    fn peek_context() -> FnContext {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("peeker");
        let bit = voc.add_prop("bit");
        ContextBuilder::new(voc)
            .initial_states([GlobalState::new(vec![0, 0]), GlobalState::new(vec![1, 0])])
            .agent_actions(a, ["noop", "look"])
            .transition(|s, j| {
                if j.acts[0] == ActionId(1) {
                    s.with_reg(1, 1)
                } else {
                    s.with_reg(1, 0)
                }
            })
            .observe(|_, s| {
                if s.reg(1) == 1 {
                    Obs(u64::from(s.reg(0)) + 1) // 1 or 2: reveals bit
                } else {
                    Obs(0)
                }
            })
            .props(move |p, s| p == bit && s.reg(0) == 1)
            .build()
    }

    #[test]
    fn layer_zero_has_initial_uncertainty() {
        let ctx = peek_context();
        let b = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
        assert_eq!(b.time(), 0);
        assert_eq!(b.current().len(), 2);
        // The agent's layer-0 partition lumps both worlds together.
        let a = Agent::new(0);
        let m = b.current().model();
        assert!(m.indistinguishable(a, kbp_kripke::WorldId::new(0), kbp_kripke::WorldId::new(1)));
    }

    #[test]
    fn looking_reveals_the_bit() {
        let ctx = peek_context();
        let bit = ctx.vocabulary().prop("bit").unwrap();
        let a = Agent::new(0);
        let look = |_: &LocalView<'_>| vec![ActionId(1)];
        let sys = generate(&ctx, &look, Recall::Perfect, 1).unwrap();
        let layer1 = sys.layer(1);
        assert_eq!(layer1.len(), 2);
        // After looking, the agent knows whether bit.
        let f = Formula::knows_whether(a, Formula::prop(bit));
        let sat = layer1.model().satisfying(&f).unwrap();
        assert_eq!(sat.count(), 2);
    }

    #[test]
    fn not_looking_preserves_ignorance() {
        let ctx = peek_context();
        let bit = ctx.vocabulary().prop("bit").unwrap();
        let a = Agent::new(0);
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 3).unwrap();
        for t in 0..=3 {
            let f = Formula::knows_whether(a, Formula::prop(bit));
            let sat = sys.layer(t).model().satisfying(&f).unwrap();
            assert!(sat.is_empty(), "agent should stay ignorant at t={t}");
        }
    }

    #[test]
    fn nondeterministic_choices_branch() {
        let ctx = peek_context();
        let either = |_: &LocalView<'_>| vec![ActionId(0), ActionId(1)];
        let sys = generate(&ctx, &either, Recall::Perfect, 1).unwrap();
        // 2 initial × 2 actions = 4 (bit,flag,obs-history) combinations.
        assert_eq!(sys.layer(1).len(), 4);
        // Each initial node has edges for both actions.
        let n0 = &sys.layer(0).nodes()[0];
        assert_eq!(n0.edges().len(), 2);
        assert_eq!(n0.children().len(), 2);
    }

    #[test]
    fn observational_recall_merges_histories() {
        let ctx = peek_context();
        // Alternate look/noop so that observations repeat.
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let perfect = generate(&ctx, &noop, Recall::Perfect, 2).unwrap();
        let obs = generate(&ctx, &noop, Recall::Observational, 2).unwrap();
        // Under perfect recall, local histories have length t+1.
        let a = Agent::new(0);
        let p = Point { time: 2, node: 0 };
        assert_eq!(perfect.local_view(a, perfect.local(a, p)).len(), 3);
        assert_eq!(obs.local_view(a, obs.local(a, p)).len(), 1);
    }

    #[test]
    fn missing_choice_is_reported() {
        let ctx = peek_context();
        let mut b = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
        let empty = StepChoices::new();
        let err = b.step(&empty).unwrap_err();
        assert!(matches!(err, GenerateError::MissingChoice { .. }));
    }

    #[test]
    fn out_of_range_action_is_reported() {
        let ctx = peek_context();
        let mut b = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
        let mut choices = StepChoices::new();
        for (agent, local) in b.frontier_locals() {
            choices.set(agent, local, vec![ActionId(7)]);
        }
        let err = b.step(&choices).unwrap_err();
        assert!(matches!(err, GenerateError::ActionOutOfRange { .. }));
    }

    /// Sets a choice for two agents at each id of `order`, in that order,
    /// and checks every lookup against a hash map, including ids around
    /// and between the ones set and agents never set.
    fn check_choices_order(order: &[u32]) {
        let agents = [Agent::new(0), Agent::new(3)];
        let sets: Vec<Vec<ActionId>> = (0..12u32)
            .map(|k| (0..=k % 3).map(|j| ActionId(k + j)).collect())
            .collect();
        let mut choices = StepChoices::new();
        let mut reference: HashMap<(Agent, LocalId), Vec<ActionId>> = HashMap::new();
        for (k, &raw) in order.iter().enumerate() {
            for (i, &agent) in agents.iter().enumerate() {
                let set = sets[(k + i) % sets.len()].clone();
                choices.set(agent, LocalId(raw), set.clone());
                reference.insert((agent, LocalId(raw)), set);
            }
        }
        let hi = order.iter().max().copied().unwrap_or(0) + 2;
        for agent in (0..5).map(Agent::new) {
            for raw in 0..hi {
                let local = LocalId(raw);
                assert_eq!(
                    choices.get(agent, local),
                    reference.get(&(agent, local)).map(Vec::as_slice),
                    "{agent} {local} after {order:?}"
                );
            }
        }
    }

    #[test]
    fn step_choices_any_set_order_matches_a_map() {
        let ascending: Vec<u32> = (40..90).collect();
        let descending: Vec<u32> = (40..90).rev().collect();
        // A permutation of every third id, leaving holes in the window.
        let scattered: Vec<u32> = (0..50).map(|k| 3 * ((k * 17) % 50) + 7).collect();
        for order in [&ascending, &descending, &scattered] {
            check_choices_order(order);
        }
        check_choices_order(&[]);
        check_choices_order(&[0, u32::from(u16::MAX)]);
    }

    #[test]
    fn step_choices_overwrite_and_absent_pairs() {
        let (a, b) = (Agent::new(0), Agent::new(1));
        let mut choices = StepChoices::new();
        assert_eq!(choices.get(a, LocalId(0)), None, "empty table");
        choices.set(a, LocalId(5), vec![ActionId(0)]);
        choices.set(a, LocalId(6), vec![ActionId(1)]);
        choices.set(a, LocalId(5), vec![ActionId(2), ActionId(3)]);
        assert_eq!(
            choices.get(a, LocalId(5)),
            Some(&[ActionId(2), ActionId(3)][..])
        );
        assert_eq!(choices.get(a, LocalId(6)), Some(&[ActionId(1)][..]));
        for raw in [0, 4, 7, u32::MAX] {
            assert_eq!(choices.get(a, LocalId(raw)), None, "never-set local {raw}");
        }
        assert_eq!(choices.get(b, LocalId(5)), None, "never-set agent");
        // An empty set is stored like any other; `step` refuses it.
        choices.set(b, LocalId(5), Vec::new());
        assert_eq!(choices.get(b, LocalId(5)), Some(&[][..]));
    }

    /// `step` names the offending pair of a bad choice table: missing,
    /// empty and out-of-range choices on an explicit frontier, and a
    /// class whose member locals received different sets on a fused one.
    #[test]
    fn step_reports_which_choice_is_bad() {
        let ctx = meeting_context();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let mut explicit = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
        explicit.set_gen_quotient_min_worlds(usize::MAX);
        explicit.step_with(&noop).unwrap();
        let x = Agent::new(0);
        let frontier = explicit.frontier_locals();
        let (_, bad) = *frontier.iter().rfind(|(agent, _)| *agent == x).unwrap();
        let with = |set: Option<Vec<ActionId>>| {
            let mut choices = StepChoices::new();
            for &(agent, local) in &frontier {
                match (&set, (agent, local) == (x, bad)) {
                    (Some(set), true) => choices.set(agent, local, set.clone()),
                    (None, true) => {}
                    (_, false) => choices.set(agent, local, vec![ActionId(0)]),
                }
            }
            explicit.clone().step(&choices).unwrap_err()
        };
        assert_eq!(
            with(None),
            GenerateError::MissingChoice {
                agent: x,
                local: bad
            }
        );
        assert_eq!(
            with(Some(Vec::new())),
            GenerateError::EmptyChoice {
                agent: x,
                local: bad
            }
        );
        assert_eq!(
            with(Some(vec![ActionId(1), ActionId(2)])),
            GenerateError::ActionOutOfRange {
                agent: x,
                action: ActionId(2)
            }
        );

        let mut fused = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
        fused.step_with(&noop).unwrap();
        assert!(fused.current().is_reduced());
        let rep = fused.current().nodes()[0].local(x);
        let mut choices = StepChoices::new();
        for (agent, local) in fused.frontier_locals() {
            let wave = agent == x && local != rep;
            choices.set(agent, local, vec![ActionId(u32::from(wave))]);
        }
        let other = *fused
            .current()
            .members(x, 0)
            .iter()
            .find(|&&l| l != rep)
            .unwrap();
        assert_eq!(
            fused.step(&choices).unwrap_err(),
            GenerateError::QuotientChoiceMismatch {
                agent: x,
                local: other
            }
        );
    }

    #[test]
    fn node_limit_is_enforced() {
        let ctx = peek_context();
        let mut b = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
        b.set_node_limit(2);
        let either = |_: &LocalView<'_>| vec![ActionId(0), ActionId(1)];
        let err = b.step_with(&either).unwrap_err();
        assert!(matches!(err, GenerateError::NodeLimit { limit: 2 }));
    }

    #[test]
    fn env_nondeterminism_branches() {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("watcher");
        let ctx = ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop"])
            .env_actions(["keep", "flip"])
            .env_protocol(|_| vec![EnvActionId(0), EnvActionId(1)])
            .transition(|s, j| {
                if j.env == EnvActionId(1) {
                    s.with_reg(0, 1 - s.reg(0))
                } else {
                    s.clone()
                }
            })
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(|_, _| false)
            .build();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 1).unwrap();
        assert_eq!(sys.layer(1).len(), 2);
    }

    #[test]
    fn points_iteration_and_counts() {
        let ctx = peek_context();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 2).unwrap();
        assert_eq!(sys.point_count(), sys.points().count());
        assert_eq!(sys.horizon(), 2);
        for p in sys.points() {
            let _ = sys.global_state(p);
        }
    }

    #[test]
    fn frontier_locals_keep_first_occurrence_order() {
        // x sees the initial bit, y sees nothing; the step resets the bit,
        // so both runs meet in one global state with x-histories apart.
        let mut voc = Vocabulary::new();
        let x = voc.add_agent("x");
        let y = voc.add_agent("y");
        let ctx = ContextBuilder::new(voc)
            .initial_states([GlobalState::new(vec![0]), GlobalState::new(vec![1])])
            .agent_actions(x, ["noop"])
            .agent_actions(y, ["noop"])
            .transition(|s, _| s.with_reg(0, 0))
            .observe(|agent, s| {
                if agent.index() == 0 {
                    Obs(u64::from(s.reg(0)))
                } else {
                    Obs(0)
                }
            })
            .props(|_, _| false)
            .build();
        let mut b = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
        // Explicit frontier: node-major, agent-minor, y's shared local once.
        let nodes = b.current().nodes();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].local(y), nodes[1].local(y));
        let want = vec![
            (x, nodes[0].local(x)),
            (y, nodes[0].local(y)),
            (x, nodes[1].local(x)),
        ];
        assert_eq!(b.frontier_locals(), want);
        // Reduced frontier: one class standing for both runs; agent-major,
        // then class, then sorted member locals.
        b.set_gen_quotient_min_worlds(0);
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        b.step_with(&noop).unwrap();
        assert!(b.current().is_reduced());
        let q = b.current().quotient().unwrap();
        assert_eq!(q.class_count(), 1);
        let xs = q.members(x, 0);
        assert_eq!(xs.len(), 2);
        let want = vec![(x, xs[0]), (x, xs[1]), (y, q.members(y, 0)[0])];
        assert_eq!(b.frontier_locals(), want);
    }

    #[test]
    fn dedup_merges_epistemically_equal_points() {
        // Environment flips a register that nobody observes and that no
        // proposition reads... but it DOES change the global state, so
        // nodes do not merge. Instead: two env actions with the same
        // effect — children must merge.
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("x");
        let ctx = ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop"])
            .env_protocol(|_| vec![EnvActionId(0), EnvActionId(1)])
            .transition(|s, _| s.clone()) // both env actions do nothing
            .observe(|_, _| Obs(0))
            .props(|_, _| false)
            .build();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 1).unwrap();
        assert_eq!(sys.layer(1).len(), 1, "identical successors merge");
        // Both joint actions are remembered on the edges.
        assert_eq!(sys.layer(0).nodes()[0].edges().len(), 2);
        assert_eq!(sys.layer(0).nodes()[0].children(), vec![0]);
    }

    /// x sees an initial bit, y sees nothing; the step resets the bit, so
    /// both runs meet in one global state with x-histories apart. Layer 0
    /// is twin-free, so default generation fuses from the start and layer
    /// 1 holds one class standing for both runs.
    fn meeting_context() -> FnContext {
        let mut voc = Vocabulary::new();
        let x = voc.add_agent("x");
        let y = voc.add_agent("y");
        ContextBuilder::new(voc)
            .initial_states([GlobalState::new(vec![0]), GlobalState::new(vec![1])])
            .agent_actions(x, ["noop", "wave"])
            .agent_actions(y, ["noop"])
            .transition(|s, _| s.with_reg(0, 0))
            .observe(|agent, s| {
                if agent.index() == 0 {
                    Obs(u64::from(s.reg(0)))
                } else {
                    Obs(0)
                }
            })
            .props(|_, _| false)
            .build()
    }

    #[test]
    fn a_fused_step_leaves_the_explicit_frontier_explicit() {
        let ctx = meeting_context();
        let mut b = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        b.step_with(&noop).unwrap();
        assert!(b.layer(0).quotient().is_none());
        assert!(!b.layer(0).is_reduced());
        assert_eq!(b.layer(0).multiplicity(1), 1);
        assert!(b.layer(1).is_reduced());
        assert_eq!(b.layer(1).len(), 1);
        assert_eq!(b.layer(1).explicit_len(), 2);
    }

    #[test]
    fn every_stored_quotient_is_reduced() {
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let either = |_: &LocalView<'_>| vec![ActionId(0), ActionId(1)];
        let (peek, meet) = (peek_context(), meeting_context());
        let mut reduced = 0;
        for (ctx, protocol) in [
            (&peek, &noop as &dyn ProtocolFn),
            (&peek, &either),
            (&meet, &noop),
        ] {
            for recall in [Recall::Perfect, Recall::Observational] {
                let sys = generate(ctx, protocol, recall, 3).unwrap();
                for t in 0..sys.layer_count() {
                    let layer = sys.layer(t);
                    assert_eq!(layer.is_reduced(), layer.quotient().is_some());
                    let weight: u64 = (0..layer.len()).map(|n| layer.multiplicity(n)).sum();
                    assert_eq!(weight, layer.explicit_len());
                    if let Some(q) = layer.quotient() {
                        assert_eq!(q.class_count(), layer.len());
                        assert_eq!(q.explicit_points(), layer.explicit_len());
                        reduced += 1;
                    }
                }
            }
        }
        assert!(reduced > 0, "no layer was generated fused");
    }

    #[test]
    fn layer_members_are_own_locals_or_class_members() {
        let ctx = meeting_context();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 1).unwrap();
        let explicit = sys.layer(0);
        assert!(!explicit.is_reduced());
        for (n, node) in explicit.nodes().iter().enumerate() {
            for i in 0..2 {
                let agent = Agent::new(i);
                assert_eq!(explicit.members(agent, n), [node.local(agent)]);
            }
        }
        let reduced = sys.layer(1);
        let q = reduced.quotient().unwrap();
        for i in 0..2 {
            let agent = Agent::new(i);
            assert_eq!(reduced.members(agent, 0), q.members(agent, 0));
        }
        assert_eq!(reduced.members(Agent::new(0), 0).len(), 2);
        assert_eq!(reduced.members(Agent::new(1), 0).len(), 1);
    }

    #[test]
    fn member_lists_sort_and_dedup_each_list_in_place() {
        let l = LocalId::from_raw;
        let mut lists = MemberLists::with_capacity(3);
        lists.locals.extend([l(3), l(1), l(3)]);
        lists.close();
        // Equal neighbours across a list boundary stay in both lists.
        lists.locals.extend([l(2), l(3), l(3)]);
        lists.close();
        lists.close_copy_of(0..2);
        assert_eq!(lists.get(0), [l(1), l(3)]);
        assert_eq!(lists.get(1), [l(2), l(3)]);
        assert_eq!(lists.get(2), [l(1), l(3)]);
        assert_eq!(lists.open_start(), 6);
    }

    /// The flat member lists of a fused unrolling: sorted, deduplicated,
    /// the chain images of the parent class's members, and together
    /// exactly the explicit layer's locals. Pinned as histories, since
    /// ids depend on interning order.
    #[test]
    fn fused_member_lists_are_sorted_chain_images() {
        let ctx = meeting_context();
        let either = |v: &LocalView<'_>| match v.agent.index() {
            0 => vec![ActionId(0), ActionId(1)],
            _ => vec![ActionId(0)],
        };
        let fused = generate(&ctx, &either, Recall::Perfect, 3).unwrap();
        let explicit = {
            let mut b = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
            b.set_gen_quotient_min_worlds(usize::MAX);
            for _ in 0..3 {
                b.step_with(&either).unwrap();
            }
            b.finish()
        };
        let histories = |sys: &InterpretedSystem, agent: Agent, ls: &[LocalId]| {
            ls.iter()
                .map(|&l| sys.local_view(agent, l).iter().map(|o| o.0).collect())
                .collect::<Vec<Vec<u64>>>()
        };
        let mut pinned = Vec::new();
        for t in 1..=3 {
            let layer = fused.layer(t);
            let q = layer.quotient().unwrap();
            for i in 0..2 {
                let agent = Agent::new(i);
                let mut all: Vec<Vec<u64>> = Vec::new();
                for c in 0..q.class_count() {
                    let ms = q.members(agent, c);
                    assert!(ms.windows(2).all(|w| w[0] < w[1]), "{ms:?}");
                    assert!(ms.contains(&layer.nodes()[c].local(agent)));
                    // Each member extends a member of a parent class by
                    // the child's observation.
                    let parents = fused.layer(t - 1);
                    for h in histories(&fused, agent, ms) {
                        let (last, past) = h.split_last().unwrap();
                        let own = fused.local_view(agent, layer.nodes()[c].local(agent));
                        assert_eq!(*last, own[t].0);
                        assert!(layer.nodes()[c].parents().iter().any(|&p| {
                            histories(&fused, agent, parents.members(agent, p as usize))
                                .contains(&past.to_vec())
                        }));
                    }
                    pinned.push((t, i, c, histories(&fused, agent, ms)));
                    all.extend(histories(&fused, agent, ms));
                }
                let mut want: Vec<Vec<u64>> = explicit
                    .layer(t)
                    .nodes()
                    .iter()
                    .flat_map(|n| histories(&explicit, agent, &[n.local(agent)]))
                    .collect();
                all.sort();
                all.dedup();
                want.sort();
                want.dedup();
                assert_eq!(all, want, "layer {t}, agent {i}");
            }
        }
        let x = |h: &[&[u64]]| h.iter().map(|h| h.to_vec()).collect::<Vec<_>>();
        assert_eq!(
            pinned,
            [
                (1, 0, 0, x(&[&[0, 0], &[1, 0]])),
                (1, 1, 0, x(&[&[0, 0]])),
                (2, 0, 0, x(&[&[0, 0, 0], &[1, 0, 0]])),
                (2, 1, 0, x(&[&[0, 0, 0]])),
                (3, 0, 0, x(&[&[0, 0, 0, 0], &[1, 0, 0, 0]])),
                (3, 1, 0, x(&[&[0, 0, 0, 0]])),
            ]
        );
    }

    /// A bad choice at any one frontier local is reported alike whether
    /// the frontier steps fused (one class with two x-members) or
    /// explicitly (two points); locals are compared by history, since the
    /// two builders intern independently.
    #[test]
    fn bad_choices_fail_alike_fused_and_explicit() {
        let ctx = meeting_context();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let frontier = |gate: usize| {
            let mut b = SystemBuilder::new(&ctx, Recall::Perfect).unwrap();
            b.set_gen_quotient_min_worlds(gate);
            b.step_with(&noop).unwrap();
            b
        };
        let (fused, explicit) = (frontier(0), frontier(usize::MAX));
        assert!(fused.current().is_reduced());
        assert!(!explicit.current().is_reduced());
        let shape = |b: &SystemBuilder<'_>, e: GenerateError| match e {
            GenerateError::MissingChoice { agent, local } => {
                format!("missing {agent} {:?}", b.local_history(agent, local))
            }
            GenerateError::EmptyChoice { agent, local } => {
                format!("empty {agent} {:?}", b.local_history(agent, local))
            }
            other => other.to_string(),
        };
        let outcome = |b: &SystemBuilder<'_>, bad: &[Obs], fault: usize| {
            let mut choices = StepChoices::new();
            for (agent, local) in b.frontier_locals() {
                let history = b.local_history(agent, local);
                let set = match fault {
                    _ if agent.index() != 0 || history != bad => vec![ActionId(0)],
                    0 => continue,
                    1 => Vec::new(),
                    _ => vec![ActionId(7)],
                };
                choices.set(agent, local, set);
            }
            shape(b, b.clone().step(&choices).unwrap_err())
        };
        for bad in [[Obs(0), Obs(0)], [Obs(1), Obs(0)]] {
            for fault in 0..3 {
                assert_eq!(
                    outcome(&fused, &bad, fault),
                    outcome(&explicit, &bad, fault),
                    "x-history {bad:?}, fault {fault}"
                );
            }
        }
        // Differing valid choices within the class are refused fused and
        // unrolled explicitly.
        let split = |b: &SystemBuilder<'_>| {
            let mut choices = StepChoices::new();
            for (agent, local) in b.frontier_locals() {
                let wave = agent.index() == 0 && b.local_history(agent, local)[0] == Obs(1);
                choices.set(agent, local, vec![ActionId(u32::from(wave))]);
            }
            b.clone().step(&choices)
        };
        assert!(matches!(
            split(&fused),
            Err(GenerateError::QuotientChoiceMismatch { .. })
        ));
        assert!(split(&explicit).is_ok());
    }
}
