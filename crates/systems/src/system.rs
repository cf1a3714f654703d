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
use crate::protocol::{LocalView, ProtocolFn};
use crate::state::{GlobalState, LocalId, LocalTable, Obs, StateId, StateTable};
use kbp_kripke::{Partition, S5Builder, S5Model, UnionFind};
use kbp_logic::{Agent, PropId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

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

/// The bisimulation-class structure of a layer held (or stepped) as
/// representatives: one representative point per class, an exact count of
/// the explicit points the class stands for, and the per-agent local
/// states those explicit points carry (the class-level
/// indistinguishability structure).
///
/// Produced by the fused step+quotient generation path; see DESIGN.md
/// §17.
#[derive(Debug, Clone)]
pub struct QuotientFrontier {
    /// Node index of each class's representative within the layer.
    reps: Vec<u32>,
    /// Exact number of explicit points each class stands for.
    multiplicity: Vec<u64>,
    /// `members[agent][class]`: sorted, deduplicated local states held by
    /// the explicit points of the class. Always contains the
    /// representative's own local state.
    members: Vec<Vec<Vec<LocalId>>>,
    /// Sum of all multiplicities: the explicit-equivalent layer width.
    explicit_points: u64,
}

impl QuotientFrontier {
    /// Number of bisimulation classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.reps.len()
    }

    /// Node index (within the layer) of the representative of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[must_use]
    pub fn representative(&self, class: usize) -> usize {
        self.reps[class] as usize
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
        &self.members[agent.index()][class]
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
        match &self.quotient {
            Some(q) if self.is_reduced() => q.multiplicity(node),
            _ => 1,
        }
    }

    /// The bisimulation-class structure, when this layer is held as (or
    /// has been folded to) quotient representatives.
    #[must_use]
    pub fn quotient(&self) -> Option<&QuotientFrontier> {
        self.quotient.as_ref()
    }

    /// Whether the layer's nodes *are* its class representatives (one
    /// node per class). True for every layer produced by the fused
    /// generation path; an explicit frontier that was folded in place
    /// before stepping keeps its explicit nodes and reports false unless
    /// the fold was lossless.
    #[must_use]
    pub fn is_reduced(&self) -> bool {
        self.quotient
            .as_ref()
            .is_some_and(|q| q.class_count() == self.nodes.len())
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
/// occurring in the current layer.
///
/// Keying by [`LocalId`] makes class-consistency automatic: all points
/// where the agent has the same local state necessarily receive the same
/// action set — the defining property of a protocol.
#[derive(Debug, Clone, Default)]
pub struct StepChoices {
    per_agent: HashMap<(Agent, LocalId), Vec<ActionId>>,
}

impl StepChoices {
    /// Creates an empty choice table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the action set for one `(agent, local state)` pair.
    pub fn set(&mut self, agent: Agent, local: LocalId, actions: Vec<ActionId>) {
        self.per_agent.insert((agent, local), actions);
    }

    /// Looks up the action set for a pair, if present.
    #[must_use]
    pub fn get(&self, agent: Agent, local: LocalId) -> Option<&[ActionId]> {
        self.per_agent.get(&(agent, local)).map(Vec::as_slice)
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
        let mut dedup: HashMap<(StateId, Vec<LocalId>), u32> = HashMap::new();
        let mut nodes: Vec<Node> = Vec::new();
        for state in ctx.initial_states() {
            let sid = b.states.intern(state.clone());
            let locals: Vec<LocalId> = (0..agents)
                .map(|i| {
                    let obs = ctx.observe(Agent::new(i), &state);
                    b.locals[i].intern_root(obs)
                })
                .collect();
            let key = (sid, locals.clone());
            dedup.entry(key).or_insert_with(|| {
                nodes.push(Node {
                    state: sid,
                    locals,
                    parents: Vec::new(),
                    edges: Vec::new(),
                });
                (nodes.len() - 1) as u32
            });
        }
        b.nodes_created = nodes.len();
        let model = b.layer_model(&nodes);
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
        // First-occurrence order; the hash set keeps the dedup linear in
        // the frontier, which runs to thousands of member locals.
        let mut seen: Vec<(Agent, LocalId)> = Vec::new();
        let mut known: HashSet<(Agent, LocalId)> = HashSet::new();
        let mut note = |key: (Agent, LocalId)| {
            if known.insert(key) {
                seen.push(key);
            }
        };
        let layer = self.current();
        match layer.quotient() {
            Some(q) => {
                for i in 0..self.ctx.agent_count() {
                    let agent = Agent::new(i);
                    for c in 0..q.class_count() {
                        for &l in q.members(agent, c) {
                            note((agent, l));
                        }
                    }
                }
            }
            None => {
                for node in layer.nodes() {
                    for (i, &l) in node.locals.iter().enumerate() {
                        note((Agent::new(i), l));
                    }
                }
            }
        }
        seen
    }

    fn layer_model(&self, nodes: &[Node]) -> S5Model {
        let prop_count = self.ctx.vocabulary().prop_count();
        let mut mb = S5Builder::new(self.ctx.agent_count(), prop_count);
        for node in nodes {
            let state = self.states.state(node.state);
            let props = (0..prop_count)
                .map(|p| PropId::new(p as u32))
                .filter(|&p| self.ctx.prop_holds(p, state));
            mb.add_world(props);
        }
        for i in 0..self.ctx.agent_count() {
            mb.partition_by_key(Agent::new(i), |w| nodes[w.index()].locals[i]);
        }
        mb.build()
    }

    /// Extends the unrolling by one time step using the given choices.
    ///
    /// When the frontier is already reduced, or is explicit and
    /// twin-free, the fused step+quotient path engages: the frontier is
    /// folded to bisimulation representatives with exact multiplicities,
    /// successors are computed for representatives only, and the new
    /// layer is canonicalized before anything explicit is materialized
    /// (DESIGN.md §17). Frontiers holding perfect-recall twins, and
    /// explicit frontiers narrower than
    /// [`gen_quotient_min_worlds`](Self::gen_quotient_min_worlds), step
    /// explicitly. Solutions induced from the layers are bit-identical
    /// either way.
    ///
    /// # Errors
    ///
    /// Returns a [`GenerateError`] if a choice is missing, empty or out of
    /// range, if the environment protocol is stuck, or if the node budget
    /// is exceeded (in which case the builder's layers are left
    /// unchanged).
    pub fn step(&mut self, choices: &StepChoices) -> Result<(), GenerateError> {
        if self.current().quotient.is_some() {
            return self.step_quotient(choices);
        }
        if self.current().len() >= self.gen_quotient_min_worlds && self.quotient_frontier()? {
            return self.step_quotient(choices);
        }
        let agents = self.ctx.agent_count();
        let t = self.time();
        // Resolve and validate all action sets up front.
        let mut action_sets: Vec<Vec<&[ActionId]>> = Vec::with_capacity(self.layers[t].len());
        for node in self.layers[t].nodes() {
            let mut per_agent = Vec::with_capacity(agents);
            for i in 0..agents {
                let agent = Agent::new(i);
                let local = node.locals[i];
                let set = choices
                    .get(agent, local)
                    .ok_or(GenerateError::MissingChoice { agent, local })?;
                if set.is_empty() {
                    return Err(GenerateError::EmptyChoice { agent, local });
                }
                for &a in set {
                    if a.index() >= self.ctx.action_count(agent) {
                        return Err(GenerateError::ActionOutOfRange { agent, action: a });
                    }
                }
                per_agent.push(set);
            }
            action_sets.push(per_agent);
        }

        let mut dedup: HashMap<(StateId, Vec<LocalId>), u32> = HashMap::new();
        let mut nodes: Vec<Node> = Vec::new();
        let mut new_edges: Vec<Vec<(u32, JointAction)>> = vec![Vec::new(); self.layers[t].len()];

        for (ni, node) in self.layers[t].nodes().iter().enumerate() {
            let state = self.states.state(node.state).clone();
            let env_moves = self.ctx.env_actions(&state);
            if env_moves.is_empty() {
                return Err(GenerateError::EnvStuck(state));
            }
            // Cartesian product over agents' action sets.
            let mut combo: Vec<usize> = vec![0; agents];
            loop {
                let acts: Vec<ActionId> =
                    (0..agents).map(|i| action_sets[ni][i][combo[i]]).collect();
                for &env in &env_moves {
                    let joint = JointAction::new(env, acts.clone());
                    let next = self.ctx.transition(&state, &joint);
                    let sid = self.states.intern(next.clone());
                    let locals: Vec<LocalId> = (0..agents)
                        .map(|i| {
                            let obs = self.ctx.observe(Agent::new(i), &next);
                            match self.recall {
                                Recall::Perfect => self.locals[i].intern_child(node.locals[i], obs),
                                Recall::Observational => self.locals[i].intern_root(obs),
                            }
                        })
                        .collect();
                    let key = (sid, locals.clone());
                    let child = *dedup.entry(key).or_insert_with(|| {
                        nodes.push(Node {
                            state: sid,
                            locals,
                            parents: Vec::new(),
                            edges: Vec::new(),
                        });
                        (nodes.len() - 1) as u32
                    });
                    if !nodes[child as usize].parents.contains(&(ni as u32)) {
                        nodes[child as usize].parents.push(ni as u32);
                    }
                    new_edges[ni].push((child, joint));
                }
                // Advance the product counter.
                let mut k = 0;
                loop {
                    if k == agents {
                        break;
                    }
                    combo[k] += 1;
                    if combo[k] < action_sets[ni][k].len() {
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

        if self.nodes_created + nodes.len() > self.node_limit {
            return Err(GenerateError::NodeLimit {
                limit: self.node_limit,
            });
        }
        self.nodes_created += nodes.len();
        for (ni, edges) in new_edges.into_iter().enumerate() {
            self.layers[t].nodes[ni].edges = edges;
        }
        let model = self.layer_model(&nodes);
        self.layers.push(Layer {
            nodes,
            model,
            quotient: None,
        });
        Ok(())
    }

    /// Tries to fold the explicit frontier into a [`QuotientFrontier`]
    /// in place (nodes stay; the class structure is recorded alongside).
    /// Returns `false` — leaving generation explicit — when the layer is
    /// not eligible: under perfect recall a frontier holding *twins*
    /// (distinct points that agree on every agent's local state and
    /// differ only in global state) cannot be folded, because twin
    /// points may sit in classes whose explicit fibers overlap without
    /// coinciding, making exact multiplicities unrecoverable from
    /// per-agent member sets.
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
    /// fiber size counted once ([`step_quotient`](Self::step_quotient)
    /// verifies twinhood defensively).
    fn quotient_frontier(&mut self) -> Result<bool, GenerateError> {
        let t = self.time();
        let n = self.layers[t].len();
        let agents = self.ctx.agent_count();
        if self.recall == Recall::Perfect {
            let mut seen: HashMap<&[LocalId], StateId> = HashMap::new();
            for node in self.layers[t].nodes() {
                match seen.entry(node.locals()) {
                    Entry::Occupied(e) => {
                        if *e.get() != node.state {
                            return Ok(false);
                        }
                    }
                    Entry::Vacant(v) => {
                        v.insert(node.state);
                    }
                }
            }
        }
        // Classes = bisimilarity of the layer's own S5 model, further
        // split by interned global state: members of a class must share
        // a transition function, not just a valuation.
        let state_split = {
            let nodes = self.layers[t].nodes();
            Partition::from_keys(n, |w| nodes[w].state)
        };
        let props: Vec<PropId> = (0..self.ctx.vocabulary().prop_count())
            .map(|p| PropId::new(p as u32))
            .collect();
        let classes = self.layers[t]
            .model
            .bisimilarity_within(&props, &[&state_split])
            .map_err(|e| GenerateError::Quotient(e.to_string()))?;
        let k = classes.block_count();
        let mut reps = Vec::with_capacity(k);
        let mut multiplicity = Vec::with_capacity(k);
        let mut members: Vec<Vec<Vec<LocalId>>> = vec![Vec::with_capacity(k); agents];
        for b in 0..k {
            let block = classes.block(b);
            reps.push(block.iter().copied().min().unwrap_or(0));
            multiplicity.push(block.len() as u64);
            for (i, per_agent) in members.iter_mut().enumerate() {
                let mut ls: Vec<LocalId> = block
                    .iter()
                    .map(|&w| self.layers[t].nodes[w as usize].locals[i])
                    .collect();
                ls.sort_unstable_by_key(|l| l.index());
                ls.dedup();
                per_agent.push(ls);
            }
        }
        self.layers[t].quotient = Some(QuotientFrontier {
            reps,
            multiplicity,
            members,
            explicit_points: n as u64,
        });
        Ok(true)
    }

    /// The fused step: advances from the frontier's class representatives
    /// and multiplicities. Successors are computed for representatives
    /// only; the member locals of each successor class are interned (so
    /// protocols keep acting at every explicit run prefix) but the
    /// explicit successor points themselves are never materialized.
    fn step_quotient(&mut self, choices: &StepChoices) -> Result<(), GenerateError> {
        let ctx = self.ctx;
        let agents = ctx.agent_count();
        let t = self.time();
        let recall = self.recall;

        // Resolve and validate action sets per class, checking that
        // every member local of the class received the representative's
        // action set — the defining property of a knowledge-based
        // protocol, violated only by externally crafted choices.
        let qf = match self.layers[t].quotient.as_ref() {
            Some(q) => q,
            None => return Err(GenerateError::Quotient("frontier is not reduced".into())),
        };
        let k = qf.class_count();
        let mut action_sets: Vec<Vec<&[ActionId]>> = Vec::with_capacity(k);
        for c in 0..k {
            let node = &self.layers[t].nodes[qf.reps[c] as usize];
            let mut per_agent = Vec::with_capacity(agents);
            for i in 0..agents {
                let agent = Agent::new(i);
                let local = node.locals[i];
                let set = choices
                    .get(agent, local)
                    .ok_or(GenerateError::MissingChoice { agent, local })?;
                if set.is_empty() {
                    return Err(GenerateError::EmptyChoice { agent, local });
                }
                for &a in set {
                    if a.index() >= ctx.action_count(agent) {
                        return Err(GenerateError::ActionOutOfRange { agent, action: a });
                    }
                }
                for &ml in &qf.members[i][c] {
                    if ml == local {
                        continue;
                    }
                    let mset = choices
                        .get(agent, ml)
                        .ok_or(GenerateError::MissingChoice { agent, local: ml })?;
                    if mset != set {
                        return Err(GenerateError::QuotientChoiceMismatch { agent, local: ml });
                    }
                }
                per_agent.push(set);
            }
            action_sets.push(per_agent);
        }

        // Successors of representatives only.
        struct ChildBuf {
            state: StateId,
            locals: Vec<LocalId>,
            obs: Vec<Obs>,
            parents: Vec<u32>,
            parent_classes: Vec<u32>,
            multiplicity: u64,
        }
        let mut dedup: HashMap<(StateId, Vec<LocalId>), u32> = HashMap::new();
        let mut children: Vec<ChildBuf> = Vec::new();
        let mut new_edges: Vec<Vec<(u32, JointAction)>> = vec![Vec::new(); self.layers[t].len()];
        for (c, rep_sets) in action_sets.iter().enumerate() {
            let rep = qf.reps[c];
            let rep_locals = self.layers[t].nodes[rep as usize].locals.clone();
            let state = self
                .states
                .state(self.layers[t].nodes[rep as usize].state)
                .clone();
            let env_moves = ctx.env_actions(&state);
            if env_moves.is_empty() {
                return Err(GenerateError::EnvStuck(state));
            }
            let mut combo: Vec<usize> = vec![0; agents];
            loop {
                let acts: Vec<ActionId> = (0..agents).map(|i| rep_sets[i][combo[i]]).collect();
                for &env in &env_moves {
                    let joint = JointAction::new(env, acts.clone());
                    let next = ctx.transition(&state, &joint);
                    let sid = self.states.intern(next.clone());
                    let obs: Vec<Obs> = (0..agents)
                        .map(|i| ctx.observe(Agent::new(i), &next))
                        .collect();
                    let locals: Vec<LocalId> = (0..agents)
                        .map(|i| match recall {
                            Recall::Perfect => self.locals[i].intern_child(rep_locals[i], obs[i]),
                            Recall::Observational => self.locals[i].intern_root(obs[i]),
                        })
                        .collect();
                    let key = (sid, locals.clone());
                    let child = match dedup.entry(key) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(v) => {
                            children.push(ChildBuf {
                                state: sid,
                                locals,
                                obs,
                                parents: Vec::new(),
                                parent_classes: Vec::new(),
                                // Observational child tuples are explicit
                                // points themselves (locals carry no parent
                                // memory): each stands for exactly one
                                // explicit point. Perfect-recall fibers
                                // accumulate per parent class below.
                                multiplicity: match recall {
                                    Recall::Perfect => 0,
                                    Recall::Observational => 1,
                                },
                            });
                            *v.insert((children.len() - 1) as u32)
                        }
                    };
                    let ch = &mut children[child as usize];
                    if !ch.parent_classes.contains(&(c as u32)) {
                        if recall == Recall::Perfect {
                            if let Some(&first) = ch.parent_classes.first() {
                                // A successor tuple shared by two classes
                                // forces equal parent local tuples — the
                                // classes are *twins*, and twins carry
                                // identical explicit fibers (see the fiber
                                // invariant on `quotient_frontier`), so the
                                // child's fiber is counted once, not summed.
                                let fl = &self.layers[t].nodes[qf.reps[first as usize] as usize];
                                if fl.locals != rep_locals
                                    || qf.multiplicity[first as usize] != qf.multiplicity[c]
                                {
                                    return Err(GenerateError::Quotient(
                                        "cross-class successor collision between non-twin \
                                         classes under perfect recall"
                                            .into(),
                                    ));
                                }
                            } else {
                                ch.multiplicity = qf.multiplicity[c];
                            }
                        }
                        ch.parent_classes.push(c as u32);
                    }
                    if !ch.parents.contains(&rep) {
                        ch.parents.push(rep);
                    }
                    new_edges[rep as usize].push((child, joint));
                }
                let mut adv = 0;
                loop {
                    if adv == agents {
                        break;
                    }
                    combo[adv] += 1;
                    if combo[adv] < rep_sets[adv].len() {
                        break;
                    }
                    combo[adv] = 0;
                    adv += 1;
                }
                if adv == agents {
                    break;
                }
            }
        }

        if self.nodes_created + children.len() > self.node_limit {
            return Err(GenerateError::NodeLimit {
                limit: self.node_limit,
            });
        }

        // Member locals of each successor: the chain images of the
        // parent class's member locals under the successor's observation
        // (perfect recall), or the successor's own root locals
        // (observational). This is what keeps the local-state forest —
        // and with it every protocol history — explicit-complete while
        // the point tuples stay folded.
        let mut child_members: Vec<Vec<Vec<LocalId>>> = Vec::with_capacity(children.len());
        match recall {
            Recall::Perfect => {
                let mut chain_cache: HashMap<(u32, usize, Obs), Vec<LocalId>> = HashMap::new();
                for ch in &children {
                    let c = ch.parent_classes[0];
                    let mut per_agent = Vec::with_capacity(agents);
                    for i in 0..agents {
                        // A lone member is the representative's own
                        // local, whose chain image is the child's local.
                        if qf.members[i][c as usize].len() == 1 {
                            per_agent.push(vec![ch.locals[i]]);
                            continue;
                        }
                        let key = (c, i, ch.obs[i]);
                        let locals = match chain_cache.entry(key) {
                            Entry::Occupied(e) => e.get().clone(),
                            Entry::Vacant(v) => {
                                let mut ls: Vec<LocalId> = qf.members[i][c as usize]
                                    .iter()
                                    .map(|&l| self.locals[i].intern_child(l, ch.obs[i]))
                                    .collect();
                                ls.sort_unstable_by_key(|l| l.index());
                                ls.dedup();
                                v.insert(ls).clone()
                            }
                        };
                        per_agent.push(locals);
                    }
                    child_members.push(per_agent);
                }
            }
            Recall::Observational => {
                for ch in &children {
                    child_members.push((0..agents).map(|i| vec![ch.locals[i]]).collect());
                }
            }
        }

        // Canonicalize: bisimilarity over the successor set, with the
        // class-level indistinguishability structure (classes sharing a
        // member local are linked), seeded by global state only: futures
        // depend on the state, but not on which lineage produced a point.
        // Merging across parent classes is where perfect-recall history
        // compression comes from — distinct observation histories over
        // the same state whose knowledge content coincides fold into one
        // representative. The fold below unions the member locals of
        // every merged child, so the folded class's fiber is exactly the
        // union of the (pairwise disjoint) child fibers and the
        // multiplicity sum stays an exact explicit-point count.
        let n_new = children.len();
        let prop_count = ctx.vocabulary().prop_count();
        let mut mb = S5Builder::new(agents, prop_count);
        for ch in &children {
            let state = self.states.state(ch.state);
            let props = (0..prop_count)
                .map(|p| PropId::new(p as u32))
                .filter(|&p| ctx.prop_holds(p, state));
            mb.add_world(props);
        }
        let agent_roots = Self::member_link_roots(agents, n_new, |w, i| &child_members[w][i]);
        for (i, roots) in agent_roots.iter().enumerate() {
            mb.partition_by_key(Agent::new(i), |w| roots[w.index()]);
        }
        let cmodel = mb.build();
        let state_split = Partition::from_keys(n_new, |w| children[w].state);
        let props: Vec<PropId> = (0..prop_count).map(|p| PropId::new(p as u32)).collect();
        let classes = cmodel
            .bisimilarity_within(&props, &[&state_split])
            .map_err(|e| GenerateError::Quotient(e.to_string()))?;

        // Fold duplicates by multiplicity: one node per class. A discrete
        // partition merges nothing: the children are the classes and their
        // model is the layer's.
        let kn = classes.block_count();
        let mut nodes: Vec<Node> = Vec::with_capacity(kn);
        let mut multiplicity: Vec<u64> = Vec::with_capacity(kn);
        let mut members: Vec<Vec<Vec<LocalId>>> = vec![Vec::with_capacity(kn); agents];
        let model = if kn == n_new {
            for (ch, per_agent) in children.into_iter().zip(child_members) {
                let mut parents = ch.parents;
                parents.sort_unstable();
                nodes.push(Node {
                    state: ch.state,
                    locals: ch.locals,
                    parents,
                    edges: Vec::new(),
                });
                multiplicity.push(ch.multiplicity);
                for (class_members, ls) in members.iter_mut().zip(per_agent) {
                    class_members.push(ls);
                }
            }
            cmodel
        } else {
            for block in classes.blocks() {
                let rep = block.iter().copied().min().unwrap_or(0) as usize;
                let mut parents: Vec<u32> = Vec::new();
                let mut mult = 0;
                for &w in block {
                    mult += children[w as usize].multiplicity;
                    for &p in &children[w as usize].parents {
                        if !parents.contains(&p) {
                            parents.push(p);
                        }
                    }
                }
                parents.sort_unstable();
                nodes.push(Node {
                    state: children[rep].state,
                    locals: children[rep].locals.clone(),
                    parents,
                    edges: Vec::new(),
                });
                multiplicity.push(mult);
                for (i, per_agent) in members.iter_mut().enumerate() {
                    let mut ls: Vec<LocalId> = block
                        .iter()
                        .flat_map(|&w| child_members[w as usize][i].iter().copied())
                        .collect();
                    ls.sort_unstable_by_key(|l| l.index());
                    ls.dedup();
                    per_agent.push(ls);
                }
            }
            // Classes are linked iff they share a member local.
            let mut mb = S5Builder::new(agents, prop_count);
            for node in &nodes {
                let state = self.states.state(node.state);
                let props = (0..prop_count)
                    .map(|p| PropId::new(p as u32))
                    .filter(|&p| ctx.prop_holds(p, state));
                mb.add_world(props);
            }
            let class_roots = Self::member_link_roots(agents, kn, |cidx, i| &members[i][cidx]);
            for (i, roots) in class_roots.iter().enumerate() {
                mb.partition_by_key(Agent::new(i), |w| roots[w.index()]);
            }
            mb.build()
        };
        let explicit_points: u64 = multiplicity.iter().sum();

        // Commit: remap edges onto class indices.
        let labels = classes.block_ids();
        self.nodes_created += n_new;
        for (ni, mut edges) in new_edges.into_iter().enumerate() {
            if edges.is_empty() {
                continue;
            }
            for e in &mut edges {
                e.0 = labels[e.0 as usize];
            }
            self.layers[t].nodes[ni].edges = edges;
        }
        self.layers.push(Layer {
            nodes,
            model,
            quotient: Some(QuotientFrontier {
                reps: (0..kn as u32).collect(),
                multiplicity,
                members,
                explicit_points,
            }),
        });
        Ok(())
    }

    /// Union-find roots linking elements that share any member local for
    /// an agent: `get(element, agent)` yields the element's member local
    /// set. Returns, per agent, a dense root label per element — the
    /// transitive closure of "shares a local", which is exactly the
    /// equivalence an S5 partition can carry.
    fn member_link_roots<'m>(
        agents: usize,
        n: usize,
        get: impl Fn(usize, usize) -> &'m [LocalId],
    ) -> Vec<Vec<usize>> {
        let mut out = Vec::with_capacity(agents);
        for i in 0..agents {
            let mut uf = UnionFind::new(n);
            let mut first: HashMap<LocalId, usize> = HashMap::new();
            for w in 0..n {
                for &l in get(w, i) {
                    match first.entry(l) {
                        Entry::Occupied(e) => {
                            uf.union(*e.get(), w);
                        }
                        Entry::Vacant(v) => {
                            v.insert(w);
                        }
                    }
                }
            }
            out.push((0..n).map(|w| uf.find(w)).collect());
        }
        out
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
}
