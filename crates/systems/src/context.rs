//! Contexts: the environment side of a knowledge-based planning problem.
//!
//! Following FHMV, a context `γ = (P_e, G_0, τ)` fixes everything except
//! the agents' protocol: the set of initial global states, the
//! environment's (possibly nondeterministic) protocol, and the joint
//! transition function. Running a protocol in a context generates a unique
//! system of runs.

use crate::state::{GlobalState, Obs};
use kbp_logic::{Agent, PropId, Vocabulary};
use std::error::Error;
use std::fmt;

/// An action available to an agent (a dense per-agent index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId(pub u32);

impl ActionId {
    /// The dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "act{}", self.0)
    }
}

/// An action of the environment (message delivery/loss, sensor noise, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnvActionId(pub u32);

impl EnvActionId {
    /// The dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EnvActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "env{}", self.0)
    }
}

/// One action per agent plus the environment's move — the input of the
/// transition function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JointAction {
    /// The environment's move.
    pub env: EnvActionId,
    /// One action per agent, indexed by agent.
    pub acts: Vec<ActionId>,
}

impl JointAction {
    /// Creates a joint action.
    #[must_use]
    pub fn new(env: EnvActionId, acts: Vec<ActionId>) -> Self {
        JointAction { env, acts }
    }

    /// The action of `agent`.
    ///
    /// # Panics
    ///
    /// Panics if the agent index exceeds the number of agents.
    #[must_use]
    pub fn of(&self, agent: Agent) -> ActionId {
        self.acts[agent.index()]
    }
}

/// Errors detected by [`Context::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContextError {
    /// The context declares no agents.
    NoAgents,
    /// The context declares no initial states.
    NoInitialStates,
    /// Some agent has an empty action repertoire.
    NoActions(Agent),
    /// The environment protocol offers no action at some reachable state.
    EnvStuck(GlobalState),
    /// [`ContextBuilder::try_build`] was called without a transition
    /// function.
    MissingTransition,
    /// [`ContextBuilder::try_build`] was called without an observation
    /// function.
    MissingObservation,
    /// [`ContextBuilder::try_build`] was called without a propositional
    /// valuation.
    MissingValuation,
}

impl fmt::Display for ContextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextError::NoAgents => write!(f, "context has no agents"),
            ContextError::NoInitialStates => write!(f, "context has no initial states"),
            ContextError::NoActions(a) => write!(f, "agent {a} has no actions"),
            ContextError::EnvStuck(s) => {
                write!(f, "environment offers no action at state {s}")
            }
            ContextError::MissingTransition => {
                write!(f, "context builder has no transition function")
            }
            ContextError::MissingObservation => {
                write!(f, "context builder has no observation function")
            }
            ContextError::MissingValuation => {
                write!(f, "context builder has no propositional valuation")
            }
        }
    }
}

impl Error for ContextError {}

/// The environment of a knowledge-based program: initial states,
/// environment protocol, transition function, observation functions and
/// propositional valuation.
///
/// Implement this trait directly for computed state spaces, or assemble a
/// [`FnContext`] with [`ContextBuilder`] for the common case.
///
/// Determinism convention: all nondeterminism is routed through
/// [`env_actions`](Context::env_actions) (the environment's protocol);
/// given the environment's move and every agent's action, the transition is
/// deterministic. This loses no generality and keeps run generation simple.
pub trait Context {
    /// Number of agents acting in the context (≥ 1).
    fn agent_count(&self) -> usize;

    /// The vocabulary interpreting propositions and agent names.
    fn vocabulary(&self) -> &Vocabulary;

    /// The set of initial global states `G_0` (nonempty). The agents'
    /// initial uncertainty is exactly this set.
    fn initial_states(&self) -> Vec<GlobalState>;

    /// The environment's possible moves at a state (nonempty).
    fn env_actions(&self, state: &GlobalState) -> Vec<EnvActionId>;

    /// Number of actions in `agent`'s repertoire (actions are
    /// `ActionId(0..n)`).
    fn action_count(&self, agent: Agent) -> usize;

    /// The (deterministic) joint transition function `τ`.
    fn transition(&self, state: &GlobalState, joint: &JointAction) -> GlobalState;

    /// What `agent` observes at `state`; equal observations at equal times
    /// mean instantaneous indistinguishability.
    fn observe(&self, agent: Agent, state: &GlobalState) -> Obs;

    /// Whether proposition `prop` holds at `state`.
    fn prop_holds(&self, prop: PropId, state: &GlobalState) -> bool;

    /// Human-readable name of an agent action (for reports).
    fn action_name(&self, agent: Agent, action: ActionId) -> String {
        let _ = agent;
        action.to_string()
    }

    /// Human-readable name of an environment action.
    fn env_action_name(&self, action: EnvActionId) -> String {
        action.to_string()
    }

    /// Checks the structural well-formedness conditions that do not
    /// require exploring the state space.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    fn validate(&self) -> Result<(), ContextError> {
        if self.agent_count() == 0 {
            return Err(ContextError::NoAgents);
        }
        let initial = self.initial_states();
        if initial.is_empty() {
            return Err(ContextError::NoInitialStates);
        }
        for i in 0..self.agent_count() {
            if self.action_count(Agent::new(i)) == 0 {
                return Err(ContextError::NoActions(Agent::new(i)));
            }
        }
        for s in &initial {
            if self.env_actions(s).is_empty() {
                return Err(ContextError::EnvStuck(s.clone()));
            }
        }
        Ok(())
    }
}

type EnvFn = dyn Fn(&GlobalState) -> Vec<EnvActionId> + Send + Sync;
type TransFn = dyn Fn(&GlobalState, &JointAction) -> GlobalState + Send + Sync;
type ObserveFn = dyn Fn(Agent, &GlobalState) -> Obs + Send + Sync;
type PropFn = dyn Fn(PropId, &GlobalState) -> bool + Send + Sync;

/// A [`Context`] assembled from closures by [`ContextBuilder`] — the
/// workhorse for scenario definitions.
pub struct FnContext {
    agents: usize,
    voc: Vocabulary,
    initial: Vec<GlobalState>,
    action_counts: Vec<usize>,
    action_names: Vec<Vec<String>>,
    env_action_names: Vec<String>,
    env_fn: Box<EnvFn>,
    trans_fn: Box<TransFn>,
    observe_fn: Box<ObserveFn>,
    prop_fn: Box<PropFn>,
}

impl fmt::Debug for FnContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnContext")
            .field("agents", &self.agents)
            .field("initial_states", &self.initial.len())
            .field("action_counts", &self.action_counts)
            .finish_non_exhaustive()
    }
}

impl Context for FnContext {
    fn agent_count(&self) -> usize {
        self.agents
    }

    fn vocabulary(&self) -> &Vocabulary {
        &self.voc
    }

    fn initial_states(&self) -> Vec<GlobalState> {
        self.initial.clone()
    }

    fn env_actions(&self, state: &GlobalState) -> Vec<EnvActionId> {
        (self.env_fn)(state)
    }

    fn action_count(&self, agent: Agent) -> usize {
        self.action_counts[agent.index()]
    }

    fn transition(&self, state: &GlobalState, joint: &JointAction) -> GlobalState {
        (self.trans_fn)(state, joint)
    }

    fn observe(&self, agent: Agent, state: &GlobalState) -> Obs {
        (self.observe_fn)(agent, state)
    }

    fn prop_holds(&self, prop: PropId, state: &GlobalState) -> bool {
        (self.prop_fn)(prop, state)
    }

    fn action_name(&self, agent: Agent, action: ActionId) -> String {
        self.action_names
            .get(agent.index())
            .and_then(|v| v.get(action.index()))
            .cloned()
            .unwrap_or_else(|| action.to_string())
    }

    fn env_action_name(&self, action: EnvActionId) -> String {
        self.env_action_names
            .get(action.index())
            .cloned()
            .unwrap_or_else(|| action.to_string())
    }
}

/// Builder for [`FnContext`].
///
/// # Example
///
/// A one-agent context with a single toggle action and a `bit` register:
///
/// ```
/// use kbp_systems::{ContextBuilder, Context, GlobalState, Obs, JointAction};
/// use kbp_logic::{Agent, Vocabulary};
///
/// let mut voc = Vocabulary::new();
/// let agent = voc.add_agent("toggler");
/// let bit = voc.add_prop("bit");
///
/// let ctx = ContextBuilder::new(voc)
///     .initial_state(GlobalState::new(vec![0]))
///     .agent_actions(agent, ["noop", "toggle"])
///     .transition(|s, j| {
///         if j.acts[0].0 == 1 { s.with_reg(0, 1 - s.reg(0)) } else { s.clone() }
///     })
///     .observe(|_, s| Obs(u64::from(s.reg(0))))
///     .props(move |p, s| p == bit && s.reg(0) == 1)
///     .build();
/// assert!(ctx.validate().is_ok());
/// assert_eq!(ctx.agent_count(), 1);
/// ```
pub struct ContextBuilder {
    voc: Vocabulary,
    initial: Vec<GlobalState>,
    action_counts: Vec<usize>,
    action_names: Vec<Vec<String>>,
    env_action_names: Vec<String>,
    env_fn: Option<Box<EnvFn>>,
    trans_fn: Option<Box<TransFn>>,
    observe_fn: Option<Box<ObserveFn>>,
    prop_fn: Option<Box<PropFn>>,
}

impl fmt::Debug for ContextBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContextBuilder")
            .field("initial_states", &self.initial.len())
            .field("action_counts", &self.action_counts)
            .finish_non_exhaustive()
    }
}

impl ContextBuilder {
    /// Starts a context over the given vocabulary. Agents must already be
    /// interned in the vocabulary (or be interned before `build`).
    #[must_use]
    pub fn new(voc: Vocabulary) -> Self {
        ContextBuilder {
            voc,
            initial: Vec::new(),
            action_counts: Vec::new(),
            action_names: Vec::new(),
            env_action_names: Vec::new(),
            env_fn: None,
            trans_fn: None,
            observe_fn: None,
            prop_fn: None,
        }
    }

    /// Adds an initial global state.
    #[must_use]
    pub fn initial_state(mut self, state: GlobalState) -> Self {
        self.initial.push(state);
        self
    }

    /// Adds several initial global states.
    #[must_use]
    pub fn initial_states(mut self, states: impl IntoIterator<Item = GlobalState>) -> Self {
        self.initial.extend(states);
        self
    }

    /// Declares `agent`'s action repertoire by listing action names;
    /// `ActionId(k)` is the `k`-th name.
    ///
    /// # Panics
    ///
    /// Panics if agents are declared out of order (declare agent 0 first,
    /// then agent 1, …) — this keeps action tables dense.
    #[must_use]
    pub fn agent_actions<I, S>(mut self, agent: Agent, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        assert_eq!(
            agent.index(),
            self.action_counts.len(),
            "declare agent action repertoires in agent order"
        );
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        self.action_counts.push(names.len());
        self.action_names.push(names);
        self
    }

    /// Names the environment's actions; `EnvActionId(k)` is the `k`-th
    /// name. Optional: if [`env_protocol`](Self::env_protocol) is never
    /// set, the environment has a single unnamed action `EnvActionId(0)`.
    #[must_use]
    pub fn env_actions<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.env_action_names = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the environment protocol (nondeterministic move choice).
    #[must_use]
    pub fn env_protocol(
        mut self,
        f: impl Fn(&GlobalState) -> Vec<EnvActionId> + Send + Sync + 'static,
    ) -> Self {
        self.env_fn = Some(Box::new(f));
        self
    }

    /// Sets the transition function.
    #[must_use]
    pub fn transition(
        mut self,
        f: impl Fn(&GlobalState, &JointAction) -> GlobalState + Send + Sync + 'static,
    ) -> Self {
        self.trans_fn = Some(Box::new(f));
        self
    }

    /// Sets the observation function.
    #[must_use]
    pub fn observe(
        mut self,
        f: impl Fn(Agent, &GlobalState) -> Obs + Send + Sync + 'static,
    ) -> Self {
        self.observe_fn = Some(Box::new(f));
        self
    }

    /// Sets the propositional valuation.
    #[must_use]
    pub fn props(
        mut self,
        f: impl Fn(PropId, &GlobalState) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.prop_fn = Some(Box::new(f));
        self
    }

    /// Finalises the context, substituting inert defaults for unset
    /// hooks: an identity transition, a constant `Obs(0)` observation and
    /// an all-false valuation. Use [`try_build`](Self::try_build) to
    /// require every hook explicitly.
    #[must_use]
    pub fn build(self) -> FnContext {
        let mut b = self;
        if b.trans_fn.is_none() {
            b.trans_fn = Some(Box::new(|s: &GlobalState, _: &JointAction| s.clone()));
        }
        if b.observe_fn.is_none() {
            b.observe_fn = Some(Box::new(|_, _: &GlobalState| Obs(0)));
        }
        if b.prop_fn.is_none() {
            b.prop_fn = Some(Box::new(|_, _: &GlobalState| false));
        }
        match b.try_build() {
            Ok(ctx) => ctx,
            // All three required hooks were just defaulted, so try_build
            // cannot fail; rebuild an empty context as a typed fallback.
            Err(_) => FnContext {
                agents: 0,
                voc: Vocabulary::new(),
                initial: Vec::new(),
                action_counts: Vec::new(),
                action_names: Vec::new(),
                env_action_names: Vec::new(),
                env_fn: Box::new(|_| vec![EnvActionId(0)]),
                trans_fn: Box::new(|s: &GlobalState, _| s.clone()),
                observe_fn: Box::new(|_, _| Obs(0)),
                prop_fn: Box::new(|_, _| false),
            },
        }
    }

    /// Finalises the context, reporting unset hooks as typed errors
    /// instead of substituting defaults.
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::MissingTransition`],
    /// [`ContextError::MissingObservation`] or
    /// [`ContextError::MissingValuation`] if the corresponding hook was
    /// never supplied.
    pub fn try_build(self) -> Result<FnContext, ContextError> {
        let Some(trans_fn) = self.trans_fn else {
            return Err(ContextError::MissingTransition);
        };
        let Some(observe_fn) = self.observe_fn else {
            return Err(ContextError::MissingObservation);
        };
        let Some(prop_fn) = self.prop_fn else {
            return Err(ContextError::MissingValuation);
        };
        Ok(FnContext {
            agents: self.action_counts.len(),
            voc: self.voc,
            initial: self.initial,
            action_counts: self.action_counts,
            action_names: self.action_names,
            env_action_names: self.env_action_names,
            env_fn: self
                .env_fn
                .unwrap_or_else(|| Box::new(|_| vec![EnvActionId(0)])),
            trans_fn,
            observe_fn,
            prop_fn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggle_context() -> FnContext {
        let mut voc = Vocabulary::new();
        let agent = voc.add_agent("toggler");
        let bit = voc.add_prop("bit");
        ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(agent, ["noop", "toggle"])
            .transition(|s, j| {
                if j.acts[0].0 == 1 {
                    s.with_reg(0, 1 - s.reg(0))
                } else {
                    s.clone()
                }
            })
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(move |p, s| p == bit && s.reg(0) == 1)
            .build()
    }

    #[test]
    fn builder_assembles_valid_context() {
        let ctx = toggle_context();
        assert!(ctx.validate().is_ok());
        assert_eq!(ctx.agent_count(), 1);
        assert_eq!(ctx.action_count(Agent::new(0)), 2);
        assert_eq!(ctx.action_name(Agent::new(0), ActionId(1)), "toggle");
        assert_eq!(
            ctx.env_actions(&GlobalState::new(vec![0])),
            vec![EnvActionId(0)]
        );
    }

    #[test]
    fn transition_and_valuation_work() {
        let ctx = toggle_context();
        let s0 = GlobalState::new(vec![0]);
        let j = JointAction::new(EnvActionId(0), vec![ActionId(1)]);
        let s1 = ctx.transition(&s0, &j);
        assert_eq!(s1.reg(0), 1);
        let bit = ctx.vocabulary().prop("bit").unwrap();
        assert!(!ctx.prop_holds(bit, &s0));
        assert!(ctx.prop_holds(bit, &s1));
        assert_eq!(ctx.observe(Agent::new(0), &s1), Obs(1));
    }

    #[test]
    fn validate_rejects_empty_contexts() {
        let voc = Vocabulary::new();
        let ctx = ContextBuilder::new(voc)
            .transition(|s, _| s.clone())
            .observe(|_, _| Obs(0))
            .props(|_, _| false)
            .build();
        assert_eq!(ctx.validate(), Err(ContextError::NoAgents));
    }

    #[test]
    fn validate_requires_initial_states() {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("a");
        let ctx = ContextBuilder::new(voc)
            .agent_actions(a, ["noop"])
            .transition(|s, _| s.clone())
            .observe(|_, _| Obs(0))
            .props(|_, _| false)
            .build();
        assert_eq!(ctx.validate(), Err(ContextError::NoInitialStates));
    }

    #[test]
    fn joint_action_accessor() {
        let j = JointAction::new(EnvActionId(0), vec![ActionId(3), ActionId(4)]);
        assert_eq!(j.of(Agent::new(1)), ActionId(4));
    }
}
