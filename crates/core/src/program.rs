//! Knowledge-based programs: guarded-case statements whose guards test the
//! agent's knowledge.
//!
//! Following FHMV, agent `i`'s program is
//!
//! ```text
//! case of
//!   if  guard_1  do  action_1
//!   if  guard_2  do  action_2
//!   …
//! end case
//! ```
//!
//! where each guard is an *`i`-subjective* formula — a Boolean combination
//! of `K_i ψ` tests, `C_G ψ` tests with `i ∈ G`, and propositions declared
//! local to `i`. At a point, the agent (nondeterministically) performs any
//! action whose guard holds; if none holds, it performs its declared
//! default action. Subjectivity guarantees the induced action set is a
//! function of the agent's local state — i.e. a *protocol*.

use kbp_logic::{Agent, Formula, PropId, Vocabulary};
use kbp_systems::{ActionId, Context};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// One guarded alternative of an agent's program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// The knowledge test.
    pub guard: Formula,
    /// The action performed when the guard holds.
    pub action: ActionId,
}

/// The program of a single agent: clauses plus a default action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentProgram {
    agent: Agent,
    clauses: Vec<Clause>,
    default: ActionId,
}

impl AgentProgram {
    /// The agent this program belongs to.
    #[must_use]
    pub fn agent(&self) -> Agent {
        self.agent
    }

    /// The guarded clauses, in declaration order.
    #[must_use]
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// The action performed when no guard holds.
    #[must_use]
    pub fn default_action(&self) -> ActionId {
        self.default
    }

    /// The action set induced by a guard valuation: the actions of the
    /// clauses reported true, or the default if none fire. Deduplicated
    /// and sorted.
    #[must_use]
    pub fn induced_actions(&self, guard_holds: &[bool]) -> Vec<ActionId> {
        debug_assert_eq!(guard_holds.len(), self.clauses.len());
        let mut acts: Vec<ActionId> = self
            .clauses
            .iter()
            .zip(guard_holds)
            .filter(|&(_, &h)| h)
            .map(|(c, _)| c.action)
            .collect();
        if acts.is_empty() {
            acts.push(self.default);
        }
        acts.sort_unstable();
        acts.dedup();
        acts
    }

    /// All action sets this program can induce, over every subset of
    /// clauses firing — the candidate space the implementation enumerator
    /// searches. Deduplicated; at most `2^clauses` entries.
    #[must_use]
    pub fn candidate_action_sets(&self) -> Vec<Vec<ActionId>> {
        let k = self.clauses.len();
        let mut out: Vec<Vec<ActionId>> = Vec::new();
        for mask in 0u32..(1u32 << k) {
            let holds: Vec<bool> = (0..k).map(|j| mask & (1 << j) != 0).collect();
            let set = self.induced_actions(&holds);
            if !out.contains(&set) {
                out.push(set);
            }
        }
        out
    }
}

/// Errors detected when validating a knowledge-based program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbpError {
    /// Two programs were declared for the same agent.
    DuplicateAgent(Agent),
    /// Two default actions were declared for the same agent.
    DuplicateDefault(Agent),
    /// The context has an agent with no program.
    MissingAgent(Agent),
    /// A program refers to an agent outside the context.
    UnknownAgent(Agent),
    /// A clause guard is not subjective for its agent.
    NotSubjective {
        /// The agent whose clause is offending.
        agent: Agent,
        /// Index of the offending clause.
        clause: usize,
        /// The guard, rendered with the vocabulary.
        guard: String,
    },
    /// A clause guard has a temporal operator outside every epistemic
    /// operator (such a guard is not a function of any point).
    BareTemporalGuard {
        /// The agent whose clause is offending.
        agent: Agent,
        /// Index of the offending clause.
        clause: usize,
    },
    /// An action is outside the agent's repertoire.
    ActionOutOfRange {
        /// The agent.
        agent: Agent,
        /// The offending action.
        action: ActionId,
    },
    /// A guard mentions a proposition or agent unknown to the vocabulary.
    Vocabulary(String),
}

impl fmt::Display for KbpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbpError::DuplicateAgent(a) => write!(f, "two programs declared for agent {a}"),
            KbpError::DuplicateDefault(a) => {
                write!(f, "two default actions declared for agent {a}")
            }
            KbpError::MissingAgent(a) => write!(f, "no program declared for agent {a}"),
            KbpError::UnknownAgent(a) => write!(f, "program for unknown agent {a}"),
            KbpError::NotSubjective {
                agent,
                clause,
                guard,
            } => write!(
                f,
                "clause {clause} of agent {agent} has non-subjective guard `{guard}` \
                 (guards must be Boolean combinations of K_i tests, C_G tests with i in G, \
                 and propositions declared local)"
            ),
            KbpError::BareTemporalGuard { agent, clause } => write!(
                f,
                "clause {clause} of agent {agent} has a temporal operator outside \
                 every knowledge operator"
            ),
            KbpError::ActionOutOfRange { agent, action } => {
                write!(f, "action {action} outside the repertoire of agent {agent}")
            }
            KbpError::Vocabulary(msg) => write!(f, "vocabulary mismatch: {msg}"),
        }
    }
}

impl Error for KbpError {}

/// A joint knowledge-based program: one [`AgentProgram`] per agent.
///
/// Build with [`Kbp::builder`]; validate against a context with
/// [`Kbp::validate`]. The program is *not* directly executable — its
/// meaning is the set of protocols that *implement* it (see
/// [`check_implementation`](crate::check_implementation)).
///
/// # Example
///
/// The sender's program from the bit-transmission problem: *"while you
/// don't know that the receiver knows the bit, keep sending it"*:
///
/// ```
/// use kbp_core::Kbp;
/// use kbp_logic::{Agent, Formula, PropId};
/// use kbp_systems::ActionId;
///
/// let (sender, receiver) = (Agent::new(0), Agent::new(1));
/// let bit = Formula::prop(PropId::new(0));
/// let recv_knows = Formula::knows_whether(receiver, bit);
/// let guard = Formula::not(Formula::knows(sender, recv_knows));
///
/// let kbp = Kbp::builder()
///     .clause(sender, guard, ActionId(1))   // send
///     .default_action(sender, ActionId(0))  // otherwise: no-op
///     .default_action(receiver, ActionId(0))
///     .build();
/// assert_eq!(kbp.programs().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kbp {
    programs: Vec<AgentProgram>,
    local_props: HashSet<(Agent, PropId)>,
    /// Agents the builder was given more than one default action for,
    /// reported by [`validate`](Kbp::validate).
    duplicate_defaults: Vec<Agent>,
}

impl Kbp {
    /// Starts building a program.
    #[must_use]
    pub fn builder() -> KbpBuilder {
        KbpBuilder::default()
    }

    /// The per-agent programs, sorted by agent.
    #[must_use]
    pub fn programs(&self) -> &[AgentProgram] {
        &self.programs
    }

    /// The program of one agent, if declared.
    #[must_use]
    pub fn program(&self, agent: Agent) -> Option<&AgentProgram> {
        self.programs.iter().find(|p| p.agent == agent)
    }

    /// Whether `prop` was declared local to `agent` (usable bare in its
    /// guards).
    #[must_use]
    pub fn is_local_prop(&self, agent: Agent, prop: PropId) -> bool {
        self.local_props.contains(&(agent, prop))
    }

    /// Whether any guard contains a temporal operator (necessarily inside
    /// an epistemic operator, by validation). Such programs are outside
    /// the scope of the unique-implementation theorem and need the
    /// [`Enumerator`](crate::Enumerator).
    #[must_use]
    pub fn has_future_guards(&self) -> bool {
        self.programs
            .iter()
            .flat_map(|p| &p.clauses)
            .any(|c| c.guard.has_temporal())
    }

    /// Checks the program against a context: no agent was given two
    /// default actions, every context agent has a program, guards are
    /// subjective and use in-range vocabulary, and actions are in range.
    ///
    /// # Errors
    ///
    /// Returns the first [`KbpError`] found.
    pub fn validate(&self, ctx: &dyn Context) -> Result<(), KbpError> {
        if let Some(&agent) = self.duplicate_defaults.first() {
            return Err(KbpError::DuplicateDefault(agent));
        }
        let n = ctx.agent_count();
        for p in &self.programs {
            if p.agent.index() >= n {
                return Err(KbpError::UnknownAgent(p.agent));
            }
        }
        for i in 0..n {
            let agent = Agent::new(i);
            if self.program(agent).is_none() {
                return Err(KbpError::MissingAgent(agent));
            }
        }
        let voc = ctx.vocabulary();
        for p in &self.programs {
            let repertoire = ctx.action_count(p.agent);
            if p.default.index() >= repertoire {
                return Err(KbpError::ActionOutOfRange {
                    agent: p.agent,
                    action: p.default,
                });
            }
            for (ci, c) in p.clauses.iter().enumerate() {
                if c.action.index() >= repertoire {
                    return Err(KbpError::ActionOutOfRange {
                        agent: p.agent,
                        action: c.action,
                    });
                }
                voc.validate(&c.guard)
                    .map_err(|e| KbpError::Vocabulary(e.to_string()))?;
                if !c.guard.temporal_under_epistemic() {
                    return Err(KbpError::BareTemporalGuard {
                        agent: p.agent,
                        clause: ci,
                    });
                }
                let is_local = |q: PropId| self.is_local_prop(p.agent, q);
                if !guard_is_subjective(&c.guard, p.agent, &is_local) {
                    return Err(KbpError::NotSubjective {
                        agent: p.agent,
                        clause: ci,
                        guard: c.guard.to_string_with(voc),
                    });
                }
            }
        }
        Ok(())
    }

    /// Renders the whole program as `program` blocks, naming agents,
    /// propositions and actions as `ctx` does — the syntax
    /// `kbp_lang::parse_program` reads back. Local-proposition
    /// declarations have no syntax there and are not printed.
    #[must_use]
    pub fn to_pretty(&self, ctx: &dyn Context) -> String {
        let voc = ctx.vocabulary();
        let mut out = String::new();
        for p in &self.programs {
            let name = if p.agent.index() < voc.agent_count() {
                voc.agent_name(p.agent).to_owned()
            } else {
                p.agent.to_string()
            };
            out.push_str(&format!("program {name} {{\n"));
            for c in &p.clauses {
                out.push_str(&format!(
                    "  case {} do {}\n",
                    c.guard.to_string_with(voc),
                    ctx.action_name(p.agent, c.action)
                ));
            }
            out.push_str(&format!(
                "  default {}\n}}\n",
                ctx.action_name(p.agent, p.default)
            ));
        }
        out
    }

    /// Renders the program with raw identifiers (no context needed).
    #[must_use]
    pub fn to_compact(&self, voc: &Vocabulary) -> String {
        let mut out = String::new();
        for p in &self.programs {
            for c in &p.clauses {
                out.push_str(&format!(
                    "[{}] if {} do {}; ",
                    p.agent,
                    c.guard.to_string_with(voc),
                    c.action
                ));
            }
            out.push_str(&format!("[{}] else {}\n", p.agent, p.default));
        }
        out
    }
}

/// Subjectivity check used for guards: `temporal under own K` is allowed,
/// so strip through the agent's own modalities first.
fn guard_is_subjective(guard: &Formula, agent: Agent, is_local: &impl Fn(PropId) -> bool) -> bool {
    // Reuse the logic-crate notion: a guard is subjective if it is a
    // Boolean combination of K_agent/C_{G∋agent} formulas and local
    // propositions. (Temporal operators *inside* K are fine; the logic
    // crate's check already accepts them there.)
    guard.is_subjective_for_with(agent, is_local)
}

/// Builder for [`Kbp`].
#[derive(Debug, Clone, Default)]
pub struct KbpBuilder {
    clauses: Vec<(Agent, Clause)>,
    defaults: Vec<(Agent, ActionId)>,
    local_props: HashSet<(Agent, PropId)>,
}

impl KbpBuilder {
    /// Adds a clause `if guard do action` to `agent`'s program.
    #[must_use]
    pub fn clause(mut self, agent: Agent, guard: Formula, action: ActionId) -> Self {
        self.clauses.push((agent, Clause { guard, action }));
        self
    }

    /// Sets `agent`'s default action (performed when no guard holds).
    /// Declaring a default also declares the agent, so pure "do-nothing"
    /// agents need only this call. Defaults to `ActionId(0)` for agents
    /// that have clauses but no explicit default.
    #[must_use]
    pub fn default_action(mut self, agent: Agent, action: ActionId) -> Self {
        self.defaults.push((agent, action));
        self
    }

    /// Declares `prop` local to `agent`: its valuation is a function of
    /// the agent's local state, so it may appear bare in guards.
    ///
    /// **Caution**: locality is the caller's promise about the context;
    /// the solver re-checks it dynamically and fails loudly if violated.
    #[must_use]
    pub fn local_prop(mut self, agent: Agent, prop: PropId) -> Self {
        self.local_props.insert((agent, prop));
        self
    }

    /// Finalises the program. An agent given two default actions keeps
    /// the first, and [`Kbp::validate`] reports
    /// [`KbpError::DuplicateDefault`] for it.
    #[must_use]
    pub fn build(self) -> Kbp {
        let mut agents: Vec<Agent> = self
            .clauses
            .iter()
            .map(|(a, _)| *a)
            .chain(self.defaults.iter().map(|(a, _)| *a))
            .collect();
        agents.sort_unstable();
        agents.dedup();
        let mut programs = Vec::with_capacity(agents.len());
        let mut duplicate_defaults = Vec::new();
        for agent in agents {
            let clauses: Vec<Clause> = self
                .clauses
                .iter()
                .filter(|(a, _)| *a == agent)
                .map(|(_, c)| c.clone())
                .collect();
            let defaults: Vec<ActionId> = self
                .defaults
                .iter()
                .filter(|(a, _)| *a == agent)
                .map(|(_, d)| *d)
                .collect();
            if defaults.len() > 1 {
                duplicate_defaults.push(agent);
            }
            programs.push(AgentProgram {
                agent,
                clauses,
                default: defaults.first().copied().unwrap_or(ActionId(0)),
            });
        }
        Kbp {
            programs,
            local_props: self.local_props,
            duplicate_defaults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbp_systems::{ContextBuilder, FnContext, GlobalState, Obs};

    fn two_agent_context() -> FnContext {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("a");
        let b = voc.add_agent("b");
        voc.add_prop("p");
        ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop", "go"])
            .agent_actions(b, ["noop"])
            .transition(|s, _| s.clone())
            .observe(|_, _| Obs(0))
            .props(|_, _| false)
            .build()
    }

    fn p0() -> Formula {
        Formula::prop(PropId::new(0))
    }

    #[test]
    fn builder_groups_clauses_by_agent() {
        let a = Agent::new(0);
        let b = Agent::new(1);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, p0()), ActionId(1))
            .clause(a, Formula::not(Formula::knows(a, p0())), ActionId(0))
            .default_action(b, ActionId(0))
            .build();
        assert_eq!(kbp.programs().len(), 2);
        assert_eq!(kbp.program(a).unwrap().clauses().len(), 2);
        assert_eq!(kbp.program(b).unwrap().clauses().len(), 0);
    }

    #[test]
    fn validate_accepts_subjective_guards() {
        let ctx = two_agent_context();
        let a = Agent::new(0);
        let b = Agent::new(1);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, p0()), ActionId(1))
            .default_action(b, ActionId(0))
            .build();
        assert_eq!(kbp.validate(&ctx), Ok(()));
    }

    #[test]
    fn validate_rejects_other_agents_knowledge() {
        let ctx = two_agent_context();
        let a = Agent::new(0);
        let b = Agent::new(1);
        // Agent a cannot branch directly on what b knows.
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(b, p0()), ActionId(1))
            .default_action(b, ActionId(0))
            .build();
        assert!(matches!(
            kbp.validate(&ctx),
            Err(KbpError::NotSubjective { clause: 0, .. })
        ));
    }

    #[test]
    fn validate_rejects_bare_props_unless_local() {
        let ctx = two_agent_context();
        let a = Agent::new(0);
        let b = Agent::new(1);
        let bare = Kbp::builder()
            .clause(a, p0(), ActionId(1))
            .default_action(b, ActionId(0))
            .build();
        assert!(matches!(
            bare.validate(&ctx),
            Err(KbpError::NotSubjective { .. })
        ));
        let declared = Kbp::builder()
            .clause(a, p0(), ActionId(1))
            .local_prop(a, PropId::new(0))
            .default_action(b, ActionId(0))
            .build();
        assert_eq!(declared.validate(&ctx), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_agent_and_bad_action() {
        let ctx = two_agent_context();
        let a = Agent::new(0);
        let b = Agent::new(1);
        let missing = Kbp::builder()
            .clause(a, Formula::knows(a, p0()), ActionId(1))
            .build();
        assert_eq!(missing.validate(&ctx), Err(KbpError::MissingAgent(b)));
        let bad_action = Kbp::builder()
            .clause(a, Formula::knows(a, p0()), ActionId(5))
            .default_action(b, ActionId(0))
            .build();
        assert!(matches!(
            bad_action.validate(&ctx),
            Err(KbpError::ActionOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_bare_temporal_guard() {
        let ctx = two_agent_context();
        let a = Agent::new(0);
        let b = Agent::new(1);
        let kbp = Kbp::builder()
            .clause(a, Formula::eventually(Formula::knows(a, p0())), ActionId(1))
            .default_action(b, ActionId(0))
            .build();
        assert!(matches!(
            kbp.validate(&ctx),
            Err(KbpError::BareTemporalGuard { clause: 0, .. })
        ));
    }

    #[test]
    fn future_guard_detection() {
        let a = Agent::new(0);
        let atemporal = Kbp::builder()
            .clause(a, Formula::knows(a, p0()), ActionId(0))
            .build();
        assert!(!atemporal.has_future_guards());
        let temporal = Kbp::builder()
            .clause(a, Formula::knows(a, Formula::eventually(p0())), ActionId(0))
            .build();
        assert!(temporal.has_future_guards());
    }

    #[test]
    fn induced_actions_and_candidates() {
        let a = Agent::new(0);
        let prog = Kbp::builder()
            .clause(a, Formula::knows(a, p0()), ActionId(1))
            .clause(a, Formula::not(Formula::knows(a, p0())), ActionId(2))
            .default_action(a, ActionId(0))
            .build();
        let p = prog.program(a).unwrap();
        assert_eq!(p.induced_actions(&[true, false]), vec![ActionId(1)]);
        assert_eq!(p.induced_actions(&[false, false]), vec![ActionId(0)]);
        assert_eq!(
            p.induced_actions(&[true, true]),
            vec![ActionId(1), ActionId(2)]
        );
        let cands = p.candidate_action_sets();
        assert_eq!(cands.len(), 4); // {0},{1},{2},{1,2}
    }

    #[test]
    fn pretty_printing_uses_names() {
        let ctx = two_agent_context();
        let a = Agent::new(0);
        let b = Agent::new(1);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, p0()), ActionId(1))
            .default_action(b, ActionId(0))
            .build();
        let s = kbp.to_pretty(&ctx);
        assert_eq!(
            s,
            "program a {\n  case K{a} p do go\n  default noop\n}\n\
             program b {\n  default noop\n}\n"
        );
    }

    #[test]
    fn a_second_default_is_reported_by_validate() {
        let ctx = two_agent_context();
        let (a, b) = (Agent::new(0), Agent::new(1));
        let kbp = Kbp::builder()
            .default_action(a, ActionId(1))
            .default_action(b, ActionId(0))
            .default_action(a, ActionId(0))
            .build();
        assert_eq!(kbp.program(a).unwrap().default_action(), ActionId(1));
        assert_eq!(kbp.validate(&ctx), Err(KbpError::DuplicateDefault(a)));
    }
}
