//! The fault-injecting context combinator.

use crate::schedule::{EnvFault, FaultSchedule};
use kbp_logic::{Agent, PropId, Vocabulary};
use kbp_systems::{ActionId, Context, ContextError, EnvActionId, GlobalState, JointAction, Obs};

/// The sentinel observation a corrupted sensor reports. Every state maps
/// to this one value while corruption is active — a non-injective
/// collapse, so corruption genuinely destroys information (a bijective
/// scrambling would leave every knowledge partition unchanged). Contexts
/// that legitimately emit `Obs(u64::MAX)` should not be combined with
/// observation corruption.
pub const CORRUPT_OBS: Obs = Obs(u64::MAX);

/// A [`Context`] that injects the faults of a [`FaultSchedule`] into a
/// wrapped context.
///
/// With a fault-free schedule the wrapper delegates every method verbatim
/// — same states, same observations, bit-identical generated systems.
/// With faults, the global state is extended by bookkeeping registers
/// (`[inner…, clock, per agent: frozen obs lo, hi]`): a clock for
/// time-indexed fault lookup, and the crash-onset observation of each
/// crashed agent (its senses freeze while it is down).
///
/// Crashed agents take a designated no-op action regardless of what their
/// protocol chooses — [`ActionId(0)`](ActionId) unless overridden with
/// [`with_noop`](Self::with_noop).
pub struct FaultyContext<C> {
    inner: C,
    schedule: FaultSchedule,
    /// Register count of the wrapped context's states (faulty states
    /// carry extra registers after this prefix).
    inner_regs: usize,
    agents: usize,
    noop: Vec<ActionId>,
}

impl<C: Context> FaultyContext<C> {
    /// Wraps `inner`, injecting the faults of `schedule`.
    #[must_use]
    pub fn new(inner: C, schedule: FaultSchedule) -> Self {
        let inner_regs = inner.initial_states().first().map_or(0, GlobalState::len);
        let agents = inner.agent_count();
        FaultyContext {
            inner,
            schedule,
            inner_regs,
            agents,
            noop: vec![ActionId(0); agents],
        }
    }

    /// Sets the designated no-op action a crashed `agent` is forced to
    /// take (default: `ActionId(0)`). Out-of-range agents are ignored.
    #[must_use]
    pub fn with_noop(mut self, agent: Agent, action: ActionId) -> Self {
        if let Some(slot) = self.noop.get_mut(agent.index()) {
            *slot = action;
        }
        self
    }

    /// The wrapped context.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The fault schedule.
    #[must_use]
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    fn clock_idx(&self) -> usize {
        self.inner_regs
    }

    fn frozen_idx(&self, agent: usize) -> usize {
        self.inner_regs + 1 + 2 * agent
    }

    /// The time step encoded in a wrapped state's clock register.
    fn time_of(&self, state: &GlobalState) -> usize {
        state.reg(self.clock_idx()) as usize
    }

    /// The wrapped context's view of a faulty state (bookkeeping registers
    /// stripped). States reaching this context always carry them — they
    /// are produced by our own `initial_states` / `transition`.
    fn strip(&self, state: &GlobalState) -> GlobalState {
        GlobalState::new(state.regs()[..self.inner_regs].to_vec())
    }

    fn frozen_obs(&self, state: &GlobalState, agent: usize) -> Obs {
        let lo = u64::from(state.reg(self.frozen_idx(agent)));
        let hi = u64::from(state.reg(self.frozen_idx(agent) + 1));
        Obs(lo | (hi << 32))
    }

    /// Assembles the faulty successor state: inner registers, bumped
    /// clock, and frozen-observation registers (captured at crash onset,
    /// carried while down, cleared on recovery).
    fn wrap(&self, next_inner: GlobalState, t_next: usize, prev: &GlobalState) -> GlobalState {
        let mut regs = next_inner.regs().to_vec();
        regs.push(t_next as u32);
        for i in 0..self.agents {
            let agent = Agent::new(i);
            if self.schedule.is_crashed(agent, t_next) {
                let obs = if t_next > 0 && self.schedule.is_crashed(agent, t_next - 1) {
                    // Still down: carry the onset observation unchanged.
                    self.frozen_obs(prev, i)
                } else {
                    // Crash onset: the senses freeze at what the agent
                    // would have seen right now.
                    self.inner.observe(agent, &next_inner)
                };
                regs.push(obs.0 as u32);
                regs.push((obs.0 >> 32) as u32);
            } else {
                regs.push(0);
                regs.push(0);
            }
        }
        GlobalState::new(regs)
    }
}

impl<C: Context> Context for FaultyContext<C> {
    fn agent_count(&self) -> usize {
        self.inner.agent_count()
    }

    fn vocabulary(&self) -> &Vocabulary {
        self.inner.vocabulary()
    }

    fn initial_states(&self) -> Vec<GlobalState> {
        if !self.schedule.has_faults() {
            return self.inner.initial_states();
        }
        self.inner
            .initial_states()
            .into_iter()
            .map(|s| {
                let mut regs = s.regs().to_vec();
                regs.push(0); // clock
                for i in 0..self.agents {
                    let agent = Agent::new(i);
                    if self.schedule.is_crashed(agent, 0) {
                        let obs = self.inner.observe(agent, &s);
                        regs.push(obs.0 as u32);
                        regs.push((obs.0 >> 32) as u32);
                    } else {
                        regs.push(0);
                        regs.push(0);
                    }
                }
                GlobalState::new(regs)
            })
            .collect()
    }

    fn env_actions(&self, state: &GlobalState) -> Vec<EnvActionId> {
        if !self.schedule.has_faults() {
            return self.inner.env_actions(state);
        }
        let t = self.time_of(state);
        let s_in = self.strip(state);
        match self.schedule.env_fault(t) {
            Some(EnvFault::Force(a)) => vec![a],
            Some(EnvFault::Restrict(allowed)) => {
                let offer = self.inner.env_actions(&s_in);
                let narrowed: Vec<EnvActionId> = offer
                    .iter()
                    .copied()
                    .filter(|a| allowed.contains(a))
                    .collect();
                if narrowed.is_empty() {
                    offer
                } else {
                    narrowed
                }
            }
            // A stalled step ignores the environment's move entirely, so
            // offering more than one choice would only multiply identical
            // successors.
            Some(EnvFault::Delay { .. }) => self
                .inner
                .env_actions(&s_in)
                .first()
                .map_or_else(|| vec![EnvActionId(0)], |&a| vec![a]),
            Some(EnvFault::Duplicate) | None => self.inner.env_actions(&s_in),
        }
    }

    fn action_count(&self, agent: Agent) -> usize {
        self.inner.action_count(agent)
    }

    fn transition(&self, state: &GlobalState, joint: &JointAction) -> GlobalState {
        if !self.schedule.has_faults() {
            return self.inner.transition(state, joint);
        }
        let t = self.time_of(state);
        let s_in = self.strip(state);
        // Crashed agents act their designated no-op, whatever the
        // protocol chose.
        let mut acts = joint.acts.clone();
        for (i, act) in acts.iter_mut().enumerate() {
            if self.schedule.is_crashed(Agent::new(i), t) {
                *act = self.noop.get(i).copied().unwrap_or(ActionId(0));
            }
        }
        let adjusted = JointAction::new(joint.env, acts);
        let next_inner = match self.schedule.env_fault(t) {
            Some(EnvFault::Delay { .. }) => s_in.clone(),
            Some(EnvFault::Duplicate) => {
                let once = self.inner.transition(&s_in, &adjusted);
                self.inner.transition(&once, &adjusted)
            }
            _ => self.inner.transition(&s_in, &adjusted),
        };
        self.wrap(next_inner, t + 1, state)
    }

    fn observe(&self, agent: Agent, state: &GlobalState) -> Obs {
        if !self.schedule.has_faults() {
            return self.inner.observe(agent, state);
        }
        let t = self.time_of(state);
        if self.schedule.is_crashed(agent, t) {
            return self.frozen_obs(state, agent.index());
        }
        if self.schedule.corrupts(agent, t) {
            return CORRUPT_OBS;
        }
        self.inner.observe(agent, &self.strip(state))
    }

    fn prop_holds(&self, prop: PropId, state: &GlobalState) -> bool {
        if !self.schedule.has_faults() {
            return self.inner.prop_holds(prop, state);
        }
        self.inner.prop_holds(prop, &self.strip(state))
    }

    fn action_name(&self, agent: Agent, action: ActionId) -> String {
        self.inner.action_name(agent, action)
    }

    fn env_action_name(&self, action: EnvActionId) -> String {
        self.inner.env_action_name(action)
    }

    fn validate(&self) -> Result<(), ContextError> {
        self.inner.validate()
    }
}

impl<C: std::fmt::Debug> std::fmt::Debug for FaultyContext<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyContext")
            .field("inner", &self.inner)
            .field("schedule", &self.schedule)
            .field("inner_regs", &self.inner_regs)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::CrashKind;
    use kbp_systems::ContextBuilder;

    /// One agent with a counter it can increment and fully observe; the
    /// environment may add 0 or 10 per step.
    fn counter() -> impl Context {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("a");
        let big = voc.add_prop("big");
        ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop", "inc"])
            .env_actions(["calm", "gust"])
            .env_protocol(|_| vec![EnvActionId(0), EnvActionId(1)])
            .transition(|s, j| {
                let mut v = s.reg(0);
                if j.acts[0] == ActionId(1) {
                    v += 1;
                }
                if j.env == EnvActionId(1) {
                    v += 10;
                }
                s.with_reg(0, v)
            })
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(move |p, s| p == big && s.reg(0) >= 10)
            .build()
    }

    fn joint(env: u32, act: u32) -> JointAction {
        JointAction::new(EnvActionId(env), vec![ActionId(act)])
    }

    #[test]
    fn zero_fault_wrapper_is_transparent() {
        let plain = counter();
        let faulty = FaultyContext::new(counter(), FaultSchedule::new(123));
        assert_eq!(faulty.initial_states(), plain.initial_states());
        let s0 = &plain.initial_states()[0];
        assert_eq!(faulty.env_actions(s0), plain.env_actions(s0));
        let j = joint(1, 1);
        assert_eq!(faulty.transition(s0, &j), plain.transition(s0, &j));
        assert_eq!(
            faulty.observe(Agent::new(0), s0),
            plain.observe(Agent::new(0), s0)
        );
        assert!(faulty.validate().is_ok());
    }

    #[test]
    fn forced_env_action_overrides_the_offer() {
        let schedule = FaultSchedule::new(0).env_fault_at(0, EnvFault::Force(EnvActionId(0)));
        let faulty = FaultyContext::new(counter(), schedule);
        let s0 = &faulty.initial_states()[0];
        assert_eq!(faulty.env_actions(s0), vec![EnvActionId(0)]);
        // At time 1 the fault is gone: full offer again.
        let s1 = faulty.transition(s0, &joint(0, 0));
        assert_eq!(
            faulty.env_actions(&s1),
            vec![EnvActionId(0), EnvActionId(1)]
        );
    }

    #[test]
    fn restrict_intersects_and_never_empties() {
        let schedule = FaultSchedule::new(0)
            .env_fault_at(0, EnvFault::Restrict(vec![EnvActionId(1)]))
            .env_fault_at(1, EnvFault::Restrict(vec![EnvActionId(9)]));
        let faulty = FaultyContext::new(counter(), schedule);
        let s0 = &faulty.initial_states()[0];
        assert_eq!(faulty.env_actions(s0), vec![EnvActionId(1)]);
        // An impossible restriction falls back to the full offer.
        let s1 = faulty.transition(s0, &joint(1, 0));
        assert_eq!(
            faulty.env_actions(&s1),
            vec![EnvActionId(0), EnvActionId(1)]
        );
    }

    #[test]
    fn delay_stalls_the_inner_state() {
        let schedule = FaultSchedule::new(0).env_fault_at(0, EnvFault::Delay { hold: 2 });
        let faulty = FaultyContext::new(counter(), schedule);
        let s0 = faulty.initial_states()[0].clone();
        // The agent tries to increment; the stalled steps swallow it.
        let s1 = faulty.transition(&s0, &joint(1, 1));
        assert_eq!(s1.reg(0), 0, "stalled step must not change inner state");
        let s2 = faulty.transition(&s1, &joint(1, 1));
        assert_eq!(s2.reg(0), 0);
        // Third step runs normally.
        let s3 = faulty.transition(&s2, &joint(0, 1));
        assert_eq!(s3.reg(0), 1);
        // The clock still advanced through the stall.
        assert_eq!(faulty.time_of(&s3), 3);
    }

    #[test]
    fn duplicate_applies_the_step_twice() {
        let schedule = FaultSchedule::new(0).env_fault_at(0, EnvFault::Duplicate);
        let faulty = FaultyContext::new(counter(), schedule);
        let s0 = faulty.initial_states()[0].clone();
        let s1 = faulty.transition(&s0, &joint(1, 1));
        // inc + gust, twice: (1 + 10) * 2.
        assert_eq!(s1.reg(0), 22);
    }

    #[test]
    fn crashed_agent_noops_and_freezes() {
        let schedule =
            FaultSchedule::new(0).crash(Agent::new(0), CrashKind::Recovery { down: 1, up: 3 });
        let faulty = FaultyContext::new(counter(), schedule);
        let a = Agent::new(0);
        let s0 = faulty.initial_states()[0].clone();
        // t=0: running; increments apply.
        let s1 = faulty.transition(&s0, &joint(0, 1));
        assert_eq!(s1.reg(0), 1);
        // t=1: down. Its action is discarded; environment still acts.
        let s2 = faulty.transition(&s1, &joint(1, 1));
        assert_eq!(s2.reg(0), 11, "crashed agent's inc must be dropped");
        // Observation frozen at the crash-onset value (counter was 1).
        assert_eq!(faulty.observe(a, &s1), Obs(1));
        assert_eq!(faulty.observe(a, &s2), Obs(1), "senses frozen while down");
        // t=3: recovered — sees the current counter again.
        let s3 = faulty.transition(&s2, &joint(0, 1));
        assert_eq!(faulty.observe(a, &s3), Obs(u64::from(s3.reg(0))));
        assert_eq!(s3.reg(0), 11, "still down at t=2");
    }

    #[test]
    fn corruption_collapses_observations() {
        let schedule = FaultSchedule::new(0).corrupt_observation_at(Agent::new(0), 1);
        let faulty = FaultyContext::new(counter(), schedule);
        let a = Agent::new(0);
        let s0 = faulty.initial_states()[0].clone();
        let s1a = faulty.transition(&s0, &joint(0, 0));
        let s1b = faulty.transition(&s0, &joint(1, 1));
        assert_ne!(s1a.reg(0), s1b.reg(0));
        // Distinct states, one corrupted observation: non-injective.
        assert_eq!(faulty.observe(a, &s1a), CORRUPT_OBS);
        assert_eq!(faulty.observe(a, &s1b), CORRUPT_OBS);
        assert_ne!(faulty.observe(a, &s0), CORRUPT_OBS);
    }
}
