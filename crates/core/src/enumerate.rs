//! Enumeration of *all* (bounded) implementations of a knowledge-based
//! program.
//!
//! For programs whose guards refer to the future, the fixed-point equation
//! `P = Pg^{I^rep(P,γ)}` may have zero, one or many solutions — FHMV's
//! famous indeterminacy. This module searches the space of candidate
//! protocols:
//!
//! * clauses with **past-determined** guards are evaluated directly on the
//!   frontier layer (no branching — this is the inductive solver embedded
//!   as a pruning rule);
//! * clauses with **future-referring** guards are *guessed*: the search
//!   branches over which of them fire at each reached local state;
//! * when the horizon is reached, the guess is verified by evaluating
//!   every guard in the generated system and comparing with the actions
//!   actually taken (the comparison core shared with
//!   [`check_implementation`](crate::check_implementation)).
//!
//! All guards — past-determined and future-referring alike — are interned
//! once into a single [`FormulaArena`] owned by the run's
//! [`EvalEngine`]; both the pruning evaluations and the end-of-horizon
//! verification read from it, so exactly one arena exists per run
//! (visible as `stats().arenas == 1`).
//!
//! The search is exhaustive over the bounded protocol space, so with
//! sufficient budget the returned enumeration is *complete*: it finds
//! every implementation and proves there are no others.

use crate::budget::Resource;
use crate::implement::compare_with_sets;
use crate::program::Kbp;
use crate::solve::{SolveError, SolveStats};
use kbp_kripke::{BitSet, EvalCache, EvalEngine, EvalError};
use kbp_logic::Agent;
use kbp_logic::{FormulaArena, FormulaId};
use kbp_systems::{
    ActionId, Context, InterpretedSystem, LocalId, MapProtocol, Obs, Recall, StepChoices,
    SystemBuilder,
};
use std::fmt;
use std::time::{Duration, Instant};

/// One implementation found by the enumerator.
#[derive(Debug)]
pub struct Implementation {
    /// The implementing standard protocol.
    pub protocol: MapProtocol,
    /// The system it generates (the fixed point's interpreted system).
    pub system: InterpretedSystem,
}

/// The outcome of an enumeration run.
#[derive(Debug)]
pub struct Enumeration {
    implementations: Vec<Implementation>,
    branches_explored: usize,
    complete: bool,
    exhausted: Option<Resource>,
    stats: SolveStats,
}

impl Enumeration {
    /// The implementations found, in search order.
    #[must_use]
    pub fn implementations(&self) -> &[Implementation] {
        &self.implementations
    }

    /// Number of implementations found.
    #[must_use]
    pub fn count(&self) -> usize {
        self.implementations.len()
    }

    /// How many search branches (layer extensions) were explored.
    #[must_use]
    pub fn branches_explored(&self) -> usize {
        self.branches_explored
    }

    /// Whether the search space was exhausted. When `true`, `count()` is
    /// the exact number of bounded implementations; when `false`, a
    /// budget was hit and more may exist.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The first budget that stopped the search, if any: the requested
    /// solution count, the branch cap, the wall-clock deadline, or a
    /// branch's node limit. `None` exactly when
    /// [`is_complete`](Self::is_complete) — the found implementations are
    /// always best-so-far regardless.
    #[must_use]
    pub fn exhausted(&self) -> Option<Resource> {
        self.exhausted
    }

    /// Evaluation statistics for the whole search. In particular
    /// `stats.arenas == 1`: every guard of every branch is interned into
    /// one shared [`FormulaArena`] owned by the run's evaluation engine.
    #[must_use]
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Consumes the enumeration, returning the implementations.
    #[must_use]
    pub fn into_implementations(self) -> Vec<Implementation> {
        self.implementations
    }
}

impl fmt::Display for Enumeration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} implementation(s) found in {} branches (",
            self.count(),
            self.branches_explored,
        )?;
        match self.exhausted {
            None => write!(f, "complete")?,
            Some(r) => write!(f, "budget exhausted: {r}")?,
        }
        write!(f, ")")
    }
}

/// Exhaustive search for the implementations of a KBP in a context.
///
/// # Example
///
/// FHMV's self-fulfilling program — "if you know the lamp will eventually
/// be lit, switch it on" — has exactly two implementations (always switch
/// / never switch):
///
/// ```
/// use kbp_core::{Enumerator, Kbp};
/// use kbp_logic::{Agent, Formula, Vocabulary};
/// use kbp_systems::{ActionId, ContextBuilder, GlobalState, Obs};
///
/// let mut voc = Vocabulary::new();
/// let a_name = voc.add_agent("a");
/// let lit = voc.add_prop("lit");
/// let ctx = ContextBuilder::new(voc)
///     .initial_state(GlobalState::new(vec![0]))
///     .agent_actions(a_name, ["noop", "switch"])
///     .transition(|s, j| if j.acts[0] == ActionId(1) { s.with_reg(0, 1) } else { s.clone() })
///     .observe(|_, s| Obs(u64::from(s.reg(0))))
///     .props(move |p, s| p == lit && s.reg(0) == 1)
///     .build();
///
/// let a = Agent::new(0);
/// let kbp = Kbp::builder()
///     .clause(a, Formula::knows(a, Formula::eventually(Formula::prop(lit))), ActionId(1))
///     .default_action(a, ActionId(0))
///     .build();
///
/// let found = Enumerator::new(&ctx, &kbp).horizon(3).enumerate()?;
/// assert_eq!(found.count(), 2);
/// assert!(found.is_complete());
/// # Ok::<(), kbp_core::SolveError>(())
/// ```
pub struct Enumerator<'a> {
    ctx: &'a dyn Context,
    kbp: &'a Kbp,
    horizon: usize,
    recall: Recall,
    max_solutions: usize,
    max_branches: usize,
    node_limit: Option<usize>,
    deadline: Option<Duration>,
}

impl fmt::Debug for Enumerator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Enumerator")
            .field("horizon", &self.horizon)
            .field("recall", &self.recall)
            .field("max_solutions", &self.max_solutions)
            .field("max_branches", &self.max_branches)
            .finish_non_exhaustive()
    }
}

impl<'a> Enumerator<'a> {
    /// Creates an enumerator with horizon 8, perfect recall, and default
    /// budgets (64 solutions, 100 000 branches).
    #[must_use]
    pub fn new(ctx: &'a dyn Context, kbp: &'a Kbp) -> Self {
        Enumerator {
            ctx,
            kbp,
            horizon: 8,
            recall: Recall::Perfect,
            max_solutions: 64,
            max_branches: 100_000,
            node_limit: None,
            deadline: None,
        }
    }

    /// Sets the unrolling horizon.
    #[must_use]
    pub fn horizon(mut self, horizon: usize) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the recall discipline.
    #[must_use]
    pub fn recall(mut self, recall: Recall) -> Self {
        self.recall = recall;
        self
    }

    /// Stops after finding this many implementations.
    #[must_use]
    pub fn max_solutions(mut self, n: usize) -> Self {
        self.max_solutions = n;
        self
    }

    /// Caps the number of explored branches.
    #[must_use]
    pub fn max_branches(mut self, n: usize) -> Self {
        self.max_branches = n;
        self
    }

    /// Caps the number of points per candidate unrolling.
    #[must_use]
    pub fn node_limit(mut self, limit: usize) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Sets a wall-clock allowance for the whole search; when it passes,
    /// the search stops and reports the implementations found so far
    /// (best-so-far, marked incomplete).
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Kbp`] — the program is invalid for the context.
    /// * [`SolveError::Generate`] / [`SolveError::Eval`] — propagated.
    /// * [`SolveError::LocalityViolation`] — a past-determined guard is
    ///   not a function of the agent's local state.
    pub fn enumerate(&self) -> Result<Enumeration, SolveError> {
        self.kbp.validate(self.ctx)?;
        let mut builder = SystemBuilder::new(self.ctx, self.recall)?;
        // The enumerator's search state indexes explicit points (per-node
        // choice vectors, guard sets over layer worlds), so the fused
        // step+quotient generation path is disabled for the whole search;
        // enumerated horizons are short and narrow by construction.
        builder.set_gen_quotient_min_worlds(usize::MAX);
        if let Some(limit) = self.node_limit {
            builder.set_node_limit(limit);
        }
        let mut proto = MapProtocol::new(vec![ActionId(0)]);
        for program in self.kbp.programs() {
            proto.set_agent_default(program.agent(), vec![program.default_action()]);
        }
        // One evaluation engine — hence exactly one arena — for the whole
        // run: every guard of every program is interned once, and both the
        // layer-by-layer pruning and the end-of-horizon verification
        // evaluate against the same interned ids.
        let mut engine = EvalEngine::new(FormulaArena::new());
        let mut full_ids: Vec<Vec<FormulaId>> = Vec::new();
        let mut past_ids: Vec<Vec<Option<FormulaId>>> = Vec::new();
        for program in self.kbp.programs() {
            let mut full = Vec::new();
            let mut past = Vec::new();
            for clause in program.clauses() {
                let id = engine.intern(&clause.guard);
                full.push(id);
                // Future-referring guards are guessed during the search,
                // not evaluated on layers; only past-determined guards
                // feed the per-layer cache fill.
                past.push((!clause.guard.has_temporal()).then_some(id));
            }
            full_ids.push(full);
            past_ids.push(past);
        }
        let mut past_flat: Vec<FormulaId> =
            past_ids.iter().flatten().filter_map(|id| *id).collect();
        past_flat.sort_unstable();
        past_flat.dedup();
        let stats = SolveStats {
            arenas: 1,
            ..SolveStats::default()
        };
        let mut search = Search {
            enumerator: self,
            engine,
            full_ids,
            past_ids,
            past_flat,
            stats,
            found: Vec::new(),
            branches: 0,
            complete: true,
            started: Instant::now(),
            exhausted: None,
        };
        search.dfs(builder, proto)?;
        Ok(Enumeration {
            implementations: search.found,
            branches_explored: search.branches,
            complete: search.complete,
            exhausted: search.exhausted,
            stats: search.stats,
        })
    }
}

struct Search<'a, 'b> {
    enumerator: &'b Enumerator<'a>,
    /// The run's single evaluation engine; owns the one arena into which
    /// every guard (past and future-referring) is interned.
    engine: EvalEngine,
    /// Per program, per clause: the interned guard. Used by the
    /// end-of-horizon verification, which evaluates all guards (including
    /// temporal ones) on the finished system.
    full_ids: Vec<Vec<FormulaId>>,
    /// Per program, per clause: the interned guard, or `None` for
    /// future-referring guards (branched over instead of evaluated).
    past_ids: Vec<Vec<Option<FormulaId>>>,
    /// Flattened, deduplicated past-determined guards: the root set for
    /// the engine's per-layer cache fill.
    past_flat: Vec<FormulaId>,
    stats: SolveStats,
    found: Vec<Implementation>,
    branches: usize,
    complete: bool,
    started: Instant,
    /// First budget that fired, for the typed diagnosis on
    /// [`Enumeration::exhausted`].
    exhausted: Option<Resource>,
}

impl Search<'_, '_> {
    fn budget_left(&mut self) -> bool {
        let hit = if self.found.len() >= self.enumerator.max_solutions {
            Some(Resource::Solutions)
        } else if self.branches >= self.enumerator.max_branches {
            Some(Resource::Branches)
        } else if self
            .enumerator
            .deadline
            .is_some_and(|d| self.started.elapsed() >= d)
        {
            Some(Resource::Deadline)
        } else {
            None
        };
        if let Some(resource) = hit {
            self.complete = false;
            self.exhausted.get_or_insert(resource);
            return false;
        }
        true
    }

    fn dfs(&mut self, builder: SystemBuilder<'_>, proto: MapProtocol) -> Result<(), SolveError> {
        if !self.budget_left() {
            return Ok(());
        }
        let t = builder.time();
        if t == self.enumerator.horizon {
            self.verify(builder, proto)?;
            return Ok(());
        }

        // For each (agent, local) on the frontier: past-determined clauses
        // are evaluated now; future clauses are branched over.
        let kbp = self.enumerator.kbp;
        let layer = builder.current();
        let model = layer.model();

        // (agent, local, observation history, candidate action sets).
        type Slot = (Agent, LocalId, Vec<Obs>, Vec<Vec<ActionId>>);
        let mut slots: Vec<Slot> = Vec::new();
        // One cache per layer visit: the engine fills it for all
        // past-determined guards at once, so distinct subformulas are
        // evaluated once across all programs.
        let mut cache = EvalCache::new();
        self.engine.populate(model, &mut cache, &self.past_flat)?;
        for (program, ids) in kbp.programs().iter().zip(&self.past_ids) {
            let agent = program.agent();
            let clauses = program.clauses();
            // Satisfaction of past-determined guards on this layer.
            let past_sets: Vec<Option<BitSet>> = ids
                .iter()
                .map(|id| match id {
                    None => Ok(None),
                    Some(id) => cache
                        .get(*id)
                        .cloned()
                        .map(Some)
                        .ok_or(EvalError::Internal("populated guard missing from cache")),
                })
                .collect::<Result<_, EvalError>>()?;
            self.stats.guard_evaluations += past_sets.iter().flatten().count();
            let future_idx: Vec<usize> = clauses
                .iter()
                .enumerate()
                .filter(|(_, c)| c.guard.has_temporal())
                .map(|(i, _)| i)
                .collect();

            let mut seen: std::collections::HashMap<LocalId, usize> =
                std::collections::HashMap::new();
            for (ni, node) in layer.nodes().iter().enumerate() {
                let local = node.local(agent);
                if seen.contains_key(&local) {
                    // Locality of past guards within the class.
                    let rep = seen[&local];
                    for (ci, ps) in past_sets.iter().enumerate() {
                        if let Some(s) = ps {
                            if s.contains(ni) != s.contains(rep) {
                                return Err(SolveError::LocalityViolation {
                                    agent,
                                    clause: ci,
                                    time: t,
                                });
                            }
                        }
                    }
                    continue;
                }
                seen.insert(local, ni);
                // Base truths: past guards fixed, future guards to guess.
                let base: Vec<bool> = past_sets
                    .iter()
                    .map(|ps| ps.as_ref().is_some_and(|s| s.contains(ni)))
                    .collect();
                let mut candidates: Vec<Vec<ActionId>> = Vec::new();
                let k = future_idx.len();
                for mask in 0u32..(1u32 << k) {
                    let mut truths = base.clone();
                    for (j, &ci) in future_idx.iter().enumerate() {
                        truths[ci] = mask & (1 << j) != 0;
                    }
                    let set = program.induced_actions(&truths);
                    if !candidates.contains(&set) {
                        candidates.push(set);
                    }
                }
                let history = builder.local_history(agent, local);
                slots.push((agent, local, history, candidates));
            }
        }

        // Odometer over the candidate product.
        let mut idx = vec![0usize; slots.len()];
        loop {
            if !self.budget_left() {
                return Ok(());
            }
            self.branches += 1;
            let mut choices = StepChoices::new();
            let mut branch_proto = proto.clone();
            for (slot, &i) in slots.iter().zip(&idx) {
                let (agent, local, history, candidates) = slot;
                choices.set(*agent, *local, candidates[i].clone());
                branch_proto.insert(*agent, history.clone(), candidates[i].clone());
            }
            let mut next_builder = builder.clone();
            match next_builder.step(&choices) {
                Ok(()) => self.dfs(next_builder, branch_proto)?,
                Err(kbp_systems::GenerateError::NodeLimit { .. }) => {
                    // This branch is too big; treat as unexplored.
                    self.complete = false;
                    self.exhausted.get_or_insert(Resource::Nodes);
                }
                Err(e) => return Err(e.into()),
            }

            // Advance the odometer.
            let mut k = 0;
            loop {
                if k == slots.len() {
                    return Ok(());
                }
                idx[k] += 1;
                if idx[k] < slots[k].3.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if slots.is_empty() {
                return Ok(());
            }
        }
    }

    /// A full unrolling has been built under guessed choices: complete the
    /// protocol on the final layer with the actually induced actions, then
    /// verify the fixed point.
    fn verify(
        &mut self,
        builder: SystemBuilder<'_>,
        mut proto: MapProtocol,
    ) -> Result<(), SolveError> {
        let kbp = self.enumerator.kbp;
        let system = builder.finish();

        // Evaluate every guard (temporal ones included) on the finished
        // system in one batch through the run's shared arena: `sets[g][t]`
        // is the satisfaction set of the g-th flattened guard at layer t.
        let flat_full: Vec<FormulaId> = self.full_ids.iter().flatten().copied().collect();
        let sets = kbp_systems::satisfying_layers_with(&system, &self.engine, &flat_full)?;
        self.stats.guard_evaluations += flat_full.len();

        let t_last = system.layer_count() - 1;
        let mut offset = 0usize;
        for program in kbp.programs() {
            let agent = program.agent();
            let clause_sets = &sets[offset..offset + program.clauses().len()];
            offset += program.clauses().len();
            // Final-layer entries: record what the program induces there
            // so the protocol is total on reached local states.
            for node in 0..system.layer(t_last).len() {
                let point = kbp_systems::Point { time: t_last, node };
                let truths: Vec<bool> = clause_sets
                    .iter()
                    .map(|s| s[t_last].contains(node))
                    .collect();
                let induced = program.induced_actions(&truths);
                let local = system.local(agent, point);
                let history = system.local_view(agent, local);
                proto.insert(agent, history, induced);
            }
        }

        let (mismatches, _) = compare_with_sets(&system, kbp, &proto, &sets)?;
        if mismatches.is_empty() && !self.found.iter().any(|imp| imp.protocol == proto) {
            self.found.push(Implementation {
                protocol: proto,
                system,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbp_logic::{Formula, PropId, Vocabulary};
    use kbp_systems::{ContextBuilder, FnContext, GlobalState};

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    /// Lamp context (latching switch, lamp visible).
    fn lamp() -> FnContext {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("a");
        let lit = voc.add_prop("lit");
        ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop", "switch"])
            .transition(|s, j| {
                if j.acts[0] == ActionId(1) {
                    s.with_reg(0, 1)
                } else {
                    s.clone()
                }
            })
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(move |q, s| q == lit && s.reg(0) == 1)
            .build()
    }

    #[test]
    fn self_fulfilling_program_has_two_implementations() {
        let ctx = lamp();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, Formula::eventually(p(0))), ActionId(1))
            .default_action(a, ActionId(0))
            .build();
        let found = Enumerator::new(&ctx, &kbp).horizon(3).enumerate().unwrap();
        assert_eq!(found.count(), 2, "{found}");
        assert!(found.is_complete());
    }

    #[test]
    fn enumeration_uses_exactly_one_arena() {
        let ctx = lamp();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, Formula::eventually(p(0))), ActionId(1))
            .clause(a, Formula::not(Formula::knows(a, p(0))), ActionId(1))
            .default_action(a, ActionId(0))
            .build();
        let found = Enumerator::new(&ctx, &kbp).horizon(3).enumerate().unwrap();
        assert_eq!(found.stats().arenas, 1, "one shared arena per run");
        assert!(found.stats().guard_evaluations > 0);
    }

    #[test]
    fn self_defeating_program_has_no_implementation() {
        // "If you know the lamp will eventually be lit, do nothing; if you
        // don't, switch it on." Any protocol that switches makes the guard
        // true, inducing noop; any that doesn't makes it false, inducing
        // switch. No fixed point.
        let ctx = lamp();
        let a = Agent::new(0);
        let know_f = Formula::knows(a, Formula::eventually(p(0)));
        let kbp = Kbp::builder()
            .clause(a, know_f.clone(), ActionId(0))
            .clause(a, Formula::not(know_f), ActionId(1))
            .default_action(a, ActionId(0))
            .build();
        let found = Enumerator::new(&ctx, &kbp).horizon(3).enumerate().unwrap();
        assert_eq!(found.count(), 0, "{found}");
        assert!(found.is_complete());
    }

    #[test]
    fn atemporal_program_has_unique_implementation() {
        // "If you don't know lit, switch" — past-determined, so the
        // enumerator must agree with the inductive solver and find
        // exactly one implementation, without branching.
        let ctx = lamp();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, Formula::not(Formula::knows(a, p(0))), ActionId(1))
            .default_action(a, ActionId(0))
            .build();
        let found = Enumerator::new(&ctx, &kbp).horizon(4).enumerate().unwrap();
        assert_eq!(found.count(), 1);
        assert!(found.is_complete());
        assert_eq!(found.branches_explored(), 4, "no branching for atemporal");
        let solver = crate::SyncSolver::new(&ctx, &kbp)
            .horizon(4)
            .solve()
            .unwrap();
        assert_eq!(found.implementations()[0].protocol, *solver.protocol());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let ctx = lamp();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, Formula::eventually(p(0))), ActionId(1))
            .default_action(a, ActionId(0))
            .build();
        let found = Enumerator::new(&ctx, &kbp)
            .horizon(3)
            .max_branches(2)
            .enumerate()
            .unwrap();
        assert!(!found.is_complete());
        assert_eq!(found.exhausted(), Some(Resource::Branches));
    }

    #[test]
    fn zero_deadline_yields_best_so_far() {
        let ctx = lamp();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, Formula::eventually(p(0))), ActionId(1))
            .default_action(a, ActionId(0))
            .build();
        let found = Enumerator::new(&ctx, &kbp)
            .horizon(3)
            .deadline(Duration::ZERO)
            .enumerate()
            .unwrap();
        // The search stops before exploring anything, but still returns a
        // well-formed (empty, incomplete) enumeration rather than failing.
        assert!(!found.is_complete());
        assert_eq!(found.exhausted(), Some(Resource::Deadline));
        assert_eq!(found.branches_explored(), 0);
    }

    #[test]
    fn max_solutions_stops_early() {
        let ctx = lamp();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, Formula::eventually(p(0))), ActionId(1))
            .default_action(a, ActionId(0))
            .build();
        let found = Enumerator::new(&ctx, &kbp)
            .horizon(3)
            .max_solutions(1)
            .enumerate()
            .unwrap();
        assert_eq!(found.count(), 1);
        assert!(!found.is_complete());
        assert_eq!(found.exhausted(), Some(Resource::Solutions));
    }

    #[test]
    fn implementations_verify_via_checker() {
        let ctx = lamp();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, Formula::eventually(p(0))), ActionId(1))
            .default_action(a, ActionId(0))
            .build();
        let found = Enumerator::new(&ctx, &kbp).horizon(3).enumerate().unwrap();
        for imp in found.implementations() {
            let report =
                crate::check_implementation(&ctx, &kbp, &imp.protocol, Recall::Perfect, 3).unwrap();
            assert!(report.is_implementation(), "{report}");
        }
    }
}
