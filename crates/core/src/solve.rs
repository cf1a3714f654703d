//! The constructive synchronous solver — FHMV's unique-implementation
//! theorem as an algorithm.
//!
//! **Theorem (FHMV, PODC'95).** In a synchronous context, a knowledge-based
//! program whose tests do not refer to the future has *exactly one*
//! implementation.
//!
//! The proof is an induction on time, and this module runs that induction:
//! the points at time `t` are determined by the actions chosen at times
//! `< t`; past-free tests at time `t` are evaluated on the time-`t` layer
//! alone; so the induced actions at time `t` are forced, which determines
//! the time-`t+1` layer, and so on. No search, no fixed-point iteration —
//! the fixed point is *constructed*, and uniqueness is immediate.
//!
//! Programs with future-referring tests (`K_i F φ` …) fall outside the
//! theorem; use the [`Enumerator`](crate::Enumerator), which searches for
//! all bounded fixed points and may find zero, one or many.

use crate::budget::{Budget, BudgetExhausted, LayerStats, Resource};
use crate::program::{Kbp, KbpError};
use kbp_kripke::{BitSet, EvalCache, EvalEngine, EvalError};
use kbp_logic::{Agent, FormulaArena, FormulaId};
use kbp_systems::{
    layer_renaming, ActionId, Context, GenerateError, InterpretedSystem, LocalId, MapProtocol,
    Recall, StepChoices, SystemBuilder,
};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Errors from solving or implementation checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The program failed validation against the context.
    Kbp(KbpError),
    /// System generation failed.
    Generate(GenerateError),
    /// Formula evaluation failed.
    Eval(EvalError),
    /// The program has future-referring guards; the inductive solver does
    /// not apply (use the enumerator).
    FutureGuards,
    /// A guard declared over "local" propositions turned out not to be a
    /// function of the agent's local state: two indistinguishable points
    /// disagreed on the guard.
    LocalityViolation {
        /// The agent whose guard misbehaved.
        agent: Agent,
        /// Index of the clause.
        clause: usize,
        /// The time step at which the disagreement was found.
        time: usize,
    },
    /// Under observational (memoryless) recall, the program induced
    /// *different* actions at different times for the same observation —
    /// no memoryless protocol can implement it (the induced table is not
    /// time-invariant). Solve with [`Recall::Perfect`] instead.
    ObservationalConflict {
        /// The agent whose induced table conflicts.
        agent: Agent,
        /// The time step at which the conflict surfaced.
        time: usize,
    },
    /// Controller extraction produced a machine that fails to replay a
    /// protocol entry (internal invariant; never expected to surface).
    ControllerReplay {
        /// The agent whose controller misreplayed.
        agent: Agent,
        /// Length of the offending history.
        history_len: usize,
    },
    /// A [`Budget`] ran out during [`SyncSolver::solve`] (which has no
    /// partial result to return; use
    /// [`SyncSolver::solve_budgeted`] to recover the work done so far).
    Budget(BudgetExhausted),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Kbp(e) => write!(f, "invalid knowledge-based program: {e}"),
            SolveError::Generate(e) => write!(f, "system generation failed: {e}"),
            SolveError::Eval(e) => write!(f, "guard evaluation failed: {e}"),
            SolveError::FutureGuards => write!(
                f,
                "program has future-referring guards; the unique-implementation \
                 theorem does not apply — use the Enumerator"
            ),
            SolveError::LocalityViolation {
                agent,
                clause,
                time,
            } => write!(
                f,
                "guard of clause {clause} (agent {agent}) is not a function of the \
                 agent's local state at time {time}: a proposition declared local is not"
            ),
            SolveError::ObservationalConflict { agent, time } => write!(
                f,
                "agent {agent}'s induced actions at time {time} differ from an \
                 earlier time for the same observation; no memoryless protocol \
                 implements this program (use perfect recall)"
            ),
            SolveError::ControllerReplay { agent, history_len } => write!(
                f,
                "extracted controller for agent {agent} fails to replay a \
                 length-{history_len} history (internal error)"
            ),
            SolveError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolveError::Kbp(e) => Some(e),
            SolveError::Generate(e) => Some(e),
            SolveError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KbpError> for SolveError {
    fn from(e: KbpError) -> Self {
        SolveError::Kbp(e)
    }
}

impl From<GenerateError> for SolveError {
    fn from(e: GenerateError) -> Self {
        SolveError::Generate(e)
    }
}

impl From<EvalError> for SolveError {
    fn from(e: EvalError) -> Self {
        SolveError::Eval(e)
    }
}

/// Statistics collected while solving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Layers built (horizon + 1).
    pub layers: usize,
    /// Total points across all layers.
    pub points: usize,
    /// Distinct `(agent, local state)` pairs given protocol entries.
    pub protocol_entries: usize,
    /// Guard evaluations performed (clause × layer).
    pub guard_evaluations: usize,
    /// `FormulaArena`s constructed for guard evaluation. The unified
    /// evaluation engine interns every guard into one shared arena, so
    /// this is always 1 for a solve.
    pub arenas: usize,
    /// Layers whose satisfaction sets were carried forward from the
    /// previous layer through a verified isomorphism instead of being
    /// recomputed (see `kbp_systems::layer_renaming`).
    pub layers_carried: usize,
    /// Always `0`: world-range kernel sharding is gone. Inert; kept only
    /// while the `kbpbench` benchmark names it.
    pub layers_sharded: usize,
    /// Always `0`: the evaluation-time quotient is gone. Inert; kept only
    /// while the `kbpbench` benchmark names it.
    pub layers_quotiented: usize,
    /// Layers *generated* as strictly fewer bisimulation representatives
    /// than their explicit-equivalent width by the fused step+quotient
    /// path ([`LayerStats::gen_quotient_worlds`] > 0 and < `points`).
    /// A property of generation, not of evaluation scheduling: such
    /// layers were never resident explicitly.
    pub layers_gen_quotiented: usize,
}

/// The unique implementation of a past-determined KBP, as constructed by
/// [`SyncSolver::solve`].
#[derive(Debug)]
pub struct Solution {
    system: InterpretedSystem,
    protocol: MapProtocol,
    stabilized: Option<usize>,
    stats: SolveStats,
    per_layer: Vec<LayerStats>,
}

impl Solution {
    /// The standard protocol implementing the program (an explicit entry
    /// for every local state reached within the horizon).
    #[must_use]
    pub fn protocol(&self) -> &MapProtocol {
        &self.protocol
    }

    /// The generated system `R^rep(P, γ)` (bounded): the system the
    /// implementation produces, which is also the system the program's
    /// tests were evaluated in — the fixed point made visible.
    #[must_use]
    pub fn system(&self) -> &InterpretedSystem {
        &self.system
    }

    /// The first layer at which the unrolling provably stopped changing,
    /// if within the horizon (see
    /// [`InterpretedSystem::stabilization`]).
    #[must_use]
    pub fn stabilized(&self) -> Option<usize> {
        self.stabilized
    }

    /// Solving statistics.
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Per-layer statistics, one entry per induced layer.
    #[must_use]
    pub fn per_layer(&self) -> &[LayerStats] {
        &self.per_layer
    }

    /// Consumes the solution, returning protocol and system.
    #[must_use]
    pub fn into_parts(self) -> (MapProtocol, InterpretedSystem) {
        (self.protocol, self.system)
    }
}

/// What a budget-exhausted solve managed to compute before stopping:
/// every layer induced so far, the protocol entries derived for those
/// layers, per-layer statistics, and a typed [`BudgetExhausted`]
/// diagnosis.
///
/// **Guarantees.** Layers `0 .. exhausted.at_layer` were fully induced:
/// their guards were evaluated exactly as a complete solve would have
/// evaluated them, and the protocol's entries on those layers agree with
/// the unique implementation's (the inductive construction is
/// deterministic, so a prefix is a prefix of *the* answer — re-solving
/// with a larger budget extends this partial result, never revises it).
/// The generated system may also contain the first non-induced layer when
/// it was built before the budget check fired.
#[derive(Debug)]
pub struct PartialSolution {
    system: InterpretedSystem,
    protocol: MapProtocol,
    stats: SolveStats,
    per_layer: Vec<LayerStats>,
    exhausted: BudgetExhausted,
}

impl PartialSolution {
    /// The protocol entries derived for the induced layers.
    #[must_use]
    pub fn protocol(&self) -> &MapProtocol {
        &self.protocol
    }

    /// The bounded system generated before exhaustion.
    #[must_use]
    pub fn system(&self) -> &InterpretedSystem {
        &self.system
    }

    /// Aggregate statistics over the work done before exhaustion.
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Per-layer statistics, one entry per induced layer.
    #[must_use]
    pub fn per_layer(&self) -> &[LayerStats] {
        &self.per_layer
    }

    /// Which resource ran out, and at which layer.
    #[must_use]
    pub fn exhausted(&self) -> BudgetExhausted {
        self.exhausted
    }

    /// Number of fully induced layers.
    #[must_use]
    pub fn completed_layers(&self) -> usize {
        self.exhausted.at_layer
    }

    /// Consumes the partial solution, returning protocol and system.
    #[must_use]
    pub fn into_parts(self) -> (MapProtocol, InterpretedSystem) {
        (self.protocol, self.system)
    }
}

/// The outcome of a budgeted solve: either the complete unique
/// implementation, or the prefix computed before a budget ran out.
#[derive(Debug)]
pub enum SolveOutcome {
    /// The construction ran to the horizon.
    Complete(Box<Solution>),
    /// A budget ran out; the prefix computed so far.
    Partial(Box<PartialSolution>),
}

impl SolveOutcome {
    /// Whether the construction ran to the horizon.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, SolveOutcome::Complete(_))
    }

    /// The complete solution, if any.
    #[must_use]
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            SolveOutcome::Complete(s) => Some(s),
            SolveOutcome::Partial(_) => None,
        }
    }

    /// The partial solution, if the budget ran out.
    #[must_use]
    pub fn partial(&self) -> Option<&PartialSolution> {
        match self {
            SolveOutcome::Complete(_) => None,
            SolveOutcome::Partial(p) => Some(p),
        }
    }
}

/// Default minimum layer width (points in the frontier) before the
/// solver attempts the `layer_renaming` carry-forward certificate.
///
/// On very small layers the 1-WL proposal plus full isomorphism
/// verification costs about as much as simply refilling the cache
/// (EXPERIMENTS.md E14, bit-transmission row), so carry-forward below
/// this width is a net loss; from this width up the renaming is
/// measurably cheaper than re-evaluation. The threshold is a pure
/// function of the layer, so `SolveStats::layers_carried` stays
/// deterministic for a given configuration.
pub const DEFAULT_CARRY_THRESHOLD: usize = 32;

/// Builder-style driver for the inductive construction.
///
/// # Example
///
/// ```
/// use kbp_core::{Kbp, SyncSolver};
/// use kbp_logic::{Formula, Vocabulary};
/// use kbp_systems::{ContextBuilder, GlobalState, Obs, ActionId};
///
/// // One agent, hidden bit; action "announce" requires knowing the bit —
/// // the program says: if you know whether bit, announce, else noop.
/// let mut voc = Vocabulary::new();
/// let a = voc.add_agent("a");
/// let bit = voc.add_prop("bit");
/// let ctx = ContextBuilder::new(voc)
///     .initial_states([GlobalState::new(vec![0]), GlobalState::new(vec![1])])
///     .agent_actions(a, ["noop", "announce"])
///     .transition(|s, _| s.clone())
///     .observe(|_, s| Obs(u64::from(s.reg(0)))) // bit is visible
///     .props(move |p, s| p == bit && s.reg(0) == 1)
///     .build();
///
/// let kbp = Kbp::builder()
///     .clause(a, Formula::knows_whether(a, Formula::prop(bit)), ActionId(1))
///     .default_action(a, ActionId(0))
///     .build();
///
/// let solution = SyncSolver::new(&ctx, &kbp).horizon(2).solve()?;
/// // The bit is observable, so the unique implementation always announces.
/// assert!(solution.protocol().iter().all(|(_, _, acts)| acts == [ActionId(1)]));
/// # Ok::<(), kbp_core::SolveError>(())
/// ```
pub struct SyncSolver<'a> {
    ctx: &'a dyn Context,
    kbp: &'a Kbp,
    horizon: usize,
    recall: Recall,
    node_limit: Option<usize>,
    budget: Budget,
    gen_quotient_min_worlds: usize,
    carry_forward: bool,
}

impl fmt::Debug for SyncSolver<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyncSolver")
            .field("horizon", &self.horizon)
            .field("recall", &self.recall)
            .field("node_limit", &self.node_limit)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl<'a> SyncSolver<'a> {
    /// Creates a solver with horizon 16, perfect recall and no budget.
    #[must_use]
    pub fn new(ctx: &'a dyn Context, kbp: &'a Kbp) -> Self {
        SyncSolver {
            ctx,
            kbp,
            horizon: 16,
            recall: Recall::Perfect,
            node_limit: None,
            budget: Budget::default(),
            gen_quotient_min_worlds: 0,
            carry_forward: true,
        }
    }

    /// Sets the unrolling horizon (time steps).
    #[must_use]
    pub fn horizon(mut self, horizon: usize) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the recall discipline (default: perfect recall).
    #[must_use]
    pub fn recall(mut self, recall: Recall) -> Self {
        self.recall = recall;
        self
    }

    /// Caps the number of points the unrolling may create.
    #[must_use]
    pub fn node_limit(mut self, limit: usize) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Sets the resource budget honoured by
    /// [`solve_budgeted`](Self::solve_budgeted).
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Ignores its argument: guard evaluation is single-threaded. Inert;
    /// kept only while the `kbpbench` benchmark names it.
    #[deprecated(note = "guard evaluation is single-threaded; this does nothing")]
    #[must_use]
    pub fn eval_threads(self, _threads: usize) -> Self {
        self
    }

    /// Ignores its argument: world-range kernel sharding is gone. Inert;
    /// kept only while the `kbpbench` benchmark names it.
    #[deprecated(note = "world-range kernel sharding was removed; this does nothing")]
    #[must_use]
    pub fn shard_min_worlds(self, _worlds: usize) -> Self {
        self
    }

    /// Ignores its argument: the evaluation-time quotient is gone. Inert;
    /// kept only while the `kbpbench` benchmark names it.
    #[deprecated(note = "the evaluation-time quotient was removed; this does nothing")]
    #[must_use]
    pub fn quotient_min_worlds(self, _worlds: usize) -> Self {
        self
    }

    /// Sets the minimum explicit frontier width (points) before the
    /// builder's fused step+quotient generation path engages (default
    /// `0`: every reduced or twin-free frontier is fused, see
    /// [`SystemBuilder::step`](kbp_systems::SystemBuilder::step));
    /// `usize::MAX` keeps generation explicit. The solution is
    /// bit-identical for every value — only which points are resident
    /// ([`LayerStats::gen_quotient_worlds`], memory, wall-clock) changes.
    #[must_use]
    pub fn gen_quotient_min_worlds(mut self, worlds: usize) -> Self {
        self.gen_quotient_min_worlds = worlds;
        self
    }

    /// Enables or disables cross-layer cache carry-forward (default: on).
    /// When consecutive layers at least [`DEFAULT_CARRY_THRESHOLD`] points
    /// wide are certified isomorphic by
    /// [`kbp_systems::layer_renaming`], guard satisfaction sets are mapped
    /// through the renaming instead of recomputed; disabling this is only
    /// useful for benchmarking, as outputs are identical either way.
    #[must_use]
    pub fn carry_forward(mut self, enabled: bool) -> Self {
        self.carry_forward = enabled;
        self
    }

    /// Runs the inductive construction.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Kbp`] — the program is invalid for the context.
    /// * [`SolveError::FutureGuards`] — a guard refers to the future.
    /// * [`SolveError::LocalityViolation`] — a "local" proposition is not.
    /// * [`SolveError::Generate`] / [`SolveError::Eval`] — propagated.
    /// * [`SolveError::Budget`] — a [`Budget`] was set and ran out (use
    ///   [`solve_budgeted`](Self::solve_budgeted) to recover the prefix).
    pub fn solve(&self) -> Result<Solution, SolveError> {
        match self.solve_inner(false)? {
            SolveOutcome::Complete(s) => Ok(*s),
            SolveOutcome::Partial(p) => Err(SolveError::Budget(p.exhausted())),
        }
    }

    /// Runs the inductive construction under the configured [`Budget`],
    /// degrading gracefully: when a resource runs out (including the
    /// [`node_limit`](Self::node_limit)), the layers induced so far are
    /// returned as a [`PartialSolution`] instead of an error. Completed
    /// layers are never lost.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve`](Self::solve), except that budget and
    /// node-limit exhaustion produce `Ok(SolveOutcome::Partial(..))`.
    pub fn solve_budgeted(&self) -> Result<SolveOutcome, SolveError> {
        self.solve_inner(true)
    }

    /// The shared driver. With `degrade` set, budget and node-limit
    /// exhaustion yield `SolveOutcome::Partial`; otherwise budgets yield
    /// `SolveError::Budget` and node limits propagate as
    /// [`GenerateError::NodeLimit`].
    fn solve_inner(&self, degrade: bool) -> Result<SolveOutcome, SolveError> {
        self.kbp.validate(self.ctx)?;
        if self.kbp.has_future_guards() {
            return Err(SolveError::FutureGuards);
        }
        let started = Instant::now();
        let mut builder = SystemBuilder::new(self.ctx, self.recall)?;
        if let Some(limit) = self.node_limit {
            builder.set_node_limit(limit);
        }
        builder.set_gen_quotient_min_worlds(self.gen_quotient_min_worlds);
        // One choice table for the whole solve: each agent's slots cover
        // every local id the induction has recorded, and the protocol is
        // read off them once the construction stops.
        let mut choices = StepChoices::new();
        let mut stats = SolveStats::default();
        let mut per_layer: Vec<LayerStats> = Vec::new();
        let mut total_points = 0usize;
        let agents = self.ctx.agent_count();

        // Intern every clause guard once, up front, into the engine's one
        // shared arena: guards shared between clauses (a test and its
        // negation, repeated subformulas) collapse, and each layer then
        // evaluates every distinct subformula exactly once through the
        // per-layer cache.
        let mut engine = EvalEngine::new(FormulaArena::new());
        let guard_ids: Vec<Vec<FormulaId>> = self
            .kbp
            .programs()
            .iter()
            .map(|p| {
                p.clauses()
                    .iter()
                    .map(|c| engine.intern(&c.guard))
                    .collect()
            })
            .collect();
        stats.arenas = 1;
        // Every distinct guard root, for the batch fill.
        let flat_ids: Vec<FormulaId> = {
            let mut v: Vec<FormulaId> = guard_ids.iter().flatten().copied().collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        // Interning is done; the rest of the solve only reads the engine.
        let engine = &engine;
        // The per-layer cache persists across the loop so stabilised
        // suffixes can carry satisfaction sets forward.
        let mut cache = EvalCache::new();

        let partial = |builder: SystemBuilder<'_>,
                       choices: StepChoices,
                       mut stats: SolveStats,
                       per_layer: Vec<LayerStats>,
                       exhausted: BudgetExhausted| {
            let system = builder.finish();
            stats.layers = system.layer_count();
            stats.points = usize::try_from(system.explicit_point_count()).unwrap_or(usize::MAX);
            let protocol = self.protocol_of(&system, choices);
            SolveOutcome::Partial(Box::new(PartialSolution {
                system,
                protocol,
                stats,
                per_layer,
                exhausted,
            }))
        };

        for t in 0..=self.horizon {
            // `frontier` is the resident width (representatives on layers
            // from the fused generation path) and governs what is tied to
            // the layer's S5 model: the carry threshold.
            // `frontier_explicit` is the explicit-equivalent width and
            // governs everything with *semantic* meaning: budgets and
            // [`LayerStats::points`].
            let frontier = builder.current().len();
            let frontier_explicit =
                usize::try_from(builder.current().explicit_len()).unwrap_or(usize::MAX);
            total_points = total_points.saturating_add(frontier_explicit);
            if let Some(exhausted) = self.budget.exhausted(
                started,
                t,
                frontier_explicit,
                stats.guard_evaluations,
                total_points,
                agents,
            ) {
                if degrade {
                    return Ok(partial(builder, choices, stats, per_layer, exhausted));
                }
                return Err(SolveError::Budget(exhausted));
            }
            let evals_before = stats.guard_evaluations;
            let entries_before = stats.protocol_entries;
            if t > 0 {
                // Cross-layer carry-forward: if the new frontier is
                // isomorphic to the previous layer under a *verified*
                // renaming, guard satisfaction is preserved pointwise
                // (solver guards are past-free, hence layer-static) — map
                // the cache through the renaming instead of recomputing.
                // On layers below the width threshold the certificate
                // costs about as much as refilling, so skip it there.
                let carried = self.carry_forward
                    && frontier >= DEFAULT_CARRY_THRESHOLD
                    && layer_renaming(builder.layer(t - 1), builder.current())
                        .and_then(|r| cache.carried_forward(&r).ok())
                        .map(|c| cache = c)
                        .is_some();
                if carried {
                    stats.layers_carried += 1;
                } else {
                    cache.clear();
                }
            }
            self.induce_layer(
                &builder,
                t,
                &mut choices,
                &mut stats,
                engine,
                &guard_ids,
                &flat_ids,
                &mut cache,
            )?;
            // Generation-side observability: a layer built by the fused
            // step+quotient path reports its resident representative count
            // and the compression against its explicit-equivalent width.
            let gen_quotient_worlds = if builder.current().is_reduced() {
                frontier
            } else {
                0
            };
            if gen_quotient_worlds > 0 && gen_quotient_worlds < frontier_explicit {
                stats.layers_gen_quotiented += 1;
            }
            let gen_quotient_ratio = if gen_quotient_worlds > 0 && frontier_explicit > 0 {
                u32::try_from(gen_quotient_worlds.saturating_mul(1000) / frontier_explicit)
                    .unwrap_or(u32::MAX)
            } else {
                0
            };
            per_layer.push(LayerStats {
                layer: t,
                points: frontier_explicit,
                guard_evaluations: stats.guard_evaluations - evals_before,
                protocol_entries: stats.protocol_entries - entries_before,
                shards: 1,
                gen_quotient_worlds,
                gen_quotient_ratio,
            });
            if t < self.horizon {
                match builder.step(&choices) {
                    Ok(()) => {}
                    Err(GenerateError::NodeLimit { .. }) if degrade => {
                        // The builder is untouched on node-limit failure:
                        // every present layer is induced.
                        let exhausted = BudgetExhausted {
                            resource: Resource::Nodes,
                            at_layer: t + 1,
                        };
                        return Ok(partial(builder, choices, stats, per_layer, exhausted));
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }

        let system = builder.finish();
        stats.layers = system.layer_count();
        stats.points = usize::try_from(system.explicit_point_count()).unwrap_or(usize::MAX);
        let stabilized = system.stabilization();
        let protocol = self.protocol_of(&system, choices);
        Ok(SolveOutcome::Complete(Box::new(Solution {
            system,
            protocol,
            stabilized,
            stats,
            per_layer,
        })))
    }

    /// The standard protocol the recorded `choices` define on `system`:
    /// an entry per local state the induction reached, each agent's
    /// default action elsewhere.
    fn protocol_of(&self, system: &InterpretedSystem, choices: StepChoices) -> MapProtocol {
        let mut protocol = MapProtocol::from_choices(vec![ActionId(0)], system, choices);
        for program in self.kbp.programs() {
            protocol.set_agent_default(program.agent(), vec![program.default_action()]);
        }
        protocol
    }

    /// Evaluates every guard on the frontier layer and records the
    /// induced action set of each of its local states in `choices`, by
    /// local id.
    #[allow(clippy::too_many_arguments)]
    fn induce_layer(
        &self,
        builder: &SystemBuilder<'_>,
        time: usize,
        choices: &mut StepChoices,
        stats: &mut SolveStats,
        engine: &EvalEngine,
        guard_ids: &[Vec<FormulaId>],
        flat_ids: &[FormulaId],
        cache: &mut EvalCache,
    ) -> Result<(), SolveError> {
        let layer = builder.current();
        let model = layer.model();

        // One fill per layer covers all programs: a subformula used by
        // several agents' guards is evaluated once, and independent guards
        // run on separate workers. A carried-forward cache already holds
        // every root, making this a no-op. The layer may be explicit or
        // generated reduced by the fused step+quotient path; either way
        // its S5 model is evaluated as it stands.
        engine.populate(model, cache, flat_ids)?;
        for (program, ids) in self.kbp.programs().iter().zip(guard_ids) {
            let agent = program.agent();
            let guard_sets: Vec<&BitSet> = ids.iter().filter_map(|&id| cache.get(id)).collect();
            if guard_sets.len() != ids.len() {
                return Err(SolveError::Eval(EvalError::Internal(
                    "guard satisfaction set missing after evaluation",
                )));
            }
            stats.guard_evaluations += guard_sets.len();

            // Group points by the agent's local state; the guard valuation
            // must be constant on each group. A node's locals are its
            // class's member locals on a reduced layer (the explicit points
            // a class stands for are real run prefixes and each needs a
            // protocol entry); explicit points folded into one class are
            // bisimilar and cannot disagree on a guard, so checking across
            // classes per member local sees exactly the disagreements the
            // explicit layer would.
            //
            // `truths[node * k + j]` is guard `j` at `node`, and `first`
            // is a dense slot per local id in the layer's range holding
            // the first node the local occurs at (perfect recall makes the
            // range exactly the layer's locals).
            let k = guard_sets.len();
            let truths: Vec<bool> = (0..layer.len())
                .flat_map(|node| guard_sets.iter().map(move |s| s.contains(node)))
                .collect();
            let row = |node: usize| &truths[node * k..(node + 1) * k];
            let (lo, hi) = (0..layer.len())
                .flat_map(|node| layer.members(agent, node))
                .fold((usize::MAX, 0), |(lo, hi), l| {
                    (lo.min(l.index()), hi.max(l.index()))
                });
            let mut first: Vec<u32> = vec![u32::MAX; hi.saturating_sub(lo) + 1];
            let mut order: Vec<LocalId> = Vec::new();
            for node in 0..layer.len() {
                for &local in layer.members(agent, node) {
                    let slot = &mut first[local.index() - lo];
                    if *slot == u32::MAX {
                        *slot = node as u32;
                        order.push(local);
                        continue;
                    }
                    let (prev, now) = (row(*slot as usize), row(node));
                    if let Some(clause) = prev.iter().zip(now).position(|(a, b)| a != b) {
                        return Err(SolveError::LocalityViolation {
                            agent,
                            clause,
                            time,
                        });
                    }
                }
            }

            // The induced set is a function of the guard row, so it is
            // induced and interned once per distinct row. Under perfect
            // recall a local state occurs at exactly one time, so its slot
            // is always fresh. Under observational recall the same
            // observation recurs; a memoryless protocol exists only if the
            // induced actions agree.
            let mut induced: HashMap<&[bool], u32> = HashMap::new();
            for local in order {
                let truths = row(first[local.index() - lo] as usize);
                let id = *induced
                    .entry(truths)
                    .or_insert_with(|| choices.intern_set(program.induced_actions(truths)));
                match choices.set_interned(agent, local, id) {
                    None => stats.protocol_entries += 1,
                    Some(prev) if prev != id => {
                        return Err(SolveError::ObservationalConflict { agent, time });
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbp_logic::{Formula, PropId, Vocabulary};
    use kbp_systems::{ActionId, ContextBuilder, FnContext, GlobalState, Obs, ProtocolFn};

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    /// Hidden bit; "peek" makes the bit visible from the next step on;
    /// "announce" sets a flag; announcing is only sensible once the bit is
    /// known. The KBP: if you know whether bit, announce; else peek.
    fn peek_announce_context() -> FnContext {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("a");
        let bit = voc.add_prop("bit");
        let announced = voc.add_prop("announced");
        // regs: [bit, visible, announced]
        ContextBuilder::new(voc)
            .initial_states([
                GlobalState::new(vec![0, 0, 0]),
                GlobalState::new(vec![1, 0, 0]),
            ])
            .agent_actions(a, ["noop", "peek", "announce"])
            .transition(|s, j| match j.acts[0] {
                ActionId(1) => s.with_reg(1, 1),
                ActionId(2) => s.with_reg(2, 1),
                _ => s.clone(),
            })
            .observe(|_, s| {
                if s.reg(1) == 1 {
                    Obs(u64::from(s.reg(0)) + 1)
                } else {
                    Obs(0)
                }
            })
            .props(move |q, s| (q == bit && s.reg(0) == 1) || (q == announced && s.reg(2) == 1))
            .build()
    }

    fn peek_announce_kbp() -> Kbp {
        let a = Agent::new(0);
        Kbp::builder()
            .clause(a, Formula::knows_whether(a, p(0)), ActionId(2))
            .clause(
                a,
                Formula::not(Formula::knows_whether(a, p(0))),
                ActionId(1),
            )
            .default_action(a, ActionId(0))
            .build()
    }

    #[test]
    fn solves_peek_then_announce() {
        let ctx = peek_announce_context();
        let kbp = peek_announce_kbp();
        let solution = SyncSolver::new(&ctx, &kbp).horizon(3).solve().unwrap();
        let proto = solution.protocol();
        // At time 0 the agent is ignorant: peeks.
        assert_eq!(
            proto.get(Agent::new(0), &[Obs(0)]),
            Some(&[ActionId(1)][..])
        );
        // After peeking, the bit is visible: announce (both outcomes).
        assert_eq!(
            proto.get(Agent::new(0), &[Obs(0), Obs(1)]),
            Some(&[ActionId(2)][..])
        );
        assert_eq!(
            proto.get(Agent::new(0), &[Obs(0), Obs(2)]),
            Some(&[ActionId(2)][..])
        );
        // The generated system reaches "announced" by time 2.
        let announced = p(1);
        let ev = kbp_systems::Evaluator::new(solution.system(), &Formula::eventually(announced))
            .unwrap();
        assert!(ev.holds(kbp_systems::Point { time: 0, node: 0 }));
    }

    #[test]
    fn solution_is_a_fixed_point() {
        // Re-running the derived protocol reproduces the same system
        // layer sizes and the same induced actions — the defining
        // property of an implementation.
        let ctx = peek_announce_context();
        let kbp = peek_announce_kbp();
        let solution = SyncSolver::new(&ctx, &kbp).horizon(3).solve().unwrap();
        let replay = kbp_systems::generate(&ctx, solution.protocol(), Recall::Perfect, 3).unwrap();
        for t in 0..=3 {
            assert_eq!(
                replay.layer(t).len(),
                solution.system().layer(t).len(),
                "layer {t} differs"
            );
        }
        let report =
            crate::check_implementation(&ctx, &kbp, solution.protocol(), Recall::Perfect, 3)
                .unwrap();
        assert!(report.is_implementation(), "{report}");
    }

    #[test]
    fn rejects_future_guards() {
        let ctx = peek_announce_context();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, Formula::knows(a, Formula::eventually(p(1))), ActionId(0))
            .default_action(a, ActionId(0))
            .build();
        assert_eq!(
            SyncSolver::new(&ctx, &kbp).solve().unwrap_err(),
            SolveError::FutureGuards
        );
    }

    #[test]
    fn rejects_invalid_program() {
        let ctx = peek_announce_context();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, p(0), ActionId(0)) // bare prop, not declared local
            .default_action(a, ActionId(0))
            .build();
        assert!(matches!(
            SyncSolver::new(&ctx, &kbp).solve(),
            Err(SolveError::Kbp(KbpError::NotSubjective { .. }))
        ));
    }

    #[test]
    fn two_defaults_for_one_agent_are_an_error_not_a_panic() {
        let ctx = peek_announce_context();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .default_action(a, ActionId(0))
            .default_action(a, ActionId(1))
            .build();
        assert_eq!(
            SyncSolver::new(&ctx, &kbp).solve().unwrap_err(),
            SolveError::Kbp(KbpError::DuplicateDefault(a))
        );
    }

    #[test]
    fn detects_locality_violation() {
        // Declare the hidden bit "local" although the agent cannot see it:
        // the two initial points share a local state but disagree on bit.
        let ctx = peek_announce_context();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, p(0), ActionId(2))
            .local_prop(a, PropId::new(0))
            .default_action(a, ActionId(0))
            .build();
        assert!(matches!(
            SyncSolver::new(&ctx, &kbp).solve(),
            Err(SolveError::LocalityViolation {
                clause: 0,
                time: 0,
                ..
            })
        ));
    }

    #[test]
    fn truly_local_props_are_fine() {
        // "announced" is a function of... no: announced is global but the
        // agent may not see it. Make a context where the agent observes
        // the flag, declare it local — solver must accept.
        let mut voc = Vocabulary::new();
        let a_name = voc.add_agent("a");
        let flag = voc.add_prop("flag");
        let ctx = ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a_name, ["noop", "set"])
            .transition(|s, j| {
                if j.acts[0] == ActionId(1) {
                    s.with_reg(0, 1)
                } else {
                    s.clone()
                }
            })
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(move |q, s| q == flag && s.reg(0) == 1)
            .build();
        let a = Agent::new(0);
        let kbp = Kbp::builder()
            .clause(a, Formula::not(p(0)), ActionId(1))
            .local_prop(a, PropId::new(0))
            .default_action(a, ActionId(0))
            .build();
        let solution = SyncSolver::new(&ctx, &kbp).horizon(4).solve().unwrap();
        // Flag set at t=1 and stays; protocol sets once then noops.
        assert_eq!(
            solution.protocol().get(a, &[Obs(0)]),
            Some(&[ActionId(1)][..])
        );
        assert_eq!(
            solution.protocol().get(a, &[Obs(0), Obs(1)]),
            Some(&[ActionId(0)][..])
        );
        assert_eq!(solution.stabilized(), Some(1));
    }

    #[test]
    fn observational_conflict_names_agent_and_time() {
        // Agent b's observation never changes; it knows `start` (the
        // clock reads 0) only at time 0, so the induced action flips at
        // time 1 for the same observation. Agent a sees the clock.
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("a");
        let b = voc.add_agent("b");
        let start = voc.add_prop("start");
        let ctx = ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop"])
            .agent_actions(b, ["noop", "go"])
            .transition(|s, _| s.with_reg(0, (s.reg(0) + 1).min(2)))
            .observe(|agent, s| {
                if agent.index() == 0 {
                    Obs(u64::from(s.reg(0)))
                } else {
                    Obs(0)
                }
            })
            .props(move |q, s| q == start && s.reg(0) == 0)
            .build();
        let kbp = Kbp::builder()
            .default_action(a, ActionId(0))
            .clause(b, Formula::knows(b, Formula::prop(start)), ActionId(1))
            .default_action(b, ActionId(0))
            .build();
        let solve = |recall| {
            SyncSolver::new(&ctx, &kbp)
                .horizon(3)
                .recall(recall)
                .solve()
        };
        assert_eq!(
            solve(Recall::Observational).unwrap_err(),
            SolveError::ObservationalConflict { agent: b, time: 1 }
        );
        let perfect = solve(Recall::Perfect).unwrap();
        assert_eq!(
            perfect.protocol().get(b, &[Obs(0)]),
            Some(&[ActionId(1)][..])
        );
        assert_eq!(
            perfect.protocol().get(b, &[Obs(0), Obs(0)]),
            Some(&[ActionId(0)][..])
        );
    }

    #[test]
    fn stats_are_populated() {
        let ctx = peek_announce_context();
        let kbp = peek_announce_kbp();
        let solution = SyncSolver::new(&ctx, &kbp).horizon(3).solve().unwrap();
        let stats = solution.stats();
        assert_eq!(stats.layers, 4);
        assert!(stats.points >= 4);
        assert!(stats.protocol_entries >= 4);
        assert!(stats.guard_evaluations >= 8);
    }

    #[test]
    fn node_limit_is_respected() {
        let ctx = peek_announce_context();
        let kbp = peek_announce_kbp();
        let err = SyncSolver::new(&ctx, &kbp)
            .horizon(3)
            .node_limit(2)
            .solve()
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::Generate(GenerateError::NodeLimit { .. })
        ));
    }

    #[test]
    fn budgeted_solve_returns_partial_prefix() {
        let ctx = peek_announce_context();
        let kbp = peek_announce_kbp();
        // Cap guard evaluations so only layer 0 can be induced: the check
        // at t=1 sees the two evaluations already charged and stops.
        let solver = SyncSolver::new(&ctx, &kbp)
            .horizon(3)
            .budget(Budget::new().max_guard_evaluations(1));
        let outcome = solver.solve_budgeted().unwrap();
        assert!(!outcome.is_complete());
        let partial = outcome.partial().unwrap();
        assert_eq!(partial.exhausted().resource, Resource::GuardEvaluations);
        assert_eq!(partial.exhausted().at_layer, 1);
        assert_eq!(partial.completed_layers(), 1);
        assert_eq!(partial.per_layer().len(), 1);
        // The induced prefix agrees with the unbudgeted unique answer.
        let full = SyncSolver::new(&ctx, &kbp).horizon(3).solve().unwrap();
        assert_eq!(
            partial.protocol().get(Agent::new(0), &[Obs(0)]),
            full.protocol().get(Agent::new(0), &[Obs(0)])
        );
    }

    #[test]
    fn budgeted_solve_completes_under_generous_budget() {
        let ctx = peek_announce_context();
        let kbp = peek_announce_kbp();
        let solver = SyncSolver::new(&ctx, &kbp)
            .horizon(3)
            .budget(Budget::new().max_guard_evaluations(1_000_000));
        let outcome = solver.solve_budgeted().unwrap();
        let solution = outcome.solution().unwrap();
        let full = SyncSolver::new(&ctx, &kbp).horizon(3).solve().unwrap();
        assert_eq!(*solution.protocol(), *full.protocol());
        assert_eq!(solution.per_layer().len(), 4);
        // Per-layer evaluations sum to the aggregate.
        let sum: usize = solution
            .per_layer()
            .iter()
            .map(|l| l.guard_evaluations)
            .sum();
        assert_eq!(sum, solution.stats().guard_evaluations);
    }

    #[test]
    fn budgeted_solve_degrades_on_node_limit() {
        let ctx = peek_announce_context();
        let kbp = peek_announce_kbp();
        let outcome = SyncSolver::new(&ctx, &kbp)
            .horizon(3)
            .node_limit(2)
            .solve_budgeted()
            .unwrap();
        let partial = outcome.partial().unwrap();
        assert_eq!(partial.exhausted().resource, Resource::Nodes);
        assert!(partial.completed_layers() >= 1);
    }

    #[test]
    fn unbudgeted_solve_rejects_exhaustion_as_error() {
        let ctx = peek_announce_context();
        let kbp = peek_announce_kbp();
        let err = SyncSolver::new(&ctx, &kbp)
            .horizon(3)
            .budget(Budget::new().max_guard_evaluations(1))
            .solve()
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::Budget(BudgetExhausted {
                resource: Resource::GuardEvaluations,
                ..
            })
        ));
    }

    #[test]
    fn derived_protocol_is_deterministic_here() {
        let ctx = peek_announce_context();
        let kbp = peek_announce_kbp();
        let solution = SyncSolver::new(&ctx, &kbp).horizon(2).solve().unwrap();
        assert!(solution.protocol().is_deterministic());
        // And replays identically through the ProtocolFn interface.
        let history = [Obs(0)];
        let acts = solution.protocol().actions(&kbp_systems::LocalView {
            agent: Agent::new(0),
            history: &history,
        });
        assert_eq!(acts, vec![ActionId(1)]);
    }
}
