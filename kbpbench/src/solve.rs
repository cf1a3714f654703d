//! The in-process solve workloads, `witness` and `muddy-wide`.
//!
//! One op is one `SyncSolver::solve` on a fixed instance, run back to
//! back from one thread (the solver's own evaluation threads aside).
//! Neither workload draws from the seed: the instance is the input.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use kbp_core::{Kbp, Solution, SolveError, SyncSolver, DEFAULT_CARRY_THRESHOLD};
use kbp_kripke::{EvalCache, EvalEngine};
use kbp_logic::{Agent, FormulaArena, FormulaId};
use kbp_scenarios::bit_transmission::Channel;
use kbp_scenarios::muddy_children::MuddyChildren;
use kbp_scenarios::sequence_transmission::{SequenceTransmission, Tagging};
use kbp_systems::{
    layer_renaming, Context, FnContext, LocalId, LocalView, MapProtocol, ProtocolFn, Recall,
    StepChoices, SystemBuilder,
};

use crate::stats::{median, ms, share, status_mib};
use crate::trace::{SpanId, Tracer};
use crate::{Measured, Outcome};

/// What every timed `witness` solve must report.
const WITNESS_POINTS: usize = 10_423_416;
const WITNESS_ENTRIES: usize = 318_970;
const WITNESS_GUARD_EVALUATIONS: usize = 24;

#[derive(Clone, Copy)]
pub enum Which {
    /// Sequence transmission, m = 3, lossy, horizon 11, default gates.
    Witness,
    /// Muddy children, n = 13, horizon 2, default configuration.
    MuddyWide,
}

/// A set-up workload: the instance plus its correctness reference.
pub struct SolveWorkload {
    which: Which,
    ctx: FnContext,
    kbp: Kbp,
    horizon: usize,
    /// `muddy-wide`: the protocol of a gates-off reference solve.
    reference: Option<MapProtocol>,
}

impl SolveWorkload {
    /// Builds the instance, establishes the correctness reference, and
    /// makes the cold first solve (checked like every timed one).
    pub fn set_up(which: Which) -> Result<Self, String> {
        let workload = match which {
            Which::Witness => {
                witness_crosscheck()?;
                let sc = SequenceTransmission::new(3, Tagging::Alternating, Channel::Lossy);
                SolveWorkload {
                    which,
                    ctx: sc.context(),
                    kbp: sc.kbp(),
                    horizon: 11,
                    reference: None,
                }
            }
            Which::MuddyWide => {
                let sc = MuddyChildren::new(13);
                let ctx = sc.context();
                let kbp = sc.kbp();
                let horizon = 2;
                let reference = SyncSolver::new(&ctx, &kbp)
                    .horizon(horizon)
                    .eval_threads(1)
                    .shard_min_worlds(usize::MAX)
                    .quotient_min_worlds(usize::MAX)
                    .gen_quotient_min_worlds(usize::MAX)
                    .carry_forward(false)
                    .solve()
                    .map_err(|e| format!("muddy-wide reference solve: {e}"))?;
                check_muddy_rounds(&sc, &reference, horizon)?;
                SolveWorkload {
                    which,
                    ctx,
                    kbp,
                    horizon,
                    reference: Some(reference.protocol().clone()),
                }
            }
        };
        let first = workload
            .solve()
            .map_err(|e| format!("cold first solve: {e}"))?;
        workload.check(&first)?;
        Ok(workload)
    }

    /// One op: the solve under test, at the workload's configuration.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        SyncSolver::new(&self.ctx, &self.kbp)
            .horizon(self.horizon)
            .solve()
    }

    /// Checks one solve's answer against the workload's reference.
    pub fn check(&self, solution: &Solution) -> Result<(), String> {
        match self.which {
            Which::Witness => {
                let s = solution.stats();
                let got = (s.points, s.protocol_entries, s.guard_evaluations);
                let want = (WITNESS_POINTS, WITNESS_ENTRIES, WITNESS_GUARD_EVALUATIONS);
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "witness (points, entries, guard evaluations) = {got:?}, expected {want:?}"
                    ))
                }
            }
            Which::MuddyWide => match &self.reference {
                Some(reference) if reference == solution.protocol() => Ok(()),
                _ => Err("muddy-wide protocol differs from the gates-off reference".into()),
            },
        }
    }

    /// One checked solve; returns its latency and the solution when the
    /// answer is right.
    fn timed_op(&self) -> (Duration, Result<Solution, String>) {
        let started = Instant::now();
        let result = self.solve();
        let latency = started.elapsed();
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|s| self.check(&s).map(|()| s));
        (latency, checked)
    }

    /// Solves back to back for `seconds`, with no tracing.
    pub fn run_untraced(&self, seconds: f64) -> Outcome {
        let mut outcome = Outcome::default();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            let (latency, checked) = self.timed_op();
            outcome.record(ms(latency), checked.err());
        }
        outcome.wall = started.elapsed();
        outcome
    }

    /// The traced run: half the time untraced, half traced with every
    /// solve followed by a replay of its stages through each crate's
    /// public calls. Returns the per-layer metrics it measured.
    pub fn run_traced(&self, seconds: f64, tracer: &mut Tracer) -> (Outcome, Measured) {
        let untraced = self.run_untraced(seconds / 2.0);
        let mut outcome = Outcome::default();
        let mut replay = Replay::default();
        let mut last: Option<Solution> = None;
        let started = Instant::now();
        let mut op = 0;
        while started.elapsed().as_secs_f64() < seconds / 2.0 {
            let op_start = Instant::now();
            let result = self.solve();
            let solve_span = tracer.record("kbp-core.solve", op, None, op_start, Instant::now());
            let checked = result
                .map_err(|e| e.to_string())
                .and_then(|s| self.check(&s).map(|()| s))
                .and_then(|s| {
                    replay
                        .run(self, &s, tracer, op, solve_span)
                        .map(|()| s)
                        .map_err(|e| format!("replay: {e}"))
                });
            outcome.record(
                ms(tracer.duration(solve_span)),
                checked.as_ref().err().cloned(),
            );
            if let Ok(s) = checked {
                last = Some(s);
            }
            op += 1;
        }
        outcome.wall = started.elapsed();
        let metrics = self.per_layer(tracer, &replay, last.as_ref(), &untraced, &outcome);
        outcome.attempted += untraced.attempted;
        outcome.failures.extend(untraced.failures);
        (outcome, metrics)
    }

    fn per_layer(
        &self,
        tracer: &Tracer,
        replay: &Replay,
        last: Option<&Solution>,
        untraced: &Outcome,
        traced: &Outcome,
    ) -> Measured {
        let stats = last.map(Solution::stats).unwrap_or_default();
        let shards: usize = last.map_or(0, |s| s.per_layer().iter().map(|l| l.shards).sum());
        let span_ms = |name| median(&tracer.per_op_ms(name));
        vec![
            ("kbp-core.solve_ms", span_ms("kbp-core.solve")),
            (
                "kbp-core.induce_self_ms",
                median(&tracer.self_ms("kbp-core.solve")),
            ),
            ("kbp-core.protocol_entries", stats.protocol_entries as f64),
            ("kbp-core.guard_evaluations", stats.guard_evaluations as f64),
            (
                "kbp-core.layers_gen_quotiented",
                stats.layers_gen_quotiented as f64,
            ),
            ("kbp-core.layers_quotiented", stats.layers_quotiented as f64),
            ("kbp-core.layers_sharded", stats.layers_sharded as f64),
            ("kbp-core.layers_carried", stats.layers_carried as f64),
            ("kbp-systems.generate_ms", span_ms("kbp-systems.generate")),
            ("kbp-systems.resident_worlds", replay.resident_worlds as f64),
            ("kbp-systems.explicit_worlds", replay.explicit_worlds as f64),
            (
                "kbp-systems.gen_quotient_useful_share",
                share(replay.gen_narrower, replay.gen_gated),
            ),
            ("kbp-systems.stabilize_ms", span_ms("kbp-systems.stabilize")),
            (
                "kbp-systems.layer_renaming_ms",
                span_ms("kbp-systems.layer_renaming"),
            ),
            (
                "kbp-systems.renaming_found_share",
                share(replay.renamings_found, replay.renamings_attempted),
            ),
            (
                "kbp-systems.rss_after_generate_mib",
                median(&replay.rss_after_generate),
            ),
            ("kbp-kripke.populate_ms", span_ms("kbp-kripke.populate")),
            ("kbp-kripke.populate_worlds", replay.populate_worlds as f64),
            (
                "kbp-kripke.quotient_useful_share",
                share(replay.quotient_narrower, replay.quotient_ran),
            ),
            ("kbp-kripke.shards", shards as f64),
            (
                "trace.overhead_share",
                traced.ops_per_s() / untraced.ops_per_s(),
            ),
        ]
    }
}

/// Counts gathered by replaying one solve's stages. Counts are per
/// replay (the last one wins; they repeat exactly across solves), RSS
/// samples accumulate.
#[derive(Default)]
struct Replay {
    resident_worlds: usize,
    explicit_worlds: u64,
    /// Layers stepped with the generation gate engaged.
    gen_gated: usize,
    /// Of those, layers narrower than their explicit width.
    gen_narrower: usize,
    renamings_attempted: usize,
    renamings_found: usize,
    populate_worlds: usize,
    quotient_ran: usize,
    quotient_narrower: usize,
    rss_after_generate: Vec<f64>,
}

impl Replay {
    /// Replays `solution`'s generation, carry-forward renamings, guard
    /// fills and stabilization as spans under `parent`, mirroring the
    /// solver's per-layer loop with the same gates (DESIGN.md §12–§17).
    fn run(
        &mut self,
        w: &SolveWorkload,
        solution: &Solution,
        tracer: &mut Tracer,
        op: usize,
        parent: SpanId,
    ) -> Result<(), String> {
        // The counts describe this replay alone.
        *self = Replay {
            rss_after_generate: std::mem::take(&mut self.rss_after_generate),
            ..Replay::default()
        };
        // Generation: `SystemBuilder::new` plus one `step` per layer, each
        // a span. The choices come from the solved protocol; they are
        // derived here, outside the spans, over a hash set of frontier
        // locals (`step_with` dedups them with a linear scan, which is
        // quadratic in the frontier and would dominate the replay).
        let (built, _) = tracer.span("kbp-systems.generate", op, Some(parent), || {
            SystemBuilder::new(&w.ctx, Recall::Perfect)
        });
        let mut builder = built.map_err(|e| e.to_string())?;
        for _ in 0..w.horizon {
            let choices = choices_from(&builder, solution.protocol(), w.ctx.agent_count());
            let (stepped, _) = tracer.span("kbp-systems.generate", op, Some(parent), || {
                builder.step(&choices)
            });
            stepped.map_err(|e| e.to_string())?;
        }
        self.rss_after_generate.push(status_mib("self", "VmRSS")?);

        let gate = builder.gen_quotient_min_worlds();
        for t in 0..=w.horizon {
            let layer = builder.layer(t);
            self.resident_worlds += layer.len();
            self.explicit_worlds += layer.explicit_len();
            // A layer was stepped through the fused path when its parent
            // frontier was reduced or at least the gate wide.
            let fused = t > 0 && {
                let parent = builder.layer(t - 1);
                parent.is_reduced() || parent.len() >= gate
            };
            if fused {
                self.gen_gated += 1;
                if (layer.len() as u64) < layer.explicit_len() {
                    self.gen_narrower += 1;
                }
            }
        }

        let mut engine = EvalEngine::from_env(FormulaArena::new()).map_err(|e| e.to_string())?;
        let mut roots: Vec<FormulaId> = w
            .kbp
            .programs()
            .iter()
            .flat_map(|p| p.clauses())
            .map(|c| engine.intern(&c.guard))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        let mut cache = EvalCache::new();
        for t in 0..=w.horizon {
            let layer = builder.layer(t);
            if t > 0 {
                let mut carried = None;
                if layer.len() >= DEFAULT_CARRY_THRESHOLD {
                    let (renaming, _) =
                        tracer.span("kbp-systems.layer_renaming", op, Some(parent), || {
                            layer_renaming(builder.layer(t - 1), layer)
                        });
                    self.renamings_attempted += 1;
                    if let Some(r) = renaming {
                        self.renamings_found += 1;
                        carried = cache.carried_forward(&r).ok();
                    }
                }
                match carried {
                    Some(c) => cache = c,
                    None => cache.clear(),
                }
            }
            let fills = roots.iter().any(|&r| cache.get(r).is_none());
            let (filled, _) = tracer.span("kbp-kripke.populate", op, Some(parent), || {
                if layer.is_reduced() {
                    engine.populate_prereduced(layer.model(), &mut cache, &roots)
                } else {
                    engine.populate(layer.model(), &mut cache, &roots)
                }
            });
            filled.map_err(|e| e.to_string())?;
            if fills {
                self.populate_worlds += layer.len();
                let q = cache.quotient_worlds();
                if q > 0 {
                    self.quotient_ran += 1;
                    if q < layer.len() {
                        self.quotient_narrower += 1;
                    }
                }
            }
        }
        drop(builder);
        tracer.span("kbp-systems.stabilize", op, Some(parent), || {
            solution.system().stabilization()
        });
        Ok(())
    }
}

/// The step choices `protocol` makes on the builder's frontier: one
/// entry per distinct (agent, local state), members of reduced classes
/// included, as `SystemBuilder::step_with` derives them.
fn choices_from(builder: &SystemBuilder<'_>, protocol: &MapProtocol, agents: usize) -> StepChoices {
    let layer = builder.current();
    let mut locals: HashSet<(Agent, LocalId)> = HashSet::new();
    for i in 0..agents {
        let agent = Agent::new(i);
        match layer.quotient() {
            Some(q) => {
                for c in 0..q.class_count() {
                    locals.extend(q.members(agent, c).iter().map(|&l| (agent, l)));
                }
            }
            None => locals.extend(layer.nodes().iter().map(|n| (agent, n.local(agent)))),
        }
    }
    let mut choices = StepChoices::new();
    for (agent, local) in locals {
        let history = builder.local_history(agent, local);
        let view = LocalView {
            agent,
            history: &history,
        };
        choices.set(agent, local, protocol.actions(&view));
    }
    choices
}

/// `witness` set-up reference: on m = 2, horizon 7, the fused,
/// evaluation-quotiented and explicit paths agree bit for bit.
fn witness_crosscheck() -> Result<(), String> {
    let small = SequenceTransmission::new(2, Tagging::Alternating, Channel::Lossy);
    let ctx = small.context();
    let kbp = small.kbp();
    let solve = |gen: usize, quotient: usize| {
        SyncSolver::new(&ctx, &kbp)
            .horizon(7)
            .gen_quotient_min_worlds(gen)
            .quotient_min_worlds(quotient)
            .solve()
            .map_err(|e| format!("witness crosscheck solve: {e}"))
    };
    let fused = solve(0, usize::MAX)?;
    let quotiented = solve(usize::MAX, 0)?;
    let explicit = solve(usize::MAX, usize::MAX)?;
    let points = |s: &Solution| s.per_layer().iter().map(|l| l.points).collect::<Vec<_>>();
    let agree = |s: &Solution| {
        s.protocol() == explicit.protocol()
            && s.stabilized() == explicit.stabilized()
            && points(s) == points(&explicit)
    };
    if agree(&fused) && agree(&quotiented) {
        Ok(())
    } else {
        Err("witness crosscheck (m = 2, horizon 7): fused, quotiented and explicit differ".into())
    }
}

/// The paper's muddy-children result on the reference system: with k
/// muddy children the first "yes" comes in round k, for every mask whose
/// round the horizon reaches, and no earlier.
fn check_muddy_rounds(
    sc: &MuddyChildren,
    reference: &Solution,
    horizon: usize,
) -> Result<(), String> {
    for mask in 1u32..(1 << sc.children()) {
        let k = mask.count_ones() as usize;
        let want = (k <= horizon).then_some(k);
        let got = sc.yes_round(reference.system(), mask);
        if got != want {
            return Err(format!(
                "muddy-wide: mask {mask:#b} answered in round {got:?}, expected {want:?}"
            ));
        }
    }
    Ok(())
}
