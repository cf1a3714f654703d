//! The shared evaluation engine.
//!
//! Every satisfaction-set computation in the workspace — solver guards,
//! enumerator branch tests, bounded-temporal layer evaluation, CTLK model
//! checking — is the same operation: walk an interned [`FormulaArena`] in
//! postorder over one S5 layer, memoizing each distinct subformula in an
//! [`EvalCache`]. [`EvalEngine`] packages that walk behind a stable API so
//! all consumers share one arena (one interning pass, maximal subformula
//! sharing) and one kernel (the word-level partition routines of this
//! crate).
//!
//! Two extras live here because they only make sense at the batch level:
//!
//! * **Parallel sharded fill** ([`EvalEngine::populate`]): independent
//!   root formulas — those sharing no uncached subformula and no group
//!   modality's agent set (group joins are memoized per agent set, and
//!   must not be rebuilt once per shard) — are sharded across
//!   `std::thread::scope` workers, each filling a private cache;
//!   the shards are merged before any result is read. Because each cached
//!   value is a pure function of `(model, FormulaId)`, the merged cache is
//!   bit-identical to the sequential one regardless of sharding.
//! * **Temporal hooks** ([`TemporalOps`] / [`EvalEngine::populate_temporal`]):
//!   the static kernel cannot evaluate `X/F/G/U`; a consumer that can
//!   (backward induction in `kbp-systems`, CTL fixpoints in `kbp-mck`)
//!   supplies the four set-level operators and the engine drives the
//!   postorder walk, memoizing temporal results per [`FormulaId`] like any
//!   other node.

use crate::bitset::BitSet;
use crate::eval::{EvalCache, EvalError};
use crate::model::S5Model;
use kbp_logic::{AgentSet, Formula, FormulaArena, FormulaId, InternedNode};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::thread;

/// Environment variable overriding the engine's worker-thread count.
pub const THREADS_ENV: &str = "KBP_EVAL_THREADS";

/// Environment variable overriding the *generation* quotient gate:
/// frontiers with at least this many points are folded to bisimulation
/// representatives with multiplicities before the next layer is
/// generated, so the explicit frontier is never resident (DESIGN.md
/// §17). `0` means "generate quotient-first from layer 0"; a huge value
/// disables fused generation entirely. Read by
/// `kbp_systems::SystemBuilder`; defined here so all engine gates share
/// one parser and one error type.
pub const GEN_QUOTIENT_MIN_WORLDS_ENV: &str = "KBP_GEN_QUOTIENT_MIN_WORLDS";

/// Default generation quotient gate: narrow frontiers are generated
/// explicitly (the canonicalization pass costs more than it saves
/// there), wide frontiers advance on representatives — solutions are
/// bit-identical either way.
pub const DEFAULT_GEN_QUOTIENT_MIN_WORLDS: usize = 4096;

/// Largest worker-thread count accepted from an environment variable.
/// Far above any plausible machine; a value beyond it is a typo (an extra
/// digit, a pasted timestamp), not a configuration.
pub const MAX_CONFIG_THREADS: usize = 4096;

/// A thread-count environment variable held a value that cannot mean any
/// worker-pool size. Surfaced as a typed error so services can refuse to
/// start instead of silently falling back to a default the operator did
/// not choose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadConfigError {
    /// The value did not parse as an unsigned integer.
    NotANumber {
        /// The variable that held the value.
        var: &'static str,
        /// The offending value.
        value: String,
    },
    /// The value parsed as `0`; a worker pool needs at least one thread.
    Zero {
        /// The variable that held the value.
        var: &'static str,
    },
    /// The value exceeds [`MAX_CONFIG_THREADS`].
    TooLarge {
        /// The variable that held the value.
        var: &'static str,
        /// The offending value.
        value: String,
    },
}

impl fmt::Display for ThreadConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadConfigError::NotANumber { var, value } => {
                write!(f, "{var}={value:?} is not an unsigned integer")
            }
            ThreadConfigError::Zero { var } => {
                write!(f, "{var}=0: a worker pool needs at least one thread")
            }
            ThreadConfigError::TooLarge { var, value } => write!(
                f,
                "{var}={value}: exceeds the {MAX_CONFIG_THREADS}-thread cap"
            ),
        }
    }
}

impl Error for ThreadConfigError {}

/// Parses a thread-count setting taken from environment variable `var`.
/// `0`, non-numeric input and values above [`MAX_CONFIG_THREADS`] are
/// typed errors, never silent fallbacks.
///
/// # Errors
///
/// Returns [`ThreadConfigError`] describing exactly how the value is
/// unusable.
pub fn parse_thread_count(var: &'static str, raw: &str) -> Result<usize, ThreadConfigError> {
    let trimmed = raw.trim();
    let n: usize = trimmed.parse().map_err(|_| ThreadConfigError::NotANumber {
        var,
        value: raw.to_owned(),
    })?;
    if n == 0 {
        return Err(ThreadConfigError::Zero { var });
    }
    if n > MAX_CONFIG_THREADS {
        return Err(ThreadConfigError::TooLarge {
            var,
            value: raw.to_owned(),
        });
    }
    Ok(n)
}

/// Reads a thread-count override from environment variable `var`.
/// `Ok(None)` when unset or empty; malformed values are typed errors.
///
/// # Errors
///
/// Returns [`ThreadConfigError`] if the variable is set to `0`, to a
/// non-number, or to a value above [`MAX_CONFIG_THREADS`].
pub fn env_threads(var: &'static str) -> Result<Option<usize>, ThreadConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => parse_thread_count(var, &raw).map(Some),
    }
}

/// Reads the generation quotient gate from
/// [`GEN_QUOTIENT_MIN_WORLDS_ENV`]. `Ok(None)` when unset or empty.
/// Unlike thread counts, `0` is a valid setting (fuse step+quotient from
/// layer 0) and there is no upper cap (a huge value keeps generation
/// explicit).
///
/// # Errors
///
/// Returns [`ThreadConfigError::NotANumber`] if the variable holds
/// anything but an unsigned integer.
pub fn env_gen_quotient_min_worlds() -> Result<Option<usize>, ThreadConfigError> {
    match std::env::var(GEN_QUOTIENT_MIN_WORLDS_ENV) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => {
            raw.trim()
                .parse::<usize>()
                .map(Some)
                .map_err(|_| ThreadConfigError::NotANumber {
                    var: GEN_QUOTIENT_MIN_WORLDS_ENV,
                    value: raw,
                })
        }
    }
}

/// Set-level temporal operators, supplied by evaluators that have a
/// notion of time (bounded layers, an explored state graph, …).
///
/// Each operator maps the satisfaction set(s) of the subformula(s) to the
/// satisfaction set of the temporal formula **on the same model**. The
/// engine calls them during [`EvalEngine::populate_temporal`]'s postorder
/// walk, so arguments are always fully evaluated.
pub trait TemporalOps {
    /// Satisfaction set of `X φ` given that of `φ`.
    fn next(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `F φ` given that of `φ`.
    fn eventually(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `G φ` given that of `φ`.
    fn always(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `φ U ψ` given those of `φ` and `ψ`.
    fn until(&self, hold: &BitSet, target: &BitSet) -> BitSet;
}

/// The unified arena-based evaluator.
///
/// Owns the [`FormulaArena`] for a whole run (a solve, an enumeration, a
/// model-checking session) plus the parallelism policy. Per-layer state
/// lives in the caller's [`EvalCache`]s, so one engine serves any number
/// of layers/models.
///
/// # Example
///
/// ```
/// use kbp_kripke::{EvalCache, EvalEngine, S5Builder};
/// use kbp_logic::{Agent, Formula, FormulaArena, PropId};
///
/// let a = Agent::new(0);
/// let p = Formula::prop(PropId::new(0));
/// let mut b = S5Builder::new(1, 1);
/// let w0 = b.add_world([PropId::new(0)]);
/// let w1 = b.add_world([]);
/// b.link(a, w0, w1);
/// let m = b.build();
///
/// let mut engine = EvalEngine::new(FormulaArena::new());
/// let yes = engine.intern(&Formula::knows(a, p.clone()));
/// let no = engine.intern(&Formula::not(Formula::knows(a, p)));
///
/// let mut cache = EvalCache::new();
/// let sets = engine.satisfying_sets(&m, &mut cache, &[yes, no])?;
/// assert_eq!(sets[1], sets[0].complemented());
/// # Ok::<(), kbp_kripke::EvalError>(())
/// ```
#[derive(Debug)]
pub struct EvalEngine {
    arena: FormulaArena,
    threads: usize,
}

fn default_threads() -> usize {
    if let Ok(Some(n)) = env_threads(THREADS_ENV) {
        return n;
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl EvalEngine {
    /// Wraps `arena` with the default thread policy: `KBP_EVAL_THREADS`
    /// if set to a positive integer, else
    /// [`std::thread::available_parallelism`]. A malformed
    /// `KBP_EVAL_THREADS` value is ignored here; use
    /// [`from_env`](Self::from_env) to surface it as a typed error
    /// instead.
    #[must_use]
    pub fn new(arena: FormulaArena) -> Self {
        EvalEngine {
            arena,
            threads: default_threads(),
        }
    }

    /// Like [`new`](Self::new), but a malformed `KBP_EVAL_THREADS` value
    /// is a typed [`ThreadConfigError`] instead of a silent fallback to
    /// [`std::thread::available_parallelism`].
    ///
    /// # Errors
    ///
    /// Returns [`ThreadConfigError`] if `KBP_EVAL_THREADS` is set to `0`,
    /// a non-number, or a value above [`MAX_CONFIG_THREADS`].
    pub fn from_env(arena: FormulaArena) -> Result<Self, ThreadConfigError> {
        let threads = env_threads(THREADS_ENV)?.unwrap_or_else(|| {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        Ok(EvalEngine { arena, threads })
    }

    /// Overrides the worker-thread count (clamped to ≥ 1); `1` forces the
    /// sequential path.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// In-place variant of [`with_threads`](Self::with_threads), for
    /// engines owned by a long-lived session.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine's arena.
    #[must_use]
    pub fn arena(&self) -> &FormulaArena {
        &self.arena
    }

    /// Interns `formula` into the engine's arena.
    pub fn intern(&mut self, formula: &Formula) -> FormulaId {
        self.arena.intern(formula)
    }

    /// Fills `cache` with the satisfaction sets of `roots` (and all their
    /// subformulas) on `model`, sharding independent roots across worker
    /// threads when profitable. Already-cached formulas are not
    /// recomputed. The resulting cache contents are identical for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`S5Model::satisfying_cached`]; on error the
    /// cache retains any entries merged so far (all of them valid).
    pub fn populate(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<(), EvalError> {
        cache.bind(model.world_count())?;
        let mut todo: Vec<FormulaId> = roots.iter().copied().filter(|&r| !cache.has(r)).collect();
        todo.sort_unstable();
        todo.dedup();
        let shards = if self.threads > 1 && todo.len() > 1 {
            self.shard(&todo, cache)
        } else {
            Vec::new()
        };
        if shards.len() <= 1 {
            for &id in &todo {
                model.eval_into_cache(cache, &self.arena, id)?;
            }
            return Ok(());
        }
        let results: Vec<Result<EvalCache, EvalError>> = thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|(shard_roots, mut local)| {
                    scope.spawn(move || -> Result<EvalCache, EvalError> {
                        for id in shard_roots {
                            model.eval_into_cache(&mut local, &self.arena, id)?;
                        }
                        Ok(local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or(Err(EvalError::Internal(
                        "parallel evaluation worker panicked",
                    )))
                })
                .collect()
        });
        for result in results {
            cache.absorb(result?);
        }
        Ok(())
    }

    /// Same as [`populate`](Self::populate). Inert; kept only while the
    /// `kbpbench` benchmark names it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`populate`](Self::populate).
    pub fn populate_prereduced(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<(), EvalError> {
        self.populate(model, cache, roots)
    }

    /// Groups `todo` roots into connected components (two roots are
    /// connected when they share an *uncached* subformula — sharing only
    /// cached nodes is fine, each worker starts from the cached value —
    /// or when their uncached group modalities name the same [`AgentSet`]:
    /// group evaluation memoizes one partition join per agent set in the
    /// cache, and splitting such roots across shards would rebuild that
    /// join once per shard, easily costing more than the sharding saves),
    /// then distributes components over at most `self.threads` shards by
    /// greedy least-loaded assignment. Returns one `(roots, seeded local
    /// cache)` pair per shard; deterministic for a given input.
    fn shard(&self, todo: &[FormulaId], cache: &EvalCache) -> Vec<(Vec<FormulaId>, EvalCache)> {
        const UNOWNED: u32 = u32::MAX;
        let mut owner = vec![UNOWNED; self.arena.len()];
        // Union-find over root indices.
        let mut parent: Vec<u32> = (0..todo.len() as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        // Per-root DFS over uncached nodes: `weight` counts the nodes a
        // root must evaluate; `boundary` collects the cached nodes its
        // evaluation will read (the seeds for its shard's local cache).
        let mut weight = vec![0usize; todo.len()];
        let mut boundary: Vec<Vec<FormulaId>> = vec![Vec::new(); todo.len()];
        let mut stack: Vec<FormulaId> = Vec::new();
        let mut group_owner: HashMap<AgentSet, u32> = HashMap::new();
        for (ri, &root) in todo.iter().enumerate() {
            let ri32 = ri as u32;
            stack.push(root);
            while let Some(id) = stack.pop() {
                if cache.has(id) {
                    boundary[ri].push(id);
                    continue;
                }
                let prev = owner[id.index()];
                if prev == UNOWNED {
                    owner[id.index()] = ri32;
                    weight[ri] += 1;
                    if let InternedNode::Everyone(g, _)
                    | InternedNode::Common(g, _)
                    | InternedNode::Distributed(g, _) = self.arena.node(id)
                    {
                        let joined = *group_owner.entry(*g).or_insert(ri32);
                        if joined != ri32 {
                            let (a, b) = (find(&mut parent, ri32), find(&mut parent, joined));
                            if a != b {
                                parent[a as usize] = b;
                            }
                        }
                    }
                    self.arena.visit_children(id, &mut |c| stack.push(c));
                } else {
                    let (a, b) = (find(&mut parent, ri32), find(&mut parent, prev));
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
            }
        }
        // Components in first-occurrence order.
        let mut comp_index: HashMap<u32, usize> = HashMap::new();
        let mut comps: Vec<(Vec<usize>, usize)> = Vec::new(); // (root indices, weight)
        for (ri, &w) in weight.iter().enumerate() {
            let rep = find(&mut parent, ri as u32);
            let ci = *comp_index.entry(rep).or_insert_with(|| {
                comps.push((Vec::new(), 0));
                comps.len() - 1
            });
            comps[ci].0.push(ri);
            comps[ci].1 += w;
        }
        let shard_count = self.threads.min(comps.len());
        if shard_count <= 1 {
            return Vec::new();
        }
        // Heaviest components first (stable sort keeps determinism), then
        // greedy least-loaded placement with lowest-index tie-break.
        let mut order: Vec<usize> = (0..comps.len()).collect();
        order.sort_by(|&a, &b| comps[b].1.cmp(&comps[a].1).then(a.cmp(&b)));
        let mut shards: Vec<(Vec<FormulaId>, EvalCache)> = Vec::new();
        for _ in 0..shard_count {
            let mut local = EvalCache::new();
            // Binding cannot fail on a fresh cache.
            let _ = local.bind(cache.worlds().unwrap_or(0));
            shards.push((Vec::new(), local));
        }
        let mut load = vec![0usize; shard_count];
        let mut shard_of_root = vec![usize::MAX; todo.len()];
        for ci in order {
            let mut best = 0;
            for s in 1..shard_count {
                if load[s] < load[best] {
                    best = s;
                }
            }
            load[best] += comps[ci].1;
            for &ri in &comps[ci].0 {
                shard_of_root[ri] = best;
                shards[best].0.push(todo[ri]);
                for &seed in &boundary[ri] {
                    if !shards[best].1.has(seed) {
                        if let Some(set) = cache.get(seed) {
                            let _ = shards[best].1.insert(seed, set.clone());
                        }
                    }
                }
            }
        }
        // Hand each group's memoized partitions to the one shard that
        // evaluates it (all roots naming a group share a component, so the
        // owner root's shard is that shard), sparing the worker a rebuild.
        for (g, &ri) in &group_owner {
            let s = shard_of_root[ri as usize];
            if s == usize::MAX {
                continue;
            }
            if let Some(p) = cache.join(g) {
                shards[s].1.insert_join(*g, p.clone());
            }
            if let Some(p) = cache.refinement(g) {
                shards[s].1.insert_refinement(*g, p.clone());
            }
        }
        shards
    }

    /// Like [`populate`](Self::populate), but accepts temporal operators:
    /// `X/F/G/U` nodes are computed from their (already evaluated)
    /// children via `ops` and memoized in `cache` like any other node.
    /// Sequential — temporal fixpoints chain, so sharding does not pay.
    ///
    /// # Errors
    ///
    /// Same conditions as [`S5Model::satisfying_cached`] (minus
    /// [`EvalError::Temporal`], which this walk handles).
    pub fn populate_temporal(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
        ops: &dyn TemporalOps,
    ) -> Result<(), EvalError> {
        cache.bind(model.world_count())?;
        for id in self.arena.reachable(roots) {
            if cache.has(id) {
                continue;
            }
            let missing = EvalError::Internal("postorder child missing from cache");
            let set = match self.arena.node(id) {
                InternedNode::Next(f) => ops.next(cache.get(*f).ok_or(missing)?),
                InternedNode::Eventually(f) => ops.eventually(cache.get(*f).ok_or(missing)?),
                InternedNode::Always(f) => ops.always(cache.get(*f).ok_or(missing)?),
                InternedNode::Until(a, b) => ops.until(
                    cache.get(*a).ok_or(missing.clone())?,
                    cache.get(*b).ok_or(missing)?,
                ),
                _ => {
                    // Non-temporal: children are cached, so this recurses
                    // at most one level before hitting the memo.
                    model.eval_into_cache(cache, &self.arena, id)?;
                    continue;
                }
            };
            cache.insert(id, set)?;
        }
        Ok(())
    }

    /// [`populate`](Self::populate) followed by cloning out the root sets,
    /// in root order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`populate`](Self::populate).
    pub fn satisfying_sets(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<Vec<BitSet>, EvalError> {
        self.populate(model, cache, roots)?;
        roots
            .iter()
            .map(|&r| {
                cache
                    .get(r)
                    .cloned()
                    .ok_or(EvalError::Internal("root missing after populate"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::S5Builder;
    use kbp_logic::{Agent, AgentSet, PropId};

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    fn model() -> S5Model {
        let mut b = S5Builder::new(2, 3);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0), PropId::new(1)]);
        let w2 = b.add_world([PropId::new(2)]);
        let w3 = b.add_world([]);
        b.link(Agent::new(0), w0, w1);
        b.link(Agent::new(1), w1, w2);
        b.link(Agent::new(0), w2, w3);
        b.build()
    }

    fn guards() -> Vec<Formula> {
        let g = AgentSet::all(2);
        vec![
            Formula::knows(Agent::new(0), p(0)),
            Formula::not(Formula::knows(Agent::new(0), p(0))),
            Formula::common(g, Formula::or([p(0), p(2)])),
            Formula::Distributed(g, Box::new(p(1))),
            Formula::implies(p(2), Formula::knows(Agent::new(1), p(2))),
            Formula::iff(p(0), p(1)),
        ]
    }

    #[test]
    fn parallel_fill_matches_sequential_bit_for_bit() {
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new());
        let ids: Vec<_> = guards().iter().map(|f| engine.intern(f)).collect();

        let seq_engine = EvalEngine {
            arena: engine.arena.clone(),
            threads: 1,
        };
        let mut seq = EvalCache::new();
        let seq_sets = seq_engine.satisfying_sets(&m, &mut seq, &ids).unwrap();

        for threads in [2, 3, 8] {
            let par_engine = EvalEngine {
                arena: engine.arena.clone(),
                threads,
            };
            let mut par = EvalCache::new();
            let par_sets = par_engine.satisfying_sets(&m, &mut par, &ids).unwrap();
            assert_eq!(seq_sets, par_sets, "threads={threads}");
            // Full cache agreement, not just the roots.
            for id in par_engine.arena().ids() {
                assert_eq!(seq.get(id), par.get(id), "threads={threads} id={id:?}");
            }
        }
    }

    #[test]
    fn populate_respects_existing_cache_entries() {
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new()).with_threads(4);
        let ids: Vec<_> = guards().iter().map(|f| engine.intern(f)).collect();
        let mut cache = EvalCache::new();
        // Pre-seed a shared subformula with a *wrong* value; populate must
        // treat it as authoritative (the carry-forward contract).
        let k = engine.intern(&Formula::knows(Agent::new(0), p(0)));
        cache.insert(k, BitSet::full(m.world_count())).unwrap();
        engine.populate(&m, &mut cache, &ids).unwrap();
        // ¬K₀p₀ was computed from the seeded set, proving the seed was
        // read rather than recomputed.
        let neg = engine.intern(&Formula::not(Formula::knows(Agent::new(0), p(0))));
        assert!(cache.get(neg).unwrap().is_empty());
    }

    #[test]
    fn worker_errors_propagate() {
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new()).with_threads(4);
        let bad = engine.intern(&Formula::knows(Agent::new(9), p(0)));
        let ok = engine.intern(&p(0));
        let mut cache = EvalCache::new();
        assert_eq!(
            engine.populate(&m, &mut cache, &[ok, bad]),
            Err(EvalError::AgentOutOfRange(Agent::new(9)))
        );
    }

    #[test]
    fn temporal_walk_uses_ops_and_memoizes() {
        struct Const(BitSet);
        impl TemporalOps for Const {
            fn next(&self, _: &BitSet) -> BitSet {
                self.0.clone()
            }
            fn eventually(&self, phi: &BitSet) -> BitSet {
                phi.clone()
            }
            fn always(&self, phi: &BitSet) -> BitSet {
                phi.clone()
            }
            fn until(&self, _: &BitSet, target: &BitSet) -> BitSet {
                target.clone()
            }
        }
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new());
        // ¬X p0 — the Not must read the ops-computed X node.
        let root = engine.intern(&Formula::not(Formula::next(p(0))));
        let marker = BitSet::from_indices(m.world_count(), [1usize, 3]);
        let ops = Const(marker.clone());
        let mut cache = EvalCache::new();
        engine
            .populate_temporal(&m, &mut cache, &[root], &ops)
            .unwrap();
        assert_eq!(*cache.get(root).unwrap(), marker.complemented());
    }

    #[test]
    fn roots_sharing_an_agent_set_form_one_shard_component() {
        let m = model();
        let g = AgentSet::all(2);
        let mut engine = EvalEngine::new(FormulaArena::new()).with_threads(4);
        // Three group roots over the same agent set with disjoint bodies,
        // plus one K root sharing no subformula with them: the group roots
        // must land in one component (shared join memo), so two shards form.
        let ids: Vec<_> = [
            Formula::common(g, p(0)),
            Formula::distributed(g, p(1)),
            Formula::Everyone(g, Box::new(p(2))),
            Formula::knows(Agent::new(0), Formula::True),
        ]
        .iter()
        .map(|f| engine.intern(f))
        .collect();
        let shards = engine.shard(&ids, &EvalCache::new());
        assert_eq!(shards.len(), 2, "group roots should coalesce");
        let group_shard = shards
            .iter()
            .find(|(roots, _)| roots.len() == 3)
            .expect("one shard holds all three group roots");
        for &id in &ids[..3] {
            assert!(group_shard.0.contains(&id));
        }
        // And the parallel result still matches the sequential one.
        let seq_engine = EvalEngine {
            arena: engine.arena.clone(),
            threads: 1,
        };
        let mut seq = EvalCache::new();
        let mut par = EvalCache::new();
        assert_eq!(
            seq_engine.satisfying_sets(&m, &mut seq, &ids).unwrap(),
            engine.satisfying_sets(&m, &mut par, &ids).unwrap()
        );
    }

    #[test]
    fn env_override_is_clamped() {
        let engine = EvalEngine::new(FormulaArena::new()).with_threads(0);
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn thread_config_zero_is_a_typed_error() {
        assert_eq!(
            parse_thread_count(THREADS_ENV, "0"),
            Err(ThreadConfigError::Zero { var: THREADS_ENV })
        );
    }

    #[test]
    fn thread_config_garbage_is_a_typed_error() {
        for raw in ["four", "", " ", "-2", "3.5", "0x10", "1 2"] {
            assert_eq!(
                parse_thread_count(THREADS_ENV, raw),
                Err(ThreadConfigError::NotANumber {
                    var: THREADS_ENV,
                    value: raw.to_owned(),
                }),
                "raw={raw:?}"
            );
        }
    }

    #[test]
    fn thread_config_huge_is_a_typed_error() {
        let raw = format!("{}", MAX_CONFIG_THREADS + 1);
        assert_eq!(
            parse_thread_count(THREADS_ENV, &raw),
            Err(ThreadConfigError::TooLarge {
                var: THREADS_ENV,
                value: raw.clone(),
            })
        );
        // usize overflow is reported as not-a-number by the parser.
        assert!(matches!(
            parse_thread_count(THREADS_ENV, "99999999999999999999999999"),
            Err(ThreadConfigError::NotANumber { .. })
        ));
    }

    #[test]
    fn thread_config_accepts_sane_values() {
        assert_eq!(parse_thread_count(THREADS_ENV, "1"), Ok(1));
        assert_eq!(parse_thread_count(THREADS_ENV, " 8 "), Ok(8));
        assert_eq!(
            parse_thread_count(THREADS_ENV, &format!("{MAX_CONFIG_THREADS}")),
            Ok(MAX_CONFIG_THREADS)
        );
    }
}
