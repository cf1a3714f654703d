//! The service proper: configuration, the deterministic worker pool, and
//! the job executors.
//!
//! # Determinism argument
//!
//! A response line is a pure function of its request. Three things make
//! this true regardless of worker count:
//!
//! 1. every executor runs one job on one thread, solving cold against a
//!    context built fresh from the registry or from a definition; no
//!    solver state is shared between jobs;
//! 2. the wire stats are the solver's clause-lookup counters —
//!    housekeeping counters (`layers_carried`, `arenas`) are
//!    deliberately *not* serialized;
//! 3. responses are emitted in submission order (the batch runners sort
//!    by submission index; `kbpd` uses a reorder buffer), so the output
//!    stream does not depend on scheduling.

use crate::framing::DEFAULT_MAX_LINE;
use crate::job::{DefineRequest, JobKind, JobRequest, RequestError};
use crate::json::{obj, Json};
use crate::persist::{DefinitionRecord, DefinitionStore, PersistError};
use crate::queue::{JobQueue, QueueFull};
use crate::registry::{definition_fingerprint, find, ScenarioEntry};
use kbp_core::{
    check_implementation, Enumerator, Kbp, LayerStats, PartialSolution, Resource, SolveError,
    SolveOutcome, SolveStats, SyncSolver,
};
use kbp_faults::FaultyContext;
use kbp_lang::{Compiled, Diagnostic, LineMap, Severity};
use kbp_systems::{Context, FnContext, MapProtocol, Recall};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable sizing the worker pool.
pub const WORKERS_ENV: &str = "KBP_SERVICE_WORKERS";

/// Largest worker count [`WORKERS_ENV`] accepts. Far above any plausible
/// machine; a value beyond it is a typo (an extra digit, a pasted
/// timestamp), not a configuration.
pub const MAX_CONFIG_THREADS: usize = 4096;

/// Environment variable sizing the job queue (admission window).
pub const QUEUE_ENV: &str = "KBP_SERVICE_QUEUE";

/// Environment variable naming the definitions directory. When set,
/// every `define`d scenario is written there and reloaded at startup,
/// so a restarted daemon still serves it. Unset (the default) means no
/// persistence. The name is kept for existing deployments.
pub const CACHE_DIR_ENV: &str = "KBP_SERVICE_CACHE_DIR";

/// Environment variable bounding unanswered requests per connection
/// (the per-client admission quota in `--listen` mode).
pub const CLIENT_PENDING_ENV: &str = "KBP_SERVICE_CLIENT_PENDING";

/// Default per-client pending-request quota.
pub const DEFAULT_CLIENT_PENDING: usize = 16;

/// Environment variable bounding concurrent connections in `--listen`
/// mode.
pub const MAX_CONNECTIONS_ENV: &str = "KBP_SERVICE_MAX_CONNECTIONS";

/// Default concurrent-connection bound.
pub const DEFAULT_MAX_CONNECTIONS: usize = 32;

/// Environment variable bounding request-line length, in bytes.
pub const MAX_LINE_ENV: &str = "KBP_SERVICE_MAX_LINE";

/// Environment variable setting the idle-connection timeout in
/// milliseconds (`--listen` mode). A connection with no pending work
/// that stays silent this long is closed with a typed `idle_timeout`
/// notice; a connection silent *mid-line* is closed as a `read_deadline`
/// violation. `0` disables the timeout.
pub const IDLE_TIMEOUT_ENV: &str = "KBP_SERVICE_IDLE_TIMEOUT_MS";

/// Default idle-connection timeout (5 minutes).
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 300_000;

/// Environment variable bounding buffered response bytes per connection
/// (`--listen` mode). A client that stops reading has its responses
/// buffered up to this bound and is then disconnected (typed
/// `write_budget` in metrics) instead of pinning memory. `0` disables
/// the bound.
pub const WRITE_BUDGET_ENV: &str = "KBP_SERVICE_WRITE_BUDGET_BYTES";

/// Default slow-client write budget (4 MiB of buffered responses).
pub const DEFAULT_WRITE_BUDGET_BYTES: usize = 4 * 1024 * 1024;

/// Environment variable bounding how many DSL scenarios one client
/// identity may hold registered at once (the `define` op). `0` disables
/// the quota.
pub const CLIENT_DEFINITIONS_ENV: &str = "KBP_SERVICE_CLIENT_DEFINITIONS";

/// Default per-client scenario-definition quota.
pub const DEFAULT_CLIENT_DEFINITIONS: usize = 8;

/// Environment variable bounding how long a connection's outbound
/// buffer may sit unflushed, in milliseconds (`--listen` mode). A
/// client making *no* read progress for this long is disconnected
/// (typed `write_stall`). `0` disables the check.
pub const WRITE_STALL_ENV: &str = "KBP_SERVICE_WRITE_STALL_MS";

/// Default write-stall bound (30 seconds without read progress).
pub const DEFAULT_WRITE_STALL_MS: u64 = 30_000;

/// A malformed service configuration. Unlike a lenient default, this is
/// surfaced before any job runs: a typo in `KBP_SERVICE_WORKERS` should
/// fail startup, not silently serve with one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The worker count was not an integer from 1 to
    /// [`MAX_CONFIG_THREADS`].
    Workers {
        /// The environment variable.
        var: &'static str,
        /// Its rejected value.
        value: String,
    },
    /// A size variable (byte or count bounds without the worker-count cap)
    /// did not hold a positive integer.
    Size {
        /// The environment variable.
        var: &'static str,
        /// Its rejected value.
        value: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Workers { var, value } => write!(
                f,
                "{var}: expected a worker count from 1 to {MAX_CONFIG_THREADS}, got '{value}'"
            ),
            ConfigError::Size { var, value } => {
                write!(f, "{var}: expected a positive integer, got '{value}'")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Service configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Queue capacity; admissions beyond it are rejected with
    /// [`QueueFull`].
    pub queue_capacity: usize,
    /// Retry-after hint attached to [`QueueFull`] rejections, in ms.
    pub retry_after_ms: u64,
    /// The definitions directory; `None` (the default) disables
    /// persistence. When set, `define`d scenarios are saved there and
    /// reloaded at startup.
    pub cache_dir: Option<PathBuf>,
    /// Per-connection quota on unanswered requests (`--listen` mode);
    /// admissions beyond it are rejected with a typed `quota_exceeded`
    /// response.
    pub client_pending: usize,
    /// Concurrent-connection bound (`--listen` mode).
    pub max_connections: usize,
    /// Request-line byte bound; longer lines answer a typed `oversized`
    /// error without being buffered.
    pub max_line: usize,
    /// Idle-connection timeout in ms (`--listen` mode); `0` disables.
    pub idle_timeout_ms: u64,
    /// Buffered-response byte bound per connection (`--listen` mode);
    /// `0` disables.
    pub write_budget_bytes: usize,
    /// Write-stall bound in ms — how long a connection's outbound
    /// buffer may make no progress (`--listen` mode); `0` disables.
    pub write_stall_ms: u64,
    /// How many DSL scenarios one client identity may hold registered
    /// at once via the `define` op; `0` disables the quota. Redefining
    /// a name the client already owns never charges the quota.
    pub client_definitions: usize,
}

impl ServiceConfig {
    /// Defaults: workers = available parallelism, queue of 64, no
    /// definitions directory.
    #[must_use]
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ServiceConfig {
            workers,
            queue_capacity: 64,
            retry_after_ms: 50,
            cache_dir: None,
            client_pending: DEFAULT_CLIENT_PENDING,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            max_line: DEFAULT_MAX_LINE,
            idle_timeout_ms: DEFAULT_IDLE_TIMEOUT_MS,
            write_budget_bytes: DEFAULT_WRITE_BUDGET_BYTES,
            write_stall_ms: DEFAULT_WRITE_STALL_MS,
            client_definitions: DEFAULT_CLIENT_DEFINITIONS,
        }
    }

    /// Reads every `KBP_SERVICE_*` variable on top of the defaults: all
    /// configuration errors fail startup here, through one typed path.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on any malformed value — unset or empty variables
    /// keep their defaults, but a present, unusable value is a startup
    /// error, never a silent fallback.
    pub fn from_env() -> Result<Self, ConfigError> {
        let mut config = ServiceConfig::new();
        if let Some(workers) = env_threads(WORKERS_ENV)? {
            config.workers = workers;
        }
        if let Some(capacity) = env_size(QUEUE_ENV)? {
            config.queue_capacity = capacity;
        }
        if let Ok(raw) = std::env::var(CACHE_DIR_ENV) {
            let trimmed = raw.trim();
            if !trimmed.is_empty() {
                config.cache_dir = Some(PathBuf::from(trimmed));
            }
        }
        if let Some(pending) = env_size(CLIENT_PENDING_ENV)? {
            config.client_pending = pending;
        }
        if let Some(connections) = env_size(MAX_CONNECTIONS_ENV)? {
            config.max_connections = connections;
        }
        if let Some(max_line) = env_size(MAX_LINE_ENV)? {
            config.max_line = max_line;
        }
        // The protection bounds allow 0 ("disabled") — a timeout of
        // zero would otherwise mean "disconnect everyone immediately",
        // which nobody wants, so 0 is repurposed as the off switch.
        if let Some(ms) = env_bound(IDLE_TIMEOUT_ENV)? {
            config.idle_timeout_ms = ms;
        }
        if let Some(bytes) = env_bound(WRITE_BUDGET_ENV)? {
            config.write_budget_bytes = usize::try_from(bytes).unwrap_or(usize::MAX);
        }
        if let Some(ms) = env_bound(WRITE_STALL_ENV)? {
            config.write_stall_ms = ms;
        }
        // Like the protection bounds, 0 means "no quota".
        if let Some(defs) = env_bound(CLIENT_DEFINITIONS_ENV)? {
            config.client_definitions = usize::try_from(defs).unwrap_or(usize::MAX);
        }
        Ok(config)
    }

    /// Sets the worker count (min 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the queue capacity (min 1).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets (or clears) the definitions directory.
    #[must_use]
    pub fn cache_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.cache_dir = dir;
        self
    }

    /// Sets the per-connection pending-request quota (min 1).
    #[must_use]
    pub fn client_pending(mut self, pending: usize) -> Self {
        self.client_pending = pending.max(1);
        self
    }

    /// Sets the concurrent-connection bound (min 1).
    #[must_use]
    pub fn max_connections(mut self, connections: usize) -> Self {
        self.max_connections = connections.max(1);
        self
    }

    /// Sets the request-line byte bound (min 1).
    #[must_use]
    pub fn max_line(mut self, bytes: usize) -> Self {
        self.max_line = bytes.max(1);
        self
    }

    /// Sets the idle-connection timeout in ms (`0` disables).
    #[must_use]
    pub fn idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = ms;
        self
    }

    /// Sets the buffered-response byte bound (`0` disables).
    #[must_use]
    pub fn write_budget_bytes(mut self, bytes: usize) -> Self {
        self.write_budget_bytes = bytes;
        self
    }

    /// Sets the write-stall bound in ms (`0` disables).
    #[must_use]
    pub fn write_stall_ms(mut self, ms: u64) -> Self {
        self.write_stall_ms = ms;
        self
    }

    /// Sets the per-client scenario-definition quota (`0` disables).
    #[must_use]
    pub fn client_definitions(mut self, definitions: usize) -> Self {
        self.client_definitions = definitions;
        self
    }
}

/// Reads a worker count: an integer from 1 to [`MAX_CONFIG_THREADS`].
/// `Ok(None)` when unset or empty.
fn env_threads(var: &'static str) -> Result<Option<usize>, ConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if (1..=MAX_CONFIG_THREADS).contains(&n) => Ok(Some(n)),
            _ => Err(ConfigError::Workers { var, value: raw }),
        },
    }
}

/// Reads a positive-integer bound (no worker-count cap — line limits
/// are legitimately megabytes, queues legitimately thousands).
/// `Ok(None)` when unset or empty.
fn env_size(var: &'static str) -> Result<Option<usize>, ConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(ConfigError::Size { var, value: raw }),
        },
    }
}

/// Reads a protection bound where `0` is meaningful ("disabled").
/// `Ok(None)` when unset or empty; garbage is still a startup error.
fn env_bound(var: &'static str) -> Result<Option<u64>, ConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(ConfigError::Size { var, value: raw }),
        },
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new()
    }
}

/// Aggregated per-layer evaluation counters across every solve the
/// service has run: how much quotient-first generation shrank the layers
/// it produced.
/// Monitoring only — aggregates of [`LayerStats`], never echoed on job
/// responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Layers evaluated (every solve contributes its per-layer rows).
    pub layers: usize,
    /// Layers generated directly on bisimulation representatives by the
    /// fused step+quotient path (`gen_quotient_worlds > 0`).
    pub gen_quotiented_layers: usize,
    /// Resident representative worlds summed over generation-quotiented
    /// layers.
    pub gen_quotient_worlds: usize,
    /// Explicit-equivalent points summed over generation-quotiented
    /// layers (denominator of
    /// [`gen_quotient_ratio_permille`](Self::gen_quotient_ratio_permille)).
    pub gen_quotiented_points: usize,
}

impl EvalStats {
    /// Aggregate generation-side compression in per-mille, `0..=1000`:
    /// how many representative worlds were resident per thousand
    /// explicit-equivalent points on the layers the fused step+quotient
    /// path generated. `None` when it never ran.
    #[must_use]
    pub fn gen_quotient_ratio_permille(&self) -> Option<u64> {
        if self.gen_quotiented_points == 0 {
            None
        } else {
            Some(
                (self.gen_quotient_worlds as u64).saturating_mul(1000)
                    / self.gen_quotiented_points as u64,
            )
        }
    }
}

/// A snapshot of the service's counters (monitoring only; see the
/// module-level determinism argument for why none of this appears in job
/// responses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs executed to completion (ok or error response).
    pub jobs_executed: usize,
    /// Jobs rejected at admission with [`QueueFull`].
    pub queue_rejections: usize,
    /// Jobs rejected by a per-client quota (`--listen` mode).
    pub quota_rejections: usize,
    /// Aggregated generation-quotient counters across all solves.
    pub eval: EvalStats,
    /// Client-defined DSL scenarios currently registered.
    pub definitions_active: usize,
    /// Definitions restored from the persistence directory at startup.
    pub definitions_restored: usize,
}

/// A snapshot of the connection plane's counters, folded into the
/// `metrics` response by `--listen` mode (monitoring only — racy by
/// nature, never compared bit-for-bit).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlaneSnapshot {
    /// Connections with work in flight (pending jobs, buffered
    /// responses, or a partially read request line).
    pub connections_active: usize,
    /// Connections currently open with nothing in flight.
    pub connections_idle: usize,
    /// Connections closed for staying silent past the idle timeout.
    pub disconnects_idle_timeout: usize,
    /// Connections closed for stalling *mid-request-line* past the
    /// timeout (half-open peers that will never finish their frame).
    pub disconnects_read_deadline: usize,
    /// Connections closed for exceeding the buffered-response bound.
    pub disconnects_write_budget: usize,
    /// Connections closed for making no read progress past the
    /// write-stall bound.
    pub disconnects_write_stall: usize,
    /// Responses computed for connections that were already force-closed
    /// (counted, never delivered — the drain proof's escape hatch).
    pub responses_dropped: usize,
    /// Pending (admitted, unanswered) job counts per client identity,
    /// sorted by client for stable output.
    pub clients: Vec<(String, usize)>,
    /// Readiness-loop passes since start. Over a quiet spell it grows
    /// by about one per millisecond; much faster means the loop is not
    /// backing off.
    pub passes: usize,
}

/// Why the plane force-closed a connection. Every variant is counted in
/// [`PlaneSnapshot`] and, where the socket still accepts writes, also
/// announced with a typed [`disconnect_response`] line before the close
/// — a protection decision is never a silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectKind {
    /// No activity and no pending work for longer than the idle timeout.
    IdleTimeout,
    /// A request line left unfinished for longer than the idle timeout
    /// (half-open connection).
    ReadDeadline,
    /// Buffered responses exceeded the write budget.
    WriteBudget,
    /// The outbound buffer made no progress for longer than the stall
    /// bound.
    WriteStall,
}

impl DisconnectKind {
    /// The wire name used in the closing notice and in metrics.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            DisconnectKind::IdleTimeout => "idle_timeout",
            DisconnectKind::ReadDeadline => "read_deadline",
            DisconnectKind::WriteBudget => "write_budget",
            DisconnectKind::WriteStall => "write_stall",
        }
    }
}

/// The one-line `ok: false` notice written (best-effort) before the
/// plane closes a connection for a protection violation.
#[must_use]
pub fn disconnect_response(kind: DisconnectKind, message: &str) -> Json {
    obj(vec![
        ("id", Json::Null),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str(kind.wire_name().into())),
                ("message", Json::Str(message.into())),
            ]),
        ),
    ])
}

/// The batch-solving service.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    /// Client-defined DSL scenarios by wire name. `Arc` so a resolved
    /// definition survives a concurrent redefinition for the duration of
    /// its job (the response stays a pure function of the request and
    /// the definition it resolved against).
    definitions: Mutex<HashMap<String, Arc<Definition>>>,
    /// The definitions directory: one `.kbpdef` file per definition, so
    /// defined scenarios survive a restart.
    def_store: Option<DefinitionStore>,
    definitions_restored: AtomicUsize,
    jobs_executed: AtomicUsize,
    queue_rejections: AtomicUsize,
    quota_rejections: AtomicUsize,
    workers_busy: AtomicUsize,
    eval_layers: AtomicUsize,
    eval_gen_quotiented_layers: AtomicUsize,
    eval_gen_quotient_worlds: AtomicUsize,
    eval_gen_quotiented_points: AtomicUsize,
}

/// A registered DSL scenario: the compiled program plus its admission
/// metadata.
#[derive(Debug)]
struct Definition {
    name: String,
    owner: String,
    source: String,
    fingerprint: u64,
    compiled: Compiled,
}

/// What a job's scenario name resolved to: a registry entry or a
/// client-defined DSL scenario. The executors are generic over this so
/// `solve`/`check`/`enumerate` behave identically for both.
enum Resolved {
    Registry(&'static ScenarioEntry),
    Defined(Arc<Definition>),
}

impl Resolved {
    fn default_horizon(&self) -> usize {
        match self {
            Resolved::Registry(e) => e.default_horizon,
            Resolved::Defined(d) => {
                usize::try_from(d.compiled.default_horizon()).unwrap_or(usize::MAX)
            }
        }
    }

    fn recall(&self) -> Recall {
        match self {
            Resolved::Registry(e) => e.recall,
            Resolved::Defined(d) => d.compiled.recall(),
        }
    }

    fn solvable(&self) -> bool {
        match self {
            Resolved::Registry(e) => e.solvable,
            Resolved::Defined(d) => d.compiled.solvable(),
        }
    }
}

/// Decrements `workers_busy` when the executor returns on any path.
struct BusyGuard<'a>(&'a AtomicUsize);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

enum BuiltContext {
    Plain(Box<FnContext>),
    Faulty(Box<FaultyContext<FnContext>>),
}

impl BuiltContext {
    fn as_dyn(&self) -> &dyn Context {
        match self {
            BuiltContext::Plain(c) => c.as_ref(),
            BuiltContext::Faulty(c) => c.as_ref(),
        }
    }
}

impl Service {
    /// Creates a service with the given configuration. When
    /// `config.cache_dir` is set but unusable, persistence is silently
    /// skipped — daemons that must fail loudly use [`Service::try_new`].
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let store = config
            .cache_dir
            .as_deref()
            .and_then(|dir| DefinitionStore::open(dir).ok());
        Service::build(config, store)
    }

    /// Creates a service, surfacing a broken definitions directory as a
    /// startup error instead of running without persistence.
    ///
    /// # Errors
    ///
    /// [`PersistError`] when `config.cache_dir` is set and cannot be
    /// opened (created) as a definitions directory.
    pub fn try_new(config: ServiceConfig) -> Result<Self, PersistError> {
        let store = match config.cache_dir.as_deref() {
            Some(dir) => Some(DefinitionStore::open(dir)?),
            None => None,
        };
        Ok(Service::build(config, store))
    }

    fn build(config: ServiceConfig, def_store: Option<DefinitionStore>) -> Self {
        let (definitions, restored) = restore_definitions(def_store.as_ref());
        Service {
            config,
            definitions: Mutex::new(definitions),
            def_store,
            definitions_restored: AtomicUsize::new(restored),
            jobs_executed: AtomicUsize::new(0),
            queue_rejections: AtomicUsize::new(0),
            quota_rejections: AtomicUsize::new(0),
            workers_busy: AtomicUsize::new(0),
            eval_layers: AtomicUsize::new(0),
            eval_gen_quotiented_layers: AtomicUsize::new(0),
            eval_gen_quotient_worlds: AtomicUsize::new(0),
            eval_gen_quotiented_points: AtomicUsize::new(0),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            queue_rejections: self.queue_rejections.load(Ordering::Relaxed),
            quota_rejections: self.quota_rejections.load(Ordering::Relaxed),
            eval: EvalStats {
                layers: self.eval_layers.load(Ordering::Relaxed),
                gen_quotiented_layers: self.eval_gen_quotiented_layers.load(Ordering::Relaxed),
                gen_quotient_worlds: self.eval_gen_quotient_worlds.load(Ordering::Relaxed),
                gen_quotiented_points: self.eval_gen_quotiented_points.load(Ordering::Relaxed),
            },
            definitions_active: self.definitions.lock().map_or(0, |defs| defs.len()),
            definitions_restored: self.definitions_restored.load(Ordering::Relaxed),
        }
    }

    /// Records an admission rejection (callers produce the response via
    /// [`reject_response`]).
    pub fn note_rejection(&self) {
        self.queue_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a per-client quota rejection (callers produce the
    /// response via [`quota_response`]).
    pub fn note_quota_rejection(&self) {
        self.quota_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Handles a `{"op":"define"}` request: compile the DSL source,
    /// validate the name against the registry and other clients'
    /// definitions, enforce the per-client quota, register, and persist.
    /// Answered inline — compilation is cheap and never solves anything.
    ///
    /// `fallback_client` is the connection identity used when the
    /// request carries no `client` token (mirrors job quota scoping).
    #[must_use]
    pub fn define_response(&self, req: &DefineRequest, fallback_client: &str) -> Json {
        let owner = req
            .client
            .clone()
            .unwrap_or_else(|| fallback_client.to_string());
        let (compiled, diagnostics) = kbp_lang::check(&req.source);
        let Some(compiled) = compiled else {
            return invalid_program_response(req.id, &req.source, &diagnostics);
        };
        let name = req
            .name
            .clone()
            .unwrap_or_else(|| compiled.name().to_string());
        if find(&name).is_some() {
            return error_response(Some(req.id), &RequestError::NameReserved(name));
        }
        let fingerprint = definition_fingerprint(&name, compiled.recall(), &req.source);
        let definition = Arc::new(Definition {
            name: name.clone(),
            owner: owner.clone(),
            source: req.source.clone(),
            fingerprint,
            compiled,
        });
        let (redefined, replaced_fingerprint) = {
            let Ok(mut defs) = self.definitions.lock() else {
                // A panicked holder poisoned the table; refuse the
                // mutation rather than guess at its state.
                return error_response(
                    Some(req.id),
                    &RequestError::Unsupported("definition table unavailable"),
                );
            };
            match defs.get(&name) {
                Some(existing) if existing.owner != owner => {
                    return error_response(Some(req.id), &RequestError::NameReserved(name));
                }
                Some(existing) => {
                    // Same-owner redefinition: no quota charge; the old
                    // fingerprint's definition file is replaced.
                    let old = existing.fingerprint;
                    let replaced = (old != fingerprint).then_some(old);
                    defs.insert(name.clone(), Arc::clone(&definition));
                    (true, replaced)
                }
                None => {
                    let limit = self.config.client_definitions;
                    if limit > 0 {
                        let held = defs.values().filter(|d| d.owner == owner).count();
                        if held >= limit {
                            return error_response(
                                Some(req.id),
                                &RequestError::DefinitionQuota { held, limit },
                            );
                        }
                    }
                    defs.insert(name.clone(), Arc::clone(&definition));
                    (false, None)
                }
            }
        };
        // Best-effort persistence, after the table mutation: a failed
        // write costs the definition's survival of a restart, never the
        // registration.
        if let Some(store) = self.def_store.as_ref() {
            if let Some(old) = replaced_fingerprint {
                let _ = store.remove_definition(old);
            }
            let record = DefinitionRecord {
                name: definition.name.clone(),
                owner: definition.owner.clone(),
                source: definition.source.clone(),
            };
            let _ = store.save_definition(fingerprint, &record);
        }
        let mut fields = vec![
            ("id".to_string(), Json::U64(req.id)),
            ("ok".to_string(), Json::Bool(true)),
            ("kind".to_string(), Json::Str("define".into())),
            ("scenario".to_string(), Json::Str(name)),
            ("fingerprint".to_string(), Json::U64(fingerprint)),
            (
                "solvable".to_string(),
                Json::Bool(definition.compiled.solvable()),
            ),
            (
                "default_horizon".to_string(),
                Json::U64(definition.compiled.default_horizon()),
            ),
            (
                "agents".to_string(),
                Json::U64(definition.compiled.agent_count() as u64),
            ),
            ("redefined".to_string(), Json::Bool(redefined)),
        ];
        fields.push((
            "diagnostics".to_string(),
            diagnostics_json(&req.source, &diagnostics),
        ));
        Json::Obj(fields)
    }

    /// Executes one job synchronously, returning its response object.
    /// Never panics and never returns a non-response: every failure mode
    /// is an `ok: false` object carrying the job id.
    #[must_use]
    pub fn execute(&self, job: &JobRequest) -> Json {
        self.jobs_executed.fetch_add(1, Ordering::Relaxed);
        self.workers_busy.fetch_add(1, Ordering::Relaxed);
        let _busy = BusyGuard(&self.workers_busy);
        // Registry names shadow definitions (admission rejects a define
        // on a registry name, so the two tables never actually collide).
        let resolved = match find(&job.scenario) {
            Some(entry) => Resolved::Registry(entry),
            None => {
                let defined = self
                    .definitions
                    .lock()
                    .ok()
                    .and_then(|defs| defs.get(&job.scenario).cloned());
                match defined {
                    Some(def) => Resolved::Defined(def),
                    None => {
                        return error_response(
                            Some(job.id),
                            &RequestError::UnknownScenario(job.scenario.clone()),
                        )
                    }
                }
            }
        };
        let horizon = job.horizon.unwrap_or_else(|| resolved.default_horizon());
        match job.kind {
            JobKind::Solve => self.run_solve(job, &resolved, horizon),
            JobKind::Check => self.run_check(job, &resolved, horizon),
            JobKind::Enumerate => self.run_enumerate(job, &resolved, horizon),
            JobKind::FaultLattice => self.run_fault_lattice(job, &resolved, horizon),
        }
    }

    /// Runs a batch through the worker pool with *blocking* admission:
    /// every job is eventually executed, and responses come back in
    /// submission order. Worker count cannot change the output (see the
    /// module-level determinism argument).
    #[must_use]
    pub fn run_batch(&self, jobs: &[JobRequest]) -> Vec<Json> {
        self.run_pool(jobs.iter().cloned().map(Ok).collect())
    }

    /// Runs a batch with *strict* admission: the whole batch is offered
    /// to the queue before any worker starts, so exactly the first
    /// `queue_capacity` jobs are admitted and the rest are rejected with
    /// [`QueueFull`] — deterministically, independent of scheduling.
    /// This is the mode the backpressure tests pin down; `kbpd` instead
    /// admits continuously and sheds only under a genuinely full queue.
    #[must_use]
    pub fn run_batch_strict(&self, jobs: &[JobRequest]) -> Vec<Json> {
        let queue: JobQueue<JobRequest> =
            JobQueue::new(self.config.queue_capacity, self.config.retry_after_ms);
        let mut slots: Vec<Result<JobRequest, (u64, QueueFull)>> = Vec::with_capacity(jobs.len());
        for job in jobs {
            match queue.try_submit(job.clone()) {
                Ok(()) => slots.push(Ok(job.clone())),
                Err((job, full)) => {
                    self.note_rejection();
                    slots.push(Err((job.id, full)));
                }
            }
        }
        // Admission is settled; the gate queue itself is discarded — the
        // pool below drains the admitted slots.
        queue.close();
        self.run_pool(slots)
    }

    /// The shared pool driver: executes the `Ok` slots on
    /// `config.workers` scoped threads, renders the `Err` slots as
    /// rejections, and returns responses in slot order.
    fn run_pool(&self, slots: Vec<Result<JobRequest, (u64, QueueFull)>>) -> Vec<Json> {
        let queue: JobQueue<(usize, JobRequest)> =
            JobQueue::new(slots.len().max(1), self.config.retry_after_ms);
        let results: Vec<std::sync::Mutex<Option<Json>>> =
            slots.iter().map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers.max(1) {
                scope.spawn(|| {
                    while let Some((index, job)) = queue.pop() {
                        let response = self.execute(&job);
                        if let Some(slot) = results.get(index) {
                            if let Ok(mut slot) = slot.lock() {
                                *slot = Some(response);
                            }
                        }
                    }
                });
            }
            for (index, slot) in slots.iter().enumerate() {
                match slot {
                    Ok(job) => {
                        // Capacity equals batch length: this never blocks.
                        queue.submit((index, job.clone()));
                    }
                    Err((id, full)) => {
                        if let Ok(mut out) = results[index].lock() {
                            *out = Some(reject_response(Some(*id), *full));
                        }
                    }
                }
            }
            queue.close();
        });
        results
            .into_iter()
            .map(|slot| slot.into_inner().ok().flatten().unwrap_or(Json::Null))
            .collect()
    }

    fn resolve_context(
        &self,
        job: &JobRequest,
        resolved: &Resolved,
    ) -> Result<(BuiltContext, Kbp), RequestError> {
        match resolved {
            Resolved::Registry(entry) => match job.fault.as_deref() {
                None => {
                    let (ctx, kbp) = entry.build();
                    Ok((BuiltContext::Plain(Box::new(ctx)), kbp))
                }
                Some(rung) => {
                    if entry.lattice.is_none() {
                        return Err(RequestError::Unsupported(
                            "scenario has no fault lattice; omit 'fault'",
                        ));
                    }
                    let schedule = entry
                        .fault_schedule(rung, job.fault_seed)
                        .ok_or_else(|| RequestError::UnknownFault(rung.to_string()))?;
                    let (ctx, kbp) = entry.build_faulty(schedule);
                    Ok((BuiltContext::Faulty(Box::new(ctx)), kbp))
                }
            },
            Resolved::Defined(def) => {
                if job.fault.is_some() {
                    return Err(RequestError::Unsupported(
                        "scenario has no fault lattice; omit 'fault'",
                    ));
                }
                let (ctx, kbp) = def.compiled.instantiate();
                Ok((BuiltContext::Plain(Box::new(ctx)), kbp))
            }
        }
    }

    /// Solves cold under the job's budget, and feeds the aggregated
    /// per-layer generation-quotient counters.
    fn solve_outcome(
        &self,
        job: &JobRequest,
        resolved: &Resolved,
        horizon: usize,
        ctx: &dyn Context,
        kbp: &Kbp,
    ) -> Result<SolveOutcome, SolveError> {
        let outcome = SyncSolver::new(ctx, kbp)
            .horizon(horizon)
            .recall(resolved.recall())
            .budget(job.budget)
            .solve_budgeted()?;
        let per_layer = match &outcome {
            SolveOutcome::Complete(s) => s.per_layer(),
            SolveOutcome::Partial(p) => p.per_layer(),
        };
        self.note_layer_stats(per_layer);
        Ok(outcome)
    }

    /// Folds one solve's per-layer rows into the aggregate counters the
    /// `metrics` response surfaces.
    fn note_layer_stats(&self, per_layer: &[LayerStats]) {
        let mut gen_quotiented_layers = 0;
        let mut gen_quotient_worlds = 0;
        let mut gen_quotiented_points = 0;
        for layer in per_layer {
            if layer.gen_quotient_worlds > 0 {
                gen_quotiented_layers += 1;
                gen_quotient_worlds += layer.gen_quotient_worlds;
                gen_quotiented_points += layer.points;
            }
        }
        self.eval_layers
            .fetch_add(per_layer.len(), Ordering::Relaxed);
        self.eval_gen_quotiented_layers
            .fetch_add(gen_quotiented_layers, Ordering::Relaxed);
        self.eval_gen_quotient_worlds
            .fetch_add(gen_quotient_worlds, Ordering::Relaxed);
        self.eval_gen_quotiented_points
            .fetch_add(gen_quotiented_points, Ordering::Relaxed);
    }

    fn run_solve(&self, job: &JobRequest, resolved: &Resolved, horizon: usize) -> Json {
        if !resolved.solvable() {
            return error_response(
                Some(job.id),
                &RequestError::Unsupported(
                    "scenario has future-referring guards; use kind 'enumerate'",
                ),
            );
        }
        let (ctx, kbp) = match self.resolve_context(job, resolved) {
            Ok(parts) => parts,
            Err(e) => return error_response(Some(job.id), &e),
        };
        match self.solve_outcome(job, resolved, horizon, ctx.as_dyn(), &kbp) {
            Ok(outcome) => {
                let mut fields = response_head(job, "solve", horizon);
                push_outcome_fields(&mut fields, &outcome);
                Json::Obj(fields)
            }
            Err(e) => solve_error_response(job.id, &e),
        }
    }

    fn run_check(&self, job: &JobRequest, resolved: &Resolved, horizon: usize) -> Json {
        if !resolved.solvable() {
            return error_response(
                Some(job.id),
                &RequestError::Unsupported(
                    "scenario has future-referring guards; use kind 'enumerate'",
                ),
            );
        }
        let (ctx, kbp) = match self.resolve_context(job, resolved) {
            Ok(parts) => parts,
            Err(e) => return error_response(Some(job.id), &e),
        };
        let outcome = match self.solve_outcome(job, resolved, horizon, ctx.as_dyn(), &kbp) {
            Ok(outcome) => outcome,
            Err(e) => return solve_error_response(job.id, &e),
        };
        let mut fields = response_head(job, "check", horizon);
        match outcome {
            SolveOutcome::Partial(p) => {
                // Nothing to verify yet: report the partial solve.
                fields.push(("outcome".into(), Json::Str("partial".into())));
                fields.push(("exhausted".into(), exhausted_json(&p)));
                Json::Obj(fields)
            }
            SolveOutcome::Complete(s) => {
                match check_implementation(
                    ctx.as_dyn(),
                    &kbp,
                    s.protocol(),
                    resolved.recall(),
                    horizon,
                ) {
                    Ok(report) => {
                        fields.push(("outcome".into(), Json::Str("complete".into())));
                        fields.push((
                            "is_implementation".into(),
                            Json::Bool(report.is_implementation()),
                        ));
                        fields.push((
                            "points_checked".into(),
                            Json::U64(report.points_checked() as u64),
                        ));
                        fields.push((
                            "mismatches".into(),
                            Json::U64(report.mismatches().len() as u64),
                        ));
                        Json::Obj(fields)
                    }
                    Err(e) => solve_error_response(job.id, &e),
                }
            }
        }
    }

    fn run_enumerate(&self, job: &JobRequest, resolved: &Resolved, horizon: usize) -> Json {
        let (ctx, kbp) = match self.resolve_context(job, resolved) {
            Ok(parts) => parts,
            Err(e) => return error_response(Some(job.id), &e),
        };
        let mut enumerator = Enumerator::new(ctx.as_dyn(), &kbp)
            .horizon(horizon)
            .recall(resolved.recall());
        if let Some(n) = job.max_solutions {
            enumerator = enumerator.max_solutions(n);
        }
        if let Some(n) = job.max_branches {
            enumerator = enumerator.max_branches(n);
        }
        match enumerator.enumerate() {
            Ok(found) => {
                let mut fields = response_head(job, "enumerate", horizon);
                fields.push(("count".into(), Json::U64(found.count() as u64)));
                fields.push(("complete".into(), Json::Bool(found.is_complete())));
                fields.push((
                    "branches".into(),
                    Json::U64(found.branches_explored() as u64),
                ));
                fields.push((
                    "exhausted_resource".into(),
                    found
                        .exhausted()
                        .map_or(Json::Null, |r| Json::Str(resource_wire_name(r).into())),
                ));
                fields.push((
                    "implementations".into(),
                    Json::Arr(
                        found
                            .implementations()
                            .iter()
                            .map(|imp| protocol_json(&imp.protocol))
                            .collect(),
                    ),
                ));
                Json::Obj(fields)
            }
            Err(e) => solve_error_response(job.id, &e),
        }
    }

    fn run_fault_lattice(&self, job: &JobRequest, resolved: &Resolved, horizon: usize) -> Json {
        if !resolved.solvable() {
            return error_response(
                Some(job.id),
                &RequestError::Unsupported(
                    "scenario has future-referring guards; use kind 'enumerate'",
                ),
            );
        }
        let Resolved::Registry(entry) = resolved else {
            return error_response(
                Some(job.id),
                &RequestError::Unsupported("scenario has no fault lattice"),
            );
        };
        let Some(lattice) = entry.fault_lattice(job.fault_seed) else {
            return error_response(
                Some(job.id),
                &RequestError::Unsupported("scenario has no fault lattice"),
            );
        };
        let mut rows = Vec::with_capacity(lattice.len());
        for (rung, schedule) in lattice {
            let (ctx, kbp) = entry.build_faulty(schedule.clone());
            let agents = ctx.agent_count();
            let signature = schedule.signature(horizon, agents);
            match self.solve_outcome(job, resolved, horizon, &ctx, &kbp) {
                Ok(outcome) => {
                    let mut row = vec![
                        ("fault".to_string(), Json::Str(rung.into())),
                        ("signature".to_string(), Json::U64(signature)),
                    ];
                    push_outcome_fields(&mut row, &outcome);
                    // Lattice rows summarize: drop the (large) protocol.
                    row.retain(|(k, _)| k != "protocol");
                    rows.push(Json::Obj(row));
                }
                Err(e) => return solve_error_response(job.id, &e),
            }
        }
        let mut fields = response_head(job, "fault_lattice", horizon);
        fields.push(("fault_seed".into(), Json::U64(job.fault_seed)));
        fields.push(("rows".into(), Json::Arr(rows)));
        Json::Obj(fields)
    }

    /// The `{"op":"stats"}` response. Live counters — monitoring only,
    /// never compared bit-for-bit.
    #[must_use]
    pub fn stats_response(&self, id: Option<u64>) -> Json {
        let stats = self.stats();
        obj(vec![
            ("id", id.map_or(Json::Null, Json::U64)),
            ("ok", Json::Bool(true)),
            ("kind", Json::Str("stats".into())),
            ("workers", Json::U64(self.config.workers as u64)),
            (
                "queue_capacity",
                Json::U64(self.config.queue_capacity as u64),
            ),
            ("jobs_executed", Json::U64(stats.jobs_executed as u64)),
            ("queue_rejections", Json::U64(stats.queue_rejections as u64)),
        ])
    }

    /// The `{"kind":"health"}` response: a cheap liveness probe that
    /// touches no job state.
    #[must_use]
    pub fn health_response(&self, id: Option<u64>) -> Json {
        obj(vec![
            ("id", id.map_or(Json::Null, Json::U64)),
            ("ok", Json::Bool(true)),
            ("kind", Json::Str("health".into())),
            ("status", Json::Str("ok".into())),
            ("workers", Json::U64(self.config.workers as u64)),
            (
                "queue_capacity",
                Json::U64(self.config.queue_capacity as u64),
            ),
        ])
    }

    /// The `{"kind":"metrics"}` response: queue depth (supplied by the
    /// front end that owns the queue), worker utilization, and the
    /// evaluation and definition counters. Monitoring only — racy by nature, never compared
    /// bit-for-bit.
    #[must_use]
    pub fn metrics_response(&self, id: Option<u64>, queue_depth: usize) -> Json {
        self.metrics_response_with_plane(id, queue_depth, None)
    }

    /// [`metrics_response`](Self::metrics_response) extended with the
    /// connection plane's counters (`--listen` mode). Strictly additive
    /// — every pre-plane field keeps its name and meaning, so existing
    /// scrapers parse both shapes.
    #[must_use]
    pub fn metrics_response_with_plane(
        &self,
        id: Option<u64>,
        queue_depth: usize,
        plane: Option<&PlaneSnapshot>,
    ) -> Json {
        let stats = self.stats();
        let busy = self.workers_busy.load(Ordering::Relaxed);
        let mut fields: Vec<(String, Json)> = vec![
            ("id".into(), id.map_or(Json::Null, Json::U64)),
            ("ok".into(), Json::Bool(true)),
            ("kind".into(), Json::Str("metrics".into())),
            ("workers".into(), Json::U64(self.config.workers as u64)),
            (
                "workers_busy".into(),
                Json::U64(busy.min(self.config.workers) as u64),
            ),
            (
                "queue_capacity".into(),
                Json::U64(self.config.queue_capacity as u64),
            ),
            ("queue_depth".into(), Json::U64(queue_depth as u64)),
            (
                "jobs_executed".into(),
                Json::U64(stats.jobs_executed as u64),
            ),
            (
                "queue_rejections".into(),
                Json::U64(stats.queue_rejections as u64),
            ),
            (
                "quota_rejections".into(),
                Json::U64(stats.quota_rejections as u64),
            ),
            (
                "eval".into(),
                obj(vec![
                    ("layers", Json::U64(stats.eval.layers as u64)),
                    (
                        "gen_quotiented_layers",
                        Json::U64(stats.eval.gen_quotiented_layers as u64),
                    ),
                    (
                        "gen_quotient_worlds",
                        Json::U64(stats.eval.gen_quotient_worlds as u64),
                    ),
                    (
                        "gen_quotiented_points",
                        Json::U64(stats.eval.gen_quotiented_points as u64),
                    ),
                    (
                        "gen_quotient_ratio_permille",
                        stats
                            .eval
                            .gen_quotient_ratio_permille()
                            .map_or(Json::Null, Json::U64),
                    ),
                ]),
            ),
            (
                "definitions".into(),
                obj(vec![
                    ("active", Json::U64(stats.definitions_active as u64)),
                    ("restored", Json::U64(stats.definitions_restored as u64)),
                    ("quota", Json::U64(self.config.client_definitions as u64)),
                ]),
            ),
        ];
        if let Some(plane) = plane {
            fields.push((
                "connections".into(),
                obj(vec![
                    ("active", Json::U64(plane.connections_active as u64)),
                    ("idle", Json::U64(plane.connections_idle as u64)),
                ]),
            ));
            fields.push((
                "disconnects".into(),
                obj(vec![
                    (
                        "idle_timeout",
                        Json::U64(plane.disconnects_idle_timeout as u64),
                    ),
                    (
                        "read_deadline",
                        Json::U64(plane.disconnects_read_deadline as u64),
                    ),
                    (
                        "write_budget",
                        Json::U64(plane.disconnects_write_budget as u64),
                    ),
                    (
                        "write_stall",
                        Json::U64(plane.disconnects_write_stall as u64),
                    ),
                ]),
            ));
            fields.push((
                "responses_dropped".into(),
                Json::U64(plane.responses_dropped as u64),
            ));
            fields.push((
                "clients".into(),
                Json::Obj(
                    plane
                        .clients
                        .iter()
                        .map(|(client, pending)| (client.clone(), Json::U64(*pending as u64)))
                        .collect(),
                ),
            ));
            fields.push(("passes".into(), Json::U64(plane.passes as u64)));
        }
        Json::Obj(fields)
    }
}

/// Reloads persisted scenario definitions at startup. Registry-shadowed
/// names, uncompilable sources and records whose re-derived fingerprint
/// disagrees with the file name are skipped — restore must never take
/// the daemon down, and a definition that no longer compiles should
/// vanish rather than serve a stale lowering.
fn restore_definitions(
    store: Option<&DefinitionStore>,
) -> (HashMap<String, Arc<Definition>>, usize) {
    let mut definitions = HashMap::new();
    let Some(store) = store else {
        return (definitions, 0);
    };
    let Ok(records) = store.load_definitions() else {
        return (definitions, 0);
    };
    for (fingerprint, record) in records {
        if find(&record.name).is_some() {
            continue;
        }
        let (Some(compiled), _) = kbp_lang::check(&record.source) else {
            continue;
        };
        if definition_fingerprint(&record.name, compiled.recall(), &record.source) != fingerprint {
            continue;
        }
        definitions.insert(
            record.name.clone(),
            Arc::new(Definition {
                name: record.name,
                owner: record.owner,
                source: record.source,
                fingerprint,
                compiled,
            }),
        );
    }
    let restored = definitions.len();
    (definitions, restored)
}

/// The `ok: false` answer to a `define` whose source does not compile:
/// kind `invalid_program`, with every diagnostic as a typed object
/// carrying 1-based line/column spans.
fn invalid_program_response(id: u64, source: &str, diagnostics: &[Diagnostic]) -> Json {
    obj(vec![
        ("id", Json::U64(id)),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str("invalid_program".into())),
                (
                    "message",
                    Json::Str(format!(
                        "source does not compile: {} error(s)",
                        diagnostics
                            .iter()
                            .filter(|d| d.severity == Severity::Error)
                            .count()
                    )),
                ),
                ("diagnostics", diagnostics_json(source, diagnostics)),
            ]),
        ),
    ])
}

/// Serializes analyzer diagnostics with 1-based line/column spans
/// resolved against `source`, ordered by span then severity (the
/// analyzer already emits them sorted; sort again so the wire shape is
/// an invariant, not an implementation detail).
fn diagnostics_json(source: &str, diagnostics: &[Diagnostic]) -> Json {
    let map = LineMap::new(source);
    let mut sorted: Vec<&Diagnostic> = diagnostics.iter().collect();
    sorted.sort_by_key(|d| (d.span.start, d.span.end, d.severity == Severity::Warning));
    Json::Arr(
        sorted
            .into_iter()
            .map(|d| {
                let start = map.line_col(d.span.start);
                let end = map.line_col(d.span.end);
                obj(vec![
                    ("severity", Json::Str(d.severity.to_string())),
                    ("line", Json::U64(start.line as u64)),
                    ("col", Json::U64(start.col as u64)),
                    ("end_line", Json::U64(end.line as u64)),
                    ("end_col", Json::U64(end.col as u64)),
                    ("message", Json::Str(d.message.clone())),
                ])
            })
            .collect(),
    )
}

fn response_head(job: &JobRequest, kind: &str, horizon: usize) -> Vec<(String, Json)> {
    vec![
        ("id".to_string(), Json::U64(job.id)),
        ("ok".to_string(), Json::Bool(true)),
        ("kind".to_string(), Json::Str(kind.into())),
        ("scenario".to_string(), Json::Str(job.scenario.clone())),
        (
            "fault".to_string(),
            job.fault
                .as_deref()
                .map_or(Json::Null, |f| Json::Str(f.into())),
        ),
        ("horizon".to_string(), Json::U64(horizon as u64)),
    ]
}

/// Appends `outcome`, `stabilized`/`exhausted`, `stats` and `protocol`
/// fields for a solve outcome. Only scheduling-independent stats go on
/// the wire — see the module-level determinism argument.
fn push_outcome_fields(fields: &mut Vec<(String, Json)>, outcome: &SolveOutcome) {
    match outcome {
        SolveOutcome::Complete(s) => {
            fields.push(("outcome".into(), Json::Str("complete".into())));
            fields.push((
                "stabilized".into(),
                s.stabilized().map_or(Json::Null, |t| Json::U64(t as u64)),
            ));
            fields.push(("stats".into(), stats_json(&s.stats())));
            fields.push(("protocol".into(), protocol_json(s.protocol())));
        }
        SolveOutcome::Partial(p) => {
            fields.push(("outcome".into(), Json::Str("partial".into())));
            fields.push(("exhausted".into(), exhausted_json(p)));
            fields.push(("stats".into(), stats_json(&p.stats())));
            fields.push(("protocol".into(), protocol_json(p.protocol())));
        }
    }
}

fn exhausted_json(p: &PartialSolution) -> Json {
    let e = p.exhausted();
    obj(vec![
        ("resource", Json::Str(resource_wire_name(e.resource).into())),
        ("at_layer", Json::U64(e.at_layer as u64)),
    ])
}

fn stats_json(stats: &SolveStats) -> Json {
    obj(vec![
        ("layers", Json::U64(stats.layers as u64)),
        ("points", Json::U64(stats.points as u64)),
        ("protocol_entries", Json::U64(stats.protocol_entries as u64)),
        (
            "guard_evaluations",
            Json::U64(stats.guard_evaluations as u64),
        ),
    ])
}

fn resource_wire_name(r: Resource) -> &'static str {
    match r {
        Resource::Deadline => "deadline",
        Resource::LayerPoints => "layer_points",
        Resource::GuardEvaluations => "guard_evaluations",
        Resource::Memory => "memory",
        Resource::Nodes => "nodes",
        Resource::Branches => "branches",
        Resource::Solutions => "solutions",
    }
}

/// Serializes a protocol as `[[agent, [obs...], [action...]], ...]`,
/// sorted by `(agent, history)` — the backing map iterates in arbitrary
/// order, and wire bytes must not.
fn protocol_json(protocol: &MapProtocol) -> Json {
    let mut entries: Vec<(usize, Vec<u64>, Vec<u32>)> = protocol
        .iter()
        .map(|(agent, history, acts)| {
            (
                agent.index(),
                history.iter().map(|o| o.0).collect(),
                acts.iter().map(|a| a.0).collect(),
            )
        })
        .collect();
    entries.sort();
    Json::Arr(
        entries
            .into_iter()
            .map(|(agent, history, acts)| {
                Json::Arr(vec![
                    Json::U64(agent as u64),
                    Json::Arr(history.into_iter().map(Json::U64).collect()),
                    Json::Arr(acts.into_iter().map(|a| Json::U64(u64::from(a))).collect()),
                ])
            })
            .collect(),
    )
}

/// An `ok: false` response for a request-level error.
#[must_use]
pub fn error_response(id: Option<u64>, error: &RequestError) -> Json {
    obj(vec![
        ("id", id.map_or(Json::Null, Json::U64)),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str(error.wire_kind().into())),
                ("message", Json::Str(error.to_string())),
            ]),
        ),
    ])
}

/// An `ok: false` response for a [`QueueFull`] rejection, carrying the
/// typed retry-after hint.
#[must_use]
pub fn reject_response(id: Option<u64>, full: QueueFull) -> Json {
    obj(vec![
        ("id", id.map_or(Json::Null, Json::U64)),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str("queue_full".into())),
                ("message", Json::Str(full.to_string())),
                ("capacity", Json::U64(full.capacity as u64)),
                ("retry_after_ms", Json::U64(full.retry_after_ms)),
            ]),
        ),
    ])
}

/// An `ok: false` response for a per-client quota rejection
/// (`--listen` mode): the connection stays open, the client holds
/// `pending` unanswered requests against a quota of `limit`.
#[must_use]
pub fn quota_response(id: Option<u64>, pending: usize, limit: usize) -> Json {
    obj(vec![
        ("id", id.map_or(Json::Null, Json::U64)),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str("quota_exceeded".into())),
                (
                    "message",
                    Json::Str(format!(
                        "client quota exceeded: {pending} pending of {limit} allowed"
                    )),
                ),
                ("pending", Json::U64(pending as u64)),
                ("limit", Json::U64(limit as u64)),
            ]),
        ),
    ])
}

/// The one-line `ok: false` answer a connection beyond the
/// concurrent-connection bound receives before being closed — a typed
/// refusal, never a silent drop.
#[must_use]
pub fn too_many_connections_response(limit: usize) -> Json {
    obj(vec![
        ("id", Json::Null),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str("too_many_connections".into())),
                (
                    "message",
                    Json::Str(format!("connection limit ({limit}) reached; retry later")),
                ),
                ("limit", Json::U64(limit as u64)),
            ]),
        ),
    ])
}

/// An `ok: false` response for a malformed frame (oversized or
/// non-UTF-8 line), produced by the daemon's reader loops.
#[must_use]
pub fn frame_error_response(error: &crate::framing::FrameError) -> Json {
    let kind = match error {
        crate::framing::FrameError::Oversized { .. } => "oversized",
        crate::framing::FrameError::InvalidUtf8 => "invalid_utf8",
    };
    obj(vec![
        ("id", Json::Null),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str(kind.into())),
                ("message", Json::Str(error.to_string())),
            ]),
        ),
    ])
}

fn solve_error_response(id: u64, error: &SolveError) -> Json {
    obj(vec![
        ("id", Json::U64(id)),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str("solve_error".into())),
                ("message", Json::Str(error.to_string())),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::parse_request;
    use crate::job::Request;
    use std::path::Path;

    fn job(line: &str) -> JobRequest {
        match parse_request(line).unwrap() {
            Request::Job(job) => job,
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn executes_a_solve_job() {
        let service = Service::new(ServiceConfig::new().workers(1));
        let response = service.execute(&job(
            r#"{"id":1,"kind":"solve","scenario":"bit_transmission"}"#,
        ));
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("outcome"), Some(&Json::Str("complete".into())));
        assert!(matches!(response.get("protocol"), Some(Json::Arr(v)) if !v.is_empty()));
        assert_eq!(service.stats().jobs_executed, 1);
    }

    #[test]
    fn unknown_scenario_is_a_typed_response() {
        let service = Service::new(ServiceConfig::new().workers(1));
        let response = service.execute(&job(r#"{"id":2,"kind":"solve","scenario":"nope"}"#));
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        let error = response.get("error").unwrap();
        assert_eq!(
            error.get("kind"),
            Some(&Json::Str("unknown_scenario".into()))
        );
    }

    #[test]
    fn future_program_solve_is_unsupported_but_enumerate_works() {
        let service = Service::new(ServiceConfig::new().workers(1));
        let solve = service.execute(&job(
            r#"{"id":3,"kind":"solve","scenario":"zoo_self_fulfilling"}"#,
        ));
        assert_eq!(solve.get("ok"), Some(&Json::Bool(false)));
        let enumerate = service.execute(&job(
            r#"{"id":4,"kind":"enumerate","scenario":"zoo_self_fulfilling"}"#,
        ));
        assert_eq!(enumerate.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(enumerate.get("count"), Some(&Json::U64(2)));
        assert_eq!(enumerate.get("complete"), Some(&Json::Bool(true)));
    }

    #[test]
    fn check_job_confirms_the_fixed_point() {
        let service = Service::new(ServiceConfig::new().workers(1));
        let response = service.execute(&job(
            r#"{"id":5,"kind":"check","scenario":"muddy_children_3"}"#,
        ));
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("is_implementation"), Some(&Json::Bool(true)));
        assert_eq!(response.get("mismatches"), Some(&Json::U64(0)));
    }

    #[test]
    fn check_counts_explicit_points_on_fused_layers() {
        // Sequence transmission at horizon 8 is generated with strictly
        // compressing fused layers; `check` still reports one pair per
        // explicit point and agent, as the solve's own point count says.
        let service = Service::new(ServiceConfig::new().workers(1));
        let solve = service.execute(&job(
            r#"{"id":1,"kind":"solve","scenario":"sequence_transmission_2","horizon":8}"#,
        ));
        let points = solve.get("stats").unwrap().get("points").unwrap();
        assert_eq!(points, &Json::U64(69_940));
        let eval = service.metrics_response(None, 0);
        let eval = eval.get("eval").unwrap();
        assert!(
            eval.get("gen_quotient_worlds").unwrap().as_u64()
                < eval.get("gen_quotiented_points").unwrap().as_u64()
        );
        let check = service.execute(&job(
            r#"{"id":2,"kind":"check","scenario":"sequence_transmission_2","horizon":8}"#,
        ));
        assert_eq!(check.get("is_implementation"), Some(&Json::Bool(true)));
        assert_eq!(check.get("points_checked"), Some(&Json::U64(2 * 69_940)));
        assert_eq!(check.get("mismatches"), Some(&Json::U64(0)));
    }

    #[test]
    fn fault_lattice_has_four_rows_and_stable_signatures() {
        let service = Service::new(ServiceConfig::new().workers(1));
        let line =
            r#"{"id":6,"kind":"fault_lattice","scenario":"bit_transmission","fault_seed":7}"#;
        let a = service.execute(&job(line));
        let b = service.execute(&job(line));
        assert_eq!(a.to_line(), b.to_line(), "lattice must be replayable");
        let Some(Json::Arr(rows)) = a.get("rows") else {
            panic!("rows missing: {}", a.to_line());
        };
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].get("fault"), Some(&Json::Str("none".into())));
        assert!(rows.iter().all(|r| r.get("signature").is_some()));
    }

    #[test]
    fn batch_responses_come_back_in_submission_order() {
        let service = Service::new(ServiceConfig::new().workers(4));
        let jobs: Vec<JobRequest> = (0..6)
            .map(|i| {
                job(&format!(
                    r#"{{"id":{i},"kind":"solve","scenario":"zoo_plain"}}"#
                ))
            })
            .collect();
        let responses = service.run_batch(&jobs);
        for (i, response) in responses.iter().enumerate() {
            assert_eq!(response.get("id"), Some(&Json::U64(i as u64)));
        }
    }

    #[test]
    fn strict_batch_rejects_deterministically_beyond_capacity() {
        let service = Service::new(ServiceConfig::new().workers(2).queue_capacity(2));
        let jobs: Vec<JobRequest> = (0..5)
            .map(|i| {
                job(&format!(
                    r#"{{"id":{i},"kind":"solve","scenario":"zoo_plain"}}"#
                ))
            })
            .collect();
        let responses = service.run_batch_strict(&jobs);
        assert_eq!(responses.len(), 5);
        for accepted in &responses[..2] {
            assert_eq!(accepted.get("ok"), Some(&Json::Bool(true)));
        }
        for rejected in &responses[2..] {
            assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)));
            let error = rejected.get("error").unwrap();
            assert_eq!(error.get("kind"), Some(&Json::Str("queue_full".into())));
            assert_eq!(error.get("capacity"), Some(&Json::U64(2)));
            assert!(error.get("retry_after_ms").unwrap().as_u64().unwrap() > 0);
        }
        assert_eq!(service.stats().queue_rejections, 3);
    }

    #[test]
    fn config_from_env_rejects_garbage() {
        // Environment mutation: run the cases in one test to avoid
        // parallel-test interference on the same variables.
        let run = |pairs: &[(&str, &str)]| {
            for (k, v) in pairs {
                std::env::set_var(k, v);
            }
            let result = ServiceConfig::from_env();
            for (k, _) in pairs {
                std::env::remove_var(k);
            }
            result
        };
        for raw in [
            "zero?",
            "0",
            "-2",
            "3.5",
            "4097",
            "99999999999999999999999999",
        ] {
            assert!(
                matches!(run(&[(WORKERS_ENV, raw)]), Err(ConfigError::Workers { .. })),
                "{WORKERS_ENV}={raw} must be rejected"
            );
        }
        let capped = run(&[(WORKERS_ENV, " 4096 ")]).unwrap();
        assert_eq!(capped.workers, MAX_CONFIG_THREADS);
        assert!(matches!(
            run(&[(QUEUE_ENV, "0")]),
            Err(ConfigError::Size { .. })
        ));
        assert!(matches!(
            run(&[(QUEUE_ENV, "deep")]),
            Err(ConfigError::Size { .. })
        ));
        // The queue bound is a size, not a thread count: no
        // worker-count cap applies to it.
        let big = run(&[(QUEUE_ENV, "5000")]).unwrap();
        assert_eq!(big.queue_capacity, 5000);
        // The new daemon bounds: zero and garbage are startup errors.
        for var in [CLIENT_PENDING_ENV, MAX_CONNECTIONS_ENV, MAX_LINE_ENV] {
            assert!(
                matches!(run(&[(var, "0")]), Err(ConfigError::Size { .. })),
                "{var}=0 must be rejected"
            );
            assert!(
                matches!(run(&[(var, "many")]), Err(ConfigError::Size { .. })),
                "{var}=many must be rejected"
            );
        }
        // The protection bounds: garbage is a startup error, but zero is
        // the documented "disabled" value.
        for var in [
            IDLE_TIMEOUT_ENV,
            WRITE_BUDGET_ENV,
            WRITE_STALL_ENV,
            CLIENT_DEFINITIONS_ENV,
        ] {
            assert!(
                matches!(run(&[(var, "soon")]), Err(ConfigError::Size { .. })),
                "{var}=soon must be rejected"
            );
            assert!(run(&[(var, "0")]).is_ok(), "{var}=0 means disabled");
        }
        let disabled = run(&[(IDLE_TIMEOUT_ENV, "0")]).unwrap();
        assert_eq!(disabled.idle_timeout_ms, 0);
        let unlimited = run(&[(CLIENT_DEFINITIONS_ENV, "0")]).unwrap();
        assert_eq!(unlimited.client_definitions, 0);
        let ok = run(&[
            (WORKERS_ENV, "3"),
            (QUEUE_ENV, "17"),
            (CACHE_DIR_ENV, "/tmp/kbp-cache-test"),
            (CLIENT_PENDING_ENV, "9"),
            (MAX_CONNECTIONS_ENV, "7"),
            (MAX_LINE_ENV, "2048"),
            (IDLE_TIMEOUT_ENV, "1500"),
            (WRITE_BUDGET_ENV, "8192"),
            (WRITE_STALL_ENV, "2500"),
            (CLIENT_DEFINITIONS_ENV, "3"),
        ])
        .unwrap();
        assert_eq!(ok.workers, 3);
        assert_eq!(ok.queue_capacity, 17);
        assert_eq!(
            ok.cache_dir.as_deref(),
            Some(Path::new("/tmp/kbp-cache-test"))
        );
        assert_eq!(ok.client_pending, 9);
        assert_eq!(ok.max_connections, 7);
        assert_eq!(ok.max_line, 2048);
        assert_eq!(ok.idle_timeout_ms, 1500);
        assert_eq!(ok.write_budget_bytes, 8192);
        assert_eq!(ok.write_stall_ms, 2500);
        assert_eq!(ok.client_definitions, 3);
    }

    #[test]
    fn health_and_metrics_are_monitoring_responses() {
        let service = Service::new(ServiceConfig::new().workers(2).queue_capacity(8));
        let health = service.health_response(Some(4));
        assert_eq!(health.get("id"), Some(&Json::U64(4)));
        assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(health.get("status"), Some(&Json::Str("ok".into())));

        let _ = service.execute(&job(r#"{"id":1,"kind":"solve","scenario":"zoo_plain"}"#));
        let metrics = service.metrics_response(None, 3);
        assert_eq!(metrics.get("id"), Some(&Json::Null));
        assert_eq!(metrics.get("kind"), Some(&Json::Str("metrics".into())));
        assert_eq!(metrics.get("queue_depth"), Some(&Json::U64(3)));
        assert_eq!(metrics.get("workers_busy"), Some(&Json::U64(0)));
        assert_eq!(metrics.get("jobs_executed"), Some(&Json::U64(1)));
        assert!(metrics.get("cache").is_none());
        assert!(metrics.get("layers_restored").is_none());
        // Without a plane snapshot the wire shape is the pre-plane one.
        assert!(metrics.get("connections").is_none());

        let plane = PlaneSnapshot {
            connections_active: 2,
            connections_idle: 5,
            disconnects_write_budget: 1,
            responses_dropped: 3,
            clients: vec![("alpha".into(), 4), ("beta".into(), 0)],
            passes: 42,
            ..PlaneSnapshot::default()
        };
        let metrics = service.metrics_response_with_plane(Some(9), 0, Some(&plane));
        let connections = metrics.get("connections").unwrap();
        assert_eq!(connections.get("active"), Some(&Json::U64(2)));
        assert_eq!(connections.get("idle"), Some(&Json::U64(5)));
        let disconnects = metrics.get("disconnects").unwrap();
        assert_eq!(disconnects.get("idle_timeout"), Some(&Json::U64(0)));
        assert_eq!(disconnects.get("write_budget"), Some(&Json::U64(1)));
        assert_eq!(metrics.get("responses_dropped"), Some(&Json::U64(3)));
        let clients = metrics.get("clients").unwrap();
        assert_eq!(clients.get("alpha"), Some(&Json::U64(4)));
        assert_eq!(clients.get("beta"), Some(&Json::U64(0)));
        assert_eq!(metrics.get("passes"), Some(&Json::U64(42)));
    }

    #[test]
    fn disconnect_notices_are_typed() {
        for (kind, name) in [
            (DisconnectKind::IdleTimeout, "idle_timeout"),
            (DisconnectKind::ReadDeadline, "read_deadline"),
            (DisconnectKind::WriteBudget, "write_budget"),
            (DisconnectKind::WriteStall, "write_stall"),
        ] {
            assert_eq!(kind.wire_name(), name);
            let notice = disconnect_response(kind, "closing");
            assert_eq!(notice.get("ok"), Some(&Json::Bool(false)));
            let error = notice.get("error").unwrap();
            assert_eq!(error.get("kind"), Some(&Json::Str(name.into())));
        }
    }

    fn dsl_source() -> String {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/dsl/bit_transmission.kbp"
        );
        std::fs::read_to_string(path).expect("bit_transmission example exists")
    }

    fn define(id: u64, name: Option<&str>, source: &str, client: Option<&str>) -> DefineRequest {
        DefineRequest {
            id,
            name: name.map(str::to_string),
            source: source.to_string(),
            client: client.map(str::to_string),
        }
    }

    #[test]
    fn defined_scenarios_solve_bit_identically_to_the_registry() {
        let service = Service::new(ServiceConfig::new().workers(1));
        let response =
            service.define_response(&define(1, Some("bt_dsl"), &dsl_source(), None), "local");
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
        assert_eq!(response.get("kind"), Some(&Json::Str("define".into())));
        assert_eq!(response.get("scenario"), Some(&Json::Str("bt_dsl".into())));
        assert_eq!(response.get("solvable"), Some(&Json::Bool(true)));
        assert_eq!(response.get("default_horizon"), Some(&Json::U64(5)));
        assert_eq!(response.get("agents"), Some(&Json::U64(2)));
        assert_eq!(response.get("redefined"), Some(&Json::Bool(false)));
        assert_eq!(service.stats().definitions_active, 1);

        // The defined scenario answers every field identically to the
        // compiled-in registry scenario, except the echoed name.
        let registry = service.execute(&job(
            r#"{"id":7,"kind":"solve","scenario":"bit_transmission"}"#,
        ));
        let defined = service.execute(&job(r#"{"id":7,"kind":"solve","scenario":"bt_dsl"}"#));
        let (Json::Obj(registry), Json::Obj(defined)) = (&registry, &defined) else {
            panic!("solve responses must be objects");
        };
        assert_eq!(registry.len(), defined.len());
        for ((rk, rv), (dk, dv)) in registry.iter().zip(defined.iter()) {
            assert_eq!(rk, dk, "field order must match");
            if rk == "scenario" {
                assert_eq!(dv, &Json::Str("bt_dsl".into()));
            } else {
                assert_eq!(rv, dv, "field '{rk}' differs");
            }
        }

        // check works against the defined scenario too.
        let checked = service.execute(&job(r#"{"id":8,"kind":"check","scenario":"bt_dsl"}"#));
        assert_eq!(checked.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(checked.get("is_implementation"), Some(&Json::Bool(true)));

        // No fault plumbing for definitions: typed unsupported answers.
        let faulted = service.execute(&job(
            r#"{"id":9,"kind":"solve","scenario":"bt_dsl","fault":"loss"}"#,
        ));
        assert_eq!(faulted.get("ok"), Some(&Json::Bool(false)));
        let lattice = service.execute(&job(
            r#"{"id":10,"kind":"fault_lattice","scenario":"bt_dsl"}"#,
        ));
        let error = lattice.get("error").unwrap();
        assert_eq!(error.get("kind"), Some(&Json::Str("unsupported".into())));
    }

    #[test]
    fn define_admission_enforces_names_and_quotas() {
        let service = Service::new(ServiceConfig::new().workers(1).client_definitions(1));
        let source = dsl_source();

        // Registry names cannot be shadowed — neither explicitly nor via
        // the declared name (the example declares "bit_transmission").
        for name in [Some("muddy_children_3"), None] {
            let response = service.define_response(&define(1, name, &source, None), "local");
            assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
            let error = response.get("error").unwrap();
            assert_eq!(error.get("kind"), Some(&Json::Str("name_reserved".into())));
        }

        // tenant-a claims a name; tenant-b may neither take it nor
        // redefine it.
        let ok = service.define_response(
            &define(2, Some("shared"), &source, Some("tenant-a")),
            "local",
        );
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        let stolen = service.define_response(
            &define(3, Some("shared"), &source, Some("tenant-b")),
            "local",
        );
        let error = stolen.get("error").unwrap();
        assert_eq!(error.get("kind"), Some(&Json::Str("name_reserved".into())));

        // tenant-a redefining its own name is fine and does not charge
        // the quota (limit is 1 and the redefine succeeds)...
        let redefined = service.define_response(
            &define(
                4,
                Some("shared"),
                &format!("{source}\n# v2"),
                Some("tenant-a"),
            ),
            "local",
        );
        assert_eq!(redefined.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(redefined.get("redefined"), Some(&Json::Bool(true)));

        // ...but a second distinct name trips the quota with typed
        // held/limit fields.
        let over = service.define_response(
            &define(5, Some("second"), &source, Some("tenant-a")),
            "local",
        );
        assert_eq!(over.get("ok"), Some(&Json::Bool(false)));
        let error = over.get("error").unwrap();
        assert_eq!(
            error.get("kind"),
            Some(&Json::Str("definition_quota".into()))
        );
        assert!(error.get("message").unwrap().to_line().contains("1 of 1"));

        // A different client identity has its own window.
        let other = service.define_response(
            &define(6, Some("second"), &source, Some("tenant-b")),
            "local",
        );
        assert_eq!(other.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(service.stats().definitions_active, 2);
    }

    #[test]
    fn invalid_programs_answer_diagnostics_with_spans() {
        let service = Service::new(ServiceConfig::new().workers(1));
        let source = "scenario broken {\n  agents a\n  vars x\n  init [0]\n  obs a = y\n}\n";
        let response = service.define_response(&define(1, None, source, None), "local");
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        let error = response.get("error").unwrap();
        assert_eq!(
            error.get("kind"),
            Some(&Json::Str("invalid_program".into()))
        );
        let Some(Json::Arr(diags)) = error.get("diagnostics") else {
            panic!("diagnostics array missing: {}", response.to_line());
        };
        assert!(!diags.is_empty());
        let undefined = diags
            .iter()
            .find(|d| d.get("message").unwrap().to_line().contains('y'))
            .expect("a diagnostic mentions the undefined variable");
        assert_eq!(undefined.get("severity"), Some(&Json::Str("error".into())));
        assert_eq!(undefined.get("line"), Some(&Json::U64(5)));
        assert!(undefined.get("col").unwrap().as_u64().unwrap() >= 9);
        // Nothing was registered.
        assert_eq!(service.stats().definitions_active, 0);
    }

    #[test]
    fn definitions_survive_a_restart_and_redefinition_replaces_the_file() {
        let dir = std::env::temp_dir().join(format!(
            "kbp-service-def-restart-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let source = dsl_source();
        let config = || ServiceConfig::new().workers(1).cache_dir(Some(dir.clone()));
        let solve = r#"{"id":2,"kind":"solve","scenario":"bt_dsl"}"#;
        let first = {
            let service = Service::new(config());
            let ok = service.define_response(&define(1, Some("bt_dsl"), &source, None), "local");
            assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
            service.execute(&job(solve)).to_line()
        };
        let survivor_fp = {
            // Restart: the definition returns and answers identically.
            let service = Service::new(config());
            let stats = service.stats();
            assert_eq!(stats.definitions_active, 1);
            assert_eq!(stats.definitions_restored, 1);
            assert_eq!(service.execute(&job(solve)).to_line(), first);
            // Redefine with different source: new fingerprint, and the
            // new file replaces the old one.
            let redefined = service.define_response(
                &define(4, Some("bt_dsl"), &format!("{source}\n# v2"), None),
                "local",
            );
            assert_eq!(redefined.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(redefined.get("redefined"), Some(&Json::Bool(true)));
            redefined.get("fingerprint").unwrap().as_u64().unwrap()
        };
        let defs = DefinitionStore::open(&dir)
            .unwrap()
            .load_definitions()
            .unwrap();
        assert_eq!(defs.len(), 1, "the stale definition file was replaced");
        assert_eq!(defs[0].0, survivor_fp);
        let restarted = Service::new(config());
        assert_eq!(restarted.stats().definitions_restored, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_surface_eval_and_definition_counters() {
        let service = Service::new(ServiceConfig::new().workers(1));
        let _ = service.execute(&job(
            r#"{"id":1,"kind":"solve","scenario":"muddy_children_3"}"#,
        ));
        let metrics = service.metrics_response(None, 0);
        let eval = metrics.get("eval").unwrap();
        assert!(eval.get("layers").unwrap().as_u64().unwrap() > 0);
        // Muddy children has no perfect-recall twins, so generation fuses
        // every layer after the first: layers 1 to 4 of the horizon-4
        // solve are resident as representatives.
        assert_eq!(eval.get("gen_quotiented_layers"), Some(&Json::U64(4)));
        let ratio = eval.get("gen_quotient_ratio_permille").unwrap();
        assert!((1..=1000).contains(&ratio.as_u64().unwrap()), "{ratio:?}");
        let defs = metrics.get("definitions").unwrap();
        assert_eq!(defs.get("active"), Some(&Json::U64(0)));
        assert_eq!(defs.get("restored"), Some(&Json::U64(0)));
        assert_eq!(
            defs.get("quota"),
            Some(&Json::U64(DEFAULT_CLIENT_DEFINITIONS as u64))
        );
        // The aggregate ratio helper: per-mille of resident worlds.
        let eval = EvalStats {
            gen_quotient_worlds: 40,
            gen_quotiented_points: 1000,
            ..EvalStats::default()
        };
        assert_eq!(eval.gen_quotient_ratio_permille(), Some(40));
        assert_eq!(EvalStats::default().gen_quotient_ratio_permille(), None);
    }

    #[test]
    fn quota_and_connection_rejections_are_typed() {
        let quota = quota_response(Some(8), 16, 16);
        assert_eq!(quota.get("ok"), Some(&Json::Bool(false)));
        let error = quota.get("error").unwrap();
        assert_eq!(error.get("kind"), Some(&Json::Str("quota_exceeded".into())));
        assert_eq!(error.get("pending"), Some(&Json::U64(16)));
        assert_eq!(error.get("limit"), Some(&Json::U64(16)));

        let refuse = too_many_connections_response(32);
        assert_eq!(refuse.get("id"), Some(&Json::Null));
        let error = refuse.get("error").unwrap();
        assert_eq!(
            error.get("kind"),
            Some(&Json::Str("too_many_connections".into()))
        );

        let oversized = frame_error_response(&crate::framing::FrameError::Oversized { limit: 64 });
        let error = oversized.get("error").unwrap();
        assert_eq!(error.get("kind"), Some(&Json::Str("oversized".into())));
        let bad_utf8 = frame_error_response(&crate::framing::FrameError::InvalidUtf8);
        let error = bad_utf8.get("error").unwrap();
        assert_eq!(error.get("kind"), Some(&Json::Str("invalid_utf8".into())));
    }
}
