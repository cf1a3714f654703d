//! `kbp-service` — a long-running batch-solving service for
//! knowledge-based programs.
//!
//! The solver amortizes work *within* a solve (interned guards,
//! per-layer caches, carry-forward). This crate serves solves as
//! requests; each job solves cold, and nothing but `define`d scenarios
//! is kept between jobs:
//!
//! * a typed job API ([`JobRequest`]: `solve`, `enumerate`, `check`,
//!   `fault_lattice`) with a JSON line protocol ([`json`]);
//! * a bounded [`JobQueue`] with explicit admission control — a full
//!   queue rejects with a typed [`QueueFull`] carrying a retry-after
//!   hint instead of stalling the reader;
//! * a `std::thread::scope` worker pool sized by `KBP_SERVICE_WORKERS`
//!   ([`Service::run_batch`]);
//! * client-defined DSL scenarios (the `define` op), persisted to the
//!   definitions directory named by `KBP_SERVICE_CACHE_DIR`
//!   ([`DefinitionStore`]).
//!
//! Responses are **bit-identical** regardless of worker count, and are
//! emitted in submission order; see the determinism argument at the top
//! of `service.rs`. The `kbpd` binary speaks the line protocol over
//! stdin/stdout.
//!
//! # Example
//!
//! ```
//! use kbp_service::{parse_request, Request, Service, ServiceConfig};
//!
//! let service = Service::new(ServiceConfig::new().workers(2));
//! let Ok(Request::Job(job)) =
//!     parse_request(r#"{"id":1,"kind":"solve","scenario":"zoo_plain"}"#)
//! else {
//!     unreachable!()
//! };
//! let first = service.execute(&job).to_line();
//! let second = service.execute(&job).to_line();
//! assert_eq!(first, second); // a response is a function of its request
//! ```

// Robustness gate: the library surface must stay panic-free so malformed
// requests surface as typed error responses, never as a dead worker.
// Tests and the binary's top level are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

mod framing;
mod job;
pub mod persist;
mod plane;
mod queue;
mod registry;
mod server;
mod service;

pub use framing::{FrameDecoder, FrameError, LineOutcome, DEFAULT_MAX_LINE};
pub use job::{id_hint, parse_request, DefineRequest, JobKind, JobRequest, Request, RequestError};
pub use persist::{DefinitionRecord, DefinitionStore, PersistError};
pub use queue::{JobQueue, QueueFull};
pub use registry::{find, registry, LatticeSpec, ScenarioEntry};
pub use server::{serve_stream, Server, ServerHandle};
pub use service::{
    disconnect_response, error_response, frame_error_response, quota_response, reject_response,
    too_many_connections_response, ConfigError, DisconnectKind, EvalStats, PlaneSnapshot, Service,
    ServiceConfig, ServiceStats, CACHE_DIR_ENV, CLIENT_DEFINITIONS_ENV, CLIENT_PENDING_ENV,
    DEFAULT_CLIENT_DEFINITIONS, DEFAULT_CLIENT_PENDING, DEFAULT_IDLE_TIMEOUT_MS,
    DEFAULT_MAX_CONNECTIONS, DEFAULT_WRITE_BUDGET_BYTES, DEFAULT_WRITE_STALL_MS, IDLE_TIMEOUT_ENV,
    MAX_CONFIG_THREADS, MAX_CONNECTIONS_ENV, MAX_LINE_ENV, QUEUE_ENV, WORKERS_ENV,
    WRITE_BUDGET_ENV, WRITE_STALL_ENV,
};
