//! The typed job API and its JSON-line encoding.
//!
//! One request per line, one response per line; a request is an object:
//!
//! ```json
//! {"id":1,"kind":"solve","scenario":"bit_transmission","horizon":5,
//!  "fault":"loss","fault_seed":7,
//!  "budget":{"deadline_ms":1000,"max_guard_evaluations":100000}}
//! ```
//!
//! `id` and `kind` are mandatory; everything else has scenario defaults.
//! Three monitoring requests bypass the queue and are answered from the
//! service's counters: `{"op":"stats"}`, `{"kind":"health"}` and
//! `{"kind":"metrics"}` (each accepts either the `op` or the `kind`
//! spelling, and an optional `id` to echo).

use crate::json::Json;
use kbp_core::Budget;
use std::fmt;
use std::time::Duration;

/// What a job asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Run the inductive solver; return protocol + stats.
    Solve,
    /// Enumerate all bounded implementations.
    Enumerate,
    /// Solve, then verify the fixed point with the implementation
    /// checker.
    Check,
    /// Solve the scenario on every rung of its fault lattice.
    FaultLattice,
}

impl JobKind {
    /// The wire name of the kind.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            JobKind::Solve => "solve",
            JobKind::Enumerate => "enumerate",
            JobKind::Check => "check",
            JobKind::FaultLattice => "fault_lattice",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "solve" => Some(JobKind::Solve),
            "enumerate" => Some(JobKind::Enumerate),
            "check" => Some(JobKind::Check),
            "fault_lattice" => Some(JobKind::FaultLattice),
            _ => None,
        }
    }
}

/// One parsed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen id, echoed on the response.
    pub id: u64,
    /// What to do.
    pub kind: JobKind,
    /// Registry name of the scenario.
    pub scenario: String,
    /// Horizon override; the registry default when absent.
    pub horizon: Option<usize>,
    /// Fault-lattice rung name (`none`, `loss`, `crash-stop`,
    /// `loss+crash-stop`); fault-free when absent. Ignored by
    /// `fault_lattice` jobs, which always run the whole lattice.
    pub fault: Option<String>,
    /// Seed for the fault schedule (default 0).
    pub fault_seed: u64,
    /// Resource budget for the solve.
    pub budget: Budget,
    /// Enumeration: stop after this many implementations.
    pub max_solutions: Option<usize>,
    /// Enumeration: cap on explored branches.
    pub max_branches: Option<usize>,
    /// Optional client identity token. In `--listen` mode the pending
    /// quota and per-client metrics are scoped by this token, so one
    /// tenant's connections share an admission window; anonymous
    /// requests fall back to the connection's peer address. Never echoed
    /// on responses (job responses stay pure functions of the job).
    pub client: Option<String>,
}

/// A `{"op":"define",...}` request: register a `.kbp` scenario under a
/// wire name so later jobs can solve it by name. Answered inline (the
/// DSL compiler is fast and never solves anything), never queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefineRequest {
    /// Client-chosen id, echoed on the response.
    pub id: u64,
    /// Wire name to register under; defaults to the name declared in
    /// the source's `scenario` header.
    pub name: Option<String>,
    /// The `.kbp` source text.
    pub source: String,
    /// Optional client identity token; definitions are owned and
    /// quota'd per client, falling back to the connection identity.
    pub client: Option<String>,
}

/// A request the service could not accept, reported on the response
/// line with `ok: false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line is not valid JSON.
    Parse(String),
    /// A required field is missing or has the wrong type.
    BadField {
        /// The offending field.
        field: &'static str,
        /// What was expected of it.
        expected: &'static str,
    },
    /// The `kind` is not one of the four job kinds.
    UnknownKind(String),
    /// The scenario name is not in the registry.
    UnknownScenario(String),
    /// The job kind does not apply to the scenario (e.g. `solve` on a
    /// future-referring program, or a lattice job on a scenario without
    /// a lossy environment).
    Unsupported(&'static str),
    /// The named fault rung does not exist for the scenario.
    UnknownFault(String),
    /// A `define` tried to take a name the registry owns, or one that
    /// another client already defined.
    NameReserved(String),
    /// A `define` would exceed the client's definition quota.
    DefinitionQuota {
        /// Definitions the client currently holds.
        held: usize,
        /// The configured per-client limit.
        limit: usize,
    },
}

impl RequestError {
    /// Short machine-readable discriminator for the wire.
    #[must_use]
    pub fn wire_kind(&self) -> &'static str {
        match self {
            RequestError::Parse(_) => "parse",
            RequestError::BadField { .. } => "bad_field",
            RequestError::UnknownKind(_) => "unknown_kind",
            RequestError::UnknownScenario(_) => "unknown_scenario",
            RequestError::Unsupported(_) => "unsupported",
            RequestError::UnknownFault(_) => "unknown_fault",
            RequestError::NameReserved(_) => "name_reserved",
            RequestError::DefinitionQuota { .. } => "definition_quota",
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Parse(e) => write!(f, "invalid JSON: {e}"),
            RequestError::BadField { field, expected } => {
                write!(f, "field '{field}': expected {expected}")
            }
            RequestError::UnknownKind(k) => write!(
                f,
                "unknown kind '{k}' (expected solve|enumerate|check|fault_lattice)"
            ),
            RequestError::UnknownScenario(s) => write!(f, "unknown scenario '{s}'"),
            RequestError::Unsupported(why) => write!(f, "unsupported: {why}"),
            RequestError::UnknownFault(r) => write!(
                f,
                "unknown fault rung '{r}' (expected none|loss|crash-stop|loss+crash-stop)"
            ),
            RequestError::NameReserved(n) => {
                write!(f, "scenario name '{n}' is reserved by another owner")
            }
            RequestError::DefinitionQuota { held, limit } => write!(
                f,
                "definition quota exceeded: client holds {held} of {limit} definitions"
            ),
        }
    }
}

impl std::error::Error for RequestError {}

/// A parsed request line: a job, or one of the monitoring ops that are
/// answered inline without entering the queue.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A job to queue.
    Job(JobRequest),
    /// `{"op":"stats"}` — answer with service counters.
    Stats {
        /// Echoed id, if the client sent one.
        id: Option<u64>,
    },
    /// `{"kind":"health"}` — liveness probe; answered immediately.
    Health {
        /// Echoed id, if the client sent one.
        id: Option<u64>,
    },
    /// `{"kind":"metrics"}` — queue depth, worker utilization,
    /// evaluation and definition counters; answered immediately.
    Metrics {
        /// Echoed id, if the client sent one.
        id: Option<u64>,
    },
    /// `{"op":"define",...}` — compile and register a DSL scenario;
    /// answered inline (compilation never solves anything).
    Define(DefineRequest),
}

/// Parses one request line.
///
/// # Errors
///
/// Any malformed line yields a [`RequestError`] describing the first
/// problem; the caller turns it into an `ok: false` response.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value = crate::json::parse(line).map_err(|e| RequestError::Parse(e.to_string()))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(RequestError::BadField {
            field: "(root)",
            expected: "an object",
        });
    }
    if let Some(op) = value.get("op") {
        let op = op.as_str().ok_or(RequestError::BadField {
            field: "op",
            expected: "a string",
        })?;
        if let Some(req) = monitor_request(op, &value)? {
            return Ok(req);
        }
        if op == "define" {
            return parse_define(&value).map(Request::Define);
        }
        return Err(RequestError::UnknownKind(op.to_string()));
    }
    // Monitoring ops are also accepted under the `kind` spelling
    // (`{"kind":"health"}`), and — unlike jobs — need no id.
    if let Some(kind) = value.get("kind").and_then(Json::as_str) {
        if let Some(req) = monitor_request(kind, &value)? {
            return Ok(req);
        }
    }

    let id = value
        .get("id")
        .and_then(Json::as_u64)
        .ok_or(RequestError::BadField {
            field: "id",
            expected: "a non-negative integer",
        })?;
    let kind_str = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or(RequestError::BadField {
            field: "kind",
            expected: "a string",
        })?;
    let kind =
        JobKind::parse(kind_str).ok_or_else(|| RequestError::UnknownKind(kind_str.to_string()))?;
    let scenario = value
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or(RequestError::BadField {
            field: "scenario",
            expected: "a string",
        })?
        .to_string();

    let horizon = opt_usize(&value, "horizon")?;
    let fault = match value.get("fault") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => {
            return Err(RequestError::BadField {
                field: "fault",
                expected: "a string",
            })
        }
    };
    let fault_seed = match value.get("fault_seed") {
        None | Some(Json::Null) => 0,
        Some(v) => v.as_u64().ok_or(RequestError::BadField {
            field: "fault_seed",
            expected: "a non-negative integer",
        })?,
    };
    let budget = parse_budget(value.get("budget"))?;
    let max_solutions = opt_usize(&value, "max_solutions")?;
    let max_branches = opt_usize(&value, "max_branches")?;
    let client = match value.get("client") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => {
            return Err(RequestError::BadField {
                field: "client",
                expected: "a string",
            })
        }
    };

    Ok(Request::Job(JobRequest {
        id,
        kind,
        scenario,
        horizon,
        fault,
        fault_seed,
        budget,
        max_solutions,
        max_branches,
        client,
    }))
}

/// Parses the body of a `{"op":"define"}` request. Unlike the
/// monitoring ops, `id` is mandatory — a define mutates service state
/// and the client must be able to correlate the answer.
fn parse_define(value: &Json) -> Result<DefineRequest, RequestError> {
    let id = value
        .get("id")
        .and_then(Json::as_u64)
        .ok_or(RequestError::BadField {
            field: "id",
            expected: "a non-negative integer",
        })?;
    let source = value
        .get("source")
        .and_then(Json::as_str)
        .ok_or(RequestError::BadField {
            field: "source",
            expected: "a string of .kbp source",
        })?
        .to_string();
    let name = match value.get("name") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => {
            return Err(RequestError::BadField {
                field: "name",
                expected: "a string",
            })
        }
    };
    let client = match value.get("client") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => {
            return Err(RequestError::BadField {
                field: "client",
                expected: "a string",
            })
        }
    };
    Ok(DefineRequest {
        id,
        name,
        source,
        client,
    })
}

/// Recognizes the monitoring ops (`stats`, `health`, `metrics`) under
/// either the `op` or `kind` spelling; `Ok(None)` means "not one of
/// them" and the caller decides whether that is an error.
fn monitor_request(name: &str, value: &Json) -> Result<Option<Request>, RequestError> {
    let id = match value.get("id") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_u64().ok_or(RequestError::BadField {
            field: "id",
            expected: "a non-negative integer",
        })?),
    };
    Ok(match name {
        "stats" => Some(Request::Stats { id }),
        "health" => Some(Request::Health { id }),
        "metrics" => Some(Request::Metrics { id }),
        _ => None,
    })
}

/// Best-effort extraction of the client id from a line that failed
/// [`parse_request`], so the error response can still echo it. Returns
/// `None` when the line is not JSON, not an object, or carries no
/// usable `id` — the response then says `"id":null`.
#[must_use]
pub fn id_hint(line: &str) -> Option<u64> {
    let value = crate::json::parse(line).ok()?;
    if !matches!(value, Json::Obj(_)) {
        return None;
    }
    value.get("id").and_then(Json::as_u64)
}

fn opt_usize(value: &Json, field: &'static str) -> Result<Option<usize>, RequestError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_usize().map(Some).ok_or(RequestError::BadField {
            field,
            expected: "a non-negative integer",
        }),
    }
}

fn parse_budget(value: Option<&Json>) -> Result<Budget, RequestError> {
    let mut budget = Budget::new();
    let Some(value) = value else {
        return Ok(budget);
    };
    if matches!(value, Json::Null) {
        return Ok(budget);
    }
    if !matches!(value, Json::Obj(_)) {
        return Err(RequestError::BadField {
            field: "budget",
            expected: "an object",
        });
    }
    if let Some(ms) = value.get("deadline_ms") {
        let ms = ms.as_u64().ok_or(RequestError::BadField {
            field: "budget.deadline_ms",
            expected: "a non-negative integer",
        })?;
        budget = budget.deadline(Duration::from_millis(ms));
    }
    if let Some(n) = opt_usize(value, "max_layer_points")? {
        budget = budget.max_layer_points(n);
    }
    if let Some(n) = opt_usize(value, "max_guard_evaluations")? {
        budget = budget.max_guard_evaluations(n);
    }
    if let Some(n) = opt_usize(value, "max_memory_bytes")? {
        budget = budget.max_memory_bytes(n);
    }
    Ok(budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_job() {
        let req = parse_request(r#"{"id":3,"kind":"solve","scenario":"robot"}"#).unwrap();
        let Request::Job(job) = req else {
            panic!("expected a job")
        };
        assert_eq!(job.id, 3);
        assert_eq!(job.kind, JobKind::Solve);
        assert_eq!(job.scenario, "robot");
        assert_eq!(job.horizon, None);
        assert_eq!(job.fault, None);
        assert_eq!(job.fault_seed, 0);
        assert_eq!(job.client, None);
    }

    #[test]
    fn parses_and_validates_the_client_token() {
        let req =
            parse_request(r#"{"id":3,"kind":"solve","scenario":"robot","client":"tenant-a"}"#)
                .unwrap();
        let Request::Job(job) = req else {
            panic!("expected a job")
        };
        assert_eq!(job.client.as_deref(), Some("tenant-a"));
        // Null is "absent", non-strings are typed errors.
        let Request::Job(job) =
            parse_request(r#"{"id":3,"kind":"solve","scenario":"robot","client":null}"#).unwrap()
        else {
            panic!("expected a job")
        };
        assert_eq!(job.client, None);
        assert!(matches!(
            parse_request(r#"{"id":3,"kind":"solve","scenario":"robot","client":7}"#),
            Err(RequestError::BadField {
                field: "client",
                ..
            })
        ));
    }

    #[test]
    fn parses_a_full_job() {
        let req = parse_request(
            r#"{"id":9,"kind":"fault_lattice","scenario":"bit_transmission","horizon":4,
               "fault":"loss","fault_seed":77,
               "budget":{"deadline_ms":500,"max_layer_points":100,
                         "max_guard_evaluations":5000,"max_memory_bytes":1000000},
               "max_solutions":2,"max_branches":64}"#,
        )
        .unwrap();
        let Request::Job(job) = req else {
            panic!("expected a job")
        };
        assert_eq!(job.kind, JobKind::FaultLattice);
        assert_eq!(job.horizon, Some(4));
        assert_eq!(job.fault.as_deref(), Some("loss"));
        assert_eq!(job.fault_seed, 77);
        assert_eq!(job.max_solutions, Some(2));
        assert_eq!(job.max_branches, Some(64));
    }

    #[test]
    fn parses_the_stats_op() {
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats { id: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"stats","id":5}"#).unwrap(),
            Request::Stats { id: Some(5) }
        );
    }

    #[test]
    fn parses_health_and_metrics_under_both_spellings() {
        for spelling in ["op", "kind"] {
            assert_eq!(
                parse_request(&format!(r#"{{"{spelling}":"health"}}"#)).unwrap(),
                Request::Health { id: None },
                "spelling={spelling}"
            );
            assert_eq!(
                parse_request(&format!(r#"{{"{spelling}":"metrics","id":7}}"#)).unwrap(),
                Request::Metrics { id: Some(7) },
                "spelling={spelling}"
            );
        }
        // Stats under `kind` as well, for symmetry.
        assert_eq!(
            parse_request(r#"{"kind":"stats"}"#).unwrap(),
            Request::Stats { id: None }
        );
    }

    #[test]
    fn parses_the_define_op() {
        let req = parse_request(
            r#"{"op":"define","id":4,"name":"my_ring","client":"tenant-a",
               "source":"scenario my_ring { agents a }"}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Define(DefineRequest {
                id: 4,
                name: Some("my_ring".into()),
                source: "scenario my_ring { agents a }".into(),
                client: Some("tenant-a".into()),
            })
        );
        // Name and client are optional; id and source are not.
        let Request::Define(req) =
            parse_request(r#"{"op":"define","id":1,"source":"scenario x {}"}"#).unwrap()
        else {
            panic!("expected a define")
        };
        assert_eq!(req.name, None);
        assert_eq!(req.client, None);
        assert!(matches!(
            parse_request(r#"{"op":"define","source":"scenario x {}"}"#),
            Err(RequestError::BadField { field: "id", .. })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"define","id":1}"#),
            Err(RequestError::BadField {
                field: "source",
                ..
            })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"define","id":1,"source":7}"#),
            Err(RequestError::BadField {
                field: "source",
                ..
            })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"define","id":1,"source":"s","name":7}"#),
            Err(RequestError::BadField { field: "name", .. })
        ));
    }

    #[test]
    fn define_errors_have_stable_wire_kinds() {
        assert_eq!(
            RequestError::NameReserved("robot".into()).wire_kind(),
            "name_reserved"
        );
        assert_eq!(
            RequestError::DefinitionQuota { held: 8, limit: 8 }.wire_kind(),
            "definition_quota"
        );
        let msg = RequestError::DefinitionQuota { held: 8, limit: 8 }.to_string();
        assert!(msg.contains("8 of 8"), "{msg}");
    }

    #[test]
    fn id_hint_recovers_ids_from_bad_requests() {
        // Valid JSON, bad fields: id is recoverable.
        assert_eq!(id_hint(r#"{"id":42,"kind":"dance"}"#), Some(42));
        assert_eq!(id_hint(r#"{"id":42}"#), Some(42));
        // Not JSON / not an object / no usable id: no hint.
        assert_eq!(id_hint("not json"), None);
        assert_eq!(id_hint("[1,2]"), None);
        assert_eq!(id_hint(r#"{"id":"forty-two","kind":"solve"}"#), None);
        assert_eq!(id_hint(r#"{"kind":"solve"}"#), None);
    }

    #[test]
    fn rejects_malformed_requests_with_typed_errors() {
        assert!(matches!(
            parse_request("not json"),
            Err(RequestError::Parse(_))
        ));
        assert!(matches!(
            parse_request("[1,2]"),
            Err(RequestError::BadField {
                field: "(root)",
                ..
            })
        ));
        assert!(matches!(
            parse_request(r#"{"kind":"solve","scenario":"robot"}"#),
            Err(RequestError::BadField { field: "id", .. })
        ));
        assert!(matches!(
            parse_request(r#"{"id":1,"kind":"dance","scenario":"robot"}"#),
            Err(RequestError::UnknownKind(_))
        ));
        assert!(matches!(
            parse_request(r#"{"id":1,"kind":"solve","scenario":"robot","horizon":"big"}"#),
            Err(RequestError::BadField {
                field: "horizon",
                ..
            })
        ));
        assert!(matches!(
            parse_request(r#"{"id":1,"kind":"solve","scenario":"robot","budget":7}"#),
            Err(RequestError::BadField {
                field: "budget",
                ..
            })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"selfdestruct"}"#),
            Err(RequestError::UnknownKind(_))
        ));
    }
}
