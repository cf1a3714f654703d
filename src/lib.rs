//! `knowledge-programs` — a Rust implementation of **Knowledge-Based
//! Programs** (Fagin, Halpern, Moses, Vardi; PODC 1995).
//!
//! A knowledge-based program prescribes actions as a function of what an
//! agent *knows* ("if you know the receiver got the bit, stop sending").
//! This workspace provides the full stack needed to give such programs
//! meaning and to run them:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`kbp_logic`] | epistemic–temporal formulas, vocabulary, printer |
//! | [`kbp_kripke`] | finite S5ₙ models, `K`/`E`/`C`/`D`, announcements, bisimulation |
//! | [`kbp_systems`] | contexts, protocols, generated interpreted systems, point evaluation |
//! | [`kbp_core`] | KBPs, the fixed-point implementation relation, the unique-implementation solver, the implementation enumerator |
//! | [`kbp_lang`] | the one concrete syntax: `.kbp` scenarios, formulas and `program` blocks, with spanned diagnostics |
//! | [`kbp_mck`] | CTLK model checking over reachable-state graphs |
//! | [`kbp_faults`] | fault-injecting context combinators: scheduled message loss, crash-stop/recovery, observation corruption |
//! | [`kbp_scenarios`] | the paper's worked examples (bit transmission, muddy children, sequence transmission, robot, fixed-point zoo) |
//! | [`kbp_service`] | the `kbpd` batch-solving service: JSON line protocol, bounded job queue, deterministic worker pool, persisted scenario definitions |
//!
//! # Quickstart
//!
//! Derive the bit-transmission protocol from its knowledge-based
//! description and verify it:
//!
//! ```
//! use knowledge_programs::prelude::*;
//!
//! let scenario = BitTransmission::new(Channel::Lossy);
//! let ctx = scenario.context();
//! let kbp = scenario.kbp();
//!
//! // The unique implementation (tests are past-determined):
//! let solution = SyncSolver::new(&ctx, &kbp).horizon(5).solve()?;
//!
//! // It is a fixed point of the program…
//! let report = check_implementation(&ctx, &kbp, solution.protocol(), Recall::Perfect, 5)?;
//! assert!(report.is_implementation());
//!
//! // …and satisfies the knowledge ladder: with an ack in hand, the
//! // sender knows the receiver knows the bit.
//! assert!(solution.system().holds_initially(&scenario.ladder())?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kbp_core;
pub use kbp_faults;
pub use kbp_kripke;
pub use kbp_lang;
pub use kbp_logic;
pub use kbp_mck;
pub use kbp_scenarios;
pub use kbp_service;
pub use kbp_systems;

// The README's Rust examples run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use kbp_core::{
        check_implementation, Budget, BudgetExhausted, Controller, ControllerProtocol, Enumeration,
        Enumerator, Implementation, ImplementationReport, Kbp, KbpError, LayerStats,
        PartialSolution, Resource, Solution, SolveError, SolveOutcome, SyncSolver,
    };
    pub use kbp_faults::{CrashKind, EnvFault, FaultSchedule, FaultyContext};
    pub use kbp_kripke::{BitSet, S5Builder, S5Model, WorldId};
    pub use kbp_lang::{parse_formula as parse, parse_program};
    pub use kbp_logic::{Agent, AgentSet, Formula, PropId, Vocabulary};
    pub use kbp_mck::{ctl, Mck, StateGraph};
    pub use kbp_scenarios::bit_transmission::{BitTransmission, Channel};
    pub use kbp_scenarios::coordinated_attack::CoordinatedAttack;
    pub use kbp_scenarios::fixed_point_zoo;
    pub use kbp_scenarios::muddy_children::MuddyChildren;
    pub use kbp_scenarios::robot::Robot;
    pub use kbp_scenarios::sequence_transmission::{SequenceTransmission, Tagging};
    pub use kbp_service::{JobKind, JobRequest, Service, ServiceConfig};
    pub use kbp_systems::{
        generate, ActionId, Context, ContextBuilder, EnvActionId, Evaluator, FnContext,
        GlobalState, InterpretedSystem, LocalView, MapProtocol, Obs, Point, ProtocolFn, Recall,
        SystemBuilder,
    };
}
