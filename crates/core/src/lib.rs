//! Knowledge-based programs (Fagin–Halpern–Moses–Vardi, PODC 1995) — the
//! core of the `knowledge-programs` workspace.
//!
//! A *knowledge-based program* ([`Kbp`]) is a guarded-case statement per
//! agent whose guards test the agent's **knowledge** (`K_i φ`, `C_G φ`, …)
//! rather than raw observations. Such a program is not directly
//! executable: its tests refer to the interpreted system generated by the
//! very protocol that executes it. Its meaning is the set of standard
//! protocols `P` satisfying the fixed-point equation
//!
//! ```text
//! P = Pg^{ I^rep(P, γ) }
//! ```
//!
//! ("evaluate the program's tests in the system you yourself generate;
//! you must get yourself back").
//!
//! This crate provides:
//!
//! * [`Kbp`] — program syntax, subjectivity validation, induced action
//!   sets.
//! * [`SyncSolver`] — the **unique-implementation theorem** as an
//!   algorithm: for past-determined guards in a synchronous context, the
//!   fixed point is constructed by induction on time (no search) and is
//!   provably unique.
//! * [`check_implementation`] — the fixed-point test for any candidate
//!   protocol, including future-referring guards.
//! * [`Enumerator`] — exhaustive search for *all* bounded implementations;
//!   reproduces FHMV's zero/one/many-implementations phenomenology.
//!
//! # Example
//!
//! ```
//! use kbp_core::{Kbp, SyncSolver};
//! use kbp_logic::{Agent, Formula, Vocabulary};
//! use kbp_systems::{ActionId, ContextBuilder, GlobalState, Obs};
//!
//! // A lamp the agent can see; "if you don't know it's lit, switch it on".
//! let mut voc = Vocabulary::new();
//! let a_name = voc.add_agent("a");
//! let lit = voc.add_prop("lit");
//! let ctx = ContextBuilder::new(voc)
//!     .initial_state(GlobalState::new(vec![0]))
//!     .agent_actions(a_name, ["noop", "switch"])
//!     .transition(|s, j| if j.acts[0] == ActionId(1) { s.with_reg(0, 1) } else { s.clone() })
//!     .observe(|_, s| Obs(u64::from(s.reg(0))))
//!     .props(move |p, s| p == lit && s.reg(0) == 1)
//!     .build();
//!
//! let a = Agent::new(0);
//! let kbp = Kbp::builder()
//!     .clause(a, Formula::not(Formula::knows(a, Formula::prop(lit))), ActionId(1))
//!     .default_action(a, ActionId(0))
//!     .build();
//!
//! let solution = SyncSolver::new(&ctx, &kbp).horizon(4).solve()?;
//! // Unique implementation: switch once, then stop.
//! assert_eq!(solution.protocol().get(a, &[Obs(0)]), Some(&[ActionId(1)][..]));
//! assert_eq!(solution.protocol().get(a, &[Obs(0), Obs(1)]), Some(&[ActionId(0)][..]));
//! # Ok::<(), kbp_core::SolveError>(())
//! ```

// Robustness gate: the library surface must stay panic-free so malformed
// inputs (e.g. from the fault-injection layer) surface as typed errors.
// Tests and benches are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod enumerate;
mod fsm;
mod implement;
mod program;
mod solve;

pub use budget::{approx_memory_bytes, Budget, BudgetExhausted, LayerStats, Resource};
pub use enumerate::{Enumeration, Enumerator, Implementation};
pub use fsm::{Controller, ControllerProtocol, ControllerState};
pub use implement::{check_implementation, ImplementationReport, Mismatch};
pub use program::{AgentProgram, Clause, Kbp, KbpBuilder, KbpError};
pub use solve::{
    PartialSolution, Solution, SolveError, SolveOutcome, SolveStats, SyncSolver,
    DEFAULT_CARRY_THRESHOLD,
};
