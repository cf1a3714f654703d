//! Epistemic–temporal logic for knowledge-based programs.
//!
//! This crate provides the formula language used throughout the
//! `knowledge-programs` workspace: propositional connectives, the knowledge
//! modalities `K_i`, `E_G` (everyone knows), `C_G` (common knowledge) and
//! `D_G` (distributed knowledge) of Fagin–Halpern–Moses–Vardi, and the
//! linear-time operators `X`, `F`, `G`, `U` used in tests that refer to a
//! run's future.
//!
//! The main types are:
//!
//! * [`Vocabulary`] — interns proposition and agent names into dense ids.
//! * [`Formula`] — the recursive formula AST, with smart constructors,
//!   normal forms, structural queries and a printer
//!   ([`Formula::to_string_with`]). The concrete syntax it prints is read
//!   back by `kbp_lang::parse_formula`.
//!
//! # Example
//!
//! ```
//! use kbp_logic::{Formula, Vocabulary};
//!
//! let mut voc = Vocabulary::new();
//! let alice = voc.add_agent("alice");
//! let p = voc.add_prop("p");
//!
//! // K_alice p  — "Alice knows p"
//! let f = Formula::knows(alice, Formula::prop(p));
//! assert!(f.is_subjective_for(alice));
//! assert_eq!(f.to_string_with(&voc), "K{alice} p");
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

mod agents;
mod formula;
mod intern;
mod nnf;
mod objective;
pub mod random;
mod vocabulary;

pub use agents::{Agent, AgentSet, AgentSetIter};
pub use formula::{Formula, PropId, SubformulaIter};
pub use intern::{FormulaArena, FormulaId, InternedNode};
pub use objective::NotObjective;
pub use vocabulary::{Vocabulary, VocabularyError};
