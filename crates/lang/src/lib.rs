#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `kbp-lang` — a textual surface language for knowledge-based programs.
//!
//! A `.kbp` file declares one *scenario*: a finite-state context
//! (agents, state vars, initial states, an environment, observation
//! functions, a transition table) together with one knowledge-based
//! program per agent — guarded cases whose tests are epistemic/temporal
//! formulas.
//!
//! The pipeline has three stages, each usable on its own:
//!
//! 1. [`parse`] — a total, error-recovering parser producing a
//!    span-carrying [`Scenario`] plus diagnostics;
//! 2. [`analyze`](fn@analyze) — semantic checks that report *all*
//!    findings with source spans (unknown names, arity mismatches,
//!    duplicates, missing declarations, the paper's synchrony
//!    condition, subjectivity of guards);
//! 3. [`lower`](fn@lower) — compilation into a
//!    [`kbp_systems::FnContext`] and a [`kbp_core::Kbp`], consumed
//!    unchanged by the solver, the enumerator and the evaluation
//!    engine. Lowering preserves formula structure and
//!    declaration-order numbering, so a DSL transcription of a
//!    hand-coded scenario solves bit-identically.
//!
//! [`compile`] runs all three; [`check`] does the same but also hands
//! back warnings on success (the `kbpc` binary and the `kbpd` `define`
//! endpoint use it).
//!
//! The same grammar is the workspace's only formula and program syntax.
//! [`parse_formula`] reads one guard formula over a
//! [`kbp_logic::Vocabulary`], and [`parse_program`] reads bare `program`
//! blocks against an existing [`kbp_systems::Context`].

pub mod analyze;
pub mod ast;
pub mod diag;
mod entry;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod span;

pub use analyze::{analyze, Analysis};
pub use ast::Scenario;
pub use diag::{has_errors, Diagnostic, Severity};
pub use entry::{parse_formula, parse_program};
pub use lower::{lower, Compiled};
pub use parser::parse;
pub use span::{LineCol, LineMap, Span};

/// Parses, analyzes and (when error-free) lowers one scenario. Returns
/// every diagnostic found, warnings included, alongside the compiled
/// scenario when compilation succeeded.
#[must_use]
pub fn check(src: &str) -> (Option<Compiled>, Vec<Diagnostic>) {
    let (sc, mut diags) = parse(src);
    let Some(sc) = sc else {
        return (None, diags);
    };
    let analysis = analyze(&sc, &mut diags);
    if has_errors(&diags) {
        return (None, diags);
    }
    let compiled = lower(&sc, analysis);
    (Some(compiled), diags)
}

/// Compiles one scenario, failing on any error-severity diagnostic.
///
/// # Errors
///
/// Returns all diagnostics (errors and warnings) when the source does
/// not compile.
pub fn compile(src: &str) -> Result<Compiled, Vec<Diagnostic>> {
    let (compiled, diags) = check(src);
    match compiled {
        Some(c) => Ok(c),
        None => Err(diags),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_rejects_errors_and_keeps_all_diagnostics() {
        let err = compile("scenario broken { agents a vars x init [0, 1] }")
            .expect_err("must not compile");
        assert!(err.len() >= 3, "{err:?}");
    }

    #[test]
    fn check_reports_warnings_on_success() {
        let (compiled, diags) = check(
            "scenario warny { horizon 1 agents a vars x init [0] actions a: m, n obs a = x prop p = x local a: p
              program a { case K{a} X p do n default m } }",
        );
        let c = compiled.expect("warnings do not block compilation");
        assert!(!c.solvable());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
    }
}
