//! Semantic analysis of a parsed scenario.
//!
//! The analyzer reports **all** findings it can see in one pass over
//! the AST — unknown names, arity mismatches, duplicates, missing
//! declarations, misplaced `act`/`env`, duplicate cases, non-inert
//! defaults — each anchored to a source span. Two rules come straight
//! from the paper's treatment of knowledge-based programs:
//!
//! * **Synchrony condition.** In a synchronous context, a guard that
//!   refers to future time falls outside the unique-implementation
//!   theorem. A temporal operator *outside* any knowledge operator is
//!   an error (the guard is not even a knowledge test); *under* a
//!   knowledge operator it is a warning and marks the program
//!   non-solvable (enumeration still works).
//! * **Subjectivity.** Each agent's guards must be about that agent's
//!   own knowledge: bare propositions must be declared `local` to the
//!   agent, `K{i}`/`C`-groups must involve the agent itself.
//!
//! These deliberately mirror `kbp_core`'s `validate` checks so that a
//! scenario passing analysis lowers into a program the solver accepts.

use crate::ast::{Expr, GroupOp, Guard, Ident, NameKind, ProgramDecl, Scenario};
use crate::diag::Diagnostic;
use crate::span::Span;
use kbp_logic::Agent;
use std::collections::{HashMap, HashSet};

/// What the analyzer learned beyond pass/fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Analysis {
    /// Whether the fixed-point solver applies. `false` when any guard
    /// refers to future time (even under a knowledge operator): the
    /// program is outside the unique-implementation theorem and must be
    /// enumerated instead.
    pub solvable: bool,
}

/// Where an integer expression is being evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExprCtx {
    /// `obs`/`prop` right-hand sides: functions of the global state.
    State,
    /// `transition` right-hand sides: may also read `act(…)` and `env`.
    Transition,
}

/// Checks a parsed scenario, appending findings to `diags`. Returns
/// facts lowering needs. Call [`crate::diag::has_errors`] afterwards to
/// decide whether lowering is allowed.
pub fn analyze(sc: &Scenario, diags: &mut Vec<Diagnostic>) -> Analysis {
    let mut cx = Checker {
        sc,
        diags,
        agents: HashMap::new(),
        vars: HashSet::new(),
        props: HashSet::new(),
        env_actions: HashSet::new(),
        actions: HashMap::new(),
        locals: HashMap::new(),
        solvable: true,
    };
    cx.run();
    Analysis {
        solvable: cx.solvable,
    }
}

struct Checker<'a> {
    sc: &'a Scenario,
    diags: &'a mut Vec<Diagnostic>,
    agents: HashMap<&'a str, usize>,
    vars: HashSet<&'a str>,
    props: HashSet<&'a str>,
    env_actions: HashSet<&'a str>,
    /// Agent name → its action repertoire in declaration order.
    actions: HashMap<&'a str, Vec<&'a str>>,
    /// Agent name → propositions declared local to it.
    locals: HashMap<&'a str, HashSet<&'a str>>,
    solvable: bool,
}

impl<'a> Checker<'a> {
    fn error(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.push(Diagnostic::error(span, msg));
    }

    fn warning(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.push(Diagnostic::warning(span, msg));
    }

    fn run(&mut self) {
        self.collect_names();
        self.check_headline();
        self.check_inits();
        self.check_actions();
        self.check_obs();
        self.check_props();
        self.check_locals();
        self.check_transition();
        self.check_programs();
        self.check_coverage();
    }

    // ---- name tables ------------------------------------------------------

    fn collect_names(&mut self) {
        for (i, a) in self.sc.agents.iter().enumerate() {
            if self.agents.insert(&a.text, i).is_some() {
                self.error(a.span, format!("duplicate agent `{}`", a.text));
            }
        }
        for v in &self.sc.vars {
            if !self.vars.insert(&v.text) {
                self.error(v.span, format!("duplicate state var `{}`", v.text));
            }
        }
        for p in &self.sc.props {
            if !self.props.insert(&p.name.text) {
                self.error(
                    p.name.span,
                    format!("duplicate proposition `{}`", p.name.text),
                );
            }
        }
        for e in &self.sc.env_actions {
            if !self.env_actions.insert(&e.text) {
                self.error(e.span, format!("duplicate environment action `{}`", e.text));
            }
        }
    }

    fn known_agent(&mut self, id: &Ident, what: &str) -> bool {
        if self.agents.contains_key(id.text.as_str()) {
            true
        } else {
            self.error(id.span, format!("unknown agent `{}` {what}", id.text));
            false
        }
    }

    // ---- scenario-level checks --------------------------------------------

    fn check_headline(&mut self) {
        let at = self.sc.name.span;
        if self.sc.horizon.is_none() {
            self.error(at, "missing `horizon` declaration");
        }
        if self.sc.agents.is_empty() {
            self.error(at, "missing `agents` declaration");
        } else if self.sc.agents.len() > Agent::MAX_AGENTS {
            self.error(self.sc.agents[Agent::MAX_AGENTS].span, too_many_agents());
        }
        if self.sc.vars.is_empty() {
            self.error(at, "missing `vars` declaration");
        }
        if self.sc.inits.is_empty() {
            self.error(
                at,
                "missing `init` declaration (at least one initial state)",
            );
        }
    }

    fn check_inits(&mut self) {
        let want = self.sc.vars.len();
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        for init in &self.sc.inits {
            if init.values.len() != want {
                self.error(
                    init.span,
                    format!(
                        "`init` vector has {} value(s) but {want} var(s) are declared",
                        init.values.len()
                    ),
                );
                continue;
            }
            for (v, vspan) in &init.values {
                if *v > u64::from(u32::MAX) {
                    self.error(*vspan, "initial value does not fit in a 32-bit register");
                }
            }
            let key: Vec<u64> = init.values.iter().map(|(v, _)| *v).collect();
            if !seen.insert(key) {
                self.error(init.span, "duplicate `init` state");
            }
        }
    }

    fn check_actions(&mut self) {
        for decl in &self.sc.actions {
            if !self.known_agent(&decl.agent, "in `actions`") {
                continue;
            }
            let agent = decl.agent.text.as_str();
            if self.actions.contains_key(agent) {
                self.error(
                    decl.agent.span,
                    format!("duplicate `actions` declaration for agent `{agent}`"),
                );
                continue;
            }
            let mut names = Vec::new();
            for a in &decl.actions {
                if names.contains(&a.text.as_str()) {
                    self.error(
                        a.span,
                        format!("duplicate action `{}` for agent `{agent}`", a.text),
                    );
                } else {
                    names.push(&a.text);
                }
            }
            self.actions.insert(agent, names);
        }
    }

    fn check_obs(&mut self) {
        let mut seen: HashSet<&str> = HashSet::new();
        for decl in &self.sc.obs {
            if self.known_agent(&decl.agent, "in `obs`") && !seen.insert(&decl.agent.text) {
                self.error(
                    decl.agent.span,
                    format!(
                        "duplicate `obs` declaration for agent `{}`",
                        decl.agent.text
                    ),
                );
            }
            self.check_expr(&decl.expr, ExprCtx::State);
        }
    }

    fn check_props(&mut self) {
        for decl in &self.sc.props {
            self.check_expr(&decl.expr, ExprCtx::State);
        }
    }

    fn check_locals(&mut self) {
        for decl in &self.sc.locals {
            if !self.known_agent(&decl.agent, "in `local`") {
                continue;
            }
            let entry = self.locals.entry(&decl.agent.text).or_default();
            let mut fresh: Vec<(&str, Span)> = Vec::new();
            for p in &decl.props {
                if entry.contains(p.text.as_str()) {
                    fresh.push((&p.text, p.span));
                    continue;
                }
                entry.insert(&p.text);
            }
            for (name, span) in fresh {
                self.error(
                    span,
                    format!(
                        "proposition `{name}` already declared local to `{}`",
                        decl.agent.text
                    ),
                );
            }
            for p in &decl.props {
                if !self.props.contains(p.text.as_str()) {
                    self.error(p.span, format!("unknown proposition `{}`", p.text));
                }
            }
        }
    }

    fn check_transition(&mut self) {
        let Some(t) = &self.sc.transition else {
            return;
        };
        let mut seen: HashSet<&str> = HashSet::new();
        for u in &t.updates {
            if !self.vars.contains(u.var.text.as_str()) {
                self.error(u.var.span, format!("unknown state var `{}`", u.var.text));
            } else if !seen.insert(&u.var.text) {
                self.error(
                    u.var.span,
                    format!("duplicate update for state var `{}`", u.var.text),
                );
            }
            self.check_expr(&u.expr, ExprCtx::Transition);
        }
    }

    // ---- expressions ------------------------------------------------------

    fn check_expr(&mut self, e: &Expr, ctx: ExprCtx) {
        use crate::ast::BinOp;
        match e {
            Expr::Num(..) => {}
            Expr::Var(id) => {
                if !self.vars.contains(id.text.as_str()) {
                    self.error(id.span, format!("unknown state var `{}`", id.text));
                }
            }
            Expr::Act(agent, span) => {
                if ctx != ExprCtx::Transition {
                    self.error(
                        *span,
                        "`act(…)` is only available in `transition` expressions",
                    );
                }
                self.known_agent(agent, "in `act(…)`");
            }
            Expr::Env(span) => {
                if ctx != ExprCtx::Transition {
                    self.error(*span, "`env` is only available in `transition` expressions");
                }
            }
            Expr::Not(inner, _) => self.check_expr(inner, ctx),
            Expr::If(c, a, b, _) => {
                self.check_expr(c, ctx);
                self.check_expr(a, ctx);
                self.check_expr(b, ctx);
            }
            Expr::Bin(op, a, b, _) => {
                // In `act(i) == name` / `env != name`, the identifier
                // resolves as an action name, not a state var.
                if matches!(op, BinOp::Eq | BinOp::Ne) {
                    if let Some(()) = self.check_action_compare(a, b, ctx) {
                        return;
                    }
                    if let Some(()) = self.check_action_compare(b, a, ctx) {
                        return;
                    }
                }
                self.check_expr(a, ctx);
                self.check_expr(b, ctx);
            }
        }
    }

    /// If `lhs` is `act(…)` or `env` and `rhs` a bare identifier,
    /// resolves the identifier as an action name and returns `Some`.
    fn check_action_compare(&mut self, lhs: &Expr, rhs: &Expr, ctx: ExprCtx) -> Option<()> {
        let Expr::Var(name) = rhs else {
            return None;
        };
        match lhs {
            Expr::Act(agent, _) => {
                self.check_expr(lhs, ctx);
                if self.agents.contains_key(agent.text.as_str()) {
                    let known = self
                        .actions
                        .get(agent.text.as_str())
                        .is_some_and(|r| r.contains(&name.text.as_str()));
                    if !known {
                        self.error(
                            name.span,
                            format!("unknown action `{}` for agent `{}`", name.text, agent.text),
                        );
                    }
                }
                Some(())
            }
            Expr::Env(_) => {
                self.check_expr(lhs, ctx);
                if !self.env_actions.contains(name.text.as_str()) {
                    self.error(
                        name.span,
                        format!("unknown environment action `{}`", name.text),
                    );
                }
                Some(())
            }
            _ => None,
        }
    }

    // ---- programs ---------------------------------------------------------

    fn check_programs(&mut self) {
        let mut seen: HashSet<&str> = HashSet::new();
        for prog in &self.sc.programs {
            if self.known_agent(&prog.agent, "in `program`") && !seen.insert(&prog.agent.text) {
                self.error(
                    prog.agent.span,
                    format!(
                        "duplicate `program` declaration for agent `{}`",
                        prog.agent.text
                    ),
                );
            }
            self.check_program(prog);
        }
    }

    fn check_program(&mut self, prog: &'a ProgramDecl) {
        let agent = prog.agent.text.as_str();
        let repertoire: Vec<String> = self
            .actions
            .get(agent)
            .map(|r| r.iter().map(|s| (*s).to_string()).collect())
            .unwrap_or_default();
        // Action names must come from the agent's repertoire.
        for case in &prog.cases {
            if !repertoire.is_empty() && !repertoire.iter().any(|r| r == &case.action.text) {
                self.error(
                    case.action.span,
                    format!("unknown action `{}` for agent `{agent}`", case.action.text),
                );
            }
        }
        if let Some(d) = &prog.default {
            if !repertoire.is_empty() && !repertoire.iter().any(|r| r == &d.text) {
                self.error(
                    d.span,
                    format!("unknown action `{}` for agent `{agent}`", d.text),
                );
            }
        }
        // Structurally identical guards: the later case can never fire.
        for (i, case) in prog.cases.iter().enumerate() {
            for earlier in &prog.cases[..i] {
                if case.guard.same_shape(&earlier.guard) {
                    self.error(
                        case.guard.span(),
                        format!(
                            "duplicate case: this guard is identical to an earlier case of agent `{agent}`"
                        ),
                    );
                    break;
                }
            }
        }
        // The paper's defaults are inert: if the transition distinguishes
        // the default action, doing-nothing has effects.
        let default_name: Option<String> = prog
            .default
            .as_ref()
            .map(|d| d.text.clone())
            .or_else(|| repertoire.first().cloned());
        if let (Some(def), Some(t)) = (&default_name, &self.sc.transition) {
            let mut mentioned = None;
            for u in &t.updates {
                find_act_mention(&u.expr, agent, def, &mut mentioned);
            }
            if let Some(span) = mentioned {
                let at = prog.default.as_ref().map_or(span, |d| d.span);
                self.warning(
                    at,
                    format!(
                        "default action `{def}` of agent `{agent}` is tested in the transition; defaults should be inert (no observable effect)"
                    ),
                );
            }
        }
        // Guard-level checks.
        for case in &prog.cases {
            let names_ok = self.check_guard_names(&case.guard);
            if let Some(span) = bare_temporal(&case.guard) {
                self.error(
                    span,
                    "guard refers to future time outside any knowledge operator; knowledge-based program tests must be knowledge formulas",
                );
                continue;
            }
            if case.guard.has_temporal() {
                self.warning(
                    case.guard.span(),
                    "guard refers to future time in a synchronous context; the unique-implementation theorem does not apply, so this scenario can only be enumerated, not solved",
                );
                self.solvable = false;
            }
            if names_ok {
                if let Err(span) = self.subjective(&case.guard, agent) {
                    self.error(
                        span,
                        format!(
                            "guard is not subjective for agent `{agent}`: tests must concern the agent's own knowledge (declare propositions with `local {agent}: …` or wrap them in `K{{{agent}}}`)"
                        ),
                    );
                }
            }
        }
    }

    /// Resolves every name in a guard; returns whether all resolved.
    fn check_guard_names(&mut self, g: &Guard) -> bool {
        let (agents, props) = (&self.agents, &self.props);
        check_guard_names(
            g,
            |kind, name| match kind {
                NameKind::Prop => props.contains(name),
                NameKind::KnowsAgent | NameKind::GroupAgent => agents.contains_key(name),
            },
            self.diags,
        )
    }

    /// Mirrors `kbp_core`'s subjectivity predicate: the guard must be a
    /// statement about `agent`'s own knowledge. Returns the span of the
    /// first offending subformula.
    fn subjective(&self, g: &Guard, agent: &str) -> Result<(), Span> {
        match g {
            Guard::True(_) | Guard::False(_) => Ok(()),
            Guard::Prop(id) => {
                let local = self
                    .locals
                    .get(agent)
                    .is_some_and(|set| set.contains(id.text.as_str()));
                if local {
                    Ok(())
                } else {
                    Err(id.span)
                }
            }
            Guard::Not(inner, _)
            | Guard::Next(inner, _)
            | Guard::Eventually(inner, _)
            | Guard::Always(inner, _) => self.subjective(inner, agent),
            Guard::And(items, _) | Guard::Or(items, _) => {
                for item in items {
                    self.subjective(item, agent)?;
                }
                Ok(())
            }
            Guard::Implies(a, b, _) | Guard::Iff(a, b, _) | Guard::Until(a, b, _) => {
                self.subjective(a, agent)?;
                self.subjective(b, agent)
            }
            Guard::Knows(who, _, span) => {
                if who.text == agent {
                    Ok(())
                } else {
                    Err(*span)
                }
            }
            Guard::Group(op, agents, _, span) => {
                let involved = agents.iter().any(|a| a.text == agent);
                let singleton_self = agents.len() == 1 && involved;
                let ok = match op {
                    GroupOp::Common => involved,
                    GroupOp::Everyone | GroupOp::Distributed => singleton_self,
                };
                if ok {
                    Ok(())
                } else {
                    Err(*span)
                }
            }
        }
    }

    // ---- coverage ---------------------------------------------------------

    fn check_coverage(&mut self) {
        let mut missing = Vec::new();
        for a in &self.sc.agents {
            let name = a.text.as_str();
            if !self.actions.contains_key(name) {
                missing.push((
                    a.span,
                    format!("agent `{name}` has no `actions` declaration"),
                ));
            } else if self.actions.get(name).is_some_and(Vec::is_empty) {
                missing.push((
                    a.span,
                    format!("agent `{name}` has an empty action repertoire"),
                ));
            }
            if !self.sc.obs.iter().any(|o| o.agent.text == name) {
                missing.push((a.span, format!("agent `{name}` has no `obs` declaration")));
            }
            if !self.sc.programs.iter().any(|p| p.agent.text == name) {
                missing.push((
                    a.span,
                    format!("agent `{name}` has no `program` declaration"),
                ));
            }
        }
        for (span, msg) in missing {
            self.error(span, msg);
        }
    }
}

/// Reports every name of `g` that `known` does not resolve, in source
/// order; returns whether all resolved. The scenario analyzer and
/// [`crate::parse_program`] share it, so both word the errors alike.
pub(crate) fn check_guard_names(
    g: &Guard,
    known: impl Fn(NameKind, &str) -> bool,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let mut ok = true;
    g.for_each_name(&mut |kind, id| {
        if known(kind, &id.text) {
            return;
        }
        ok = false;
        let message = match kind {
            NameKind::Prop => format!("unknown proposition `{}`", id.text),
            NameKind::KnowsAgent => format!("unknown agent `{}` in `K{{…}}`", id.text),
            NameKind::GroupAgent => format!("unknown agent `{}` in the agent group", id.text),
        };
        diags.push(Diagnostic::error(id.span, message));
    });
    ok
}

/// The refusal for an agent past [`Agent::MAX_AGENTS`].
pub(crate) fn too_many_agents() -> String {
    format!("too many agents (the limit is {})", Agent::MAX_AGENTS)
}

/// The span of the first temporal operator not guarded by a knowledge
/// operator, if any (mirrors `kbp_core`'s `temporal_under_epistemic`).
fn bare_temporal(g: &Guard) -> Option<Span> {
    match g {
        Guard::True(_) | Guard::False(_) | Guard::Prop(_) => None,
        // Below a knowledge operator, temporal operators are allowed
        // (they make the program non-solvable, not ill-formed).
        Guard::Knows(..) | Guard::Group(..) => None,
        Guard::Next(_, s) | Guard::Eventually(_, s) | Guard::Always(_, s) => Some(*s),
        Guard::Until(_, _, s) => Some(*s),
        Guard::Not(inner, _) => bare_temporal(inner),
        Guard::And(items, _) | Guard::Or(items, _) => items.iter().find_map(bare_temporal),
        Guard::Implies(a, b, _) | Guard::Iff(a, b, _) => {
            bare_temporal(a).or_else(|| bare_temporal(b))
        }
    }
}

/// Records whether `act(agent) ==/!= name` occurs in an expression.
fn find_act_mention(e: &Expr, agent: &str, name: &str, out: &mut Option<Span>) {
    use crate::ast::BinOp;
    if out.is_some() {
        return;
    }
    match e {
        Expr::Num(..) | Expr::Var(_) | Expr::Act(..) | Expr::Env(_) => {}
        Expr::Not(inner, _) => find_act_mention(inner, agent, name, out),
        Expr::If(c, a, b, _) => {
            find_act_mention(c, agent, name, out);
            find_act_mention(a, agent, name, out);
            find_act_mention(b, agent, name, out);
        }
        Expr::Bin(op, a, b, span) => {
            if matches!(op, BinOp::Eq | BinOp::Ne) {
                let hit = matches!(
                    (&**a, &**b),
                    (Expr::Act(ag, _), Expr::Var(n)) if ag.text == agent && n.text == name
                ) || matches!(
                    (&**a, &**b),
                    (Expr::Var(n), Expr::Act(ag, _)) if ag.text == agent && n.text == name
                );
                if hit {
                    *out = Some(*span);
                    return;
                }
            }
            find_act_mention(a, agent, name, out);
            find_act_mention(b, agent, name, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{has_errors, Severity};
    use crate::parser::parse;

    fn check(src: &str) -> (Analysis, Vec<Diagnostic>) {
        let (sc, mut diags) = parse(src);
        let sc = sc.expect("parses");
        let analysis = analyze(&sc, &mut diags);
        (analysis, diags)
    }

    const CLEAN: &str = "
scenario clean {
  horizon 2
  agents a
  vars x
  init [0]
  actions a: stay, move
  obs a = x
  prop set = x == 1
  local a: set
  transition { x = if act(a) == move then 1 else x }
  program a {
    case K{a} set do move
    default stay
  }
}
";

    #[test]
    fn clean_scenario_has_no_findings() {
        let (analysis, diags) = check(CLEAN);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(analysis.solvable);
    }

    #[test]
    fn reports_unknown_names_with_spans() {
        let (_, diags) = check(
            "scenario s { horizon 1 agents a vars x init [0] actions a: m
              obs a = y
              prop p = x
              local a: p
              transition { z = act(b) }
              program a { case K{c} q do w default m } }",
        );
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("unknown state var `y`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("unknown state var `z`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("unknown agent `b`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("unknown agent `c`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("unknown proposition `q`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("unknown action `w`")),
            "{msgs:?}"
        );
        for d in &diags {
            assert!(!d.span.is_empty(), "diagnostic without a span: {d:?}");
        }
    }

    #[test]
    fn init_arity_mismatch_is_reported() {
        let (_, diags) = check(
            "scenario s { horizon 1 agents a vars x, y init [0] actions a: m obs a = x program a { default m } }",
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("1 value(s) but 2 var(s)")),
            "{diags:?}"
        );
    }

    #[test]
    fn act_outside_transition_is_an_error() {
        let (_, diags) = check(
            "scenario s { horizon 1 agents a vars x init [0] actions a: m obs a = act(a) program a { default m } }",
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("only available in `transition`")),
            "{diags:?}"
        );
    }

    #[test]
    fn duplicate_case_is_reported() {
        let (_, diags) = check(
            "scenario s { horizon 1 agents a vars x init [0] actions a: m, n obs a = x prop p = x local a: p
              program a { case K{a} p do n case K{a} p do m default m } }",
        );
        assert!(
            diags.iter().any(|d| d.message.contains("duplicate case")),
            "{diags:?}"
        );
    }

    #[test]
    fn non_inert_default_warns() {
        let (_, diags) = check(
            "scenario s { horizon 1 agents a vars x init [0] actions a: m, n obs a = x
              transition { x = if act(a) == m then 1 else 0 }
              program a { default m } }",
        );
        let w: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect();
        assert!(
            w.iter()
                .any(|d| d.message.contains("defaults should be inert")),
            "{diags:?}"
        );
    }

    #[test]
    fn bare_temporal_guard_is_an_error() {
        let (_, diags) = check(
            "scenario s { horizon 1 agents a vars x init [0] actions a: m, n obs a = x prop p = x local a: p
              program a { case X p do n default m } }",
        );
        assert!(
            diags.iter().any(|d| d.severity == Severity::Error
                && d.message.contains("outside any knowledge operator")),
            "{diags:?}"
        );
    }

    #[test]
    fn temporal_under_knowledge_warns_and_disables_solving() {
        let (analysis, diags) = check(
            "scenario s { horizon 1 agents a vars x init [0] actions a: m, n obs a = x prop p = x local a: p
              program a { case K{a} X p do n default m } }",
        );
        assert!(!analysis.solvable);
        assert!(
            diags.iter().any(|d| d.severity == Severity::Warning
                && d.message.contains("unique-implementation theorem")),
            "{diags:?}"
        );
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn non_subjective_guard_is_an_error() {
        // `p` is not local to `a`, and K{b} is about the wrong agent.
        let (_, diags) = check(
            "scenario s { horizon 1 agents a, b vars x init [0] actions a: m, n actions b: m obs a = x obs b = x prop p = x
              program a { case p do n case K{b} p do n default m } program b { default m } }",
        );
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.message.contains("not subjective"))
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn group_subjectivity_follows_core_rules() {
        // C including the agent: fine. E of someone else: not subjective.
        let (_, diags) = check(
            "scenario s { horizon 1 agents a, b vars x init [0] actions a: m, n actions b: m obs a = x obs b = x prop p = x
              program a { case C{a,b} p do n case E{b} p do n default m } program b { default m } }",
        );
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.message.contains("not subjective"))
                .count(),
            1,
            "{diags:?}"
        );
    }

    #[test]
    fn missing_coverage_is_reported_per_agent() {
        let (_, diags) = check("scenario s { horizon 1 agents a, b vars x init [0] }");
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        for agent in ["a", "b"] {
            assert!(
                msgs.iter()
                    .any(|m| m.contains(&format!("agent `{agent}` has no `actions`"))),
                "{msgs:?}"
            );
            assert!(
                msgs.iter()
                    .any(|m| m.contains(&format!("agent `{agent}` has no `obs`"))),
                "{msgs:?}"
            );
            assert!(
                msgs.iter()
                    .any(|m| m.contains(&format!("agent `{agent}` has no `program`"))),
                "{msgs:?}"
            );
        }
    }

    #[test]
    fn env_action_comparison_resolves_action_names() {
        let (_, diags) = check(
            "scenario s { horizon 1 agents a vars x init [0] env good, bad actions a: m obs a = x
              transition { x = if env == bad then 0 else (if env == nope then 1 else x) }
              program a { default m } }",
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unknown environment action `nope`")),
            "{diags:?}"
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }
}
