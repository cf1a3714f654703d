//! The span-carrying AST of a `.kbp` scenario, plus the canonical
//! pretty-printer (`to_source`) the round-trip property tests rely on:
//! `parse(s.to_source())` must succeed and print back byte-identically.

use crate::span::Span;
use std::fmt::Write as _;

/// An identifier with its source span.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ident {
    /// The identifier text.
    pub text: String,
    /// Where it appears.
    pub span: Span,
}

impl Ident {
    /// Creates an identifier (tests and generators use a default span).
    #[must_use]
    pub fn new(text: impl Into<String>, span: Span) -> Self {
        Ident {
            text: text.into(),
            span,
        }
    }
}

/// Local-state evolution declared by `recall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecallKind {
    /// `recall perfect` (the default): local state = observation history.
    #[default]
    Perfect,
    /// `recall observational`: local state = current observation.
    Observational,
}

/// A whole scenario: one context plus one knowledge-based program per
/// agent.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Scenario {
    /// The scenario name (the wire name a `define` registers).
    pub name: Ident,
    /// Span of the whole `scenario … { … }` block.
    pub span: Span,
    /// `horizon N` — the default solve horizon.
    pub horizon: Option<(u64, Span)>,
    /// `recall perfect|observational`.
    pub recall: Option<(RecallKind, Span)>,
    /// `agents a, b, …` — declaration order is agent-id order.
    pub agents: Vec<Ident>,
    /// `vars x, y, …` — declaration order is register order.
    pub vars: Vec<Ident>,
    /// `init [v, …]` lines — declaration order is initial-state order.
    pub inits: Vec<InitDecl>,
    /// `env e, f, …` — environment action names (empty: one inert
    /// unnamed move).
    pub env_actions: Vec<Ident>,
    /// `actions agent: a, b, …` lines.
    pub actions: Vec<ActionsDecl>,
    /// `obs agent = expr` lines.
    pub obs: Vec<ObsDecl>,
    /// `prop name = expr` lines — declaration order is proposition-id
    /// order; the proposition holds where the expression is nonzero.
    pub props: Vec<PropDecl>,
    /// `local agent: p, q` lines — propositions usable bare in that
    /// agent's guards.
    pub locals: Vec<LocalDecl>,
    /// The `transition { var = expr … }` block (all right-hand sides
    /// read the pre-step state; unassigned vars keep their value).
    pub transition: Option<TransitionDecl>,
    /// `program agent { case … default … }` blocks.
    pub programs: Vec<ProgramDecl>,
}

/// One `init [v, …]` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitDecl {
    /// The register values, in `vars` order.
    pub values: Vec<(u64, Span)>,
    /// Span of the whole line.
    pub span: Span,
}

/// One `actions agent: a, b, …` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionsDecl {
    /// Whose repertoire this is.
    pub agent: Ident,
    /// Action names; list order is `ActionId` order.
    pub actions: Vec<Ident>,
    /// Span of the whole line.
    pub span: Span,
}

/// One `obs agent = expr` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsDecl {
    /// Whose observation this is.
    pub agent: Ident,
    /// The observation value (a function of the global state only).
    pub expr: Expr,
    /// Span of the whole line.
    pub span: Span,
}

/// One `prop name = expr` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropDecl {
    /// The proposition name.
    pub name: Ident,
    /// Holds where this evaluates nonzero (a function of the global
    /// state only).
    pub expr: Expr,
    /// Span of the whole line.
    pub span: Span,
}

/// One `local agent: p, q` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalDecl {
    /// The agent the propositions are local to.
    pub agent: Ident,
    /// The propositions.
    pub props: Vec<Ident>,
    /// Span of the whole line.
    pub span: Span,
}

/// The `transition { … }` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionDecl {
    /// Simultaneous register updates.
    pub updates: Vec<UpdateDecl>,
    /// Span of the whole block.
    pub span: Span,
}

/// One `var = expr` update inside `transition`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateDecl {
    /// The register being assigned.
    pub var: Ident,
    /// Its next value (reads pre-step state, `act(…)` and `env`).
    pub expr: Expr,
    /// Span of the whole update.
    pub span: Span,
}

/// One `program agent { … }` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramDecl {
    /// Whose program this is.
    pub agent: Ident,
    /// The guarded cases, in declaration order.
    pub cases: Vec<CaseDecl>,
    /// `default action` — performed when no guard holds (first
    /// repertoire action if omitted).
    pub default: Option<Ident>,
    /// Span of the whole block.
    pub span: Span,
}

/// One `case guard do action` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseDecl {
    /// The knowledge test.
    pub guard: Guard,
    /// The action performed when the guard holds.
    pub action: Ident,
    /// Span of the whole case.
    pub span: Span,
}

/// Binary integer operators, in Rust precedence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `*`
    Mul,
    /// `+`
    Add,
    /// `-` (wrapping)
    Sub,
    /// `<<` (zero past 63)
    Shl,
    /// `>>` (zero past 63)
    Shr,
    /// `&`
    BitAnd,
    /// `^`
    BitXor,
    /// `|`
    BitOr,
    /// `==` (yields 0/1)
    Eq,
    /// `!=` (yields 0/1)
    Ne,
    /// `<` (yields 0/1)
    Lt,
    /// `<=` (yields 0/1)
    Le,
    /// `>` (yields 0/1)
    Gt,
    /// `>=` (yields 0/1)
    Ge,
    /// `&&` (on nonzero-ness, yields 0/1)
    And,
    /// `||` (on nonzero-ness, yields 0/1)
    Or,
}

impl BinOp {
    /// The surface spelling.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Mul => "*",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitXor => "^",
            BinOp::BitOr => "|",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Binding strength: higher binds tighter (mirrors Rust).
    #[must_use]
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Mul => 9,
            BinOp::Add | BinOp::Sub => 8,
            BinOp::Shl | BinOp::Shr => 7,
            BinOp::BitAnd => 6,
            BinOp::BitXor => 5,
            BinOp::BitOr => 4,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::And => 2,
            BinOp::Or => 1,
        }
    }
}

/// An integer expression over the global state. Evaluation is in `u64`
/// with wrapping arithmetic; comparisons and logical operators yield
/// 0/1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    Num(u64, Span),
    /// A state register, by `vars` name.
    Var(Ident),
    /// `act(agent)` — the agent's chosen action this step (transition
    /// expressions only). Compared with `==`/`!=` against an action
    /// name of that agent.
    Act(Ident, Span),
    /// `env` — the environment's move this step (transition expressions
    /// only). Compared against an `env` action name.
    Env(Span),
    /// `!e` — logical negation (0 ↦ 1, nonzero ↦ 0).
    Not(Box<Expr>, Span),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>, Span),
    /// `if c then a else b`.
    If(Box<Expr>, Box<Expr>, Box<Expr>, Span),
}

impl Expr {
    /// The source span of the expression.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Expr::Num(_, s) | Expr::Act(_, s) | Expr::Env(s) => *s,
            Expr::Var(i) => i.span,
            Expr::Not(_, s) | Expr::Bin(_, _, _, s) | Expr::If(_, _, _, s) => *s,
        }
    }
}

/// Group modalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupOp {
    /// `E{…}` — everyone knows.
    Everyone,
    /// `C{…}` — common knowledge.
    Common,
    /// `D{…}` — distributed knowledge.
    Distributed,
}

impl GroupOp {
    /// The surface letter.
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            GroupOp::Everyone => 'E',
            GroupOp::Common => 'C',
            GroupOp::Distributed => 'D',
        }
    }
}

/// A guard formula — the epistemic/temporal test of a `case`, and the
/// AST [`crate::parse_formula`] reads a formula into. Its precedence is
/// the one `Formula::to_string_with` prints, so lowered guards are
/// structurally identical to hand-built ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// `true`.
    True(Span),
    /// `false`.
    False(Span),
    /// A proposition, by `prop` name.
    Prop(Ident),
    /// `!g`.
    Not(Box<Guard>, Span),
    /// `g & g & …` (flattened, ≥ 2 items).
    And(Vec<Guard>, Span),
    /// `g | g | …` (flattened, ≥ 2 items).
    Or(Vec<Guard>, Span),
    /// `g -> g` (right-associative).
    Implies(Box<Guard>, Box<Guard>, Span),
    /// `g <-> g` (right-associative).
    Iff(Box<Guard>, Box<Guard>, Span),
    /// `K{agent} g`.
    Knows(Ident, Box<Guard>, Span),
    /// `E{…} g`, `C{…} g` or `D{…} g`.
    Group(GroupOp, Vec<Ident>, Box<Guard>, Span),
    /// `X g`.
    Next(Box<Guard>, Span),
    /// `F g`.
    Eventually(Box<Guard>, Span),
    /// `G g`.
    Always(Box<Guard>, Span),
    /// `g U g` (right-associative).
    Until(Box<Guard>, Box<Guard>, Span),
}

/// What a name in a guard denotes (see [`Guard::for_each_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NameKind {
    /// A proposition.
    Prop,
    /// The agent of a `K{…}`.
    KnowsAgent,
    /// A member of an `E{…}`, `C{…}` or `D{…}` group.
    GroupAgent,
}

impl Guard {
    /// Calls `f` on every proposition and agent name of the guard, in
    /// source order.
    pub(crate) fn for_each_name(&self, f: &mut impl FnMut(NameKind, &Ident)) {
        match self {
            Guard::True(_) | Guard::False(_) => {}
            Guard::Prop(id) => f(NameKind::Prop, id),
            Guard::Not(inner, _)
            | Guard::Next(inner, _)
            | Guard::Eventually(inner, _)
            | Guard::Always(inner, _) => inner.for_each_name(f),
            Guard::And(items, _) | Guard::Or(items, _) => {
                for item in items {
                    item.for_each_name(f);
                }
            }
            Guard::Implies(a, b, _) | Guard::Iff(a, b, _) | Guard::Until(a, b, _) => {
                a.for_each_name(f);
                b.for_each_name(f);
            }
            Guard::Knows(agent, inner, _) => {
                f(NameKind::KnowsAgent, agent);
                inner.for_each_name(f);
            }
            Guard::Group(_, agents, inner, _) => {
                for agent in agents {
                    f(NameKind::GroupAgent, agent);
                }
                inner.for_each_name(f);
            }
        }
    }

    /// The source span of the guard.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Guard::True(s) | Guard::False(s) => *s,
            Guard::Prop(i) => i.span,
            Guard::Not(_, s)
            | Guard::And(_, s)
            | Guard::Or(_, s)
            | Guard::Implies(_, _, s)
            | Guard::Iff(_, _, s)
            | Guard::Knows(_, _, s)
            | Guard::Group(_, _, _, s)
            | Guard::Next(_, s)
            | Guard::Eventually(_, s)
            | Guard::Always(_, s)
            | Guard::Until(_, _, s) => *s,
        }
    }

    /// Whether the guard contains any temporal operator.
    #[must_use]
    pub fn has_temporal(&self) -> bool {
        match self {
            Guard::True(_) | Guard::False(_) | Guard::Prop(_) => false,
            Guard::Next(..) | Guard::Eventually(..) | Guard::Always(..) | Guard::Until(..) => true,
            Guard::Not(g, _) | Guard::Knows(_, g, _) | Guard::Group(_, _, g, _) => g.has_temporal(),
            Guard::And(items, _) | Guard::Or(items, _) => items.iter().any(Guard::has_temporal),
            Guard::Implies(a, b, _) | Guard::Iff(a, b, _) => a.has_temporal() || b.has_temporal(),
        }
    }

    /// Structural equality ignoring spans — the analyzer's notion of a
    /// duplicate case.
    #[must_use]
    pub fn same_shape(&self, other: &Guard) -> bool {
        fn idents_eq(a: &[Ident], b: &[Ident]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.text == y.text)
        }
        match (self, other) {
            (Guard::True(_), Guard::True(_)) | (Guard::False(_), Guard::False(_)) => true,
            (Guard::Prop(a), Guard::Prop(b)) => a.text == b.text,
            (Guard::Not(a, _), Guard::Not(b, _))
            | (Guard::Next(a, _), Guard::Next(b, _))
            | (Guard::Eventually(a, _), Guard::Eventually(b, _))
            | (Guard::Always(a, _), Guard::Always(b, _)) => a.same_shape(b),
            (Guard::And(a, _), Guard::And(b, _)) | (Guard::Or(a, _), Guard::Or(b, _)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_shape(y))
            }
            (Guard::Implies(a1, a2, _), Guard::Implies(b1, b2, _))
            | (Guard::Iff(a1, a2, _), Guard::Iff(b1, b2, _))
            | (Guard::Until(a1, a2, _), Guard::Until(b1, b2, _)) => {
                a1.same_shape(b1) && a2.same_shape(b2)
            }
            (Guard::Knows(a, g, _), Guard::Knows(b, h, _)) => a.text == b.text && g.same_shape(h),
            (Guard::Group(o1, g1, f1, _), Guard::Group(o2, g2, f2, _)) => {
                o1 == o2 && idents_eq(g1, g2) && f1.same_shape(f2)
            }
            _ => false,
        }
    }
}

// ---- pretty printer -------------------------------------------------------

fn comma_idents(out: &mut String, idents: &[Ident]) {
    for (i, id) in idents.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&id.text);
    }
}

impl Scenario {
    /// Renders the scenario in canonical concrete syntax. Reparsing the
    /// result yields a scenario that prints identically (the round-trip
    /// property).
    #[must_use]
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scenario {} {{", self.name.text);
        if let Some((h, _)) = self.horizon {
            let _ = writeln!(out, "  horizon {h}");
        }
        if let Some((r, _)) = self.recall {
            let word = match r {
                RecallKind::Perfect => "perfect",
                RecallKind::Observational => "observational",
            };
            let _ = writeln!(out, "  recall {word}");
        }
        if !self.agents.is_empty() {
            out.push_str("  agents ");
            comma_idents(&mut out, &self.agents);
            out.push('\n');
        }
        if !self.vars.is_empty() {
            out.push_str("  vars ");
            comma_idents(&mut out, &self.vars);
            out.push('\n');
        }
        if !self.env_actions.is_empty() {
            out.push_str("  env ");
            comma_idents(&mut out, &self.env_actions);
            out.push('\n');
        }
        for init in &self.inits {
            out.push_str("  init [");
            for (i, (v, _)) in init.values.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{v}");
            }
            out.push_str("]\n");
        }
        for a in &self.actions {
            let _ = write!(out, "  actions {}: ", a.agent.text);
            comma_idents(&mut out, &a.actions);
            out.push('\n');
        }
        for o in &self.obs {
            let _ = writeln!(out, "  obs {} = {}", o.agent.text, print_expr(&o.expr));
        }
        for p in &self.props {
            let _ = writeln!(out, "  prop {} = {}", p.name.text, print_expr(&p.expr));
        }
        for l in &self.locals {
            let _ = write!(out, "  local {}: ", l.agent.text);
            comma_idents(&mut out, &l.props);
            out.push('\n');
        }
        if let Some(t) = &self.transition {
            out.push_str("  transition {\n");
            for u in &t.updates {
                let _ = writeln!(out, "    {} = {}", u.var.text, print_expr(&u.expr));
            }
            out.push_str("  }\n");
        }
        for p in &self.programs {
            let _ = writeln!(out, "  program {} {{", p.agent.text);
            for c in &p.cases {
                let _ = writeln!(
                    out,
                    "    case {} do {}",
                    print_guard(&c.guard),
                    c.action.text
                );
            }
            if let Some(d) = &p.default {
                let _ = writeln!(out, "    default {}", d.text);
            }
            out.push_str("  }\n");
        }
        out.push_str("}\n");
        out
    }
}

/// Renders an expression, parenthesizing exactly where reparsing needs
/// it.
#[must_use]
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e, 0);
    out
}

fn write_expr(out: &mut String, e: &Expr, min_prec: u8) {
    match e {
        Expr::Num(v, _) => {
            let _ = write!(out, "{v}");
        }
        Expr::Var(id) => out.push_str(&id.text),
        Expr::Act(agent, _) => {
            let _ = write!(out, "act({})", agent.text);
        }
        Expr::Env(_) => out.push_str("env"),
        Expr::Not(inner, _) => {
            out.push('!');
            write_expr(out, inner, 10);
        }
        Expr::Bin(op, a, b, _) => {
            let prec = op.precedence();
            let paren = prec < min_prec;
            if paren {
                out.push('(');
            }
            // Comparisons are non-associative: a nested comparison on
            // either side needs parentheses. Everything else is
            // left-associative, so only the right operand must bind
            // strictly tighter.
            let cmp = matches!(
                op,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            );
            write_expr(out, a, if cmp { prec + 1 } else { prec });
            let _ = write!(out, " {} ", op.symbol());
            write_expr(out, b, prec + 1);
            if paren {
                out.push(')');
            }
        }
        Expr::If(c, a, b, _) => {
            let paren = min_prec > 0;
            if paren {
                out.push('(');
            }
            out.push_str("if ");
            write_expr(out, c, 0);
            out.push_str(" then ");
            write_expr(out, a, 0);
            out.push_str(" else ");
            write_expr(out, b, 0);
            if paren {
                out.push(')');
            }
        }
    }
}

/// Renders a guard in the concrete syntax `Formula::to_string_with`
/// prints and [`crate::parse_formula`] reads.
#[must_use]
pub fn print_guard(g: &Guard) -> String {
    let mut out = String::new();
    write_guard(&mut out, g, 0);
    out
}

// Guard precedence levels: 1 iff, 2 implies, 3 or, 4 and, 5 until, 6 unary.
fn write_guard(out: &mut String, g: &Guard, min_prec: u8) {
    let prec = match g {
        Guard::Iff(..) => 1,
        Guard::Implies(..) => 2,
        Guard::Or(..) => 3,
        Guard::And(..) => 4,
        Guard::Until(..) => 5,
        _ => 6,
    };
    let paren = prec < min_prec;
    if paren {
        out.push('(');
    }
    match g {
        Guard::True(_) => out.push_str("true"),
        Guard::False(_) => out.push_str("false"),
        Guard::Prop(id) => out.push_str(&id.text),
        Guard::Not(inner, _) => {
            out.push('!');
            write_guard(out, inner, 6);
        }
        Guard::And(items, _) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(" & ");
                }
                write_guard(out, item, 5);
            }
        }
        Guard::Or(items, _) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                write_guard(out, item, 4);
            }
        }
        Guard::Implies(a, b, _) => {
            write_guard(out, a, 3);
            out.push_str(" -> ");
            write_guard(out, b, 2);
        }
        Guard::Iff(a, b, _) => {
            write_guard(out, a, 2);
            out.push_str(" <-> ");
            write_guard(out, b, 1);
        }
        Guard::Knows(agent, inner, _) => {
            let _ = write!(out, "K{{{}}} ", agent.text);
            write_guard(out, inner, 6);
        }
        Guard::Group(op, agents, inner, _) => {
            out.push(op.letter());
            out.push('{');
            for (i, a) in agents.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&a.text);
            }
            out.push_str("} ");
            write_guard(out, inner, 6);
        }
        Guard::Next(inner, _) => {
            out.push_str("X ");
            write_guard(out, inner, 6);
        }
        Guard::Eventually(inner, _) => {
            out.push_str("F ");
            write_guard(out, inner, 6);
        }
        Guard::Always(inner, _) => {
            out.push_str("G ");
            write_guard(out, inner, 6);
        }
        Guard::Until(a, b, _) => {
            write_guard(out, a, 6);
            out.push_str(" U ");
            write_guard(out, b, 5);
        }
    }
    if paren {
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(t: &str) -> Ident {
        Ident::new(t, Span::default())
    }

    #[test]
    fn expr_printer_parenthesizes_only_where_needed() {
        // (a + b) * c
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Var(id("a"))),
                Box::new(Expr::Var(id("b"))),
                Span::default(),
            )),
            Box::new(Expr::Var(id("c"))),
            Span::default(),
        );
        assert_eq!(print_expr(&e), "(a + b) * c");
        // a | b == 0  needs no parens (| is looser)… but == inside | does not.
        let f = Expr::Bin(
            BinOp::Eq,
            Box::new(Expr::Bin(
                BinOp::BitOr,
                Box::new(Expr::Var(id("a"))),
                Box::new(Expr::Var(id("b"))),
                Span::default(),
            )),
            Box::new(Expr::Num(0, Span::default())),
            Span::default(),
        );
        assert_eq!(print_expr(&f), "a | b == 0");
    }

    #[test]
    fn guard_printer_matches_logic_syntax() {
        let g = Guard::Not(
            Box::new(Guard::Knows(
                id("sender"),
                Box::new(Guard::Or(
                    vec![
                        Guard::Knows(id("r"), Box::new(Guard::Prop(id("bit"))), Span::default()),
                        Guard::Knows(
                            id("r"),
                            Box::new(Guard::Not(
                                Box::new(Guard::Prop(id("bit"))),
                                Span::default(),
                            )),
                            Span::default(),
                        ),
                    ],
                    Span::default(),
                )),
                Span::default(),
            )),
            Span::default(),
        );
        assert_eq!(print_guard(&g), "!K{sender} (K{r} bit | K{r} !bit)");
    }

    #[test]
    fn duplicate_detection_ignores_spans() {
        let a = Guard::Knows(
            Ident::new("x", Span::new(1, 2)),
            Box::new(Guard::Prop(Ident::new("p", Span::new(3, 4)))),
            Span::new(1, 4),
        );
        let b = Guard::Knows(
            Ident::new("x", Span::new(9, 10)),
            Box::new(Guard::Prop(Ident::new("p", Span::new(11, 12)))),
            Span::new(9, 12),
        );
        assert!(a.same_shape(&b));
        assert!(!a.same_shape(&Guard::Prop(id("p"))));
    }
}
