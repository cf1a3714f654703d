//! Error-recovering recursive-descent parser for `.kbp` sources.
//!
//! The parser is total: any byte sequence yields `(Option<Scenario>,
//! Vec<Diagnostic>)` without panicking. On a syntax error it records a
//! diagnostic and re-synchronizes at the next declaration keyword (or
//! block boundary), so one mistake does not hide the rest of the file's
//! findings.
//!
//! The guard grammar is the workspace's only formula syntax: besides
//! scenarios, [`crate::parse_formula`] reads one guard on its own and
//! [`crate::parse_program`] reads bare `program` blocks. Its precedence
//! (`<->` loosest, then `->`, `|`, `&`, `U`, unary) and its flattening
//! of `&`/`|` chains are those `Formula::to_string_with` prints, so
//! lowered guards are structurally identical to hand-built formulas.

use crate::ast::{
    ActionsDecl, BinOp, CaseDecl, Expr, GroupOp, Guard, Ident, InitDecl, LocalDecl, ObsDecl,
    ProgramDecl, PropDecl, RecallKind, Scenario, TransitionDecl, UpdateDecl,
};
use crate::diag::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};
use crate::span::Span;

/// Parses one scenario from source. Returns the scenario (present
/// whenever the `scenario name { … }` skeleton could be recognized,
/// even if some declarations inside were malformed) plus all lexer and
/// parser diagnostics in source order of discovery.
#[must_use]
pub fn parse(src: &str) -> (Option<Scenario>, Vec<Diagnostic>) {
    run(src, Parser::scenario)
}

/// Parses one guard formula that fills the whole source.
pub(crate) fn parse_guard(src: &str) -> (Option<Guard>, Vec<Diagnostic>) {
    run(src, |p| {
        let guard = p.guard().ok()?;
        p.expect(TokenKind::Eof, "after the formula").ok()?;
        Some(guard)
    })
}

/// Parses zero or more `program` blocks that fill the whole source.
pub(crate) fn parse_programs(src: &str) -> (Vec<ProgramDecl>, Vec<Diagnostic>) {
    run(src, Parser::programs)
}

/// Lexes `src` and runs one grammar entry over the token stream, returning
/// its result plus the lexer's and the parser's diagnostics.
fn run<'s, T>(src: &'s str, entry: impl FnOnce(&mut Parser<'s>) -> T) -> (T, Vec<Diagnostic>) {
    let (raw, mut diags) = lex(src);
    // Error tokens already carry diagnostics; the parser works on the
    // clean stream.
    let toks: Vec<Token> = raw
        .into_iter()
        .filter(|t| t.kind != TokenKind::Error)
        .collect();
    let mut p = Parser {
        src,
        toks,
        pos: 0,
        diags: Vec::new(),
    };
    let out = entry(&mut p);
    diags.append(&mut p.diags);
    (out, diags)
}

fn describe(kind: TokenKind) -> &'static str {
    use TokenKind::*;
    match kind {
        Ident => "identifier",
        Number => "number",
        KwScenario => "`scenario`",
        KwHorizon => "`horizon`",
        KwRecall => "`recall`",
        KwPerfect => "`perfect`",
        KwObservational => "`observational`",
        KwAgents => "`agents`",
        KwVars => "`vars`",
        KwInit => "`init`",
        KwEnv => "`env`",
        KwActions => "`actions`",
        KwAct => "`act`",
        KwObs => "`obs`",
        KwProp => "`prop`",
        KwTransition => "`transition`",
        KwProgram => "`program`",
        KwCase => "`case`",
        KwDo => "`do`",
        KwDefault => "`default`",
        KwLocal => "`local`",
        KwIf => "`if`",
        KwThen => "`then`",
        KwElse => "`else`",
        KwTrue => "`true`",
        KwFalse => "`false`",
        LBrace => "`{`",
        RBrace => "`}`",
        LParen => "`(`",
        RParen => "`)`",
        LBracket => "`[`",
        RBracket => "`]`",
        Comma => "`,`",
        Colon => "`:`",
        Assign => "`=`",
        Bang => "`!`",
        Amp => "`&`",
        AmpAmp => "`&&`",
        Pipe => "`|`",
        PipePipe => "`||`",
        Caret => "`^`",
        Plus => "`+`",
        Minus => "`-`",
        Star => "`*`",
        Shl => "`<<`",
        Shr => "`>>`",
        EqEq => "`==`",
        NotEq => "`!=`",
        Lt => "`<`",
        Le => "`<=`",
        Gt => "`>`",
        Ge => "`>=`",
        Arrow => "`->`",
        DArrow => "`<->`",
        Error => "unrecognized input",
        Eof => "end of input",
    }
}

fn is_decl_start(kind: TokenKind) -> bool {
    use TokenKind::*;
    matches!(
        kind,
        KwHorizon
            | KwRecall
            | KwAgents
            | KwVars
            | KwInit
            | KwEnv
            | KwActions
            | KwObs
            | KwProp
            | KwTransition
            | KwProgram
            | KwLocal
    )
}

struct Parser<'s> {
    src: &'s str,
    toks: Vec<Token>,
    pos: usize,
    diags: Vec<Diagnostic>,
}

type PResult<T> = Result<T, ()>;

impl<'s> Parser<'s> {
    fn peek(&self) -> Token {
        self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn peek2(&self) -> Token {
        self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn text(&self, tok: Token) -> &'s str {
        &self.src[tok.span.start..tok.span.end.min(self.src.len())]
    }

    fn eat(&mut self, kind: TokenKind) -> Option<Token> {
        if self.peek().kind == kind {
            Some(self.bump())
        } else {
            None
        }
    }

    fn error_at(&mut self, span: Span, message: impl Into<String>) {
        self.diags.push(Diagnostic::error(span, message));
    }

    fn expect(&mut self, kind: TokenKind, ctx: &str) -> PResult<Token> {
        let tok = self.peek();
        if tok.kind == kind {
            Ok(self.bump())
        } else {
            self.error_at(
                tok.span,
                format!(
                    "expected {} {ctx}, found {}",
                    describe(kind),
                    describe(tok.kind)
                ),
            );
            Err(())
        }
    }

    fn ident(&mut self, ctx: &str) -> PResult<Ident> {
        let tok = self.expect(TokenKind::Ident, ctx)?;
        Ok(Ident::new(self.text(tok), tok.span))
    }

    fn number(&mut self, ctx: &str) -> PResult<(u64, Span)> {
        let tok = self.expect(TokenKind::Number, ctx)?;
        match self.text(tok).parse::<u64>() {
            Ok(v) => Ok((v, tok.span)),
            Err(_) => {
                self.error_at(tok.span, "integer literal does not fit in 64 bits");
                Ok((0, tok.span))
            }
        }
    }

    fn ident_list(&mut self, ctx: &str) -> PResult<Vec<Ident>> {
        let mut out = vec![self.ident(ctx)?];
        while self.eat(TokenKind::Comma).is_some() {
            out.push(self.ident(ctx)?);
        }
        Ok(out)
    }

    /// Skips ahead to the next declaration keyword, `}`, or end of
    /// input, consuming at least one token so recovery always makes
    /// progress.
    fn sync_decl(&mut self) {
        if matches!(self.peek().kind, TokenKind::RBrace | TokenKind::Eof) {
            return;
        }
        self.bump();
        while !matches!(self.peek().kind, TokenKind::RBrace | TokenKind::Eof)
            && !is_decl_start(self.peek().kind)
        {
            self.bump();
        }
    }

    // ---- scenario skeleton ------------------------------------------------

    fn scenario(&mut self) -> Option<Scenario> {
        let kw = match self.expect(TokenKind::KwScenario, "at start of file") {
            Ok(t) => t,
            Err(()) => return None,
        };
        let name = self.ident("naming the scenario").ok()?;
        if self
            .expect(TokenKind::LBrace, "opening the scenario body")
            .is_err()
        {
            return None;
        }
        let mut sc = Scenario {
            name,
            span: kw.span,
            ..Scenario::default()
        };
        loop {
            match self.peek().kind {
                TokenKind::RBrace | TokenKind::Eof => break,
                _ => {
                    if self.declaration(&mut sc).is_err() {
                        self.sync_decl();
                    }
                }
            }
        }
        let close = self.peek();
        if self.eat(TokenKind::RBrace).is_some() {
            sc.span = kw.span.to(close.span);
        } else {
            self.error_at(close.span, "expected `}` closing the scenario body");
            sc.span = kw.span.to(close.span);
        }
        let _ = self.expect(TokenKind::Eof, "after the scenario");
        Some(sc)
    }

    fn declaration(&mut self, sc: &mut Scenario) -> PResult<()> {
        let tok = self.peek();
        match tok.kind {
            TokenKind::KwHorizon => {
                self.bump();
                let (v, vspan) = self.number("after `horizon`")?;
                sc.horizon = push_single(
                    &mut self.diags,
                    sc.horizon.take(),
                    (v, tok.span.to(vspan)),
                    tok.span,
                    "horizon",
                );
            }
            TokenKind::KwRecall => {
                self.bump();
                let word = self.peek();
                let kind = match word.kind {
                    TokenKind::KwPerfect => RecallKind::Perfect,
                    TokenKind::KwObservational => RecallKind::Observational,
                    _ => {
                        self.error_at(
                            word.span,
                            format!(
                                "expected `perfect` or `observational` after `recall`, found {}",
                                describe(word.kind)
                            ),
                        );
                        return Err(());
                    }
                };
                self.bump();
                sc.recall = push_single(
                    &mut self.diags,
                    sc.recall.take(),
                    (kind, tok.span.to(word.span)),
                    tok.span,
                    "recall",
                );
            }
            TokenKind::KwAgents => {
                self.bump();
                let list = self.ident_list("in the `agents` list")?;
                if sc.agents.is_empty() {
                    sc.agents = list;
                } else {
                    self.error_at(tok.span, "duplicate `agents` declaration");
                }
            }
            TokenKind::KwVars => {
                self.bump();
                let list = self.ident_list("in the `vars` list")?;
                if sc.vars.is_empty() {
                    sc.vars = list;
                } else {
                    self.error_at(tok.span, "duplicate `vars` declaration");
                }
            }
            TokenKind::KwEnv => {
                self.bump();
                let list = self.ident_list("in the `env` list")?;
                if sc.env_actions.is_empty() {
                    sc.env_actions = list;
                } else {
                    self.error_at(tok.span, "duplicate `env` declaration");
                }
            }
            TokenKind::KwInit => {
                self.bump();
                self.expect(TokenKind::LBracket, "after `init`")?;
                let mut values = Vec::new();
                if self.peek().kind != TokenKind::RBracket {
                    values.push(self.number("in the `init` vector")?);
                    while self.eat(TokenKind::Comma).is_some() {
                        values.push(self.number("in the `init` vector")?);
                    }
                }
                let close = self.expect(TokenKind::RBracket, "closing the `init` vector")?;
                sc.inits.push(InitDecl {
                    values,
                    span: tok.span.to(close.span),
                });
            }
            TokenKind::KwActions => {
                self.bump();
                let agent = self.ident("naming the agent after `actions`")?;
                self.expect(TokenKind::Colon, "after the agent name")?;
                let actions = self.ident_list("in the action list")?;
                let end = actions.last().map_or(agent.span, |a| a.span);
                sc.actions.push(ActionsDecl {
                    agent,
                    actions,
                    span: tok.span.to(end),
                });
            }
            TokenKind::KwLocal => {
                self.bump();
                let agent = self.ident("naming the agent after `local`")?;
                self.expect(TokenKind::Colon, "after the agent name")?;
                let props = self.ident_list("in the local proposition list")?;
                let end = props.last().map_or(agent.span, |p| p.span);
                sc.locals.push(LocalDecl {
                    agent,
                    props,
                    span: tok.span.to(end),
                });
            }
            TokenKind::KwObs => {
                self.bump();
                let agent = self.ident("naming the agent after `obs`")?;
                self.expect(TokenKind::Assign, "after the agent name")?;
                let expr = self.expr()?;
                let span = tok.span.to(expr.span());
                sc.obs.push(ObsDecl { agent, expr, span });
            }
            TokenKind::KwProp => {
                self.bump();
                let name = self.ident("naming the proposition after `prop`")?;
                self.expect(TokenKind::Assign, "after the proposition name")?;
                let expr = self.expr()?;
                let span = tok.span.to(expr.span());
                sc.props.push(PropDecl { name, expr, span });
            }
            TokenKind::KwTransition => {
                self.bump();
                let decl = self.transition_block(tok.span)?;
                if sc.transition.is_none() {
                    sc.transition = Some(decl);
                } else {
                    self.error_at(tok.span, "duplicate `transition` block");
                }
            }
            TokenKind::KwProgram => {
                let decl = self.program()?;
                sc.programs.push(decl);
            }
            _ => {
                self.error_at(
                    tok.span,
                    format!("expected a declaration, found {}", describe(tok.kind)),
                );
                return Err(());
            }
        }
        Ok(())
    }

    fn transition_block(&mut self, start: Span) -> PResult<TransitionDecl> {
        self.expect(TokenKind::LBrace, "opening the `transition` block")?;
        let mut updates = Vec::new();
        loop {
            match self.peek().kind {
                TokenKind::RBrace | TokenKind::Eof => break,
                TokenKind::Ident => {
                    let var_tok = self.bump();
                    let var = Ident::new(self.text(var_tok), var_tok.span);
                    if self
                        .expect(TokenKind::Assign, "after the register name")
                        .is_err()
                    {
                        self.sync_in_block();
                        continue;
                    }
                    match self.expr() {
                        Ok(expr) => {
                            let span = var.span.to(expr.span());
                            updates.push(UpdateDecl { var, expr, span });
                        }
                        Err(()) => self.sync_in_block(),
                    }
                }
                other => {
                    let tok = self.bump();
                    self.error_at(
                        tok.span,
                        format!(
                            "expected a register update or `}}` in `transition`, found {}",
                            describe(other)
                        ),
                    );
                    self.sync_in_block();
                }
            }
        }
        let close = self.expect(TokenKind::RBrace, "closing the `transition` block")?;
        Ok(TransitionDecl {
            updates,
            span: start.to(close.span),
        })
    }

    /// Recovery inside a braced block: skip to the next plausible entry
    /// start (`identifier`, `case`, `default`) or the closing brace.
    fn sync_in_block(&mut self) {
        use TokenKind::*;
        while !matches!(self.peek().kind, RBrace | Eof | Ident | KwCase | KwDefault) {
            self.bump();
        }
    }

    /// `program <agent> { … }`, starting at the `program` keyword.
    fn program(&mut self) -> PResult<ProgramDecl> {
        let start = self.bump().span;
        let agent = self.ident("naming the agent after `program`")?;
        self.expect(TokenKind::LBrace, "opening the `program` body")?;
        let mut cases = Vec::new();
        let mut default = None;
        loop {
            match self.peek().kind {
                TokenKind::RBrace | TokenKind::Eof => break,
                TokenKind::KwCase => {
                    let case_kw = self.bump();
                    let guard = match self.guard() {
                        Ok(g) => g,
                        Err(()) => {
                            self.sync_case();
                            continue;
                        }
                    };
                    if self.expect(TokenKind::KwDo, "after the guard").is_err() {
                        self.sync_case();
                        continue;
                    }
                    match self.ident("naming the action after `do`") {
                        Ok(action) => {
                            let span = case_kw.span.to(action.span);
                            cases.push(CaseDecl {
                                guard,
                                action,
                                span,
                            });
                        }
                        Err(()) => self.sync_case(),
                    }
                }
                TokenKind::KwDefault => {
                    let kw = self.bump();
                    match self.ident("naming the action after `default`") {
                        Ok(action) => {
                            if default.is_none() {
                                default = Some(action);
                            } else {
                                self.error_at(
                                    kw.span.to(action.span),
                                    "duplicate `default` in this program",
                                );
                            }
                        }
                        Err(()) => self.sync_case(),
                    }
                }
                other => {
                    let tok = self.bump();
                    self.error_at(
                        tok.span,
                        format!(
                            "expected `case`, `default` or `}}` in `program`, found {}",
                            describe(other)
                        ),
                    );
                    self.sync_case();
                }
            }
        }
        let close = self.expect(TokenKind::RBrace, "closing the `program` body")?;
        Ok(ProgramDecl {
            agent,
            cases,
            default,
            span: start.to(close.span),
        })
    }

    /// Bare `program` blocks, as [`parse_programs`] reads them. A token
    /// that cannot start a block is reported, and the parser skips to the
    /// next `program`.
    fn programs(&mut self) -> Vec<ProgramDecl> {
        let mut out = Vec::new();
        loop {
            let tok = self.peek();
            match tok.kind {
                TokenKind::Eof => return out,
                TokenKind::KwProgram => match self.program() {
                    Ok(decl) => out.push(decl),
                    Err(()) => self.sync_program(),
                },
                other => {
                    self.bump();
                    self.error_at(
                        tok.span,
                        format!("expected `program`, found {}", describe(other)),
                    );
                    self.sync_program();
                }
            }
        }
    }

    fn sync_program(&mut self) {
        while !matches!(self.peek().kind, TokenKind::KwProgram | TokenKind::Eof) {
            self.bump();
        }
    }

    fn sync_case(&mut self) {
        use TokenKind::*;
        while !matches!(self.peek().kind, RBrace | Eof | KwCase | KwDefault) {
            self.bump();
        }
    }

    // ---- integer expressions ----------------------------------------------
    //
    // Rust precedence, loosest first: if-then-else, `||`, `&&`,
    // comparison (single, non-associative), `|`, `^`, `&`, `<< >>`,
    // `+ -`, `*`, unary `!`, primary.

    fn expr(&mut self) -> PResult<Expr> {
        if self.peek().kind == TokenKind::KwIf {
            let kw = self.bump();
            let cond = self.expr()?;
            self.expect(TokenKind::KwThen, "after the condition")?;
            let then = self.expr()?;
            self.expect(TokenKind::KwElse, "after the `then` branch")?;
            let els = self.expr()?;
            let span = kw.span.to(els.span());
            return Ok(Expr::If(
                Box::new(cond),
                Box::new(then),
                Box::new(els),
                span,
            ));
        }
        self.expr_or()
    }

    fn bin_chain(
        &mut self,
        next: fn(&mut Self) -> PResult<Expr>,
        op_of: fn(TokenKind) -> Option<BinOp>,
    ) -> PResult<Expr> {
        let mut lhs = next(self)?;
        while let Some(op) = op_of(self.peek().kind) {
            self.bump();
            let rhs = next(self)?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn expr_or(&mut self) -> PResult<Expr> {
        self.bin_chain(Self::expr_and, |k| {
            (k == TokenKind::PipePipe).then_some(BinOp::Or)
        })
    }

    fn expr_and(&mut self) -> PResult<Expr> {
        self.bin_chain(Self::expr_cmp, |k| {
            (k == TokenKind::AmpAmp).then_some(BinOp::And)
        })
    }

    fn expr_cmp(&mut self) -> PResult<Expr> {
        let lhs = self.expr_bitor()?;
        let op = match self.peek().kind {
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::NotEq => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.expr_bitor()?;
        let span = lhs.span().to(rhs.span());
        Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs), span))
    }

    fn expr_bitor(&mut self) -> PResult<Expr> {
        self.bin_chain(Self::expr_bitxor, |k| {
            (k == TokenKind::Pipe).then_some(BinOp::BitOr)
        })
    }

    fn expr_bitxor(&mut self) -> PResult<Expr> {
        self.bin_chain(Self::expr_bitand, |k| {
            (k == TokenKind::Caret).then_some(BinOp::BitXor)
        })
    }

    fn expr_bitand(&mut self) -> PResult<Expr> {
        self.bin_chain(Self::expr_shift, |k| {
            (k == TokenKind::Amp).then_some(BinOp::BitAnd)
        })
    }

    fn expr_shift(&mut self) -> PResult<Expr> {
        self.bin_chain(Self::expr_add, |k| match k {
            TokenKind::Shl => Some(BinOp::Shl),
            TokenKind::Shr => Some(BinOp::Shr),
            _ => None,
        })
    }

    fn expr_add(&mut self) -> PResult<Expr> {
        self.bin_chain(Self::expr_mul, |k| match k {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn expr_mul(&mut self) -> PResult<Expr> {
        self.bin_chain(Self::expr_unary, |k| {
            (k == TokenKind::Star).then_some(BinOp::Mul)
        })
    }

    fn expr_unary(&mut self) -> PResult<Expr> {
        if self.peek().kind == TokenKind::Bang {
            let bang = self.bump();
            let inner = self.expr_unary()?;
            let span = bang.span.to(inner.span());
            return Ok(Expr::Not(Box::new(inner), span));
        }
        self.expr_primary()
    }

    fn expr_primary(&mut self) -> PResult<Expr> {
        let tok = self.peek();
        match tok.kind {
            TokenKind::Number => {
                let (v, span) = self.number("in the expression")?;
                Ok(Expr::Num(v, span))
            }
            TokenKind::Ident => {
                let t = self.bump();
                Ok(Expr::Var(Ident::new(self.text(t), t.span)))
            }
            TokenKind::KwEnv => {
                let t = self.bump();
                Ok(Expr::Env(t.span))
            }
            TokenKind::KwAct => {
                let kw = self.bump();
                self.expect(TokenKind::LParen, "after `act`")?;
                let agent = self.ident("naming the agent inside `act(…)`")?;
                let close = self.expect(TokenKind::RParen, "closing `act(…)`")?;
                Ok(Expr::Act(agent, kw.span.to(close.span)))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect(TokenKind::RParen, "closing the parenthesized expression")?;
                Ok(inner)
            }
            other => {
                self.error_at(
                    tok.span,
                    format!("expected an expression, found {}", describe(other)),
                );
                Err(())
            }
        }
    }

    // ---- guard formulas ---------------------------------------------------
    //
    // iff := implies (`<->` iff)?; implies := or (`->` implies)?; or :=
    // and ((`|`|`||`) and)* flattened; and := until ((`&`|`&&`) until)*
    // flattened; until := unary (`U` until)?; unary := `!` | K{a} |
    // E/C/D{a,…} | X/F/G | true | false | prop | parens. The modal
    // letters are ordinary identifiers recognized positionally.

    fn guard(&mut self) -> PResult<Guard> {
        self.guard_iff()
    }

    fn guard_iff(&mut self) -> PResult<Guard> {
        let lhs = self.guard_implies()?;
        if self.eat(TokenKind::DArrow).is_some() {
            let rhs = self.guard_iff()?;
            let span = lhs.span().to(rhs.span());
            return Ok(Guard::Iff(Box::new(lhs), Box::new(rhs), span));
        }
        Ok(lhs)
    }

    fn guard_implies(&mut self) -> PResult<Guard> {
        let lhs = self.guard_or()?;
        if self.eat(TokenKind::Arrow).is_some() {
            let rhs = self.guard_implies()?;
            let span = lhs.span().to(rhs.span());
            return Ok(Guard::Implies(Box::new(lhs), Box::new(rhs), span));
        }
        Ok(lhs)
    }

    fn guard_or(&mut self) -> PResult<Guard> {
        let first = self.guard_and()?;
        let mut items = vec![first];
        while matches!(self.peek().kind, TokenKind::Pipe | TokenKind::PipePipe) {
            self.bump();
            items.push(self.guard_and()?);
        }
        if items.len() == 1 {
            return Ok(items.pop().unwrap_or(Guard::True(Span::default())));
        }
        let span = items[0].span().to(items[items.len() - 1].span());
        Ok(Guard::Or(items, span))
    }

    fn guard_and(&mut self) -> PResult<Guard> {
        let first = self.guard_until()?;
        let mut items = vec![first];
        while matches!(self.peek().kind, TokenKind::Amp | TokenKind::AmpAmp) {
            self.bump();
            items.push(self.guard_until()?);
        }
        if items.len() == 1 {
            return Ok(items.pop().unwrap_or(Guard::True(Span::default())));
        }
        let span = items[0].span().to(items[items.len() - 1].span());
        Ok(Guard::And(items, span))
    }

    fn guard_until(&mut self) -> PResult<Guard> {
        let lhs = self.guard_unary()?;
        if self.peek().kind == TokenKind::Ident && self.text(self.peek()) == "U" {
            self.bump();
            let rhs = self.guard_until()?;
            let span = lhs.span().to(rhs.span());
            return Ok(Guard::Until(Box::new(lhs), Box::new(rhs), span));
        }
        Ok(lhs)
    }

    fn guard_unary(&mut self) -> PResult<Guard> {
        let tok = self.peek();
        match tok.kind {
            TokenKind::Bang => {
                self.bump();
                let inner = self.guard_unary()?;
                let span = tok.span.to(inner.span());
                Ok(Guard::Not(Box::new(inner), span))
            }
            TokenKind::KwTrue => {
                self.bump();
                Ok(Guard::True(tok.span))
            }
            TokenKind::KwFalse => {
                self.bump();
                Ok(Guard::False(tok.span))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.guard()?;
                self.expect(TokenKind::RParen, "closing the parenthesized guard")?;
                Ok(inner)
            }
            TokenKind::Ident => {
                let text = self.text(tok);
                match text {
                    "K" if self.peek2().kind == TokenKind::LBrace => {
                        self.bump();
                        self.bump();
                        let agent = self.ident("naming the agent in `K{…}`")?;
                        self.expect(TokenKind::RBrace, "closing `K{…}`")?;
                        let inner = self.guard_unary()?;
                        let span = tok.span.to(inner.span());
                        Ok(Guard::Knows(agent, Box::new(inner), span))
                    }
                    "E" | "C" | "D" if self.peek2().kind == TokenKind::LBrace => {
                        let op = match text {
                            "E" => GroupOp::Everyone,
                            "C" => GroupOp::Common,
                            _ => GroupOp::Distributed,
                        };
                        self.bump();
                        self.bump();
                        let agents = self.ident_list("in the agent group")?;
                        self.expect(TokenKind::RBrace, "closing the agent group")?;
                        let inner = self.guard_unary()?;
                        let span = tok.span.to(inner.span());
                        Ok(Guard::Group(op, agents, Box::new(inner), span))
                    }
                    "X" | "F" | "G" => {
                        self.bump();
                        let inner = self.guard_unary()?;
                        let span = tok.span.to(inner.span());
                        Ok(match text {
                            "X" => Guard::Next(Box::new(inner), span),
                            "F" => Guard::Eventually(Box::new(inner), span),
                            _ => Guard::Always(Box::new(inner), span),
                        })
                    }
                    _ => {
                        self.bump();
                        Ok(Guard::Prop(Ident::new(text, tok.span)))
                    }
                }
            }
            other => {
                self.error_at(
                    tok.span,
                    format!("expected a guard, found {}", describe(other)),
                );
                Err(())
            }
        }
    }
}

fn push_single<T>(
    diags: &mut Vec<Diagnostic>,
    existing: Option<(T, Span)>,
    new: (T, Span),
    at: Span,
    what: &str,
) -> Option<(T, Span)> {
    if existing.is_some() {
        diags.push(Diagnostic::error(
            at,
            format!("duplicate `{what}` declaration"),
        ));
        existing
    } else {
        Some(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::print_guard;
    use crate::diag::has_errors;

    const SMALL: &str = "
scenario tiny {
  horizon 3
  recall perfect
  agents a, b
  vars x
  init [0]
  init [1]
  actions a: stay, move
  actions b: wait
  obs a = x
  obs b = 0
  prop set = x == 1
  local a: set
  transition {
    x = if act(a) == move then 1 else x
  }
  program a {
    case K{a} set do move
    default stay
  }
  program b {
    default wait
  }
}
";

    #[test]
    fn parses_a_small_scenario() {
        let (sc, diags) = parse(SMALL);
        assert!(diags.is_empty(), "{diags:?}");
        let sc = sc.expect("scenario");
        assert_eq!(sc.name.text, "tiny");
        assert_eq!(sc.horizon.map(|h| h.0), Some(3));
        assert_eq!(sc.agents.len(), 2);
        assert_eq!(sc.inits.len(), 2);
        assert_eq!(sc.programs.len(), 2);
        assert_eq!(sc.programs[0].cases.len(), 1);
        assert_eq!(print_guard(&sc.programs[0].cases[0].guard), "K{a} set");
    }

    #[test]
    fn or_and_chains_flatten() {
        let (sc, diags) = parse("scenario g { program a { case p | q | r do m } }");
        assert!(diags.is_empty(), "{diags:?}");
        let sc = sc.expect("scenario");
        match &sc.programs[0].cases[0].guard {
            Guard::Or(items, _) => assert_eq!(items.len(), 3),
            g => panic!("expected flattened Or, got {g:?}"),
        }
    }

    #[test]
    fn expr_precedence_is_rust_like() {
        let (sc, diags) = parse("scenario g { obs a = 1 + 2 * 3 << 1 & 7 }");
        assert!(diags.is_empty(), "{diags:?}");
        let sc = sc.expect("scenario");
        // ((1 + (2*3)) << 1) & 7
        assert_eq!(
            crate::ast::print_expr(&sc.obs[0].expr),
            "1 + 2 * 3 << 1 & 7"
        );
        match &sc.obs[0].expr {
            Expr::Bin(BinOp::BitAnd, ..) => {}
            e => panic!("expected & at top, got {e:?}"),
        }
    }

    #[test]
    fn recovers_and_reports_multiple_errors() {
        let src = "
scenario broken {
  horizon oops
  agents a
  obs a = @@@
  prop p =
  program a { default }
}
";
        let (sc, diags) = parse(src);
        assert!(sc.is_some());
        assert!(has_errors(&diags));
        assert!(diags.len() >= 3, "{diags:?}");
        // The well-formed declaration before the errors survived.
        assert_eq!(sc.map(|s| s.agents.len()), Some(1));
    }

    #[test]
    fn duplicate_top_level_declarations_are_reported() {
        let (_, diags) = parse("scenario d { horizon 1 horizon 2 vars x vars y }");
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.message.contains("duplicate"))
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn totally_parses_garbage() {
        for src in ["", "scenario", "}}}{{{", "scenario x {", "\u{0}\u{1}\u{2}"] {
            let (_, _) = parse(src); // must not panic
        }
    }
}
