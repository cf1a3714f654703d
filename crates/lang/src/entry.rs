//! The formula and program entries: the scenario grammar's guards and
//! `program` blocks, read on their own.
//!
//! [`parse_formula`] reads one guard and interns its names into a
//! [`Vocabulary`]. [`parse_program`] reads `program` blocks and resolves
//! their names against an existing [`Context`]. Both use the same lexer,
//! guard grammar, diagnostics and guard lowering as `.kbp` scenarios, so
//! a formula means the same thing wherever it is written.

use crate::analyze::{check_guard_names, too_many_agents};
use crate::ast::{Ident, NameKind};
use crate::diag::Diagnostic;
use crate::lower::{lower_guard, Tables};
use crate::parser::{parse_guard, parse_programs};
use kbp_core::Kbp;
use kbp_logic::{Agent, Formula, Vocabulary};
use kbp_systems::{ActionId, Context};

/// Parses one formula, interning its unknown proposition and agent names
/// into `voc` in first-use order.
///
/// The syntax is the guard grammar of `.kbp` scenarios (DESIGN.md §16.1),
/// which `Formula::to_string_with` prints. Names are interned only once
/// the whole formula has parsed.
///
/// # Errors
///
/// Returns every lexer and parser diagnostic, each with a byte span, when
/// the source is not one formula; `voc` is then unchanged. A formula that
/// would take `voc` past [`Agent::MAX_AGENTS`] agents is refused at the
/// first agent too many, with the names before it already interned.
///
/// # Example
///
/// ```
/// use kbp_lang::parse_formula;
/// use kbp_logic::Vocabulary;
///
/// let mut voc = Vocabulary::new();
/// let f = parse_formula("K{alice} (rain -> wet)", &mut voc).expect("one formula");
/// assert_eq!(f.to_string_with(&voc), "K{alice} (rain -> wet)");
/// ```
pub fn parse_formula(src: &str, voc: &mut Vocabulary) -> Result<Formula, Vec<Diagnostic>> {
    let (guard, mut diags) = parse_guard(src);
    let Some(guard) = guard.filter(|_| diags.is_empty()) else {
        return Err(diags);
    };
    guard.for_each_name(&mut |kind, id| {
        if !diags.is_empty() {
            return;
        }
        match kind {
            NameKind::Prop => {
                voc.add_prop(id.text.as_str());
            }
            NameKind::KnowsAgent | NameKind::GroupAgent => {
                if voc.agent(&id.text).is_none() && voc.agent_count() >= Agent::MAX_AGENTS {
                    diags.push(Diagnostic::error(id.span, too_many_agents()));
                } else {
                    voc.add_agent(id.text.as_str());
                }
            }
        }
    });
    if !diags.is_empty() {
        return Err(diags);
    }
    Ok(lower_guard(&guard, &Tables::of_vocabulary(voc)))
}

/// Parses zero or more `program` blocks, resolving agent, proposition and
/// action names against `ctx`:
///
/// ```text
/// program <agent> { (case <guard> do <action>)* (default <action>)? }
/// ```
///
/// A block without `default` defaults to the agent's first action, as in
/// a `.kbp` scenario. Semantic checks (every agent has a program, guards
/// are subjective, …) stay with [`Kbp::validate`].
///
/// # Errors
///
/// Returns every diagnostic, each with a byte span: syntax errors, an
/// unknown agent, proposition or action, and a second block for the same
/// agent.
///
/// # Example
///
/// ```
/// use kbp_lang::parse_program;
/// use kbp_logic::Vocabulary;
/// use kbp_systems::{ActionId, ContextBuilder, GlobalState, Obs};
///
/// let mut voc = Vocabulary::new();
/// let tender = voc.add_agent("tender");
/// let lit = voc.add_prop("lit");
/// let ctx = ContextBuilder::new(voc)
///     .initial_state(GlobalState::new(vec![0]))
///     .agent_actions(tender, ["noop", "switch"])
///     .transition(|s, j| if j.acts[0] == ActionId(1) { s.with_reg(0, 1) } else { s.clone() })
///     .observe(|_, s| Obs(u64::from(s.reg(0))))
///     .props(move |p, s| p == lit && s.reg(0) == 1)
///     .build();
///
/// let kbp = parse_program(
///     "program tender { case !K{tender} lit do switch default noop }",
///     &ctx,
/// )
/// .expect("resolves against the context");
/// assert_eq!(kbp.validate(&ctx), Ok(()));
/// ```
pub fn parse_program(src: &str, ctx: &dyn Context) -> Result<Kbp, Vec<Diagnostic>> {
    let (decls, mut diags) = parse_programs(src);
    let tables = Tables::of_vocabulary(ctx.vocabulary());
    let mut seen: Vec<Agent> = Vec::new();
    let mut kbp = Kbp::builder();
    for decl in &decls {
        let name = decl.agent.text.as_str();
        let Some(&index) = tables.agents.get(name) else {
            diags.push(Diagnostic::error(
                decl.agent.span,
                format!("unknown agent `{name}` in `program`"),
            ));
            continue;
        };
        let agent = Agent::new(index);
        if seen.contains(&agent) {
            diags.push(Diagnostic::error(
                decl.agent.span,
                format!("duplicate `program` declaration for agent `{name}`"),
            ));
            continue;
        }
        seen.push(agent);
        let known = |kind, name: &str| match kind {
            NameKind::Prop => tables.props.contains_key(name),
            NameKind::KnowsAgent | NameKind::GroupAgent => tables.agents.contains_key(name),
        };
        for case in &decl.cases {
            let names_ok = check_guard_names(&case.guard, known, &mut diags);
            if let (true, Some(action)) = (
                names_ok,
                resolve_action(ctx, agent, &case.action, &mut diags),
            ) {
                kbp = kbp.clause(agent, lower_guard(&case.guard, &tables), action);
            }
        }
        let default = match &decl.default {
            Some(id) => resolve_action(ctx, agent, id, &mut diags),
            None => Some(ActionId(0)),
        };
        if let Some(default) = default {
            kbp = kbp.default_action(agent, default);
        }
    }
    if diags.is_empty() {
        Ok(kbp.build())
    } else {
        Err(diags)
    }
}

/// Resolves an action name in `agent`'s repertoire, reporting it when
/// unknown.
fn resolve_action(
    ctx: &dyn Context,
    agent: Agent,
    id: &Ident,
    diags: &mut Vec<Diagnostic>,
) -> Option<ActionId> {
    let found = (0..ctx.action_count(agent))
        .map(|k| ActionId(k as u32))
        .find(|&a| ctx.action_name(agent, a) == id.text);
    if found.is_none() {
        diags.push(Diagnostic::error(
            id.span,
            format!(
                "unknown action `{}` for agent `{}`",
                id.text,
                ctx.vocabulary().agent_name(agent)
            ),
        ));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbp_core::SyncSolver;
    use kbp_logic::{AgentSet, PropId};
    use kbp_systems::{ContextBuilder, FnContext, GlobalState, Obs};

    fn formula(src: &str, voc: &mut Vocabulary) -> Formula {
        parse_formula(src, voc).unwrap_or_else(|e| panic!("parse {src}: {e:?}"))
    }

    fn first_error(src: &str) -> Diagnostic {
        let mut voc = Vocabulary::new();
        let diags = parse_formula(src, &mut voc).expect_err("must not parse");
        diags[0].clone()
    }

    fn roundtrip(src: &str) {
        let mut voc = Vocabulary::new();
        let f = formula(src, &mut voc);
        let printed = f.to_string_with(&voc);
        let f2 = formula(&printed, &mut voc.clone());
        assert_eq!(f, f2, "round-trip failed: {src} -> {printed}");
    }

    #[test]
    fn parses_atoms_and_constants() {
        let mut voc = Vocabulary::new();
        assert_eq!(formula("true", &mut voc), Formula::True);
        assert_eq!(formula("false", &mut voc), Formula::False);
        let f = formula("rain", &mut voc);
        assert_eq!(f, Formula::prop(voc.prop("rain").unwrap()));
    }

    #[test]
    fn parses_precedence() {
        let mut voc = Vocabulary::new();
        // & binds tighter than |
        match formula("p & q | r", &mut voc) {
            Formula::Or(items) => {
                assert_eq!(items.len(), 2);
                assert!(matches!(items[0], Formula::And(_)));
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn guard_precedence_matches_hand_built_formula() {
        let mut voc = Vocabulary::new();
        let f = formula("p | q & K{a} r -> s", &mut voc);
        let prop = |name: &str| Formula::prop(voc.prop(name).unwrap());
        let a = voc.agent("a").unwrap();
        let want = Formula::Implies(
            Box::new(Formula::Or(vec![
                prop("p"),
                Formula::And(vec![prop("q"), Formula::knows(a, prop("r"))]),
            ])),
            Box::new(prop("s")),
        );
        assert_eq!(f, want);
    }

    #[test]
    fn implication_is_right_associative() {
        let mut voc = Vocabulary::new();
        match formula("p -> q -> r", &mut voc) {
            Formula::Implies(_, rhs) => assert!(matches!(*rhs, Formula::Implies(..))),
            other => panic!("expected Implies, got {other:?}"),
        }
    }

    #[test]
    fn parses_knowledge_and_groups() {
        let mut voc = Vocabulary::new();
        let f = formula("K{alice} p & C{alice,bob} q", &mut voc);
        let alice = voc.agent("alice").unwrap();
        let bob = voc.agent("bob").unwrap();
        assert!(f.agents().contains(alice));
        assert!(f.agents().contains(bob));
        let g = formula("C{a,b} (p | !q)", &mut voc);
        assert_eq!(g.agents().len(), 2);
    }

    #[test]
    fn singleton_group_modalities_normalize_to_k() {
        let mut voc = Vocabulary::new();
        assert!(matches!(
            formula("E{alice} p", &mut voc),
            Formula::Knows(..)
        ));
        assert!(matches!(
            formula("D{alice} p", &mut voc),
            Formula::Knows(..)
        ));
    }

    #[test]
    fn parses_temporal() {
        let mut voc = Vocabulary::new();
        assert!(formula("G (req -> F ack)", &mut voc).has_temporal());
        // Right associative: p U (q U r)
        match formula("p U q U r", &mut voc) {
            Formula::Until(_, rhs) => assert!(matches!(*rhs, Formula::Until(..))),
            other => panic!("expected Until, got {other:?}"),
        }
    }

    #[test]
    fn reports_error_positions() {
        assert_eq!(first_error("p & ").span.start, 4);
        assert_eq!(first_error("p @ q").span.start, 2);
        let e = first_error("p q");
        assert_eq!(e.span.start, 2);
        assert!(
            e.message.contains("end of input after the formula"),
            "{e:?}"
        );
        let e = first_error("K{");
        assert!(e.message.contains("naming the agent"), "{e:?}");
    }

    #[test]
    fn display_parse_roundtrips() {
        for src in [
            "p & q | r",
            "!(p & q)",
            "K{alice} (p -> q)",
            "C{a,b} p <-> D{a,b} q",
            "G (req -> F ack)",
            "p U (q & r)",
            "!K{a} !p",
            "E{a,b} (p | !q) & X p",
            "((p))",
            "true & false | p",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn interns_names_in_first_use_order() {
        let mut voc = Vocabulary::new();
        formula("zeta & K{bob} alpha & C{ann,bob} zeta", &mut voc);
        let props: Vec<&str> = voc.props().map(|(_, n)| n).collect();
        assert_eq!(props, vec!["zeta", "alpha"]);
        let agents: Vec<&str> = voc.agents().map(|(_, n)| n).collect();
        assert_eq!(agents, vec!["bob", "ann"]);
    }

    #[test]
    fn a_syntax_error_interns_nothing() {
        let mut voc = Vocabulary::new();
        assert!(parse_formula("K{alice} rain &", &mut voc).is_err());
        assert_eq!((voc.agent_count(), voc.prop_count()), (0, 0));
    }

    #[test]
    fn keywords_are_reserved() {
        for word in ["do", "case", "init", "program", "default"] {
            let e = first_error(&format!("K{{a}} {word}"));
            assert!(e.message.contains(&format!("`{word}`")), "{word}: {e:?}");
        }
    }

    #[test]
    fn doubled_connectives_and_comments_are_accepted() {
        let mut voc = Vocabulary::new();
        let single = formula("p & q | r", &mut voc);
        let doubled = formula("p && q || r # trailing comment", &mut voc);
        let split = formula("p & // line comment\n  q | r", &mut voc);
        assert_eq!(single, doubled);
        assert_eq!(single, split);
    }

    #[test]
    fn a_65th_agent_is_refused_without_panicking() {
        let group: Vec<String> = (0..=Agent::MAX_AGENTS).map(|i| format!("a{i}")).collect();
        let src = format!("C{{{}}} p", group.join(","));
        let mut voc = Vocabulary::new();
        let diags = parse_formula(&src, &mut voc).expect_err("65 agents");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("too many agents"), "{diags:?}");
        let last = src.find(&format!("a{}", Agent::MAX_AGENTS)).unwrap();
        assert_eq!(diags[0].span.start, last);
        assert_eq!(voc.agent_count(), Agent::MAX_AGENTS);
        // The 64 that fit are all usable.
        let fits = format!("C{{{}}} p", group[..Agent::MAX_AGENTS].join(","));
        let f = formula(&fits, &mut Vocabulary::new());
        assert_eq!(f.agents(), AgentSet::all(Agent::MAX_AGENTS));
    }

    fn lamp_ctx() -> FnContext {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("tender");
        let lit = voc.add_prop("lit");
        ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop", "switch"])
            .transition(|s, j| {
                if j.acts[0] == ActionId(1) {
                    s.with_reg(0, 1)
                } else {
                    s.clone()
                }
            })
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(move |p, s| p == lit && s.reg(0) == 1)
            .build()
    }

    fn program_error(src: &str) -> Diagnostic {
        let ctx = lamp_ctx();
        let diags = parse_program(src, &ctx).expect_err("must not parse");
        diags[0].clone()
    }

    #[test]
    fn parses_a_simple_program() {
        let ctx = lamp_ctx();
        let kbp = parse_program(
            "
            # the lamp tender
            program tender {
                case !K{tender} lit do switch
                default noop
            }
            ",
            &ctx,
        )
        .unwrap();
        assert_eq!(kbp.validate(&ctx), Ok(()));
        let prog = kbp.program(Agent::new(0)).unwrap();
        assert_eq!(prog.clauses().len(), 1);
        assert_eq!(prog.clauses()[0].action, ActionId(1));
        assert_eq!(prog.default_action(), ActionId(0));
        assert_eq!(
            prog.clauses()[0].guard,
            Formula::not(Formula::knows(Agent::new(0), Formula::prop(PropId::new(0))))
        );
    }

    #[test]
    fn an_empty_source_is_an_empty_program() {
        assert_eq!(
            parse_program("  # nothing\n", &lamp_ctx()),
            Ok(Kbp::builder().build())
        );
    }

    #[test]
    fn line_breaks_do_not_matter() {
        let ctx = lamp_ctx();
        let wrapped = parse_program(
            "program tender {\ncase !K{tender} lit\n   & !K{tender} !lit\n   do switch\ndefault noop\n}",
            &ctx,
        )
        .unwrap();
        let prog = wrapped.program(Agent::new(0)).unwrap();
        assert_eq!(prog.clauses().len(), 1);
        assert!(matches!(prog.clauses()[0].guard, Formula::And(_)));
        let one_line = parse_program(
            "program tender { case !K{tender} lit & !K{tender} !lit do switch default noop }",
            &ctx,
        );
        assert_eq!(one_line, Ok(wrapped));
    }

    #[test]
    fn parsed_program_solves_like_the_built_one() {
        let ctx = lamp_ctx();
        let parsed = parse_program(
            "program tender {\n case !K{tender} lit do switch\n default noop\n}",
            &ctx,
        )
        .unwrap();
        let a = Agent::new(0);
        let built = Kbp::builder()
            .clause(
                a,
                Formula::not(Formula::knows(a, Formula::prop(PropId::new(0)))),
                ActionId(1),
            )
            .default_action(a, ActionId(0))
            .build();
        assert_eq!(parsed, built);
        let s1 = SyncSolver::new(&ctx, &parsed).horizon(3).solve().unwrap();
        let s2 = SyncSolver::new(&ctx, &built).horizon(3).solve().unwrap();
        assert_eq!(s1.protocol(), s2.protocol());
    }

    #[test]
    fn errors_carry_spans() {
        let src = "program nobody {\n}\n";
        let e = program_error(src);
        assert_eq!(e.span.start, src.find("nobody").unwrap());
        assert!(e.message.contains("unknown agent `nobody`"), "{e:?}");

        let src = "program tender {\ncase K{tender} lit do explode\n}";
        let e = program_error(src);
        assert_eq!(e.span.start, src.find("explode").unwrap());
        assert!(e.message.contains("unknown action `explode`"), "{e:?}");

        // A bad guard.
        let src = "program tender {\ncase K{tender} ( do switch\n}";
        let e = program_error(src);
        assert_eq!(e.span.start, src.find("do").unwrap());
        assert!(e.message.contains("expected a guard"), "{e:?}");

        // A name the context does not declare.
        let src = "program tender {\ncase K{tender} ghost do switch\n}";
        let e = program_error(src);
        assert_eq!(e.span.start, src.find("ghost").unwrap());
        assert!(e.message.contains("unknown proposition `ghost`"), "{e:?}");
        let e = program_error("program tender { case K{ghost} lit do switch }");
        assert!(
            e.message.contains("unknown agent `ghost` in `K{…}`"),
            "{e:?}"
        );

        // `default` outside a block.
        let e = program_error("default noop\n");
        assert_eq!(e.span.start, 0);
        assert!(e.message.contains("expected `program`"), "{e:?}");

        // An unterminated block.
        let e = program_error("program tender {\n");
        assert!(e.message.contains("closing the `program` body"), "{e:?}");

        let e = program_error("program tender { default noop }\nprogram tender { default noop }");
        assert!(e.message.contains("duplicate `program`"), "{e:?}");
    }
}
