//! Lowering: compiling a checked scenario into the exact artifacts the
//! rest of the workspace consumes — a [`kbp_systems::FnContext`] and a
//! [`kbp_core::Kbp`].
//!
//! The contract is **structural fidelity**: guards lower into the same
//! [`Formula`] shapes the hand-coded scenarios build (`&`/`|` chains
//! stay flattened n-ary, `K{i}` becomes
//! [`Formula::knows`], groups become the corresponding group
//! constructors), and every identifier space (agents, registers,
//! propositions, actions, environment actions, initial states) is
//! numbered in declaration order. A DSL transcription of a Rust-coded
//! scenario therefore solves bit-identically to the original.

use crate::analyze::Analysis;
use crate::ast::{BinOp, Expr, GroupOp, Guard, RecallKind, Scenario};
use kbp_core::Kbp;
use kbp_logic::{Agent, AgentSet, Formula, PropId, Vocabulary};
use kbp_systems::{
    ActionId, ContextBuilder, EnvActionId, FnContext, GlobalState, JointAction, Obs, Recall,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A compiled scenario: everything needed to instantiate fresh
/// `(FnContext, Kbp)` pairs. Cloning is cheap (the lowered body is
/// shared), and instantiation is deterministic.
#[derive(Debug, Clone)]
pub struct Compiled {
    name: String,
    default_horizon: u64,
    recall: Recall,
    solvable: bool,
    lowered: Arc<Lowered>,
}

impl Compiled {
    /// The scenario's declared name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared `horizon`.
    #[must_use]
    pub fn default_horizon(&self) -> u64 {
        self.default_horizon
    }

    /// The declared `recall` mode (perfect by default).
    #[must_use]
    pub fn recall(&self) -> Recall {
        self.recall
    }

    /// Whether the fixed-point solver applies (no future-referring
    /// guards).
    #[must_use]
    pub fn solvable(&self) -> bool {
        self.solvable
    }

    /// Number of agents.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.lowered.agent_names.len()
    }

    /// Builds a fresh context and program.
    #[must_use]
    pub fn instantiate(&self) -> (FnContext, Kbp) {
        let l = &self.lowered;
        let mut voc = Vocabulary::new();
        for a in &l.agent_names {
            voc.add_agent(a.clone());
        }
        for p in &l.prop_names {
            voc.add_prop(p.clone());
        }
        let mut builder = ContextBuilder::new(voc)
            .initial_states(l.inits.iter().map(|regs| GlobalState::new(regs.clone())));
        for (i, repertoire) in l.actions.iter().enumerate() {
            builder = builder.agent_actions(Agent::new(i), repertoire.iter().map(String::as_str));
        }
        if !l.env_names.is_empty() {
            let count = l.env_names.len() as u32;
            builder = builder
                .env_actions(l.env_names.iter().map(String::as_str))
                .env_protocol(move |_| (0..count).map(EnvActionId).collect());
        }
        let lt = Arc::clone(&self.lowered);
        let lo = Arc::clone(&self.lowered);
        let lp = Arc::clone(&self.lowered);
        let ctx = builder
            .transition(move |s, j| {
                let regs = (0..lt.var_count)
                    .map(|r| match lt.updates.get(r) {
                        Some(Some(e)) => eval(e, s, Some(j)) as u32,
                        _ => s.reg(r),
                    })
                    .collect();
                GlobalState::new(regs)
            })
            .observe(move |agent, s| Obs(lo.obs.get(agent.index()).map_or(0, |e| eval(e, s, None))))
            .props(move |p, s| {
                lp.props
                    .get(p.index())
                    .is_some_and(|e| eval(e, s, None) != 0)
            })
            .build();
        let mut kbp = Kbp::builder();
        for (i, prog) in l.programs.iter().enumerate() {
            let agent = Agent::new(i);
            for (guard, action) in &prog.cases {
                kbp = kbp.clause(agent, guard.clone(), *action);
            }
            kbp = kbp.default_action(agent, prog.default);
            for prop in l.locals.get(i).into_iter().flatten() {
                kbp = kbp.local_prop(agent, PropId::new(*prop));
            }
        }
        (ctx, kbp.build())
    }
}

/// One agent's lowered program.
#[derive(Debug)]
struct LoweredProgram {
    cases: Vec<(Formula, ActionId)>,
    default: ActionId,
}

/// The name-free lowered body, indexed entirely by declaration order.
#[derive(Debug)]
struct Lowered {
    agent_names: Vec<String>,
    prop_names: Vec<String>,
    var_count: usize,
    inits: Vec<Vec<u32>>,
    env_names: Vec<String>,
    /// Per agent: action names in `ActionId` order.
    actions: Vec<Vec<String>>,
    /// Per agent: observation expression.
    obs: Vec<LExpr>,
    /// Per proposition: truth expression.
    props: Vec<LExpr>,
    /// Per register: update expression (`None` keeps the old value).
    updates: Vec<Option<LExpr>>,
    /// Per agent: locally-observable proposition indices.
    locals: Vec<Vec<u32>>,
    /// Per agent: the program.
    programs: Vec<LoweredProgram>,
}

/// Resolved integer expressions: names are gone, only indices remain.
#[derive(Debug)]
enum LExpr {
    Num(u64),
    Reg(usize),
    /// The acting agent's chosen `ActionId`, as a number.
    Act(usize),
    /// The environment's `EnvActionId`, as a number.
    Env,
    Not(Box<LExpr>),
    Bin(BinOp, Box<LExpr>, Box<LExpr>),
    If(Box<LExpr>, Box<LExpr>, Box<LExpr>),
}

fn eval(e: &LExpr, s: &GlobalState, j: Option<&JointAction>) -> u64 {
    match e {
        LExpr::Num(v) => *v,
        LExpr::Reg(r) => u64::from(s.reg(*r)),
        LExpr::Act(i) => j.and_then(|j| j.acts.get(*i)).map_or(0, |a| u64::from(a.0)),
        LExpr::Env => j.map_or(0, |j| u64::from(j.env.0)),
        LExpr::Not(inner) => u64::from(eval(inner, s, j) == 0),
        LExpr::If(c, a, b) => {
            if eval(c, s, j) != 0 {
                eval(a, s, j)
            } else {
                eval(b, s, j)
            }
        }
        LExpr::Bin(op, a, b) => {
            let x = eval(a, s, j);
            let y = eval(b, s, j);
            match op {
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Shl => {
                    if y < 64 {
                        x << y
                    } else {
                        0
                    }
                }
                BinOp::Shr => {
                    if y < 64 {
                        x >> y
                    } else {
                        0
                    }
                }
                BinOp::BitAnd => x & y,
                BinOp::BitXor => x ^ y,
                BinOp::BitOr => x | y,
                BinOp::Eq => u64::from(x == y),
                BinOp::Ne => u64::from(x != y),
                BinOp::Lt => u64::from(x < y),
                BinOp::Le => u64::from(x <= y),
                BinOp::Gt => u64::from(x > y),
                BinOp::Ge => u64::from(x >= y),
                BinOp::And => u64::from(x != 0 && y != 0),
                BinOp::Or => u64::from(x != 0 || y != 0),
            }
        }
    }
}

/// Name-resolution tables shared by expression and guard lowering.
pub(crate) struct Tables<'a> {
    pub(crate) agents: HashMap<&'a str, usize>,
    vars: HashMap<&'a str, usize>,
    pub(crate) props: HashMap<&'a str, u32>,
    env: HashMap<&'a str, u64>,
    /// Per agent: action name → id.
    actions: Vec<HashMap<&'a str, u32>>,
}

impl<'a> Tables<'a> {
    /// The agents and propositions of a vocabulary, for lowering guards
    /// outside a scenario.
    pub(crate) fn of_vocabulary(voc: &'a Vocabulary) -> Self {
        Tables {
            agents: voc.agents().map(|(a, name)| (name, a.index())).collect(),
            vars: HashMap::new(),
            props: voc
                .props()
                .map(|(p, name)| (name, p.index() as u32))
                .collect(),
            env: HashMap::new(),
            actions: Vec::new(),
        }
    }
}

/// Lowers a scenario that passed [`crate::analyze::analyze`] with no
/// errors. Resolution is total: names the analyzer would have rejected
/// fall back to index 0, so this never panics even on unchecked input
/// (the result is then simply meaningless).
#[must_use]
pub fn lower(sc: &Scenario, analysis: Analysis) -> Compiled {
    let mut tables = Tables {
        agents: HashMap::new(),
        vars: HashMap::new(),
        props: HashMap::new(),
        env: HashMap::new(),
        actions: vec![HashMap::new(); sc.agents.len()],
    };
    for (i, a) in sc.agents.iter().enumerate() {
        tables.agents.entry(&a.text).or_insert(i);
    }
    for (i, v) in sc.vars.iter().enumerate() {
        tables.vars.entry(&v.text).or_insert(i);
    }
    for (i, p) in sc.props.iter().enumerate() {
        tables.props.entry(&p.name.text).or_insert(i as u32);
    }
    for (i, e) in sc.env_actions.iter().enumerate() {
        tables.env.entry(&e.text).or_insert(i as u64);
    }
    // Repertoires keyed by declared agent order, regardless of the
    // order the `actions` lines appear in.
    let mut actions: Vec<Vec<String>> = vec![Vec::new(); sc.agents.len()];
    for decl in &sc.actions {
        if let Some(&i) = tables.agents.get(decl.agent.text.as_str()) {
            if actions[i].is_empty() {
                actions[i] = decl.actions.iter().map(|a| a.text.clone()).collect();
                for (id, a) in decl.actions.iter().enumerate() {
                    tables.actions[i].entry(&a.text).or_insert(id as u32);
                }
            }
        }
    }
    let obs: Vec<LExpr> = sc
        .agents
        .iter()
        .map(|a| {
            sc.obs
                .iter()
                .find(|o| o.agent.text == a.text)
                .map_or(LExpr::Num(0), |o| lower_expr(&o.expr, &tables))
        })
        .collect();
    let props: Vec<LExpr> = sc
        .props
        .iter()
        .map(|p| lower_expr(&p.expr, &tables))
        .collect();
    let mut updates: Vec<Option<LExpr>> = (0..sc.vars.len()).map(|_| None).collect();
    if let Some(t) = &sc.transition {
        for u in &t.updates {
            if let Some(&r) = tables.vars.get(u.var.text.as_str()) {
                if updates[r].is_none() {
                    updates[r] = Some(lower_expr(&u.expr, &tables));
                }
            }
        }
    }
    let locals: Vec<Vec<u32>> = sc
        .agents
        .iter()
        .map(|a| {
            let mut out = Vec::new();
            for decl in sc.locals.iter().filter(|l| l.agent.text == a.text) {
                for p in &decl.props {
                    if let Some(&id) = tables.props.get(p.text.as_str()) {
                        if !out.contains(&id) {
                            out.push(id);
                        }
                    }
                }
            }
            out
        })
        .collect();
    let programs: Vec<LoweredProgram> = sc
        .agents
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let Some(decl) = sc.programs.iter().find(|p| p.agent.text == a.text) else {
                return LoweredProgram {
                    cases: Vec::new(),
                    default: ActionId(0),
                };
            };
            let cases = decl
                .cases
                .iter()
                .map(|c| {
                    let action = tables.actions[i]
                        .get(c.action.text.as_str())
                        .copied()
                        .unwrap_or(0);
                    (lower_guard(&c.guard, &tables), ActionId(action))
                })
                .collect();
            let default = decl
                .default
                .as_ref()
                .and_then(|d| tables.actions[i].get(d.text.as_str()).copied())
                .unwrap_or(0);
            LoweredProgram {
                cases,
                default: ActionId(default),
            }
        })
        .collect();
    Compiled {
        name: sc.name.text.clone(),
        default_horizon: sc.horizon.map_or(1, |(h, _)| h),
        recall: match sc.recall.map(|(r, _)| r).unwrap_or_default() {
            RecallKind::Perfect => Recall::Perfect,
            RecallKind::Observational => Recall::Observational,
        },
        solvable: analysis.solvable,
        lowered: Arc::new(Lowered {
            agent_names: sc.agents.iter().map(|a| a.text.clone()).collect(),
            prop_names: sc.props.iter().map(|p| p.name.text.clone()).collect(),
            var_count: sc.vars.len(),
            inits: sc
                .inits
                .iter()
                .map(|init| init.values.iter().map(|(v, _)| *v as u32).collect())
                .collect(),
            env_names: sc.env_actions.iter().map(|e| e.text.clone()).collect(),
            actions,
            obs,
            props,
            updates,
            locals,
            programs,
        }),
    }
}

fn lower_expr(e: &Expr, t: &Tables<'_>) -> LExpr {
    match e {
        Expr::Num(v, _) => LExpr::Num(*v),
        Expr::Var(id) => LExpr::Reg(t.vars.get(id.text.as_str()).copied().unwrap_or(0)),
        Expr::Act(agent, _) => LExpr::Act(t.agents.get(agent.text.as_str()).copied().unwrap_or(0)),
        Expr::Env(_) => LExpr::Env,
        Expr::Not(inner, _) => LExpr::Not(Box::new(lower_expr(inner, t))),
        Expr::If(c, a, b, _) => LExpr::If(
            Box::new(lower_expr(c, t)),
            Box::new(lower_expr(a, t)),
            Box::new(lower_expr(b, t)),
        ),
        Expr::Bin(op, a, b, _) => {
            // `act(i) == name` / `env == name`: the identifier denotes
            // an action, not a register.
            if matches!(op, BinOp::Eq | BinOp::Ne) {
                if let Some(resolved) = lower_action_compare(*op, a, b, t)
                    .or_else(|| lower_action_compare(*op, b, a, t))
                {
                    return resolved;
                }
            }
            LExpr::Bin(*op, Box::new(lower_expr(a, t)), Box::new(lower_expr(b, t)))
        }
    }
}

fn lower_action_compare(op: BinOp, lhs: &Expr, rhs: &Expr, t: &Tables<'_>) -> Option<LExpr> {
    let Expr::Var(name) = rhs else {
        return None;
    };
    match lhs {
        Expr::Act(agent, _) => {
            let i = t.agents.get(agent.text.as_str()).copied().unwrap_or(0);
            let id = t
                .actions
                .get(i)
                .and_then(|m| m.get(name.text.as_str()))
                .copied()
                .unwrap_or(0);
            Some(LExpr::Bin(
                op,
                Box::new(LExpr::Act(i)),
                Box::new(LExpr::Num(u64::from(id))),
            ))
        }
        Expr::Env(_) => {
            let id = t.env.get(name.text.as_str()).copied().unwrap_or(0);
            Some(LExpr::Bin(
                op,
                Box::new(LExpr::Env),
                Box::new(LExpr::Num(id)),
            ))
        }
        _ => None,
    }
}

pub(crate) fn lower_guard(g: &Guard, t: &Tables<'_>) -> Formula {
    let agent_of =
        |id: &crate::ast::Ident| Agent::new(t.agents.get(id.text.as_str()).copied().unwrap_or(0));
    match g {
        Guard::True(_) => Formula::True,
        Guard::False(_) => Formula::False,
        Guard::Prop(id) => Formula::prop(PropId::new(
            t.props.get(id.text.as_str()).copied().unwrap_or(0),
        )),
        Guard::Not(inner, _) => Formula::not(lower_guard(inner, t)),
        // Construct the n-ary variants directly, not through the
        // smart constructors, to preserve chain flattening.
        Guard::And(items, _) => Formula::And(items.iter().map(|i| lower_guard(i, t)).collect()),
        Guard::Or(items, _) => Formula::Or(items.iter().map(|i| lower_guard(i, t)).collect()),
        Guard::Implies(a, b, _) => {
            Formula::Implies(Box::new(lower_guard(a, t)), Box::new(lower_guard(b, t)))
        }
        Guard::Iff(a, b, _) => {
            Formula::Iff(Box::new(lower_guard(a, t)), Box::new(lower_guard(b, t)))
        }
        Guard::Knows(agent, inner, _) => Formula::knows(agent_of(agent), lower_guard(inner, t)),
        Guard::Group(op, agents, inner, _) => {
            let mut set = AgentSet::new();
            for a in agents {
                set.insert(agent_of(a));
            }
            let inner = lower_guard(inner, t);
            match op {
                GroupOp::Everyone => Formula::everyone(set, inner),
                GroupOp::Common => Formula::common(set, inner),
                GroupOp::Distributed => Formula::distributed(set, inner),
            }
        }
        Guard::Next(inner, _) => Formula::next(lower_guard(inner, t)),
        Guard::Eventually(inner, _) => Formula::eventually(lower_guard(inner, t)),
        Guard::Always(inner, _) => Formula::always(lower_guard(inner, t)),
        Guard::Until(a, b, _) => Formula::until(lower_guard(a, t), lower_guard(b, t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::parse;
    use kbp_core::SyncSolver;
    use kbp_systems::Context;

    const SMALL: &str = "
scenario tiny {
  horizon 3
  agents a, b
  vars x, seen
  init [0, 0]
  init [1, 0]
  env tick, tock
  actions a: stay, move
  actions b: wait, wave
  obs a = x | seen << 1
  obs b = seen
  prop set = x == 1
  prop noticed = seen == 1
  local a: set
  local b: noticed
  transition {
    seen = if act(b) == wave || env == tock then 1 else seen
  }
  program a {
    case K{a} set do move
    default stay
  }
  program b {
    case K{b} noticed do wave
    default wait
  }
}
";

    fn compiled(src: &str) -> Compiled {
        let (sc, mut diags) = parse(src);
        let sc = sc.expect("parses");
        let analysis = analyze(&sc, &mut diags);
        assert!(
            !crate::diag::has_errors(&diags),
            "unexpected diagnostics: {diags:?}"
        );
        lower(&sc, analysis)
    }

    #[test]
    fn lowers_and_validates_against_the_context() {
        let c = compiled(SMALL);
        assert_eq!(c.name(), "tiny");
        assert_eq!(c.default_horizon(), 3);
        assert_eq!(c.recall(), Recall::Perfect);
        assert!(c.solvable());
        let (ctx, kbp) = c.instantiate();
        assert_eq!(ctx.agent_count(), 2);
        assert_eq!(ctx.vocabulary().prop_count(), 2);
        kbp.validate(&ctx).expect("lowered program validates");
    }

    #[test]
    fn declaration_order_fixes_all_ids() {
        let c = compiled(SMALL);
        let (ctx, _) = c.instantiate();
        assert_eq!(ctx.action_name(Agent::new(0), ActionId(1)), "move");
        assert_eq!(ctx.action_name(Agent::new(1), ActionId(1)), "wave");
        assert_eq!(ctx.env_action_name(EnvActionId(1)), "tock");
        let inits = ctx.initial_states();
        assert_eq!(inits[0].regs(), &[0, 0]);
        assert_eq!(inits[1].regs(), &[1, 0]);
    }

    #[test]
    fn transition_reads_pre_state_and_keeps_unlisted_vars() {
        let c = compiled(SMALL);
        let (ctx, _) = c.instantiate();
        let s = GlobalState::new(vec![1, 0]);
        // b waves: seen flips, x (unlisted) is kept.
        let next = ctx.transition(
            &s,
            &JointAction::new(EnvActionId(0), vec![ActionId(0), ActionId(1)]),
        );
        assert_eq!(next.regs(), &[1, 1]);
        // Nobody acts, env ticks: unchanged.
        let idle = ctx.transition(
            &s,
            &JointAction::new(EnvActionId(0), vec![ActionId(0), ActionId(0)]),
        );
        assert_eq!(idle.regs(), &[1, 0]);
        // env == tock also sets seen.
        let tock = ctx.transition(
            &s,
            &JointAction::new(EnvActionId(1), vec![ActionId(0), ActionId(0)]),
        );
        assert_eq!(tock.regs(), &[1, 1]);
    }

    #[test]
    fn compiled_scenario_solves() {
        let c = compiled(SMALL);
        let (ctx, kbp) = c.instantiate();
        let solution = SyncSolver::new(&ctx, &kbp)
            .horizon(c.default_horizon() as usize)
            .solve()
            .expect("solves");
        assert!(solution.stats().layers > 0);
    }

    #[test]
    fn guard_lowering_matches_hand_built_formulas() {
        let src = "
scenario shapes {
  horizon 1
  agents s, r
  vars bit
  init [0]
  actions s: noop, send
  actions r: noop2
  obs s = bit
  obs r = bit
  prop p = bit == 1
  program s {
    case !K{s} (K{r} p | K{r} !p) do send
    default noop
  }
  program r { default noop2 }
}
";
        let c = compiled(src);
        let (_, kbp) = c.instantiate();
        let s = Agent::new(0);
        let r = Agent::new(1);
        let want = Formula::not(Formula::knows(
            s,
            Formula::knows_whether(r, Formula::prop(PropId::new(0))),
        ));
        let got = &kbp.programs()[0].clauses()[0].guard;
        assert_eq!(*got, want, "DSL guard must be structurally identical");
    }
}
