//! Robustness: the formula and program entries of `kbp-lang` must return
//! diagnostics, never panic, on arbitrary input — including near-miss
//! mutations of valid programs.

use kbp_lang::{parse_formula, parse_program};
use kbp_logic::Vocabulary;
use kbp_systems::{ActionId, ContextBuilder, FnContext, GlobalState, Obs};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The formula parser never panics.
    #[test]
    fn formula_parser_total(input in ".{0,80}") {
        let mut voc = Vocabulary::new();
        let _ = parse_formula(&input, &mut voc);
    }

    /// The formula parser never panics on operator soup.
    #[test]
    fn formula_parser_total_on_op_soup(input in "[KECDXFGU!&|(){}<>a-z,\\- ]{0,60}") {
        let mut voc = Vocabulary::new();
        let _ = parse_formula(&input, &mut voc);
    }

    /// The program parser never panics.
    #[test]
    fn program_parser_total(input in "[a-z{}#!KECD ()|&\\n]{0,120}") {
        let ctx = lamp_ctx();
        let _ = parse_program(&input, &ctx);
    }

    /// Mutating one byte of a valid program parses or errors, never
    /// panics — and parsing the unmutated text always succeeds.
    #[test]
    fn program_parser_survives_mutation(pos in 0usize..100, byte in 32u8..127) {
        let source = "program tender {\n    case !K{tender} lit do switch\n    default noop\n}\n";
        let ctx = lamp_ctx();
        assert!(parse_program(source, &ctx).is_ok());
        let mut bytes = source.as_bytes().to_vec();
        let idx = pos % bytes.len();
        bytes[idx] = byte;
        if let Ok(mutated) = String::from_utf8(bytes) {
            let _ = parse_program(&mutated, &ctx);
        }
    }
}
