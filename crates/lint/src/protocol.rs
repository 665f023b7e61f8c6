//! Seed-hygiene check over `core`'s per-item loops.
//!
//! Transcript byte-identity across worker counts needs every worker to
//! draw the phase RNG identically. Inside an ownership-guarded branch
//! (`if owns(i) { .. }`) the phase RNG may only be used to draw child
//! seeds (`rng.next_u64()`); any other draw executes only on owned
//! items, making the stream depend on which items this worker owns and
//! desynchronizing the transcript between worker counts. Replicated
//! (unconditional) draws are deterministic everywhere and stay exempt.
//!
//! Who appends a posting and when the log is read are not checked here:
//! `core`'s board view decides the first when it flushes a buffer, and
//! the log's reads come only from the view's `finish`, which consumes it.

use std::collections::BTreeSet;

use crate::config::RuleId;
use crate::lexer::{TokKind, Token};
use crate::parse::{FnItem, Span};

/// Identifiers that prove an ownership decision.
const OWNERSHIP_TESTS: [&str; 3] = ["owns", "is_leader", "is_solo"];

/// Run the seed-hygiene pass over every parsed function.
pub fn protocol_pass(
    tokens: &[Token],
    fns: &[FnItem],
    mask: &[bool],
    emit: &mut dyn FnMut(RuleId, usize, String),
) {
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    for f in fns {
        if mask.get(f.fn_tok).copied().unwrap_or(false) {
            continue;
        }
        check_seeds(tokens, f, &mut |rule: RuleId, line: usize, msg: String| {
            if seen.insert((line, msg.clone())) {
                emit(rule, line, msg);
            }
        });
    }
}

/// True if a guard condition is an ownership decision: it mentions an
/// ownership test directly, a binding initialized from one, or a
/// parameter *named* like an ownership flag — `if phase == 0` is not an
/// ownership decision just because `phase` is a parameter.
fn ownership_cond(tokens: &[Token], f: &FnItem, span: Span) -> bool {
    for i in span.0..span.1.min(tokens.len()) {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if OWNERSHIP_TESTS.contains(&t.text.as_str()) {
            return true;
        }
        if let Some(init) = f.binding_init(&t.text, i) {
            if tokens[init.0..init.1]
                .iter()
                .any(|x| OWNERSHIP_TESTS.contains(&x.text.as_str()))
            {
                return true;
            }
            continue;
        }
        if f.params.iter().any(|p| p.name == t.text)
            && (t.text.contains("own") || t.text.contains("leader") || t.text.contains("solo"))
        {
            return true;
        }
    }
    false
}

fn check_seeds(tokens: &[Token], f: &FnItem, emit: &mut dyn FnMut(RuleId, usize, String)) {
    // RNG bindings: parameters typed `*Rng*` or named `rng`.
    let mut rngs: BTreeSet<&str> = BTreeSet::new();
    for p in &f.params {
        if p.name == "rng" || p.ty.iter().any(|t| t.contains("Rng")) {
            rngs.insert(p.name.as_str());
        }
    }
    if rngs.is_empty() {
        return;
    }
    // A draw that runs only when this worker owns the item advances the
    // RNG a worker-dependent number of times; a replicated draw outside
    // the guard is deterministic at every worker count, so only the
    // guarded bodies are scanned.
    for g in &f.guards {
        if !ownership_cond(tokens, f, g.cond) {
            continue;
        }
        let mut i = g.body.0;
        while i < g.body.1.min(tokens.len()) {
            let t = &tokens[i];
            if t.kind == TokKind::Ident && rngs.contains(t.text.as_str()) {
                // Preceded by `.`: a field named like the rng, not the rng.
                if i > 0 && tokens[i - 1].is_punct('.') {
                    i += 1;
                    continue;
                }
                let is_child_seed = tokens.get(i + 1).map(|n| n.is_punct('.')).unwrap_or(false)
                    && tokens.get(i + 2).map(|n| n.is_ident("next_u64")).unwrap_or(false);
                if !is_child_seed {
                    emit(
                        RuleId::SeedHygiene,
                        t.line,
                        format!(
                            "phase RNG `{}` drawn inside an ownership-guarded branch; \
                             draw a per-item child seed before the guard \
                             (`StdRng::seed_from_u64({}.next_u64())`) so the stream does \
                             not depend on which items this worker owns",
                            t.text, t.text
                        ),
                    );
                }
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn run(src: &str) -> Vec<(RuleId, usize, String)> {
        let lexed = lex(src);
        let fns = parse(&lexed.tokens);
        let mask = vec![false; lexed.tokens.len()];
        let mut out = Vec::new();
        protocol_pass(&lexed.tokens, &fns, &mask, &mut |r, l, m| out.push((r, l, m)));
        out
    }

    #[test]
    fn rng_draw_inside_ownership_guard_flagged() {
        let f = run(
            "fn f(rng: &mut R, cfg: &Cfg) { for i in 0..n { \
               if cfg.partition.owns(i) { let share = deal(rng, i); } } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, RuleId::SeedHygiene);
        // Through a binding and through a flag-named parameter too.
        let f = run(
            "fn f(rng: &mut R, cfg: &Cfg) { for i in 0..n { \
               let owned = cfg.partition.owns(i); \
               if owned { let share = deal(rng, i); } } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        let f = run("fn f(rng: &mut R, owned: bool) { if owned { deal(rng); } }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn replicated_draw_next_to_ownership_test_clean() {
        // The draw itself is unconditional — every worker advances the
        // stream identically even though the loop body tests ownership.
        let f = run(
            "fn f(rng: &mut R, cfg: &Cfg) { for i in 0..n { \
               let c = sample_committee(rng, label(i), n); \
               if cfg.partition.owns(i) { work(c); } } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn child_seed_draw_is_clean() {
        let f = run(
            "fn f(rng: &mut R, cfg: &Cfg) { for i in 0..n { \
               let mut mrng = StdRng::seed_from_u64(rng.next_u64()); \
               let owned = cfg.partition.owns(i); \
               if owned { work(&mut mrng); } } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unconditional_replicated_loop_exempt() {
        // Every worker runs the identical loop (replicated values): direct
        // rng use is deterministic across worker counts.
        let f = run(
            "fn f(rng: &mut R) { for i in 0..n { let x = deal(rng, i); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
