//! Board-protocol discipline checks over `core`'s posting call sites.
//!
//! PR 6 made three conventions load-bearing for transcript byte-identity
//! across worker counts; this pass checks each intraprocedurally:
//!
//! 1. **Owner-only posting** (`unguarded-post`): core posts one way, by
//!    opening runs on a `PostBuffer` that the run's `ShardedBoard`
//!    flushes. The ownership flag of a `PostBuffer::open_run` call — or
//!    of a `post`/`post_run` on a buffer or board view — must be derived from
//!    `RolePartition::owns(..)`/`is_leader()`/`is_solo()` — directly in
//!    the argument, through a local binding whose initializer contains the
//!    test, or through a parameter (the caller's site is checked at the
//!    caller). Raw `BulletinBoard::post`/`post_run` calls in `core` bypass
//!    the sharded position accounting entirely and are flagged unless
//!    explicitly allowed.
//! 2. **Round-barrier ordering** (`round-discipline`): raw-board
//!    `advance_round()` only on leader/solo-guarded paths (the round tick
//!    is the YOSO handoff — two workers advancing double-ticks the
//!    clock), and no log reads — `postings*()`, or a `phases()` fold —
//!    before the first barrier call in functions that synchronize on
//!    one.
//! 3. **Per-item child-seed hygiene** (`seed-hygiene`): inside an
//!    ownership-guarded branch (`if owns(i) { .. }`) the phase RNG may
//!    only be used to draw child seeds (`rng.next_u64()`); any other draw
//!    executes only on owned items, making the stream depend on which
//!    items this worker owns and desynchronizing the transcript between
//!    worker counts. Replicated (unconditional) draws are deterministic
//!    everywhere and stay exempt.

use std::collections::BTreeSet;

use crate::config::RuleId;
use crate::lexer::{TokKind, Token};
use crate::parse::{match_delim, split_args, FnItem, Span};

/// Identifiers that prove an ownership decision.
const OWNERSHIP_TESTS: [&str; 3] = ["owns", "is_leader", "is_solo"];

/// Barrier calls a read may legitimately follow.
const BARRIERS: [&str; 5] =
    ["wait_round_at_least", "wait_len_at_least", "advance_round", "finish", "barrier"];

/// Run the protocol-discipline pass over every parsed function.
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
        let mut dedup = |rule: RuleId, line: usize, msg: String| {
            if seen.insert((line, msg.clone())) {
                emit(rule, line, msg);
            }
        };
        check_posts(tokens, f, &mut dedup);
        check_rounds(tokens, f, &mut dedup);
        check_seeds(tokens, f, &mut dedup);
    }
}

/// What a method receiver resolves to, by declared type, initializer, or
/// naming convention.
#[derive(Debug, PartialEq)]
enum Receiver {
    /// `ShardedBoard` or the internal `PostBuffer` — the owner-only API.
    Sharded,
    /// A raw `BulletinBoard` — posts bypass sharded accounting.
    Raw,
    /// `self` or anything else we cannot resolve.
    Unknown,
}

fn classify_receiver(tokens: &[Token], f: &FnItem, dot: usize) -> Receiver {
    // Base identifier of the chain `a.b.c.` ending at `dot`.
    let mut k = dot;
    let mut chain: Vec<&str> = Vec::new();
    while k > 0 && tokens[k - 1].kind == TokKind::Ident {
        chain.push(tokens[k - 1].text.as_str());
        if k >= 2 && tokens[k - 2].is_punct('.') {
            k -= 2;
        } else {
            break;
        }
    }
    let Some(&base) = chain.last() else { return Receiver::Unknown };
    if base == "self" {
        // `self.board.post(..)` inside the board wrapper's own impl: the
        // wrapper *is* the accounting layer, its internals are exempt.
        return Receiver::Unknown;
    }
    let ty = f.binding_type(base, dot);
    if ty.iter().any(|t| t == "ShardedBoard" || t == "PostBuffer") {
        return Receiver::Sharded;
    }
    if ty.iter().any(|t| t == "BulletinBoard") {
        return Receiver::Raw;
    }
    if let Some(init) = f.binding_init(base, dot) {
        let has = |name: &str| tokens[init.0..init.1].iter().any(|t| t.is_ident(name));
        if has("ShardedBoard") || has("PostBuffer") {
            return Receiver::Sharded;
        }
        if has("BulletinBoard") {
            return Receiver::Raw;
        }
    }
    match base {
        "sb" | "posts" => Receiver::Sharded,
        "board" => Receiver::Raw,
        _ => Receiver::Unknown,
    }
}

/// True if the expression span proves an ownership decision: it mentions
/// an ownership test directly, or only mentions bindings/parameters that
/// trace back to one.
fn ownership_derived(tokens: &[Token], f: &FnItem, span: Span) -> bool {
    let mut saw_ident = false;
    for i in span.0..span.1.min(tokens.len()) {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if OWNERSHIP_TESTS.contains(&t.text.as_str()) {
            return true;
        }
        saw_ident = true;
        // One level of indirection through a local binding.
        if let Some(init) = f.binding_init(&t.text, i) {
            if tokens[init.0..init.1]
                .iter()
                .any(|x| OWNERSHIP_TESTS.contains(&x.text.as_str()))
            {
                return true;
            }
            continue;
        }
        // A parameter: the caller decided ownership; its site is checked
        // at the caller, so trust it here.
        if f.params.iter().any(|p| p.name == t.text) {
            return true;
        }
    }
    // Literal flags (`true`, handled above as ident... `true` lexes as
    // ident) — a bare literal with no ownership pedigree fails the check.
    let _ = saw_ident;
    false
}

fn check_posts(tokens: &[Token], f: &FnItem, emit: &mut dyn FnMut(RuleId, usize, String)) {
    let body = f.body;
    let mut i = body.0;
    while i < body.1.min(tokens.len()) {
        let t = &tokens[i];
        let is_call = t.kind == TokKind::Ident
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
        if !is_call {
            i += 1;
            continue;
        }
        let is_post =
            matches!(t.text.as_str(), "post" | "post_batch" | "post_run" | "record" | "open_run");
        if !is_post {
            i += 1;
            continue;
        }
        let recv = classify_receiver(tokens, f, i - 1);
        let close = match_delim(tokens, i + 1);
        match recv {
            Receiver::Sharded => {
                // The first argument of `record`, `post`, `open_run` and
                // the run-level `post_run` is the ownership flag;
                // `post_batch` is a flush path with no flag of its own.
                if matches!(t.text.as_str(), "post" | "post_run" | "record" | "open_run") {
                    let args = split_args(tokens, (i + 2, close));
                    let guarded = match args.first() {
                        Some(&first) => {
                            ownership_derived(tokens, f, first)
                                // A post already dominated by an ownership
                                // guard (`if owned { sb.post(..) }`) is
                                // disciplined regardless of its flag expr.
                                || f.guarded_by(i, |cond| {
                                    ownership_derived(tokens, f, cond)
                                })
                        }
                        None => false,
                    };
                    if !guarded {
                        emit(
                            RuleId::UnguardedPost,
                            t.line,
                            format!(
                                "`.{}(..)` ownership flag is not derived from \
                                 owns()/is_leader()/is_solo(); non-owners posting \
                                 desynchronizes the sharded transcript",
                                t.text
                            ),
                        );
                    }
                }
            }
            Receiver::Raw => {
                if matches!(t.text.as_str(), "post" | "post_run") {
                    emit(
                        RuleId::UnguardedPost,
                        t.line,
                        format!(
                            "raw `BulletinBoard::{}` in core bypasses ShardedBoard \
                             ownership accounting; post through the sharded wrapper",
                            t.text
                        ),
                    );
                }
            }
            Receiver::Unknown => {}
        }
        i = close.min(body.1) + 1;
    }
}

fn check_rounds(tokens: &[Token], f: &FnItem, emit: &mut dyn FnMut(RuleId, usize, String)) {
    let body = f.body;
    // First barrier position in the fn, if any.
    let first_barrier = (body.0..body.1.min(tokens.len()))
        .find(|&i| BARRIERS.contains(&tokens[i].text.as_str()) && tokens[i].kind == TokKind::Ident);
    let mut i = body.0;
    while i < body.1.min(tokens.len()) {
        let t = &tokens[i];
        if t.kind != TokKind::Ident || i == 0 || !tokens[i - 1].is_punct('.') {
            i += 1;
            continue;
        }
        if t.text == "advance_round" {
            let recv = classify_receiver(tokens, f, i - 1);
            let in_wrapper_chain = i >= 3
                && tokens[i - 2].is_ident("board")
                && tokens[i - 3].is_punct('.')
                && i >= 4
                && tokens[i - 4].is_ident("self");
            if recv == Receiver::Raw || in_wrapper_chain {
                let guarded = f.guarded_by(i, |cond| {
                    tokens[cond.0..cond.1].iter().any(|x| {
                        x.is_ident("is_leader") || x.is_ident("is_solo")
                    })
                });
                if !guarded {
                    emit(
                        RuleId::RoundDiscipline,
                        t.line,
                        "raw `advance_round()` outside an is_leader()/is_solo() guard: \
                         every worker would tick the round clock"
                            .to_string(),
                    );
                }
            }
        } else if matches!(t.text.as_str(), "postings" | "postings_in_round")
            || (t.text == "phases" && tokens.get(i + 1).is_some_and(|x| x.is_punct('(')))
        {
            // Only meaningful in functions that synchronize on a barrier
            // at all; pure observers (stats, dumps) are exempt. A
            // `phases()` fold reads the whole log: before the barrier a
            // worker would count a partial one. (`.phases` without a
            // call is a field access, not a read.)
            if let Some(b) = first_barrier {
                if i < b {
                    emit(
                        RuleId::RoundDiscipline,
                        t.line,
                        format!(
                            "`.{}()` read before the function's first round barrier; \
                             workers must wait_round_at_least before reading",
                            t.text
                        ),
                    );
                }
            }
        }
        i += 1;
    }
}

/// True if a guard condition is an ownership decision: it mentions an
/// ownership test directly, a binding initialized from one, or a
/// parameter *named* like an ownership flag. Unlike [`ownership_derived`]
/// this does not trust arbitrary parameters — `if phase == 0` is not an
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
    fn owned_flag_from_partition_is_clean() {
        let f = run(
            "fn f(cfg: &Cfg, sb: &mut ShardedBoard) { for i in 0..n { \
               let owned = cfg.partition.owns(i); \
               sb.post(owned, role(i), msg, phase, 1); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn direct_guard_expression_is_clean() {
        let f = run("fn f(sb: &mut ShardedBoard) { sb.post(sb.is_leader(), r, m, p, 1); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn parameter_flag_is_trusted() {
        let f = run("fn helper(sb: &mut ShardedBoard, owned: bool) { sb.post(owned, r, m, p, 1); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bare_true_flag_is_flagged() {
        let f = run("fn f(sb: &mut ShardedBoard) { sb.post(true, r, m, p, 1); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, RuleId::UnguardedPost);
    }

    #[test]
    fn unrelated_binding_flag_is_flagged() {
        let f = run(
            "fn f(sb: &mut ShardedBoard) { let mine = i % 2 == 0; \
             sb.post(mine, r, m, p, 1); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn guard_dominated_post_is_clean() {
        let f = run(
            "fn f(cfg: &Cfg, sb: &mut ShardedBoard) { \
             if cfg.partition.owns(i) { sb.post(true, r, m, p, 1); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn raw_board_post_is_flagged() {
        let f = run("fn f(board: &dyn Any) { board.post(r, m, p, 1); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("raw"));
    }

    #[test]
    fn self_board_post_is_wrapper_internal() {
        let f = run("fn flush(&mut self) { self.board.post(r, m, p, 1); }");
        assert!(f.is_empty(), "{f:?}");
        let f = run("fn flush(&self, runs: &[R]) { self.board.post_run(runs); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn post_run_follows_the_rules_of_post() {
        // Raw: bypasses the position accounting, whatever it is given.
        let f = run("fn f(board: &BulletinBoard<Post>, runs: &[R]) { board.post_run(runs); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, RuleId::UnguardedPost);
        assert!(f[0].2.contains("raw `BulletinBoard::post_run`"), "{f:?}");
        // Sharded: the first argument is the ownership flag.
        let f = run("fn f(sb: &ShardedBoard) { sb.post_run(sb.is_leader(), c, m, p, 1, members); }");
        assert!(f.is_empty(), "{f:?}");
        let f = run("fn f(sb: &ShardedBoard) { sb.post_run(true, c, m, p, 1, members); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`.post_run(..)` ownership flag"), "{f:?}");
    }

    #[test]
    fn a_buffered_run_is_opened_under_an_ownership_flag() {
        let f = run(
            "fn f(cfg: &Cfg, posts: &mut PostBuffer) { \
             posts.open_run(cfg.partition.owns(i), c, m, p, 1); posts.push(i, 1); }",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = run("fn f(posts: &mut PostBuffer) { posts.open_run(true, c, m, p, 1); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`.open_run(..)` ownership flag"), "{f:?}");
    }

    #[test]
    fn nonleader_advance_round_flagged() {
        let f = run("fn f(board: &B) { board.advance_round(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, RuleId::RoundDiscipline);
        let f = run("fn f(&self) { self.board.advance_round(); }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn guarded_advance_round_clean() {
        let f = run(
            "fn f(&self) { if self.partition.is_solo() { self.board.advance_round(); } \
             if self.is_leader() { self.board.advance_round(); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn read_before_barrier_flagged() {
        let f = run(
            "fn f(board: &B) { let all = board.postings(); \
             board.wait_round_at_least(r, t); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("before"));
        // Read after the barrier is the disciplined order.
        let f = run(
            "fn f(board: &B) { board.wait_round_at_least(r, t); \
             let all = board.postings(); }",
        );
        assert!(f.is_empty(), "{f:?}");
        // Pure observers never synchronize; exempt.
        let f = run("fn stats(board: &B) { let all = board.postings(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn phases_fold_before_barrier_flagged() {
        let f = run(
            "fn f(sb: &S, board: &B) { let phases = board.phases()?; \
             sb.finish()?; }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, RuleId::RoundDiscipline);
        assert!(f[0].2.contains("`.phases()` read before"), "{f:?}");
        // After the final barrier the log is complete.
        let f = run(
            "fn f(sb: &S, board: &B) { sb.finish()?; \
             let phases = board.phases()?; }",
        );
        assert!(f.is_empty(), "{f:?}");
        // A field access is no read.
        let f = run("fn f(sb: &S, r: &R) { let p = r.phases.len(); sb.finish()?; }");
        assert!(f.is_empty(), "{f:?}");
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
