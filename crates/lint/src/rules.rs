//! The token-stream rule families, plus dispatch into the dataflow
//! pass ([`crate::taint`]).

use crate::allow::{AllowTable, Directives};
use crate::config::{
    is_secret_binding, is_secret_type, Level, LintConfig, RuleId, FORMAT_MACROS, NONDET_IDENTS,
};
use crate::findings::Finding;
use crate::lexer::{TokKind, Token};

/// Per-file facts that decide which rules run.
#[derive(Debug, Clone, Default)]
pub struct FileMeta {
    /// Path relative to the lint root, `/`-separated.
    pub rel_path: String,
    /// Crate directory name (`core`, `the`, ...) if under `crates/`.
    pub crate_name: Option<String>,
    /// Crate is in the protocol set (the panic rule applies).
    pub is_protocol: bool,
    /// File is a transcript-affecting module (determinism rule applies).
    pub is_transcript: bool,
    /// File is a crate root (`#![forbid(unsafe_code)]` required).
    pub is_crate_root: bool,
}

/// Lint one file's source; returns all findings for enabled rules.
pub fn lint_source(meta: &FileMeta, source: &str, cfg: &LintConfig) -> Vec<Finding> {
    let lexed = crate::lexer::lex(source);
    let mut allows = AllowTable::build(&meta.rel_path, &lexed);
    let test_mask = test_mask(&lexed.tokens);
    let mut out = Vec::new();

    let push = |out: &mut Vec<Finding>,
                    allows: &mut AllowTable,
                    rule: RuleId,
                    line: usize,
                    message: String| {
        if cfg.level(rule) == Level::Allow {
            return;
        }
        if allows.suppressed(line, rule) {
            return;
        }
        out.push(Finding::new(meta.rel_path.clone(), line, rule, message));
    };

    if meta.is_protocol {
        panic_rule(&lexed.tokens, &test_mask, &mut |r, l, m| {
            push(&mut out, &mut allows, r, l, m)
        });
    }
    secret_type_rule(&lexed.tokens, &test_mask, &mut |r, l, m| {
        push(&mut out, &mut allows, r, l, m)
    });
    secret_format_rule(&lexed.tokens, &test_mask, meta.is_protocol, &mut |r, l, m| {
        push(&mut out, &mut allows, r, l, m)
    });
    if meta.is_transcript {
        determinism_rule(&lexed.tokens, &test_mask, &mut |r, l, m| {
            push(&mut out, &mut allows, r, l, m)
        });
    }
    unsafe_rule(&lexed.tokens, meta, &mut |r, l, m| {
        push(&mut out, &mut allows, r, l, m)
    });

    // Dataflow passes over the shape parse.
    let mut directives = Directives::build(&meta.rel_path, &lexed);
    if meta.is_protocol {
        let fns = crate::parse::parse(&lexed.tokens);
        crate::taint::taint_pass(&lexed.tokens, &fns, &test_mask, &directives, &mut |r, l, m| {
            push(&mut out, &mut allows, r, l, m)
        });
    }

    out.append(&mut allows.parse_findings);
    out.append(&mut directives.parse_findings);
    if cfg.level(RuleId::UnusedAllow) != Level::Allow {
        out.extend(allows.unused(&meta.rel_path));
    }
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// Mark every token that belongs to a `#[test]` / `#[cfg(test)]` item
/// (including the whole `mod tests { ... }` body) so panic/format rules
/// skip test code.
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Scan the attribute group `#[ ... ]`.
            let attr_start = i;
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_test = false;
            while j < tokens.len() {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tokens[j].is_ident("not")
                    && tokens.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                {
                    // `cfg(not(test))` is production code: skip the group.
                    let mut pd = 0usize;
                    j += 1;
                    while j < tokens.len() {
                        if tokens[j].is_punct('(') {
                            pd += 1;
                        } else if tokens[j].is_punct(')') {
                            pd -= 1;
                            if pd == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                } else if tokens[j].is_ident("test") || tokens[j].is_ident("bench") {
                    has_test = true;
                }
                j += 1;
            }
            if has_test {
                let end = item_end(tokens, j + 1);
                for m in mask.iter_mut().take(end).skip(attr_start) {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index one past the end of the item starting at `start`: skips further
/// attributes, then ends at the first top-level `;` or the matching brace
/// of the first top-level `{`.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    // Skip subsequent attribute groups (`#[...]`).
    while i + 1 < tokens.len() && tokens[i].is_punct('#') && tokens[i + 1].is_punct('[') {
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < tokens.len() {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    let mut brace = 0isize;
    let mut seen_brace = false;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            brace += 1;
            seen_brace = true;
        } else if t.is_punct('}') {
            brace -= 1;
            if seen_brace && brace == 0 {
                return i + 1;
            }
        } else if t.is_punct(';') && !seen_brace {
            return i + 1;
        }
        i += 1;
    }
    tokens.len()
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn panic_rule(
    tokens: &[Token],
    mask: &[bool],
    emit: &mut dyn FnMut(RuleId, usize, String),
) {
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |c: char| tokens.get(i + 1).map(|n| n.is_punct(c)).unwrap_or(false);
        if (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && tokens[i - 1].is_punct('.')
            && next_is('(')
        {
            emit(
                RuleId::Panic,
                t.line,
                format!(
                    "`.{}()` in protocol code can abort a YOSO epoch; return a typed \
                     `Result` instead",
                    t.text
                ),
            );
        } else if PANIC_MACROS.contains(&t.text.as_str()) && next_is('!') {
            emit(
                RuleId::Panic,
                t.line,
                format!("`{}!` in protocol code; return a typed error instead", t.text),
            );
        }
    }
}

fn determinism_rule(
    tokens: &[Token],
    mask: &[bool],
    emit: &mut dyn FnMut(RuleId, usize, String),
) {
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if NONDET_IDENTS.contains(&t.text.as_str()) {
            emit(
                RuleId::Determinism,
                t.line,
                format!(
                    "`{}` in a transcript-affecting module: iteration/query order or \
                     timing would leak into the posting log",
                    t.text
                ),
            );
            continue;
        }
        // `std::time::...` and `thread::current()`.
        let path_prev = |idx: usize| -> Option<&str> {
            if idx >= 3
                && tokens[idx - 1].is_punct(':')
                && tokens[idx - 2].is_punct(':')
                && tokens[idx - 3].kind == TokKind::Ident
            {
                Some(tokens[idx - 3].text.as_str())
            } else {
                None
            }
        };
        if t.text == "time" && path_prev(i) == Some("std") {
            emit(
                RuleId::Determinism,
                t.line,
                "`std::time` in a transcript-affecting module: wall-clock values are \
                 nondeterministic"
                    .to_string(),
            );
        } else if t.text == "current" && path_prev(i) == Some("thread") {
            emit(
                RuleId::Determinism,
                t.line,
                "thread identity in a transcript-affecting module: results must not \
                 depend on which worker ran the item"
                    .to_string(),
            );
        }
    }
}

fn secret_type_rule(
    tokens: &[Token],
    mask: &[bool],
    emit: &mut dyn FnMut(RuleId, usize, String),
) {
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if (t.text == "struct" || t.text == "enum")
            && tokens.get(i + 1).map(|n| n.kind == TokKind::Ident).unwrap_or(false)
        {
            let name = &tokens[i + 1].text;
            if is_secret_type(name) {
                check_derives(tokens, i, name, emit);
            }
        } else if t.text == "impl" {
            check_manual_impl(tokens, i, emit);
        }
    }
}

/// Walk backwards from a `struct`/`enum` keyword over visibility and
/// attribute groups; report `Debug` derives on secret types.
fn check_derives(
    tokens: &[Token],
    kw_idx: usize,
    type_name: &str,
    emit: &mut dyn FnMut(RuleId, usize, String),
) {
    let mut j = kw_idx;
    loop {
        // Step over visibility (`pub`, `pub(crate)`) and other modifiers.
        while j > 0 {
            let p = &tokens[j - 1];
            let skip = matches!(p.kind, TokKind::Ident if matches!(p.text.as_str(), "pub" | "crate" | "super" | "in" | "self"))
                || p.is_punct('(')
                || p.is_punct(')');
            if skip {
                j -= 1;
            } else {
                break;
            }
        }
        // An attribute group ends with `]` right before position j.
        if j == 0 || !tokens[j - 1].is_punct(']') {
            break;
        }
        // Find the matching `[`.
        let close = j - 1;
        let mut depth = 0usize;
        let mut open = close;
        loop {
            if tokens[open].is_punct(']') {
                depth += 1;
            } else if tokens[open].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if open == 0 {
                return;
            }
            open -= 1;
        }
        if open == 0 || !tokens[open - 1].is_punct('#') {
            break;
        }
        // Inspect the group: `derive(...)`?
        if tokens.get(open + 1).map(|t| t.is_ident("derive")).unwrap_or(false) {
            for t in tokens[open + 2..close].iter().filter(|t| t.is_ident("Debug")) {
                emit(
                    RuleId::SecretDebug,
                    t.line,
                    format!(
                        "secret type `{type_name}` derives Debug; write a redacted \
                         impl (mark it `lint:redact`)"
                    ),
                );
            }
        }
        j = open - 1;
    }
}

/// Detect `impl ... Debug/Display for <SecretType>` headers.
fn check_manual_impl(
    tokens: &[Token],
    impl_idx: usize,
    emit: &mut dyn FnMut(RuleId, usize, String),
) {
    let mut trait_name: Option<&str> = None;
    let mut i = impl_idx + 1;
    // Scan the impl header up to its `{` (or a `;`/end) — small window.
    while i < tokens.len() && i < impl_idx + 64 {
        let t = &tokens[i];
        if t.is_punct('{') || t.is_punct(';') {
            return;
        }
        if t.is_ident("Debug") || t.is_ident("Display") {
            trait_name = Some(if t.text == "Debug" { "Debug" } else { "Display" });
        } else if t.is_ident("for") && trait_name.is_some() {
            // Last path segment after `for` is the implementing type.
            let mut name: Option<&Token> = None;
            let mut k = i + 1;
            while k < tokens.len() {
                let n = &tokens[k];
                if n.kind == TokKind::Ident {
                    name = Some(n);
                } else if !(n.is_punct(':') || n.is_punct('<')) {
                    break;
                }
                if n.is_punct('<') {
                    break;
                }
                k += 1;
            }
            if let Some(n) = name {
                if is_secret_type(&n.text) {
                    let tr = trait_name.unwrap_or("Debug");
                    emit(
                        RuleId::SecretDebug,
                        tokens[impl_idx].line,
                        format!(
                            "manual `{tr}` impl for secret type `{}`; confirm it redacts \
                             (mark it `lint:redact`)",
                            n.text
                        ),
                    );
                }
            }
            return;
        }
        i += 1;
    }
}

fn secret_format_rule(
    tokens: &[Token],
    mask: &[bool],
    is_protocol: bool,
    emit: &mut dyn FnMut(RuleId, usize, String),
) {
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if mask[i] || t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let bang = tokens.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false);
        if !bang {
            i += 1;
            continue;
        }
        if t.text == "dbg" && is_protocol {
            emit(
                RuleId::SecretFormat,
                t.line,
                "`dbg!` in protocol code prints values (and is nondeterministic noise); \
                 remove it"
                    .to_string(),
            );
            i += 2;
            continue;
        }
        if !FORMAT_MACROS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // Scan the macro's balanced argument list.
        let Some(open) = tokens.get(i + 2) else {
            i += 1;
            continue;
        };
        let (oc, cc) = match open.text.as_str() {
            "(" => ('(', ')'),
            "[" => ('[', ']'),
            "{" => ('{', '}'),
            _ => {
                i += 1;
                continue;
            }
        };
        let mut depth = 0usize;
        let mut j = i + 2;
        while j < tokens.len() {
            let a = &tokens[j];
            if a.is_punct(oc) {
                depth += 1;
            } else if a.is_punct(cc) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if a.kind == TokKind::Ident && is_secret_binding(&a.text) {
                emit(
                    RuleId::SecretFormat,
                    a.line,
                    format!(
                        "format/log macro interpolates secret-named binding `{}`",
                        a.text
                    ),
                );
            } else if a.kind == TokKind::Str {
                for cap in inline_captures(&a.text) {
                    if is_secret_binding(&cap) {
                        emit(
                            RuleId::SecretFormat,
                            a.line,
                            format!(
                                "format string captures secret-named binding `{{{cap}}}`"
                            ),
                        );
                    }
                }
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// Extract inline capture names from a format string: `{name}`, `{name:?}`.
fn inline_captures(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if bytes.get(i + 1) == Some(&b'{') {
                i += 2; // escaped `{{`
                continue;
            }
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
                j += 1;
            }
            let name = &s[i + 1..j];
            if !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !name.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true)
            {
                out.push(name.to_string());
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

fn unsafe_rule(
    tokens: &[Token],
    meta: &FileMeta,
    emit: &mut dyn FnMut(RuleId, usize, String),
) {
    for t in tokens {
        if t.is_ident("unsafe") {
            emit(
                RuleId::UnsafePolicy,
                t.line,
                "`unsafe` is forbidden workspace-wide (shims excluded)".to_string(),
            );
        }
    }
    if meta.is_crate_root && !has_forbid_unsafe(tokens) {
        emit(
            RuleId::UnsafePolicy,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

/// True if the token stream contains `#![forbid(unsafe_code)]` (possibly
/// with other lints in the same group).
fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("forbid")
            && i >= 3
            && tokens[i - 1].is_punct('[')
            && tokens[i - 2].is_punct('!')
            && tokens[i - 3].is_punct('#')
        {
            // Scan the group for `unsafe_code`.
            for n in tokens.iter().skip(i + 1) {
                if n.is_punct(']') {
                    break;
                }
                if n.is_ident("unsafe_code") {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LintConfig;

    fn protocol_meta() -> FileMeta {
        FileMeta {
            rel_path: "crates/core/src/x.rs".to_string(),
            crate_name: Some("core".to_string()),
            is_protocol: true,
            is_transcript: false,
            is_crate_root: false,
        }
    }

    fn lint(meta: &FileMeta, src: &str) -> Vec<Finding> {
        lint_source(meta, src, &LintConfig::default())
    }

    #[test]
    fn unwrap_flagged_in_protocol_code() {
        let f = lint(&protocol_meta(), "fn f() { let x = y.unwrap(); }");
        assert!(f.iter().any(|f| f.rule == RuleId::Panic));
    }

    #[test]
    fn unwrap_in_test_mod_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { y.unwrap(); panic!(); }\n}\n";
        let f = lint(&protocol_meta(), src);
        assert!(f.iter().all(|f| f.rule != RuleId::Panic), "{f:?}");
    }

    #[test]
    fn unwrap_in_test_fn_ignored_but_not_neighbors() {
        let src = "#[test]\nfn t() { y.unwrap(); }\nfn prod() { z.expect(\"x\"); }\n";
        let f = lint(&protocol_meta(), src);
        let panics: Vec<_> = f.iter().filter(|f| f.rule == RuleId::Panic).collect();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].line, 3);
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        let f = lint(&protocol_meta(), "fn f() { y.unwrap_or_else(|e| e.into_inner()); }");
        assert!(f.iter().all(|f| f.rule != RuleId::Panic));
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "fn f() { y.expect(\"x\"); } // lint:allow(panic): invariant documented\n";
        let f = lint(&protocol_meta(), src);
        assert!(f.iter().all(|f| f.rule != RuleId::Panic), "{f:?}");
        assert!(f.iter().all(|f| f.rule != RuleId::UnusedAllow));
    }

    #[test]
    fn determinism_rule_only_in_transcript_modules() {
        let src = "use std::collections::HashMap;\nfn f() { let t = std::time::Instant::now(); }";
        let f = lint(&protocol_meta(), src);
        assert!(f.iter().all(|f| f.rule != RuleId::Determinism));
        let mut meta = protocol_meta();
        meta.is_transcript = true;
        let f = lint(&meta, src);
        assert!(f.iter().filter(|f| f.rule == RuleId::Determinism).count() >= 2);
    }

    #[test]
    fn secret_derive_debug_flagged() {
        let src = "#[derive(Debug, Clone)]\npub struct SecretKeyShare { v: u64 }";
        let f = lint(&protocol_meta(), src);
        assert!(f.iter().any(|f| f.rule == RuleId::SecretDebug));
    }

    #[test]
    fn secret_derive_with_redact_marker_ok() {
        let src = "// lint:redact: delegates to the redacted inner impl\n#[derive(Clone, Debug)]\npub struct SecretKeyShare { v: u64 }";
        let f = lint(&protocol_meta(), src);
        assert!(f.iter().all(|f| f.rule != RuleId::SecretDebug), "{f:?}");
    }

    #[test]
    fn manual_debug_impl_flagged() {
        let src = "impl<F> fmt::Debug for KeyShare<F> { }";
        let f = lint(&protocol_meta(), src);
        assert!(f.iter().any(|f| f.rule == RuleId::SecretDebug));
        // Non-secret type is fine.
        let f = lint(&protocol_meta(), "impl fmt::Debug for Board { }");
        assert!(f.iter().all(|f| f.rule != RuleId::SecretDebug));
    }

    #[test]
    fn format_interpolation_of_secret_flagged() {
        let f = lint(&protocol_meta(), "fn f() { println!(\"{:?}\", sk_share); }");
        assert!(f.iter().any(|f| f.rule == RuleId::SecretFormat));
        let f = lint(&protocol_meta(), "fn f() { let m = format!(\"share {sk}\"); }");
        assert!(f.iter().any(|f| f.rule == RuleId::SecretFormat));
        let f = lint(&protocol_meta(), "fn f() { println!(\"{} rounds\", rounds); }");
        assert!(f.iter().all(|f| f.rule != RuleId::SecretFormat));
    }

    #[test]
    fn unsafe_token_flagged_and_missing_forbid() {
        let mut meta = protocol_meta();
        meta.is_crate_root = true;
        let f = lint(&meta, "pub fn f() { }");
        assert!(f.iter().any(|f| f.rule == RuleId::UnsafePolicy && f.line == 1));
        let f = lint(
            &meta,
            "#![forbid(unsafe_code)]\npub fn f() { unsafe { std::hint::unreachable_unchecked() } }",
        );
        let v: Vec<_> = f.iter().filter(|f| f.rule == RuleId::UnsafePolicy).collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn forbid_in_combined_attr_recognized() {
        let mut meta = protocol_meta();
        meta.is_crate_root = true;
        let f = lint(&meta, "#![forbid(unsafe_code, missing_docs)]\npub fn f() {}");
        assert!(f.iter().all(|f| f.rule != RuleId::UnsafePolicy));
    }

    #[test]
    fn panic_macro_in_string_not_flagged() {
        let f = lint(&protocol_meta(), "fn f() { let s = \"don't panic!\"; }");
        assert!(f.iter().all(|f| f.rule != RuleId::Panic));
    }
}
