//! Fiat–Shamir domain-separator hygiene (`fs-domain`) — the one
//! cross-file pass.
//!
//! A proof type is told from every other only by its separator, and
//! the separators live as literals in several files of several crates.
//! Two proof types that end up with the same literal silently become
//! one (a proof of either verifies as the other wherever the relations
//! have the same shape), and a literal without a version suffix cannot
//! be retired when the hash input it prefixes changes format. So every
//! literal that is passed to `Domain::new` or bound to a `DOMAIN_*`
//! item in non-test code is collected workspace-wide, and the pass
//! reports
//!
//! 1. a literal that appears at two sites, and
//! 2. a literal that does not end in `/vN`.
//!
//! The findings are about the set of separators, not about a line, so
//! `lint:allow` markers do not reach them: rename the separator.

use crate::findings::Finding;
use crate::lexer::{TokKind, Token};
use crate::RuleId;

/// One separator literal at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainUse {
    /// Path relative to the lint root, `/`-separated.
    pub file: String,
    /// 1-based line of the literal.
    pub line: usize,
    /// The literal's content.
    pub literal: String,
}

/// The separator literals in one file's non-test code, in source order.
pub fn collect(rel_path: &str, source: &str) -> Vec<DomainUse> {
    let lexed = crate::lexer::lex(source);
    let tokens = &lexed.tokens;
    let in_test = crate::rules::test_mask(tokens);
    let mut sites: Vec<usize> = Vec::new();
    for i in 0..tokens.len() {
        // `Domain::new(<literal>`
        if tokens[i].is_ident("Domain")
            && path_sep(tokens, i + 1)
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("new"))
            && tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 5).is_some_and(|t| t.kind == TokKind::Str)
        {
            sites.push(i + 5);
        }
        // `const|static [mut] DOMAIN_…: … = … <literal> … ;`
        if (tokens[i].is_ident("const") || tokens[i].is_ident("static"))
            && tokens[i + 1..]
                .iter()
                .find(|t| !t.is_ident("mut"))
                .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("DOMAIN_"))
        {
            let end =
                tokens[i..].iter().position(|t| t.is_punct(';')).map_or(tokens.len(), |p| i + p);
            sites.extend((i..end).filter(|&j| tokens[j].kind == TokKind::Str));
        }
    }
    // `static DOMAIN_X: Domain = Domain::new(b"…")` is one site, not two.
    sites.sort_unstable();
    sites.dedup();
    sites
        .into_iter()
        .filter(|&j| !in_test[j])
        .map(|j| DomainUse {
            file: rel_path.to_string(),
            line: tokens[j].line,
            literal: tokens[j].text.clone(),
        })
        .collect()
}

fn path_sep(tokens: &[Token], at: usize) -> bool {
    tokens.get(at).is_some_and(|t| t.is_punct(':'))
        && tokens.get(at + 1).is_some_and(|t| t.is_punct(':'))
}

/// True if `literal` ends in `/v` and a decimal number.
fn is_versioned(literal: &str) -> bool {
    literal
        .rsplit_once("/v")
        .is_some_and(|(_, n)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// Judges the workspace's separators together. `uses` is every file's
/// [`collect`] output, files in a stable order.
pub fn check(uses: &[DomainUse]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, u) in uses.iter().enumerate() {
        if !is_versioned(&u.literal) {
            findings.push(Finding::new(
                u.file.clone(),
                u.line,
                RuleId::FsDomain,
                format!(
                    "domain separator \"{}\" has no `/vN` suffix: it could not be retired \
                     when its hash input changes format",
                    u.literal
                ),
            ));
        }
        if let Some(first) = uses[..i].iter().find(|earlier| earlier.literal == u.literal) {
            findings.push(Finding::new(
                u.file.clone(),
                u.line,
                RuleId::FsDomain,
                format!(
                    "domain separator \"{}\" is already used in {}: two proof types under \
                     one separator are one proof type",
                    u.literal, first.file
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn literals(source: &str) -> Vec<(usize, String)> {
        collect("crates/x/src/lib.rs", source).into_iter().map(|u| (u.line, u.literal)).collect()
    }

    #[test]
    fn collects_both_spellings_once_and_skips_tests_and_run_time_labels() {
        let source = r#"
static DOMAIN_A: Domain = Domain::new(b"p/a/v3");
const DOMAIN_B: &[u8] = b"p/b/v1";
static mut DOMAIN_C: &[u8] = b"p/c/v1";
fn f(label: &[u8]) -> Domain {
    let d = yoso_crypto::Domain::new(b"p/d/v2");
    let other = OTHER_ITEM;
    Domain::new(label)
}
const NOT_A_DOMAIN: &[u8] = b"p/e";
#[cfg(test)]
mod tests {
    static DOMAIN_T: Domain = Domain::new(b"test");
}
"#;
        assert_eq!(
            literals(source),
            [
                (2, "p/a/v3".to_string()),
                (3, "p/b/v1".into()),
                (4, "p/c/v1".into()),
                (6, "p/d/v2".into())
            ]
        );
    }

    #[test]
    fn version_suffix() {
        for ok in ["a/v1", "yoso-pss/nizk/enc/v3", "x/v10", "/v0"] {
            assert!(is_versioned(ok), "{ok}");
        }
        for bad in ["a", "a/v", "a/v1x", "a/v1/", "av1", "a/V1", ""] {
            assert!(!is_versioned(bad), "{bad}");
        }
    }

    #[test]
    fn duplicates_are_reported_at_the_later_site_and_name_the_first() {
        let at = |file: &str, line, literal: &str| DomainUse {
            file: file.into(),
            line,
            literal: literal.into(),
        };
        let uses = [
            at("a.rs", 3, "p/x/v1"),
            at("a.rs", 9, "p/y"),
            at("b.rs", 4, "p/x/v1"),
            at("b.rs", 5, "p/z/v2"),
        ];
        let found = check(&uses);
        assert_eq!(found.len(), 2);
        assert_eq!((found[0].file.as_str(), found[0].line), ("a.rs", 9));
        assert!(found[0].message.contains("no `/vN` suffix"));
        assert_eq!((found[1].file.as_str(), found[1].line), ("b.rs", 4));
        assert!(found[1].message.contains("already used in a.rs"));
        assert!(check(&[uses[0].clone(), uses[3].clone()]).is_empty());
    }
}
