//! `lint:allow` / `lint:redact` marker parsing and bookkeeping, plus the
//! dataflow directives (`lint:taint`, `lint:sanitize`) the taint pass
//! consumes.
//!
//! Grammar (inside any `//` or `/* */` comment):
//!
//! ```text
//! lint:allow(<rule>): <justification>
//! lint:redact: <justification>
//! lint:taint(source): <justification>
//! lint:sanitize: <justification>
//! ```
//!
//! The justification is mandatory and must be non-empty — an allow without
//! a reason is itself a violation (`bad-allow`). `lint:redact` is shorthand
//! accepted on redacted `Debug`/`Display` impls and secret type
//! definitions; it covers `secret-debug`.
//! `lint:taint(source)` declares the governed binding a secret source even
//! though its type/name match no registry pattern; `lint:sanitize` declares
//! the governed `fn` a sanitizer (its output is public material), extending
//! the built-in `encrypt*`/`share*`/`commit*` prefix set.
//!
//! A marker on a code line governs that line. A marker on a comment-only
//! line governs the next code line plus a 3-line grace window, so a
//! suppressed call may wrap onto continuation lines.

use crate::config::RuleId;
use crate::findings::Finding;
use crate::lexer::Lexed;

/// How many lines past the governed code line a standalone marker still
/// suppresses, so multi-line statements stay coverable.
const GRACE_LINES: usize = 3;

#[derive(Debug)]
struct Marker {
    /// Rules this marker suppresses.
    rules: Vec<RuleId>,
    /// Inclusive line range governed.
    first_line: usize,
    last_line: usize,
    /// Line of the comment itself (for unused-allow reporting).
    comment_line: usize,
    used: bool,
}

/// Parsed markers for one file plus malformed-marker findings.
#[derive(Debug, Default)]
pub struct AllowTable {
    markers: Vec<Marker>,
    /// `bad-allow` findings produced during parsing.
    pub parse_findings: Vec<Finding>,
}

impl AllowTable {
    /// Build the table from a lexed file.
    pub fn build(file: &str, lexed: &Lexed) -> AllowTable {
        let code_lines = lexed.code_lines();
        let mut table = AllowTable::default();
        for c in &lexed.comments {
            // Doc comments (`///`, `//!`, `/**`, `/*!`) are documentation:
            // they may *describe* the marker grammar without invoking it.
            if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
                continue;
            }
            let Some(parsed) = parse_marker(&c.text) else { continue };
            let (rules, justification) = match parsed {
                Ok(ok) => ok,
                Err(msg) => {
                    table.parse_findings.push(Finding::new(file, c.line, RuleId::BadAllow, msg));
                    continue;
                }
            };
            if justification.trim().is_empty() {
                table.parse_findings.push(Finding::new(
                    file,
                    c.line,
                    RuleId::BadAllow,
                    "lint marker requires a non-empty justification after `:`",
                ));
                continue;
            }
            let (first_line, last_line) = if code_lines.contains(&c.line) {
                // Trailing comment: governs exactly its own line.
                (c.line, c.line)
            } else {
                // Standalone comment: governs the next code line + grace.
                match code_lines.range(c.line..).next() {
                    Some(&l) => (l, l + GRACE_LINES),
                    None => (c.line, c.line),
                }
            };
            table.markers.push(Marker {
                rules,
                first_line,
                last_line,
                comment_line: c.line,
                used: false,
            });
        }
        table
    }

    /// True if a finding of `rule` at `line` is suppressed; marks the
    /// covering marker as used.
    pub fn suppressed(&mut self, line: usize, rule: RuleId) -> bool {
        let mut hit = false;
        for m in &mut self.markers {
            if m.rules.contains(&rule) && (m.first_line..=m.last_line).contains(&line) {
                m.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Emit `unused-allow` findings for markers that never fired.
    pub fn unused(&self, file: &str) -> Vec<Finding> {
        self.markers
            .iter()
            .filter(|m| !m.used)
            .map(|m| {
                Finding::new(
                    file,
                    m.comment_line,
                    RuleId::UnusedAllow,
                    format!(
                        "lint marker for [{}] suppressed nothing",
                        m.rules
                            .iter()
                            .map(|r| r.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                )
            })
            .collect()
    }
}

/// Dataflow directives for one file: line ranges the taint pass treats as
/// extra taint sources or as sanitizer declarations.
#[derive(Debug, Default)]
pub struct Directives {
    /// Inclusive line ranges governed by a `lint:taint(source)` marker.
    taint_ranges: Vec<(usize, usize)>,
    /// Inclusive line ranges governed by a `lint:sanitize` marker.
    sanitize_ranges: Vec<(usize, usize)>,
    /// `bad-allow` findings for malformed directives.
    pub parse_findings: Vec<Finding>,
}

impl Directives {
    /// Build the directive table from a lexed file. Shares the marker line
    /// governance of [`AllowTable`]: trailing comments govern their own
    /// line, standalone comments the next code line plus grace.
    pub fn build(file: &str, lexed: &Lexed) -> Directives {
        let code_lines = lexed.code_lines();
        let mut out = Directives::default();
        for c in &lexed.comments {
            if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
                continue;
            }
            let (which, parsed) = if c.text.contains("lint:taint") {
                (0, parse_directive(&c.text, "lint:taint", Some("source")))
            } else if c.text.contains("lint:sanitize") {
                (1, parse_directive(&c.text, "lint:sanitize", None))
            } else {
                continue;
            };
            if let Err(msg) = parsed {
                out.parse_findings.push(Finding::new(file, c.line, RuleId::BadAllow, msg));
                continue;
            }
            let range = if code_lines.contains(&c.line) {
                (c.line, c.line)
            } else {
                match code_lines.range(c.line..).next() {
                    Some(&l) => (l, l + GRACE_LINES),
                    None => (c.line, c.line),
                }
            };
            if which == 0 {
                out.taint_ranges.push(range);
            } else {
                out.sanitize_ranges.push(range);
            }
        }
        out
    }

    /// True if a binding introduced on `line` is a declared taint source.
    pub fn taint_source(&self, line: usize) -> bool {
        self.taint_ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// True if a `fn` whose header is on `line` is a declared sanitizer.
    pub fn sanitizer_fn(&self, line: usize) -> bool {
        self.sanitize_ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
    }
}

/// Parse a directive marker: `<name>(<arg>): <justification>` when `arg`
/// is required, `<name>: <justification>` otherwise.
fn parse_directive(text: &str, name: &str, arg: Option<&str>) -> Result<(), String> {
    let idx = text.find(name).expect("caller checked substring");
    let rest = &text[idx + name.len()..];
    let rest = match arg {
        Some(expected) => {
            let Some(open) = rest.strip_prefix('(') else {
                return Err(format!("expected `({expected})` after {name}"));
            };
            let Some(close) = open.find(')') else {
                return Err(format!("unclosed `(` in {name}"));
            };
            if open[..close].trim() != expected {
                return Err(format!(
                    "expected `{expected}` in {name}(...), got `{}`",
                    open[..close].trim()
                ));
            }
            &open[close + 1..]
        }
        None => rest,
    };
    let Some(justification) = rest.trim_start().strip_prefix(':') else {
        return Err(format!("expected `: <justification>` after {name}"));
    };
    if justification.trim().is_empty() {
        return Err(format!("{name} requires a non-empty justification after `:`"));
    }
    Ok(())
}

/// Parse one comment body. `None` = no marker present; `Some(Err)` =
/// malformed marker; `Some(Ok((rules, justification)))` = well-formed.
#[allow(clippy::type_complexity)]
fn parse_marker(text: &str) -> Option<Result<(Vec<RuleId>, String), String>> {
    if let Some(idx) = text.find("lint:allow") {
        let rest = &text[idx + "lint:allow".len()..];
        let Some(open) = rest.strip_prefix('(') else {
            return Some(Err("expected `(` after lint:allow".to_string()));
        };
        let Some(close) = open.find(')') else {
            return Some(Err("unclosed `(` in lint:allow".to_string()));
        };
        let mut rules = Vec::new();
        for name in open[..close].split(',') {
            let name = name.trim();
            match RuleId::parse(name) {
                Some(r) => rules.push(r),
                None => {
                    return Some(Err(format!("unknown rule `{name}` in lint:allow")));
                }
            }
        }
        if rules.is_empty() {
            return Some(Err("lint:allow names no rule".to_string()));
        }
        let after = &open[close + 1..];
        let Some(justification) = after.trim_start().strip_prefix(':') else {
            return Some(Err(
                "expected `: <justification>` after lint:allow(...)".to_string()
            ));
        };
        return Some(Ok((rules, justification.to_string())));
    }
    if let Some(idx) = text.find("lint:redact") {
        let rest = &text[idx + "lint:redact".len()..];
        let Some(justification) = rest.trim_start().strip_prefix(':') else {
            return Some(Err(
                "expected `: <justification>` after lint:redact".to_string()
            ));
        };
        return Some(Ok((vec![RuleId::SecretDebug], justification.to_string())));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_marker_governs_its_line() {
        let src = "let x = y.unwrap(); // lint:allow(panic): lock poisoning is fatal anyway\n";
        let lx = lex(src);
        let mut t = AllowTable::build("f.rs", &lx);
        assert!(t.parse_findings.is_empty());
        assert!(t.suppressed(1, RuleId::Panic));
        assert!(!t.suppressed(2, RuleId::Panic));
        assert!(!t.suppressed(1, RuleId::Determinism));
        assert!(t.unused("f.rs").is_empty());
    }

    #[test]
    fn standalone_marker_governs_next_code_line_with_grace() {
        let src = "\n// lint:allow(panic): spans the statement\n\nlet x = y\n    .unwrap();\n";
        let lx = lex(src);
        let mut t = AllowTable::build("f.rs", &lx);
        assert!(t.suppressed(5, RuleId::Panic)); // within grace window
        assert!(!t.suppressed(9, RuleId::Panic));
    }

    #[test]
    fn empty_justification_is_bad_allow() {
        let lx = lex("// lint:allow(panic):\nlet x = 1;\n");
        let t = AllowTable::build("f.rs", &lx);
        assert_eq!(t.parse_findings.len(), 1);
        assert_eq!(t.parse_findings[0].rule, RuleId::BadAllow);
    }

    #[test]
    fn unknown_rule_is_bad_allow() {
        let lx = lex("// lint:allow(warp-core): because\n");
        let t = AllowTable::build("f.rs", &lx);
        assert_eq!(t.parse_findings.len(), 1);
        assert!(t.parse_findings[0].message.contains("warp-core"));
    }

    #[test]
    fn redact_covers_secret_rules() {
        let lx = lex("// lint:redact: prints party index only\nimpl Debug for K {}\n");
        let mut t = AllowTable::build("f.rs", &lx);
        assert!(t.suppressed(2, RuleId::SecretDebug));
        assert!(!t.suppressed(2, RuleId::Panic));
    }

    #[test]
    fn unused_marker_reported() {
        let lx = lex("// lint:allow(panic): never fires\nlet x = 1;\n");
        let t = AllowTable::build("f.rs", &lx);
        let unused = t.unused("f.rs");
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, RuleId::UnusedAllow);
    }

    #[test]
    fn multi_rule_marker() {
        let lx = lex("let v = m[k].unwrap(); // lint:allow(panic, determinism): proven in step 2\n");
        let mut t = AllowTable::build("f.rs", &lx);
        assert!(t.parse_findings.is_empty());
        assert!(t.suppressed(1, RuleId::Panic));
        assert!(t.suppressed(1, RuleId::Determinism));
    }
}
