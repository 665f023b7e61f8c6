//! `yoso-lint` — dependency-free static analysis for the yoso-pss
//! workspace.
//!
//! The workspace builds offline from vendored shims, so the analyzer
//! tokenizes Rust sources with a hand-rolled lexer (no `syn`) and runs two
//! layers of analysis:
//!
//! **Token-stream rules** (PR 2):
//!
//! 1. **panic-freedom** (`panic`) — no `unwrap`/`expect`/
//!    `panic!`-family macros in non-test code of the protocol crates; a
//!    YOSO committee member that aborts mid-epoch kills the run for
//!    everyone.
//! 2. **secret hygiene** (`secret-debug`, `secret-format`) —
//!    secret-registry types must not leak through `Debug`/`Display` or
//!    format-macro interpolation.
//! 3. **transcript determinism** (`determinism`) — no `HashMap`/`HashSet`,
//!    `std::time`, `thread_rng` or thread-identity dependence in
//!    transcript-affecting modules; the engine promises byte-identical
//!    transcripts at every `--threads` value.
//! 4. **unsafe policy** (`unsafe-policy`) — every crate root carries
//!    `#![forbid(unsafe_code)]` and no `unsafe` token appears outside the
//!    shims.
//!
//! **Dataflow passes** over a lightweight shape parse ([`parse`]):
//!
//! 5. **secret-taint dataflow** (`taint-flow`) — per-function taint from
//!    secret-typed/-named bindings (plus `lint:taint(source)` markers)
//!    through assignments, field access and passthroughs to sinks
//!    (format macros, posting payloads, serialization, raw-byte
//!    returns), cleared only by sanitizers (`encrypt*`/`share*`/
//!    `commit*` or `lint:sanitize`-marked fns).
//!
//! Who appends a posting, when the log may be read and which RNG a
//! member draws from are not lint rules: `core`'s board view decides
//! the first at its flush and hands out the second only when the run
//! ends, and a member's work is a closure that sees only its own turn.
//!
//! **One cross-file pass** ([`domains`]):
//!
//! 6. **domain-separator hygiene** (`fs-domain`) — every literal passed
//!    to `Domain::new` or bound to a `DOMAIN_*` item in non-test code is
//!    collected workspace-wide; one that appears at two sites, or that
//!    has no `/vN` suffix, is a finding.
//!
//! Findings render as text, one per line; the exit code is the gate.
//!
//! Escape hatches: `// lint:allow(<rule>): <justification>` (justification
//! mandatory), `// lint:redact: <why>` for redacted secret impls,
//! `// lint:taint(source): <why>` / `// lint:sanitize: <why>` for the
//! taint pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod config;
pub mod domains;
pub mod findings;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod taint;
pub mod walk;

pub use config::{Level, LintConfig, RuleId};
pub use findings::{Finding, Report};
pub use rules::{lint_source, FileMeta};

use std::fs;
use std::io;
use std::path::Path;

/// Lint every workspace `.rs` file under `root` with `cfg`. Findings come
/// back sorted by file, line and rule.
pub fn lint_root(root: &Path, cfg: &LintConfig) -> io::Result<Report> {
    let mut report = Report::default();
    let mut separators = Vec::new();
    for (abs, meta) in walk::collect(root)? {
        let source = fs::read_to_string(&abs)?;
        report.findings.extend(rules::lint_source(&meta, &source, cfg));
        separators.extend(domains::collect(&meta.rel_path, &source));
        report.files_checked += 1;
    }
    if cfg.level(RuleId::FsDomain) != Level::Allow {
        report.findings.extend(domains::check(&separators));
    }
    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}
