//! `yoso-lint` CLI.
//!
//! ```text
//! yoso-lint [--root <dir>] [--deny <rule>] [--warn <rule>] [--allow <rule>]
//!           [--quiet] [--list-rules]
//! ```
//!
//! Findings print as text, one per line on stdout, and a summary line
//! goes to stderr. Exit codes: `0` clean (warnings allowed), `1` at
//! least one deny-level finding, `2` usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use yoso_lint::{Level, LintConfig, RuleId};

const HELP: &str = "\
yoso-lint — dependency-free static analysis for the yoso-pss workspace

USAGE:
    yoso-lint [OPTIONS]

OPTIONS:
    --root <dir>             workspace root to lint (default: .)
    --deny <rule>            escalate a rule to deny (fails the run)
    --warn <rule>            demote a rule to warn (reported, non-fatal)
    --allow <rule>           disable a rule
    --quiet, -q              suppress per-finding output
    --list-rules             print every rule with its default level
    --help, -h               show this help

ANALYSES:
    token rules      panic, secret-debug, secret-format, determinism,
                     unsafe-policy
    taint dataflow   taint-flow: per-function secret taint from
                     secret-typed/-named bindings (and lint:taint(source)
                     markers) to format/posting/serialize/raw-byte sinks,
                     cleared by encrypt*/share*/commit* or lint:sanitize
    domains          fs-domain: Fiat-Shamir separators unique and versioned

MARKERS (inside any comment; justification mandatory):
    lint:allow(<rule>[, <rule>]): <why>   suppress findings on the line
    lint:redact: <why>                    redacted Debug/Display impl
    lint:taint(source): <why>             declare a binding a secret source
    lint:sanitize: <why>                  declare a fn a sanitizer

EXIT CODES:
    0  clean (warnings allowed)
    1  at least one deny-level finding
    2  usage or I/O error";

struct Args {
    root: PathBuf,
    cfg: LintConfig,
    quiet: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        cfg: LintConfig::default(),
        quiet: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root requires a path")?;
                args.root = PathBuf::from(v);
            }
            "--deny" | "--warn" | "--allow" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a rule name"))?;
                let rule = RuleId::parse(&v)
                    .ok_or_else(|| format!("unknown rule `{v}` (see --list-rules)"))?;
                let level = match arg.as_str() {
                    "--deny" => Level::Deny,
                    "--warn" => Level::Warn,
                    _ => Level::Allow,
                };
                args.cfg.set_level(rule, level);
            }
            "--quiet" | "-q" => args.quiet = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => return Err(HELP.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for r in RuleId::ALL {
            let level = match r.default_level() {
                Level::Deny => "deny",
                Level::Warn => "warn",
                Level::Allow => "allow",
            };
            println!("{:<16} [{level}] {}", r.name(), r.describe());
        }
        return ExitCode::SUCCESS;
    }
    let report = match yoso_lint::lint_root(&args.root, &args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("yoso-lint: {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    if !args.quiet {
        for f in &report.findings {
            println!("{}", f.render(&args.cfg));
        }
    }
    let denied = report.count_at(&args.cfg, Level::Deny);
    let warned = report.count_at(&args.cfg, Level::Warn);
    if !args.quiet || denied > 0 {
        eprintln!(
            "yoso-lint: {} files checked, {denied} error(s), {warned} warning(s)",
            report.files_checked
        );
    }
    if report.has_denials(&args.cfg) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
