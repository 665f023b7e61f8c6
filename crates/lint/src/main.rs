//! `yoso-lint` CLI.
//!
//! ```text
//! yoso-lint [--root <dir>] [--deny <rule>] [--warn <rule>] [--allow <rule>]
//!           [--format text|json|sarif] [--baseline <file>] [--no-baseline]
//!           [--write-baseline <file>] [--quiet] [--list-rules]
//! ```
//!
//! A `lint-baseline.json` at the root is loaded automatically unless
//! `--no-baseline`; baselined findings are reported but do not fail the
//! run. Exit codes: `0` clean (warnings and baselined findings allowed),
//! `1` at least one non-baselined deny-level finding, `2` usage or I/O
//! error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use yoso_lint::baseline::Baseline;
use yoso_lint::{emit, Level, LintConfig, RuleId};

const HELP: &str = "\
yoso-lint — dependency-free static analysis for the yoso-pss workspace

USAGE:
    yoso-lint [OPTIONS]

OPTIONS:
    --root <dir>             workspace root to lint (default: .)
    --deny <rule>            escalate a rule to deny (fails the run)
    --warn <rule>            demote a rule to warn (reported, non-fatal)
    --allow <rule>           disable a rule
    --format <fmt>           output format: text (default), json, sarif
    --baseline <file>        load accepted findings from <file>
                             (default: <root>/lint-baseline.json when present)
    --no-baseline            ignore any baseline file
    --write-baseline <file>  record current deny-level findings as the
                             accepted baseline and exit
    --quiet, -q              suppress per-finding output (text format)
    --list-rules             print every rule with its default level
    --help, -h               show this help

ANALYSES:
    token rules      panic, secret-debug, secret-format, determinism,
                     unsafe-policy
    taint dataflow   taint-flow: per-function secret taint from
                     secret-typed/-named bindings (and lint:taint(source)
                     markers) to format/posting/serialize/raw-byte sinks,
                     cleared by encrypt*/share*/commit* or lint:sanitize
    board discipline unguarded-post, round-discipline, seed-hygiene over
                     core's sharded-board call sites

MARKERS (inside any comment; justification mandatory):
    lint:allow(<rule>[, <rule>]): <why>   suppress findings on the line
    lint:redact: <why>                    redacted Debug/Display impl
    lint:taint(source): <why>             declare a binding a secret source
    lint:sanitize: <why>                  declare a fn a sanitizer

EXIT CODES:
    0  clean (warnings and baselined findings allowed)
    1  at least one new deny-level finding
    2  usage or I/O error";

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Args {
    root: PathBuf,
    cfg: LintConfig,
    quiet: bool,
    list_rules: bool,
    format: Format,
    baseline: Option<PathBuf>,
    no_baseline: bool,
    write_baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        cfg: LintConfig::default(),
        quiet: false,
        list_rules: false,
        format: Format::Text,
        baseline: None,
        no_baseline: false,
        write_baseline: None,
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
            "--format" => {
                let v = it.next().ok_or("--format requires text|json|sarif")?;
                args.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--baseline" => {
                let v = it.next().ok_or("--baseline requires a path")?;
                args.baseline = Some(PathBuf::from(v));
            }
            "--no-baseline" => args.no_baseline = true,
            "--write-baseline" => {
                let v = it.next().ok_or("--write-baseline requires a path")?;
                args.write_baseline = Some(PathBuf::from(v));
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
    let mut report = match yoso_lint::lint_root(&args.root, &args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("yoso-lint: {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.write_baseline {
        let text = yoso_lint::baseline::render(&report, &args.cfg);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("yoso-lint: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        let n = report.count_at(&args.cfg, Level::Deny);
        eprintln!("yoso-lint: wrote {n} baseline finding(s) to {}", path.display());
        return ExitCode::SUCCESS;
    }

    // Baseline: explicit flag wins; otherwise auto-detect at the root.
    let mut stale_count = 0usize;
    if !args.no_baseline {
        let path = args
            .baseline
            .clone()
            .or_else(|| {
                let auto = args.root.join("lint-baseline.json");
                auto.exists().then_some(auto)
            });
        if let Some(path) = path {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("yoso-lint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let bl = match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("yoso-lint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let stale = bl.apply(&mut report);
            stale_count = stale.len();
            if !args.quiet && args.format == Format::Text {
                for entry in stale {
                    eprintln!(
                        "note: stale baseline entry {} ([{}] {}) matched nothing; prune it",
                        entry.id, entry.rule, entry.file
                    );
                }
            }
        }
    }

    match args.format {
        Format::Json => print!("{}", emit::to_json(&report, &args.cfg)),
        Format::Sarif => print!("{}", emit::to_sarif(&report, &args.cfg)),
        Format::Text => {
            if !args.quiet {
                for f in &report.findings {
                    println!("{}", f.render(&args.cfg));
                }
            }
            let denied = report.count_at(&args.cfg, Level::Deny);
            let warned = report.count_at(&args.cfg, Level::Warn);
            let baselined = report.count_baselined();
            if !args.quiet || denied > 0 {
                let extra = if baselined > 0 || stale_count > 0 {
                    format!(", {baselined} baselined, {stale_count} stale baseline entr(y/ies)")
                } else {
                    String::new()
                };
                eprintln!(
                    "yoso-lint: {} files checked, {denied} error(s), {warned} warning(s){extra}",
                    report.files_checked
                );
            }
        }
    }
    if report.has_denials(&args.cfg) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
