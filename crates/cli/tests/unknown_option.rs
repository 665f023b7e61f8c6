//! An option a subcommand does not know stops the run with an error
//! naming it — a typo (`--thread 4`) or a retired flag must never
//! silently run something other than what was asked — and every option
//! `yoso help` prints is one its subcommand accepts.

use std::process::{Command, Output};

fn yoso(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_yoso")).args(args).output().unwrap()
}

/// What `yoso <command> … --<option>` must print when `option` is the
/// first one the command does not know.
fn rejection(command: &str, option: &str) -> String {
    format!("error: unknown option --{option} for `yoso {command}`; try `yoso help`\n")
}

#[test]
fn unknown_option_is_an_error_naming_it() {
    for (command, option) in [
        ("run", "dist-transform"),
        ("run", "thread"),
        ("run", "no-proof"),
        ("worker", "spawn-workers"),
        ("board-stats", "dumps"),
        ("bench-scale", "smok"),
    ] {
        let out = yoso(&[command, &format!("--{option}")]);
        assert!(!out.status.success(), "yoso {command} --{option} must fail");
        assert_eq!(String::from_utf8_lossy(&out.stderr), rejection(command, option));
        assert!(out.stdout.is_empty(), "yoso {command} --{option} ran before failing");
    }
}

/// `(command, option)` for every option the help text prints: the
/// `[--flag]`s on a `yoso <command>` usage line and the `--option`
/// lines of each `<COMMAND> OPTIONS` section.
fn documented_options(help: &str) -> Vec<(String, String)> {
    let mut found = Vec::new();
    let mut section: Option<String> = None;
    for line in help.lines() {
        if let Some(usage) = line.strip_prefix("  yoso ") {
            let command = usage.split_whitespace().next().unwrap();
            for word in usage.split_whitespace() {
                if let Some(flag) = word.strip_prefix("[--").and_then(|w| w.strip_suffix(']')) {
                    found.push((command.to_string(), flag.to_string()));
                }
            }
        } else if let Some((head, _)) = line.split_once(" OPTIONS") {
            if !head.starts_with(' ') {
                section = Some(head.to_lowercase());
            }
        } else if let (Some(command), Some(rest)) = (&section, line.strip_prefix("  --")) {
            let option = rest.split_whitespace().next().unwrap();
            found.push((command.clone(), option.to_string()));
        }
    }
    found
}

#[test]
fn every_option_in_the_help_text_is_accepted() {
    let help = yoso(&["help"]);
    assert!(help.status.success());
    let mut documented = documented_options(&String::from_utf8_lossy(&help.stdout));
    assert!(documented.contains(&("bench-scale".into(), "smoke".into())), "{documented:?}");
    assert!(documented.contains(&("paillier".into(), "bits".into())), "{documented:?}");
    // "WORKER OPTIONS (plus all RUN options but --spawn-workers …)".
    let inherited: Vec<_> = documented
        .iter()
        .filter(|(command, option)| command == "run" && option != "spawn-workers")
        .map(|(_, option)| ("worker".to_string(), option.clone()))
        .collect();
    documented.extend(inherited);
    // Options are checked left to right, so the probe placed after an
    // accepted option is the one the error names — and nothing runs.
    let probe = "not-an-option";
    for (command, option) in documented {
        let out = yoso(&[&command, &format!("--{option}"), &format!("--{probe}")]);
        assert!(!out.status.success());
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            rejection(&command, probe),
            "yoso {command} rejected the documented --{option}"
        );
    }
}
