//! End-to-end tests of the `yoso-lint` binary against seeded-violation
//! fixtures: the tool must exit 0 on clean trees and non-zero on each
//! violation class — both directions, per the acceptance criteria.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_yoso-lint"))
        .args(args)
        .output()
        .expect("spawn yoso-lint")
}

fn run_on_fixture(name: &str, extra: &[&str]) -> Output {
    let root = fixture(name);
    let mut args = vec!["--root", root.to_str().expect("utf-8 path")];
    args.extend_from_slice(extra);
    run_lint(&args)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn clean_fixture_exits_zero() {
    let out = run_on_fixture("clean", &[]);
    assert!(out.status.success(), "clean fixture must pass: {}", stdout(&out));
}

#[test]
fn panic_unwrap_fixture_fails_with_panic_findings() {
    let out = run_on_fixture("panic_unwrap", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("[panic]"), "{text}");
    assert!(text.contains("unwrap"), "{text}");
    assert!(text.contains("panic!"), "{text}");
}

#[test]
fn warn_level_findings_fail_only_when_denied() {
    // Demoted to warn: reported but exit 0.
    let out = run_on_fixture("panic_unwrap", &["--warn", "panic"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("[panic]"));
    // Promoted back to deny: exit 1.
    let out = run_on_fixture("panic_unwrap", &["--warn", "panic", "--deny", "panic"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
}

#[test]
fn empty_justification_fails_as_bad_allow() {
    let out = run_on_fixture("allow_missing_justification", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("[bad-allow]"), "{text}");
    // The marker is malformed, so the unwrap itself must also still fire.
    assert!(text.contains("[panic]"), "{text}");
}

#[test]
fn secret_debug_fixture_fails() {
    let out = run_on_fixture("secret_debug", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("[secret-debug]"));
}

#[test]
fn secret_format_fixture_fails() {
    let out = run_on_fixture("secret_format", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("[secret-format]"), "{text}");
    assert!(text.contains("sk"), "{text}");
}

#[test]
fn nondet_hashmap_fixture_fails() {
    let out = run_on_fixture("nondet_hashmap", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("[determinism]"));
}

#[test]
fn nondet_time_fixture_fails() {
    let out = run_on_fixture("nondet_time", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("[determinism]"));
}

#[test]
fn unsafe_missing_forbid_fixture_fails() {
    let out = run_on_fixture("unsafe_missing", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("[unsafe-policy]"));
    assert!(stdout(&out).contains("forbid(unsafe_code)"));
}

#[test]
fn unsafe_block_fixture_fails() {
    let out = run_on_fixture("unsafe_block", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("[unsafe-policy]"));
}

#[test]
fn allow_flag_downgrades_rule() {
    // The same violating fixture passes when its rule is switched off,
    // proving the severity plumbing end to end.
    let out = run_on_fixture("panic_unwrap", &["--allow", "panic"]);
    assert!(out.status.success(), "{}", stdout(&out));
}

#[test]
fn workspace_itself_is_lint_clean() {
    // The repo root is two levels up from the lint crate. This is the
    // acceptance criterion: the tool exits 0 on the real workspace.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run_lint(&["--root", root.to_str().expect("utf-8 path"), "--quiet"]);
    assert!(
        out.status.success(),
        "workspace must be lint-clean: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn taint_clean_encrypt_fixture_passes() {
    let out = run_on_fixture("taint_clean_encrypt", &[]);
    assert!(out.status.success(), "{}", stdout(&out));
}

#[test]
fn taint_posting_fixture_fails_where_token_rules_are_blind() {
    let out = run_on_fixture("taint_posting", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("[taint-flow]"), "{text}");
    assert!(text.contains("payload"), "{text}");
    // The negative half of the acceptance criterion: the rename hides
    // the leak from the PR 2 token rules, which must stay silent.
    assert!(!text.contains("[secret-format]"), "{text}");
}

#[test]
fn taint_clone_fixture_fails_where_token_rules_are_blind() {
    let out = run_on_fixture("taint_clone", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("[taint-flow]"), "{text}");
    assert!(text.contains("leaked"), "{text}");
    assert!(!text.contains("[secret-format]"), "{text}");
}

#[test]
fn fs_domain_fixtures_pass_and_fail() {
    // Unique, versioned separators in two crates: clean.
    let out = run_on_fixture("fs_domain_clean", &[]);
    assert!(out.status.success(), "{}", stdout(&out));
    // One separator shared by two proof types in two crates, and one
    // with no version: both reported, the duplicate at its second site.
    let out = run_on_fixture("fs_domain_duplicate", &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains("crates/the/src/lib.rs:7: [fs-domain]")
            && text.contains("\"fixture/nizk/enc/v3\" is already used in crates/core/src/lib.rs"),
        "{text}"
    );
    assert!(
        text.contains("crates/the/src/lib.rs:8: [fs-domain]")
            && text.contains("\"fixture/nizk/share\" has no `/vN` suffix"),
        "{text}"
    );
    assert_eq!(text.matches("[fs-domain]").count(), 2, "{text}");
    // The rule can be switched off like any other.
    let out = run_on_fixture("fs_domain_duplicate", &["--allow", "fs-domain"]);
    assert!(out.status.success(), "{}", stdout(&out));
}

#[test]
fn unknown_rule_is_usage_error() {
    let out = run_lint(&["--deny", "warp-core"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn list_rules_names_all_families() {
    let out = run_lint(&["--list-rules"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for rule in [
        "panic",
        "secret-debug",
        "secret-format",
        "determinism",
        "unsafe-policy",
        "taint-flow",
        "fs-domain",
        "bad-allow",
        "unused-allow",
    ] {
        assert!(text.contains(rule), "missing {rule} in:\n{text}");
    }
    assert_eq!(text.lines().count(), 9, "{text}");
}
