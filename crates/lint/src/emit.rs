//! Machine-readable report output: plain JSON and SARIF 2.1.0.
//!
//! SARIF output targets code-scanning consumers (GitHub's SARIF upload,
//! IDE viewers): one run, one driver, per-rule metadata from
//! [`RuleId::ALL`], results carrying the stable fingerprint under
//! `partialFingerprints` and baseline suppression as an `external`
//! suppression object.

use crate::baseline::escape;
use crate::config::{Level, LintConfig, RuleId};
use crate::findings::Report;

/// Version string embedded in tool metadata.
const TOOL_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Render the report as plain JSON.
pub fn to_json(report: &Report, cfg: &LintConfig) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_checked\": {},\n", report.files_checked));
    out.push_str(&format!(
        "  \"errors\": {},\n  \"warnings\": {},\n  \"baselined\": {},\n",
        report.count_at(cfg, Level::Deny),
        report.count_at(cfg, Level::Warn),
        report.count_baselined()
    ));
    out.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let level = match cfg.level(f.rule) {
            Level::Deny => "error",
            Level::Warn => "warning",
            Level::Allow => "allowed",
        };
        let comma = if i + 1 < report.findings.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"id\": {}, \"rule\": {}, \"level\": {}, \"file\": {}, \"line\": {}, \
             \"message\": {}, \"baselined\": {}}}{comma}\n",
            escape(&f.id),
            escape(f.rule.name()),
            escape(level),
            escape(&f.file),
            f.line,
            escape(&f.message),
            f.baselined
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the report as SARIF 2.1.0.
pub fn to_sarif(report: &Report, cfg: &LintConfig) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n",
    );
    // Tool + rule metadata.
    out.push_str(&format!(
        "      \"tool\": {{\n        \"driver\": {{\n          \"name\": \"yoso-lint\",\n          \
         \"version\": {},\n          \"informationUri\": \
         \"https://example.invalid/yoso-pss\",\n          \"rules\": [\n",
        escape(TOOL_VERSION)
    ));
    for (i, r) in RuleId::ALL.iter().enumerate() {
        let comma = if i + 1 < RuleId::ALL.len() { "," } else { "" };
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}, \
             \"defaultConfiguration\": {{\"level\": {}}}}}{comma}\n",
            escape(r.name()),
            escape(r.describe()),
            escape(sarif_level(r.default_level()))
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    // Results.
    out.push_str("      \"results\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let comma = if i + 1 < report.findings.len() { "," } else { "" };
        let suppressions = if f.baselined {
            ",\n          \"suppressions\": [{\"kind\": \"external\", \
             \"justification\": \"accepted in lint-baseline.json\"}]"
                .to_string()
        } else {
            String::new()
        };
        out.push_str(&format!(
            "        {{\n          \"ruleId\": {},\n          \"ruleIndex\": {},\n          \
             \"level\": {},\n          \"message\": {{\"text\": {}}},\n          \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
             {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}],\n          \
             \"partialFingerprints\": {{\"yosoLintFingerprint/v1\": {}}}{suppressions}\n        \
             }}{comma}\n",
            escape(f.rule.name()),
            RuleId::ALL.iter().position(|&r| r == f.rule).unwrap_or(0),
            escape(sarif_level(cfg.level(f.rule))),
            escape(&f.message),
            escape(&f.file),
            f.line,
            escape(&f.id),
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

fn sarif_level(level: Level) -> &'static str {
    match level {
        Level::Deny => "error",
        Level::Warn => "warning",
        Level::Allow => "none",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::Finding;

    fn sample() -> (Report, LintConfig) {
        let mut r = Report { files_checked: 2, ..Report::default() };
        r.findings.push(Finding::new(
            "crates/core/src/a.rs",
            7,
            RuleId::TaintFlow,
            "secret \"escaped\" here",
        ));
        r.findings.push(Finding::new("crates/core/src/b.rs", 1, RuleId::UnusedAllow, "idx"));
        r.assign_ids();
        r.findings[1].baselined = true;
        (r, LintConfig::default())
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let (r, cfg) = sample();
        let text = to_json(&r, &cfg);
        // The baseline module's JSON reader doubles as a validator here.
        let ok = crate::baseline::Baseline::parse(&text);
        // `findings` entries lack `id`? No — they carry ids; parse should
        // succeed structurally (it requires `findings` objects with ids).
        assert!(ok.is_ok(), "{ok:?}\n{text}");
        assert!(text.contains("\"rule\": \"taint-flow\""));
        assert!(text.contains("\\\"escaped\\\""));
        assert!(text.contains("\"baselined\": true"));
    }

    #[test]
    fn sarif_has_rules_results_and_suppressions() {
        let (r, cfg) = sample();
        let text = to_sarif(&r, &cfg);
        crate::baseline::validate_json(&text).expect("sarif must be well-formed JSON");
        assert!(text.contains("\"version\": \"2.1.0\""));
        // All rules present in driver metadata.
        for rule in RuleId::ALL {
            assert!(text.contains(&format!("\"id\": \"{}\"", rule.name())), "{}", rule.name());
        }
        assert!(text.contains("\"startLine\": 7"));
        assert!(text.contains("yosoLintFingerprint/v1"));
        assert!(text.contains("\"suppressions\""));
        // Exactly one suppressed result.
        assert_eq!(text.matches("\"suppressions\"").count(), 1);
    }
}
