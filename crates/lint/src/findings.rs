//! Finding type and report aggregation.

use crate::config::{Level, LintConfig, RuleId};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the lint root, with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule that fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Construct a finding.
    pub fn new(
        file: impl Into<String>,
        line: usize,
        rule: RuleId,
        message: impl Into<String>,
    ) -> Finding {
        Finding { file: file.into(), line, rule, message: message.into() }
    }

    /// Render as `level: file:line: [rule] message`.
    pub fn render(&self, cfg: &LintConfig) -> String {
        let level = match cfg.level(self.rule) {
            Level::Deny => "error",
            Level::Warn => "warning",
            Level::Allow => "allowed",
        };
        format!("{level}: {}:{}: [{}] {}", self.file, self.line, self.rule.name(), self.message)
    }
}

/// All findings from one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings in file/line order.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_checked: usize,
}

impl Report {
    /// True if any finding's rule is at `Deny` level — the run should
    /// fail.
    pub fn has_denials(&self, cfg: &LintConfig) -> bool {
        self.findings.iter().any(|f| cfg.level(f.rule) == Level::Deny)
    }

    /// Count findings at the given level.
    pub fn count_at(&self, cfg: &LintConfig, level: Level) -> usize {
        self.findings.iter().filter(|f| cfg.level(f.rule) == level).count()
    }
}
