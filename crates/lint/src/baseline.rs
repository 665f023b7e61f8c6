//! Baseline handling: accepted pre-existing findings that should not
//! fail CI, keyed by stable fingerprint.
//!
//! `lint-baseline.json` format (written by `--write-baseline`, loaded
//! automatically when present at the lint root):
//!
//! ```json
//! {
//!   "version": 1,
//!   "findings": [
//!     {"id": "a1b2...", "rule": "unguarded-post", "file": "crates/...", "message": "..."}
//!   ]
//! }
//! ```
//!
//! Matching is by `id` alone — the rule/file/message fields are carried
//! for human review of the baseline file. Baseline entries that match no
//! current finding are *stale* and reported so the file can be pruned.
//!
//! The workspace builds offline with no JSON crate, so this module carries a
//! ~100-line recursive-descent JSON reader sufficient for the format
//! above (and strict enough to reject malformed files loudly instead of
//! silently baselining nothing).

use std::collections::BTreeSet;
use std::fmt;

use crate::config::{Level, LintConfig};
use crate::findings::Report;

/// One accepted finding.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    /// Stable fingerprint (matches [`crate::findings::Finding::id`]).
    pub id: String,
    /// Rule name at record time (informational).
    pub rule: String,
    /// File at record time (informational).
    pub file: String,
    /// Message at record time (informational).
    pub message: String,
}

/// A loaded baseline.
#[derive(Debug, Default)]
pub struct Baseline {
    /// All accepted entries.
    pub entries: Vec<BaselineEntry>,
}

/// Baseline load/parse error with position context.
#[derive(Debug)]
pub struct BaselineError(pub String);

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid baseline: {}", self.0)
    }
}

impl Baseline {
    /// Parse a baseline file's JSON text.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let value = Json::parse(text).map_err(BaselineError)?;
        let Json::Object(top) = value else {
            return Err(BaselineError("top level must be an object".to_string()));
        };
        let findings = top
            .iter()
            .find(|(k, _)| k == "findings")
            .map(|(_, v)| v)
            .ok_or_else(|| BaselineError("missing `findings` array".to_string()))?;
        let Json::Array(items) = findings else {
            return Err(BaselineError("`findings` must be an array".to_string()));
        };
        let mut entries = Vec::new();
        for item in items {
            let Json::Object(fields) = item else {
                return Err(BaselineError("each finding must be an object".to_string()));
            };
            let get = |name: &str| -> String {
                fields
                    .iter()
                    .find(|(k, _)| k == name)
                    .and_then(|(_, v)| match v {
                        Json::String(s) => Some(s.clone()),
                        _ => None,
                    })
                    .unwrap_or_default()
            };
            let id = get("id");
            if id.is_empty() {
                return Err(BaselineError("finding entry missing `id`".to_string()));
            }
            entries.push(BaselineEntry {
                id,
                rule: get("rule"),
                file: get("file"),
                message: get("message"),
            });
        }
        Ok(Baseline { entries })
    }

    /// Mark report findings matching a baseline id; returns the stale
    /// entries (baselined ids that matched nothing this run).
    pub fn apply(&self, report: &mut Report) -> Vec<&BaselineEntry> {
        let mut matched: BTreeSet<&str> = BTreeSet::new();
        let ids: BTreeSet<&str> = self.entries.iter().map(|e| e.id.as_str()).collect();
        for f in &mut report.findings {
            if ids.contains(f.id.as_str()) {
                f.baselined = true;
                matched.insert(f.id.as_str());
            }
        }
        self.entries.iter().filter(|e| !matched.contains(e.id.as_str())).collect()
    }
}

/// Serialize the report's current **deny-level** findings as a baseline
/// file. Warn-level findings are not baselined: they never fail a run, so
/// freezing them would only hide drift.
pub fn render(report: &Report, cfg: &LintConfig) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [\n");
    let deny: Vec<_> = report
        .findings
        .iter()
        .filter(|f| cfg.level(f.rule) == Level::Deny)
        .collect();
    for (i, f) in deny.iter().enumerate() {
        let comma = if i + 1 < deny.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"id\": {}, \"rule\": {}, \"file\": {}, \"message\": {}}}{comma}\n",
            escape(&f.id),
            escape(f.rule.name()),
            escape(&f.file),
            escape(&f.message)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validate that `text` is well-formed JSON (used by the test suite to
/// check the `--format json`/`--format sarif` emitters structurally).
pub fn validate_json(text: &str) -> Result<(), String> {
    Json::parse(text).map(|_| ())
}

/// JSON string-escape `s` (with quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON value for the baseline format.
#[derive(Debug)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    /// Numbers, booleans and null — carried but unused by the baseline.
    Other,
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::String(s) => s,
                    _ => return Err(format!("object key must be a string at byte {pos}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::String(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                let cp = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Copy the raw byte run up to the next quote or
                        // escape to keep UTF-8 sequences intact.
                        if c < 0x80 {
                            out.push(c as char);
                            *pos += 1;
                        } else {
                            let start = *pos;
                            while *pos < b.len() && b[*pos] >= 0x80 {
                                *pos += 1;
                            }
                            out.push_str(&String::from_utf8_lossy(&b[start..*pos]));
                        }
                    }
                }
            }
        }
        Some(_) => {
            // Number / true / false / null: consume the token.
            let start = *pos;
            while *pos < b.len()
                && !matches!(b[*pos], b',' | b'}' | b']' | b' ' | b'\t' | b'\r' | b'\n')
            {
                *pos += 1;
            }
            if *pos == start {
                return Err(format!("unexpected character at byte {pos}"));
            }
            Ok(Json::Other)
        }
        None => Err("unexpected end of input".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleId;
    use crate::findings::Finding;

    #[test]
    fn parse_apply_and_stale() {
        let text = r#"{
          "version": 1,
          "findings": [
            {"id": "aaaa", "rule": "panic", "file": "a.rs", "message": "m1"},
            {"id": "bbbb", "rule": "panic", "file": "b.rs", "message": "m2"}
          ]
        }"#;
        let bl = Baseline::parse(text).expect("parse");
        assert_eq!(bl.entries.len(), 2);
        let mut report = Report::default();
        let mut f = Finding::new("a.rs", 1, RuleId::Panic, "m1");
        f.id = "aaaa".to_string();
        report.findings.push(f);
        let stale = bl.apply(&mut report);
        assert!(report.findings[0].baselined);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].id, "bbbb");
    }

    #[test]
    fn malformed_baseline_rejected() {
        assert!(Baseline::parse("[]").is_err());
        assert!(Baseline::parse("{\"findings\": 3}").is_err());
        assert!(Baseline::parse("{\"findings\": [{\"rule\": \"panic\"}]}").is_err());
        assert!(Baseline::parse("{\"findings\": []} trailing").is_err());
        assert!(Baseline::parse("{\"findings\": []}").is_ok());
    }

    #[test]
    fn render_round_trips() {
        let cfg = LintConfig::default();
        let mut report = Report::default();
        report
            .findings
            .push(Finding::new("a.rs", 3, RuleId::Panic, "uses \"quotes\" and \\ slashes"));
        report.findings.push(Finding::new("a.rs", 4, RuleId::UnusedAllow, "warn level, excluded"));
        report.assign_ids();
        let text = render(&report, &cfg);
        let bl = Baseline::parse(&text).expect("round trip");
        assert_eq!(bl.entries.len(), 1);
        assert_eq!(bl.entries[0].id, report.findings[0].id);
        assert_eq!(bl.entries[0].message, "uses \"quotes\" and \\ slashes");
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }
}
