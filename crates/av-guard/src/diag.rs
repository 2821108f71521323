//! Diagnostics: findings with `file:line` spans, rendered human-readable
//! or as JSON (hand-rolled — no serde in this workspace).

use std::fmt::Write as _;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`G0`–`G5`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// What was found and why it is banned here.
    pub message: String,
}

/// The result of scanning one file or the whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Allow annotations that suppressed a finding (each carries a
    /// written justification — reason-less or unused allows are `G0`
    /// findings, not suppressions).
    pub allows_honored: usize,
}

impl Report {
    /// Fold another report (one file's scan) into this one.
    pub(crate) fn absorb(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.files_scanned += other.files_scanned;
        self.allows_honored += other.allows_honored;
    }

    /// Findings for one rule ID (fixture tests use this).
    #[cfg(test)]
    pub(crate) fn of_rule(&self, rule: &str) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// Human-readable rendering, one finding per line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{} {}:{} — {}", f.rule, f.file, f.line, f.message);
        }
        let _ = writeln!(
            out,
            "av-guard: {} finding(s) in {} file(s) scanned, {} justified allow(s)",
            self.findings.len(),
            self.files_scanned,
            self.allows_honored
        );
        out
    }

    /// JSON rendering (stable field order, fully escaped).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                escape_json(f.rule),
                escape_json(&f.file),
                f.line,
                escape_json(&f.message)
            );
        }
        let _ = write!(
            out,
            "],\"files_scanned\":{},\"allows_honored\":{}}}",
            self.files_scanned, self.allows_honored
        );
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report {
            files_scanned: 2,
            allows_honored: 1,
            ..Default::default()
        };
        r.findings.push(Finding {
            rule: "G3",
            file: "a\"b.rs".to_string(),
            line: 7,
            message: "bad \"call\"".to_string(),
        });
        let json = r.render_json();
        assert!(json.contains("\"rule\":\"G3\""));
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("\"files_scanned\":2"));
        assert!(json.contains("\"allows_honored\":1"));
    }
}
