//! `txallo-lint: allow(rule-id) — reason` suppression comments.
//!
//! Suppressions are explicit and auditable: every one names the rule(s) it
//! silences and carries a mandatory written reason. Two placements are
//! recognized:
//!
//! * trailing, on the offending line itself;
//! * a standalone comment line directly **above** the offending line (for
//!   lines too long to carry the comment).
//!
//! A suppression with a missing or too-short reason, or naming an unknown
//! rule, is itself a finding (`suppression-hygiene`); one that matches no
//! finding is flagged `unused-suppression` so stale annotations cannot
//! accumulate.

use crate::scan::FileView;

/// The marker that introduces a suppression inside a comment.
pub const MARKER: &str = "txallo-lint: allow(";

/// Minimum number of characters for a suppression reason to count.
pub const MIN_REASON: usize = 8;

/// One parsed suppression comment.
pub struct Suppression {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// 1-based line findings must be on for this suppression to match
    /// (same line for trailing comments, next line for standalone ones).
    pub applies_to: usize,
    /// Rule ids named inside `allow(...)`, comma-separated.
    pub rules: Vec<String>,
    /// Reason text after the closing paren (separators stripped).
    pub reason: String,
    /// Set when any finding was silenced by this suppression.
    pub used: bool,
}

/// Parse every suppression comment in the file.
///
/// Standalone comments (no code on the line) apply to the line directly
/// below; trailing comments apply to their own line.
pub fn parse(view: &FileView) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, comment) in view.comment.iter().enumerate() {
        let Some(pos) = comment.find(MARKER) else {
            continue;
        };
        // Doc comments describe the syntax; only regular comments suppress.
        let raw = view.raw[idx].trim_start();
        if raw.starts_with("///") || raw.starts_with("//!") {
            continue;
        }
        let after = &comment[pos + MARKER.len()..];
        let Some(close) = after.find(')') else {
            // Malformed (no closing paren): record as an empty-rule
            // suppression; hygiene reporting flags it.
            out.push(Suppression {
                line: idx + 1,
                applies_to: target_line(view, idx),
                rules: Vec::new(),
                reason: String::new(),
                used: false,
            });
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty())
            .collect();
        let reason = after[close + 1..]
            .trim_start_matches(|c: char| {
                c.is_whitespace() || c == '\u{2014}' || c == '-' || c == ':'
            })
            .trim()
            .to_owned();
        out.push(Suppression {
            line: idx + 1,
            applies_to: target_line(view, idx),
            rules,
            reason,
            used: false,
        });
    }
    out
}

/// The 1-based line a suppression at 0-based `idx` governs.
fn target_line(view: &FileView, idx: usize) -> usize {
    if view.code[idx].trim().is_empty() {
        idx + 2 // standalone comment: the line below
    } else {
        idx + 1 // trailing comment: this line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(src: &str) -> FileView {
        FileView::scan("crates/core/src/x.rs", src)
    }

    #[test]
    fn trailing_suppression_applies_to_its_own_line() {
        let v = view("let x = g > 1e-12; // txallo-lint: allow(D2-eps-literal) — checked above");
        let s = parse(&v);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].applies_to, 1);
        assert_eq!(s[0].rules, vec!["D2-eps-literal"]);
        assert_eq!(s[0].reason, "checked above");
    }

    #[test]
    fn standalone_suppression_applies_to_next_line() {
        let v =
            view("// txallo-lint: allow(no-narrowing-as) — bounded by id space\nlet y = n as u32;");
        let s = parse(&v);
        assert_eq!(s[0].applies_to, 2);
    }

    #[test]
    fn multiple_rules_and_ascii_dash() {
        let v = view(
            "x(); // txallo-lint: allow(D2-eps-literal, no-narrowing-as) - measured outside the kernel",
        );
        let s = parse(&v);
        assert_eq!(s[0].rules, vec!["D2-eps-literal", "no-narrowing-as"]);
        assert_eq!(s[0].reason, "measured outside the kernel");
    }

    #[test]
    fn missing_reason_is_empty() {
        let v = view("x(); // txallo-lint: allow(D2-eps-literal)");
        let s = parse(&v);
        assert!(s[0].reason.is_empty());
    }
}
