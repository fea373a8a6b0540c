//! The two lexical rules: `D2-eps-literal` (ARCHITECTURE.md §Determinism
//! contract, D2) and the id-space hygiene rule `no-narrowing-as`. Both
//! run on the comment-stripped, string-blanked code channel of
//! [`FileView`] and skip `#[cfg(test)]` regions.
//!
//! Rules are heuristic by design (no type information), tuned for zero
//! false positives on this workspace's idioms; anything they still flag
//! that is genuinely fine takes an explicit
//! `// txallo-lint: allow(rule) — reason` suppression, which keeps the
//! exceptions auditable in the diff.

use crate::scan::FileView;

/// A rule violation before suppression matching: (1-based line, rule id,
/// message).
pub type RawFinding = (usize, &'static str, String);

/// Static description of one rule.
pub struct Rule {
    /// Stable id, as written in `allow(...)` suppressions.
    pub id: &'static str,
    /// One-line description for `--rules` output.
    pub summary: &'static str,
    /// The contract rule this enforces (for docs cross-referencing).
    pub contract: &'static str,
    /// The check itself.
    pub check: fn(&FileView, &mut Vec<RawFinding>),
}

/// Every source-level rule, in reporting order. The two meta rules
/// (`suppression-hygiene`, `unused-suppression`) live in the engine, not
/// here, because they examine suppressions rather than code.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D2-eps-literal",
        summary: "no ad-hoc epsilon literals (<= 1e-9); tie-breaking tolerance is txallo_louvain::GAIN_EPS",
        contract: "D2 GAIN_EPS tie-breaking",
        check: d2_eps_literal,
    },
    Rule {
        id: "no-narrowing-as",
        summary: "no `as u8/u16/u32/NodeId` narrowing on id/count paths; use checked constructors (IdSpaceExhausted-style)",
        contract: "hygiene (id-space safety)",
        check: no_narrowing_as,
    },
];

/// True when `id` names a source rule or one of the engine's meta rules.
pub fn known_rule(id: &str) -> bool {
    id == "suppression-hygiene" || id == "unused-suppression" || RULES.iter().any(|r| r.id == id)
}

// ---------------------------------------------------------------- helpers

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Find `needle` in `hay` at an identifier boundary (both edges that are
/// identifier characters must not extend into surrounding identifiers).
/// Returns the byte offset of the first such occurrence at or after
/// `from`.
fn find_token_from(hay: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut start = from;
    while start <= hay.len() {
        let rel = hay.get(start..)?.find(needle)?;
        let at = start + rel;
        let end = at + needle.len();
        let head_is_ident = needle
            .as_bytes()
            .first()
            .copied()
            .is_some_and(is_ident_byte);
        let tail_is_ident = needle.as_bytes().last().copied().is_some_and(is_ident_byte);
        let before_ok = !head_is_ident || at == 0 || !is_ident_byte(bytes[at - 1]);
        let after_ok = !tail_is_ident || end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

/// Iterate non-test code lines as (1-based line number, code).
fn code_lines<'a>(view: &'a FileView) -> impl Iterator<Item = (usize, &'a str)> + 'a {
    view.code
        .iter()
        .enumerate()
        .filter(|(i, _)| !view.in_test[*i])
        .map(|(i, l)| (i + 1, l.as_str()))
}

/// The identifier ending at byte offset `end` (exclusive), if any.
fn ident_ending_at(line: &str, end: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        None
    } else {
        line.get(start..end)
    }
}

// ------------------------------------------------------------------ rules

/// The one sanctioned definition site for the tie-break tolerance.
const GAIN_EPS_HOME: &str = "crates/louvain/src/lib.rs";

fn d2_eps_literal(view: &FileView, out: &mut Vec<RawFinding>) {
    if view.path == GAIN_EPS_HOME {
        return;
    }
    for (lineno, code) in code_lines(view) {
        let bytes = code.as_bytes();
        for i in 0..bytes.len() {
            if bytes[i] != b'e' && bytes[i] != b'E' {
                continue;
            }
            // Numeric mantissa to the left ...
            if i == 0 || !(bytes[i - 1].is_ascii_digit() || bytes[i - 1] == b'.') {
                continue;
            }
            let mut m = i - 1;
            while m > 0 && (bytes[m - 1].is_ascii_digit() || bytes[m - 1] == b'.') {
                m -= 1;
            }
            if m > 0 && is_ident_byte(bytes[m - 1]) {
                continue; // part of an identifier like `x1e`, not a literal
            }
            // ... and `-NN` to the right.
            if bytes.get(i + 1) != Some(&b'-') {
                continue;
            }
            let mut j = i + 2;
            let mut exp: u32 = 0;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                exp = exp.saturating_mul(10) + u32::from(bytes[j] - b'0');
                j += 1;
            }
            if j == i + 2 {
                continue; // no digits after the minus
            }
            if exp >= 9 {
                out.push((
                    lineno,
                    "D2-eps-literal",
                    format!(
                        "ad-hoc epsilon literal `{}` — tie-break tolerances must be \
                         txallo_louvain::GAIN_EPS (D2); name any other tolerance as a \
                         documented const",
                        &code[m..j]
                    ),
                ));
            }
        }
    }
}

/// Identifier fragments that mark a value as an id/count on the checked-
/// constructor path.
const ID_FRAGMENTS: &[&str] = &[
    "id", "idx", "len", "count", "node", "nodes", "account", "accounts",
];

fn no_narrowing_as(view: &FileView, out: &mut Vec<RawFinding>) {
    for (lineno, code) in code_lines(view) {
        for target in [" as u8", " as u16", " as u32", " as NodeId"] {
            let mut from = 0;
            while let Some(at) = find_token_from(code, target, from) {
                from = at + 1;
                // Source expression tail: `ident` or `ident()` before `as`.
                let mut end = at;
                let bytes = code.as_bytes();
                if end >= 2 && &code[end - 2..end] == "()" {
                    end -= 2;
                }
                while end > 0 && bytes[end - 1] == b' ' {
                    end -= 1;
                }
                let Some(ident) = ident_ending_at(code, end) else {
                    continue;
                };
                let lower = ident.to_ascii_lowercase();
                if lower.split('_').any(|seg| ID_FRAGMENTS.contains(&seg)) {
                    out.push((
                        lineno,
                        "no-narrowing-as",
                        format!(
                            "`{ident}{}` narrows silently — id/count paths use checked \
                             conversions (IdSpaceExhausted-style) or a documented \
                             invariant suppression",
                            target
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_rule(rule_id: &str, path: &str, src: &str) -> Vec<RawFinding> {
        let view = FileView::scan(path, src);
        let mut out = Vec::new();
        for r in RULES {
            if r.id == rule_id {
                (r.check)(&view, &mut out);
            }
        }
        out
    }

    #[test]
    fn d2_flags_small_literals_only() {
        let src = "const A: f64 = 1e-15;\nconst B: f64 = 1e-3;\nlet c = 2.5e-12;";
        let hits = run_rule("D2-eps-literal", "crates/core/src/x.rs", src);
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn d2_exempts_gain_eps_home() {
        let src = "pub const GAIN_EPS: f64 = 1e-15;";
        assert!(run_rule("D2-eps-literal", "crates/louvain/src/lib.rs", src).is_empty());
    }

    #[test]
    fn narrowing_flags_id_paths_only() {
        let src = "let a = node_count() as u32;\nlet b = shards as u32;\nlet c = v.len() as u32;\n\
                   let d = v.len() as NodeId;\nlet e = i as NodeId;\nlet f = len as NodeIdx;";
        let hits = run_rule("no-narrowing-as", "crates/core/src/x.rs", src);
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![1, 3, 4]);
    }
}
