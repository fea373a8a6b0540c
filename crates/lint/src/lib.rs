//! `txallo-lint` — workspace static analyzer for the determinism contract.
//!
//! The paper (§IV-A) requires every validator to reproduce the allocation
//! bit-for-bit; ARCHITECTURE.md §Determinism contract encodes that as
//! D1–D5. The golden/proptest suites enforce the contract *dynamically*,
//! and clippy enforces by type what it can (hash-order traversal, unstable
//! keyed sorts, threads and clock reads: `clippy.toml` and each crate
//! root). This crate checks the two rules that are matters of spelling:
//! ad-hoc epsilon literals (`D2-eps-literal`) and silent narrowing casts
//! on id/count paths (`no-narrowing-as`). It is a dependency-free,
//! hand-rolled source scanner (no `syn`; the build is offline with
//! vendored stubs only) that walks every workspace crate.
//!
//! See [`rules::RULES`] for the rule set and `ARCHITECTURE.md §Running
//! the linter` for the suppression syntax and for the compiler lints.
//! Findings print as `file:line rule message`; the run exits nonzero on
//! any unsuppressed finding, and the final stdout line is a
//! machine-readable JSON summary.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub mod rules;
pub mod scan;
pub mod suppress;

use scan::FileView;
use std::path::{Path, PathBuf};

/// One lint finding, after suppression matching.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id.
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
    /// The suppression reason when an `allow` comment silenced this.
    pub suppressed: Option<String>,
}

impl Finding {
    /// True when this finding counts against the exit code.
    pub fn is_active(&self) -> bool {
        self.suppressed.is_none()
    }
}

/// Analyze one file's source. `path` must be repo-relative with forward
/// slashes — rule scoping is path-based.
pub fn analyze(path: &str, source: &str) -> Vec<Finding> {
    findings_of(&FileView::scan(path, source))
}

fn findings_of(view: &FileView) -> Vec<Finding> {
    let path = view.path.as_str();
    let mut raw: Vec<rules::RawFinding> = Vec::new();
    for rule in rules::RULES {
        (rule.check)(view, &mut raw);
    }
    let mut sups = suppress::parse(view);

    let mut findings: Vec<Finding> = Vec::new();
    for (line, rule, message) in raw {
        let mut suppressed = None;
        for s in sups.iter_mut() {
            if s.applies_to == line
                && s.reason.len() >= suppress::MIN_REASON
                && s.rules.iter().any(|r| r == rule)
            {
                s.used = true;
                suppressed = Some(s.reason.clone());
                break;
            }
        }
        findings.push(Finding {
            file: path.to_owned(),
            line,
            rule: rule.to_owned(),
            message,
            suppressed,
        });
    }

    // Meta rule: suppression hygiene. These findings are not themselves
    // suppressible — a suppression that cannot explain itself is exactly
    // the audit failure the rule exists to catch.
    for s in &sups {
        if s.rules.is_empty() {
            findings.push(Finding {
                file: path.to_owned(),
                line: s.line,
                rule: "suppression-hygiene".to_owned(),
                message: "malformed suppression: no rule ids inside allow(...)".to_owned(),
                suppressed: None,
            });
            continue;
        }
        for r in &s.rules {
            if !rules::known_rule(r) {
                findings.push(Finding {
                    file: path.to_owned(),
                    line: s.line,
                    rule: "suppression-hygiene".to_owned(),
                    message: format!("suppression names unknown rule `{r}`"),
                    suppressed: None,
                });
            }
        }
        if s.reason.len() < suppress::MIN_REASON {
            findings.push(Finding {
                file: path.to_owned(),
                line: s.line,
                rule: "suppression-hygiene".to_owned(),
                message: format!(
                    "suppression without a written reason (need >= {} chars after the \
                     closing paren) — reasons are mandatory so exceptions stay auditable",
                    suppress::MIN_REASON
                ),
                suppressed: None,
            });
        }
    }

    // Meta rule: unused suppressions. A suppression may exempt itself by
    // listing `unused-suppression` among its own rules (for annotations
    // kept deliberately, e.g. guarding a cfg'd-out path).
    for s in &sups {
        let well_formed = !s.rules.is_empty()
            && s.reason.len() >= suppress::MIN_REASON
            && s.rules.iter().all(|r| rules::known_rule(r));
        let self_exempt = s.rules.iter().any(|r| r == "unused-suppression");
        if well_formed && !s.used && !self_exempt {
            findings.push(Finding {
                file: path.to_owned(),
                line: s.line,
                rule: "unused-suppression".to_owned(),
                message: format!(
                    "suppression for {} matched no finding — remove it (stale \
                     annotations hide real regressions)",
                    s.rules.join(", ")
                ),
                suppressed: None,
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    findings
}

/// Directory names never descended into during the workspace walk:
/// vendored stubs mirror external APIs, and test/bench/example/fixture
/// code is outside the contract's scope (the `#[cfg(test)]` mask handles
/// in-file test mods).
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "tests", "benches", "examples", "fixtures", ".git",
];

/// Collect every lintable `.rs` file under `root`, sorted, as
/// (repo-relative path, absolute path).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Aggregate result of a workspace run.
#[derive(Default)]
pub struct Report {
    /// All findings across all files, active and suppressed.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files: usize,
    /// Non-blank lines outside `#[cfg(test)]` items across the scanned
    /// files ([`FileView::code_lines`]).
    pub lines: usize,
}

impl Report {
    /// Scans one file into the report: its findings and its line count.
    /// `path` is repo-relative, as for [`analyze`].
    pub fn add(&mut self, path: &str, source: &str) {
        let view = FileView::scan(path, source);
        self.findings.extend(findings_of(&view));
        self.files += 1;
        self.lines += view.code_lines();
    }

    /// Findings that count against the exit code.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_active())
    }

    /// Number of active (unsuppressed) findings.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Number of suppressed findings.
    pub fn suppressed_count(&self) -> usize {
        self.findings.len() - self.active_count()
    }

    /// The machine-readable one-line JSON summary.
    pub fn json_summary(&self) -> String {
        let mut per_rule: std::collections::BTreeMap<&str, usize> =
            std::collections::BTreeMap::new();
        for f in self.active() {
            *per_rule.entry(f.rule.as_str()).or_insert(0) += 1;
        }
        let rules: Vec<String> = per_rule
            .iter()
            .map(|(r, n)| format!("\"{r}\":{n}"))
            .collect();
        format!(
            "{{\"files\":{},\"lines\":{},\"active\":{},\"suppressed\":{},\"rules\":{{{}}}}}",
            self.files,
            self.lines,
            self.active_count(),
            self.suppressed_count(),
            rules.join(",")
        )
    }
}

/// Run the linter over the workspace rooted at `root`.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for (rel, abs) in workspace_files(root)? {
        report.add(&rel, &std::fs::read_to_string(&abs)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressed_finding_is_inactive_and_counted() {
        let src = "fn f(g: f64) -> bool {\n    g > 1e-12 // txallo-lint: allow(D2-eps-literal) — a documented floor for this check\n}";
        let findings = analyze("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].is_active());
        assert_eq!(
            findings[0].suppressed.as_deref(),
            Some("a documented floor for this check")
        );
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src = "fn f(g: f64) -> bool {\n    g > 1e-12 // txallo-lint: allow(D2-eps-literal)\n}";
        let findings = analyze("crates/core/src/x.rs", src);
        // The literal stays active AND the bare suppression is flagged.
        assert!(findings
            .iter()
            .any(|f| f.rule == "D2-eps-literal" && f.is_active()));
        assert!(findings
            .iter()
            .any(|f| f.rule == "suppression-hygiene" && f.is_active()));
    }

    #[test]
    fn unknown_rule_in_suppression_is_a_finding() {
        let src = "fn f() {} // txallo-lint: allow(no-such-rule) — some long reason here";
        let findings = analyze("crates/core/src/x.rs", src);
        assert!(findings.iter().any(|f| f.rule == "suppression-hygiene"));
    }

    #[test]
    fn unused_suppression_is_a_finding_unless_self_exempt() {
        let src = "fn f() {} // txallo-lint: allow(D2-eps-literal) — no literal on this line";
        let findings = analyze("crates/core/src/x.rs", src);
        assert!(findings.iter().any(|f| f.rule == "unused-suppression"));
        let exempt =
            "fn f() {} // txallo-lint: allow(D2-eps-literal, unused-suppression) — kept for the cfg'd path";
        let findings = analyze("crates/core/src/x.rs", exempt);
        assert!(!findings.iter().any(|f| f.rule == "unused-suppression"));
    }

    #[test]
    fn hygiene_findings_are_not_suppressible() {
        // A reasonless suppression cannot be silenced by naming the meta
        // rule — the hygiene finding must survive.
        let src = "fn f(g: f64) -> bool {\n    g > 1e-12 // txallo-lint: allow(D2-eps-literal, suppression-hygiene)\n}";
        let findings = analyze("crates/core/src/x.rs", src);
        assert!(findings
            .iter()
            .any(|f| f.rule == "suppression-hygiene" && f.is_active()));
    }

    #[test]
    fn summary_counts_non_blank_lines_outside_test_items() {
        let mut report = Report::default();
        report.add(
            "crates/core/src/x.rs",
            "//! Docs count.\n\nfn lib() {}\n   \n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n",
        );
        report.add("crates/core/src/y.rs", "fn other() {}\n");
        assert_eq!((report.files, report.lines), (2, 4));
        assert!(report
            .json_summary()
            .starts_with("{\"files\":2,\"lines\":4,\"active\":0,"));
    }

    #[test]
    fn standalone_suppression_covers_the_next_line() {
        let src = "fn f(g: f64) -> bool {\n    // txallo-lint: allow(D2-eps-literal) — a documented floor for this check\n    g > 1e-12\n}";
        let findings = analyze("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].is_active());
    }
}
