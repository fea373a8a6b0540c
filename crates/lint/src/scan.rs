//! Line-level source model for the lint rules.
//!
//! The scanner is deliberately *not* a Rust parser: the workspace builds
//! offline with vendored stubs only, so the linter is hand-rolled at the
//! token level (no `syn`). It produces, per source line:
//!
//! * `code` — the line with comments removed and string-literal *contents*
//!   blanked (quotes kept), so rule patterns never match inside strings or
//!   comments;
//! * `comment` — the concatenated comment text of the line, which is where
//!   `txallo-lint: allow(...)` suppressions live;
//! * `in_test` — whether the line sits inside a `#[cfg(test)]` item
//!   (tracked by brace depth on the stripped code), since the determinism
//!   contract governs shipped library code, not test scaffolding.
//!
//! Char literals, lifetimes, raw strings (`r#"..."#`) and nested block
//! comments are handled well enough for this workspace's idioms; the goal
//! is zero false positives on real code, not a grammar.

/// One scanned source file, ready for rule checks.
pub struct FileView {
    /// Repo-relative path with forward slashes (used for scope decisions).
    pub path: String,
    /// Raw source lines, 0-indexed (findings report 1-based lines).
    pub raw: Vec<String>,
    /// Comment-free, string-blanked code per line.
    pub code: Vec<String>,
    /// Comment text per line (both `//` and `/* */` parts).
    pub comment: Vec<String>,
    /// True for lines inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    /// Nested depth of `/* */` comments.
    Block(u32),
    Str,
    /// Raw string, closing delimiter is `"` followed by this many `#`.
    RawStr(u32),
}

impl FileView {
    /// Scan `source` into per-line code/comment channels.
    pub fn scan(path: &str, source: &str) -> FileView {
        let raw: Vec<String> = source.lines().map(str::to_owned).collect();
        let mut code: Vec<String> = Vec::with_capacity(raw.len());
        let mut comment: Vec<String> = Vec::with_capacity(raw.len());
        let mut mode = Mode::Code;
        for line in &raw {
            let (c, m, next) = scan_line(line, mode);
            code.push(c);
            comment.push(m);
            mode = match next {
                // Line comments never span lines.
                Mode::LineComment => Mode::Code,
                other => other,
            };
        }
        let in_test = test_mask(&code);
        FileView {
            path: path.to_owned(),
            raw,
            code,
            comment,
            in_test,
        }
    }

    /// Non-blank lines outside `#[cfg(test)]` items, comments included:
    /// the size of the shipped code.
    pub fn code_lines(&self) -> usize {
        self.raw
            .iter()
            .zip(&self.in_test)
            .filter(|(line, &test)| !test && !line.trim().is_empty())
            .count()
    }
}

/// Scan one line starting in `mode`; returns (code, comment, end mode).
fn scan_line(line: &str, start: Mode) -> (String, String, Mode) {
    let b: Vec<char> = line.chars().collect();
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let mut mode = start;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        match mode {
            Mode::Code => {
                if c == '/' && b.get(i + 1) == Some(&'/') {
                    mode = Mode::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && b.get(i + 1) == Some(&'*') {
                    mode = Mode::Block(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    // Raw string? Look back for r / r# / br## prefixes.
                    let hashes = raw_prefix_hashes(&code);
                    if let Some(h) = hashes {
                        mode = Mode::RawStr(h);
                    } else {
                        mode = Mode::Str;
                    }
                    code.push('"');
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Char literal vs lifetime: a literal is 'x', '\..', or
                    // '\u{..}'; a lifetime has no closing quote nearby.
                    if b.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: consume to the closing quote.
                        code.push('\'');
                        i += 2;
                        while i < b.len() && b[i] != '\'' {
                            i += 1;
                        }
                        code.push('\'');
                        i += 1;
                        continue;
                    }
                    if b.get(i + 2) == Some(&'\'') {
                        // Plain 'x' literal; blank the payload.
                        code.push('\'');
                        code.push(' ');
                        code.push('\'');
                        i += 3;
                        continue;
                    }
                    // Lifetime: keep the tick, scan on.
                    code.push('\'');
                    i += 1;
                    continue;
                }
                code.push(c);
                i += 1;
            }
            Mode::LineComment => {
                comment.push(c);
                i += 1;
            }
            Mode::Block(depth) => {
                if c == '*' && b.get(i + 1) == Some(&'/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::Block(depth - 1)
                    };
                    i += 2;
                    continue;
                }
                if c == '/' && b.get(i + 1) == Some(&'*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                    continue;
                }
                comment.push(c);
                i += 1;
            }
            Mode::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped char (may be a quote)
                    continue;
                }
                if c == '"' {
                    code.push('"');
                    mode = Mode::Code;
                }
                i += 1;
            }
            Mode::RawStr(h) => {
                if c == '"' {
                    let mut k = 0u32;
                    while k < h && b.get(i + 1 + k as usize) == Some(&'#') {
                        k += 1;
                    }
                    if k == h {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1 + h as usize;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    // A string continuing past the newline keeps its mode (multi-line
    // string literal); same for block comments.
    (code, comment, mode)
}

/// If the code emitted so far ends with a raw-string prefix (`r`, `r#`,
/// `br##`, ...), return the hash count; else None.
fn raw_prefix_hashes(code: &str) -> Option<u32> {
    let t = code.as_bytes();
    let mut i = t.len();
    let mut hashes = 0u32;
    while i > 0 && t[i - 1] == b'#' {
        hashes += 1;
        i -= 1;
    }
    if i == 0 {
        return None;
    }
    let r_at = i - 1;
    if t[r_at] != b'r' {
        return None;
    }
    // `r` must start the prefix: preceded by non-ident (or `b` preceded by
    // non-ident for byte raw strings).
    let before = if r_at == 0 { None } else { Some(t[r_at - 1]) };
    let ident_before =
        |c: Option<u8>| matches!(c, Some(x) if x == b'_' || x.is_ascii_alphanumeric());
    match before {
        Some(b'b') => {
            let bb = if r_at >= 2 { Some(t[r_at - 2]) } else { None };
            if ident_before(bb) {
                None
            } else {
                Some(hashes)
            }
        }
        c if ident_before(c) => None,
        _ => Some(hashes),
    }
}

/// Mark lines inside `#[cfg(test)]` items via brace-depth tracking on the
/// stripped code. Handles both braced items (`mod tests { ... }`) and
/// braceless ones (an attributed `use`), plus extra attributes between the
/// cfg and the item.
fn test_mask(code: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut in_test = false;
    let mut test_depth: i64 = 0;
    let mut pending = false;
    for (i, line) in code.iter().enumerate() {
        if !in_test && line.contains("#[cfg(test)]") {
            pending = true;
            mask[i] = true;
            continue;
        }
        if pending {
            mask[i] = true;
        }
        let opens = line.matches('{').count() as i64;
        let closes = line.matches('}').count() as i64;
        if pending && opens > 0 {
            in_test = true;
            test_depth = depth;
            pending = false;
        } else if pending && line.contains(';') {
            // Braceless attributed item (e.g. `use`): ends here.
            pending = false;
        }
        depth += opens - closes;
        if in_test {
            mask[i] = true;
            if depth <= test_depth {
                in_test = false;
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let v = FileView::scan(
            "x.rs",
            "let a = \"sort_unstable\"; // sort_unstable\nlet b = 1;",
        );
        assert!(!v.code[0].contains("sort_unstable"));
        assert!(v.comment[0].contains("sort_unstable"));
        assert_eq!(v.code[1], "let b = 1;");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let v = FileView::scan(
            "x.rs",
            "fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; }",
        );
        // The quote inside the char literal must not open a string.
        assert!(v.code[0].contains("fn f<'a>"));
        assert!(!v.code[0].contains("\\n"));
    }

    #[test]
    fn raw_strings_close_on_matching_hashes() {
        let v = FileView::scan("x.rs", "let s = r#\"a \" b\"#; let t = 2;");
        assert!(v.code[0].contains("let t = 2;"));
        assert!(!v.code[0].contains("a \" b"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let v = FileView::scan("x.rs", "a /* x /* y */ z */ b\n/* open\nstill */ after");
        assert_eq!(v.code[0].replace(' ', ""), "ab");
        assert_eq!(v.code[1], "");
        assert!(v.code[2].contains("after"));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}";
        let v = FileView::scan("x.rs", src);
        assert_eq!(v.in_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_braceless_item_is_masked() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}";
        let v = FileView::scan("x.rs", src);
        assert_eq!(v.in_test, vec![true, true, false]);
    }
}
