//! The two source rules clippy cannot check, and the size count.
//!
//! Clippy checks by type what it can of ARCHITECTURE.md's determinism
//! contract. Two rules are matters of spelling, so this test reads them
//! off the `.rs` files under `crates/` and `src/` (outside [`SKIP_DIRS`]),
//! skipping comments, string and char literals and `#[cfg(test)]` items:
//!
//! - **D2:** no float literal with a decimal exponent of −9 or below, nor
//!   a positional one below `1e-8` (`0.000_000_001`), except in
//!   `crates/louvain/src/lib.rs`, the home of `GAIN_EPS`;
//! - **narrowing:** no `as NodeId` on anything but an integer literal, and
//!   no `as u8`, `as u16` or `as u32` on an identifier whose `_`-separated
//!   parts include one of [`ID_PARTS`].
//!
//! The exceptions are the fixed list [`ALLOWED`]. `cargo test -q --test
//! source_rules -- --nocapture` prints the size a simplification is
//! measured by: the scanned non-blank lines outside `#[cfg(test)]` items.

use std::path::Path;

/// Directories the walk skips: test, bench and example code is outside
/// the rules' scope, and the vendored stubs mirror external APIs.
const SKIP_DIRS: &[&str] = &[
    "tests", "benches", "examples", "fixtures", "target", "vendor",
];

/// Identifier parts that mark a value as an id or a count.
const ID_PARTS: &[&str] = &[
    "id", "idx", "len", "count", "node", "nodes", "account", "accounts",
];

/// The exceptions, as (path, text of the excused code line), each with its
/// reason above it. Each entry must excuse exactly one finding.
const ALLOWED: &[(&str, &str)] = &[
    // A named, documented magnitude floor on balance weights, not a gain tolerance.
    ("crates/metis/src/lib.rs", "const STRENGTH_FLOOR"),
    // A named, documented divide-by-zero guard; the golden suites pin its value.
    ("crates/metis/src/lib.rs", "const RATIO_FLOOR"),
    // A named, documented gain floor; the metis golden and property tests pin its value.
    ("crates/metis/src/refine.rs", "const FM_GAIN_MIN"),
    // Two casts in the seed-era reference, kept verbatim for the regression
    // harness; the delta path it mirrors converts with the checked fit_u32.
    ("crates/bench/src/seed_ref.rs", "out.targets.len() as u32"),
    ("crates/bench/src/seed_ref.rs", "for v in 0..n as NodeId"),
];

const D2: &str = "D2: an ad-hoc epsilon; tie-breaks use txallo_louvain::GAIN_EPS";
const NARROWING: &str = "narrowing: an id or count cast silently; use txallo_graph::fit_u32";

#[derive(Clone, Copy)]
enum Mode {
    Code,
    /// In `/* */` comments nested this deep.
    Block(u32),
    /// In a string: a plain one, or a raw one closed by `"` and this many `#`.
    Str(Option<usize>),
}

fn is_ident(c: char) -> bool {
    c == '_' || c.is_ascii_alphanumeric()
}

/// One line's code: comments removed, the contents of string and char
/// literals blanked. `mode` carries a block comment or a string over lines.
fn strip_line(line: &str, mode: &mut Mode) -> String {
    let mut code = String::new();
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        let rest = chars.as_str();
        match *mode {
            Mode::Code if c == '/' && rest.starts_with('/') => break,
            Mode::Code if c == '/' && rest.starts_with('*') => {
                (*mode, chars) = (Mode::Block(1), rest[1..].chars());
            }
            Mode::Code if c == '"' => {
                *mode = Mode::Str(raw_hashes(&code));
                code.push('"');
            }
            // A char literal; an escaped one runs to the next quote.
            Mode::Code if c == '\'' && rest.starts_with('\\') => {
                chars.find(|&c| c == '\'');
                code.push_str("''");
            }
            Mode::Code if c == '\'' && rest.chars().nth(1) == Some('\'') => {
                chars.nth(1);
                code.push_str("''");
            }
            Mode::Code => code.push(c),
            Mode::Block(1) if c == '*' && rest.starts_with('/') => {
                (*mode, chars) = (Mode::Code, rest[1..].chars());
            }
            Mode::Block(depth) if c == '*' && rest.starts_with('/') => {
                (*mode, chars) = (Mode::Block(depth - 1), rest[1..].chars());
            }
            Mode::Block(depth) if c == '/' && rest.starts_with('*') => {
                (*mode, chars) = (Mode::Block(depth + 1), rest[1..].chars());
            }
            // The escaped char of a plain string.
            Mode::Str(None) if c == '\\' => _ = chars.next(),
            Mode::Str(hashes) if c == '"' && rest.starts_with(&"#".repeat(hashes.unwrap_or(0))) => {
                (*mode, chars) = (Mode::Code, rest[hashes.unwrap_or(0)..].chars());
                code.push('"');
            }
            Mode::Block(_) | Mode::Str(_) => {}
        }
    }
    code
}

/// The hash count of the raw-string prefix (`r`, `r#`, `br##`, ...) that
/// ends `code`, if one does.
fn raw_hashes(code: &str) -> Option<usize> {
    let head = code.trim_end_matches('#');
    let hashes = code.len() - head.len();
    let head = head.strip_suffix('r')?;
    let head = head.strip_suffix('b').unwrap_or(head);
    (!head.ends_with(is_ident)).then_some(hashes)
}

/// Which code lines lie in a `#[cfg(test)]` item: a braced one ends where
/// the brace depth falls back, a braceless one (a `use`) at its `;`.
fn test_mask(code: &[String]) -> Vec<bool> {
    let (mut depth, mut test_depth, mut in_test, mut pending) = (0i64, 0, false, false);
    let mut mask = Vec::with_capacity(code.len());
    for line in code {
        pending |= !in_test && line.contains("#[cfg(test)]");
        mask.push(pending || in_test);
        let opens = line.matches('{').count() as i64;
        if pending && opens > 0 {
            (in_test, test_depth, pending) = (true, depth, false);
        } else if line.contains(';') {
            pending = false;
        }
        depth += opens - line.matches('}').count() as i64;
        in_test &= depth > test_depth;
    }
    mask
}

/// Float literals in `line` with an exponent of −9 or below, or written
/// positionally with a zero integer part and zeros in the first eight
/// fraction places.
fn eps_literals(line: &str) -> usize {
    let b = line.as_bytes();
    let mantissa = |c: u8| c.is_ascii_digit() || c == b'.';
    let mut hits = 0;
    for i in 1..b.len() {
        if !matches!(b[i], b'e' | b'E') || !mantissa(b[i - 1]) || b.get(i + 1) != Some(&b'-') {
            continue;
        }
        let head = line[..i].trim_end_matches(|c: char| c.is_ascii_digit() || c == '.');
        let after = line[i + 2..].trim_start_matches(|c: char| c.is_ascii_digit());
        let exponent = &line[i + 2..line.len() - after.len()];
        // An exponent too long to parse is far below −9.
        let small = exponent
            .parse()
            .map_or(!exponent.is_empty(), |e: u64| e >= 9);
        hits += usize::from(small && !head.ends_with(is_ident));
    }
    for (i, _) in line.match_indices('.') {
        let head = line[..i].trim_end_matches(['0', '_']);
        let rest = line[i + 1..].trim_start_matches(|c: char| c.is_ascii_digit() || c == '_');
        let fraction = line[i + 1..line.len() - rest.len()].replace('_', "");
        let zero_int = line[head.len()..i].starts_with('0') && !head.ends_with(is_ident);
        let first_nonzero = fraction.find(|c| c != '0');
        hits += usize::from(zero_int && first_nonzero >= Some(8) && !rest.starts_with(['e', 'E']));
    }
    hits
}

/// Casts in `line` that narrow to a node id anything but an integer
/// literal, or that narrow an id- or count-shaped identifier.
fn narrowing_casts(line: &str) -> usize {
    let mut hits = 0;
    for to in [" as u8", " as u16", " as u32", " as NodeId"] {
        for (at, _) in line.match_indices(to) {
            let head = line[..at].strip_suffix("()").unwrap_or(&line[..at]);
            let head = head.trim_end_matches(' ');
            let start = head.trim_end_matches(is_ident).len();
            let ident = head[start..].to_ascii_lowercase();
            let narrows = if to == " as NodeId" {
                // A tuple field (`pair.0`) is no literal.
                let literal = ident.starts_with(|c: char| c.is_ascii_digit());
                !literal || head[..start].ends_with('.')
            } else {
                ident.split('_').any(|part| ID_PARTS.contains(&part))
            };
            hits += usize::from(narrows && !line[at + to.len()..].starts_with(is_ident));
        }
    }
    hits
}

/// One file's findings, as (1-based line, rule, the line's code), and its
/// size count. `path` is repo-relative.
fn scan_file(path: &str, source: &str) -> (Vec<(usize, &'static str, String)>, usize) {
    let mut mode = Mode::Code;
    let code: Vec<String> = source.lines().map(|l| strip_line(l, &mut mode)).collect();
    let in_test = test_mask(&code);
    let (exempt, mut findings, mut size) = (path == "crates/louvain/src/lib.rs", Vec::new(), 0);
    for ((i, line), raw) in code.iter().enumerate().zip(source.lines()) {
        if !in_test[i] {
            size += usize::from(!raw.trim().is_empty());
            let eps = if exempt { 0 } else { eps_literals(line) };
            for (rule, n) in [(D2, eps), (NARROWING, narrowing_casts(line))] {
                findings.extend(std::iter::repeat_n((i + 1, rule, line.clone()), n));
            }
        }
    }
    (findings, size)
}

/// Checks `files`, as (repo-relative path, source), against the rules and
/// `allowed`. Returns the size count and one error per unexcused finding
/// and per entry that does not excuse exactly one.
fn check(files: &[(String, String)], allowed: &[(&str, &str)]) -> (usize, Vec<String>) {
    let (mut size, mut errors, mut used) = (0, Vec::new(), vec![0; allowed.len()]);
    for (path, source) in files {
        let (findings, n) = scan_file(path, source);
        size += n;
        for (line, rule, code) in findings {
            match allowed
                .iter()
                .position(|&(p, item)| p == path && code.contains(item))
            {
                Some(entry) => used[entry] += 1,
                None => errors.push(format!("{path}:{line} {rule}: {}", code.trim())),
            }
        }
    }
    for (&(path, item), n) in allowed.iter().zip(used) {
        let error = format!("{path}: the entry `{item}` excuses {n} findings, not 1");
        errors.extend((n != 1).then_some(error));
    }
    (size, errors)
}

/// Appends every `.rs` file under `root/dir` outside [`SKIP_DIRS`], as
/// (path relative to `root`, source).
fn sources(root: &Path, dir: &str, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(root.join(dir)).expect("a readable directory") {
        let name = entry.expect("a readable entry").file_name();
        let name = name.to_string_lossy();
        let path = format!("{dir}/{name}");
        if root.join(&path).is_dir() && !SKIP_DIRS.contains(&name.as_ref()) {
            sources(root, &path, out);
        } else if name.ends_with(".rs") {
            let source = std::fs::read_to_string(root.join(&path)).expect("a readable file");
            out.push((path, source));
        }
    }
}

#[test]
fn workspace_sources_keep_the_rules() {
    let (root, mut files) = (Path::new(env!("CARGO_MANIFEST_DIR")), Vec::new());
    sources(root, "crates", &mut files);
    sources(root, "src", &mut files);
    files.sort();
    let (size, errors) = check(&files, ALLOWED);
    println!("source lines: {size}");
    assert!(errors.is_empty(), "source rules:\n{}", errors.join("\n"));
}

/// The 1-based line of each finding in `source`, read as a txallo-core file.
fn hit_lines(source: &str) -> Vec<usize> {
    let (findings, _) = scan_file("crates/core/src/x.rs", source);
    findings.iter().map(|f| f.0).collect()
}

/// One test per case: the findings in the source fall on exactly these lines.
macro_rules! hit_cases {
    ($($name:ident: $source:expr => $lines:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_eq!(hit_lines($source), $lines);
        }
    )*};
}

hit_cases! {
    d2_flags_small_literals_only: "let a = 1e-9 + 2.5E-10; let d = 1e-99999999999999999999;
let b = 1e-3 * 1e6 * 1e-8; let x1e = 3; let c = x1e-9;" => [1, 1, 1];
    d2_flags_small_positional_literals: r#"const EPS: f64 = 0.000_000_001; let a = 0.000_000_01;
let s = "0.000_000_001"; let b = 0.000000000_5 + x0.000_000_001 + 10.000_000_001;
let c = 0.0 + 0.000_000_001e3 + 0..100000000 + pair.0.0;"# => [1, 2];
    narrowing_flags_id_paths_only: "let a = nodes.len() as u32; let b = v.len() as NodeId;
let c = node_count() as u16 + account_idx as u8 + shard_id as u32;
let d = i as NodeId; let e = len as NodeIdx; let f = count as u64; let g = valid as u8;
let h = vec![0 as NodeId; n]; let j = 1_000 as NodeId + pair.0 as NodeId + (i + 1) as NodeId;"
        => [1, 1, 2, 2, 2, 3, 4, 4];
    strings_and_comments_are_blanked: r#"let s = "1e-12 nodes.len() as u32"; // 1e-12
let t = "a\" 1e-12"; 1e-12
let u = "a
1e-12"; 1e-12 // nodes.len() as u32"# => [2, 4];
    char_literals_and_lifetimes: r#"let q = ('"', '\'', '\"', '\n'); 1e-12
fn f<'a>(x: &'a str) -> &'a str { x } const A: f64 = 1e-12;
let c = 'x'; let s = "1e-12";"# => [1, 2];
    raw_strings_close_on_matching_hashes: r###"let t = r#"b " 1e-12"#;
let u = r##"c "# 1e-12"##; 1e-12
let v = br"d 1e-12"; 1e-12"### => [2, 3];
    block_comments_nest_and_span_lines: "/* a /* nested */ 1e-12
   nodes.len() as u32 */ let y = 2.5E-10;
/* 1e-12 */ 1e-12 /* 1e-12 */" => [2, 3];
    cfg_test_mod_is_masked: "#[cfg(test)]
#[allow(dead_code)]
mod t {
    const X: f64 = 1e-12;
    fn f() { let id = nodes.len() as u32; }
}
#[cfg(test)] mod u { const Z: f64 = 1e-12; }
const Y: f64 = 1e-9;" => [8];
    cfg_test_braceless_item_is_masked: "#[cfg(test)]
const T: f64 = 1e-12;
let id = nodes.len() as u32;
#[cfg(test)]
use c::{d, e};
const X: f64 = 1e-12;" => [3, 6];
    // A mix: rule text in code, and in a comment, a string and a test item.
    rules_read_code_but_not_comments_strings_or_test_items: r#"
const X: f64 = 1e-12; let id = nodes.len() as u32;
// const X: f64 = 1e-12; let id = nodes.len() as u32;
let s = "const X: f64 = 1e-12; let id = nodes.len() as u32;";
/* const X: f64 = 1e-12;
   let id = nodes.len() as u32; */ let y = 2.5E-10;
#[cfg(test)]
mod t {
    const X: f64 = 1e-12; let id = nodes.len() as u32;
}
const Y: f64 = 1e-9; let n = count as u64;"# => [2, 2, 6, 11];
}

#[test]
fn d2_exempts_gain_eps_home() {
    let home = |source: &str| scan_file("crates/louvain/src/lib.rs", source).0.len();
    assert_eq!(home("pub const GAIN_EPS: f64 = 1e-12;"), 0);
    assert_eq!(home("let id = nodes.len() as u32;"), 1, "narrowing applies");
    assert_eq!(hit_lines("pub const GAIN_EPS: f64 = 1e-12;"), [1]);
}

#[test]
fn size_counts_non_blank_lines_outside_test_items() {
    let source = "fn a() {}\n\n   \n// a\n#[cfg(test)]\nmod t {\n\n    fn b() {}\n}\nfn c() {}\n";
    assert_eq!(scan_file("crates/core/src/x.rs", source).1, 3);
}

/// The number of errors `check` gives with entries `items` on a file
/// holding two D2 findings, on lines `x = ` and `y = `.
fn allowlist_errors(items: &[&str]) -> usize {
    let files = [("x.rs".to_owned(), "x = 1e-12;\ny = 1e-9;".to_owned())];
    let allowed: Vec<_> = items.iter().map(|&item| ("x.rs", item)).collect();
    check(&files, &allowed).1.len()
}

#[test]
fn each_allowed_entry_excuses_exactly_one_finding() {
    assert_eq!(allowlist_errors(&["x =", "y ="]), 0);
    assert_eq!(allowlist_errors(&["x ="]), 1, "y is unexcused");
    assert_eq!(allowlist_errors(&[" = "]), 1, "an entry that excuses two");
}

#[test]
fn stale_allowed_entry_is_an_error() {
    assert_eq!(allowlist_errors(&["x =", "y =", "z ="]), 1);
    assert_eq!(allowlist_errors(&["z ="]), 3, "two unexcused, one stale");
}
