//! The lint rules, each mapped to a determinism-contract rule
//! (ARCHITECTURE.md §Determinism contract, D1–D5) or a safety-hygiene
//! policy. All checks run on the comment-stripped, string-blanked code
//! channel of [`FileView`] and skip `#[cfg(test)]` regions.
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
        id: "D1-hash-iteration",
        summary: "no hash-container iteration in sweep/kernel crates (lookups fine, traversal order is not canonical)",
        contract: "D1 canonical sweep order",
        check: d1_hash_iteration,
    },
    Rule {
        id: "D2-eps-literal",
        summary: "no ad-hoc epsilon literals (<= 1e-9); tie-breaking tolerance is txallo_louvain::GAIN_EPS",
        contract: "D2 GAIN_EPS tie-breaking",
        check: d2_eps_literal,
    },
    Rule {
        id: "D5-adhoc-reduction",
        summary: "no ad-hoc float folds over per-chunk/per-worker partials; fold serially in canonical order",
        contract: "D5 parallel reduction",
        check: d5_adhoc_reduction,
    },
    Rule {
        id: "no-unstable-float-sort",
        summary: "no sort_unstable with a float comparator and no integer tie-break, nor with a key closure that drops part of the element (equal keys scramble)",
        contract: "D2 GAIN_EPS tie-breaking",
        check: no_unstable_float_sort,
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

fn find_token(hay: &str, needle: &str) -> Option<usize> {
    find_token_from(hay, needle, 0)
}

fn has_token(hay: &str, needle: &str) -> bool {
    find_token(hay, needle).is_some()
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

/// The identifier starting at byte offset `start`, if any.
fn ident_starting_at(line: &str, start: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut end = start;
    while end < bytes.len() && is_ident_byte(bytes[end]) {
        end += 1;
    }
    if end == start {
        None
    } else {
        line.get(start..end)
    }
}

/// Path prefix test on the normalized repo-relative path.
fn in_scope(view: &FileView, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| view.path.starts_with(p))
}

// ------------------------------------------------------------------ rules

/// Crates whose modules are sweep/kernel code for D1 purposes: the whole
/// allocation stack. Ingestion-side crates (model, workload) and the
/// consensus substrate canonicalize by collect-and-sort, which is fine
/// anywhere; inside the kernel even that needs an explicit suppression so
/// the exception is auditable.
const KERNEL_PREFIXES: &[&str] = &[
    "crates/graph/src",
    "crates/louvain/src",
    "crates/metis/src",
    "crates/core/src",
];

/// Methods whose call on a hash container exposes traversal order.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

fn d1_hash_iteration(view: &FileView, out: &mut Vec<RawFinding>) {
    if !in_scope(view, KERNEL_PREFIXES) {
        return;
    }
    let symbols = hash_bound_symbols(view);
    if symbols.is_empty() {
        return;
    }
    for (lineno, code) in code_lines(view) {
        // `for pat in <expr>` where <expr> resolves to a hash binding.
        if let Some(name) = for_loop_target(code) {
            if symbols.contains(&name) && !declares_hash_binding(code, &name) {
                out.push((
                    lineno,
                    "D1-hash-iteration",
                    format!(
                        "`for` over hash container `{name}` — traversal order is not canonical \
                         (collect-and-sort outside the kernel, or use a dense/sorted structure)"
                    ),
                ));
                continue;
            }
        }
        for method in ITER_METHODS {
            let mut from = 0;
            while let Some(at) = find_token_from(code, method, from) {
                from = at + 1;
                let Some(recv) = ident_ending_at(code, at) else {
                    continue;
                };
                let recv = recv.to_owned();
                if symbols.contains(&recv) && !declares_hash_binding(code, &recv) {
                    out.push((
                        lineno,
                        "D1-hash-iteration",
                        format!(
                            "`{recv}{}` iterates a hash container — traversal order is not \
                             canonical (collect-and-sort outside the kernel, or use a \
                             dense/sorted structure)",
                            method.trim_end_matches('(')
                        ),
                    ));
                }
            }
        }
    }
}

/// Collect identifiers bound to hash-container types anywhere in the
/// file's non-test code: type annotations (`name: FxHashMap<...>`, struct
/// fields, fn/closure params) and constructor lets
/// (`let name = FxHashMap::default()`).
fn hash_bound_symbols(view: &FileView) -> std::collections::BTreeSet<String> {
    let mut symbols = std::collections::BTreeSet::new();
    for (_, code) in code_lines(view) {
        for ty in ["FxHashMap", "FxHashSet", "HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(at) = find_token_from(code, ty, from) {
                from = at + 1;
                let ty_start = at;
                let after = at + ty.len();
                let bytes = code.as_bytes();
                if bytes.get(after) == Some(&b'<') {
                    // Annotation form: walk left over path segments, `&`,
                    // `mut`, whitespace to the `:` then the name.
                    if let Some(name) = annotated_name(code, ty_start) {
                        symbols.insert(name);
                    }
                } else if code[after..].starts_with("::") {
                    // Constructor form on a let line.
                    if let Some(name) = let_binding_name(code) {
                        symbols.insert(name);
                    }
                }
            }
        }
    }
    symbols
}

/// For `... name: [&][mut] [path::]Type` with `Type` starting at
/// `ty_start`, extract `name`.
fn annotated_name(code: &str, ty_start: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = ty_start;
    // Walk left over `path::` segments feeding the type.
    loop {
        while i > 0 && bytes[i - 1] == b' ' {
            i -= 1;
        }
        if i >= 2 && &code[i - 2..i] == "::" {
            i -= 2;
            let seg = ident_ending_at(code, i)?;
            i -= seg.len();
            continue;
        }
        break;
    }
    // Optional `&`, `&&`, `mut`.
    loop {
        while i > 0 && (bytes[i - 1] == b' ' || bytes[i - 1] == b'&') {
            i -= 1;
        }
        if code[..i].ends_with("mut") {
            i -= 3;
            continue;
        }
        break;
    }
    if i == 0 || bytes[i - 1] != b':' {
        return None;
    }
    i -= 1;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    ident_ending_at(code, i).map(str::to_owned)
}

/// The `name` of a `let [mut] name` binding on this line, if any.
fn let_binding_name(code: &str) -> Option<String> {
    let at = find_token(code, "let")?;
    let mut i = at + 3;
    let bytes = code.as_bytes();
    while bytes.get(i) == Some(&b' ') {
        i += 1;
    }
    if code[i..].starts_with("mut ") {
        i += 4;
        while bytes.get(i) == Some(&b' ') {
            i += 1;
        }
    }
    ident_starting_at(code, i).map(str::to_owned)
}

/// True when this line `let`-binds `name` itself to a hash type — the
/// conversion-*into*-a-hash-container idiom
/// (`let set: FxHashSet<_> = set.into_iter().collect()`), which consumes
/// an ordered source and exposes no traversal order.
fn declares_hash_binding(code: &str, name: &str) -> bool {
    let Some(eq) = code.find('=') else {
        return false;
    };
    let lhs = &code[..eq];
    (lhs.contains("HashMap") || lhs.contains("HashSet"))
        && let_binding_name(lhs).as_deref() == Some(name)
}

/// For `for pat in <expr> {`, the trailing identifier of `<expr>` when the
/// expression is a plain (possibly `&`/`mut`/`self.`-prefixed) binding.
fn for_loop_target(code: &str) -> Option<String> {
    let f = find_token(code, "for")?;
    let in_at = find_token_from(code, "in", f + 3)?;
    let mut expr = code[in_at + 2..].trim();
    if let Some(stripped) = expr.strip_suffix('{') {
        expr = stripped.trim_end();
    }
    loop {
        if let Some(s) = expr.strip_prefix('&') {
            expr = s.trim_start();
            continue;
        }
        if let Some(s) = expr.strip_prefix("mut ") {
            expr = s.trim_start();
            continue;
        }
        if let Some(s) = expr.strip_prefix("self.") {
            expr = s;
            continue;
        }
        break;
    }
    if !expr.is_empty() && expr.bytes().all(is_ident_byte) {
        Some(expr.to_owned())
    } else {
        None
    }
}

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

/// Identifier fragments marking a value as per-chunk/per-worker output of
/// a parallel phase — the inputs whose fold order would depend on the
/// chunk shape if combined with floats outside the canonical tree.
const PARTIAL_FRAGMENTS: &[&str] = &[
    "partial", "partials", "chunk", "chunks", "chunked", "worker", "workers", "stage", "stages",
    "shard", "shards",
];

/// Iterator adapters that fold a stream into one value.
const REDUCER_TOKENS: &[&str] = &[".sum(", ".sum::<", ".product(", ".product::<", ".fold("];

fn d5_adhoc_reduction(view: &FileView, out: &mut Vec<RawFinding>) {
    if !in_scope(view, KERNEL_PREFIXES) {
        return;
    }
    for (lineno, code) in code_lines(view) {
        let Some(reducer) = REDUCER_TOKENS.iter().find(|t| code.contains(*t)) else {
            continue;
        };
        // Assemble the full statement. Reducers end dotted chains, so the
        // receiver is usually on an *earlier* line: walk back to the
        // statement head first, then forward to the `;`.
        let mut start = lineno - 1;
        while start > 0 && lineno - start < 11 {
            let prev = view.code[start - 1].trim_end();
            if view.in_test[start - 1]
                || prev.is_empty()
                || prev.ends_with(';')
                || prev.ends_with('{')
                || prev.ends_with('}')
            {
                break;
            }
            start -= 1;
        }
        let mut stmt = String::new();
        let mut i = start;
        loop {
            if view.in_test[i] {
                break;
            }
            stmt.push_str(&view.code[i]);
            stmt.push(' ');
            if view.code[i].contains(';') || i + 1 >= view.len() || i >= lineno + 11 {
                break;
            }
            i += 1;
        }
        let floaty = ["f64", "f32"].iter().any(|t| has_token(&stmt, t)) || stmt.contains("0.0");
        if !floaty {
            continue; // integer folds are exact in any order
        }
        let over_partials = stmt
            .split(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
            .any(|word| {
                word.split('_')
                    .any(|seg| PARTIAL_FRAGMENTS.contains(&seg.to_ascii_lowercase().as_str()))
            });
        if over_partials {
            out.push((
                lineno,
                "D5-adhoc-reduction",
                format!(
                    "float `{}..)` over per-chunk partials — a cross-chunk float fold's \
                     bits depend on the chunk shape; fold serially in canonical order \
                     instead (D5)",
                    reducer.trim_end_matches(['(', ':', '<'])
                ),
            ));
        }
    }
}

fn no_unstable_float_sort(view: &FileView, out: &mut Vec<RawFinding>) {
    for (lineno, code) in code_lines(view) {
        // Plain substring: `sort_unstable` must also match the `_by` and
        // `_by_key` variants (string contents are already blanked).
        if !code.contains("sort_unstable") {
            continue;
        }
        // Assemble the full statement (comparators often span lines).
        let mut stmt = String::new();
        let mut i = lineno - 1;
        loop {
            if view.in_test[i] {
                break;
            }
            stmt.push_str(&view.code[i]);
            stmt.push(' ');
            if view.code[i].contains(';') || i + 1 >= view.len() || i >= lineno + 11 {
                break;
            }
            i += 1;
        }
        let floaty = ["partial_cmp", "total_cmp", "f64", "f32"]
            .iter()
            .any(|t| has_token(&stmt, t));
        let tie_broken = stmt.contains(".then");
        if floaty && !tie_broken {
            out.push((
                lineno,
                "no-unstable-float-sort",
                "sort_unstable with a float comparator and no `.then(..)` integer \
                 tie-break — equal keys scramble, so the order is not reproducible \
                 across platforms/toolchains (the PR 5 Louvain aggregation bug)"
                    .to_owned(),
            ));
        } else if key_drops_payload(&stmt) {
            out.push((
                lineno,
                "no-unstable-float-sort",
                "sort_unstable_by_key whose key closure drops part of the element \
                 — equal keys reorder the dropped payload in whatever order the \
                 std sort leaves them (a later float sum over it then depends on \
                 the toolchain); sort stably, key on the whole element, or show \
                 the keys are unique"
                    .to_owned(),
            ));
        }
    }
}

/// Whether an unstable keyed sort's key closure drops part of the
/// element: its parameter pattern ignores a component (`|&(u, _)| u`,
/// `|&(u, _w)| u`, `|(u, ..)| u`). Equal keys then leave the ignored
/// payload in an order the standard library does not specify.
fn key_drops_payload(stmt: &str) -> bool {
    const CALL: &str = "sort_unstable_by_key(";
    let Some(at) = stmt.find(CALL) else {
        return false;
    };
    let Some(params) = stmt[at + CALL.len()..].trim_start().strip_prefix('|') else {
        return false;
    };
    let Some(end) = params.find('|') else {
        return false;
    };
    let pattern = &params[..end];
    pattern.contains("..")
        || pattern
            .split(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
            .any(|ident| ident.starts_with('_'))
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
    fn d1_flags_for_loop_over_map_in_kernel() {
        let src = "fn f() {\n    let mut gain: FxHashMap<u32, f64> = FxHashMap::default();\n    for (k, v) in &gain {\n    }\n}";
        let hits = run_rule("D1-hash-iteration", "crates/metis/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 3);
    }

    #[test]
    fn d1_allows_lookups_and_out_of_scope() {
        let src = "fn f(m: &FxHashMap<u32, f64>) -> Option<&f64> { m.get(&1) }";
        assert!(run_rule("D1-hash-iteration", "crates/core/src/x.rs", src).is_empty());
        let iter = "fn f() { let mut s: FxHashSet<u32> = FxHashSet::default(); for x in &s {} }";
        assert!(run_rule("D1-hash-iteration", "crates/chain/src/x.rs", iter).is_empty());
    }

    #[test]
    fn d1_skips_conversion_into_hash() {
        let src = "fn f(v: Vec<u32>) {\n    let masked: FxHashSet<u32> = masked.into_iter().collect();\n}";
        assert!(run_rule("D1-hash-iteration", "crates/core/src/x.rs", src).is_empty());
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
    fn adhoc_reduction_flags_float_folds_over_partials() {
        let bad = "let total: f64 = partials.iter().sum();";
        assert_eq!(
            run_rule("D5-adhoc-reduction", "crates/core/src/x.rs", bad).len(),
            1
        );
        let bad_fold = "let t = chunk_sums.iter().fold(0.0, |a, b| a + b);";
        assert_eq!(
            run_rule("D5-adhoc-reduction", "crates/louvain/src/x.rs", bad_fold).len(),
            1
        );
        let multiline = "let total = worker_gains\n    .iter()\n    .fold(0.0, |acc, g| acc + g);";
        assert_eq!(
            run_rule("D5-adhoc-reduction", "crates/metis/src/x.rs", multiline).len(),
            1
        );
    }

    #[test]
    fn adhoc_reduction_allows_sanctioned_and_exact_folds() {
        // Integer folds are exact in any order.
        let ints = "let n: usize = chunk_counts.iter().sum();";
        assert!(run_rule("D5-adhoc-reduction", "crates/core/src/x.rs", ints).is_empty());
        // Float folds over non-chunk data are ordinary serial code.
        let serial = "let m: f64 = weights.iter().sum();";
        assert!(run_rule("D5-adhoc-reduction", "crates/core/src/x.rs", serial).is_empty());
        // Out of kernel scope.
        assert!(run_rule("D5-adhoc-reduction", "crates/chain/src/x.rs", bad()).is_empty());
        // No kernel file and no combiner name is exempt.
        assert_eq!(
            run_rule("D5-adhoc-reduction", "crates/graph/src/par.rs", bad()).len(),
            1
        );
        let named = "let total: f64 = reduce_tree(partials, |a, b| a + b).iter().sum();";
        assert_eq!(
            run_rule("D5-adhoc-reduction", "crates/core/src/x.rs", named).len(),
            1
        );
    }

    fn bad() -> &'static str {
        "let total: f64 = partials.iter().sum();"
    }

    #[test]
    fn float_sort_needs_tiebreak() {
        let bad = "v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());";
        assert_eq!(
            run_rule("no-unstable-float-sort", "crates/core/src/x.rs", bad).len(),
            1
        );
        let good = "v.sort_unstable_by(|&a, &b| w[a].partial_cmp(&w[b]).unwrap().then(a.cmp(&b)));";
        assert!(run_rule("no-unstable-float-sort", "crates/core/src/x.rs", good).is_empty());
        let ints = "v.sort_unstable();";
        assert!(run_rule("no-unstable-float-sort", "crates/core/src/x.rs", ints).is_empty());
    }

    #[test]
    fn keyed_sort_that_drops_payload_is_flagged() {
        for bad in [
            "row.sort_unstable_by_key(|&(u, _)| u);",
            "row.sort_unstable_by_key(|&(u, _w)| u);",
            "row.sort_unstable_by_key(|(u, ..)| *u);",
            "row.sort_unstable_by_key(\n    |&(u, _)| u,\n);",
        ] {
            assert_eq!(
                run_rule("no-unstable-float-sort", "crates/graph/src/x.rs", bad).len(),
                1,
                "{bad}"
            );
        }
        for good in [
            // Stable: equal keys keep their input order.
            "row.sort_by_key(|&(u, _)| u);",
            // The key is the whole element.
            "ids.sort_unstable_by_key(|&v| mix(v));",
            "row.sort_unstable_by_key(|&(u, w)| (u, w.to_bits()));",
            // A wildcard in the body, not the pattern.
            "ids.sort_unstable_by_key(|&v| match v { 0 => 1, _ => 0 });",
        ] {
            assert!(
                run_rule("no-unstable-float-sort", "crates/graph/src/x.rs", good).is_empty(),
                "{good}"
            );
        }
    }

    #[test]
    fn narrowing_flags_id_paths_only() {
        let src = "let a = node_count() as u32;\nlet b = shards as u32;\nlet c = v.len() as u32;\n\
                   let d = v.len() as NodeId;\nlet e = i as NodeId;\nlet f = len as NodeIdx;";
        let hits = run_rule("no-narrowing-as", "crates/core/src/x.rs", src);
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![1, 3, 4]);
    }
}
