//@ path: crates/graph/src/fixture_partial_key_sort.rs
// Fixture: no-unstable-float-sort, keyed form — an unstable sort whose key
// closure drops part of the element leaves equal-key payloads in an order
// the standard library does not specify (the METIS coarsening hazard).

fn trigger_merge(row: &mut Vec<(u32, f64)>) {
    row.sort_unstable_by_key(|&(u, _)| u);
    //~^ no-unstable-float-sort
}

fn trigger_named_unused(row: &mut Vec<(u32, f64)>) {
    row.sort_unstable_by_key(|&(u, _w)| u);
    //~^ no-unstable-float-sort
}

fn trigger_rest(rows: &mut Vec<(u32, u32, f64)>) {
    rows.sort_unstable_by_key(|&(u, ..)| u);
    //~^ no-unstable-float-sort
}

fn suppressed_unique_keys(pairs: &mut Vec<(u32, u32)>) {
    // txallo-lint: allow(no-unstable-float-sort) — the keys are distinct node ids, so no two elements compare equal
    pairs.sort_unstable_by_key(|&(v, _)| v);
    //~^ SUPPRESSED no-unstable-float-sort
}

fn negative_stable(row: &mut Vec<(u32, f64)>) {
    // A stable sort keeps equal keys in input order — no finding.
    row.sort_by_key(|&(u, _)| u);
}

fn negative_whole_element(row: &mut Vec<(u32, u32)>) {
    // The key is the whole element — no finding.
    row.sort_unstable_by_key(|&(u, v)| (u, v));
}
