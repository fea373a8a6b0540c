//@ path: crates/workload/src/fixture_narrow.rs
// Fixture: no-narrowing-as — silent `as` truncation on id/count-shaped
// values.

fn trigger(items: &[u64]) -> u32 {
    let next_id = items.len() as u32;
    //~^ no-narrowing-as
    next_id
}

fn trigger_count(account_count: usize) -> u16 {
    account_count as u16
    //~^ no-narrowing-as
}

fn trigger_node_id(nodes: &[u64]) -> NodeId {
    // `NodeId` is the `u32` alias: the same silent truncation.
    nodes.len() as NodeId
    //~^ no-narrowing-as
}

fn trigger_node_id_range(node_count: usize) -> Vec<NodeId> {
    (0..node_count as NodeId).collect()
    //~^ no-narrowing-as
}

fn suppressed_node_id(len: usize) -> NodeId {
    len as NodeId // txallo-lint: allow(no-narrowing-as) — len < MAX_ACCOUNTS ≤ u32::MAX, checked by the caller
    //~^ SUPPRESSED no-narrowing-as
}

fn negative_node_id_non_id(i: usize) -> NodeId {
    // An identifier that is not id/count-shaped is not on the checked path.
    i as NodeId
}

fn suppressed(nodes: &[u64]) -> u32 {
    nodes.len() as u32 // txallo-lint: allow(no-narrowing-as) — bounded by the interner's u32 id-space cap
    //~^ SUPPRESSED no-narrowing-as
}

fn negative_widening(mask: u32) -> u64 {
    // Widening casts cannot truncate — no finding.
    mask as u64
}

fn negative_non_id(ratio: f64) -> u32 {
    // Only id/count-shaped identifiers are on the checked path.
    ratio as u32
}
