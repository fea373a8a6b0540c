//! The deterministic row partitioner behind the chunked CSR fill
//! ([`crate::CsrGraph`]), the only multi-threaded code in the workspace.
//!
//! The fill splits its rows into contiguous ranges decided up front from
//! the data alone (never from thread timing); each thread writes a
//! disjoint slice of the output, and the merge is by position, so the
//! snapshot is bit-identical to a serial fill at any chunk count.
//! [`entry_balanced_split`] is that canonical-range rule: contiguous row
//! ranges balanced by entry count, computed from a CSR offsets array.

/// Canonical row-range boundaries `[0, b₁, …, n]` with roughly equal
/// entry counts per chunk, computed from a CSR `offsets` array
/// (`offsets.len() == n + 1`, `offsets[n]` = total entries).
///
/// This is the `row_split` rule of the chunked CSR fill, extracted: the
/// split depends only on the offsets (data), never on scheduling, so the
/// same input always partitions the same way. Degenerate requests
/// (`chunks < 2`, fewer rows than chunks) collapse to the single serial
/// range `[0, n]`.
///
/// ```
/// use txallo_graph::par::entry_balanced_split;
/// // 4 rows with entry counts 5, 1, 5, 1.
/// let offsets = [0u32, 5, 6, 11, 12];
/// assert_eq!(entry_balanced_split(&offsets, 2), vec![0, 2, 4]);
/// assert_eq!(entry_balanced_split(&offsets, 1), vec![0, 4]);
/// ```
pub fn entry_balanced_split(offsets: &[u32], chunks: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    if chunks < 2 || n < chunks {
        return vec![0, n];
    }
    let entries = offsets[n] as usize;
    let per = entries.div_ceil(chunks).max(1);
    let mut bounds = vec![0usize];
    let mut next = per;
    for v in 0..n {
        if offsets[v + 1] as usize >= next && v + 1 < n {
            bounds.push(v + 1);
            next = offsets[v + 1] as usize + per;
        }
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_rows_and_balances_entries() {
        let offsets: Vec<u32> = vec![0, 50, 50, 60, 200, 210, 220, 400, 410, 420, 500];
        for chunks in [2usize, 3, 4] {
            let bounds = entry_balanced_split(&offsets, chunks);
            assert_eq!(*bounds.first().unwrap(), 0);
            assert_eq!(*bounds.last().unwrap(), 10);
            assert!(
                bounds.windows(2).all(|p| p[0] < p[1]),
                "strictly increasing"
            );
        }
        assert_eq!(entry_balanced_split(&offsets, 1), vec![0, 10]);
        assert_eq!(entry_balanced_split(&[0], 4), vec![0, 0], "empty");
        assert_eq!(
            entry_balanced_split(&[0, 1, 2], 5),
            vec![0, 2],
            "fewer rows than chunks"
        );
    }

    #[test]
    fn split_is_deterministic() {
        let offsets: Vec<u32> = (0..=257u32).map(|i| i * 3).collect();
        assert_eq!(
            entry_balanced_split(&offsets, 4),
            entry_balanced_split(&offsets, 4)
        );
    }
}
