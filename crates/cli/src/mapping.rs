//! Account→shard mapping file I/O: a `# shards,<k>` header, then
//! `account_id,shard` per line.

use std::io::{BufRead, Write};

use txallo_core::Allocation;
use txallo_graph::{fit_u32, TxGraph, WeightedGraph};

/// The first line of a mapping file, before the shard count `k`.
const HEADER: &str = "# shards,";

/// Writes an allocation as a `# shards,<k>` header and `account_id,shard`
/// rows.
pub fn write_mapping(
    graph: &TxGraph,
    allocation: &Allocation,
    mut out: impl Write,
) -> std::io::Result<()> {
    writeln!(out, "{HEADER}{}", allocation.shard_count())?;
    for v in 0..fit_u32(graph.node_count()) {
        writeln!(out, "{},{}", graph.account(v).0, allocation.shard_of(v).0)?;
    }
    Ok(())
}

/// Reads a mapping file back into an [`Allocation`] aligned with `graph`'s
/// node ids, with the shard count its header records (the labels alone
/// cannot tell it: the highest shards may hold no account). Accounts
/// present in the graph but absent from the file are an error (the
/// mapping must be complete), and so is a shard id outside `0..k`;
/// unknown accounts in the file are ignored with a warning count returned.
pub fn read_mapping(graph: &TxGraph, input: impl BufRead) -> Result<(Allocation, usize), String> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .transpose()
        .map_err(|e| format!("I/O error at line 1: {e}"))?
        .unwrap_or_default();
    let shards: usize = header
        .trim()
        .strip_prefix(HEADER)
        .ok_or_else(|| format!("line 1: expected the `{HEADER}<k>` header"))?
        .trim()
        .parse()
        .map_err(|e| format!("line 1: bad shard count: {e}"))?;
    let mut labels = vec![u32::MAX; graph.node_count()];
    let mut unknown = 0usize;
    for (idx, line) in lines.enumerate() {
        let lineno = idx + 2;
        let line = line.map_err(|e| format!("I/O error at line {lineno}: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (acct, shard) = trimmed
            .split_once(',')
            .ok_or_else(|| format!("line {lineno}: expected account,shard"))?;
        let acct: u64 = acct
            .trim()
            .parse()
            .map_err(|e| format!("line {lineno}: bad account: {e}"))?;
        let shard: u32 = shard
            .trim()
            .parse()
            .map_err(|e| format!("line {lineno}: bad shard: {e}"))?;
        if shard as usize >= shards {
            return Err(format!(
                "line {lineno}: shard {shard} is out of range for {shards} shards"
            ));
        }
        match graph.node_of(txallo_model::AccountId(acct)) {
            Some(node) => labels[node as usize] = shard,
            None => unknown += 1,
        }
    }
    if let Some(v) = labels.iter().position(|&l| l == u32::MAX) {
        return Err(format!(
            "mapping is incomplete: account {} has no shard",
            graph.account(v as u32)
        ));
    }
    Ok((Allocation::new(labels, shards), unknown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use txallo_model::{AccountId, Transaction};

    fn graph() -> TxGraph {
        let mut g = TxGraph::new();
        g.ingest_transaction(&Transaction::transfer(AccountId(10), AccountId(20)));
        g.ingest_transaction(&Transaction::transfer(AccountId(20), AccountId(30)));
        g
    }

    #[test]
    fn roundtrip() {
        let g = graph();
        // Shards 2 and 3 hold no account: only the header can tell k.
        let alloc = Allocation::new(vec![0, 1, 1], 4);
        let mut buf = Vec::new();
        write_mapping(&g, &alloc, &mut buf).unwrap();
        assert!(buf.starts_with(b"# shards,4\n"));
        let (back, unknown) = read_mapping(&g, BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.labels(), alloc.labels());
        assert_eq!(back.shard_count(), 4);
        assert_eq!(unknown, 0);
    }

    #[test]
    fn unknown_accounts_are_counted() {
        let g = graph();
        let text = "# shards,2\n10,0\n20,1\n30,0\n999,1\n";
        let (alloc, unknown) = read_mapping(&g, BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(unknown, 1);
        assert_eq!(alloc.len(), 3);
    }

    #[test]
    fn incomplete_mapping_is_an_error() {
        let g = graph();
        let text = "# shards,2\n10,0\n20,1\n";
        assert!(read_mapping(&g, BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn malformed_lines_are_errors() {
        let g = graph();
        let read = |text: &str| read_mapping(&g, BufReader::new(text.as_bytes())).map(|_| ());
        assert!(read("# shards,2\n10;0\n").is_err());
        assert!(read("# shards,2\nx,0\n").is_err());
        assert!(read("# shards,2\n10,y\n").is_err());
        // The header is required, and its k bounds every shard id.
        assert!(read("10,0\n20,1\n30,0\n").is_err());
        assert!(read("# shards,0\n").is_err());
        assert_eq!(
            read("# shards,2\n10,0\n20,2\n30,0\n"),
            Err("line 3: shard 2 is out of range for 2 shards".into())
        );
    }
}
