//! A ledger together with its transaction graph.

use txallo_graph::TxGraph;
use txallo_model::Ledger;

/// The input of a batch allocation ([`crate::AllocatorRegistry::allocate`]):
/// the historical ledger and the transaction graph built from it.
///
/// Graph-based allocators (TxAllo, METIS, hash) read the graph; the
/// transaction-level [`crate::ShardScheduler`] replays the ledger. Keeping
/// both in one struct guarantees they describe the same history.
#[derive(Debug, Clone)]
pub struct Dataset {
    ledger: Ledger,
    graph: TxGraph,
}

impl Dataset {
    /// Builds the dataset (and its graph) from a ledger.
    pub fn from_ledger(ledger: Ledger) -> Self {
        let graph = TxGraph::from_ledger(&ledger);
        Self { ledger, graph }
    }

    /// Builds from pre-computed parts.
    ///
    /// The caller must guarantee `graph` was built from `ledger`; the
    /// constructor checks the cheap invariant (transaction counts match).
    pub fn from_parts(ledger: Ledger, graph: TxGraph) -> Self {
        assert_eq!(
            ledger.transaction_count(),
            graph.transaction_count(),
            "graph does not match ledger"
        );
        Self { ledger, graph }
    }

    /// The historical ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The transaction graph.
    pub fn graph(&self) -> &TxGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_graph::WeightedGraph;
    use txallo_model::{AccountId, Block, Transaction};

    #[test]
    fn from_ledger_builds_matching_graph() {
        let ledger = Ledger::from_blocks(vec![Block::new(
            0,
            vec![
                Transaction::transfer(AccountId(1), AccountId(2)),
                Transaction::transfer(AccountId(2), AccountId(3)),
            ],
        )])
        .unwrap();
        let ds = Dataset::from_ledger(ledger);
        assert_eq!(ds.graph().transaction_count(), 2);
        assert_eq!(ds.graph().node_count(), 3);
        assert_eq!(ds.ledger().transaction_count(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_parts_panic() {
        let ledger = Ledger::from_blocks(vec![Block::new(
            0,
            vec![Transaction::transfer(AccountId(1), AccountId(2))],
        )])
        .unwrap();
        let _ = Dataset::from_parts(ledger, TxGraph::new());
    }
}
