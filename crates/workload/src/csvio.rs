//! Minimal CSV trace format for replaying real exports.
//!
//! One transaction per line:
//! `block_height,in1|in2|…,out1|out2|…` with decimal account ids.
//! The format maps 1:1 onto what an Ethereum-ETL export reduces to once
//! values/gas/scripts are dropped (§III-A keeps only the account sets).

use std::fmt;
use std::io::{BufRead, Write};

use txallo_model::{AccountId, Block, Ledger, Transaction};

/// Errors raised while parsing a CSV trace.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (missing fields / bad number), with its 1-based
    /// line number.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::Malformed { line, reason } => {
                write!(f, "malformed trace line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes `ledger` in the CSV trace format.
pub fn write_ledger_csv(ledger: &Ledger, mut out: impl Write) -> Result<(), CsvError> {
    for block in ledger.blocks() {
        for tx in block.transactions() {
            let ins: Vec<String> = tx.inputs().iter().map(|a| a.0.to_string()).collect();
            let outs: Vec<String> = tx.outputs().iter().map(|a| a.0.to_string()).collect();
            writeln!(
                out,
                "{},{},{}",
                block.height(),
                ins.join("|"),
                outs.join("|")
            )?;
        }
    }
    Ok(())
}

fn parse_accounts(field: &str, line: usize) -> Result<Vec<AccountId>, CsvError> {
    if field.is_empty() {
        return Err(CsvError::Malformed {
            line,
            reason: "empty account list".into(),
        });
    }
    field
        .split('|')
        .map(|tok| {
            tok.parse::<u64>()
                .map(AccountId)
                .map_err(|e| CsvError::Malformed {
                    line,
                    reason: format!("bad account id {tok:?}: {e}"),
                })
        })
        .collect()
}

/// Reads a ledger from the CSV trace format. Transactions must appear in
/// block order; consecutive rows with the same height form one block.
/// Gaps in heights are tolerated by renumbering blocks contiguously
/// (real exports often skip empty blocks).
pub fn read_ledger_csv(input: impl BufRead) -> Result<Ledger, CsvError> {
    let mut blocks: Vec<Block> = Vec::new();
    let mut current_height: Option<u64> = None;
    let mut current_txs: Vec<Transaction> = Vec::new();

    for (idx, line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.splitn(3, ',');
        let height: u64 = fields
            .next()
            .ok_or_else(|| CsvError::Malformed {
                line: line_no,
                reason: "missing height".into(),
            })?
            .parse()
            .map_err(|e| CsvError::Malformed {
                line: line_no,
                reason: format!("bad height: {e}"),
            })?;
        let ins = parse_accounts(
            fields.next().ok_or_else(|| CsvError::Malformed {
                line: line_no,
                reason: "missing inputs".into(),
            })?,
            line_no,
        )?;
        let outs = parse_accounts(
            fields.next().ok_or_else(|| CsvError::Malformed {
                line: line_no,
                reason: "missing outputs".into(),
            })?,
            line_no,
        )?;
        let tx = Transaction::new(ins, outs).map_err(|e| CsvError::Malformed {
            line: line_no,
            reason: e.to_string(),
        })?;

        match current_height {
            Some(h) if h == height => current_txs.push(tx),
            Some(h) if height < h => {
                return Err(CsvError::Malformed {
                    line: line_no,
                    reason: format!("heights must be non-decreasing ({height} after {h})"),
                });
            }
            Some(_) => {
                blocks.push(Block::new(
                    blocks.len() as u64,
                    std::mem::take(&mut current_txs),
                ));
                current_height = Some(height);
                current_txs.push(tx);
            }
            None => {
                current_height = Some(height);
                current_txs.push(tx);
            }
        }
    }
    if !current_txs.is_empty() {
        blocks.push(Block::new(blocks.len() as u64, current_txs));
    }
    Ledger::from_blocks(blocks).map_err(|e| CsvError::Malformed {
        line: 0,
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamingWorkload, WorkloadConfig};
    use std::io::BufReader;

    #[test]
    fn roundtrip_preserves_transactions() {
        let cfg = WorkloadConfig {
            accounts: 500,
            multi_io_prob: 0.3,
            ..WorkloadConfig::default()
        };
        let ledger = StreamingWorkload::new(cfg, 8).ledger(5);
        let mut buf = Vec::new();
        write_ledger_csv(&ledger, &mut buf).unwrap();
        let back = read_ledger_csv(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.transaction_count(), ledger.transaction_count());
        for (a, b) in ledger.transactions().zip(back.transactions()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn parses_comments_and_gaps() {
        let text = "# comment\n5,1,2\n5,2|3,4\n\n9,7,8\n";
        let ledger = read_ledger_csv(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(ledger.block_count(), 2, "two distinct heights");
        assert_eq!(ledger.transaction_count(), 3);
        assert_eq!(ledger.blocks()[0].len(), 2);
    }

    #[test]
    fn rejects_bad_ids_and_order() {
        let bad_id = "0,xyz,2\n";
        assert!(matches!(
            read_ledger_csv(BufReader::new(bad_id.as_bytes())),
            Err(CsvError::Malformed { line: 1, .. })
        ));
        let bad_order = "5,1,2\n3,1,2\n";
        assert!(read_ledger_csv(BufReader::new(bad_order.as_bytes())).is_err());
        let empty_field = "1,,2\n";
        assert!(read_ledger_csv(BufReader::new(empty_field.as_bytes())).is_err());
    }

    #[test]
    fn empty_input_gives_empty_ledger() {
        let ledger = read_ledger_csv(BufReader::new("".as_bytes())).unwrap();
        assert_eq!(ledger.block_count(), 0);
    }
}
