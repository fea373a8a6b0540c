//! Property-based tests of workload generation and trace I/O.

use proptest::prelude::*;
use std::io::BufReader;
use txallo_workload::{
    read_ledger_csv, write_ledger_csv, StreamingWorkload, WorkloadConfig, ZipfTable,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (validated) configuration yields a well-formed ledger: right
    /// block count/size, contiguous heights, all transactions valid.
    #[test]
    fn generator_is_well_formed(
        accounts in 100usize..2_000,
        block_size in 10usize..200,
        groups in 2usize..50,
        intra in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let config = WorkloadConfig {
            accounts,
            transactions: block_size * 10,
            block_size,
            groups,
            intra_group_prob: intra,
            ..WorkloadConfig::default()
        };
        config.validate();
        let ledger = StreamingWorkload::new(config, seed).ledger(10);
        prop_assert_eq!(ledger.block_count(), 10);
        for (i, b) in ledger.blocks().iter().enumerate() {
            prop_assert_eq!(b.height(), i as u64);
            prop_assert_eq!(b.len(), block_size);
        }
        for tx in ledger.transactions() {
            prop_assert!(!tx.inputs().is_empty() && !tx.outputs().is_empty());
            prop_assert!(tx.account_count() >= 1);
        }
    }

    /// The CSV round trip is lossless for generated traces of any shape.
    #[test]
    fn csv_roundtrip_lossless(seed in any::<u64>(), multi in 0.0f64..0.5) {
        let config = WorkloadConfig {
            accounts: 300,
            transactions: 2_000,
            block_size: 50,
            groups: 10,
            multi_io_prob: multi,
            ..WorkloadConfig::default()
        };
        let ledger = StreamingWorkload::new(config, seed).ledger(8);
        let mut buf = Vec::new();
        write_ledger_csv(&ledger, &mut buf).unwrap();
        let back = read_ledger_csv(BufReader::new(buf.as_slice())).unwrap();
        prop_assert_eq!(back.transaction_count(), ledger.transaction_count());
        prop_assert_eq!(back.block_count(), ledger.block_count());
        for (a, b) in ledger.transactions().zip(back.transactions()) {
            prop_assert_eq!(a, b);
        }
    }

    /// Zipf tables: probabilities sum to 1, are non-increasing in rank,
    /// and every uniform point maps to a rank in range.
    #[test]
    fn zipf_table_properties(
        n in 1usize..500,
        s in 0.0f64..3.0,
        points in prop::collection::vec(0.0f64..1.0, 50),
    ) {
        let t = ZipfTable::new(n, s);
        prop_assert_eq!(t.len(), n);
        let total: f64 = (0..n).map(|r| t.probability(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for r in 1..n {
            prop_assert!(t.probability(r) <= t.probability(r - 1) + 1e-12);
        }
        for x in points {
            prop_assert!(t.sample_at(x) < n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The streaming workload is a pure function of `(config, seed,
    /// height)`: any epoch regenerated in isolation — even out of order —
    /// is the exact slice of the contiguous stream, and the lazy iterator
    /// is the materialized range. This is the out-of-core replay
    /// guarantee: no epoch's blocks depend on having generated any other.
    #[test]
    fn streaming_epochs_regenerate_bit_identically(
        seed in any::<u64>(),
        accounts in 200usize..1_500,
        groups in 2usize..40,
        epoch_blocks in 1u64..8,
    ) {
        let config = WorkloadConfig {
            accounts,
            transactions: 4_000,
            block_size: 40,
            groups,
            ..WorkloadConfig::default()
        };
        let w = StreamingWorkload::new(config, seed);
        let all = w.blocks(0..4 * epoch_blocks);
        for epoch in (0..4u64).rev() {
            let chunk = w.epoch_blocks(epoch, epoch_blocks);
            let s = (epoch * epoch_blocks) as usize;
            prop_assert_eq!(&chunk[..], &all[s..s + epoch_blocks as usize]);
        }
        let lazy: Vec<_> = w.block_iter(0..all.len() as u64).collect();
        prop_assert_eq!(lazy, all);
    }
}
