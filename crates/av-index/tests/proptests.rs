//! Property-based tests for index invariants on arbitrary synthetic columns.

use av_corpus::{Column, ColumnMeta};
use av_index::{IndexConfig, PatternIndex};
use av_match::CatalogMatcher;
use proptest::prelude::*;

fn value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9:/._-]{0,12}").expect("valid regex")
}

fn column(id: usize, values: Vec<String>) -> Column {
    Column {
        name: format!("c{id}"),
        values,
        meta: ColumnMeta::machine("prop", None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any corpus: FPRs live in [0,1], coverage never exceeds the
    /// column count, token lengths are consistent, and serialization
    /// round-trips.
    #[test]
    fn index_invariants(
        cols in proptest::collection::vec(
            proptest::collection::vec(value(), 1..20),
            1..12,
        )
    ) {
        let columns: Vec<Column> = cols
            .into_iter()
            .enumerate()
            .map(|(i, vals)| column(i, vals))
            .collect();
        let refs: Vec<&Column> = columns.iter().collect();
        let index = PatternIndex::build(&refs, &IndexConfig::default());
        prop_assert_eq!(index.num_columns, refs.len() as u64);
        for (_, stats) in index.entries() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&stats.fpr), "fpr {}", stats.fpr);
            prop_assert!(stats.cov >= 1);
            prop_assert!(stats.cov <= index.num_columns);
        }
        let restored = PatternIndex::from_bytes(&index.to_bytes()).expect("roundtrip");
        prop_assert_eq!(restored.len(), index.len());
    }

    /// For any corpus and any shard count: the indexed statistics are
    /// identical to the single-shard build, the persisted image
    /// round-trips, and resharding back to one shard reproduces the
    /// single-shard bytes exactly.
    #[test]
    fn sharding_is_transparent(
        cols in proptest::collection::vec(
            proptest::collection::vec(value(), 1..15),
            1..8,
        ),
        shard_bits in 0u32..=8,
    ) {
        let columns: Vec<Column> = cols
            .into_iter()
            .enumerate()
            .map(|(i, vals)| column(i, vals))
            .collect();
        let refs: Vec<&Column> = columns.iter().collect();
        let flat = PatternIndex::build(&refs, &IndexConfig { shard_bits: 0, ..Default::default() });
        let sharded = PatternIndex::build(&refs, &IndexConfig { shard_bits, ..Default::default() });
        prop_assert_eq!(sharded.shard_count(), 1usize << shard_bits);
        prop_assert_eq!(sharded.len(), flat.len());
        let want: std::collections::HashMap<u64, av_index::PatternStats> = flat.entries().collect();
        for (k, s) in sharded.entries() {
            let f = want.get(&k).expect("same pattern set");
            prop_assert_eq!(s.fpr.to_bits(), f.fpr.to_bits());
            prop_assert_eq!(s.cov, f.cov);
        }
        let restored = PatternIndex::from_bytes(&sharded.to_bytes()).expect("roundtrip");
        prop_assert_eq!(restored.to_bytes(), sharded.to_bytes());
        prop_assert_eq!(restored.reshard(0).to_bytes(), flat.to_bytes());
    }

    /// Duplicating every column doubles coverage counts but keeps FPRs.
    #[test]
    fn duplication_scales_coverage_not_fpr(
        cols in proptest::collection::vec(
            proptest::collection::vec(value(), 2..12),
            1..6,
        )
    ) {
        let single: Vec<Column> = cols
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| column(i, v))
            .collect();
        let doubled: Vec<Column> = cols
            .iter()
            .cloned()
            .chain(cols.iter().cloned())
            .enumerate()
            .map(|(i, v)| column(i, v))
            .collect();
        let idx1 = PatternIndex::build(&single.iter().collect::<Vec<_>>(), &IndexConfig::default());
        let idx2 = PatternIndex::build(&doubled.iter().collect::<Vec<_>>(), &IndexConfig::default());
        prop_assert_eq!(idx1.len(), idx2.len(), "same pattern set");
        let map2: std::collections::HashMap<u64, av_index::PatternStats> = idx2.entries().collect();
        for (k, s1) in idx1.entries() {
            let s2 = map2.get(&k).expect("pattern survives duplication");
            prop_assert_eq!(s2.cov, s1.cov * 2, "coverage doubles");
            prop_assert!((s2.fpr - s1.fpr).abs() < 1e-9, "fpr invariant");
        }
    }

    /// The patterns the offline build indexes agree with the automaton the
    /// online path runs: for every indexed pattern, a one-rule
    /// [`CatalogMatcher`] over its compiled program (what a rule's checks
    /// run) returns exactly the reference matcher's verdicts on the corpus
    /// values, and the parse round-trip preserves the index key. A lookup
    /// hit means the served rule really accepts what the index thinks it
    /// accepts.
    #[test]
    fn indexed_patterns_agree_with_the_served_automaton(
        cols in proptest::collection::vec(
            proptest::collection::vec(value(), 1..10),
            1..6,
        )
    ) {
        let columns: Vec<Column> = cols
            .into_iter()
            .enumerate()
            .map(|(i, vals)| column(i, vals))
            .collect();
        let refs: Vec<&Column> = columns.iter().collect();
        let config = IndexConfig { keep_patterns: true, ..Default::default() };
        let index = PatternIndex::build(&refs, &config);
        let values: Vec<&str> = columns
            .iter()
            .flat_map(|c| c.values.iter().map(String::as_str))
            .collect();
        for (fp, _) in index.entries() {
            let printed = index.pattern_string(fp).expect("keep_patterns build");
            let pattern = av_pattern::parse(printed).expect("indexed patterns parse");
            prop_assert_eq!(pattern.fingerprint(), fp, "fingerprint round-trip: {}", printed);
            let compiled = pattern.compile();
            let mut automaton = CatalogMatcher::new();
            automaton.insert(0, &compiled);
            for v in &values {
                prop_assert_eq!(
                    automaton.is_match(v),
                    av_pattern::matches(&pattern, v),
                    "automaton vs reference: {} ~ {:?}", printed, v
                );
            }
        }
    }
}
