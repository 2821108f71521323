//! Recall upper bounds for orthogonal method families (§5.2): FD-UB
//! (functional dependencies) and AD-UB (Auto-Detect's common-pattern
//! co-occurrence). Both assume perfect precision, per the paper.

use av_corpus::{Corpus, Table};
use av_pattern::coarse_pattern;
use std::collections::HashMap;

/// Does column `i` of `table` participate in a functional dependency with
/// any other column (either as determinant or dependent), on this table
/// instance?
pub(crate) fn fd_participates(table: &Table, i: usize) -> bool {
    let n_rows = table.columns.get(i).map(|c| c.len()).unwrap_or(0);
    if n_rows == 0 {
        return false;
    }
    (0..table.columns.len())
        .filter(|&j| j != i && table.columns[j].len() == n_rows)
        .any(|j| holds_fd(table, i, j) || holds_fd(table, j, i))
}

/// Does `A → B` hold on the instance (every A-value maps to one B-value)?
/// Trivial FDs (constant A, i.e. |A| = 1 distinct) are excluded, as
/// instance-level FDs from constants carry no semantic signal [19, 51].
fn holds_fd(table: &Table, a: usize, b: usize) -> bool {
    let col_a = &table.columns[a].values;
    let col_b = &table.columns[b].values;
    let mut map: HashMap<&str, &str> = HashMap::new();
    for (x, y) in col_a.iter().zip(col_b) {
        match map.get(x.as_str()) {
            Some(prev) if *prev != y.as_str() => return false,
            Some(_) => {}
            None => {
                map.insert(x, y);
            }
        }
    }
    map.len() > 1
}

/// FD-UB: the fraction of named columns that are part of any FD in their
/// original table — a recall upper bound for FD-based validation.
pub fn fd_recall_upper_bound(corpus: &Corpus, column_names: &[&str]) -> f64 {
    if column_names.is_empty() {
        return 0.0;
    }
    let wanted: std::collections::HashSet<&str> = column_names.iter().copied().collect();
    let mut covered = 0usize;
    for table in &corpus.tables {
        for (i, col) in table.columns.iter().enumerate() {
            if wanted.contains(col.name.as_str()) && fd_participates(table, i) {
                covered += 1;
            }
        }
    }
    covered as f64 / column_names.len() as f64
}

/// The "common patterns" of a corpus: coarse patterns carried (as the
/// plurality structure) by at least `min_columns` columns. Auto-Detect can
/// only flag incompatibility between two *common* patterns.
pub fn common_patterns(corpus: &Corpus, min_columns: usize) -> HashMap<av_pattern::Pattern, usize> {
    let mut census: HashMap<av_pattern::Pattern, usize> = HashMap::new();
    for col in corpus.columns() {
        let mut local: HashMap<av_pattern::Pattern, usize> = HashMap::new();
        for v in col.values.iter().take(100) {
            *local.entry(coarse_pattern(v)).or_insert(0) += 1;
        }
        if let Some((top, _)) = local
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        {
            *census.entry(top).or_insert(0) += 1;
        }
    }
    census.retain(|_, c| *c >= min_columns);
    census
}

/// AD-UB: the fraction of query columns whose plurality coarse pattern is a
/// common pattern — a recall upper bound for Auto-Detect-style methods
/// (both sides of a value pair must map to common patterns).
pub fn ad_recall_upper_bound(
    common: &HashMap<av_pattern::Pattern, usize>,
    query_columns: &[Vec<String>],
) -> f64 {
    if query_columns.is_empty() {
        return 0.0;
    }
    let covered = query_columns
        .iter()
        .filter(|values| {
            let mut local: HashMap<av_pattern::Pattern, usize> = HashMap::new();
            for v in values.iter().take(100) {
                *local.entry(coarse_pattern(v)).or_insert(0) += 1;
            }
            local
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
                .is_some_and(|(top, _)| common.contains_key(&top))
        })
        .count();
    covered as f64 / query_columns.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_corpus::{generate_lake, Column, ColumnMeta, LakeProfile};

    fn col(name: &str, vals: &[&str]) -> Column {
        Column {
            name: name.into(),
            values: vals.iter().map(|s| s.to_string()).collect(),
            meta: ColumnMeta::machine("t", None),
        }
    }

    #[test]
    fn fd_detection_on_country_currency() {
        let table = Table {
            name: "t".into(),
            columns: vec![
                col("country", &["US", "UK", "US", "DE"]),
                col("currency", &["USD", "GBP", "USD", "EUR"]),
                col("noise", &["1", "2", "3", "4"]),
            ],
        };
        assert!(fd_participates(&table, 0));
        assert!(fd_participates(&table, 1));
        // noise → everything (all-distinct determinant): noise does
        // participate as a determinant, which is the upper-bound semantics.
        assert!(fd_participates(&table, 2));
    }

    #[test]
    fn fd_violations_are_rejected() {
        let table = Table {
            name: "t".into(),
            columns: vec![col("a", &["x", "x"]), col("b", &["1", "2"])],
        };
        // a → b fails (x maps to both); b → a holds but is from an
        // all-distinct determinant… which is allowed. Column 0 participates
        // only via b → a.
        assert!(holds_fd(&table, 1, 0));
        assert!(!holds_fd(&table, 0, 1));
    }

    #[test]
    fn constant_determinants_are_trivial() {
        let table = Table {
            name: "t".into(),
            columns: vec![col("a", &["x", "x"]), col("b", &["1", "1"])],
        };
        assert!(!holds_fd(&table, 0, 1), "constant FD carries no signal");
    }

    #[test]
    fn fd_upper_bound_counts_generated_pairs() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(600), 13);
        let names: Vec<&str> = corpus
            .columns()
            .filter(|c| c.name.ends_with("_country") || c.name.ends_with("_currency"))
            .map(|c| c.name.as_str())
            .collect();
        if !names.is_empty() {
            let ub = fd_recall_upper_bound(&corpus, &names);
            assert!(ub > 0.9, "country/currency pairs are FDs, got {ub}");
        }
    }

    #[test]
    fn common_patterns_have_counts() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(500), 5);
        let common = common_patterns(&corpus, 3);
        assert!(!common.is_empty());
        assert!(common.values().all(|&c| c >= 3));
    }

    #[test]
    fn ad_upper_bound_reflects_commonality() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(500), 5);
        let common = common_patterns(&corpus, 3);
        let in_corpus: Vec<Vec<String>> = corpus
            .columns()
            .take(50)
            .map(|c| c.values.clone())
            .collect();
        let ub = ad_recall_upper_bound(&common, &in_corpus);
        assert!(ub > 0.3, "popular corpus columns should be common: {ub}");
        let foreign: Vec<Vec<String>> =
            vec![vec!["@@##$$ weird !! unique structure 9".to_string()]];
        assert_eq!(ad_recall_upper_bound(&common, &foreign), 0.0);
    }
}
