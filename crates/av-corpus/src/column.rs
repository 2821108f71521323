//! Data-lake data model: columns, tables, corpora and their statistics.

use av_pattern::Pattern;

/// How a synthetic column was produced — carried along as ground truth for
/// the evaluation harness (the paper's manually-labeled patterns, Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnKind {
    /// Homogeneous machine-generated values from one domain (67.6% of the
    /// paper's enterprise sample).
    Machine,
    /// Natural-language content (company names, comments, ...) for which
    /// pattern methods are not applicable (~33% in the paper).
    NaturalLanguage,
    /// Concatenation of several atomic domains (§3, Fig. 8).
    Composite,
    /// Mixture of two domains (violates homogeneity; ~12% in the paper).
    Impure,
}

/// Provenance metadata attached to generated columns.
#[derive(Debug, Clone)]
pub struct ColumnMeta {
    /// Name(s) of the generating domain(s).
    pub domain: Option<String>,
    /// The domain's ideal validation pattern, when one exists.
    pub ground_truth: Option<Pattern>,
    /// Structural kind.
    pub kind: ColumnKind,
    /// Fraction of ad-hoc non-conforming values injected (0.0 for clean).
    pub dirty_rate: f64,
}

impl ColumnMeta {
    /// Metadata for a clean machine-generated column.
    pub fn machine(domain: impl Into<String>, ground_truth: Option<Pattern>) -> ColumnMeta {
        ColumnMeta {
            domain: Some(domain.into()),
            ground_truth,
            kind: ColumnKind::Machine,
            dirty_rate: 0.0,
        }
    }
}

/// A single data column: an ordered bag of string values.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name (unique within its table).
    pub name: String,
    /// The values, in arrival order.
    pub values: Vec<String>,
    /// Generation provenance (ground truth for evaluation).
    pub meta: ColumnMeta,
}

impl Column {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of distinct values.
    pub(crate) fn distinct_count(&self) -> usize {
        let mut set: Vec<&str> = self.values.iter().map(|s| s.as_str()).collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }
}

/// A table: a named list of columns (row alignment matters only for the
/// FD-UB baseline and the Kaggle case study).
#[derive(Debug, Clone)]
pub struct Table {
    /// Table (file) name.
    pub name: String,
    /// The table's columns.
    pub columns: Vec<Column>,
}

/// A corpus `T`: the collection of tables crawled from a data lake.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// All tables.
    pub tables: Vec<Table>,
}

impl Corpus {
    /// Iterate over every column in the corpus.
    pub fn columns(&self) -> impl Iterator<Item = &Column> {
        self.tables.iter().flat_map(|t| t.columns.iter())
    }

    /// Total number of columns.
    pub fn num_columns(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }

    /// Corpus characteristics in the shape of the paper's Table 1.
    pub fn stats(&self) -> CorpusStats {
        let counts: Vec<f64> = self.columns().map(|c| c.len() as f64).collect();
        let distinct: Vec<f64> = self.columns().map(|c| c.distinct_count() as f64).collect();
        CorpusStats {
            num_files: self.tables.len(),
            num_columns: counts.len(),
            avg_value_count: av_stats_mean(&counts),
            std_value_count: av_stats_std(&counts),
            avg_distinct_count: av_stats_mean(&distinct),
            std_distinct_count: av_stats_std(&distinct),
        }
    }
}

// Local copies of mean/std to avoid a dependency cycle with av-stats (which
// does not depend on us, but keeping av-corpus's dependency list minimal).
fn av_stats_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn av_stats_std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = av_stats_mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Corpus characteristics (paper Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    /// Total number of data files (tables).
    pub num_files: usize,
    /// Total number of data columns.
    pub num_columns: usize,
    /// Average column value count.
    pub avg_value_count: f64,
    /// Standard deviation of column value counts.
    pub std_value_count: f64,
    /// Average distinct value count.
    pub avg_distinct_count: f64,
    /// Standard deviation of distinct value counts.
    pub std_distinct_count: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str, values: &[&str]) -> Column {
        Column {
            name: name.to_string(),
            values: values.iter().map(|s| s.to_string()).collect(),
            meta: ColumnMeta::machine("test", None),
        }
    }

    #[test]
    fn distinct_count() {
        let c = col("c", &["a", "b", "a", "c", "b"]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.distinct_count(), 3);
    }

    #[test]
    fn corpus_stats() {
        let corpus = Corpus {
            tables: vec![
                Table {
                    name: "t1".into(),
                    columns: vec![col("a", &["1", "2"]), col("b", &["x", "x", "x", "x"])],
                },
                Table {
                    name: "t2".into(),
                    columns: vec![col("c", &["p", "q", "r"])],
                },
            ],
        };
        let s = corpus.stats();
        assert_eq!(s.num_files, 2);
        assert_eq!(s.num_columns, 3);
        assert!((s.avg_value_count - 3.0).abs() < 1e-12);
        assert!((s.avg_distinct_count - 2.0).abs() < 1e-12);
        assert_eq!(corpus.columns().count(), 3);
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::default();
        let s = c.stats();
        assert_eq!(s.num_columns, 0);
        assert_eq!(s.avg_value_count, 0.0);
    }
}
