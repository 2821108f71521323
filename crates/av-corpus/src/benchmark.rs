//! Benchmark construction following the paper's evaluation methodology
//! (§5.1): sample query columns from the corpus, use the first 10% of each
//! column's values as "training data" that arrives first, hold out the
//! remaining 90% as future "testing data".

use crate::column::{Column, ColumnKind};
use crate::lake::sample_columns;
use crate::Corpus;

/// One benchmark case `C_i`: a sampled query column with its train/test
/// split.
#[derive(Debug, Clone)]
pub struct BenchmarkCase {
    /// The source column (carries provenance / ground truth).
    pub column: Column,
    /// First 10% of values — what a validator may observe (`C_train`).
    pub train: Vec<String>,
    /// Remaining 90% — future arrivals (`C_test`).
    pub test: Vec<String>,
}

impl BenchmarkCase {
    /// Split one column 10/90 after truncating to `value_cap` values (the
    /// paper caps `B_E` columns at 1000 values and `B_G` at 100).
    pub fn from_column(column: &Column, value_cap: usize) -> BenchmarkCase {
        let values: Vec<String> = column.values.iter().take(value_cap).cloned().collect();
        let split = (values.len() / 10).max(1);
        let train = values[..split].to_vec();
        let test = values[split..].to_vec();
        BenchmarkCase {
            column: column.clone(),
            train,
            test,
        }
    }

    /// Is this case amenable to syntactic patterns? The paper reports
    /// headline numbers on the subset of cases where patterns exist
    /// (571/1000 on `B_E`), excluding natural-language columns.
    pub(crate) fn pattern_eligible(&self) -> bool {
        self.column.meta.kind != ColumnKind::NaturalLanguage
    }

    /// The domain name this case was generated from, when known.
    pub fn domain(&self) -> Option<&str> {
        self.column.meta.domain.as_deref()
    }
}

/// A full benchmark `B`: `n` sampled cases.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The sampled cases.
    pub cases: Vec<BenchmarkCase>,
}

impl Benchmark {
    /// Sample `n` query columns (with at least `min_values` values so the
    /// 10/90 split is meaningful), capping each at `value_cap` values.
    pub fn sample(
        corpus: &Corpus,
        n: usize,
        min_values: usize,
        value_cap: usize,
        seed: u64,
    ) -> Benchmark {
        let cases = sample_columns(corpus, n, min_values, seed)
            .into_iter()
            .map(|c| BenchmarkCase::from_column(c, value_cap))
            .collect();
        Benchmark { cases }
    }

    /// Only the pattern-eligible cases.
    pub fn eligible_cases(&self) -> impl Iterator<Item = &BenchmarkCase> {
        self.cases.iter().filter(|c| c.pattern_eligible())
    }

    /// Number of cases.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// True when no cases were sampled.
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lake::{generate_lake, LakeProfile};

    #[test]
    fn split_is_ten_ninety() {
        let corpus = generate_lake(&LakeProfile::tiny(), 1);
        let b = Benchmark::sample(&corpus, 30, 20, 1000, 2);
        assert_eq!(b.len(), 30);
        for case in &b.cases {
            let total = case.train.len() + case.test.len();
            assert_eq!(case.train.len(), (total / 10).max(1));
            assert!(case.test.len() >= case.train.len());
        }
    }

    #[test]
    fn value_cap_is_applied() {
        let corpus = generate_lake(&LakeProfile::tiny(), 1);
        let b = Benchmark::sample(&corpus, 10, 20, 25, 3);
        for case in &b.cases {
            assert!(case.train.len() + case.test.len() <= 25);
        }
    }

    #[test]
    fn eligibility_excludes_natural_language() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(600), 5);
        let b = Benchmark::sample(&corpus, 200, 20, 100, 7);
        let eligible = b.eligible_cases().count();
        assert!(eligible < b.len(), "NL cases should be excluded");
        assert!(eligible > b.len() / 3, "most cases should be eligible");
        for c in b.eligible_cases() {
            assert_ne!(c.column.meta.kind, ColumnKind::NaturalLanguage);
        }
    }
}
