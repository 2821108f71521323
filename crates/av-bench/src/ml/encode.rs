//! Categorical encoding for string features, as an ML pipeline would set it
//! up per column position — which is exactly what schema-drift silently
//! breaks (Fig. 15): after a positional swap, values arrive at an encoder
//! built from a different column's vocabulary and map to "unseen".

use std::collections::HashMap;

/// A per-column categorical encoder: category → index by descending
/// training frequency; unseen values map to -1.0.
#[derive(Debug, Clone)]
pub struct CategoryEncoder {
    mapping: HashMap<String, f64>,
}

impl CategoryEncoder {
    /// Fit on training values.
    pub fn fit(values: &[String]) -> CategoryEncoder {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for v in values {
            *counts.entry(v.as_str()).or_insert(0) += 1;
        }
        let mut by_freq: Vec<(&str, usize)> = counts.into_iter().collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let mapping = by_freq
            .into_iter()
            .enumerate()
            .map(|(i, (v, _))| (v.to_string(), i as f64))
            .collect();
        CategoryEncoder { mapping }
    }

    /// Encode one value (-1.0 when unseen at fit time).
    pub fn encode(&self, value: &str) -> f64 {
        self.mapping.get(value).copied().unwrap_or(-1.0)
    }

    /// Encode a whole column.
    pub(crate) fn encode_column(&self, values: &[String]) -> Vec<f64> {
        values.iter().map(|v| self.encode(v)).collect()
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.mapping.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[&str]) -> Vec<String> {
        vals.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn frequency_rank_encoding() {
        let train = col(&["b", "a", "b", "b", "a", "c"]);
        let enc = CategoryEncoder::fit(&train);
        assert_eq!(enc.encode("b"), 0.0); // most frequent
        assert_eq!(enc.encode("a"), 1.0);
        assert_eq!(enc.encode("c"), 2.0);
        assert_eq!(enc.vocab_size(), 3);
    }

    #[test]
    fn unseen_maps_to_minus_one() {
        let enc = CategoryEncoder::fit(&col(&["x", "y"]));
        assert_eq!(enc.encode("z"), -1.0);
        assert_eq!(enc.encode_column(&col(&["x", "z"])), vec![0.0, -1.0]);
    }

    #[test]
    fn swapped_columns_become_all_unseen() {
        // The schema-drift mechanism: an encoder fit on country codes sees
        // status words after the swap — everything unseen.
        let countries = CategoryEncoder::fit(&col(&["US", "UK", "DE"]));
        let statuses = col(&["Delivered", "Pending"]);
        let encoded = countries.encode_column(&statuses);
        assert!(encoded.iter().all(|&x| x == -1.0));
    }
}
