//! Synthetic Kaggle-like prediction tasks for the schema-drift case study
//! (paper §5.3, Fig. 15).
//!
//! Each task has at least two string-valued categorical attributes whose
//! *formats* come from distinct machine-generated domains, plus numeric
//! features and a target correlated with the categoricals. Schema-drift is
//! simulated exactly as in the paper: the positions of two categorical
//! attributes are swapped in the test data only.
//!
//! Three of the eleven tasks deliberately pair two categorical columns with
//! the *same* format — these are the tasks the paper reports as undetectable
//! by pattern validation (`WestNile`, `HomeDepot`, `WalmartTrips`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Format family for a categorical feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatFormat {
    /// Uppercase two-letter codes ("US", "DE", ...).
    Code2,
    /// Status words ("Delivered", "Pending", ...).
    Word,
    /// Zone ids like "Z-042".
    ZoneId,
    /// Date-ish bucket like "2019-03".
    MonthBucket,
    /// Small integer bucket rendered as two digits ("42", "17").
    IntBucket,
}

impl CatFormat {
    fn vocabulary(&self, cardinality: usize, rng: &mut StdRng) -> Vec<String> {
        let mut vocab = Vec::with_capacity(cardinality);
        match self {
            CatFormat::Code2 => {
                while vocab.len() < cardinality {
                    let s: String = (0..2)
                        .map(|_| (b'A' + rng.random_range(0..26u8)) as char)
                        .collect();
                    if !vocab.contains(&s) {
                        vocab.push(s);
                    }
                }
            }
            CatFormat::Word => {
                const WORDS: &[&str] = &[
                    "Delivered",
                    "Pending",
                    "Throttled",
                    "Rejected",
                    "Booked",
                    "Paused",
                    "Archived",
                    "Serving",
                    "Expired",
                    "Active",
                    "Blocked",
                    "Review",
                    "Draft",
                    "Closed",
                    "Open",
                    "Hold",
                ];
                for w in WORDS.iter().take(cardinality) {
                    vocab.push((*w).to_string());
                }
            }
            CatFormat::ZoneId => {
                while vocab.len() < cardinality {
                    let s = format!("Z-{:03}", rng.random_range(0..1000));
                    if !vocab.contains(&s) {
                        vocab.push(s);
                    }
                }
            }
            CatFormat::MonthBucket => {
                for y in 2017..=2020 {
                    for m in 1..=12 {
                        if vocab.len() < cardinality {
                            vocab.push(format!("{y}-{m:02}"));
                        }
                    }
                }
            }
            CatFormat::IntBucket => {
                while vocab.len() < cardinality {
                    let s = rng.random_range(10..100u32).to_string();
                    if !vocab.contains(&s) {
                        vocab.push(s);
                    }
                }
            }
        }
        vocab
    }
}

/// One Kaggle-like task with train/test splits.
#[derive(Debug, Clone)]
pub struct KaggleTask {
    /// Task name (named after the paper's 11 Kaggle tasks).
    pub name: String,
    /// Classification (true) or regression (false).
    pub is_classification: bool,
    /// Names of the categorical attributes.
    pub cat_names: Vec<String>,
    /// Formats of the categorical attributes (for provenance).
    pub cat_formats: Vec<CatFormat>,
    /// Categorical training data, `[feature][row]`.
    pub cat_train: Vec<Vec<String>>,
    /// Categorical testing data, `[feature][row]`.
    pub cat_test: Vec<Vec<String>>,
    /// Numeric training data, `[feature][row]`.
    pub num_train: Vec<Vec<f64>>,
    /// Numeric testing data, `[feature][row]`.
    pub num_test: Vec<Vec<f64>>,
    /// Training targets.
    pub y_train: Vec<f64>,
    /// Testing targets.
    pub y_test: Vec<f64>,
}

impl KaggleTask {
    /// Simulate schema-drift: swap two categorical columns in the *test*
    /// data only (the paper swaps attribute positions after training).
    pub fn with_swapped_test_cats(&self, i: usize, j: usize) -> KaggleTask {
        let mut t = self.clone();
        t.cat_test.swap(i, j);
        t
    }

    /// Do the two swapped columns share a format (making the drift
    /// undetectable by syntactic validation)?
    pub fn swap_is_detectable(&self, i: usize, j: usize) -> bool {
        self.cat_formats[i] != self.cat_formats[j]
    }
}

/// Simple deterministic category weight in [-1, 1] via FNV hashing.
fn cat_weight(value: &str, salt: u64) -> f64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ salt;
    for b in value.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % 2000) as f64 / 1000.0 - 1.0
}

/// Build one task.
fn make_task(
    name: &str,
    is_classification: bool,
    formats: &[CatFormat],
    n_train: usize,
    n_test: usize,
    seed: u64,
) -> KaggleTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = n_train + n_test;
    let n_num = 3usize;
    // Vocabularies per categorical feature.
    let vocabs: Vec<Vec<String>> = formats.iter().map(|f| f.vocabulary(12, &mut rng)).collect();
    // Row-wise generation.
    let mut cats: Vec<Vec<String>> = (0..formats.len()).map(|_| Vec::with_capacity(n)).collect();
    let mut nums: Vec<Vec<f64>> = (0..n_num).map(|_| Vec::with_capacity(n)).collect();
    let mut ys: Vec<f64> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut signal = 0.0;
        for (f, vocab) in vocabs.iter().enumerate() {
            let v = &vocab[rng.random_range(0..vocab.len())];
            // Categorical contribution: feature-specific salt so swapping
            // columns scrambles the learned mapping.
            signal += cat_weight(v, (f as u64 + 1) * 7919);
            cats[f].push(v.clone());
        }
        for (k, num) in nums.iter_mut().enumerate() {
            let x: f64 = rng.random_range(-1.0..1.0);
            signal += 0.5 * x * (k as f64 + 1.0) / n_num as f64;
            num.push(x);
        }
        let noise: f64 = rng.random_range(-0.2..0.2);
        ys.push(signal + noise);
    }
    // Classification: threshold at the median so classes are balanced.
    let ys = if is_classification {
        let mut sorted = ys.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let median = sorted[sorted.len() / 2];
        ys.into_iter()
            .map(|y| if y > median { 1.0 } else { 0.0 })
            .collect()
    } else {
        ys
    };
    let split = |v: &Vec<Vec<String>>| -> (Vec<Vec<String>>, Vec<Vec<String>>) {
        (
            v.iter().map(|col| col[..n_train].to_vec()).collect(),
            v.iter().map(|col| col[n_train..].to_vec()).collect(),
        )
    };
    let (cat_train, cat_test) = split(&cats);
    let num_train: Vec<Vec<f64>> = nums.iter().map(|c| c[..n_train].to_vec()).collect();
    let num_test: Vec<Vec<f64>> = nums.iter().map(|c| c[n_train..].to_vec()).collect();
    KaggleTask {
        name: name.to_string(),
        is_classification,
        cat_names: (0..formats.len()).map(|i| format!("cat_{i}")).collect(),
        cat_formats: formats.to_vec(),
        cat_train,
        cat_test,
        num_train,
        num_test,
        y_train: ys[..n_train].to_vec(),
        y_test: ys[n_train..].to_vec(),
    }
}

/// The eleven tasks of the paper's case study. The first seven are
/// classification, the last four regression. `WestNile`, `HomeDepot` and
/// `WalmartTrips` pair two same-format categoricals, so their simulated
/// drift is syntactically undetectable — matching the paper's 8/11 result.
pub fn kaggle_tasks(n_train: usize, n_test: usize, seed: u64) -> Vec<KaggleTask> {
    use CatFormat::*;
    let spec: Vec<(&str, bool, Vec<CatFormat>)> = vec![
        ("Titanic", true, vec![Code2, Word]),
        ("AirBnb", true, vec![Word, MonthBucket]),
        ("BNPParibas", true, vec![Code2, ZoneId]),
        ("RedHat", true, vec![Word, IntBucket]),
        ("SFCrime", true, vec![ZoneId, MonthBucket]),
        ("WestNile", true, vec![Code2, Code2]), // undetectable pair
        ("WalmartTrips", true, vec![Word, Word]), // undetectable pair
        ("HousePrice", false, vec![ZoneId, Word]),
        ("HomeDepot", false, vec![IntBucket, IntBucket]), // undetectable pair
        ("Caterpillar", false, vec![Code2, MonthBucket]),
        ("WalmartSales", false, vec![ZoneId, IntBucket]),
    ];
    spec.into_iter()
        .enumerate()
        .map(|(i, (name, cls, formats))| {
            make_task(
                name,
                cls,
                &formats,
                n_train,
                n_test,
                seed.wrapping_add(i as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_tasks_with_paper_names() {
        let tasks = kaggle_tasks(200, 100, 1);
        assert_eq!(tasks.len(), 11);
        assert_eq!(tasks.iter().filter(|t| t.is_classification).count(), 7);
        assert!(tasks.iter().any(|t| t.name == "Titanic"));
        assert!(tasks.iter().any(|t| t.name == "WalmartSales"));
    }

    #[test]
    fn shapes_are_consistent() {
        for t in kaggle_tasks(150, 80, 2) {
            assert_eq!(t.y_train.len(), 150);
            assert_eq!(t.y_test.len(), 80);
            for c in &t.cat_train {
                assert_eq!(c.len(), 150);
            }
            for c in &t.cat_test {
                assert_eq!(c.len(), 80);
            }
            assert!(t.cat_names.len() >= 2);
        }
    }

    #[test]
    fn classification_targets_are_binary_and_balanced() {
        for t in kaggle_tasks(400, 100, 3) {
            if t.is_classification {
                assert!(t.y_train.iter().all(|&y| y == 0.0 || y == 1.0));
                let pos = t.y_train.iter().filter(|&&y| y == 1.0).count();
                let frac = pos as f64 / t.y_train.len() as f64;
                assert!((0.3..0.7).contains(&frac), "{}: {frac}", t.name);
            }
        }
    }

    #[test]
    fn swap_changes_test_columns_only() {
        let t = &kaggle_tasks(100, 50, 4)[0];
        let swapped = t.with_swapped_test_cats(0, 1);
        assert_eq!(t.cat_train, swapped.cat_train);
        assert_eq!(t.cat_test[0], swapped.cat_test[1]);
        assert_eq!(t.cat_test[1], swapped.cat_test[0]);
    }

    #[test]
    fn exactly_three_tasks_have_undetectable_swaps() {
        let tasks = kaggle_tasks(100, 50, 5);
        let undetectable: Vec<&str> = tasks
            .iter()
            .filter(|t| !t.swap_is_detectable(0, 1))
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(undetectable, vec!["WestNile", "WalmartTrips", "HomeDepot"]);
    }

    #[test]
    fn categoricals_predict_target() {
        // Sanity: the target must carry categorical signal, otherwise the
        // case study cannot show drift-induced degradation.
        let t = &kaggle_tasks(2000, 10, 6)[7]; // HousePrice (regression)
                                               // Group mean by first categorical value.
        use std::collections::HashMap;
        let mut groups: HashMap<&str, (f64, usize)> = HashMap::new();
        for (v, y) in t.cat_train[0].iter().zip(&t.y_train) {
            let e = groups.entry(v).or_insert((0.0, 0));
            e.0 += *y;
            e.1 += 1;
        }
        let means: Vec<f64> = groups.values().map(|(s, n)| s / *n as f64).collect();
        let spread = means.iter().cloned().fold(f64::MIN, f64::max)
            - means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.5, "categorical signal too weak: {spread}");
    }
}
