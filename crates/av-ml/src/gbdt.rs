//! Gradient-boosted decision trees (the stand-in for XGBoost in the
//! Fig. 15 case study) with squared-error and logistic objectives.

use crate::tree::{Tree, TreeParams};

/// Training objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Squared error; predictions are raw values.
    Regression,
    /// Binary logistic; predictions are probabilities in (0, 1).
    BinaryLogistic,
}

/// Maximum tree depth.
const MAX_DEPTH: usize = 4;
/// Shrinkage per round.
const LEARNING_RATE: f64 = 0.2;
/// Minimum rows per leaf.
const MIN_SAMPLES_LEAF: usize = 4;

/// Booster hyper-parameters. The defaults, and the fixed depth (4),
/// shrinkage (0.2) and leaf size (4), mirror "XGBoost with default
/// parameters" at small-data scale.
#[derive(Debug, Clone, Copy)]
pub struct GbdtConfig {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Objective.
    pub objective: Objective,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_trees: 60,
            objective: Objective::Regression,
        }
    }
}

impl GbdtConfig {
    /// Default classification config.
    pub fn classification() -> GbdtConfig {
        GbdtConfig {
            objective: Objective::BinaryLogistic,
            ..Default::default()
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// A trained booster.
#[derive(Debug, Clone)]
pub struct Gbdt {
    trees: Vec<Tree>,
    base_score: f64,
    objective: Objective,
}

impl Gbdt {
    /// Train on column-major `features` (`features[f][row]`) and `labels`.
    ///
    /// # Panics
    /// Panics when feature columns and labels disagree in length or when
    /// there are no rows.
    pub fn train(features: &[Vec<f64>], labels: &[f64], config: GbdtConfig) -> Gbdt {
        let n = labels.len();
        assert!(n > 0, "no training rows");
        for col in features {
            assert_eq!(col.len(), n, "feature column length mismatch");
        }
        let base_score = match config.objective {
            Objective::Regression => labels.iter().sum::<f64>() / n as f64,
            Objective::BinaryLogistic => {
                // Log-odds of the positive rate, clamped away from ±∞.
                let pos = labels.iter().filter(|&&y| y > 0.5).count() as f64;
                let p = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
                (p / (1.0 - p)).ln()
            }
        };
        let rows: Vec<usize> = (0..n).collect();
        let params = TreeParams {
            max_depth: MAX_DEPTH,
            min_samples_leaf: MIN_SAMPLES_LEAF,
        };
        let mut raw: Vec<f64> = vec![base_score; n];
        let mut trees = Vec::with_capacity(config.n_trees);
        let mut gradients = vec![0.0f64; n];
        for _ in 0..config.n_trees {
            for (g, (&l, &r)) in gradients.iter_mut().zip(labels.iter().zip(raw.iter())) {
                *g = match config.objective {
                    Objective::Regression => l - r,
                    Objective::BinaryLogistic => l - sigmoid(r),
                };
            }
            let tree = Tree::fit(features, &gradients, &rows, params);
            for (i, r) in raw.iter_mut().enumerate() {
                *r += LEARNING_RATE * tree.predict_indexed(features, i);
            }
            trees.push(tree);
        }
        Gbdt {
            trees,
            base_score,
            objective: config.objective,
        }
    }

    /// Predict one dense row (probability for logistic, value otherwise).
    pub(crate) fn predict_row(&self, row: &[f64]) -> f64 {
        let raw = self.base_score
            + self
                .trees
                .iter()
                .map(|t| LEARNING_RATE * t.predict_row(row))
                .sum::<f64>();
        match self.objective {
            Objective::Regression => raw,
            Objective::BinaryLogistic => sigmoid(raw),
        }
    }

    /// Predict every row of a column-major feature block.
    pub fn predict(&self, features: &[Vec<f64>]) -> Vec<f64> {
        let n = features.first().map(|c| c.len()).unwrap_or(0);
        (0..n)
            .map(|i| {
                let row: Vec<f64> = features.iter().map(|c| c[i]).collect();
                self.predict_row(&row)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fits_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 400;
        let x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let model = Gbdt::train(std::slice::from_ref(&x), &y, GbdtConfig::default());
        let preds = model.predict(&[x]);
        let mse: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / n as f64;
        assert!(mse < 0.05, "mse = {mse}");
    }

    #[test]
    fn classifies_a_threshold_rule() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 500;
        let x: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
        let noise: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
        let y: Vec<f64> = x.iter().map(|&v| if v > 0.5 { 1.0 } else { 0.0 }).collect();
        let model = Gbdt::train(&[x.clone(), noise], &y, GbdtConfig::classification());
        let p_hi = model.predict_row(&[0.9, 0.5]);
        let p_lo = model.predict_row(&[0.1, 0.5]);
        assert!(p_hi > 0.9, "p_hi = {p_hi}");
        assert!(p_lo < 0.1, "p_lo = {p_lo}");
    }

    #[test]
    fn logistic_outputs_are_probabilities() {
        let x = vec![vec![0.0, 1.0, 0.0, 1.0, 0.5, 0.2]];
        let y = vec![0.0, 1.0, 0.0, 1.0, 1.0, 0.0];
        let model = Gbdt::train(&x, &y, GbdtConfig::classification());
        for p in model.predict(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "no training rows")]
    fn empty_training_panics() {
        let _ = Gbdt::train(&[vec![]], &[], GbdtConfig::default());
    }

    #[test]
    fn num_trees_matches_config() {
        let x = vec![vec![0.0, 1.0, 2.0, 3.0]];
        let y = vec![0.0, 1.0, 2.0, 3.0];
        let cfg = GbdtConfig {
            n_trees: 7,
            ..Default::default()
        };
        assert_eq!(Gbdt::train(&x, &y, cfg).trees.len(), 7);
    }
}
