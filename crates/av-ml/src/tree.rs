//! Regression trees: the weak learners inside the gradient booster.

/// One node of a binary regression tree (flattened into a vec).
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// Internal split: `feature`, `threshold`, children indices.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf prediction.
    Leaf(f64),
}

/// A depth-limited regression tree fit to residuals with exact greedy
/// variance-reduction splits.
#[derive(Debug, Clone)]
pub(crate) struct Tree {
    pub(crate) nodes: Vec<Node>,
}

/// Tree-growing parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TreeParams {
    pub max_depth: usize,
    pub min_samples_leaf: usize,
}

impl Tree {
    /// Fit a tree to `targets` over column-major `features` restricted to
    /// `rows`.
    pub(crate) fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        rows: &[usize],
        params: TreeParams,
    ) -> Tree {
        let mut tree = Tree { nodes: Vec::new() };
        let mut rows = rows.to_vec();
        tree.grow(features, targets, &mut rows, params, 0);
        tree
    }

    fn grow(
        &mut self,
        features: &[Vec<f64>],
        targets: &[f64],
        rows: &mut [usize],
        params: TreeParams,
        depth: usize,
    ) -> usize {
        let mean = if rows.is_empty() {
            0.0
        } else {
            rows.iter().map(|&r| targets[r]).sum::<f64>() / rows.len() as f64
        };
        if depth >= params.max_depth || rows.len() < 2 * params.min_samples_leaf {
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf(mean));
            return id;
        }
        match best_split(features, targets, rows, params.min_samples_leaf) {
            None => {
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf(mean));
                id
            }
            Some((feature, threshold)) => {
                // Partition rows in place.
                let mut mid = 0usize;
                for i in 0..rows.len() {
                    if features[feature][rows[i]] <= threshold {
                        rows.swap(i, mid);
                        mid += 1;
                    }
                }
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf(mean)); // placeholder, patched below
                let (left_rows, right_rows) = rows.split_at_mut(mid);
                let left = self.grow(features, targets, left_rows, params, depth + 1);
                let right = self.grow(features, targets, right_rows, params, depth + 1);
                self.nodes[id] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                id
            }
        }
    }

    /// Predict one row (features given column-major, indexed by `row`).
    pub(crate) fn predict_indexed(&self, features: &[Vec<f64>], row: usize) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if features[*feature][row] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predict a single dense row vector.
    pub(crate) fn predict_row(&self, row: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Exact greedy best split by variance reduction; `None` when no split
/// improves on the parent or satisfies the leaf-size floor.
fn best_split(
    features: &[Vec<f64>],
    targets: &[f64],
    rows: &[usize],
    min_leaf: usize,
) -> Option<(usize, f64)> {
    let n = rows.len() as f64;
    let total_sum: f64 = rows.iter().map(|&r| targets[r]).sum();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
    for (f, col) in features.iter().enumerate() {
        // Sort row ids by feature value.
        let mut order: Vec<usize> = rows.to_vec();
        order.sort_by(|&a, &b| col[a].partial_cmp(&col[b]).expect("finite features"));
        let mut left_sum = 0.0;
        for i in 0..order.len().saturating_sub(1) {
            left_sum += targets[order[i]];
            let nl = (i + 1) as f64;
            let nr = n - nl;
            if (i + 1) < min_leaf || (order.len() - i - 1) < min_leaf {
                continue;
            }
            let v_here = col[order[i]];
            let v_next = col[order[i + 1]];
            if v_here == v_next {
                continue; // cannot split between equal values
            }
            let right_sum = total_sum - left_sum;
            // Variance reduction ∝ n_l·mean_l² + n_r·mean_r².
            let score = left_sum * left_sum / nl + right_sum * right_sum / nr;
            if best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((f, (v_here + v_next) / 2.0, score));
            }
        }
    }
    // Only split if it actually reduces variance.
    let parent_score = total_sum * total_sum / n;
    best.filter(|(_, _, s)| *s > parent_score + 1e-12)
        .map(|(f, t, _)| (f, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_separable_step_function() {
        let features = vec![vec![1.0, 2.0, 3.0, 10.0, 11.0, 12.0]];
        let targets = vec![0.0, 0.0, 0.0, 5.0, 5.0, 5.0];
        let rows: Vec<usize> = (0..6).collect();
        let tree = Tree::fit(
            &features,
            &targets,
            &rows,
            TreeParams {
                max_depth: 2,
                min_samples_leaf: 1,
            },
        );
        assert_eq!(tree.predict_row(&[2.0]), 0.0);
        assert_eq!(tree.predict_row(&[11.0]), 5.0);
    }

    #[test]
    fn constant_targets_make_a_leaf() {
        let features = vec![vec![1.0, 2.0, 3.0]];
        let targets = vec![7.0, 7.0, 7.0];
        let rows: Vec<usize> = (0..3).collect();
        let tree = Tree::fit(
            &features,
            &targets,
            &rows,
            TreeParams {
                max_depth: 3,
                min_samples_leaf: 1,
            },
        );
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.predict_row(&[99.0]), 7.0);
    }

    #[test]
    fn min_leaf_size_is_respected() {
        let features = vec![vec![1.0, 2.0, 3.0, 4.0]];
        let targets = vec![0.0, 0.0, 1.0, 1.0];
        let rows: Vec<usize> = (0..4).collect();
        let tree = Tree::fit(
            &features,
            &targets,
            &rows,
            TreeParams {
                max_depth: 5,
                min_samples_leaf: 2,
            },
        );
        // Only the 2/2 split is legal.
        match &tree.nodes[0] {
            Node::Split { threshold, .. } => assert!((*threshold - 2.5).abs() < 1e-9),
            Node::Leaf(_) => panic!("expected a split"),
        }
    }

    #[test]
    fn two_feature_interaction() {
        // y = 1 iff x0 > 0.5 (x1 is noise); the tree must pick feature 0.
        let features = vec![
            vec![0.1, 0.2, 0.9, 0.8, 0.15, 0.95],
            vec![5.0, 1.0, 2.0, 6.0, 3.0, 4.0],
        ];
        let targets = vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0];
        let rows: Vec<usize> = (0..6).collect();
        let tree = Tree::fit(
            &features,
            &targets,
            &rows,
            TreeParams {
                max_depth: 1,
                min_samples_leaf: 1,
            },
        );
        match &tree.nodes[0] {
            Node::Split { feature, .. } => assert_eq!(*feature, 0),
            Node::Leaf(_) => panic!("expected a split"),
        }
    }
}
