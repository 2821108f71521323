//! The descriptive statistic the evaluation harness shares.

/// Harmonic mean of precision and recall; 0.0 when both are 0.
pub fn f1_score(precision: f64, recall: f64) -> f64 {
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_edge_cases() {
        assert_eq!(f1_score(0.0, 0.0), 0.0);
        assert_eq!(f1_score(1.0, 1.0), 1.0);
        assert!((f1_score(0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
    }
}
