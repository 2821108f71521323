//! Property-based tests for the ML substrate.

use av_bench::ml::{average_precision, r2_score, CategoryEncoder, Gbdt, GbdtConfig};
use proptest::prelude::*;

proptest! {
    /// R² of the truth against itself is 1; shifting predictions can only
    /// lower it.
    #[test]
    fn r2_self_is_one(ys in proptest::collection::vec(-100.0f64..100.0, 2..40)) {
        prop_assume!(ys.iter().any(|y| (y - ys[0]).abs() > 1e-9));
        prop_assert!((r2_score(&ys, &ys) - 1.0).abs() < 1e-9);
        let shifted: Vec<f64> = ys.iter().map(|y| y + 5.0).collect();
        prop_assert!(r2_score(&ys, &shifted) < 1.0);
    }

    /// Average precision is within [0,1] and equals 1 for perfect rankings.
    #[test]
    fn ap_bounds(labels in proptest::collection::vec(0u8..2, 2..40)) {
        let truth: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
        prop_assume!(truth.iter().any(|&t| t > 0.5));
        // Perfect ranking: score = label.
        prop_assert!((average_precision(&truth, &truth) - 1.0).abs() < 1e-9);
        // Arbitrary constant scores stay within bounds.
        let flat = vec![0.5; truth.len()];
        let ap = average_precision(&truth, &flat);
        prop_assert!((0.0..=1.0).contains(&ap));
    }

    /// The encoder is a bijection on its training vocabulary and -1 outside.
    #[test]
    fn encoder_bijection(vocab in proptest::collection::hash_set("[a-z]{1,6}", 1..20)) {
        let values: Vec<String> = vocab.iter().cloned().collect();
        let enc = CategoryEncoder::fit(&values);
        prop_assert_eq!(enc.vocab_size(), values.len());
        let mut seen = std::collections::HashSet::new();
        for v in &values {
            let code = enc.encode(v);
            prop_assert!(code >= 0.0);
            prop_assert!(seen.insert(code.to_bits()), "codes must be distinct");
        }
        prop_assert_eq!(enc.encode("THIS-IS-NOT-IN-VOCAB"), -1.0);
    }

    /// Training loss decreases with more trees on a learnable function.
    #[test]
    fn boosting_reduces_training_error(seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 120;
        let x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let y: Vec<f64> = x.iter().map(|v| if *v > 0.2 { 2.0 } else { -1.0 }).collect();
        let mse = |k: usize| {
            let cfg = GbdtConfig { n_trees: k, ..Default::default() };
            let m = Gbdt::train(std::slice::from_ref(&x), &y, cfg);
            let p = m.predict(std::slice::from_ref(&x));
            p.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / n as f64
        };
        prop_assert!(mse(30) <= mse(1) + 1e-9);
    }
}
