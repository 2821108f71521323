//! Log-gamma and regularized incomplete gamma functions.
//!
//! Implemented from scratch (Lanczos approximation and standard
//! series/continued-fraction evaluation, cf. Numerical Recipes §6.1–6.2) so
//! the validation tests need no external math dependency.

/// Lanczos coefficients (g = 7, n = 9), double precision.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.5203681218851,
    -1259.1392167224028,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507343278686905,
    -0.13857109526572012,
    9.984_369_578_019_572e-6,
    1.5056327351493116e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Accurate to ~1e-13 relative error over the range used by the tests
/// (factorials up to millions of trials).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = LANCZOS[0];
    let t = x + LANCZOS_G + 0.5;
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln(n!)` with a small cache for the common range.
pub(crate) fn ln_factorial(n: u64) -> f64 {
    const CACHE_SIZE: usize = 256;
    use std::sync::OnceLock;
    static CACHE: OnceLock<Vec<f64>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| {
        let mut v = Vec::with_capacity(CACHE_SIZE);
        let mut acc = 0.0f64;
        v.push(0.0); // 0! = 1
        for i in 1..CACHE_SIZE {
            acc += (i as f64).ln();
            v.push(acc);
        }
        v
    });
    if (n as usize) < cache.len() {
        cache[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Regularized lower incomplete gamma P(a, x) = γ(a,x) / Γ(a).
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain error: a={a}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma Q(a, x) = 1 − P(a, x).
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain error: a={a}, x={x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion for P(a, x), converges quickly for x < a+1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut sum = 1.0 / a;
    let mut term = sum;
    let mut ap = a;
    for _ in 0..500 {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    (sum.ln() + a * x.ln() - x - ln_gamma(a)).exp()
}

/// Continued fraction for Q(a, x) (modified Lentz), good for x ≥ a+1.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (a * x.ln() - x - ln_gamma(a)).exp() * h
}

/// Survival function of the chi-squared distribution with `k` degrees of
/// freedom: `P(X ≥ x)`.
pub fn chi2_sf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "degrees of freedom must be positive");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(k / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts: [(f64, f64); 6] = [
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 2.0),
            (4.0, 6.0),
            (5.0, 24.0),
            (11.0, 3628800.0),
        ];
        for (x, f) in facts {
            assert!(close(ln_gamma(x), f.ln(), 1e-12), "Γ({x})");
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-12
        ));
        // Γ(3/2) = sqrt(pi)/2
        assert!(close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12
        ));
    }

    #[test]
    fn ln_factorial_cache_and_fallback_agree() {
        for n in [0u64, 1, 5, 200, 255, 256, 300, 10_000] {
            let direct = ln_gamma(n as f64 + 1.0);
            assert!(close(ln_factorial(n), direct, 1e-12), "n={n}");
        }
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for a in [0.5, 1.0, 2.5, 10.0, 50.0] {
            for x in [0.1, 1.0, 5.0, 20.0, 100.0] {
                let s = gamma_p(a, x) + gamma_q(a, x);
                assert!(close(s, 1.0, 1e-10), "a={a} x={x} sum={s}");
            }
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // For a=1: P(1, x) = 1 - exp(-x).
        for x in [0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!(close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12), "x={x}");
        }
    }

    #[test]
    fn chi2_sf_known_values() {
        // Reference values from standard chi-squared tables.
        assert!(close(chi2_sf(3.841, 1.0), 0.05, 2e-3));
        assert!(close(chi2_sf(6.635, 1.0), 0.01, 2e-3));
        assert!(close(chi2_sf(5.991, 2.0), 0.05, 2e-3));
        assert!((chi2_sf(0.0, 1.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn chi2_sf_is_monotone_decreasing() {
        let mut prev = 1.0;
        for i in 1..100 {
            let x = i as f64 * 0.5;
            let v = chi2_sf(x, 1.0);
            assert!(v <= prev + 1e-12);
            prev = v;
        }
    }
}
