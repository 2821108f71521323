//! # av-stats — statistical tests for Auto-Validate
//!
//! From-scratch implementations of the statistics the paper relies on:
//!
//! * **Two-sample homogeneity tests** (§4): [`fisher_exact`] (two-tailed)
//!   and [`chi2_yates`] (Pearson's χ² with Yates continuity correction) on
//!   2×2 contingency tables, used by FMDV-H to decide whether the fraction
//!   of non-conforming values in a future column differs significantly from
//!   training time.
//! * Supporting special functions: [`ln_gamma`], `ln_factorial`,
//!   regularized incomplete gamma ([`gamma_p`] / [`gamma_q`]) and the
//!   chi-squared survival function [`chi2_sf`].
//! * [`f1_score`], shared by the evaluation harness.

mod contingency;
mod descriptive;
mod gamma;

pub use contingency::{chi2_yates, fisher_exact, HomogeneityTest, Table2x2};
pub use descriptive::f1_score;
pub use gamma::{chi2_sf, gamma_p, gamma_q, ln_gamma};
