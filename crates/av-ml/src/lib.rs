//! # av-ml — gradient-boosted trees for the schema-drift case study
//!
//! The paper's Fig. 15 trains XGBoost on eleven Kaggle tasks and shows that
//! silently swapping two categorical attributes in the test data degrades
//! quality by up to 78% — a failure Auto-Validate catches before scoring.
//! This crate provides the ML substrate for that experiment, written from
//! scratch: depth-limited regression trees boosted with squared-error or
//! logistic gradients ([`Gbdt`]), per-column categorical encoding
//! ([`CategoryEncoder`]) whose positional nature is what drift breaks, and
//! the reported metrics ([`r2_score`], [`average_precision`]).

mod encode;
mod gbdt;
mod metrics;
mod tree;

pub use encode::CategoryEncoder;
pub use gbdt::{Gbdt, GbdtConfig, Objective};
pub use metrics::{average_precision, r2_score};
