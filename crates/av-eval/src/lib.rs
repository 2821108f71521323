//! # av-eval — the SIGMOD'21 §5 evaluation harness
//!
//! Implements the paper's programmatic methodology: 10/90 train/test
//! splits, precision = "no false alarm on the same column's future
//! values", recall = "fraction of other columns flagged" with recall
//! squashed to zero on any false positive, plus the manually-labeled
//! ground-truth adjustments of Table 2 (our generators carry their
//! ground-truth patterns, standing in for the authors' hand labels).
//!
//! [`FmdvValidator`] and [`NoIndexFmdv`] adapt the `av-core` engine to the
//! same [`av_baselines::ColumnValidator`] interface all baselines use, so
//! one harness ([`evaluate_method`]) produces every number in Fig. 10–14.
//! The harness runs exclusively through the [`av_core::Validator`] trait:
//! FMDV rules go in via `InferredRule::from_validator` (no bespoke wrapper
//! closures), and every pass/fail decision streams borrowed `&str` values.

mod fmdv_validator;
mod methodology;

pub use fmdv_validator::{FmdvValidator, NoIndexFmdv};
pub use methodology::{evaluate_method, CaseResult, MethodResult};
