//! # av-baselines — every method Auto-Validate is compared against (§5.2)
//!
//! Faithful re-implementations of the *rules each tool infers for
//! string-valued columns*, behind one [`ColumnValidator`] interface:
//!
//! | family | methods |
//! |---|---|
//! | dictionary validators | [`Tfdv`], [`DeequCat`], [`DeequFra`] |
//! | pattern profilers | [`PottersWheel`], [`Ssis`], [`XSystem`], [`FlashProfile`] |
//! | curated types | [`Grok`] |
//! | schema matching | [`SmInstance`] (SM-I-1/10), [`SmPattern`] (SM-P-M/P) |
//! | upper bounds | [`fd_recall_upper_bound`] (FD-UB), [`ad_recall_upper_bound`] (AD-UB) |
//! | user study | [`SimulatedProgrammer`] (Table 3) |

mod bounds;
mod dictionary;
mod grok;
mod profile;
mod profilers;
mod programmer;
mod schema_matching;
mod validator;

pub use bounds::{ad_recall_upper_bound, common_patterns, fd_recall_upper_bound};
pub use dictionary::{DeequCat, DeequFra, Tfdv};
pub use grok::Grok;
pub use profilers::{FlashProfile, PottersWheel, Ssis, XSystem};
pub use programmer::{study_panel, SimulatedProgrammer, Skill};
pub use schema_matching::{SchemaMatchCorpus, SmInstance, SmPattern};
pub use validator::{baseline_by_name, ColumnValidator, InferredRule};
