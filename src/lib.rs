//! # auto-validate
//!
//! A from-scratch Rust reproduction of **"Auto-Validate: Unsupervised Data
//! Validation Using Data-Domain Patterns Inferred from Data Lakes"**
//! (Jie Song and Yeye He, SIGMOD 2021).
//!
//! Recurring data pipelines break silently when upstream feeds drift.
//! Auto-Validate infers regex-like **data-domain patterns** for
//! string-valued columns by consulting a large corpus of columns from the
//! same data lake: a pattern is a good validator when it (1) rarely splits
//! corpus columns into matching and non-matching parts (low estimated
//! false-positive rate) and (2) matches many corpus columns (coverage).
//!
//! ## Quick start
//!
//! One fluent builder configures the whole stack, and every inferred rule
//! is a [`prelude::Validator`]: borrowed `&str` inputs end to end, batch or
//! streaming, with identical results.
//!
//! ```
//! use auto_validate::prelude::*;
//!
//! // 1. A corpus T — here a small synthetic lake; in production, your own.
//! let corpus = generate_lake(&LakeProfile::tiny(), 42);
//! let columns: Vec<&Column> = corpus.columns().collect();
//!
//! // 2. One builder covers indexing, pattern generation, and FMDV knobs.
//! let builder = AutoValidateBuilder::new().fpr_target(0.1).tau(13);
//! let index = builder.build_index(&columns); // offline: one scan (§2.4)
//! let engine = builder.engine(&index); //        online: milliseconds/rule
//!
//! // 3. Infer a validation rule — training values are borrowed, never
//! //    copied (any &str iterator works).
//! let train: Vec<String> = (1..=30).map(|d| format!("2019-03-{d:02}")).collect();
//! let rule = engine.infer_default(&train).expect("rule");
//!
//! // 4. Validate future data through the unified Validator trait: same
//! //    domain passes, drifted data is flagged.
//! let april: Vec<String> = (1..=30).map(|d| format!("2019-04-{d:02}")).collect();
//! assert!(!rule.validate_batch(april.iter().map(String::as_str)).flagged);
//!
//! // …or stream values one at a time in O(1) memory; `finish()` is
//! // bit-identical to the batch report.
//! let mut session = rule.session();
//! for d in 1..=30 {
//!     session.push(&format!("user-{d}"));
//! }
//! assert!(session.finish().flagged);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`av_pattern`] | pattern language, tokenizer, `P(v)`/`H(C)` enumeration, matcher |
//! | [`av_index`] | offline corpus index: pattern → (FPR, coverage) |
//! | [`av_core`] | FMDV, FMDV-V, FMDV-H, FMDV-VH, CMDV, Auto-Tag; the unified `Validator` trait, streaming `ValidationSession`, `AutoValidateBuilder` |
//! | [`av_match`] | one byte-level NFA: the catalog-wide multi-pattern matcher (NFA union + lazy DFA cache, one scan classifies a value against every rule) and the baselines' regex engine |
//! | [`av_stats`] | Fisher's exact test, χ² with Yates, special functions |
//! | [`av_corpus`] | synthetic data lakes, domain generators, benchmarks |
//! | [`av_baselines`] | TFDV, Deequ, Potter's Wheel, Grok, schema matching, … |
//! | [`av_service`] | long-running validation service: shared live index, persistent rule catalog and its catalog automaton, incremental ingestion, crash-safe durability, the JSONL protocol |
//!
//! ## Running as a service
//!
//! The paper deploys Auto-Validate as a long-running production service;
//! [`av_service`] is that shape. Rules are inferred once, named, persisted
//! in a catalog, and survive restarts; new corpus columns merge into the
//! live index incrementally (no rebuild):
//!
//! ```
//! use av_service::{ServiceConfig, ValidationService};
//! use auto_validate::prelude::*;
//!
//! let dir = std::env::temp_dir().join(format!("av_doc_{}", std::process::id()));
//! let corpus = generate_lake(&LakeProfile::tiny(), 42);
//! let columns: Vec<Column> = corpus.columns().cloned().collect();
//!
//! // First run: ingest, infer a named rule, persist.
//! let service = ValidationService::new(ServiceConfig::with_data_dir(&dir));
//! service.ingest(&columns).unwrap();
//! let march: Vec<String> = (1..=30).map(|d| format!("2019-03-{d:02}")).collect();
//! service.infer_rule("feeds/date", &march, None).unwrap();
//! service.persist().unwrap();
//! drop(service);
//!
//! // Restart: catalog and index reload from disk; validation just works.
//! let service = ValidationService::open(ServiceConfig::with_data_dir(&dir)).unwrap();
//! let drifted: Vec<String> = (0..30).map(|i| format!("user-{i}")).collect();
//! assert!(service.validate("feeds/date", &drifted).unwrap().flagged);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! The `av-serve` binary exposes the same engine over a JSONL protocol on
//! stdin/stdout or TCP (see `av_service::protocol`).

pub use av_baselines;
pub use av_core;
pub use av_corpus;
pub use av_index;
pub use av_match;
pub use av_pattern;
pub use av_service;
pub use av_stats;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use av_core::{
        nearest_conforming_rule, program_distance, AnyRule, AutoValidate, AutoValidateBuilder,
        DictionaryRule, Explanation, FmdvConfig, InferError, Report, RuleSet, TagRule, Tally,
        ValidationReport, ValidationRule, ValidationSession, Validator, Variant, Verdict,
    };
    pub use av_corpus::{generate_lake, Benchmark, Column, Corpus, LakeProfile, Table};
    pub use av_index::{IndexConfig, IndexDelta, PatternIndex};
    pub use av_match::CatalogMatcher;
    pub use av_pattern::{matches, parse, Pattern, PatternConfig, Token};
    pub use av_service::{ClassifyOutcome, RuleCatalog, ServiceConfig, ValidationService};
}
