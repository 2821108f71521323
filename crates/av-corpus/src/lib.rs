//! # av-corpus — synthetic data lakes, domains and benchmarks
//!
//! The data substrate for the Auto-Validate reproduction. The paper
//! evaluates on two corpora that cannot be redistributed (Microsoft's
//! production data lake and a NationalArchives crawl); this crate generates
//! synthetic corpora with the same *statistical structure*:
//!
//! * a catalog of ~40 machine-generated [`Domain`]s (timestamps, GUIDs,
//!   knowledge-base entity ids, locales, ads statuses, ... — modeled on
//!   Fig. 3) each with a derived ground-truth validation pattern;
//! * [`LakeProfile`]s for the enterprise (`T_E`) and government (`T_G`)
//!   corpora: Zipf domain popularity, ~33% natural-language columns, ~12%
//!   impure columns, composite columns (§3), ad-hoc special values (§4);
//! * [`Benchmark`] sampling with the paper's 10%/90% train/test split
//!   (§5.1);
//! * [`kaggle_tasks`] — the eleven synthetic prediction tasks of the
//!   schema-drift case study (Fig. 15).
//!
//! Everything is deterministic given a `u64` seed.

mod benchmark;
mod column;
mod domain;
mod domains;
mod kaggle;
mod lake;

pub use benchmark::{Benchmark, BenchmarkCase};
pub use column::{Column, ColumnKind, ColumnMeta, Corpus, CorpusStats, Table};
pub use domain::Domain;
pub use domains::{machine_domains, CompositeDomain};
pub use kaggle::{kaggle_tasks, CatFormat, KaggleTask};
pub use lake::{generate_lake, LakeProfile};
