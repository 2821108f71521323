//! # av-pattern — the Auto-Validate pattern language
//!
//! The pattern language of *Auto-Validate: Unsupervised Data Validation
//! Using Data-Domain Patterns Inferred from Data Lakes* (SIGMOD 2021, §2.1).
//!
//! A [`Pattern`] is a sequence of [`Token`]s drawn from a string
//! generalization hierarchy (Fig. 4 of the paper): literals at the leaves,
//! class tokens like `<digit>{2}`, `<letter>+`, `<num>` above them, and the
//! root `<any>+`. The crate provides:
//!
//! * [`tokenize`] — the coarse lexer splitting values into same-class runs
//!   ([`Run`]s are slices of the input — tokenization allocates no text);
//! * [`matches()`](fn@matches) — full-string pattern matching (`h ∈ P(v)` at
//!   test time), the character-level reference matcher used as the oracle;
//! * [`CompiledPattern`] — patterns lowered once into flat byte-level
//!   matching programs (fused scans, pre-encoded literals, explicit-stack
//!   backtracking) whose steady-state [`CompiledPattern::matches`] calls
//!   allocate nothing. `av-match` builds its automaton — what a rule's
//!   checks run — from these programs; the backtracking search stays the
//!   reference it is tested against and the recorder behind `explain`;
//! * [`analyze_column`] / [`hypothesis_space`] / [`patterns_of_value`] —
//!   Algorithm 1: coarse grouping plus per-position drill-down, producing
//!   `P(v)`, `P(D)` and `H(C)`;
//! * [`parse`] — the inverse of `Display`, for persisting patterns.
//!
//! This crate is the zero-copy foundation of the workspace-wide `Validator`
//! API (`av_core`): every entry point takes borrowed `&str`-likes, so the
//! whole tokenize → hypothesis space → infer → validate pipeline runs
//! without an intermediate `Vec<String>`.
//!
//! ```
//! use av_pattern::{hypothesis_space, matches, tokenize, PatternConfig};
//!
//! // Borrowed values in; runs borrow straight back out of them.
//! let column = ["Mar 01 2019", "Mar 04 2019", "Mar 30 2019"];
//! assert_eq!(tokenize(column[0])[0].text, "Mar");
//!
//! let h = hypothesis_space(&column, &PatternConfig::default());
//! // Every hypothesis is consistent with every observed value…
//! assert!(h.iter().all(|p| column.iter().all(|v| matches(p, v))));
//! // …and the ideal validation pattern from the paper is among them.
//! let ideal = av_pattern::parse("<letter>{3} <digit>{2} <digit>{4}").unwrap();
//! assert!(h.contains(&ideal));
//! ```

mod analyze;
mod compile;
mod generalize;
mod matcher;
mod parser;
mod pattern;
mod token;
mod tokenize;

pub use analyze::{
    analyze_column, column_pattern_profile, hypothesis_space, merged_token_count,
    patterns_of_value, stream_column_profile, BitSet, CoarseGroup, ColumnAnalysis, EnumScratch,
    PositionOptions, StreamedPattern, SupportedPattern,
};
pub use compile::{ClassView, CompiledPattern, InstView, MatchTrace};
pub use generalize::{coarse_pattern, PatternConfig};
pub use matcher::{furthest_mismatch, matches};
pub use parser::{parse, ParseError};
pub use pattern::{fnv1a, FingerprintState, Pattern};
pub use token::{CharClass, Token};
pub use tokenize::{token_count, tokenize, Run};
