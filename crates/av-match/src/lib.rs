//! # av-match — one byte-level NFA for catalog rules and regexes
//!
//! Two front-ends lower onto the same automaton and the same simulation:
//! [`CatalogMatcher`] matches a value against every pattern rule it holds
//! at once (and [`explain`] says where one rule fails), and [`Regex`] is
//! the regex engine of the baselines.
//!
//! ## Catalog-wide multi-pattern classification
//!
//! Validation asks whether one value conforms to one rule; the
//! data-routing workloads the paper's production deployment describes —
//! tagging, routing, nearest-rule explanation — ask the opposite question:
//! *which of all N catalog rules match this value?* Running N compiled
//! programs per value makes that O(catalog). This crate answers both in
//! **one scan of the value**, independent of catalog size and of how the
//! pattern branches:
//!
//! 1. every pattern rule's fused instruction program
//!    ([`av_pattern::CompiledPattern::instructions`]) is translated into a
//!    fragment of one shared **byte-level NFA union**, its accept state
//!    tagged with the rule id;
//! 2. classification runs a **lazily determinized DFA** over the union —
//!    each cached DFA state is a set of NFA states, transitions
//!    materialize on first use into one flat `u32` table indexed
//!    `state * 256 + byte`, and the hot path is one table load per input
//!    byte;
//! 3. the DFA cache is **bounded** ([`MatcherConfig::with_budget`]):
//!    past the budget, the current value finishes on direct NFA
//!    simulation and the least-recently-used half of the cache is
//!    evicted, so pathological catalogs degrade gracefully instead of
//!    exploding memory;
//! 4. rules that are not patterns — dictionaries and numeric ranges —
//!    participate as **residuals**: a cheap
//!    [`Prefilter`] (length bounds, first-byte set) gates an arbitrary
//!    membership check, keeping [`CatalogMatcher::classify`] total over a
//!    heterogeneous catalog.
//!
//! [`CatalogMatcher::is_match`] is the boolean scan: it stops at the dead
//! state and builds no id list. A matcher holding one rule is how
//! `av-core`'s `ValidationRule` checks values — a served `validate` and
//! `classify` both run this automaton. [`explain`] names where a value
//! failed from one simulation pass of the rule's NFA fragment.
//!
//! Maintenance is **incremental** (after Berkholz et al., *FO+MOD queries
//! under updates*): the automaton is anchored, so the only DFA state that
//! sees the global start closure is the start state itself.
//! [`CatalogMatcher::insert`] appends an edge-disjoint fragment and
//! re-points the start key — every cached DFA state stays valid.
//! [`CatalogMatcher::remove`] tombstones one fragment and evicts exactly
//! the cached states whose key intersects it. Each update bumps a
//! generation stamp, mirroring the sharded index's epoch pattern.
//!
//! ```
//! use av_match::CatalogMatcher;
//! use av_pattern::{parse, CompiledPattern};
//!
//! let mut matcher = CatalogMatcher::new();
//! let rules = [
//!     "<digit>{4}-<digit>{2}-<digit>{2}", // 0: ISO date
//!     "<digit>+-<digit>+-<digit>+",       // 1: dashed number triple
//!     "<upper>{3}",                       // 2: currency-ish code
//! ];
//! for (id, rule) in rules.iter().enumerate() {
//!     matcher.insert(id as u32, &CompiledPattern::compile(&parse(rule).unwrap()));
//! }
//!
//! // One scan returns every matching rule id.
//! assert_eq!(matcher.classify("2021-04-13"), vec![0, 1]);
//! assert_eq!(matcher.classify("USD"), vec![2]);
//!
//! // Updates are incremental: remove evicts only affected DFA states.
//! matcher.remove(1);
//! assert_eq!(matcher.classify("2021-04-13"), vec![0]);
//! ```
//!
//! ## Regexes
//!
//! [`Regex`] serves the Grok pattern library (§5.2), the simulated
//! programmers of the user study (Table 3) and rules exported with
//! `to_regex`. A pattern always matches the *whole* value. The dialect:
//! literals and `.` (anything but `\n`); the escapes `\d \D \w \W \s \S`
//! (ASCII classes), `\n \t \r \0` and escaped metacharacters; character
//! classes `[...]` with ranges, negation and perl classes inside; grouping
//! `(...)` and `(?:...)`; alternation `|`; the quantifiers
//! `* + ? {m} {m,} {m,n}`, greedy only (matching is an NFA, so greediness
//! does not affect acceptance); `^` and `$` are accepted and ignored.
//! Repeats expand exactly, and a pattern whose automaton would pass a
//! fixed state bound is refused with a [`RegexError`].
//!
//! ```
//! use av_match::Regex;
//! let re = Regex::new(r"\d{4}-\d{2}-\d{2}").unwrap();
//! assert!(re.is_full_match("2019-03-01"));
//! assert!(!re.is_full_match("2019-3-1"));
//! assert!(Regex::new("[^a-z]{2}").unwrap().is_full_match("é€"));
//! ```

mod ast;
mod explain;
mod matcher;
mod nfa;
mod regex;

pub use ast::RegexError;
pub use explain::{explain, MatchTrace};
pub use matcher::{CatalogMatcher, MatcherConfig, MatcherStats, Prefilter};
pub use nfa::NfaScratch;
pub use regex::Regex;
