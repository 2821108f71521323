//! Catalog-scale classification: a name-keyed rule collection backed by
//! one [`CatalogMatcher`].
//!
//! [`RuleSet`] is the bridge between the engine's heterogeneous rules and
//! `av-match`'s id-addressed automaton: pattern rules compile into the
//! shared NFA union, dictionary/numeric rules ride the residual check
//! list behind prefilters derived from their public shape (vocabulary
//! length bounds and first bytes; the characters a finite `f64` can start
//! with). One [`RuleSet::classify`] call then returns every conforming rule name
//! in a single scan of the value — the primitive behind the service's
//! `classify` op, auto-tagging, and the nearest-rule suggestion in
//! `explain`.

use crate::{nearest_rule, AnyRule};
use av_match::{CatalogMatcher, Prefilter};
use std::collections::HashMap;
use std::sync::Arc;

struct SetEntry {
    name: String,
    /// Ranking metadata comes from the rule itself.
    rule: Arc<AnyRule>,
}

/// A named rule collection classifying values against every member in one
/// scan.
///
/// Matching rule names are returned **ranked most-specific-first**:
/// dictionaries (exact vocabularies) before pattern rules (ordered by
/// their corpus-estimated false-positive rate — the safest pattern is the
/// most domain-specific), before numeric ranges; ties break on the
/// lexicographically smaller name, so rankings are deterministic.
/// Classification reads the set through `&self`, so threads share one.
///
/// ```
/// use av_core::{AnyRule, DictionaryRule, FmdvConfig, RuleSet};
///
/// let mut set = RuleSet::new();
/// let vocab =
///     DictionaryRule::infer(&["red", "green", "red"], &FmdvConfig::default(), 1.0).unwrap();
/// set.insert("colors", AnyRule::Dictionary(vocab));
///
/// assert_eq!(set.classify("red"), vec!["colors"]);
/// assert!(set.classify("blue").is_empty());
/// ```
pub struct RuleSet {
    matcher: CatalogMatcher,
    entries: Vec<Option<SetEntry>>,
    ids: HashMap<String, u32>,
    free: Vec<u32>,
}

impl Default for RuleSet {
    fn default() -> RuleSet {
        RuleSet::new()
    }
}

impl std::fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleSet")
            .field("rules", &self.ids.len())
            .field("matcher", &self.matcher.stats())
            .finish_non_exhaustive()
    }
}

impl RuleSet {
    /// Empty set.
    pub fn new() -> RuleSet {
        RuleSet {
            matcher: CatalogMatcher::new(),
            entries: Vec::new(),
            ids: HashMap::new(),
            free: Vec::new(),
        }
    }

    /// Number of rules in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Update generation of the underlying matcher (bumped per
    /// insert/remove — the epoch stamp callers use to detect staleness).
    pub fn generation(&self) -> u64 {
        self.matcher.generation()
    }

    fn id_for(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            (self.entries.len() - 1) as u32
        });
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Add (or replace) a catalog rule under `name`. An `Arc` is shared
    /// with the caller, not copied.
    pub fn insert(&mut self, name: &str, rule: impl Into<Arc<AnyRule>>) {
        let id = self.id_for(name);
        let rule = rule.into();
        match rule.compiled_program() {
            Some(program) => self.matcher.insert(id, program),
            None => {
                let check = Arc::clone(&rule);
                self.matcher.insert_residual(
                    id,
                    prefilter_for(&rule),
                    Box::new(move |v| check.conforms(v)),
                );
            }
        }
        self.entries[id as usize] = Some(SetEntry {
            name: name.to_string(),
            rule,
        });
    }

    /// Remove `name`; returns whether it was present.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some(id) = self.ids.remove(name) else {
            return false;
        };
        self.matcher.remove(id);
        self.entries[id as usize] = None;
        self.free.push(id);
        true
    }

    /// Every rule name whose rule `value` conforms to, ranked
    /// most-specific-first (see the type docs for the order), as owned
    /// strings: [`RuleSet::ranked`] without the borrow.
    pub fn classify(&self, value: &str) -> Vec<String> {
        self.ranked(value, &mut Vec::new())
            .map(str::to_string)
            .collect()
    }

    /// The names of the rules `value` conforms to, ranked
    /// most-specific-first, borrowed from the set: one scan of `value`,
    /// the hit ids sorted in place in the caller's `hits` buffer, and no
    /// name copied.
    pub fn ranked<'a>(
        &'a self,
        value: &str,
        hits: &'a mut Vec<u32>,
    ) -> impl ExactSizeIterator<Item = &'a str> + Clone {
        self.rank(value, hits);
        hits.iter().map(|&id| {
            let entry = self.entries[id as usize].as_ref();
            entry.expect("ranked ids name live entries").name.as_str()
        })
    }

    /// Scan `value` and leave the ids of the rules it conforms to in
    /// `hits`, ranked by [`rank_key`]: the one ranking path every
    /// classification takes.
    fn rank(&self, value: &str, hits: &mut Vec<u32>) {
        let entries = &self.entries;
        self.matcher.classify_into(value, hits);
        hits.retain(|&id| entries[id as usize].is_some());
        let key = |id: &u32| rank_key(entries[*id as usize].as_ref().expect("retained"));
        hits.sort_by(|a, b| {
            key(a)
                .partial_cmp(&key(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    /// The nearest-conforming-rule suggestion, catalog-size-independent.
    ///
    /// Classifying `value` yields exactly the rules that accept it (the
    /// precise limit of a prefix-furthest-reach shortlist: full reach plus
    /// accept), so ranking by [`crate::program_distance`] over that
    /// shortlist returns the same suggestion as the O(catalog) loop over
    /// all rules — property the service's explain tests pin down. The
    /// shortlist is not re-checked. The excluded (failing) rule itself
    /// never wins.
    pub fn nearest_conforming(
        &self,
        value: &str,
        from: &AnyRule,
        exclude: &str,
    ) -> Option<(String, usize)> {
        let mut hits = Vec::new();
        self.rank(value, &mut hits);
        let candidates = hits
            .iter()
            .filter_map(|&id| self.entries[id as usize].as_ref())
            .filter(|e| e.name != exclude)
            .map(|e| (e.name.as_str(), e.rule.as_ref()));
        nearest_rule(from, candidates).map(|(name, d)| (name.to_string(), d))
    }
}

/// Specificity rank: dictionaries, then patterns by estimated FPR, then
/// numeric ranges; name breaks ties.
fn rank_key(entry: &SetEntry) -> (u8, f64, &str) {
    match entry.rule.as_ref() {
        AnyRule::Dictionary(_) => (0, 0.0, entry.name.as_str()),
        AnyRule::Pattern(r) => (1, r.expected_fpr, entry.name.as_str()),
        AnyRule::Numeric(_) => (2, 0.0, entry.name.as_str()),
    }
}

/// Conservative admission prefilter for a non-pattern rule, derived from
/// its public shape. Must never reject a conforming value.
fn prefilter_for(rule: &AnyRule) -> Prefilter {
    match rule {
        AnyRule::Pattern(_) => Prefilter::any(),
        AnyRule::Dictionary(r) => {
            let Some(min) = r.dictionary.iter().map(|e| e.len()).min() else {
                // Empty vocabulary conforms to nothing; admit nothing.
                return Prefilter::any().len_bounds(1, 0);
            };
            let max = r.dictionary.iter().map(|e| e.len()).max().unwrap_or(min);
            Prefilter::any()
                .len_bounds(min, max)
                .first_bytes(r.dictionary.iter().filter_map(|e| e.bytes().next()))
        }
        AnyRule::Numeric(_) => {
            // A parseable finite f64 starts with a digit, sign, dot, or
            // (trimmed) whitespace — including the lead bytes of Unicode
            // whitespace, which `str::trim` also strips.
            let firsts = (b'0'..=b'9')
                .chain([b'+', b'-', b'.'])
                .chain([b' ', b'\t', b'\r', b'\n', 0x0B, 0x0C])
                .chain([0xC2, 0xE1, 0xE2, 0xE3]);
            Prefilter::any()
                .len_bounds(1, usize::MAX)
                .first_bytes(firsts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DictionaryRule, FmdvConfig, NumericRule};

    fn dict_rule(values: &[&str]) -> AnyRule {
        AnyRule::Dictionary(DictionaryRule::infer(values, &FmdvConfig::default(), 1.0).unwrap())
    }

    fn numeric_rule(lo: f64, hi: f64) -> AnyRule {
        let train: Vec<String> = (0..20)
            .map(|i| (lo + (hi - lo) * i as f64 / 19.0).to_string())
            .collect();
        AnyRule::Numeric(NumericRule::infer_default(&train, &FmdvConfig::default()).unwrap())
    }

    #[test]
    fn residual_rules_classify_through_prefilters() {
        let mut set = RuleSet::new();
        set.insert("colors", dict_rule(&["red", "green", "blue"]));
        set.insert("range", numeric_rule(0.0, 100.0));
        assert_eq!(set.classify("red"), vec!["colors"]);
        assert_eq!(set.classify("42"), vec!["range"]);
        assert_eq!(
            set.classify(" 42 "),
            vec!["range"],
            "trimmed parse still admitted"
        );
        assert!(set.classify("purple").is_empty());
        assert!(set.classify("").is_empty());
    }

    #[test]
    fn remove_and_replace_by_name() {
        let mut set = RuleSet::new();
        set.insert("vocab", dict_rule(&["a"]));
        assert_eq!(set.len(), 1);
        assert!(set.remove("vocab"));
        assert!(!set.remove("vocab"));
        assert!(set.is_empty());
        assert!(set.classify("a").is_empty());
        let g = set.generation();
        set.insert("vocab", dict_rule(&["b"]));
        assert!(set.generation() > g);
        assert_eq!(set.classify("b"), vec!["vocab"]);
    }

    #[test]
    fn ranking_prefers_specific_rules() {
        let mut set = RuleSet::new();
        set.insert("statuses", dict_rule(&["42"]));
        set.insert("range", numeric_rule(0.0, 100.0));
        assert_eq!(set.classify("42"), vec!["statuses", "range"]);
    }
}
