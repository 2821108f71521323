//! [`CatalogMatcher`]: the catalog-wide classifier, and the one-rule
//! automaton a pattern rule validates with.
//!
//! Pattern rules live in one NFA union ([`crate::nfa`]); matching runs a
//! **lazily determinized DFA** over it. DFA states are keyed by their
//! sorted NFA state-set and cached; every state's transitions are one row
//! of a flat `u32` table indexed `state * 256 + byte`, so the hot path is
//! one table load per input byte, with no per-byte bookkeeping. The cache
//! is bounded (4096 states, or [`MatcherConfig::with_budget`]): when a
//! value would need a state beyond the budget, the rest of that value is
//! finished by direct NFA simulation (correct, just slower) and the
//! least-recently-used half of the cache is evicted afterwards so
//! determinization can resume. Recency is stamped per value (its start and
//! final states) and per materialized transition, never per byte. A
//! pathological catalog therefore degrades to NFA-simulation costs instead
//! of exploding memory.
//!
//! [`CatalogMatcher::classify`] names every accepting rule;
//! [`CatalogMatcher::is_match`] only asks whether one accepts, so it stops
//! at the dead state and builds no id list. A matcher holding a single
//! rule is that rule's validator: one pass over the value, whatever the
//! pattern — where backtracking over `<any>+` runs is quadratic or worse.
//!
//! Updates are incremental, in the spirit of the dynamic-evaluation
//! literature (Berkholz et al., *FO+MOD queries under updates*): because
//! the union automaton is *anchored* (no self-loop on the start state —
//! values are matched whole, never searched), the global ε-closure of all
//! rule entries appears only in the start state's key. [`CatalogMatcher::insert`]
//! appends an edge-disjoint fragment and merely re-points the start key;
//! every cached DFA state remains valid, because stepping a set that
//! contains no new-fragment states can never reach the new fragment.
//! [`CatalogMatcher::remove`] tombstones the rule's fragment and evicts
//! exactly the cached states whose key intersects its id range. Each
//! update bumps a generation stamp (the `ShardedIndex` epoch pattern) so
//! callers can detect staleness of anything they derived from a classify.

use crate::nfa::{Fragment, Nfa, NfaScratch};
use av_pattern::CompiledPattern;
use std::collections::{BTreeMap, HashMap};

/// Marks a DFA transition not yet computed.
const UNKNOWN: u32 = u32::MAX;
/// Marks a DFA transition into the empty state-set (no rule can match).
const DEAD: u32 = u32::MAX - 1;

/// Cached DFA states before classification falls back to NFA simulation
/// and the LRU half of the cache is evicted; comfortably covers thousands
/// of machine-data rules.
const MAX_DFA_STATES: usize = 4096;

/// The DFA budget of a [`CatalogMatcher`] ([`CatalogMatcher::new`] uses
/// 4096 states). A rule's one-rule automaton takes a smaller one, and tests
/// starve the cache to drive the NFA fallback.
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    max_dfa_states: usize,
}

impl MatcherConfig {
    /// Config with an explicit DFA state budget (floor 1).
    pub fn with_budget(max_dfa_states: usize) -> MatcherConfig {
        MatcherConfig {
            max_dfa_states: max_dfa_states.max(1),
        }
    }
}

/// Counters describing a matcher's current shape and lifetime behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatcherStats {
    /// Total rules (pattern + residual).
    pub rules: usize,
    /// Rules compiled into the NFA union.
    pub pattern_rules: usize,
    /// Rules on the residual check list (dictionary/numeric/opaque).
    pub residual_rules: usize,
    /// NFA arena size, including tombstones awaiting compaction.
    pub nfa_states: usize,
    /// Live cached DFA states.
    pub dfa_states: usize,
    /// Times the LRU half of the DFA cache was evicted.
    pub dfa_evictions: u64,
    /// Values (or value suffixes) classified by NFA simulation because the
    /// DFA budget was exhausted mid-scan.
    pub nfa_fallbacks: u64,
    /// Arena compactions triggered by accumulated tombstones.
    pub compactions: u64,
    /// Update generation: bumped by every insert/remove.
    pub generation: u64,
}

/// A cheap admission test run before a residual rule's full check.
///
/// Conservative by construction: `admits` may return true for
/// non-matching values, never false for matching ones.
#[derive(Debug, Clone, Default)]
pub struct Prefilter {
    min_len: usize,
    max_len: Option<usize>,
    first_bytes: Option<[u64; 4]>,
}

impl Prefilter {
    /// Admits every value (no filtering).
    pub fn any() -> Prefilter {
        Prefilter::default()
    }

    /// Restrict to byte lengths in `min..=max`.
    pub fn len_bounds(mut self, min: usize, max: usize) -> Prefilter {
        self.min_len = min;
        self.max_len = Some(max);
        self
    }

    /// Restrict to values whose first byte is one of `bytes` (non-empty
    /// values only; the length bounds govern the empty value).
    pub fn first_bytes(mut self, bytes: impl IntoIterator<Item = u8>) -> Prefilter {
        let mut set = [0u64; 4];
        for b in bytes {
            set[(b >> 6) as usize] |= 1 << (b & 63);
        }
        self.first_bytes = Some(set);
        self
    }

    #[inline]
    fn admits(&self, value: &str) -> bool {
        let n = value.len();
        if n < self.min_len || self.max_len.is_some_and(|m| n > m) {
            return false;
        }
        match (&self.first_bytes, value.as_bytes().first()) {
            (Some(set), Some(&b)) => set[(b >> 6) as usize] >> (b & 63) & 1 != 0,
            _ => true,
        }
    }
}

/// A non-pattern rule: prefilter plus arbitrary membership check.
struct Residual {
    prefilter: Prefilter,
    check: Box<dyn Fn(&str) -> bool + Send + Sync>,
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("prefilter", &self.prefilter)
            .finish_non_exhaustive()
    }
}

/// Transitions per DFA state: one per byte value.
const STRIDE: usize = 256;

/// One cached (determinized) DFA state; its transitions are its row of
/// [`DfaCache::trans`].
#[derive(Debug)]
struct DfaState {
    /// Sorted NFA state-set this DFA state denotes — its identity.
    key: Box<[u32]>,
    /// Sorted rule ids accepting in this state.
    accepts: Box<[u32]>,
    /// LRU clock value of the last stamp (see [`DfaCache::touch`]).
    last_used: u64,
}

#[derive(Debug, Default)]
struct DfaCache {
    /// Every slot's transitions, [`STRIDE`] per slot: `trans[slot * 256 +
    /// byte]` is the successor slot, [`UNKNOWN`], or [`DEAD`]. A freed
    /// slot keeps its row until the slot is reused.
    trans: Vec<u32>,
    slots: Vec<Option<DfaState>>,
    free: Vec<u32>,
    by_key: HashMap<Box<[u32]>, u32>,
    /// Monotonic visit clock for LRU.
    tick: u64,
    /// Slot of the start state, or [`UNKNOWN`] when not materialized.
    start: u32,
}

impl DfaCache {
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn clear(&mut self) {
        self.trans.clear();
        self.slots.clear();
        self.free.clear();
        self.by_key.clear();
        self.start = UNKNOWN;
    }

    #[inline]
    fn state(&self, sid: u32) -> &DfaState {
        self.slots[sid as usize].as_ref().expect("live DFA slot")
    }

    /// Index of the transition `sid --b-->` in [`DfaCache::trans`].
    #[inline]
    fn edge(sid: u32, b: u8) -> usize {
        sid as usize * STRIDE + b as usize
    }

    /// Stamp `sid` as used now. Called per value and per materialized
    /// transition, not per byte: the scan loop only reads the table.
    fn touch(&mut self, sid: u32) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(state) = self.slots[sid as usize].as_mut() {
            state.last_used = tick;
        }
    }

    fn evict_slot(&mut self, sid: u32) {
        if let Some(state) = self.slots[sid as usize].take() {
            self.by_key.remove(&state.key);
            self.free.push(sid);
            if self.start == sid {
                self.start = UNKNOWN;
            }
        }
    }

    /// Null out transitions into evicted slots (`gone[slot]` true).
    fn sweep_transitions(&mut self, gone: &[bool]) {
        for t in &mut self.trans {
            if *t < gone.len() as u32 && gone[*t as usize] {
                *t = UNKNOWN;
            }
        }
    }
}

/// Where a value's walk through the DFA ended.
enum Walk {
    /// Every byte stepped inside the cache; the value ends in this state.
    End(u32),
    /// No rule can accept the value any more.
    Dead,
    /// The DFA budget ran out with the bytes from `at` still to read,
    /// in the state whose NFA set is `seed`.
    Budget { seed: Vec<u32>, at: usize },
}

/// A catalog-wide multi-pattern matcher: classify a value against every
/// rule in one scan.
///
/// Pattern rules (compiled `av-pattern` programs) are unioned into one
/// byte-level NFA with rule-tagged accepts and matched through a lazy DFA
/// cache; non-pattern rules (dictionaries, numeric ranges, opaque
/// validators) join through [`CatalogMatcher::insert_residual`] so
/// [`CatalogMatcher::classify`] is total over a heterogeneous catalog.
///
/// ```
/// use av_match::CatalogMatcher;
/// use av_pattern::{parse, CompiledPattern};
///
/// let mut m = CatalogMatcher::new();
/// let date = CompiledPattern::compile(&parse("<digit>{4}-<digit>{2}-<digit>{2}").unwrap());
/// let word = CompiledPattern::compile(&parse("<lower>+").unwrap());
/// m.insert(0, &date);
/// m.insert(1, &word);
/// m.insert_residual(2, av_match::Prefilter::any(), Box::new(|v: &str| v.len() == 5));
///
/// assert_eq!(m.classify("2021-04-13"), vec![0]);
/// assert_eq!(m.classify("hello"), vec![1, 2]);
/// assert_eq!(m.classify("ab"), vec![1]);
/// assert!(m.classify("???").is_empty());
/// assert!(m.is_match("hello") && !m.is_match("???"));
/// ```
#[derive(Debug)]
pub struct CatalogMatcher {
    config: MatcherConfig,
    nfa: Nfa,
    fragments: BTreeMap<u32, Fragment>,
    residuals: BTreeMap<u32, Residual>,
    /// Sorted ε-closure of every live fragment entry — the start state key.
    start_key: Vec<u32>,
    dfa: DfaCache,
    scratch: NfaScratch,
    /// Set when the budget was hit mid-value; triggers eviction between
    /// values (never during a scan, which holds live slot ids).
    pending_evict: bool,
    dead_states: usize,
    generation: u64,
    evictions: u64,
    fallbacks: u64,
    compactions: u64,
}

impl Default for CatalogMatcher {
    fn default() -> CatalogMatcher {
        CatalogMatcher::new()
    }
}

impl CatalogMatcher {
    /// Empty matcher with the default DFA budget.
    pub fn new() -> CatalogMatcher {
        CatalogMatcher::with_config(MatcherConfig::with_budget(MAX_DFA_STATES))
    }

    /// Empty matcher with an explicit config.
    pub fn with_config(config: MatcherConfig) -> CatalogMatcher {
        CatalogMatcher {
            config,
            nfa: Nfa::default(),
            fragments: BTreeMap::new(),
            residuals: BTreeMap::new(),
            start_key: Vec::new(),
            dfa: DfaCache::default(),
            scratch: NfaScratch::new(),
            pending_evict: false,
            dead_states: 0,
            generation: 0,
            evictions: 0,
            fallbacks: 0,
            compactions: 0,
        }
    }

    /// Number of rules in the catalog (pattern + residual).
    pub fn len(&self) -> usize {
        self.fragments.len() + self.residuals.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty() && self.residuals.is_empty()
    }

    /// Is `rule_id` present (as either kind)?
    pub fn contains(&self, rule_id: u32) -> bool {
        self.fragments.contains_key(&rule_id) || self.residuals.contains_key(&rule_id)
    }

    /// Update generation: bumped by every insert/remove, mirroring the
    /// sharded index's epoch stamp.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Shape and lifetime counters.
    pub fn stats(&self) -> MatcherStats {
        MatcherStats {
            rules: self.len(),
            pattern_rules: self.fragments.len(),
            residual_rules: self.residuals.len(),
            nfa_states: self.nfa.len(),
            dfa_states: self.dfa.live(),
            dfa_evictions: self.evictions,
            nfa_fallbacks: self.fallbacks,
            compactions: self.compactions,
            generation: self.generation,
        }
    }

    /// Add (or replace) a pattern rule.
    ///
    /// Appends an edge-disjoint NFA fragment and extends the start key
    /// with the fragment's own closure: the arena only grows at its end,
    /// so the new ids lie above every id already in the key and the key
    /// stays sorted — an insert costs its fragment, not the catalog. No
    /// cached DFA state is invalidated: the anchored automaton reaches the
    /// new fragment only through the (re-pointed) start key, and stepping
    /// any previously cached state-set cannot produce new-fragment states.
    pub fn insert(&mut self, rule_id: u32, program: &CompiledPattern) {
        if self.contains(rule_id) {
            self.remove(rule_id);
            self.generation -= 1; // net one bump per insert
        }
        let frag = self.nfa.build_fragment(rule_id, program, |_| {});
        self.start_key.extend(self.nfa.entry_closure(&frag));
        self.dfa.start = UNKNOWN;
        self.fragments.insert(rule_id, frag);
        self.generation += 1;
    }

    /// Add (or replace) a non-pattern rule: `check` decides membership,
    /// gated by `prefilter` on the hot path.
    pub fn insert_residual(
        &mut self,
        rule_id: u32,
        prefilter: Prefilter,
        check: Box<dyn Fn(&str) -> bool + Send + Sync>,
    ) {
        if self.fragments.contains_key(&rule_id) {
            self.remove(rule_id);
            self.generation -= 1;
        }
        self.residuals
            .insert(rule_id, Residual { prefilter, check });
        self.generation += 1;
    }

    /// Remove a rule; returns whether it was present.
    ///
    /// For pattern rules the fragment is tombstoned and exactly the
    /// cached DFA states whose key intersects its id range are evicted —
    /// every other cached state (and its computed transitions) stays.
    pub fn remove(&mut self, rule_id: u32) -> bool {
        if self.residuals.remove(&rule_id).is_some() {
            self.generation += 1;
            return true;
        }
        let Some(frag) = self.fragments.remove(&rule_id) else {
            return false;
        };
        self.nfa.kill_range(&frag.range);
        self.dead_states += (frag.range.end - frag.range.start) as usize;

        // Evict cached states denoting sets that touched the dead range.
        let mut gone = vec![false; self.dfa.slots.len()];
        let stale: Vec<u32> = (0..self.dfa.slots.len() as u32)
            .filter(|&sid| {
                self.dfa.slots[sid as usize]
                    .as_ref()
                    .is_some_and(|s| key_intersects(&s.key, &frag.range))
            })
            .collect();
        for sid in stale {
            gone[sid as usize] = true;
            self.dfa.evict_slot(sid);
        }
        self.dfa.sweep_transitions(&gone);

        if self.dead_states > self.nfa.len() / 2 {
            self.compact();
        }
        self.rebuild_start();
        self.generation += 1;
        true
    }

    /// Full matching rule-id set for `value`, sorted ascending.
    pub fn classify(&mut self, value: &str) -> Vec<u32> {
        let mut out = Vec::new();
        self.classify_into(value, &mut out);
        out
    }

    /// [`CatalogMatcher::classify`] into a caller-owned buffer; the
    /// steady-state scan allocates only when new DFA states materialize.
    pub fn classify_into(&mut self, value: &str, out: &mut Vec<u32>) {
        out.clear();
        if !self.fragments.is_empty() {
            self.scan(value, out);
        }
        for (&rid, res) in &self.residuals {
            if res.prefilter.admits(value) && (res.check)(value) {
                out.push(rid);
            }
        }
        out.sort_unstable();
        if self.pending_evict {
            self.evict_lru_half();
        }
    }

    /// Does any rule accept `value`? The scan of
    /// [`CatalogMatcher::classify`] without the id list: it stops at the
    /// dead state, and a residual is checked only while no rule has
    /// accepted. On a one-rule matcher this is that rule's verdict.
    pub fn is_match(&mut self, value: &str) -> bool {
        let hit = !self.fragments.is_empty()
            && match self.walk(value.as_bytes()) {
                Walk::End(sid) => !self.dfa.state(sid).accepts.is_empty(),
                Walk::Dead => false,
                Walk::Budget { seed, at } => {
                    self.fallbacks += 1;
                    let live = self
                        .nfa
                        .run(&seed, &value.as_bytes()[at..], &mut self.scratch);
                    self.nfa.accepts_any(live)
                }
            };
        let hit = hit
            || self
                .residuals
                .values()
                .any(|res| res.prefilter.admits(value) && (res.check)(value));
        if self.pending_evict {
            self.evict_lru_half();
        }
        hit
    }

    /// DFA scan over the pattern union; pushes accepted rule ids.
    fn scan(&mut self, value: &str, out: &mut Vec<u32>) {
        match self.walk(value.as_bytes()) {
            Walk::End(sid) => out.extend_from_slice(&self.dfa.state(sid).accepts),
            Walk::Dead => {}
            Walk::Budget { seed, at } => self.nfa_finish(&value.as_bytes()[at..], &seed, out),
        }
    }

    /// Walk `bytes` through the DFA from the start state, materializing
    /// transitions on first use. The inner loop is one table load and one
    /// compare per byte; it leaves only for a transition not yet computed.
    fn walk(&mut self, bytes: &[u8]) -> Walk {
        let Some(mut sid) = self.ensure_start() else {
            return Walk::Budget {
                seed: self.start_key.clone(),
                at: 0,
            };
        };
        self.dfa.touch(sid);
        let mut at = 0;
        loop {
            let trans = &self.dfa.trans;
            let mut next = sid;
            while let Some(&b) = bytes.get(at) {
                next = trans[DfaCache::edge(sid, b)];
                if next >= DEAD {
                    break;
                }
                sid = next;
                at += 1;
            }
            if at == bytes.len() {
                self.dfa.touch(sid);
                return Walk::End(sid);
            }
            if next == DEAD {
                return Walk::Dead;
            }
            match self.extend(sid, bytes[at]) {
                Some(DEAD) => return Walk::Dead,
                Some(n) => {
                    sid = n;
                    at += 1;
                }
                None => {
                    return Walk::Budget {
                        seed: self.dfa.state(sid).key.to_vec(),
                        at,
                    }
                }
            }
        }
    }

    /// Materialize the start state; `None` when even that exceeds budget.
    fn ensure_start(&mut self) -> Option<u32> {
        if self.dfa.start != UNKNOWN {
            return Some(self.dfa.start);
        }
        let key = self.start_key.as_slice().into();
        let sid = self.intern_state(key)?;
        self.dfa.start = sid;
        Some(sid)
    }

    /// Compute and cache the transition `sid --b-->`, stamping `sid` as
    /// used; `None` when a new state is needed but the budget is
    /// exhausted.
    fn extend(&mut self, sid: u32, b: u8) -> Option<u32> {
        self.dfa.touch(sid);
        let CatalogMatcher {
            nfa, dfa, scratch, ..
        } = self;
        let set = &mut scratch.current;
        set.clear_resize(nfa.len());
        nfa.step(&dfa.state(sid).key, b, set);
        let next = if set.is_empty() {
            DEAD
        } else {
            let mut key: Vec<u32> = set.as_slice().to_vec();
            key.sort_unstable();
            self.intern_state(key.into_boxed_slice())?
        };
        self.dfa.trans[DfaCache::edge(sid, b)] = next;
        Some(next)
    }

    /// Look up or create the DFA state for `key`; `None` (and a pending
    /// eviction) when creation would exceed the budget.
    fn intern_state(&mut self, key: Box<[u32]>) -> Option<u32> {
        if let Some(&sid) = self.dfa.by_key.get(&key) {
            return Some(sid);
        }
        if self.dfa.live() >= self.config.max_dfa_states {
            self.pending_evict = true;
            return None;
        }
        let mut accepts = Vec::new();
        self.nfa.accepts_of(&key, &mut accepts);
        accepts.sort_unstable();
        self.dfa.tick += 1;
        let state = DfaState {
            key: key.clone(),
            accepts: accepts.into_boxed_slice(),
            last_used: self.dfa.tick,
        };
        let sid = match self.dfa.free.pop() {
            Some(sid) => {
                self.dfa.slots[sid as usize] = Some(state);
                let row = DfaCache::edge(sid, 0);
                self.dfa.trans[row..row + STRIDE].fill(UNKNOWN);
                sid
            }
            None => {
                self.dfa.slots.push(Some(state));
                self.dfa.trans.extend([UNKNOWN; STRIDE]);
                (self.dfa.slots.len() - 1) as u32
            }
        };
        self.dfa.by_key.insert(key, sid);
        Some(sid)
    }

    /// Finish (or fully run) one value by NFA simulation from `seed` —
    /// the graceful degradation path when the DFA budget is exhausted.
    fn nfa_finish(&mut self, bytes: &[u8], seed: &[u32], out: &mut Vec<u32>) {
        self.fallbacks += 1;
        let live = self.nfa.run(seed, bytes, &mut self.scratch);
        self.nfa.accepts_of(live, out);
    }

    /// Drop the least-recently-used half of the cache (keeping at least
    /// the most recent state), then null dangling transitions.
    fn evict_lru_half(&mut self) {
        self.pending_evict = false;
        self.evictions += 1;
        let mut live: Vec<(u64, u32)> = self
            .dfa
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (s.last_used, i as u32)))
            .collect();
        if live.len() < 2 {
            return;
        }
        live.sort_unstable();
        let evict_count = live.len() / 2;
        let mut gone = vec![false; self.dfa.slots.len()];
        for &(_, sid) in &live[..evict_count] {
            gone[sid as usize] = true;
            self.dfa.evict_slot(sid);
        }
        self.dfa.sweep_transitions(&gone);
    }

    /// Recompute the start key (the ε-closure of every live fragment
    /// entry) from scratch and re-point the start state: what a removal
    /// or a compaction needs, and what every insert's append must equal.
    fn rebuild_start(&mut self) {
        let CatalogMatcher {
            nfa,
            fragments,
            scratch,
            ..
        } = self;
        let set = &mut scratch.current;
        set.clear_resize(nfa.len());
        for frag in fragments.values() {
            nfa.add_closure(frag.entry, set);
        }
        self.start_key.clear();
        self.start_key.extend_from_slice(set.as_slice());
        self.start_key.sort_unstable();
        self.dfa.start = UNKNOWN;
    }

    /// Squeeze tombstones out of the arena. Every state id changes, so
    /// the DFA cache is flushed wholesale — this is the one non-surgical
    /// invalidation, amortized by the tombstone threshold.
    fn compact(&mut self) {
        let remapped = self
            .nfa
            .compact(self.fragments.iter().map(|(&r, f)| (r, f)));
        self.fragments = remapped.into_iter().collect();
        self.dfa.clear();
        self.dead_states = 0;
        self.compactions += 1;
    }
}

/// Does the sorted `key` contain any id in `range`?
fn key_intersects(key: &[u32], range: &std::ops::Range<u32>) -> bool {
    let i = key.partition_point(|&id| id < range.start);
    key.get(i).is_some_and(|&id| id < range.end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_pattern::parse;

    fn compiled(p: &str) -> CompiledPattern {
        CompiledPattern::compile(&parse(p).unwrap())
    }

    #[test]
    fn classifies_against_every_rule_in_one_pass() {
        let mut m = CatalogMatcher::new();
        m.insert(3, &compiled("<digit>{4}-<digit>{2}-<digit>{2}"));
        m.insert(7, &compiled("<digit>+-<digit>+-<digit>+"));
        m.insert(9, &compiled("<lower>+"));
        assert_eq!(m.classify("2021-04-13"), vec![3, 7]);
        assert_eq!(m.classify("1-2-3"), vec![7]);
        assert_eq!(m.classify("hello"), vec![9]);
        assert!(m.classify("HELLO").is_empty());
        assert!(m.classify("").is_empty());
    }

    #[test]
    fn empty_pattern_accepts_empty_value() {
        let mut m = CatalogMatcher::new();
        m.insert(1, &CompiledPattern::compile(&av_pattern::Pattern::empty()));
        assert_eq!(m.classify(""), vec![1]);
        assert!(m.classify("x").is_empty());
    }

    #[test]
    fn unicode_values_step_by_encoded_length() {
        let mut m = CatalogMatcher::new();
        m.insert(0, &compiled("<sym>{2}"));
        m.insert(1, &compiled("<any>+"));
        assert_eq!(m.classify("héllo"), vec![1]);
        assert_eq!(m.classify("é€"), vec![0, 1]);
        assert_eq!(m.classify("😀!"), vec![0, 1]);
        assert!(m.classify("").is_empty());
    }

    #[test]
    fn residuals_participate_via_prefilter_and_check() {
        let mut m = CatalogMatcher::new();
        m.insert(0, &compiled("<digit>+"));
        m.insert_residual(
            5,
            Prefilter::any().len_bounds(3, 3).first_bytes([b'c', b'd']),
            Box::new(|v: &str| v == "cat" || v == "dog"),
        );
        assert_eq!(m.classify("cat"), vec![5]);
        assert_eq!(m.classify("dog"), vec![5]);
        assert!(m.classify("cow").is_empty());
        assert!(m.classify("ant").is_empty(), "prefilter rejects first byte");
        assert_eq!(m.classify("42"), vec![0]);
        for (v, want) in [("cat", true), ("42", true), ("cow", false), ("", false)] {
            assert_eq!(m.is_match(v), want, "{v:?}");
        }
    }

    #[test]
    fn replace_and_remove_update_verdicts() {
        let mut m = CatalogMatcher::new();
        m.insert(1, &compiled("<digit>{2}"));
        assert_eq!(m.classify("42"), vec![1]);
        let g1 = m.generation();
        m.insert(1, &compiled("<upper>{2}"));
        assert!(m.classify("42").is_empty());
        assert_eq!(m.classify("AB"), vec![1]);
        assert_eq!(m.generation(), g1 + 1, "replace is one generation bump");
        assert!(m.remove(1));
        assert!(!m.remove(1));
        assert!(m.classify("AB").is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn insert_preserves_cached_dfa_states() {
        let mut m = CatalogMatcher::new();
        m.insert(0, &compiled("<digit>{2}:<digit>{2}"));
        // Warm the cache, then insert a disjoint rule.
        assert_eq!(m.classify("12:34"), vec![0]);
        let warm = m.stats().dfa_states;
        assert!(warm > 0);
        m.insert(1, &compiled("<lower>+"));
        // Old cached states survive the insert (only the start key moved).
        assert_eq!(m.stats().dfa_states, warm);
        assert_eq!(m.classify("12:34"), vec![0]);
        assert_eq!(m.classify("abc"), vec![1]);
    }

    /// An insert appends its fragment's closure to the start key instead
    /// of re-closing the catalog. After any sequence of inserts, replaces
    /// and removes (some of which compact the arena) the key must be what
    /// `rebuild_start` derives from scratch, and verdicts the per-rule
    /// loop's.
    #[test]
    fn appended_start_key_equals_a_rebuild_after_any_update_sequence() {
        use proptest::prelude::*;
        use proptest::rand::{rngs::StdRng, Rng, SeedableRng};
        let shapes = [
            "<digit>{2}:<digit>{2}",
            "<lower>+",
            "<upper>{2}-<digit>+",
            "<num>",
            "<any>+",
            "id<alnum>+",
            "<letter>+ <digit>{4}",
            "<sym>+",
        ];
        let probes = [
            "12:34", "abc", "AB-7", "0.5", "idx9", "Mar 2019", "--", "é€", "",
        ];
        let sequence = proptest::collection::vec((0u32..12, 0usize..shapes.len() + 3), 1..60);
        let mut rng = StdRng::seed_from_u64(0x5747);
        for _ in 0..ProptestConfig::default().cases {
            let mut m = CatalogMatcher::new();
            let mut live: BTreeMap<u32, CompiledPattern> = BTreeMap::new();
            for (rule, shape) in sequence.sample_value(&mut rng) {
                match shapes.get(shape) {
                    Some(shape) => {
                        m.insert(rule, &compiled(shape));
                        live.insert(rule, compiled(shape));
                    }
                    None => assert_eq!(m.remove(rule), live.remove(&rule).is_some()),
                }
                let appended = m.start_key.clone();
                m.rebuild_start();
                assert_eq!(appended, m.start_key, "after {rule} / {shape}");
                // Sometimes with the start state cached, sometimes not.
                if rng.random_range(0..3) > 0 {
                    for v in probes {
                        let want: Vec<u32> = live
                            .iter()
                            .filter(|(_, p)| p.matches(v))
                            .map(|(rule, _)| *rule)
                            .collect();
                        assert_eq!(m.classify(v), want, "value {v:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn budget_exhaustion_falls_back_to_nfa_and_recovers() {
        let mut m = CatalogMatcher::with_config(MatcherConfig::with_budget(2));
        m.insert(0, &compiled("<digit>{2}-<upper>{3}"));
        m.insert(1, &compiled("<digit>+"));
        let values = ["12-ABC", "99", "12-ABX", "7", "12-", "nope", "00-ZZZ"];
        let p0 = compiled("<digit>{2}-<upper>{3}");
        let p1 = compiled("<digit>+");
        for v in values {
            let got = m.classify(v);
            let mut want = Vec::new();
            if p0.matches(v) {
                want.push(0);
            }
            if p1.matches(v) {
                want.push(1);
            }
            assert_eq!(got, want, "value {v:?}");
        }
        let stats = m.stats();
        assert!(stats.nfa_fallbacks > 0, "tiny budget must trigger fallback");
        assert!(stats.dfa_evictions > 0, "and LRU eviction between values");
        assert!(stats.dfa_states <= 2, "budget stays bounded: {stats:?}");
    }

    #[test]
    fn remove_triggers_compaction_after_enough_tombstones() {
        let mut m = CatalogMatcher::new();
        for i in 0..10u32 {
            m.insert(i, &compiled("<digit>{3}"));
        }
        for i in 0..9u32 {
            m.remove(i);
        }
        let stats = m.stats();
        assert!(stats.compactions > 0, "{stats:?}");
        assert_eq!(m.classify("123"), vec![9]);
        assert!(m.classify("12").is_empty());
    }

    #[test]
    fn num_instruction_matches_decimal_shapes() {
        let mut m = CatalogMatcher::new();
        m.insert(0, &compiled("<num>"));
        for (v, want) in [
            ("9", true),
            ("0.1", true),
            ("12345.6789", true),
            (".5", false),
            ("5.", false),
            ("1.2.3", false),
            ("", false),
        ] {
            assert_eq!(!m.classify(v).is_empty(), want, "{v:?}");
        }
    }
}
