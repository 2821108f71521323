//! [`CatalogMatcher`]: the catalog-wide classifier, and the one-rule
//! automaton a pattern rule validates with.
//!
//! Pattern rules live in one NFA union ([`crate::nfa`]); matching runs a
//! **lazily determinized DFA** over it. DFA states are keyed by their
//! sorted NFA state-set (stored once, packed) and cached; every state's
//! transitions are one row of a flat `u32` table indexed `state * 256 +
//! byte`, so the hot path is one table load per input byte, with no
//! per-byte bookkeeping. The cache
//! is bounded (4096 states, or [`MatcherConfig::with_budget`]) and only
//! grows or is cleared: when a value would need a state beyond the budget,
//! the rest of that value is finished by direct NFA simulation (correct,
//! just slower) and the whole cache is flushed, so determinization starts
//! afresh with the next value. A pathological catalog therefore degrades
//! to NFA-simulation costs instead of exploding memory.
//!
//! The automaton and its caches are apart. A [`CatalogMatcher`] is the
//! automaton: updates change it through `&mut self`, and scans read it
//! through `&self`, so threads share one without a lock. A DFA cache
//! belongs to a thread: each thread keeps one per automaton it scans, in
//! one thread-local keyed by the automaton's id, next to the NFA scratch
//! every simulation on that thread runs in. A scan checks the cache and
//! the scratch out of the thread-local and back in, so a column's checks
//! cost one checkout, and a residual check may itself scan an automaton.
//! A thread's first scan of an automaton drops the caches of automata
//! that are gone. So DFA memory is at most the budget times the threads
//! that scan an automaton.
//!
//! [`CatalogMatcher::classify`] names every accepting rule;
//! [`CatalogMatcher::is_match`] only asks whether one accepts, so it stops
//! at the dead state and builds no id list. A matcher holding a single
//! rule is that rule's validator: one pass over the value, whatever the
//! pattern — where backtracking over `<any>+` runs is quadratic or worse.
//!
//! Updates follow the dynamic-evaluation literature (Berkholz et al.,
//! *FO+MOD queries under updates*: an update costs what the update
//! costs). Because the union automaton is *anchored* (no self-loop on the
//! start state — values are matched whole, never searched), the global
//! ε-closure of all rule entries appears only in the start state's key.
//! [`CatalogMatcher::insert`] appends an edge-disjoint fragment and merely
//! re-points the start key; every cached DFA state remains valid, because
//! stepping a set that contains no new-fragment states can never reach the
//! new fragment. [`CatalogMatcher::remove`] drops the rule's fragment from
//! the start key and flushes every thread's cache, so no cached state can
//! still reach it; the unreachable states stay in the arena until
//! compaction. A cache learns of both from two stamps: each update bumps a
//! generation (the `ShardedIndex` epoch pattern, which callers also use to
//! detect staleness of anything they derived from a classify), and each
//! flush bumps a flush stamp.

use crate::nfa::{Fragment, Nfa, NfaScratch, ThreadSet};
use av_pattern::CompiledPattern;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Weak};

/// Marks a DFA transition not yet computed.
const UNKNOWN: u32 = u32::MAX;
/// Marks a DFA transition into the empty state-set (no rule can match).
const DEAD: u32 = u32::MAX - 1;

/// Cached DFA states before a value falls back to NFA simulation and the
/// cache is flushed; comfortably covers thousands of machine-data rules.
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
    /// NFA arena size, including removed fragments awaiting compaction.
    pub nfa_states: usize,
    /// DFA states in the calling thread's cache of this automaton: a
    /// cache belongs to a thread, and every thread that scans the
    /// automaton keeps its own.
    pub dfa_states: usize,
    /// Times a value ran past the DFA budget and a cache was flushed.
    pub dfa_evictions: u64,
    /// Values (or value suffixes) classified by NFA simulation because the
    /// DFA budget was exhausted mid-scan.
    pub nfa_fallbacks: u64,
    /// Arena compactions triggered by accumulated removed fragments.
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
    /// The NFA state-set this DFA state denotes — its identity — packed
    /// by [`pack`] and shared with [`DfaCache::by_key`].
    key: Rc<[u8]>,
    /// Sorted rule ids accepting in this state.
    accepts: Box<[u32]>,
}

/// A sorted NFA state-set as the LEB128 gaps between its ids. Sets run to
/// hundreds of ids a state, mostly a few apart, so this takes about a
/// byte an id where a `u32` list took four: every thread that scans an
/// automaton keeps its own cache, so a state's key is stored per thread.
fn pack(ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ids.len() + 4);
    let mut prev = 0;
    for &id in ids {
        let mut gap = id - std::mem::replace(&mut prev, id);
        while gap >= 0x80 {
            out.push(gap as u8 | 0x80);
            gap >>= 7;
        }
        out.push(gap as u8);
    }
    out
}

/// The ids of a [`pack`]ed set, ascending.
fn unpack(key: &[u8]) -> impl Iterator<Item = u32> + '_ {
    key.split_inclusive(|&b| b < 0x80).scan(0, |prev, gap| {
        *prev += gap
            .iter()
            .rev()
            .fold(0, |n, &b| n << 7 | u32::from(b & 0x7f));
        Some(*prev)
    })
}

/// The determinized states so far: a table that grows until the budget,
/// and is then cleared whole.
#[derive(Debug, Default)]
struct DfaCache {
    /// Every state's transitions, [`STRIDE`] per state: `trans[sid * 256 +
    /// byte]` is the successor state, [`UNKNOWN`], or [`DEAD`].
    trans: Vec<u32>,
    states: Vec<DfaState>,
    by_key: HashMap<Rc<[u8]>, u32>,
    /// The start state, once materialized.
    start: Option<u32>,
}

impl DfaCache {
    fn clear(&mut self) {
        self.trans.clear();
        self.states.clear();
        self.by_key.clear();
        self.start = None;
    }

    /// Index of the transition `sid --b-->` in [`DfaCache::trans`].
    #[inline]
    fn edge(sid: u32, b: u8) -> usize {
        sid as usize * STRIDE + b as usize
    }
}

/// One thread's DFA cache of one automaton, stamped with the automaton's
/// flush stamp and generation as of its last scan.
struct Cache {
    /// Dead once the automaton is dropped, so a sweep can drop the cache.
    owner: Weak<()>,
    flushes: u64,
    generation: u64,
    dfa: DfaCache,
}

/// A thread's scan memory: its DFA cache of each automaton it has
/// scanned, keyed by [`CatalogMatcher::id`], and the NFA scratch every
/// simulation on the thread runs in.
#[derive(Default)]
struct Scans {
    caches: HashMap<u64, Cache>,
    scratch: NfaScratch,
}

thread_local! {
    static SCANS: RefCell<Scans> = RefCell::new(Scans::default());
}

/// The source of automaton ids: no two automata share one.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Run `f` on this thread's NFA scratch. `f` must not scan an automaton.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut NfaScratch) -> R) -> R {
    SCANS.with(|scans| f(&mut scans.borrow_mut().scratch))
}

/// Automata the calling thread holds a DFA cache for, counting dropped
/// ones that no sweep has reached yet: a thread sweeps when it caches a
/// new automaton, so a dropped automaton's cache lasts until then.
pub fn cached_automata() -> usize {
    SCANS.with(|scans| scans.borrow().caches.len())
}

/// Where a value's walk through the DFA ended.
enum Walk<'s> {
    /// Every byte stepped inside the cache; the value ends in this state.
    End(u32),
    /// No rule can accept the value any more.
    Dead,
    /// The DFA budget ran out and the value finished on the NFA, live in
    /// these states.
    Nfa(&'s [u32]),
}

/// A catalog-wide multi-pattern matcher: classify a value against every
/// rule in one scan.
///
/// Pattern rules (compiled `av-pattern` programs) are unioned into one
/// byte-level NFA with rule-tagged accepts and matched through a lazy DFA
/// cache; non-pattern rules (dictionaries, numeric ranges, opaque
/// validators) join through [`CatalogMatcher::insert_residual`] so
/// [`CatalogMatcher::classify`] is total over a heterogeneous catalog.
/// Scans take `&self`: threads share one matcher, each with its own DFA
/// cache (see the module docs).
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
    /// Arena states of removed fragments, squeezed out by compaction.
    dead_states: usize,
    /// The key of this automaton's cache in each thread's [`SCANS`].
    id: u64,
    /// Lives as long as the automaton; each cache holds it weakly.
    alive: Arc<()>,
    generation: u64,
    /// Bumped by every update that invalidates cached states: a pattern
    /// rule's removal, and the compaction it may bring.
    flushes: u64,
    evictions: AtomicU64,
    fallbacks: AtomicU64,
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
            dead_states: 0,
            id: NEXT_ID.fetch_add(1, Relaxed),
            alive: Arc::new(()),
            generation: 0,
            flushes: 0,
            evictions: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
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

    /// Shape and lifetime counters; `dfa_states` is the calling thread's.
    pub fn stats(&self) -> MatcherStats {
        let dfa_states = SCANS.with(|scans| match scans.borrow().caches.get(&self.id) {
            Some(cache) if cache.flushes == self.flushes => cache.dfa.states.len(),
            _ => 0,
        });
        MatcherStats {
            rules: self.len(),
            pattern_rules: self.fragments.len(),
            residual_rules: self.residuals.len(),
            nfa_states: self.nfa.len(),
            dfa_states,
            dfa_evictions: self.evictions.load(Relaxed),
            nfa_fallbacks: self.fallbacks.load(Relaxed),
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
    /// A pattern rule's fragment leaves the start key and every thread's
    /// DFA cache is flushed, so no state can reach the fragment again; its
    /// arena states wait for compaction.
    pub fn remove(&mut self, rule_id: u32) -> bool {
        if self.residuals.remove(&rule_id).is_some() {
            self.generation += 1;
            return true;
        }
        let Some(frag) = self.fragments.remove(&rule_id) else {
            return false;
        };
        self.dead_states += frag.range.len();
        if self.dead_states > self.nfa.len() / 2 {
            self.compact();
        }
        self.rebuild_start();
        self.flushes += 1;
        self.generation += 1;
        true
    }

    /// Full matching rule-id set for `value`, sorted ascending.
    pub fn classify(&self, value: &str) -> Vec<u32> {
        let mut out = Vec::new();
        self.classify_into(value, &mut out);
        out
    }

    /// [`CatalogMatcher::classify`] into a caller-owned buffer; the
    /// steady-state scan allocates only when new DFA states materialize.
    pub fn classify_into(&self, value: &str, out: &mut Vec<u32>) {
        out.clear();
        if !self.fragments.is_empty() {
            self.with_cache(|dfa, scratch| self.scan(dfa, scratch, value, out));
        }
        for (&rid, res) in &self.residuals {
            if res.prefilter.admits(value) && (res.check)(value) {
                out.push(rid);
            }
        }
        out.sort_unstable();
    }

    /// Does any rule accept `value`? The scan of
    /// [`CatalogMatcher::classify`] without the id list: it stops at the
    /// dead state, and a residual is checked only while no rule has
    /// accepted. On a one-rule matcher this is that rule's verdict.
    pub fn is_match(&self, value: &str) -> bool {
        self.with_cache(|dfa, scratch| self.matches(dfa, scratch, value))
    }

    /// [`CatalogMatcher::is_match`] of each of `values` in order, handed to
    /// `verdict`: a column's checks on one checkout of the thread's cache.
    pub fn is_match_each<S: AsRef<str>>(
        &self,
        values: impl IntoIterator<Item = S>,
        mut verdict: impl FnMut(bool),
    ) {
        self.with_cache(|dfa, scratch| {
            for value in values {
                verdict(self.matches(dfa, scratch, value.as_ref()));
            }
        });
    }

    /// The boolean scan of one value on a checked-out cache.
    fn matches(&self, dfa: &mut DfaCache, scratch: &mut NfaScratch, value: &str) -> bool {
        let hit = !self.fragments.is_empty()
            && match self.walk(dfa, scratch, value.as_bytes()) {
                Walk::End(sid) => !dfa.states[sid as usize].accepts.is_empty(),
                Walk::Dead => false,
                Walk::Nfa(live) => self.nfa.accepts_any(live),
            };
        hit || self
            .residuals
            .values()
            .any(|res| res.prefilter.admits(value) && (res.check)(value))
    }

    /// Run `f` on this thread's DFA cache of the automaton and its NFA
    /// scratch, both checked out of the thread-local while `f` runs, so `f`
    /// may run residual checks that scan automata themselves (a nested scan
    /// of this automaton starts a cache of its own). The cache is brought
    /// up to date first: cleared if the automaton flushed since its last
    /// scan, its start state re-pointed if only inserts came. A thread's
    /// first cache of an automaton first sweeps the caches of dropped ones.
    fn with_cache<R>(&self, f: impl FnOnce(&mut DfaCache, &mut NfaScratch) -> R) -> R {
        let (mut cache, mut scratch) = SCANS.with(|scans| {
            let Scans { caches, scratch } = &mut *scans.borrow_mut();
            let cache = caches.remove(&self.id).unwrap_or_else(|| {
                caches.retain(|_, cache| cache.owner.strong_count() > 0);
                Cache {
                    owner: Arc::downgrade(&self.alive),
                    flushes: self.flushes,
                    generation: self.generation,
                    dfa: DfaCache::default(),
                }
            });
            (cache, std::mem::take(scratch))
        });
        if cache.flushes != self.flushes {
            cache.dfa.clear();
        } else if cache.generation != self.generation {
            cache.dfa.start = None;
        }
        (cache.flushes, cache.generation) = (self.flushes, self.generation);
        let out = f(&mut cache.dfa, &mut scratch);
        SCANS.with(|scans| {
            let mut scans = scans.borrow_mut();
            scans.caches.insert(self.id, cache);
            scans.scratch = scratch;
        });
        out
    }

    /// DFA scan over the pattern union; pushes accepted rule ids.
    fn scan(&self, dfa: &mut DfaCache, scratch: &mut NfaScratch, value: &str, out: &mut Vec<u32>) {
        match self.walk(dfa, scratch, value.as_bytes()) {
            Walk::End(sid) => out.extend_from_slice(&dfa.states[sid as usize].accepts),
            Walk::Dead => {}
            Walk::Nfa(live) => self.nfa.accepts_of(live, out),
        }
    }

    /// Walk `bytes` through the DFA from the start state, materializing
    /// transitions on first use. The inner loop is one table load and one
    /// compare per byte; it leaves only for a transition not yet computed.
    fn walk<'s>(&self, dfa: &mut DfaCache, scratch: &'s mut NfaScratch, bytes: &[u8]) -> Walk<'s> {
        let Some(mut sid) = self.ensure_start(dfa) else {
            return self.overflow(dfa, scratch, self.start_key.clone(), bytes);
        };
        let mut at = 0;
        loop {
            let trans = &dfa.trans;
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
                return Walk::End(sid);
            }
            if next == DEAD {
                return Walk::Dead;
            }
            match self.extend(dfa, scratch, sid, bytes[at]) {
                Some(DEAD) => return Walk::Dead,
                Some(n) => {
                    sid = n;
                    at += 1;
                }
                None => {
                    let seed = unpack(&dfa.states[sid as usize].key).collect();
                    return self.overflow(dfa, scratch, seed, &bytes[at..]);
                }
            }
        }
    }

    /// The budget ran out: flush the cache (the walk holds no state id
    /// past this point) and finish `rest` of the value on the NFA from
    /// `seed`.
    fn overflow<'s>(
        &self,
        dfa: &mut DfaCache,
        scratch: &'s mut NfaScratch,
        seed: Vec<u32>,
        rest: &[u8],
    ) -> Walk<'s> {
        dfa.clear();
        self.evictions.fetch_add(1, Relaxed);
        self.fallbacks.fetch_add(1, Relaxed);
        Walk::Nfa(self.nfa.run(&seed, rest, scratch))
    }

    /// Materialize the start state; `None` when even that exceeds budget.
    fn ensure_start(&self, dfa: &mut DfaCache) -> Option<u32> {
        if dfa.start.is_none() {
            dfa.start = Some(self.intern_state(dfa, &self.start_key)?);
        }
        dfa.start
    }

    /// Compute and cache the transition `sid --b-->`; `None` when a new
    /// state is needed but the budget is exhausted.
    fn extend(&self, dfa: &mut DfaCache, scratch: &mut NfaScratch, sid: u32, b: u8) -> Option<u32> {
        let set = &mut scratch.current;
        set.clear_resize(self.nfa.len());
        self.nfa.step(unpack(&dfa.states[sid as usize].key), b, set);
        let next = if set.is_empty() {
            DEAD
        } else {
            let mut ids = set.as_slice().to_vec();
            ids.sort_unstable();
            self.intern_state(dfa, &ids)?
        };
        dfa.trans[DfaCache::edge(sid, b)] = next;
        Some(next)
    }

    /// Look up or create the DFA state for the sorted set `ids`; `None`
    /// when creation would exceed the budget.
    fn intern_state(&self, dfa: &mut DfaCache, ids: &[u32]) -> Option<u32> {
        let key = pack(ids);
        if let Some(&sid) = dfa.by_key.get(key.as_slice()) {
            return Some(sid);
        }
        if dfa.states.len() >= self.config.max_dfa_states {
            return None;
        }
        let mut accepts = Vec::new();
        self.nfa.accepts_of(ids, &mut accepts);
        accepts.sort_unstable();
        let sid = dfa.states.len() as u32;
        let key: Rc<[u8]> = key.into();
        dfa.states.push(DfaState {
            key: Rc::clone(&key),
            accepts: accepts.into_boxed_slice(),
        });
        dfa.trans.extend([UNKNOWN; STRIDE]);
        dfa.by_key.insert(key, sid);
        Some(sid)
    }

    /// Recompute the start key (the ε-closure of every live fragment
    /// entry) from scratch: what a removal or a compaction needs, and what
    /// every insert's append must equal.
    fn rebuild_start(&mut self) {
        let mut set = ThreadSet::default();
        set.clear_resize(self.nfa.len());
        for frag in self.fragments.values() {
            self.nfa.add_closure(frag.entry, &mut set);
        }
        self.start_key = set.as_slice().to_vec();
        self.start_key.sort_unstable();
    }

    /// Squeeze removed fragments out of the arena. Every state id
    /// changes; the caller flushes the caches and rebuilds the start key.
    fn compact(&mut self) {
        let remapped = self
            .nfa
            .compact(self.fragments.iter().map(|(&r, f)| (r, f)));
        self.fragments = remapped.into_iter().collect();
        self.dead_states = 0;
        self.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_pattern::parse;

    fn compiled(p: &str) -> CompiledPattern {
        CompiledPattern::compile(&parse(p).unwrap())
    }

    #[test]
    fn a_packed_state_set_unpacks_to_its_ids() {
        for ids in [
            vec![],
            vec![0],
            vec![0, 1, 127, 128, 300, 16_384, 70_000, u32::MAX],
        ] {
            let key = pack(&ids);
            assert_eq!(unpack(&key).collect::<Vec<_>>(), ids);
        }
        assert_eq!(pack(&[5, 6, 7, 9]).len(), 4, "a small gap takes one byte");
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
        assert!(stats.dfa_evictions > 0, "and a cache flush past the budget");
        assert!(stats.dfa_states <= 2, "budget stays bounded: {stats:?}");
    }

    /// A budget flush empties the cache, so the next value that fits the
    /// budget runs on the DFA again instead of falling back.
    #[test]
    fn a_budget_flush_lets_the_next_value_run_on_the_dfa() {
        let mut m = CatalogMatcher::with_config(MatcherConfig::with_budget(3));
        m.insert(0, &compiled("<digit>{2}-<upper>{3}"));
        m.insert(1, &compiled("<lower>{2}"));
        assert_eq!(m.classify("12-ABC"), vec![0]);
        let s = m.stats();
        assert_eq!((s.nfa_fallbacks, s.dfa_evictions, s.dfa_states), (1, 1, 0));
        assert_eq!(m.classify("ab"), vec![1]);
        let s = m.stats();
        assert_eq!((s.nfa_fallbacks, s.dfa_evictions, s.dfa_states), (1, 1, 3));
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
