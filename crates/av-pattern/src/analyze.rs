//! Column analysis: Algorithm 1 with support counting.
//!
//! The paper's pattern generation runs in two steps (Alg. 1): emit coarse
//! patterns, retain those with sufficient coverage, then drill each position
//! down the hierarchy, again retaining refinements with sufficient coverage.
//!
//! We implement this with **support bitsets**: values are grouped by their
//! *merged* coarse structure (adjacent digit/letter runs fused into one
//! alphanumeric segment, so hex/GUID-like domains whose strict run structure
//! varies per value still group together). Within a group every candidate
//! token at every position carries a bitset of the sampled values that
//! generate it, so for any enumerated pattern `p` we know exactly how many
//! values `v` have `p ∈ P(v)` — which is precisely the quantity behind the
//! impurity `Imp_D(p)` of Definition 1.
//!
//! **A column is read once.** The analyzer scans each value a single time,
//! byte by byte through a 256-entry class table, into a reusable **run
//! table**: per strict run its byte range, its width in characters and its
//! shape (class, with a letter run's uniform case), per merged run the
//! index of its first strict run, per value its merged-class sequence —
//! which finds the value's group, and counts against τ, without a
//! `Pattern` or a vector per value. Positions are then flattened over the
//! sampled members' rows of that table. Every class token a run supports
//! is a function of the run's **signature** (shape and width) alone, so a
//! position keeps one bitset per distinct signature — a handful — and ORs
//! it into the signature's class tokens once; literals are found by text
//! in an open-addressing table over an arena of bitset words. Only the
//! options that survive the support floor become a `(Token, BitSet)`.

use crate::generalize::{for_each_class_token, PatternConfig, RunShape};
use crate::pattern::{fnv1a, FingerprintState, Pattern};
use crate::token::{CharClass, Token};
use std::collections::HashMap;
use std::hash::BuildHasher;

/// A fixed-capacity bitset over the sampled values of one coarse group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Empty set over `len` slots.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Set slot `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Is slot `i` set?
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set slots.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place intersection.
    pub fn and_assign(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Capacity.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-dimension to `len` slots, all clear, reusing the allocation.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Overwrite with a copy of `other` (capacities must match); returns
    /// the number of set slots.
    pub(crate) fn copy_and_count(&mut self, other: &BitSet) -> usize {
        debug_assert_eq!(self.len, other.len);
        self.words.copy_from_slice(&other.words);
        other.count()
    }

    /// Store `a & b` (capacities must match); returns the number of set
    /// slots — the fused intersect-and-count of the enumeration DFS.
    pub(crate) fn and_count(&mut self, a: &BitSet, b: &BitSet) -> usize {
        debug_assert_eq!(self.len, a.len);
        debug_assert_eq!(a.len, b.len);
        let mut count = 0usize;
        for (out, (x, y)) in self.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            let w = x & y;
            *out = w;
            count += w.count_ones() as usize;
        }
        count
    }
}

/// What one byte adds to a run, one bit each, so the OR over a run's bytes
/// says which kinds the run holds.
mod kind {
    pub(crate) const DIGIT: u8 = 1;
    pub(crate) const UPPER: u8 = 1 << 1;
    pub(crate) const LOWER: u8 = 1 << 2;
    pub(crate) const SPACE: u8 = 1 << 3;
    pub(crate) const SYMBOL: u8 = 1 << 4;
    /// A UTF-8 continuation byte: part of the symbol its lead byte began.
    pub(crate) const CONT: u8 = 1 << 5;

    /// The strict classes of [`crate::CharClass`] that span several kinds,
    /// and the merged class that fuses digits and letters.
    pub(crate) const LETTER: u8 = UPPER | LOWER;
    pub(crate) const SYMBOLIC: u8 = SYMBOL | CONT;
    pub(crate) const ALNUM: u8 = DIGIT | LETTER;
}

/// Byte → kind. ASCII follows [`CharClass::of`]; every byte of a
/// multi-byte character is a symbol, as the character is.
const KIND: [u8; 256] = {
    let mut table = [kind::SYMBOL; 256];
    let mut b = 0usize;
    while b < 0x80 {
        let c = b as u8 as char;
        table[b] = match CharClass::of(c) {
            CharClass::Digit => kind::DIGIT,
            CharClass::Letter if c.is_ascii_uppercase() => kind::UPPER,
            CharClass::Letter => kind::LOWER,
            CharClass::Space => kind::SPACE,
            CharClass::Symbol => kind::SYMBOL,
        };
        b += 1;
    }
    while b < 0xC0 {
        table[b] = kind::CONT;
        b += 1;
    }
    table
};

/// The kinds of the strict class a byte of kind `k` belongs to.
#[inline]
fn strict_class(k: u8) -> u8 {
    if k & kind::LETTER != 0 {
        kind::LETTER
    } else if k & kind::SYMBOLIC != 0 {
        kind::SYMBOLIC
    } else {
        k
    }
}

/// The kinds of the merged class a byte of kind `k` belongs to: digit and
/// letter runs fuse into one alphanumeric segment.
#[inline]
fn merged_class(k: u8) -> u8 {
    if k & kind::ALNUM != 0 {
        kind::ALNUM
    } else {
        strict_class(k)
    }
}

/// The coarse token of a merged class.
fn merged_token(class: u8) -> Token {
    match class {
        kind::ALNUM => Token::AlnumPlus,
        kind::SYMBOLIC => Token::SymPlus,
        _ => Token::SpacePlus,
    }
}

/// The merged classes of `value`'s runs, in order.
fn merged_classes(value: &str) -> impl Iterator<Item = u8> + '_ {
    let mut open = 0u8;
    value.bytes().filter_map(move |b| {
        let k = KIND[b as usize];
        (k & open == 0).then(|| {
            open = merged_class(k);
            open
        })
    })
}

/// Number of merged tokens in a value — the effective position count of
/// the analyzer (adjacent digit/letter runs count once). This is the width
/// measure the τ token-limit applies to: hex/GUID-like values alternate
/// digit and letter runs and would absurdly exceed any strict-run limit
/// while having few *positions*.
pub fn merged_token_count(value: &str) -> usize {
    merged_classes(value).count()
}

/// Candidate tokens with support, for one (flattened) position.
///
/// Options are stored in **trim order**: when the enumeration cross-product
/// exceeds the configured cap, options are dropped from the *front*. The
/// order puts partial-support options first (lowest support earliest), then
/// full-support options from most expendable (`<any>+`, cross-class
/// `<alnum>` on pure positions) to least (the class's own tokens and
/// literal delimiters), so the patterns a validator actually wants survive
/// trimming the longest.
#[derive(Debug, Clone)]
pub struct PositionOptions {
    /// `(token, supporting sampled values)`, in trim order.
    pub options: Vec<(Token, BitSet)>,
}

/// Expendability rank used for trim ordering: smaller = dropped earlier when
/// the enumeration budget is exceeded. `full` says whether the option is
/// supported by every sampled value.
///
/// The ordering encodes what a validator needs most: partial-support
/// literals are noise (dropped first), `<any>+` and cross-class tokens are
/// rarely the chosen rule, full-support literals pin real constants, and the
/// class's own fixed/variadic tokens are kept longest — *including
/// partial-support fixed widths* (e.g. `<digit>{1}` on a column mixing 1-
/// and 2-digit hours), because those are exactly the narrow hypotheses whose
/// impurity evidence the corpus index must record (Fig. 6).
fn trim_rank(t: &Token, full: bool) -> u8 {
    match t {
        Token::Lit(_) if !full => 0,
        Token::AnyPlus => 1,
        Token::Alnum(_) if !full => 2,
        Token::Upper(_) | Token::Lower(_) if !full => 2,
        Token::UpperPlus | Token::LowerPlus if !full => 3,
        Token::Alnum(_) => 3,
        Token::AlnumPlus | Token::Num | Token::SymPlus => 4,
        Token::Lit(_) => 5,
        Token::Upper(_) | Token::Lower(_) | Token::UpperPlus | Token::LowerPlus => 6,
        Token::Digit(_) | Token::Letter(_) | Token::Sym(_) => 7,
        Token::DigitPlus | Token::LetterPlus | Token::SpacePlus => 8,
    }
}

/// One coarse group of a column.
#[derive(Debug, Clone)]
pub struct CoarseGroup {
    /// The merged coarse key shared by the group's values.
    pub key: Pattern,
    /// Number of column values in the group (all, not only sampled).
    pub count: usize,
    /// Number of values actually sampled into the bitsets.
    pub sample_size: usize,
    /// Flattened per-position candidate tokens with support.
    pub positions: Vec<PositionOptions>,
}

/// One enumerated pattern with its exact sample support.
#[derive(Debug, Clone)]
pub struct SupportedPattern {
    /// The pattern.
    pub pattern: Pattern,
    /// Number of sampled values `v` with `pattern ∈ P(v)`.
    pub support: usize,
}

impl CoarseGroup {
    /// Enumerate fine-grained patterns with exact supports (step 2 of
    /// Algorithm 1). Patterns supported by zero sampled values and the
    /// trivial all-`<any>+` pattern are dropped. When the cross-product
    /// exceeds `cfg.max_patterns`, the most specific options are trimmed
    /// from the widest positions first.
    pub fn enumerate(&self, cfg: &PatternConfig) -> Vec<SupportedPattern> {
        self.enumerate_segment(0, self.positions.len(), 1, cfg)
    }

    /// Enumerate patterns for the position range `[start, end)` only,
    /// keeping patterns supported by at least `min_support` sampled values.
    /// This is the building block of the vertical-cut DP (§3): each segment
    /// `C[s, e]` is treated "just like a regular column cut from C".
    ///
    /// Materializing convenience wrapper over [`CoarseGroup::for_each_pattern`]
    /// — hot callers (the offline indexer, the vertical DP) should stream
    /// instead and materialize only the patterns they keep.
    pub fn enumerate_segment(
        &self,
        start: usize,
        end: usize,
        min_support: usize,
        cfg: &PatternConfig,
    ) -> Vec<SupportedPattern> {
        let mut out: Vec<SupportedPattern> = Vec::new();
        with_enum_scratch(|scratch| {
            self.for_each_pattern(
                start,
                end,
                min_support,
                cfg,
                scratch,
                |_, _| true,
                |sp| {
                    out.push(SupportedPattern {
                        pattern: sp.to_pattern(),
                        support: sp.support,
                    });
                },
            );
        });
        out
    }

    /// Stream the fine-grained patterns of the position range `[start, end)`
    /// without materializing them: the DFS threads an incremental FNV-1a
    /// fingerprint state ([`crate::FingerprintState`]) through every
    /// push/pop and intersects support bitsets into a depth-indexed scratch
    /// pool, so each emitted [`StreamedPattern`] costs zero allocations.
    /// Emission order, pruning, cap-trimming, and the exclusion of the
    /// trivial all-`<any>+` pattern are identical to
    /// [`CoarseGroup::enumerate_segment`].
    ///
    /// `descend` is asked at every internal node whose last token is not a
    /// literal, with the node's [`FingerprintState::closed`] key and its
    /// canonical token count; on `false` the subtree below is skipped. The
    /// offline indexer records keys through it, inference asks the index
    /// whether any indexed pattern extends the prefix, and a caller that
    /// wants every pattern passes `|_, _| true`.
    #[allow(clippy::too_many_arguments)] // the segment, its floor and caps, and two hooks
    pub fn for_each_pattern<D, F>(
        &self,
        start: usize,
        end: usize,
        min_support: usize,
        cfg: &PatternConfig,
        scratch: &mut EnumScratch,
        mut descend: D,
        mut f: F,
    ) where
        D: FnMut(u64, usize) -> bool,
        F: FnMut(&StreamedPattern<'_>),
    {
        assert!(
            start <= end && end <= self.positions.len(),
            "segment bounds"
        );
        if start == end {
            // The empty segment is supported by every sampled value.
            f(&StreamedPattern {
                fingerprint: FingerprintState::new().finish(),
                support: self.sample_size,
                token_len: 0,
                tokens: &[],
            });
            return;
        }
        let positions = &self.positions[start..end];
        let n = positions.len();
        let EnumScratch {
            levels, offsets, ..
        } = scratch;
        // Trim to fit the cap: drop options from the *front* of the widest
        // position (options are stored in trim order) by advancing a
        // per-position offset — no option vector is ever copied.
        offsets.clear();
        offsets.resize(n, 0);
        loop {
            let product: u128 = positions
                .iter()
                .zip(offsets.iter())
                .map(|(p, off)| (p.options.len() - off) as u128)
                .product();
            if product <= cfg.max_patterns as u128 {
                break;
            }
            let widest = (0..n)
                .max_by_key(|&i| positions[i].options.len() - offsets[i])
                .expect("positions non-empty");
            if positions[widest].options.len() - offsets[widest] <= 1 {
                break;
            }
            offsets[widest] += 1;
        }
        // One support bitset per depth, reused across the whole group.
        if levels.len() < n {
            levels.resize_with(n, || BitSet::new(0));
        }
        for level in &mut levels[..n] {
            level.reset(self.sample_size);
        }
        let mut stack: Vec<&Token> = Vec::with_capacity(n);
        stream_rec(
            positions,
            offsets,
            &mut levels[..n],
            &mut stack,
            0,
            self.sample_size,
            FingerprintState::new(),
            0,
            0,
            min_support.max(1),
            &mut descend,
            &mut f,
        );
    }

    /// Only the patterns supported by *every* sampled value — the group's
    /// contribution to `H(C) = ∩ P(v)`. Enumerated directly with the
    /// full-support floor, so partially-supported branches are pruned at
    /// the first position instead of being generated and filtered.
    pub(crate) fn full_support_patterns(&self, cfg: &PatternConfig) -> Vec<Pattern> {
        self.enumerate_segment(0, self.positions.len(), self.sample_size, cfg)
            .into_iter()
            .map(|sp| sp.pattern)
            .collect()
    }
}

/// One pattern emitted by the streaming enumeration. The fingerprint,
/// support, and canonical token count are already computed; the raw token
/// stack is borrowed so display forms and [`Pattern`]s are materialized
/// only when a consumer actually wants them.
#[derive(Debug)]
pub struct StreamedPattern<'a> {
    /// Canonical FNV-1a fingerprint — identical to
    /// [`Pattern::fingerprint`] of [`StreamedPattern::to_pattern`].
    pub fingerprint: u64,
    /// Number of sampled values supporting the pattern.
    pub support: usize,
    /// Canonical token count (adjacent literals count once).
    pub token_len: usize,
    tokens: &'a [&'a Token],
}

impl StreamedPattern<'_> {
    /// Materialize the canonical [`Pattern`].
    pub fn to_pattern(&self) -> Pattern {
        Pattern::new(self.tokens.iter().map(|t| (*t).clone()).collect())
    }

    /// Sum of per-token specificity ranks, identical to
    /// [`Pattern::specificity`] of the materialized pattern (literal
    /// merging cannot change the sum — literals rank 0). Lets selection
    /// loops rank candidates without materializing them.
    pub fn specificity(&self) -> u32 {
        self.tokens.iter().map(|t| t.specificity() as u32).sum()
    }

    /// Materialize the display form without building a [`Pattern`].
    /// Adjacent literals render contiguously, so this equals
    /// `self.to_pattern().to_string()`.
    pub fn display(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for t in self.tokens {
            let _ = write!(s, "{t}");
        }
        s
    }
}

/// Reusable scratch for profiling columns: the streaming enumeration DFS's
/// one support bitset per depth and cap-trim offsets, and — for
/// [`stream_column_profile`], which analyzes before it enumerates — the
/// analyzer's run table and support arena. One instance serves any number
/// of groups, columns, and segment calls; steady-state enumeration performs
/// no heap allocation besides one small pointer stack per segment.
#[derive(Debug, Default)]
pub struct EnumScratch {
    levels: Vec<BitSet>,
    offsets: Vec<usize>,
    analysis: AnalyzeScratch,
}

thread_local! {
    static ENUM_SCRATCH: std::cell::RefCell<EnumScratch> =
        std::cell::RefCell::new(EnumScratch::default());
}

/// Run `f` with the thread-local scratch (used by [`analyze_column`] and
/// the materializing wrappers; hot loops hold their own [`EnumScratch`]).
fn with_enum_scratch<R>(f: impl FnOnce(&mut EnumScratch) -> R) -> R {
    ENUM_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[allow(clippy::too_many_arguments)] // internal DFS: args are the per-depth saved state
fn stream_rec<'g, D, F>(
    positions: &'g [PositionOptions],
    offsets: &[usize],
    levels: &mut [BitSet],
    stack: &mut Vec<&'g Token>,
    depth: usize,
    support: usize,
    st: FingerprintState,
    token_len: usize,
    any_count: usize,
    min_support: usize,
    descend: &mut D,
    f: &mut F,
) where
    D: FnMut(u64, usize) -> bool,
    F: FnMut(&StreamedPattern<'_>),
{
    if depth == positions.len() {
        // The all-`<any>+` pattern is the paper's excluded trivial `.*`.
        if any_count < depth {
            f(&StreamedPattern {
                fingerprint: st.finish(),
                support,
                token_len,
                tokens: stack,
            });
        }
        return;
    }
    for (token, bits) in &positions[depth].options[offsets[depth]..] {
        // Support only shrinks with depth, so pruning here is exact. The
        // child's support set is intersected into this depth's pooled
        // bitset and counted in the same pass — nothing is cloned and
        // nothing is recounted at emission.
        let count = if depth == 0 {
            levels[0].copy_and_count(bits)
        } else {
            let (parents, children) = levels.split_at_mut(depth);
            children[0].and_count(&parents[depth - 1], bits)
        };
        if count < min_support {
            continue;
        }
        let (child, child_len) = (st.push(token), token_len + usize::from(!st.merges(token)));
        // An internal node that ends in a non-literal is a canonical
        // prefix the caller may decline. One that ends in a literal is not
        // asked: the next position's literal would still extend it.
        if depth + 1 < positions.len() {
            if let Some(key) = child.closed() {
                if !descend(key, child_len) {
                    continue;
                }
            }
        }
        stack.push(token);
        stream_rec(
            positions,
            offsets,
            levels,
            stack,
            depth + 1,
            count,
            child,
            child_len,
            any_count + usize::from(token.is_any()),
            min_support,
            descend,
            f,
        );
        stack.pop();
    }
}

/// Full analysis result for a column.
#[derive(Debug, Clone)]
pub struct ColumnAnalysis {
    /// Retained coarse groups, largest first.
    pub groups: Vec<CoarseGroup>,
    /// Total number of values analyzed (including dropped groups).
    pub total_values: usize,
}

impl ColumnAnalysis {
    /// The dominant group, if any.
    pub fn dominant(&self) -> Option<&CoarseGroup> {
        self.groups.first()
    }

    /// Single coarse structure covering every value (basic-FMDV assumption)?
    pub fn is_homogeneous(&self) -> bool {
        self.groups.len() == 1 && self.groups[0].count == self.total_values
    }
}

/// "No entry" in the analyzer's index-linked tables.
const NONE: usize = usize::MAX;

/// One strict run of a sampled value, as the scan leaves it in the run
/// table: where its text lies in the value, how many *characters* it
/// holds (wrapped to 16 bits, the width of a fixed-width token) and what
/// its class and case make it to the generalization chain.
#[derive(Debug, Clone, Copy)]
struct StrictRun {
    start: usize,
    end: usize,
    width: u16,
    shape: RunShape,
}

/// A sampled value: which one, where its merged-run boundaries start in
/// the boundary table, and the next sampled member of its group.
#[derive(Debug, Clone, Copy)]
struct Member {
    value: usize,
    bounds: usize,
    next: usize,
}

/// A coarse group while the column is being scanned.
#[derive(Debug)]
struct Group {
    /// Keyed hash of the merged-class sequence.
    hash: u64,
    /// The sequence itself: `arity` classes from this offset of the arena.
    classes: usize,
    arity: usize,
    /// Values in the group, and how many of them were sampled.
    count: usize,
    sampled: usize,
    /// First and last sampled member, in value order.
    head: usize,
    tail: usize,
}

/// The sampled values sharing one run signature — shape and width — at the
/// position being flattened. Every class token is a function of the
/// signature, so supports are counted per signature and OR-ed into the
/// tokens once, not noted per value.
#[derive(Debug)]
struct Signature {
    shape: RunShape,
    width: u16,
    /// Offset of the support bitset in the word arena.
    words: usize,
}

/// A distinct literal at the position being flattened: the hash of its
/// text, where the text lies (in the first value that showed it), how many
/// sampled values show it and their bitset in the word arena.
#[derive(Debug)]
struct Literal {
    hash: u64,
    value: usize,
    start: usize,
    end: usize,
    count: usize,
    words: usize,
}

/// An open-addressing index over entries the caller stores: a slot holds
/// an entry's id plus one, zero while empty. Entries keep their own hash,
/// and a probe that lands on one is only a hit once the caller's
/// comparison has confirmed it.
#[derive(Debug, Default)]
struct ProbeTable {
    slots: Vec<usize>,
}

impl ProbeTable {
    /// Empty the table and size it to hold `entries` at half load.
    fn reset(&mut self, entries: usize) {
        self.slots.clear();
        self.slots
            .resize((2 * entries).next_power_of_two().max(8), 0);
    }

    /// Walk `hash`'s probe sequence: the first entry `confirm` accepts, or
    /// the empty slot the sequence ends in.
    fn find(&self, hash: u64, mut confirm: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                id if confirm(id - 1) => return Ok(id - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn fill(&mut self, slot: usize, id: usize) {
        self.slots[slot] = id + 1;
    }
}

#[cfg(test)]
thread_local! {
    /// Value bytes the scan looked up in [`KIND`] on this thread.
    static BYTES_CLASSIFIED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Make every group and literal hash on this thread the same number.
    static CONSTANT_HASH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Hash of a literal's text. Unkeyed on purpose: the table it feeds holds
/// at most `sample_values` entries, so texts built to collide cost one
/// position the linear probe over its distinct literals — the bound the
/// sample cap sets — and nothing grows with the column.
fn literal_hash(text: &[u8]) -> u64 {
    #[cfg(test)]
    if CONSTANT_HASH.with(std::cell::Cell::get) {
        return 0;
    }
    fnv1a(text)
}

/// Append a zeroed support bitset of `n` words to the arena.
fn new_support(words: &mut Vec<u64>, n: usize) -> usize {
    let at = words.len();
    words.resize(at + n, 0);
    at
}

/// Record sampled member `slot` in the support bitset at `at`.
#[inline]
fn support(words: &mut [u64], at: usize, slot: usize) {
    words[at + slot / 64] |= 1u64 << (slot % 64);
}

/// Reusable scratch of the column analyzer.
///
/// **The run table.** Each value is scanned once, byte by byte, into flat
/// tables: its strict runs ([`StrictRun`]), the index of the run that opens
/// each merged run (plus an end sentinel), and its merged-class sequence.
/// The sequence finds the value's coarse group — compared with the previous
/// value's group first, hashed and probed otherwise — and the runs stay in
/// the table only while the group still samples; nothing is allocated per
/// value, and no `Pattern` is built to group by.
///
/// **Signature supports.** A retained group's positions are then flattened
/// one at a time over its sampled members: each member's run adds its slot
/// to the bitset of its [`Signature`] (a handful per position) and to that
/// of its [`Literal`], found by text in an open-addressing table. Bitsets
/// live in one word arena; an owned [`BitSet`] and a boxed `Token::Lit` are
/// made only for the options that survive the support floor.
#[derive(Debug, Default)]
struct AnalyzeScratch {
    runs: Vec<StrictRun>,
    bounds: Vec<usize>,
    members: Vec<Member>,
    /// Arena of merged-class sequences, one per group.
    classes: Vec<u8>,
    groups: Vec<Group>,
    group_table: ProbeTable,
    /// Keys the group hash: the number of groups is bounded only by the
    /// column, and its values come from outside the program.
    group_hasher: std::hash::RandomState,
    /// The group being flattened: `(value, bounds)` of its sampled members,
    /// in slot order.
    slots: Vec<(usize, usize)>,
    /// The position being flattened.
    words: Vec<u64>,
    signatures: Vec<Signature>,
    class_tokens: Vec<(Token, usize)>,
    literals: Vec<Literal>,
    literal_table: ProbeTable,
}

impl AnalyzeScratch {
    /// Algorithm 1 over the values of at most `tau` merged tokens: group by
    /// merged coarse key, flatten positions (strict sub-runs where the
    /// whole group agrees on sub-structure, merged segments otherwise) and
    /// record per-token supports. `total_values` counts the values within τ.
    fn analyze<S: AsRef<str>>(
        &mut self,
        values: &[S],
        cfg: &PatternConfig,
        tau: usize,
    ) -> ColumnAnalysis {
        self.runs.clear();
        self.bounds.clear();
        self.members.clear();
        self.classes.clear();
        self.groups.clear();
        self.group_table.reset(0);
        let mut total = 0usize;
        let mut previous = NONE;
        for (value, text) in values.iter().enumerate() {
            let (runs, bounds, classes) = (self.runs.len(), self.bounds.len(), self.classes.len());
            if !self.scan(text.as_ref(), cfg.case_tokens, tau) {
                self.runs.truncate(runs);
                self.bounds.truncate(bounds);
                self.classes.truncate(classes);
                continue;
            }
            total += 1;
            previous = self.group_of(classes, previous);
            let group = &mut self.groups[previous];
            group.count += 1;
            if group.sampled == cfg.sample_values {
                self.runs.truncate(runs);
                self.bounds.truncate(bounds);
                continue;
            }
            group.sampled += 1;
            let member = self.members.len();
            self.members.push(Member {
                value,
                bounds,
                next: NONE,
            });
            match group.tail {
                NONE => group.head = member,
                tail => self.members[tail].next = member,
            }
            group.tail = member;
        }
        let min_count = ((cfg.coverage_frac * total as f64).ceil() as usize).max(1);
        let mut groups: Vec<CoarseGroup> = Vec::new();
        for g in 0..self.groups.len() {
            if self.groups[g].count >= min_count {
                groups.push(self.flatten(g, values, cfg));
            }
        }
        groups.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        ColumnAnalysis {
            groups,
            total_values: total,
        }
    }

    /// Scan one value into the tables: a [`StrictRun`] per strict run, a
    /// boundary and a class per merged run, an end sentinel. Returns
    /// `false`, with the tables part-written, as soon as the value shows
    /// more than `tau` merged runs.
    fn scan(&mut self, value: &str, case_tokens: bool, tau: usize) -> bool {
        let bytes = value.as_bytes();
        // The open strict and merged runs, as the kinds that extend them
        // (none before the first byte), and what the strict run has shown.
        let (mut strict, mut merged) = (0u8, 0u8);
        let (mut start, mut kinds, mut continuations) = (0usize, 0u8, 0usize);
        let mut merged_runs = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            let k = KIND[b as usize];
            #[cfg(test)]
            BYTES_CLASSIFIED.with(|n| n.set(n.get() + 1));
            if k & strict == 0 {
                if i != 0 {
                    let shape = run_shape(strict, kinds, case_tokens);
                    self.close_run(start, i, continuations, shape);
                }
                if k & merged == 0 {
                    merged_runs += 1;
                    if merged_runs > tau {
                        return false;
                    }
                    merged = merged_class(k);
                    self.bounds.push(self.runs.len());
                    self.classes.push(merged);
                }
                strict = strict_class(k);
                (start, kinds, continuations) = (i, 0, 0);
            }
            kinds |= k;
            continuations += usize::from(k == kind::CONT);
        }
        if !bytes.is_empty() {
            let shape = run_shape(strict, kinds, case_tokens);
            self.close_run(start, bytes.len(), continuations, shape);
        }
        self.bounds.push(self.runs.len());
        true
    }

    #[inline]
    fn close_run(&mut self, start: usize, end: usize, continuations: usize, shape: RunShape) {
        self.runs.push(StrictRun {
            start,
            end,
            // Characters, not bytes; wraps as `chars().count() as u16` does.
            width: (end - start - continuations) as u16,
            shape,
        });
    }

    /// The group of the value whose merged classes are the arena's tail
    /// from `classes` on: `previous` if it fits, else the one the table
    /// finds, else a new one. The tail stays only as a new group's key.
    fn group_of(&mut self, classes: usize, previous: usize) -> usize {
        let (known, key) = self.classes.split_at(classes);
        let groups = &self.groups;
        let has_key = |g: usize| &known[groups[g].classes..][..groups[g].arity] == key;
        if previous != NONE && has_key(previous) {
            self.classes.truncate(classes);
            return previous;
        }
        let hash = self.group_hash(key);
        match self
            .group_table
            .find(hash, |g| groups[g].hash == hash && has_key(g))
        {
            Ok(found) => {
                self.classes.truncate(classes);
                found
            }
            Err(slot) => {
                let new = self.groups.len();
                self.groups.push(Group {
                    hash,
                    classes,
                    arity: key.len(),
                    count: 0,
                    sampled: 0,
                    head: NONE,
                    tail: NONE,
                });
                self.group_table.fill(slot, new);
                if 2 * self.groups.len() > self.group_table.slots.len() {
                    self.group_table.reset(2 * self.groups.len());
                    for (g, group) in self.groups.iter().enumerate() {
                        let slot = self
                            .group_table
                            .find(group.hash, |_| false)
                            .expect_err("nothing confirms, so the probe ends in an empty slot");
                        self.group_table.fill(slot, g);
                    }
                }
                new
            }
        }
    }

    fn group_hash(&self, classes: &[u8]) -> u64 {
        #[cfg(test)]
        if CONSTANT_HASH.with(std::cell::Cell::get) {
            return 0;
        }
        self.group_hasher.hash_one(classes)
    }

    /// Flatten retained group `g` into per-position options with supports.
    fn flatten<S: AsRef<str>>(
        &mut self,
        g: usize,
        values: &[S],
        cfg: &PatternConfig,
    ) -> CoarseGroup {
        let group = &self.groups[g];
        let (count, sample_size, arity) = (group.count, group.sampled, group.arity);
        let key = self.classes[group.classes..][..arity]
            .iter()
            .map(|class| merged_token(*class))
            .collect();
        self.slots.clear();
        let mut member = group.head;
        while member != NONE {
            let Member {
                value,
                bounds,
                next,
            } = self.members[member];
            self.slots.push((value, bounds));
            member = next;
        }
        // Drill-down retention (Alg. 1): a candidate token must cover at
        // least the configured fraction of values — and never fewer than 2
        // once the sample is big enough to tell ("seeing a pattern once or
        // twice is not sufficient", §2.2). Tiny samples (single values,
        // short test columns) keep everything.
        let floor = if sample_size >= 8 { 2 } else { 1 };
        let min_support = ((cfg.coverage_frac * sample_size as f64).ceil() as usize).max(floor);
        let mut positions: Vec<PositionOptions> = Vec::with_capacity(arity);
        // With `sample_values` 0 nothing is sampled, so nothing to flatten.
        let flattened = if self.slots.is_empty() { 0 } else { arity };
        for j in 0..flattened {
            // Does the whole sample share the strict sub-structure here?
            // Strict runs inside a merged run alternate between digits and
            // letters, so their number and the first one's class fix it.
            let structure = |bounds: usize| {
                let (lo, hi) = (self.bounds[bounds + j], self.bounds[bounds + j + 1]);
                (hi - lo, self.runs[lo].shape == RunShape::Digit)
            };
            let shared = structure(self.slots[0].1);
            if self
                .slots
                .iter()
                .all(|(_, bounds)| structure(*bounds) == shared)
            {
                for sub in 0..shared.0 {
                    positions.push(self.position(values, j, Some(sub), min_support));
                }
            } else {
                positions.push(self.position(values, j, None, min_support));
            }
        }
        CoarseGroup {
            key: Pattern::new(key),
            count,
            sample_size,
            positions,
        }
    }

    /// The options of one flattened position of the group in `slots`:
    /// strict sub-run `sub` of merged run `j`, or the whole merged
    /// (alphanumeric) run for `None`.
    fn position<S: AsRef<str>>(
        &mut self,
        values: &[S],
        j: usize,
        sub: Option<usize>,
        min_support: usize,
    ) -> PositionOptions {
        let AnalyzeScratch {
            runs,
            bounds,
            slots,
            words,
            signatures,
            class_tokens,
            literals,
            literal_table,
            ..
        } = self;
        let sample_size = slots.len();
        let n = sample_size.div_ceil(64);
        words.clear();
        signatures.clear();
        class_tokens.clear();
        literals.clear();
        literal_table.reset(sample_size);
        let text = |value: usize, start: usize, end: usize| -> &[u8] {
            &values[value].as_ref().as_bytes()[start..end]
        };
        // Neighbouring values mostly repeat the signature, and at a
        // delimiter the literal: try the last hit before searching.
        let mut signature = NONE;
        let (mut literal, mut literal_text) = (NONE, &[][..]);
        for (slot, &(value, at)) in slots.iter().enumerate() {
            let lo = bounds[at + j];
            let (shape, width, start, end) = match sub {
                Some(sub) => {
                    let run = runs[lo + sub];
                    (run.shape, run.width, run.start, run.end)
                }
                None => {
                    let subs = &runs[lo..bounds[at + j + 1]];
                    let width = subs.iter().fold(0u16, |w, run| w.wrapping_add(run.width));
                    (
                        RunShape::Alnum,
                        width,
                        subs[0].start,
                        subs[subs.len() - 1].end,
                    )
                }
            };
            let same = |s: &Signature| s.shape == shape && s.width == width;
            if signature == NONE || !same(&signatures[signature]) {
                signature = signatures.iter().position(same).unwrap_or_else(|| {
                    signatures.push(Signature {
                        shape,
                        width,
                        words: new_support(words, n),
                    });
                    signatures.len() - 1
                });
            }
            support(words, signatures[signature].words, slot);

            let run_text = text(value, start, end);
            if literal == NONE || literal_text != run_text {
                let hash = literal_hash(run_text);
                let same =
                    |l: &Literal| l.hash == hash && text(l.value, l.start, l.end) == run_text;
                literal = match literal_table.find(hash, |l| same(&literals[l])) {
                    Ok(found) => found,
                    Err(free) => {
                        literal_table.fill(free, literals.len());
                        literals.push(Literal {
                            hash,
                            value,
                            start,
                            end,
                            count: 0,
                            words: new_support(words, n),
                        });
                        literals.len() - 1
                    }
                };
                literal_text = run_text;
            }
            literals[literal].count += 1;
            support(words, literals[literal].words, slot);
        }
        for signature in signatures.iter() {
            for_each_class_token(signature.shape, signature.width, |token| {
                let at = match class_tokens.iter().find(|(t, _)| *t == token) {
                    Some((_, at)) => *at,
                    None => {
                        class_tokens.push((token, new_support(words, n)));
                        class_tokens[class_tokens.len() - 1].1
                    }
                };
                for w in 0..n {
                    words[at + w] |= words[signature.words + w];
                }
            });
        }
        // Filter by support threshold (class-level tokens always have full
        // support and survive); only survivors get a token and a bitset.
        let count = |at: usize| -> usize {
            let words = &words[at..at + n];
            words.iter().map(|w| w.count_ones() as usize).sum()
        };
        let bits = |at: usize| BitSet {
            words: words[at..at + n].to_vec(),
            len: sample_size,
        };
        let keyed = |token: Token, bits: BitSet, count: usize| {
            (trim_rank(&token, count == sample_size), count, token, bits)
        };
        let mut options: Vec<(u8, usize, Token, BitSet)> =
            Vec::with_capacity(class_tokens.len() + 1);
        for (token, at) in class_tokens.drain(..) {
            let count = count(at);
            if count >= min_support {
                options.push(keyed(token, bits(at), count));
            }
        }
        for l in literals.iter().filter(|l| l.count >= min_support) {
            let text = &values[l.value].as_ref()[l.start..l.end];
            options.push(keyed(Token::lit(text), bits(l.words), l.count));
        }
        // Order for trimming: partial-support options first (lowest support
        // earliest), then full-support by expendability rank, with a token
        // tie-break — a total order over a position's distinct tokens, so
        // the order they were discovered in cannot show.
        options.sort_unstable_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
        PositionOptions {
            options: options.into_iter().map(|(.., t, bits)| (t, bits)).collect(),
        }
    }
}

/// What a closed strict run of class `strict` holding `kinds` is to the
/// generalization chain. Case is a property of letter runs, and only when
/// case tokens are on.
#[inline]
fn run_shape(strict: u8, kinds: u8, case_tokens: bool) -> RunShape {
    match strict {
        kind::DIGIT => RunShape::Digit,
        kind::LETTER if case_tokens && kinds == kind::UPPER => RunShape::Upper,
        kind::LETTER if case_tokens && kinds == kind::LOWER => RunShape::Lower,
        kind::LETTER => RunShape::Letter,
        kind::SPACE => RunShape::Space,
        _ => RunShape::Symbol,
    }
}

/// Analyze a column: group by merged coarse key, flatten positions (strict
/// sub-runs where the whole group agrees on sub-structure, merged segments
/// otherwise) and record per-token supports.
pub fn analyze_column<S: AsRef<str>>(values: &[S], cfg: &PatternConfig) -> ColumnAnalysis {
    with_enum_scratch(|scratch| scratch.analysis.analyze(values, cfg, usize::MAX))
}

/// The hypothesis space `H(C) = ∩_{v∈C} P(v) \ ".*"` (§2.1): patterns
/// supported by every sampled value, available only when the column is
/// homogeneous (one coarse structure) — otherwise empty, which is the case
/// horizontal cuts (§4) handle.
pub fn hypothesis_space<S: AsRef<str>>(values: &[S], cfg: &PatternConfig) -> Vec<Pattern> {
    let analysis = analyze_column(values, cfg);
    if !analysis.is_homogeneous() {
        return Vec::new();
    }
    analysis.groups[0].full_support_patterns(cfg)
}

/// The space `P(v)` of patterns consistent with a single value (§2.1),
/// bounded by the enumeration caps.
pub fn patterns_of_value(value: &str, cfg: &PatternConfig) -> Vec<Pattern> {
    analyze_column(&[value], cfg)
        .groups
        .first()
        .map(|g| g.enumerate(cfg).into_iter().map(|sp| sp.pattern).collect())
        .unwrap_or_default()
}

/// Per-pattern matched fraction over the whole column — the quantity behind
/// `Imp_D(p) = 1 − matched_fraction` (Def. 1). Used by the offline indexer.
///
/// `tau` is the token-limit τ of §2.4, measured in *merged* tokens (the
/// analyzer's positions): wider values are excluded from pattern generation
/// (vertical cuts compensate at query time); they still count in the
/// denominator, i.e. they are treated as non-matching, which is
/// conservative.
pub fn column_pattern_profile<S: AsRef<str>>(
    values: &[S],
    cfg: &PatternConfig,
    tau: usize,
) -> Vec<(Pattern, f64)> {
    let mut acc: HashMap<Pattern, f64> = HashMap::new();
    with_enum_scratch(|scratch| {
        stream_column_profile(
            values,
            cfg,
            tau,
            scratch,
            |_, _| true,
            |sp, frac| {
                *acc.entry(sp.to_pattern()).or_insert(0.0) += frac;
            },
        );
    });
    let mut out: Vec<(Pattern, f64)> = acc.into_iter().collect();
    out.sort_by(|(a, _), (b, _)| a.cmp(b));
    out
}

/// Streaming form of [`column_pattern_profile`]: the offline indexer's hot
/// loop. For every enumerated pattern of every retained coarse group the
/// sink receives the [`StreamedPattern`] (fingerprint, support, canonical
/// length, borrowed tokens) plus the pattern's matched-fraction
/// *contribution* from that group — `support × (group count / sample) /
/// |column|`. Summing the contributions per fingerprint over the whole call
/// yields exactly the fractions [`column_pattern_profile`] reports, but no
/// `Pattern` is materialized, no token vector is cloned or hashed, and no
/// intermediate per-pattern map is built here: the caller folds the triples
/// straight into its own accumulators.
///
/// A pattern may be emitted by more than one coarse group of the same
/// column (e.g. `<alnum>+<any>+` from both an `[alnum sym]` and an
/// `[alnum space]` group), so per-column consumers must merge by
/// fingerprint before treating an emission as "the column follows p".
///
/// `descend` is [`CoarseGroup::for_each_pattern`]'s prefix hook, asked
/// for every group.
pub fn stream_column_profile<S: AsRef<str>>(
    values: &[S],
    cfg: &PatternConfig,
    tau: usize,
    scratch: &mut EnumScratch,
    mut descend: impl FnMut(u64, usize) -> bool,
    mut sink: impl FnMut(&StreamedPattern<'_>, f64),
) {
    let total = values.len();
    let analysis = scratch.analysis.analyze(values, cfg, tau);
    for g in &analysis.groups {
        if g.sample_size == 0 {
            continue;
        }
        let scale = (g.count as f64 / g.sample_size as f64) / total as f64;
        g.for_each_pattern(0, g.positions.len(), 1, cfg, scratch, &mut descend, |sp| {
            sink(sp, sp.support as f64 * scale);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::matches;

    #[test]
    fn bitset_basics() {
        let mut b = BitSet::new(130);
        assert_eq!(b.count(), 0);
        b.set(0);
        b.set(64);
        b.set(129);
        assert_eq!(b.count(), 3);
        assert!(b.get(64));
        assert!(!b.get(63));
        let mut c = BitSet::new(130);
        c.set(64);
        c.set(100);
        b.and_assign(&c);
        assert_eq!(b.count(), 1);
        assert!(b.get(64));
    }

    /// Columns that exercise every look-up of the analyzer: many coarse
    /// groups, interleaved so a value's group is rarely the previous
    /// value's; positions with one literal and with a distinct literal per
    /// value; inconsistent sub-structure; non-ASCII runs; empty strings; a
    /// value past any τ.
    fn look_up_heavy_columns() -> Vec<Vec<String>> {
        let interleaved = (0..120)
            .map(|i| match i % 12 {
                0 => format!("{i}"),
                1 => format!("{i}-{i}"),
                2 => format!("{i} {i}"),
                3 => format!("{i}:{i}:{i}"),
                4 => format!("x{i}/y"),
                5 => format!("-{i}"),
                6 => format!(" {i}"),
                7 => format!("{i}.{i}.{i}.{i}"),
                8 => format!("é{i}日本"),
                9 => String::new(),
                10 => format!("a{i}b-{i}c"),
                _ => "1/2/3 4:5:6 7-8".to_string(),
            })
            .collect();
        let ids = (0..300).map(|i| format!("id-{:04x}-{}", i * 7919, i % 3));
        vec![interleaved, ids.collect()]
    }

    /// A hit in either open-addressing table is confirmed by comparing the
    /// merged classes or the literal's text, never taken on the hash's
    /// word: with every hash forced equal — every probe a collision, the
    /// group table regrown through one chain — the analysis is unchanged.
    #[test]
    fn colliding_hashes_change_no_answer() {
        for cfg in [
            PatternConfig::default(),
            PatternConfig {
                coverage_frac: 0.0,
                sample_values: 40,
                ..Default::default()
            },
        ] {
            for column in look_up_heavy_columns() {
                let hashed = format!("{:?}", analyze_column(&column, &cfg));
                CONSTANT_HASH.with(|on| on.set(true));
                let collided = format!("{:?}", analyze_column(&column, &cfg));
                CONSTANT_HASH.with(|on| on.set(false));
                assert_eq!(collided, hashed);
            }
        }
    }

    /// The scan is the only place a value's bytes are classified, and it
    /// passes over each once — whatever the number of groups, positions
    /// and sampled members; behind τ it stops at the byte that shows a
    /// value too wide.
    #[test]
    fn each_value_byte_is_classified_once() {
        let classified = |run: &dyn Fn()| {
            BYTES_CLASSIFIED.with(|n| n.set(0));
            run();
            BYTES_CLASSIFIED.with(|n| n.get())
        };
        let cfg = PatternConfig {
            sample_values: 16,
            ..Default::default()
        };
        for column in look_up_heavy_columns() {
            let bytes: usize = column.iter().map(String::len).sum();
            let whole = classified(&|| {
                analyze_column(&column, &cfg);
            });
            assert_eq!(whole, bytes);
            let too_wide = column.iter().filter(|v| merged_token_count(v) > 5).count();
            let narrow = classified(&|| {
                let mut scratch = EnumScratch::default();
                stream_column_profile(&column, &cfg, 5, &mut scratch, |_, _| true, |_, _| {});
            });
            assert!(narrow <= bytes, "{narrow} of {bytes} bytes classified");
            assert_eq!(narrow < bytes, too_wide > 0);
        }
    }

    /// `(key, canonical length)` of every prefix of `p` the enumeration
    /// asks about: each one that ends in a non-literal, short of `p`.
    fn closed_prefixes(p: &Pattern) -> Vec<(u64, usize)> {
        let tokens = p.tokens();
        let mut state = FingerprintState::new();
        let mut out = Vec::new();
        for (i, token) in tokens.iter().enumerate().take(tokens.len() - 1) {
            state = state.push(token);
            out.extend(state.closed().map(|key| (key, i + 1)));
        }
        out
    }

    /// The prefix hook sees every closed internal node — the canonical
    /// prefixes of the emitted patterns, keyed as the prefix's own
    /// fingerprint, with its length — and declining a key drops exactly
    /// the patterns that extend it: cap trimming and support pruning see
    /// what they saw without the hook.
    #[test]
    fn declined_prefixes_drop_exactly_the_patterns_that_extend_them() {
        let values = [
            "2019-03-14 12:03 UTC",
            "2020-11-02 07:45 UTC",
            "2021-01-30 23:59 CET",
            "2022-07-09 00:00 UTC",
            "1999-12-31 18:30 EST",
        ];
        let cfg = PatternConfig::default();
        let analysis = analyze_column(&values, &cfg);
        let group = &analysis.groups[0];
        let n = group.positions.len();
        let mut scratch = EnumScratch::default();
        let mut enumerate = |descend: &mut dyn FnMut(u64, usize) -> bool| {
            let mut out = Vec::new();
            group.for_each_pattern(0, n, 1, &cfg, &mut scratch, descend, |sp| {
                out.push(sp.to_pattern());
            });
            out
        };
        let mut asked = std::collections::BTreeSet::new();
        let all = enumerate(&mut |key, len| {
            asked.insert((key, len));
            true
        });
        let derived: std::collections::BTreeSet<(u64, usize)> =
            all.iter().flat_map(closed_prefixes).collect();
        assert_eq!(asked, derived);
        assert!(asked.len() > 20, "{} prefixes", asked.len());
        for p in &all {
            for (key, len) in closed_prefixes(p) {
                let prefix = Pattern::new(p.tokens()[..len].to_vec());
                assert_eq!(key, prefix.fingerprint(), "{prefix} of {p}");
            }
        }
        for stride in [2, 3, 7] {
            let declined: std::collections::HashSet<u64> =
                asked.iter().step_by(stride).map(|(key, _)| *key).collect();
            let kept = enumerate(&mut |key, _| !declined.contains(&key));
            let want: Vec<&Pattern> = all
                .iter()
                .filter(|p| {
                    closed_prefixes(p)
                        .iter()
                        .all(|(k, _)| !declined.contains(k))
                })
                .collect();
            assert!(want.len() < all.len(), "stride {stride} declines nothing");
            assert_eq!(kept.iter().collect::<Vec<_>>(), want, "stride {stride}");
        }
    }

    #[test]
    fn guid_column_is_homogeneous_and_yields_alnum_patterns() {
        let values = [
            "550e8400-e29b-41d4-a716-446655440000",
            "67e55044-10b1-426f-9247-bb680e5fe0c8",
            "deadbeef-cafe-babe-f00d-000000000001",
        ];
        let cfg = PatternConfig::default();
        let analysis = analyze_column(&values, &cfg);
        assert!(analysis.is_homogeneous());
        let h = hypothesis_space(&values, &cfg);
        assert!(!h.is_empty());
        // The canonical GUID pattern must be among the hypotheses.
        let want = crate::parser::parse("<alnum>{8}-<alnum>{4}-<alnum>{4}-<alnum>{4}-<alnum>{12}")
            .unwrap();
        assert!(h.contains(&want), "H(C) missing {want}");
        for p in &h {
            for v in &values {
                assert!(matches(p, v), "{p} vs {v}");
            }
        }
    }

    #[test]
    fn impure_column_reports_partial_support() {
        // Fig. 6's D: time-stamps where some values have 1-digit hours and
        // some 2-digit hours. The narrow pattern h2 must come out with
        // partial support (impurity > 0), not disappear.
        let values = [
            "9:07:32 AM",
            "8:01:15 AM",
            "7:00:00 PM",
            "10:02:20 AM",
            "11:45:12 PM",
            "12:01:32 PM",
        ];
        let cfg = PatternConfig::default();
        let analysis = analyze_column(&values, &cfg);
        assert_eq!(analysis.groups.len(), 1, "one coarse structure");
        let g = &analysis.groups[0];
        let enumerated = g.enumerate(&cfg);
        // h2-like pattern with a single-digit hour.
        let h2 = crate::parser::parse("<digit>{1}:<digit>{2}:<digit>{2} <letter>{2}").unwrap();
        let found = enumerated
            .iter()
            .find(|sp| sp.pattern == h2)
            .unwrap_or_else(|| panic!("h2 not enumerated"));
        assert_eq!(found.support, 3, "three values have 1-digit hours");
        // The good pattern has full support.
        let h5 = crate::parser::parse("<digit>+:<digit>{2}:<digit>{2} <letter>{2}").unwrap();
        let found5 = enumerated.iter().find(|sp| sp.pattern == h5).unwrap();
        assert_eq!(found5.support, 6);
    }

    #[test]
    fn profile_reports_matched_fractions() {
        let values = [
            "9:07:32 AM",
            "8:01:15 AM",
            "7:00:00 PM",
            "10:02:20 AM",
            "11:45:12 PM",
            "12:01:32 PM",
        ];
        let cfg = PatternConfig::default();
        let profile = column_pattern_profile(&values, &cfg, 13);
        let h2 = crate::parser::parse("<digit>{1}:<digit>{2}:<digit>{2} <letter>{2}").unwrap();
        let h5 = crate::parser::parse("<digit>+:<digit>{2}:<digit>{2} <letter>{2}").unwrap();
        let frac = |p: &Pattern| {
            profile
                .iter()
                .find(|(q, _)| q == p)
                .map(|(_, f)| *f)
                .unwrap_or(0.0)
        };
        assert!((frac(&h2) - 0.5).abs() < 1e-9, "h2 frac = {}", frac(&h2));
        assert!((frac(&h5) - 1.0).abs() < 1e-9, "h5 frac = {}", frac(&h5));
    }

    #[test]
    fn tau_excludes_wide_values() {
        // One narrow value, one 15-token value; τ = 8 keeps only the narrow
        // one and scales by the full column size.
        let values = ["abc", "1/2/3 4:5:6 7-8"];
        let cfg = PatternConfig::default();
        let profile = column_pattern_profile(&values, &cfg, 8);
        assert!(!profile.is_empty());
        for (p, f) in &profile {
            assert!(*f <= 0.5 + 1e-9, "{p} has frac {f}");
        }
    }

    #[test]
    fn mixed_alnum_and_symbol_structures_are_different_groups() {
        let values = ["12345", "hello", "2019-01-01"];
        let cfg = PatternConfig::default();
        let analysis = analyze_column(&values, &cfg);
        assert_eq!(analysis.groups.len(), 2); // [alnum] ×2 and [alnum sym alnum sym alnum]
        assert!(hypothesis_space(&values, &cfg).is_empty());
    }

    #[test]
    fn pure_alnum_disagreement_still_shares_alnum_level() {
        // "12345" and "hello" have the same merged key; H(C) contains the
        // alnum-level generalizations only.
        let values = ["12345", "hello"];
        let cfg = PatternConfig::default();
        let h = hypothesis_space(&values, &cfg);
        let alnum5 = Pattern::new(vec![Token::Alnum(5)]);
        let alnum_plus = Pattern::new(vec![Token::AlnumPlus]);
        assert!(h.contains(&alnum5));
        assert!(h.contains(&alnum_plus));
        assert!(h.iter().all(|p| !p.is_trivial()));
    }
}
