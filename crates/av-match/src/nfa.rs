//! The byte-level NFA behind [`crate::CatalogMatcher`] and [`crate::Regex`].
//!
//! Both front-ends build into one arena of [`NState`]s, backwards by
//! continuation: every builder takes the state to go to *after* its piece
//! and returns the piece's entry. Pattern rules share one arena: each
//! rule's fused instruction program ([`av_pattern::CompiledPattern`]) is
//! translated into a contiguous *fragment* of NFA states ending in an
//! [`NState::Accept`] tagged with the rule id. Fragments are
//! self-contained — every edge stays inside its fragment — which is what
//! makes incremental maintenance cheap:
//!
//! * **insert** appends a fragment; existing states never gain edges into
//!   it, so previously determinized DFA states stay valid as-is;
//! * **remove** tombstones one fragment's range; only DFA states whose
//!   state-set intersects that range can be stale.
//!
//! The translation follows the program's byte-level view of its classes
//! (ASCII classes test single bytes; `<sym>`/`<any>` step over multi-byte
//! characters lead-byte-first), so on any valid UTF-8 input the union
//! accepts precisely the rules whose pattern accepts the value — the
//! equivalence the oracle proptest pins against the reference matcher.
//! A regex is one such automaton of its own; its character sets lower to
//! the UTF-8 byte-range sequences of their scalars.
//!
//! One simulation serves everything: [`Nfa::step`] advances a thread list
//! over one byte (the DFA cache's subset construction, and
//! [`crate::explain`]'s pass), and [`Nfa::run`] runs it over a whole input
//! (regexes, and the matcher's fallback once its DFA budget is spent).

use av_pattern::{ClassView, CompiledPattern, InstView};
use std::collections::HashMap;
use std::ops::Range;

/// A 256-bit byte membership set.
type ByteSet = [u64; 4];

/// Every non-ASCII scalar value: what `<sym>` and `<any>`, and a negated
/// ASCII regex class, accept beyond U+007F.
const NON_ASCII: (u32, u32) = (0x80, 0x10_FFFF);

#[inline]
fn set_contains(set: &ByteSet, b: u8) -> bool {
    set[(b >> 6) as usize] >> (b & 63) & 1 != 0
}

#[inline]
const fn set_insert(set: &mut ByteSet, b: u8) {
    set[(b >> 6) as usize] |= 1 << (b & 63);
}

const fn range_set(lo: u8, hi: u8) -> ByteSet {
    let mut s = [0u64; 4];
    let mut b = lo as u32;
    while b <= hi as u32 {
        set_insert(&mut s, b as u8);
        b += 1;
    }
    s
}

/// The ASCII bytes `class` accepts, computed at compile time.
fn class_ascii(class: ClassView) -> ByteSet {
    const fn of(class: ClassView) -> ByteSet {
        let mut set = [0u64; 4];
        let mut b = 0;
        while b < 0x80 {
            if class.contains_ascii(b) {
                set_insert(&mut set, b);
            }
            b += 1;
        }
        set
    }
    match class {
        ClassView::Digit => const { of(ClassView::Digit) },
        ClassView::Upper => const { of(ClassView::Upper) },
        ClassView::Lower => const { of(ClassView::Lower) },
        ClassView::Letter => const { of(ClassView::Letter) },
        ClassView::Alnum => const { of(ClassView::Alnum) },
        ClassView::Space => const { of(ClassView::Space) },
        ClassView::Sym => const { of(ClassView::Sym) },
        ClassView::Any => const { of(ClassView::Any) },
    }
}

/// Interner for byte sets: states store a `u16` id, membership tests index
/// one shared table. Catalogs reuse a handful of class alphabets plus the
/// distinct literal bytes, so the table stays tiny no matter the rule count.
#[derive(Debug, Default, Clone)]
struct ByteSets {
    sets: Vec<ByteSet>,
    ids: HashMap<ByteSet, u16>,
}

impl ByteSets {
    fn intern(&mut self, set: ByteSet) -> u16 {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = u16::try_from(self.sets.len()).expect("byte-set interner overflow");
        self.sets.push(set);
        self.ids.insert(set, id);
        id
    }

    #[inline]
    fn contains(&self, id: u16, b: u8) -> bool {
        set_contains(&self.sets[id as usize], b)
    }
}

/// One NFA state. `u32` targets keep the arena compact; all targets point
/// inside the state's own fragment.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NState {
    /// Consume one byte in the interned set, go to `next`.
    Byte { set: u16, next: u32 },
    /// ε-split to both targets.
    Split { a: u32, b: u32 },
    /// The whole value matched rule `rule`.
    Accept { rule: u32 },
    /// Tombstone left by a removed fragment (never reachable from live
    /// fragments; swept out by compaction).
    Dead,
}

/// An insertion-ordered set of NFA state ids with O(1) membership: one
/// thread list of a simulation. Its buffers are reused across steps, so
/// steady-state simulation allocates nothing. Marking and listing are
/// separate because an ε-closure marks every state it visits (to
/// terminate) but lists only the states that consume input or accept.
#[derive(Debug, Default, Clone)]
pub(crate) struct ThreadSet {
    list: Vec<u32>,
    on: Vec<bool>,
    /// States an ε-closure walk has still to visit; empty between walks.
    pending: Vec<u32>,
}

impl ThreadSet {
    /// Empty the set and re-dimension the membership bitmap for state ids
    /// in `0..n`. Retains capacity, so reuse across inputs is
    /// allocation-free once the universe size stabilizes.
    pub(crate) fn clear_resize(&mut self, n: usize) {
        self.list.clear();
        self.on.clear();
        self.on.resize(n, false);
    }

    /// Mark `id` as visited; returns `true` when it was not yet marked.
    /// Marking does not add the id to the list — pair with
    /// [`ThreadSet::push`] for states that should appear there.
    #[inline]
    fn mark(&mut self, id: u32) -> bool {
        let slot = &mut self.on[id as usize];
        let fresh = !*slot;
        *slot = true;
        fresh
    }

    /// Append `id` to the list. The caller has already claimed it via
    /// [`ThreadSet::mark`]; pushing an unmarked or repeated id produces a
    /// duplicate entry.
    #[inline]
    fn push(&mut self, id: u32) {
        self.list.push(id);
    }

    /// The listed ids, in insertion order.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.list
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// Working memory of an NFA simulation: the current and the next thread
/// list. One scratch serves any automaton and any input (the lists
/// re-dimension per run), so steady-state matching — e.g. the grok
/// baseline probing a value against its whole library — allocates
/// nothing per call.
#[derive(Debug, Default)]
pub struct NfaScratch {
    pub(crate) current: ThreadSet,
    pub(crate) next: ThreadSet,
}

impl NfaScratch {
    /// Fresh, empty scratch.
    pub fn new() -> NfaScratch {
        NfaScratch::default()
    }
}

/// A rule's contiguous slice of the arena plus its entry state.
#[derive(Debug, Clone)]
pub(crate) struct Fragment {
    pub entry: u32,
    pub range: Range<u32>,
}

/// An NFA arena: every rule fragment of a catalog, or one regex.
#[derive(Debug, Default, Clone)]
pub(crate) struct Nfa {
    states: Vec<NState>,
    sets: ByteSets,
}

impl Nfa {
    /// Total arena size (live + tombstoned states).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    pub fn push(&mut self, state: NState) -> u32 {
        let id = u32::try_from(self.states.len()).expect("NFA arena overflow");
        self.states.push(state);
        id
    }

    /// One character, then `next`: the ASCII bytes `ascii` accepts as one
    /// byte state, plus the UTF-8 encodings of the scalars in `non_ascii`
    /// (sorted, disjoint ranges above U+007F). All of [`NON_ASCII`] keeps
    /// the three multi-byte spine paths (lead byte then 1–3 continuation
    /// bytes), stepping by encoded length — equivalent on valid UTF-8. A
    /// narrower set becomes one path per UTF-8 byte-range sequence.
    /// [`char_states`] counts what this pushes.
    pub(crate) fn push_char(
        &mut self,
        ascii: impl Fn(u8) -> bool,
        non_ascii: &[(u32, u32)],
        next: u32,
    ) -> u32 {
        let mut set = [0u64; 4];
        for b in (0u8..0x80).filter(|&b| ascii(b)) {
            set_insert(&mut set, b);
        }
        let set = self.sets.intern(set);
        let a = self.push(NState::Byte { set, next });
        match non_ascii {
            [] => a,
            [NON_ASCII] => self.push_spine(a, next),
            ranges => utf8_sequences(ranges).iter().fold(a, |entry, seq| {
                let b = seq.iter().rev().fold(next, |n, &(lo, hi)| {
                    let set = self.sets.intern(range_set(lo, hi));
                    self.push(NState::Byte { set, next: n })
                });
                self.push(NState::Split { a: entry, b })
            }),
        }
    }

    /// One character of a pattern class whose ASCII bytes are the interned
    /// `set`, then `next` — what [`Nfa::push_char`] pushes for the class.
    /// An instruction interns its class once, not once per character.
    fn push_class(&mut self, class: ClassView, set: u16, next: u32) -> u32 {
        let a = self.push(NState::Byte { set, next });
        if class.accepts_multibyte() {
            self.push_spine(a, next)
        } else {
            a
        }
    }

    /// The byte state `a` or any multi-byte character, then `next`.
    fn push_spine(&mut self, a: u32, next: u32) -> u32 {
        let cont = self.sets.intern(const { range_set(0x80, 0xBF) });
        let lead2 = self.sets.intern(const { range_set(0xC0, 0xDF) });
        let lead3 = self.sets.intern(const { range_set(0xE0, 0xEF) });
        let lead4 = self.sets.intern(const { range_set(0xF0, 0xFF) });
        let c1 = self.push(NState::Byte { set: cont, next });
        let c2 = self.push(NState::Byte {
            set: cont,
            next: c1,
        });
        let c3 = self.push(NState::Byte {
            set: cont,
            next: c2,
        });
        let l2 = self.push(NState::Byte {
            set: lead2,
            next: c1,
        });
        let l3 = self.push(NState::Byte {
            set: lead3,
            next: c2,
        });
        let l4 = self.push(NState::Byte {
            set: lead4,
            next: c3,
        });
        let s34 = self.push(NState::Split { a: l3, b: l4 });
        let s234 = self.push(NState::Split { a: l2, b: s34 });
        self.push(NState::Split { a, b: s234 })
    }

    /// The literal's bytes in sequence, then `next`.
    fn push_lit(&mut self, bytes: &[u8], mut next: u32) -> u32 {
        for &b in bytes.iter().rev() {
            let mut s = [0u64; 4];
            set_insert(&mut s, b);
            let set = self.sets.intern(s);
            next = self.push(NState::Byte { set, next });
        }
        next
    }

    /// Zero or more rounds of `body`, then `next`. The loop head either
    /// enters a round (`body(head)` builds one that returns to the head)
    /// or exits; the head is the entry.
    pub(crate) fn push_star(&mut self, next: u32, body: impl FnOnce(&mut Nfa, u32) -> u32) -> u32 {
        let head = self.push(NState::Split { a: 0, b: next }); // `a` patched below
        let round = body(self, head);
        if let NState::Split { a, .. } = &mut self.states[head as usize] {
            *a = round;
        }
        head
    }

    /// `min_chars` or more characters of `class`, then `next`.
    fn push_var(&mut self, class: ClassView, min_chars: u32, next: u32) -> u32 {
        let set = self.sets.intern(class_ascii(class));
        let head = self.push_star(next, |nfa, head| nfa.push_class(class, set, head));
        (0..min_chars).fold(head, |entry, _| self.push_class(class, set, entry))
    }

    /// `\d+` then `next`.
    fn push_digits_plus(&mut self, next: u32) -> u32 {
        let digit = self.sets.intern(const { range_set(b'0', b'9') });
        let head = self.push_star(next, |nfa, head| {
            nfa.push(NState::Byte {
                set: digit,
                next: head,
            })
        });
        self.push(NState::Byte {
            set: digit,
            next: head,
        })
    }

    /// `<num>` = `\d+(\.\d+)?`, then `next`.
    fn push_num(&mut self, next: u32) -> u32 {
        let frac = self.push_digits_plus(next);
        let mut dot_set = [0u64; 4];
        set_insert(&mut dot_set, b'.');
        let dot_set = self.sets.intern(dot_set);
        let dot = self.push(NState::Byte {
            set: dot_set,
            next: frac,
        });
        let after_int = self.push(NState::Split { a: dot, b: next });
        self.push_digits_plus(after_int)
    }

    /// Append a fragment translating `program`, accepting as `rule`.
    /// Instructions are built last first, each into a contiguous run of
    /// states: `starts` hears, in that order, the id each instruction's
    /// run starts at (the accept state lies below them all).
    pub(crate) fn build_fragment(
        &mut self,
        rule: u32,
        program: &CompiledPattern,
        mut starts: impl FnMut(u32),
    ) -> Fragment {
        let start = self.states.len() as u32;
        let accept = self.push(NState::Accept { rule });
        let mut next = accept;
        let insts: Vec<InstView<'_>> = program.instructions().collect();
        for inst in insts.iter().rev() {
            starts(self.states.len() as u32);
            next = match *inst {
                InstView::Lit(bytes) => self.push_lit(bytes, next),
                InstView::Fixed { class, chars } => {
                    let set = self.sets.intern(class_ascii(class));
                    (0..chars).fold(next, |n, _| self.push_class(class, set, n))
                }
                InstView::Var { class, min_chars } => self.push_var(class, min_chars, next),
                InstView::Num => self.push_num(next),
            };
        }
        Fragment {
            entry: next,
            range: start..self.states.len() as u32,
        }
    }

    /// Tombstone a removed fragment's range.
    pub(crate) fn kill_range(&mut self, range: &Range<u32>) {
        for s in &mut self.states[range.start as usize..range.end as usize] {
            *s = NState::Dead;
        }
    }

    /// ε-closure insertion: mark everything visited, list only states that
    /// consume input or accept (the [`ThreadSet`] contract). The walk keeps
    /// its own stack, so a regex's long ε-chains (`(a?){10000}`) cost
    /// memory, not call depth; it visits states in the order a recursive
    /// `a`-before-`b` walk would.
    pub(crate) fn add_closure(&self, mut sid: u32, set: &mut ThreadSet) {
        loop {
            if set.mark(sid) {
                match self.states[sid as usize] {
                    NState::Split { a, b } => {
                        set.pending.push(b);
                        sid = a;
                        continue;
                    }
                    NState::Byte { .. } | NState::Accept { .. } => set.push(sid),
                    NState::Dead => {}
                }
            }
            match set.pending.pop() {
                Some(next) => sid = next,
                None => return,
            }
        }
    }

    /// The ε-closure of `frag`'s entry, sorted: the states a value's first
    /// byte meets in this fragment. Every edge stays inside the fragment,
    /// so the walk is the size of the fragment, not of the arena.
    pub(crate) fn entry_closure(&self, frag: &Fragment) -> Vec<u32> {
        let mut seen = vec![false; frag.range.len()];
        let mut closure = Vec::new();
        let mut pending = vec![frag.entry];
        while let Some(sid) = pending.pop() {
            if std::mem::replace(&mut seen[(sid - frag.range.start) as usize], true) {
                continue;
            }
            match self.states[sid as usize] {
                NState::Split { a, b } => pending.extend([a, b]),
                NState::Byte { .. } | NState::Accept { .. } => closure.push(sid),
                NState::Dead => {}
            }
        }
        closure.sort_unstable();
        closure
    }

    /// Advance every state in `current` over byte `b` into `next` (one
    /// subset-construction / NFA-simulation step).
    pub fn step(&self, current: &[u32], b: u8, next: &mut ThreadSet) {
        for &sid in current {
            if let NState::Byte { set, next: target } = self.states[sid as usize] {
                if self.sets.contains(set, b) {
                    self.add_closure(target, next);
                }
            }
        }
    }

    /// Simulate the automaton over `bytes` from the ε-closure of `seed`;
    /// returns the states live after the last byte (empty as soon as
    /// every thread has died).
    pub fn run<'s>(&self, seed: &[u32], bytes: &[u8], scratch: &'s mut NfaScratch) -> &'s [u32] {
        // Swap the references, not the lists: moving two three-`Vec`
        // lists per byte cost ~5 ns a byte on short grok values.
        let (mut current, mut next) = (&mut scratch.current, &mut scratch.next);
        current.clear_resize(self.len());
        for &sid in seed {
            self.add_closure(sid, current);
        }
        for &b in bytes {
            if current.is_empty() {
                break;
            }
            next.clear_resize(self.len());
            self.step(current.as_slice(), b, next);
            std::mem::swap(&mut current, &mut next);
        }
        current.as_slice()
    }

    /// Collect the rule ids of every accept state in `key` into `out`.
    pub(crate) fn accepts_of(&self, key: &[u32], out: &mut Vec<u32>) {
        for &sid in key {
            if let NState::Accept { rule } = self.states[sid as usize] {
                out.push(rule);
            }
        }
    }

    /// Does `key` hold any accept state?
    pub(crate) fn accepts_any(&self, key: &[u32]) -> bool {
        key.iter()
            .any(|&sid| matches!(self.states[sid as usize], NState::Accept { .. }))
    }

    /// Rebuild the arena with only the given fragments, in iteration
    /// order, shifting each fragment's internal pointers by its new
    /// offset. Returns the remapped fragments. Callers must flush any
    /// state-set keyed caches afterwards — every state id changes.
    pub fn compact<'f>(
        &mut self,
        fragments: impl Iterator<Item = (u32, &'f Fragment)>,
    ) -> Vec<(u32, Fragment)> {
        let mut states = Vec::new();
        let mut remapped = Vec::new();
        for (rule, frag) in fragments {
            let new_start = states.len() as u32;
            let delta = new_start as i64 - frag.range.start as i64;
            let shift = |id: u32| (id as i64 + delta) as u32;
            for s in &self.states[frag.range.start as usize..frag.range.end as usize] {
                states.push(match *s {
                    NState::Byte { set, next } => NState::Byte {
                        set,
                        next: shift(next),
                    },
                    NState::Split { a, b } => NState::Split {
                        a: shift(a),
                        b: shift(b),
                    },
                    NState::Accept { rule } => NState::Accept { rule },
                    NState::Dead => unreachable!("live fragments hold no tombstones"),
                });
            }
            remapped.push((
                rule,
                Fragment {
                    entry: shift(frag.entry),
                    range: new_start..states.len() as u32,
                },
            ));
        }
        self.states = states;
        remapped
    }
}

/// The states [`Nfa::push_char`] pushes for `non_ascii`, so a front-end
/// can bound an automaton before building it.
pub(crate) fn char_states(non_ascii: &[(u32, u32)]) -> usize {
    match non_ascii {
        [] => 1,
        [NON_ASCII] => 10,
        ranges => {
            let seqs = utf8_sequences(ranges);
            1 + seqs.len() + seqs.iter().map(Vec::len).sum::<usize>()
        }
    }
}

/// The UTF-8 encodings of the scalars in `ranges` as byte-range
/// sequences: a character is in the set iff its encoding matches one
/// sequence byte for byte.
fn utf8_sequences(ranges: &[(u32, u32)]) -> Vec<Vec<(u8, u8)>> {
    let mut out = Vec::new();
    for &(lo, hi) in ranges {
        utf8_split(lo, hi, &mut out);
    }
    out
}

/// Split `lo..=hi` until each piece's encodings are a product of byte
/// ranges (the RE2 construction): surrogates are cut out, every piece has
/// one encoded length, and below the first byte where the ends differ
/// every byte spans all of `0x80..=0xBF`.
fn utf8_split(lo: u32, hi: u32, out: &mut Vec<Vec<(u8, u8)>>) {
    if lo > hi {
        return;
    }
    if lo <= 0xDFFF && hi >= 0xD800 {
        if lo < 0xD800 {
            utf8_split(lo, 0xD7FF, out);
        }
        if hi > 0xDFFF {
            utf8_split(0xE000, hi, out);
        }
        return;
    }
    for max in [0x7F, 0x7FF, 0xFFFF] {
        if lo <= max && max < hi {
            utf8_split(lo, max, out);
            utf8_split(max + 1, hi, out);
            return;
        }
    }
    for i in 1..4 {
        let m = (1u32 << (6 * i)) - 1;
        if lo & !m != hi & !m {
            if lo & m != 0 {
                utf8_split(lo, lo | m, out);
                utf8_split((lo | m) + 1, hi, out);
                return;
            }
            if hi & m != m {
                utf8_split(lo, (hi & !m) - 1, out);
                utf8_split(hi & !m, hi, out);
                return;
            }
        }
    }
    let (mut a, mut b) = ([0u8; 4], [0u8; 4]);
    let scalar = |c: u32| char::from_u32(c).expect("surrogates are cut out above");
    let len = scalar(lo).encode_utf8(&mut a).len();
    scalar(hi).encode_utf8(&mut b);
    out.push((0..len).map(|i| (a[i], b[i])).collect());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_push_are_separate() {
        let mut set = ThreadSet::default();
        set.clear_resize(8);
        assert!(set.mark(3));
        assert!(!set.mark(3), "second mark reports already-visited");
        assert!(set.as_slice().is_empty(), "marking alone does not list");
        set.push(3);
        assert_eq!(set.as_slice(), &[3]);
        set.clear_resize(8);
        assert!(set.is_empty());
        assert!(set.mark(3), "clearing forgets marks");
    }

    /// Every scalar's encoding matches exactly one sequence, and only the
    /// sequences of ranges that hold it.
    #[test]
    fn utf8_sequences_partition_the_scalars() {
        let ranges = [(0x80, 0x10_FFFF)];
        let seqs = utf8_sequences(&ranges);
        let hits = |c: char, seqs: &[Vec<(u8, u8)>]| {
            let mut buf = [0u8; 4];
            let bytes = c.encode_utf8(&mut buf).as_bytes();
            seqs.iter()
                .filter(|seq| {
                    seq.len() == bytes.len()
                        && seq
                            .iter()
                            .zip(bytes)
                            .all(|(&(lo, hi), &b)| lo <= b && b <= hi)
                })
                .count()
        };
        let probes = (0x80u32..0x3000)
            .chain(0xD700..0xE100)
            .chain(0xFFF0..0x1_0100)
            .chain(0x10_FF00..0x11_0000)
            .filter_map(char::from_u32);
        for c in probes.clone() {
            assert_eq!(hits(c, &seqs), 1, "{c:?} in {seqs:x?}");
        }
        let narrow = utf8_sequences(&[(0xE9, 0x7FF), (0xFFFF, 0x1_0000)]);
        for c in probes {
            let inside = matches!(c as u32, 0xE9..=0x7FF | 0xFFFF..=0x1_0000);
            assert_eq!(hits(c, &narrow), usize::from(inside), "{c:?}");
        }
    }
}
