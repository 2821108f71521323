//! The byte-level NFA union underlying [`crate::CatalogMatcher`].
//!
//! Every pattern rule's fused instruction program
//! ([`av_pattern::CompiledPattern`]) is translated into a contiguous
//! *fragment* of NFA states ending in an [`NState::Accept`] tagged with the
//! rule id. Fragments are self-contained — every edge stays inside its
//! fragment — which is what makes incremental maintenance cheap:
//!
//! * **insert** appends a fragment; existing states never gain edges into
//!   it, so previously determinized DFA states stay valid as-is;
//! * **remove** tombstones one fragment's range; only DFA states whose
//!   state-set intersects that range can be stale.
//!
//! The translation mirrors the byte-level semantics of the compiled
//! matcher exactly (ASCII classes test single bytes; `<sym>`/`<any>` step
//! over multi-byte characters lead-byte-first), so on any valid UTF-8
//! input the union accepts precisely the rules whose `CompiledPattern`
//! accepts the value — the equivalence the oracle proptest pins down.

use av_pattern::{ClassView, CompiledPattern, InstView};
use av_regex::ThreadSet;
use std::collections::HashMap;
use std::ops::Range;

/// A 256-bit byte membership set.
pub(crate) type ByteSet = [u64; 4];

#[inline]
fn set_contains(set: &ByteSet, b: u8) -> bool {
    set[(b >> 6) as usize] >> (b & 63) & 1 != 0
}

#[inline]
fn set_insert(set: &mut ByteSet, b: u8) {
    set[(b >> 6) as usize] |= 1 << (b & 63);
}

fn range_set(lo: u8, hi: u8) -> ByteSet {
    let mut s = [0u64; 4];
    for b in lo..=hi {
        set_insert(&mut s, b);
    }
    s
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

/// A rule's contiguous slice of the arena plus its entry state.
#[derive(Debug, Clone)]
pub(crate) struct Fragment {
    pub entry: u32,
    pub range: Range<u32>,
}

/// The NFA arena shared by every rule fragment.
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

    fn push(&mut self, state: NState) -> u32 {
        let id = u32::try_from(self.states.len()).expect("NFA arena overflow");
        self.states.push(state);
        id
    }

    /// The ASCII alphabet of a class as a byte set.
    fn class_set(class: ClassView) -> ByteSet {
        let mut s = [0u64; 4];
        for b in 0u8..0x80 {
            if class.contains_ascii(b) {
                set_insert(&mut s, b);
            }
        }
        s
    }

    /// One character of `class` then `next`. ASCII classes are a single
    /// byte state; `<sym>`/`<any>` add the three multi-byte spine paths
    /// (lead byte then 1–3 continuation bytes), matching how the compiled
    /// matcher steps by encoded length — equivalent on valid UTF-8.
    fn push_char(&mut self, class: ClassView, next: u32) -> u32 {
        let ascii = self.sets.intern(Self::class_set(class));
        let a = self.push(NState::Byte { set: ascii, next });
        if !class.accepts_multibyte() {
            return a;
        }
        let cont = self.sets.intern(range_set(0x80, 0xBF));
        let lead2 = self.sets.intern(range_set(0xC0, 0xDF));
        let lead3 = self.sets.intern(range_set(0xE0, 0xEF));
        let lead4 = self.sets.intern(range_set(0xF0, 0xFF));
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

    /// `min_chars` or more characters of `class`, then `next`.
    fn push_var(&mut self, class: ClassView, min_chars: u32, next: u32) -> u32 {
        // Loop head: either consume another char (back to the head) or exit.
        let head = self.push(NState::Split { a: 0, b: next }); // `a` patched below
        let body = self.push_char(class, head);
        if let NState::Split { a, .. } = &mut self.states[head as usize] {
            *a = body;
        }
        let mut entry = head;
        for _ in 0..min_chars {
            entry = self.push_char(class, entry);
        }
        entry
    }

    /// `\d+` then `next`.
    fn push_digits_plus(&mut self, next: u32) -> u32 {
        let digit = self.sets.intern(Self::class_set(ClassView::Digit));
        let head = self.push(NState::Split { a: 0, b: next }); // `a` patched below
        let body = self.push(NState::Byte {
            set: digit,
            next: head,
        });
        if let NState::Split { a, .. } = &mut self.states[head as usize] {
            *a = body;
        }
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
    pub fn build_fragment(&mut self, rule: u32, program: &CompiledPattern) -> Fragment {
        let start = self.states.len() as u32;
        let accept = self.push(NState::Accept { rule });
        let mut next = accept;
        let insts: Vec<InstView<'_>> = program.instructions().collect();
        for inst in insts.iter().rev() {
            next = match *inst {
                InstView::Lit(bytes) => self.push_lit(bytes, next),
                InstView::Fixed { class, chars } => {
                    let mut n = next;
                    for _ in 0..chars {
                        n = self.push_char(class, n);
                    }
                    n
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
    pub fn kill_range(&mut self, range: &Range<u32>) {
        for s in &mut self.states[range.start as usize..range.end as usize] {
            *s = NState::Dead;
        }
    }

    /// ε-closure insertion: mark everything visited, list only states that
    /// consume input or accept (the [`ThreadSet`] contract). Recursion
    /// depth is bounded by the ε-chain length between consuming states,
    /// which the fragment builders keep to a small constant per
    /// instruction (every instruction consumes at least one byte).
    pub fn add_closure(&self, sid: u32, set: &mut ThreadSet) {
        if !set.mark(sid) {
            return;
        }
        match self.states[sid as usize] {
            NState::Split { a, b } => {
                self.add_closure(a, set);
                self.add_closure(b, set);
            }
            NState::Byte { .. } | NState::Accept { .. } => set.push(sid),
            NState::Dead => {}
        }
    }

    /// The ε-closure of `frag`'s entry, sorted: the states a value's first
    /// byte meets in this fragment. Every edge stays inside the fragment,
    /// so the walk is the size of the fragment, not of the arena.
    pub fn entry_closure(&self, frag: &Fragment) -> Vec<u32> {
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

    /// Collect the rule ids of every accept state in `key` into `out`.
    pub fn accepts_of(&self, key: &[u32], out: &mut Vec<u32>) {
        for &sid in key {
            if let NState::Accept { rule } = self.states[sid as usize] {
                out.push(rule);
            }
        }
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
