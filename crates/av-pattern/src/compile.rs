//! Compiled pattern programs: byte-level, allocation-free matching.
//!
//! [`crate::matches`] is the *reference* matcher — character-level memoized
//! backtracking, kept deliberately close to the paper's Def. 1 so it can
//! serve as the oracle in equivalence tests. It is also slow in the way
//! reference implementations are allowed to be: every call collects the
//! value into a `Vec<char>`, allocates a fresh memo table, and recurses one
//! Rust stack frame per token.
//!
//! [`CompiledPattern`] is the program every engine is built from. A
//! [`crate::Pattern`] is *lowered once* into a flat instruction program,
//! which `av-match` translates into its byte-level NFA — the automaton a
//! served `validate` and `classify` run, one pass per value whatever the
//! pattern. The program's own backtracking search is what `explain` runs:
//! its furthest-reach recorder names the failing span and the expected
//! token, which an automaton's verdict does not carry. Its shape:
//!
//! * adjacent same-class tokens are **fused** — `<digit>{2}<digit>{4}`
//!   becomes one bounded 6-char scan, `<digit>{2}<digit>+` one "6-or-more"
//!   run — so the program is usually shorter than the token list;
//! * literals are stored as pre-encoded byte slices (UTF-8 equality on
//!   `char` sequences is byte equality, so literal matching is `memcmp`);
//! * every instruction carries the **minimum bytes** the remaining program
//!   can accept, so hopeless positions are pruned before any scanning;
//! * matching runs directly over the value's UTF-8 bytes — no `Vec<char>`.
//!   The ASCII classes (`<digit>`, `<upper>`, …) test single bytes;
//!   `<sym>`/`<any>`, whose alphabets include multi-byte characters, step
//!   by encoded length, so positions always stay on `char` boundaries;
//! * backtracking over variadic tokens uses an **explicit heap stack** (one
//!   frame per suspended variadic, not one call frame per token — a
//!   10 000-token pattern is fine), with the failure memo of the reference
//!   matcher kept only when the program has two or more branch points
//!   (below that, no state can be reached twice, so the memo would be pure
//!   overhead — variadic-free patterns run a single deterministic scan).
//!
//! Verdicts are exactly those of the reference matcher; the equivalence is
//! property-tested in `tests/matcher_oracle.rs`.

use crate::pattern::Pattern;
use crate::token::Token;
use std::cell::RefCell;

/// Encoded length of the character starting with lead byte `lead`
/// (callers guarantee `lead >= 0x80` came from a valid `&str` boundary).
#[inline]
fn utf8_len(lead: u8) -> usize {
    if lead < 0xE0 {
        2
    } else if lead < 0xF0 {
        3
    } else {
        4
    }
}

/// Consume one character of `class` at byte `pos`; returns the byte
/// position after it, or `None` when the position holds no such character.
#[inline]
fn eat_char(bytes: &[u8], pos: usize, class: ClassView) -> Option<usize> {
    let b = *bytes.get(pos)?;
    if b < 0x80 {
        if class.contains_ascii(b) {
            Some(pos + 1)
        } else {
            None
        }
    } else if class.accepts_multibyte() {
        Some(pos + utf8_len(b))
    } else {
        None
    }
}

/// One instruction of a compiled program.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Inst {
    /// Match these exact bytes.
    Lit(Box<[u8]>),
    /// Exactly `chars` characters of `class` (fused fixed-width tokens).
    Fixed { class: ClassView, chars: u32 },
    /// `min_chars` or more characters of `class` (fused variadic runs;
    /// adjacent fixed widths of the same class fold into the minimum).
    Var { class: ClassView, min_chars: u32 },
    /// `<num>` = `\d+(\.\d+)?`, with full backtracking over end positions.
    Num,
}

impl Inst {
    /// Minimum bytes this instruction can accept (chars are ≥ 1 byte each,
    /// so a char count is a valid byte lower bound).
    fn min_bytes(&self) -> usize {
        match self {
            Inst::Lit(b) => b.len(),
            Inst::Fixed { chars, .. } => *chars as usize,
            Inst::Var { min_chars, .. } => *min_chars as usize,
            Inst::Num => 1,
        }
    }

    /// Is this a branch point (a choice of end positions)?
    fn is_branch(&self) -> bool {
        matches!(self, Inst::Var { .. } | Inst::Num)
    }
}

/// Character class an instruction scans — the matcher's own type, also
/// seen through [`CompiledPattern::instructions`]. Mirrors
/// [`Token::class_contains`]: the first six are pure-ASCII alphabets;
/// [`ClassView::Sym`] and [`ClassView::Any`] also accept every multi-byte
/// character (the paper's generalization hierarchy sends all non-ASCII
/// `char`s to `Symbol`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassView {
    /// `0-9`.
    Digit,
    /// `A-Z`.
    Upper,
    /// `a-z`.
    Lower,
    /// `A-Za-z`.
    Letter,
    /// `A-Za-z0-9`.
    Alnum,
    /// ASCII whitespace (space, tab, CR, LF, VT, FF).
    Space,
    /// Neither alphanumeric nor whitespace; every non-ASCII character.
    Sym,
    /// Any character.
    Any,
}

impl ClassView {
    /// Membership test for an ASCII byte (`b < 0x80`). Non-ASCII lead
    /// bytes are routed through [`ClassView::accepts_multibyte`] instead.
    #[inline]
    pub fn contains_ascii(self, b: u8) -> bool {
        const fn is_ascii_space(b: u8) -> bool {
            matches!(b, b' ' | b'\t' | b'\r' | b'\n' | 0x0B | 0x0C)
        }
        match self {
            ClassView::Digit => b.is_ascii_digit(),
            ClassView::Upper => b.is_ascii_uppercase(),
            ClassView::Lower => b.is_ascii_lowercase(),
            ClassView::Letter => b.is_ascii_alphabetic(),
            ClassView::Alnum => b.is_ascii_alphanumeric(),
            ClassView::Space => is_ascii_space(b),
            // Same set as `CharClass::of(c) == Symbol` restricted to ASCII.
            ClassView::Sym => !b.is_ascii_alphanumeric() && !is_ascii_space(b),
            ClassView::Any => true,
        }
    }

    /// Does the class accept non-ASCII characters? (`CharClass::of` sends
    /// every non-ASCII `char` to `Symbol`, so `<sym>` and `<any>` do.)
    /// Matching steps over a multi-byte character as a unit — lead byte
    /// plus its continuation bytes — never through its interior.
    #[inline]
    pub fn accepts_multibyte(self) -> bool {
        matches!(self, ClassView::Sym | ClassView::Any)
    }

    /// Class name for explanation text.
    fn name(self) -> &'static str {
        match self {
            ClassView::Digit => "digit",
            ClassView::Upper => "uppercase",
            ClassView::Lower => "lowercase",
            ClassView::Letter => "letter",
            ClassView::Alnum => "alphanumeric",
            ClassView::Space => "whitespace",
            ClassView::Sym => "symbol",
            ClassView::Any => "any",
        }
    }
}

/// One instruction of a compiled program, borrowed read-only through
/// [`CompiledPattern::instructions`].
///
/// This is the exact fused program the byte-level matcher executes —
/// downstream engines (the catalog-wide matcher in `av-match`) translate
/// these views into their own automata instead of re-deriving them from
/// pattern tokens, so both matchers agree by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstView<'p> {
    /// Match these exact pre-encoded UTF-8 bytes.
    Lit(&'p [u8]),
    /// Exactly `chars` characters of `class`.
    Fixed {
        /// Character class being scanned.
        class: ClassView,
        /// Exact character count.
        chars: u32,
    },
    /// `min_chars` or more characters of `class`.
    Var {
        /// Character class being scanned.
        class: ClassView,
        /// Minimum character count (≥ 1).
        min_chars: u32,
    },
    /// `<num>` = `\d+(\.\d+)?`.
    Num,
}

impl Inst {
    fn view(&self) -> InstView<'_> {
        match *self {
            Inst::Lit(ref b) => InstView::Lit(b),
            Inst::Fixed { class, chars } => InstView::Fixed { class, chars },
            Inst::Var { class, min_chars } => InstView::Var { class, min_chars },
            Inst::Num => InstView::Num,
        }
    }
}

/// Working memory of the backtracking search: the explicit stack and the
/// failure memo. One per thread (see `SCRATCH`); both buffers keep their
/// capacity across calls, so steady-state matching is allocation-free.
#[derive(Default)]
struct MatchScratch {
    stack: Vec<Frame>,
    memo: Vec<u64>,
}

thread_local! {
    /// The one scratch every backtracking search on this thread runs in.
    /// Deterministic programs — and values rejected before the first branch
    /// instruction — never touch it.
    static SCRATCH: RefCell<MatchScratch> = RefCell::new(MatchScratch::default());
}

/// A suspended branch instruction: which candidate end positions remain.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Instruction index.
    inst: usize,
    /// Byte position the instruction started at.
    pos: usize,
    /// `Var`: next candidate end, stepping down by one char per retry.
    /// `Num`: current integer-end candidate `ie`.
    a: usize,
    /// `Var`: smallest legal end (after `min_chars` chars); exhausted when
    /// `a < b`. `Num`: next fraction-end candidate for `ie`, 0 when none.
    b: usize,
}

/// Outcome of running the deterministic prefix from a state.
enum Step {
    /// The whole value was consumed by the whole program.
    Accept,
    /// Dead end.
    Reject,
    /// Reached a branch instruction at this state.
    Branch { inst: usize, pos: usize },
}

/// Where and why a failed match got furthest — the output of
/// [`CompiledPattern::explain`].
///
/// The *furthest-reached position* is the length in bytes of the longest
/// prefix of the value that is also a prefix of some string the pattern
/// accepts. Everything before it matched; the byte span starting there is
/// where the value departs from the pattern's language. All offsets lie on
/// `char` boundaries of the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchTrace {
    /// Index of the instruction that was being matched when the furthest
    /// position was reached. Equal to [`MatchTrace::num_insts`] when every
    /// instruction was satisfied and the failure is trailing input (the
    /// program expected the value to end).
    pub inst: usize,
    /// Number of instructions in the program.
    pub num_insts: usize,
    /// Byte offset of the furthest-reached position: `value[..failed_at]`
    /// is the matched prefix, and the mismatch starts at `failed_at`.
    pub failed_at: usize,
    /// End of the failing byte span: one character past `failed_at`, or
    /// `failed_at` itself when the value ended before the program did.
    pub span_end: usize,
    /// Human-readable description of what the failing instruction would
    /// have accepted (e.g. `exactly 2 digit characters`, `end of value`).
    pub expected: String,
}

impl MatchTrace {
    /// The prefix of `value` that matched (everything before the failure).
    pub fn matched_prefix<'v>(&self, value: &'v str) -> &'v str {
        &value[..self.failed_at]
    }

    /// The failing byte span — the first character the pattern could not
    /// accept (empty when the value ended before the program did).
    pub fn failing_span<'v>(&self, value: &'v str) -> &'v str {
        &value[self.failed_at..self.span_end]
    }
}

/// What the search loop reports its progress to. The loop is generic over
/// this and monomorphised per implementation: `()` records nothing and
/// keeps the minimum-width prune (the verdict path, [`CompiledPattern::matches`]);
/// [`TraceState`] records every byte of partial progress and turns the prune
/// off (the explanation path, [`CompiledPattern::explain`]) — a branch that
/// cannot complete can still carry the furthest reach.
trait Recorder {
    /// Track partial progress exactly instead of pruning hopeless positions.
    const TRACING: bool;

    /// `inst` consumed input up to byte `pos`.
    fn reach(&mut self, inst: usize, pos: usize);
}

impl Recorder for () {
    const TRACING: bool = false;

    #[inline(always)]
    fn reach(&mut self, _inst: usize, _pos: usize) {}
}

/// Running maximum of `(position, instruction)` over an explain search.
#[derive(Clone, Copy)]
struct TraceState {
    furthest: usize,
    inst: usize,
}

impl Recorder for TraceState {
    const TRACING: bool = true;

    /// Ties on position keep the latest instruction — the one deepest into
    /// the program is the most precise thing to report.
    #[inline]
    fn reach(&mut self, inst: usize, pos: usize) {
        if pos > self.furthest || (pos == self.furthest && inst > self.inst) {
            self.furthest = pos;
            self.inst = inst;
        }
    }
}

/// A [`Pattern`] lowered to a flat byte-matching program.
///
/// Compile once at inference time, then [`CompiledPattern::matches`]
/// answers `h ∈ P(v)` with no per-call allocation and no recursion.
///
/// ```
/// use av_pattern::{parse, CompiledPattern};
///
/// let pattern = parse("<letter>{3} <digit>{2} <digit>{4}").unwrap();
/// let compiled = CompiledPattern::compile(&pattern);
/// assert!(compiled.matches("Mar 01 2019"));
/// assert!(!compiled.matches("Mar 1 2019"));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    insts: Box<[Inst]>,
    /// `min_tail[i]`: minimum bytes `insts[i..]` can accept (`min_tail[n]`
    /// = 0). Checked before running instruction `i` — the early prune.
    min_tail: Box<[usize]>,
    /// Branch ordinal per instruction (`usize::MAX` for deterministic
    /// instructions); memo rows exist only for branch instructions.
    branch_ord: Box<[usize]>,
    /// Number of branch instructions.
    nbranch: usize,
}

impl CompiledPattern {
    /// Lower `pattern` into a matching program.
    pub fn compile(pattern: &Pattern) -> CompiledPattern {
        let mut insts: Vec<Inst> = Vec::with_capacity(pattern.len());
        for t in pattern.tokens() {
            match t {
                Token::Lit(s) => insts.push(Inst::Lit(s.as_bytes().into())),
                Token::Num => insts.push(Inst::Num),
                Token::Digit(n) => push_class(&mut insts, ClassView::Digit, *n as u32, false),
                Token::Upper(n) => push_class(&mut insts, ClassView::Upper, *n as u32, false),
                Token::Lower(n) => push_class(&mut insts, ClassView::Lower, *n as u32, false),
                Token::Letter(n) => push_class(&mut insts, ClassView::Letter, *n as u32, false),
                Token::Alnum(n) => push_class(&mut insts, ClassView::Alnum, *n as u32, false),
                Token::Sym(n) => push_class(&mut insts, ClassView::Sym, *n as u32, false),
                Token::DigitPlus => push_class(&mut insts, ClassView::Digit, 1, true),
                Token::UpperPlus => push_class(&mut insts, ClassView::Upper, 1, true),
                Token::LowerPlus => push_class(&mut insts, ClassView::Lower, 1, true),
                Token::LetterPlus => push_class(&mut insts, ClassView::Letter, 1, true),
                Token::AlnumPlus => push_class(&mut insts, ClassView::Alnum, 1, true),
                Token::SymPlus => push_class(&mut insts, ClassView::Sym, 1, true),
                Token::SpacePlus => push_class(&mut insts, ClassView::Space, 1, true),
                Token::AnyPlus => push_class(&mut insts, ClassView::Any, 1, true),
            }
        }
        let mut min_tail = vec![0usize; insts.len() + 1];
        for i in (0..insts.len()).rev() {
            min_tail[i] = min_tail[i + 1] + insts[i].min_bytes();
        }
        let mut nbranch = 0usize;
        let branch_ord: Vec<usize> = insts
            .iter()
            .map(|inst| {
                if inst.is_branch() {
                    nbranch += 1;
                    nbranch - 1
                } else {
                    usize::MAX
                }
            })
            .collect();
        CompiledPattern {
            insts: insts.into_boxed_slice(),
            min_tail: min_tail.into_boxed_slice(),
            branch_ord: branch_ord.into_boxed_slice(),
            nbranch,
        }
    }

    /// Number of instructions in the program (≤ the pattern's token count;
    /// fusion shortens it).
    pub fn num_instructions(&self) -> usize {
        self.insts.len()
    }

    /// Iterate over the fused instruction program as read-only
    /// [`InstView`]s, in execution order.
    ///
    /// A value matches the pattern exactly when the instruction sequence
    /// consumes it entirely, so the views carry everything needed to build
    /// an equivalent automaton elsewhere (see the `av-match` crate).
    pub fn instructions(&self) -> impl ExactSizeIterator<Item = InstView<'_>> + '_ {
        self.insts.iter().map(Inst::view)
    }

    /// True when matching runs a single deterministic scan — no variadic
    /// or `<num>` instruction, hence no backtracking, memo, or stack.
    #[cfg(test)]
    pub(crate) fn is_deterministic(&self) -> bool {
        self.nbranch == 0
    }

    /// Does the program accept the *entire* `value`?
    ///
    /// Deterministic programs match with no working memory at all;
    /// backtracking programs reuse a thread-local scratch, so steady-state
    /// calls are allocation-free either way.
    pub fn matches(&self, value: &str) -> bool {
        self.search(value.as_bytes(), &mut ())
    }

    /// The one search loop behind [`CompiledPattern::matches`] and
    /// [`CompiledPattern::explain`]: run the deterministic prefix, then
    /// depth-first over the candidate ends of each branch instruction,
    /// longest first, reporting progress to `rec`.
    fn search<R: Recorder>(&self, bytes: &[u8], rec: &mut R) -> bool {
        if !R::TRACING && bytes.len() < self.min_tail[0] {
            return false;
        }
        let (inst, pos) = match self.advance(bytes, 0, 0, rec) {
            Step::Accept => return true,
            Step::Reject => return false,
            Step::Branch { inst, pos } => (inst, pos),
        };
        SCRATCH.with_borrow_mut(|scratch| self.backtrack(bytes, inst, pos, scratch, rec))
    }

    /// Explore the branch state `(inst, pos)` and everything reachable from
    /// it.
    fn backtrack<R: Recorder>(
        &self,
        bytes: &[u8],
        inst: usize,
        pos: usize,
        scratch: &mut MatchScratch,
        rec: &mut R,
    ) -> bool {
        // With a single branch instruction no (inst, pos) state can be
        // reached twice, so the failure memo would be pure overhead.
        let use_memo = self.nbranch > 1;
        if use_memo {
            let states = self.nbranch * (bytes.len() + 1);
            scratch.memo.clear();
            scratch.memo.resize(states.div_ceil(64), 0);
        }
        scratch.stack.clear();
        scratch.stack.push(self.init_frame(bytes, inst, pos, rec));

        while let Some(mut frame) = scratch.stack.pop() {
            let Some(end) = self.next_candidate(bytes, &mut frame) else {
                // Every split of this branch state failed.
                if use_memo {
                    let key = self.branch_ord[frame.inst] * (bytes.len() + 1) + frame.pos;
                    scratch.memo[key / 64] |= 1 << (key % 64);
                }
                continue;
            };
            scratch.stack.push(frame); // updated cursor, back on the stack
            match self.advance(bytes, frame.inst + 1, end, rec) {
                Step::Accept => return true,
                Step::Reject => {}
                Step::Branch { inst, pos } => {
                    let failed = use_memo && {
                        let key = self.branch_ord[inst] * (bytes.len() + 1) + pos;
                        scratch.memo[key / 64] & (1 << (key % 64)) != 0
                    };
                    if !failed {
                        scratch.stack.push(self.init_frame(bytes, inst, pos, rec));
                    }
                }
            }
        }
        false
    }

    /// Run deterministic instructions from `(inst, pos)` until the program
    /// ends, a dead end, or a branch instruction. Bytes a literal or
    /// fixed-class instruction consumed before its mismatch are a prefix of
    /// some accepted string, so they are reported to `rec` too.
    fn advance<R: Recorder>(
        &self,
        bytes: &[u8],
        mut inst: usize,
        mut pos: usize,
        rec: &mut R,
    ) -> Step {
        loop {
            rec.reach(inst, pos);
            if inst == self.insts.len() {
                return if pos == bytes.len() {
                    Step::Accept
                } else {
                    Step::Reject
                };
            }
            if !R::TRACING && bytes.len() - pos < self.min_tail[inst] {
                return Step::Reject;
            }
            match &self.insts[inst] {
                Inst::Lit(lit) => {
                    if bytes[pos..].starts_with(lit) {
                        pos += lit.len();
                    } else {
                        if R::TRACING {
                            // Partial literal progress, rounded down to a
                            // char boundary of the value (the shared bytes
                            // may end inside a multi-byte character).
                            let common = lit
                                .iter()
                                .zip(&bytes[pos..])
                                .take_while(|(a, b)| a == b)
                                .count();
                            let mut p = pos + common;
                            while p < bytes.len() && bytes[p] & 0xC0 == 0x80 {
                                p -= 1;
                            }
                            rec.reach(inst, p);
                        }
                        return Step::Reject;
                    }
                }
                Inst::Fixed { class, chars } => {
                    for _ in 0..*chars {
                        match eat_char(bytes, pos, *class) {
                            Some(next) => {
                                pos = next;
                                rec.reach(inst, pos);
                            }
                            None => return Step::Reject,
                        }
                    }
                }
                Inst::Var { .. } | Inst::Num => return Step::Branch { inst, pos },
            }
            inst += 1;
        }
    }

    /// Build the candidate-end cursor for a branch instruction at `pos`.
    /// The greedy scan of a variadic run (and `<num>`'s integer/fraction
    /// scans) is itself partial progress, even when too short to yield any
    /// candidate.
    fn init_frame<R: Recorder>(&self, bytes: &[u8], inst: usize, pos: usize, rec: &mut R) -> Frame {
        match &self.insts[inst] {
            Inst::Var { class, min_chars } => {
                // Greedy scan of the maximal run, remembering the byte end
                // after the first `min_chars` characters.
                let mut count = 0u32;
                let mut p = pos;
                let mut min_end = pos;
                while let Some(next) = eat_char(bytes, p, *class) {
                    count += 1;
                    p = next;
                    if count == *min_chars {
                        min_end = p;
                    }
                }
                rec.reach(inst, p);
                if count < *min_chars {
                    Frame {
                        inst,
                        pos,
                        a: 0,
                        b: 1,
                    } // a < b: no candidates
                } else {
                    Frame {
                        inst,
                        pos,
                        a: p,
                        b: min_end,
                    }
                }
            }
            Inst::Num => {
                let mut ie = pos;
                while ie < bytes.len() && bytes[ie].is_ascii_digit() {
                    ie += 1;
                }
                if ie == pos {
                    // `a <= pos`: no candidates.
                    Frame {
                        inst,
                        pos,
                        a: pos,
                        b: 0,
                    }
                } else {
                    rec.reach(inst, ie);
                    if R::TRACING {
                        // "123." is a prefix of "123.4": the dot (and any
                        // fraction digits) extend the reach even when no
                        // legal candidate end comes of it.
                        rec.reach(inst, frac_scan(bytes, ie));
                    }
                    Frame {
                        inst,
                        pos,
                        a: ie,
                        b: frac_end(bytes, ie),
                    }
                }
            }
            _ => unreachable!("init_frame on a deterministic instruction"),
        }
    }

    /// Next candidate end position for a suspended branch, longest first
    /// (same exploration semantics as the reference matcher; the accepted
    /// language does not depend on the order).
    fn next_candidate(&self, bytes: &[u8], frame: &mut Frame) -> Option<usize> {
        match &self.insts[frame.inst] {
            Inst::Var { .. } => {
                if frame.a < frame.b {
                    return None;
                }
                let end = frame.a;
                // Step back to the previous char boundary; `end >= b >= 1`
                // and the run starts at a boundary, so this never
                // underflows below `frame.pos`.
                let mut p = end - 1;
                while bytes[p] & 0xC0 == 0x80 {
                    p -= 1;
                }
                frame.a = p;
                Some(end)
            }
            Inst::Num => {
                // Candidates per integer end `ie` (descending): fraction
                // ends `fe ..= ie+2` first, then `ie` itself.
                if frame.a <= frame.pos {
                    return None;
                }
                if frame.b != 0 {
                    let end = frame.b;
                    frame.b = if frame.b > frame.a + 2 {
                        frame.b - 1
                    } else {
                        0
                    };
                    return Some(end);
                }
                let end = frame.a;
                frame.a -= 1;
                if frame.a > frame.pos {
                    frame.b = frac_end(bytes, frame.a);
                }
                Some(end)
            }
            _ => unreachable!("next_candidate on a deterministic instruction"),
        }
    }

    /// Explain why `value` does not match: the furthest-reached
    /// instruction, the failing byte span, and (via
    /// [`MatchTrace::matched_prefix`]) the prefix that did match. Returns
    /// `None` exactly when [`CompiledPattern::matches`] returns true.
    ///
    /// This is the verdict's own search with a recorder attached: the same
    /// loop, the same exploration order, but the minimum-width prune is
    /// traded for exact partial-progress tracking (a pruned branch may
    /// still hold the deepest partial match). Callers run it only after a
    /// failed `matches`. The furthest-reached position is the longest
    /// prefix of `value` that is also a prefix of some accepted string —
    /// the same quantity [`crate::furthest_mismatch`] computes on the
    /// reference matcher, which pins this implementation in proptests.
    ///
    /// ```
    /// use av_pattern::{parse, CompiledPattern};
    ///
    /// let compiled = CompiledPattern::compile(&parse("<letter>{3} <digit>{2} <digit>{4}").unwrap());
    /// let trace = compiled.explain("Mar 1 2019").unwrap();
    /// assert_eq!(trace.matched_prefix("Mar 1 2019"), "Mar 1");
    /// assert_eq!(trace.failing_span("Mar 1 2019"), " ");
    /// assert!(compiled.explain("Mar 01 2019").is_none());
    /// ```
    pub fn explain(&self, value: &str) -> Option<MatchTrace> {
        let bytes = value.as_bytes();
        let mut tr = TraceState {
            furthest: 0,
            inst: 0,
        };
        if self.search(bytes, &mut tr) {
            return None;
        }
        let span_end = match bytes.get(tr.furthest) {
            Some(&b) if b < 0x80 => tr.furthest + 1,
            Some(&b) => tr.furthest + utf8_len(b),
            None => tr.furthest,
        };
        Some(MatchTrace {
            inst: tr.inst,
            num_insts: self.insts.len(),
            failed_at: tr.furthest,
            span_end,
            expected: self.describe_inst(tr.inst),
        })
    }

    /// What the instruction at `idx` accepts, in words; `idx == num_insts`
    /// describes the implicit end-of-value requirement.
    pub fn describe_inst(&self, idx: usize) -> String {
        if idx == self.insts.len() {
            return "end of value".to_string();
        }
        match &self.insts[idx] {
            Inst::Lit(lit) => {
                let text = std::str::from_utf8(lit).expect("literals are encoded from &str");
                format!("literal {text:?}")
            }
            Inst::Fixed { class, chars } => {
                format!("exactly {chars} {} character(s)", class.name())
            }
            Inst::Var { class, min_chars } => {
                format!("{min_chars} or more {} characters", class.name())
            }
            Inst::Num => "a number (<num>)".to_string(),
        }
    }

    /// Edit distance between two instruction programs: the number of
    /// instruction insertions, deletions, and substitutions turning one
    /// program into the other. Used to rank "nearest rule" suggestions —
    /// two rules whose programs differ by one fused scan are close, a
    /// dictionary column and a timestamp are not.
    pub fn distance(&self, other: &CompiledPattern) -> usize {
        let (a, b) = (&self.insts[..], &other.insts[..]);
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, ai) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, bj) in b.iter().enumerate() {
                let sub = prev[j] + usize::from(ai != bj);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }
}

/// Position after a `'.'` at integer end `ie` and the digits following it
/// (`ie` itself when there is no dot).
fn frac_scan(bytes: &[u8], ie: usize) -> usize {
    if ie == bytes.len() || bytes[ie] != b'.' {
        return ie;
    }
    let mut fe = ie + 1;
    while fe < bytes.len() && bytes[fe].is_ascii_digit() {
        fe += 1;
    }
    fe
}

/// Longest fraction end after integer end `ie` (`'.'` plus ≥ 1 digit), or
/// 0 when the position has no legal fraction.
fn frac_end(bytes: &[u8], ie: usize) -> usize {
    let fe = frac_scan(bytes, ie);
    if fe >= ie + 2 {
        fe
    } else {
        0
    }
}

/// Push a class token, fusing with a trailing instruction of the same
/// class: fixed+fixed adds widths, fixed+variadic (either order) and
/// variadic+variadic fold into one `Var` with the summed minimum — the
/// concatenation of same-class tokens accepts exactly "total width" (or
/// "total minimum or more") characters of that class.
fn push_class(insts: &mut Vec<Inst>, class: ClassView, n: u32, variadic: bool) {
    enum Fused {
        No,
        Done,
        ToVar(u32),
    }
    let fused = match insts.last_mut() {
        Some(Inst::Fixed { class: c, chars }) if *c == class => {
            if variadic {
                Fused::ToVar(*chars + n)
            } else {
                *chars += n;
                Fused::Done
            }
        }
        Some(Inst::Var {
            class: c,
            min_chars,
        }) if *c == class => {
            *min_chars += n;
            Fused::Done
        }
        _ => Fused::No,
    };
    match fused {
        Fused::Done => {}
        Fused::ToVar(min_chars) => {
            *insts.last_mut().expect("fused with last") = Inst::Var { class, min_chars };
        }
        Fused::No => insts.push(if variadic {
            Inst::Var {
                class,
                min_chars: n,
            }
        } else {
            Inst::Fixed { class, chars: n }
        }),
    }
}

impl Pattern {
    /// Lower this pattern into a [`CompiledPattern`] program.
    pub fn compile(&self) -> CompiledPattern {
        CompiledPattern::compile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::matches;
    use crate::parser::parse;

    fn check_both(pattern: &Pattern, value: &str) -> bool {
        let compiled = CompiledPattern::compile(pattern);
        let byte_verdict = compiled.matches(value);
        assert_eq!(
            byte_verdict,
            matches(pattern, value),
            "compiled diverged from reference on {pattern} vs {value:?}"
        );
        byte_verdict
    }

    #[test]
    fn empty_pattern_matches_only_empty_string() {
        assert!(check_both(&Pattern::empty(), ""));
        assert!(!check_both(&Pattern::empty(), "x"));
    }

    #[test]
    fn instruction_views_expose_the_fused_program() {
        let p = parse("<digit>{2}<digit>{4}-<upper>+<num>").unwrap();
        let compiled = CompiledPattern::compile(&p);
        let views: Vec<InstView<'_>> = compiled.instructions().collect();
        assert_eq!(
            views,
            vec![
                InstView::Fixed {
                    class: ClassView::Digit,
                    chars: 6
                },
                InstView::Lit(b"-"),
                InstView::Var {
                    class: ClassView::Upper,
                    min_chars: 1
                },
                InstView::Num,
            ]
        );
        assert_eq!(compiled.instructions().len(), compiled.num_instructions());
        assert!(ClassView::Digit.contains_ascii(b'7'));
        assert!(!ClassView::Digit.contains_ascii(b'x'));
        assert!(ClassView::Sym.accepts_multibyte());
        assert!(!ClassView::Alnum.accepts_multibyte());
    }

    #[test]
    fn paper_validation_patterns() {
        let p = parse("<letter>{3} <digit>{2} <digit>{4}").unwrap();
        for v in ["Mar 01 2019", "Oct 11 2020"] {
            assert!(check_both(&p, v), "{v}");
        }
        assert!(!check_both(&p, "March 01 2019"));
        assert!(!check_both(&p, "Mar 1 2019"));
        assert!(!check_both(&p, "Mar 01 2019 "));

        let p2 = parse("<digit>+/<digit>{2}/<digit>{4} <digit>+:<digit>{2}:<digit>{2} <letter>{2}")
            .unwrap();
        assert!(check_both(&p2, "9/07/2019 12:01:32 PM"));
        assert!(!check_both(&p2, "9/07/2019 12:01:32"));
    }

    #[test]
    fn num_backtracking() {
        let p = parse("<num>").unwrap();
        for (v, want) in [
            ("9", true),
            ("0.1", true),
            ("12345.6789", true),
            (".5", false),
            ("5.", false),
            ("1.2.3", false),
            ("", false),
        ] {
            assert_eq!(check_both(&p, v), want, "{v:?}");
        }
        // <num> must give characters back to the rest of the pattern.
        assert!(check_both(&parse("<num>:<digit>+").unwrap(), "9:07"));
        assert!(check_both(&parse("<num>.<digit>{2}").unwrap(), "3.14"));
        assert!(check_both(&parse("<num>.<digit>{2}").unwrap(), "1.5.99"));
    }

    #[test]
    fn same_class_tokens_fuse() {
        let p = Pattern::new(vec![Token::Digit(2), Token::Digit(3)]);
        let c = CompiledPattern::compile(&p);
        assert_eq!(c.num_instructions(), 1);
        assert!(c.is_deterministic());
        assert!(check_both(&p, "12345"));
        assert!(!check_both(&p, "1234"));

        let p = Pattern::new(vec![Token::Digit(2), Token::DigitPlus, Token::DigitPlus]);
        let c = CompiledPattern::compile(&p);
        assert_eq!(c.num_instructions(), 1);
        assert!(!check_both(&p, "123"));
        assert!(check_both(&p, "1234"));
        assert!(check_both(&p, "123456789"));

        // Different classes do not fuse: <digit>{2}<alnum>+ ≠ <alnum>{3+}.
        let p = Pattern::new(vec![Token::Digit(2), Token::AlnumPlus]);
        assert_eq!(CompiledPattern::compile(&p).num_instructions(), 2);
        assert!(check_both(&p, "12ab"));
        assert!(!check_both(&p, "ab12"));
    }

    #[test]
    fn variadic_splits_match_reference() {
        let p = Pattern::new(vec![Token::AlnumPlus, Token::lit("-"), Token::AlnumPlus]);
        assert!(check_both(&p, "a1-b2"));
        assert!(!check_both(&p, "a-b-c")); // the trailing "-c" has no home
        assert!(!check_both(&p, "-ab"));
        let sym = Pattern::new(vec![Token::SymPlus, Token::lit("-"), Token::AlnumPlus]);
        assert!(check_both(&sym, "--a")); // <sym>+ must give back the "-"
        assert!(!check_both(&sym, "-a"));
        let p2 = Pattern::new(vec![Token::AnyPlus, Token::lit("!")]);
        assert!(check_both(&p2, "anything!"));
        assert!(!check_both(&p2, "anything"));
        assert!(!check_both(&p2, "!"));
    }

    #[test]
    fn unicode_values_stay_on_char_boundaries() {
        // Non-ASCII characters are symbols (CharClass::of), multi-byte in
        // UTF-8; <sym> widths count characters, not bytes.
        let sym2 = Pattern::new(vec![Token::Sym(2)]);
        assert!(check_both(&sym2, "é°"));
        assert!(!check_both(&sym2, "é"));
        assert!(!check_both(&sym2, "éa"));
        let p = Pattern::new(vec![Token::SymPlus, Token::lit("x"), Token::SymPlus]);
        assert!(check_both(&p, "éx✓"));
        assert!(check_both(&p, "…x—"));
        assert!(!check_both(&p, "…x"));
        // ASCII classes reject multi-byte characters outright.
        assert!(!check_both(&Pattern::new(vec![Token::LetterPlus]), "ré"));
        // <any>+ splits across multi-byte characters without slicing them.
        let any2 = Pattern::new(vec![Token::AnyPlus, Token::AnyPlus]);
        assert!(check_both(&any2, "é✓"));
        assert!(!check_both(&any2, "é"));
    }

    #[test]
    fn min_width_pruning_rejects_short_values_early() {
        let p = parse("<digit>{4}-<digit>{2}-<digit>{2}").unwrap();
        let c = CompiledPattern::compile(&p);
        assert!(c.is_deterministic());
        assert!(!c.matches("2019-"));
        assert!(c.matches("2019-07-27"));
        assert!(!c.matches("2019-07-271"));
    }

    #[test]
    fn pathological_adjacent_variadics_fuse_flat() {
        // The reference matcher needs its memo for this; fusion makes it a
        // single bounded scan here.
        let p = Pattern::new(vec![Token::AnyPlus; 12]);
        let c = CompiledPattern::compile(&p);
        assert_eq!(c.num_instructions(), 1);
        let long = "x".repeat(200);
        assert!(check_both(&p, &long));
        let p2 = Pattern::new(
            std::iter::repeat_n(Token::AnyPlus, 12)
                .chain([Token::lit("!")])
                .collect::<Vec<_>>(),
        );
        assert!(!check_both(&p2, &long));
    }

    #[test]
    fn memo_engages_on_multi_branch_programs() {
        // Two <num> tokens with a separator: both branch, memo on.
        let p = parse("<num>,<num>").unwrap();
        let c = CompiledPattern::compile(&p);
        assert_eq!(c.num_instructions(), 3);
        assert!(!c.is_deterministic());
        assert!(check_both(&p, "1.5,2.25"));
        assert!(check_both(&p, "1,2"));
        assert!(!check_both(&p, "1,2,"));
        assert!(!check_both(&p, "1.,2"));
    }

    #[test]
    fn explain_reports_failing_span_and_prefix() {
        let p = parse("<letter>{3} <digit>{2} <digit>{4}").unwrap();
        let c = CompiledPattern::compile(&p);
        assert!(c.explain("Mar 01 2019").is_none());

        // "Mar 1 2019": the digit pair matched "1 "? No — "1" then the
        // space fails the 2-char digit scan at byte 5.
        let t = c.explain("Mar 1 2019").unwrap();
        assert_eq!(t.failed_at, 5);
        assert_eq!(t.matched_prefix("Mar 1 2019"), "Mar 1");
        assert_eq!(t.failing_span("Mar 1 2019"), " ");
        assert!(t.expected.contains("digit"), "{}", t.expected);

        // Trailing input: the program finished, the value did not.
        let t = c.explain("Mar 01 2019 ").unwrap();
        assert_eq!(t.failed_at, 11);
        assert_eq!(t.span_end, 12);
        assert_eq!(t.inst, t.num_insts);
        assert_eq!(t.expected, "end of value");

        // Too short: reach ends where the value does, span is empty.
        let t = c.explain("Mar 01 20").unwrap();
        assert_eq!(t.failed_at, 9);
        assert_eq!(t.span_end, 9);
        assert_eq!(t.failing_span("Mar 01 20"), "");
    }

    #[test]
    fn explain_tracks_partial_literal_and_num_progress() {
        let p = parse("session-<digit>{4}").unwrap();
        let c = CompiledPattern::compile(&p);
        let t = c.explain("session_0001").unwrap();
        assert_eq!(t.matched_prefix("session_0001"), "session");
        assert_eq!(t.failing_span("session_0001"), "_");

        // "5." is a prefix of "5.1": the dot extends the reach.
        let num = CompiledPattern::compile(&parse("<num>").unwrap());
        let t = num.explain("5.").unwrap();
        assert_eq!(t.failed_at, 2);
        let t = num.explain("5.x").unwrap();
        assert_eq!(t.failed_at, 2);
        assert_eq!(t.failing_span("5.x"), "x");
    }

    #[test]
    fn explain_stays_on_char_boundaries() {
        let p = Pattern::new(vec![Token::lit("é"), Token::Digit(1)]);
        let c = CompiledPattern::compile(&p);
        // 'è' shares its lead byte with 'é': the partial literal progress
        // must round down to the char boundary at 0.
        let t = c.explain("è1").unwrap();
        assert_eq!(t.failed_at, 0);
        assert_eq!(t.failing_span("è1"), "è");
        let t = c.explain("éx").unwrap();
        assert_eq!(t.failed_at, 2);
        assert_eq!(t.failing_span("éx"), "x");
    }

    #[test]
    fn explain_looks_past_the_min_width_prune() {
        // matches() rejects "abc1" on length alone; explain still finds
        // the deepest partial match (the whole value is a valid prefix).
        let p = Pattern::new(vec![Token::AnyPlus, Token::Digit(4)]);
        let c = CompiledPattern::compile(&p);
        assert!(!c.matches("abc1"));
        let t = c.explain("abc1").unwrap();
        assert_eq!(t.failed_at, 4);
        assert_eq!(t.span_end, 4);
    }

    #[test]
    fn explain_none_iff_matches() {
        let patterns = [
            parse("<letter>{3} <digit>{2} <digit>{4}").unwrap(),
            parse("<num>,<num>").unwrap(),
            Pattern::empty(),
            Pattern::new(vec![Token::AnyPlus]),
        ];
        let values = ["Mar 01 2019", "1.5,2", "", "x", "Mar 01 2019 ", "1,2,"];
        for p in &patterns {
            let c = CompiledPattern::compile(p);
            for v in values {
                assert_eq!(c.explain(v).is_none(), c.matches(v), "{p} ~ {v:?}");
            }
        }
    }

    #[test]
    fn program_distance_is_an_edit_distance() {
        let date = CompiledPattern::compile(&parse("<letter>{3} <digit>{2} <digit>{4}").unwrap());
        let date2 = CompiledPattern::compile(&parse("<letter>{3} <digit>{2} <digit>{4}").unwrap());
        let long = CompiledPattern::compile(&parse("<letter>+ <digit>{2} <digit>{4}").unwrap());
        let id = CompiledPattern::compile(&parse("session-<digit>{4}").unwrap());
        assert_eq!(date.distance(&date2), 0);
        assert_eq!(date.distance(&long), 1); // one substituted instruction
        assert_eq!(date.distance(&long), long.distance(&date));
        assert!(date.distance(&id) > date.distance(&long));
        let empty = CompiledPattern::compile(&Pattern::empty());
        assert_eq!(empty.distance(&date), date.num_instructions());
    }

    #[test]
    fn scratch_reuse_across_values() {
        let p = parse("<digit>+:<digit>{2}").unwrap();
        let c = CompiledPattern::compile(&p);
        for i in 0..50 {
            let good = format!("{}:{:02}", i, i % 60);
            assert!(c.matches(&good), "{good}");
            assert!(!c.matches("drift"));
        }
    }
}
