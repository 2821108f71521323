//! Compiled pattern programs: the fused form every engine is built from.
//!
//! [`crate::matches`] is the *reference* matcher — character-level memoized
//! backtracking, kept deliberately close to the paper's Def. 1 so it can
//! serve as the oracle in equivalence tests.
//!
//! [`CompiledPattern`] is a [`crate::Pattern`] *lowered once* into a flat
//! instruction program, which `av-match` translates into its byte-level
//! NFA — the automaton a served `validate`, `classify` and `explain` run,
//! one pass per value whatever the pattern. Its shape:
//!
//! * adjacent same-class tokens are **fused** — `<digit>{2}<digit>{4}`
//!   becomes one bounded 6-char scan, `<digit>{2}<digit>+` one "6-or-more"
//!   run — so the program is usually shorter than the token list;
//! * literals are stored as pre-encoded byte slices (UTF-8 equality on
//!   `char` sequences is byte equality);
//! * classes are seen as byte tests: the ASCII classes (`<digit>`,
//!   `<upper>`, …) test single bytes; `<sym>`/`<any>`, whose alphabets
//!   include multi-byte characters, step by encoded length, so positions
//!   always stay on `char` boundaries.
//!
//! The automaton's verdicts equal the reference matcher's; the equivalence
//! is property-tested in `av-match`'s `tests/catalog_oracle.rs`.

use crate::pattern::Pattern;
use crate::token::Token;

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
    /// `<num>` = `\d+(\.\d+)?`.
    Num,
}

/// A fixed-width token's constructor: `Token::Digit` builds `<digit>{n}`.
type SizedToken = fn(u16) -> Token;

/// Character class an instruction scans, seen through
/// [`CompiledPattern::instructions`]. Mirrors
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
    /// Membership test for an ASCII byte (`b < 0x80`); non-ASCII
    /// characters are governed by [`ClassView::accepts_multibyte`].
    #[inline]
    pub const fn contains_ascii(self, b: u8) -> bool {
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
    #[inline]
    pub fn accepts_multibyte(self) -> bool {
        matches!(self, ClassView::Sym | ClassView::Any)
    }

    /// The class's fixed-width token constructor (`<sym>{n}`; none for
    /// `<space>` and `<any>`) and its one-or-more token.
    fn tokens(self) -> (Option<SizedToken>, Token) {
        match self {
            ClassView::Digit => (Some(Token::Digit), Token::DigitPlus),
            ClassView::Upper => (Some(Token::Upper), Token::UpperPlus),
            ClassView::Lower => (Some(Token::Lower), Token::LowerPlus),
            ClassView::Letter => (Some(Token::Letter), Token::LetterPlus),
            ClassView::Alnum => (Some(Token::Alnum), Token::AlnumPlus),
            ClassView::Sym => (Some(Token::Sym), Token::SymPlus),
            ClassView::Space => (None, Token::SpacePlus),
            ClassView::Any => (None, Token::AnyPlus),
        }
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
/// This is the exact fused program: `av-match` translates these views
/// into its automaton instead of re-deriving it from pattern tokens.
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

/// A [`Pattern`] lowered to its fused instruction program.
///
/// Compile once at inference time; `av-match` builds the automaton every
/// check and explanation runs from [`CompiledPattern::instructions`].
///
/// ```
/// use av_pattern::{parse, CompiledPattern};
///
/// let pattern = parse("<letter>{3} <digit>{2} <digit>{4}").unwrap();
/// let compiled = CompiledPattern::compile(&pattern);
/// assert_eq!(compiled.num_instructions(), 5);
/// assert_eq!(compiled.describe_inst(1), "literal \" \"");
/// ```
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    insts: Box<[Inst]>,
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
        CompiledPattern {
            insts: insts.into_boxed_slice(),
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

    /// Does the program accept the *entire* `value`? The char-level
    /// reference's verdict ([`crate::matches`]) on a pattern rebuilt from
    /// the instructions per call — kept for tests and the benchmark ladder;
    /// checks run `av-match`'s automaton.
    pub fn matches(&self, value: &str) -> bool {
        crate::matches(&self.pattern(), value)
    }

    /// A pattern with the program's language. Fusion only merged runs of
    /// one class, so each instruction turns back into that class's tokens:
    /// `Var { class, min_chars: n }` into `<class>{n-1}<class>+`, or into n
    /// `<class>+` for a class with no fixed-width token.
    fn pattern(&self) -> Pattern {
        fn fixed(tokens: &mut Vec<Token>, width: SizedToken, mut chars: u32) {
            while chars > 0 {
                let n = chars.min(u32::from(u16::MAX));
                tokens.push(width(n as u16));
                chars -= n;
            }
        }
        let mut tokens = Vec::with_capacity(self.insts.len());
        for inst in self.insts.iter() {
            match *inst {
                Inst::Lit(ref lit) => {
                    let text = std::str::from_utf8(lit).expect("literals are encoded from &str");
                    tokens.push(Token::lit(text));
                }
                Inst::Num => tokens.push(Token::Num),
                Inst::Fixed { class, chars } => {
                    let (width, _) = class.tokens();
                    fixed(
                        &mut tokens,
                        width.expect("only sized classes are fixed"),
                        chars,
                    );
                }
                Inst::Var { class, min_chars } => match class.tokens() {
                    (Some(width), plus) => {
                        fixed(&mut tokens, width, min_chars - 1);
                        tokens.push(plus);
                    }
                    (None, plus) => tokens.extend((0..min_chars).map(|_| plus.clone())),
                },
            }
        }
        Pattern::new(tokens)
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
    use crate::parser::parse;

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
        assert_eq!(compiled.describe_inst(0), "exactly 6 digit character(s)");
        assert_eq!(compiled.describe_inst(2), "1 or more uppercase characters");
        assert_eq!(compiled.describe_inst(3), "a number (<num>)");
        assert_eq!(compiled.describe_inst(4), "end of value");
    }

    /// Which programs fusion produces; `av-match`'s catalog oracle holds
    /// their verdicts to the reference's.
    #[test]
    fn same_class_tokens_fuse() {
        let fused = |tokens: Vec<Token>| CompiledPattern::compile(&Pattern::new(tokens));
        let p = fused(vec![Token::Digit(2), Token::Digit(3)]);
        assert_eq!(
            p.instructions().collect::<Vec<_>>(),
            [InstView::Fixed {
                class: ClassView::Digit,
                chars: 5
            }]
        );
        let p = fused(vec![Token::Digit(2), Token::DigitPlus, Token::DigitPlus]);
        assert_eq!(
            p.instructions().collect::<Vec<_>>(),
            [InstView::Var {
                class: ClassView::Digit,
                min_chars: 4
            }]
        );
        // Different classes do not fuse: <digit>{2}<alnum>+ ≠ <alnum>{3+}.
        assert_eq!(
            fused(vec![Token::Digit(2), Token::AlnumPlus]).num_instructions(),
            2
        );
        // Twelve <any>+ are one bounded scan.
        assert_eq!(fused(vec![Token::AnyPlus; 12]).num_instructions(), 1);
    }

    /// `matches` rebuilds a pattern from the fused program: each fusion
    /// case comes back as tokens of the same language.
    #[test]
    fn rebuilt_pattern_has_the_source_language() {
        let rebuilt = |text: &str| CompiledPattern::compile(&parse(text).unwrap()).pattern();
        let same = |text: &str| assert_eq!(rebuilt(text), parse(text).unwrap(), "{text}");
        same("<letter>{3} <digit>{2} <digit>{4}");
        same("<num>.<digit>+ <sym>{2}");
        same("<any>+<any>+<space>+x");
        // Fusion reorders a run, not its language.
        assert_eq!(
            rebuilt("<digit>+<digit>{2}"),
            parse("<digit>{2}<digit>+").unwrap()
        );
        assert_eq!(
            rebuilt("<upper>{2}<upper>{3}"),
            parse("<upper>{5}").unwrap()
        );
        // A fused width past a token's `u16` splits again.
        let wide =
            CompiledPattern::compile(&Pattern::new(vec![Token::Digit(u16::MAX), Token::Digit(2)]));
        assert_eq!(
            wide.pattern(),
            Pattern::new(vec![Token::Digit(u16::MAX), Token::Digit(2)])
        );
        let p = parse("<letter>+<letter>{2}-<any>+<any>+").unwrap();
        let program = CompiledPattern::compile(&p);
        for v in ["ab-xy", "abc-x", "a-xy", "abc-xyz", "ab-x"] {
            assert_eq!(program.matches(v), crate::matches(&p, v), "{v}");
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
}
