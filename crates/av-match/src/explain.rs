//! Why a value fails a pattern rule, answered by the rule's NFA.
//!
//! [`explain`] runs one simulation pass of the program's fragment over the
//! value, the same [`Nfa::step`] the matcher's fallback runs. A thread
//! list is non-empty exactly while the bytes read so far are a prefix of
//! some string the pattern accepts, so the last char boundary with a live
//! thread is the furthest the value got; the instruction that owns the
//! lowest live state there — the one deepest into the program, since a
//! fragment is built last instruction first — is what the value failed.
//! One pass, whatever the pattern: a hostile value costs its length.

use crate::nfa::{Nfa, NfaScratch};
use av_pattern::CompiledPattern;

/// Where and why a failed match got furthest — the output of [`explain`].
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
    /// have accepted (e.g. `exactly 2 digit characters`, `end of value`),
    /// from [`CompiledPattern::describe_inst`].
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

/// Explain why `value` does not match `program`: the furthest-reached
/// instruction, the failing byte span, and (via
/// [`MatchTrace::matched_prefix`]) the prefix that did match. Returns
/// `None` exactly when the program accepts the value.
///
/// The furthest-reached position is the longest prefix of `value` that is
/// also a prefix of some accepted string — the quantity
/// [`av_pattern::furthest_mismatch`] computes on the reference matcher.
/// The fragment is built per call, so explaining takes no lock.
///
/// ```
/// use av_pattern::{parse, CompiledPattern};
///
/// let program = CompiledPattern::compile(&parse("<letter>{3} <digit>{2} <digit>{4}").unwrap());
/// let trace = av_match::explain(&program, "Mar 1 2019").unwrap();
/// assert_eq!(trace.matched_prefix("Mar 1 2019"), "Mar 1");
/// assert_eq!(trace.failing_span("Mar 1 2019"), " ");
/// assert!(av_match::explain(&program, "Mar 01 2019").is_none());
/// ```
pub fn explain(program: &CompiledPattern, value: &str) -> Option<MatchTrace> {
    let mut nfa = Nfa::default();
    // Ascending: the last instruction's run first, the first one's last.
    let mut starts = Vec::with_capacity(program.num_instructions());
    let fragment = nfa.build_fragment(0, program, |start| starts.push(start));
    let num_insts = starts.len();
    let owner = |sid: u32| num_insts - starts.partition_point(|&start| start <= sid);

    let mut scratch = NfaScratch::new();
    let (mut current, mut next) = (&mut scratch.current, &mut scratch.next);
    current.clear_resize(nfa.len());
    nfa.add_closure(fragment.entry, current);
    let lowest = |live: &[u32]| *live.iter().min().expect("a live thread list");
    let (mut failed_at, mut sid) = (0, lowest(current.as_slice()));
    for (i, &b) in value.as_bytes().iter().enumerate() {
        next.clear_resize(nfa.len());
        nfa.step(current.as_slice().iter().copied(), b, next);
        std::mem::swap(&mut current, &mut next);
        if current.is_empty() {
            break;
        }
        if value.is_char_boundary(i + 1) {
            (failed_at, sid) = (i + 1, lowest(current.as_slice()));
        }
    }
    if failed_at == value.len() && nfa.accepts_any(current.as_slice()) {
        return None;
    }
    let inst = owner(sid);
    let span_end = value[failed_at..]
        .chars()
        .next()
        .map_or(failed_at, |c| failed_at + c.len_utf8());
    Some(MatchTrace {
        inst,
        num_insts,
        failed_at,
        span_end,
        expected: program.describe_inst(inst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_pattern::{parse, Pattern, Token};

    fn program(pattern: &str) -> CompiledPattern {
        CompiledPattern::compile(&parse(pattern).unwrap())
    }

    #[test]
    fn explain_reports_failing_span_and_prefix() {
        let c = program("<letter>{3} <digit>{2} <digit>{4}");
        assert!(explain(&c, "Mar 01 2019").is_none());

        // "Mar 1 2019": the space fails the 2-char digit scan at byte 5.
        let t = explain(&c, "Mar 1 2019").unwrap();
        assert_eq!(t.failed_at, 5);
        assert_eq!(t.matched_prefix("Mar 1 2019"), "Mar 1");
        assert_eq!(t.failing_span("Mar 1 2019"), " ");
        assert!(t.expected.contains("digit"), "{}", t.expected);

        // Trailing input: the program finished, the value did not.
        let t = explain(&c, "Mar 01 2019 ").unwrap();
        assert_eq!(t.failed_at, 11);
        assert_eq!(t.span_end, 12);
        assert_eq!(t.inst, t.num_insts);
        assert_eq!(t.expected, "end of value");

        // Too short: reach ends where the value does, span is empty.
        let t = explain(&c, "Mar 01 20").unwrap();
        assert_eq!(t.failed_at, 9);
        assert_eq!(t.span_end, 9);
        assert_eq!(t.failing_span("Mar 01 20"), "");
    }

    #[test]
    fn explain_tracks_partial_literal_and_num_progress() {
        let t = explain(&program("session-<digit>{4}"), "session_0001").unwrap();
        assert_eq!(t.matched_prefix("session_0001"), "session");
        assert_eq!(t.failing_span("session_0001"), "_");

        // "5." is a prefix of "5.1": the dot extends the reach.
        let num = program("<num>");
        assert_eq!(explain(&num, "5.").unwrap().failed_at, 2);
        let t = explain(&num, "5.x").unwrap();
        assert_eq!(t.failed_at, 2);
        assert_eq!(t.failing_span("5.x"), "x");
    }

    #[test]
    fn explain_stays_on_char_boundaries() {
        let c = CompiledPattern::compile(&Pattern::new(vec![Token::lit("é"), Token::Digit(1)]));
        // 'è' shares its lead byte with 'é': the reach stays at the char
        // boundary at 0, not inside the character.
        let t = explain(&c, "è1").unwrap();
        assert_eq!(t.failed_at, 0);
        assert_eq!(t.failing_span("è1"), "è");
        let t = explain(&c, "éx").unwrap();
        assert_eq!(t.failed_at, 2);
        assert_eq!(t.failing_span("éx"), "x");
    }

    #[test]
    fn explain_reaches_the_end_of_a_value_too_short_to_match() {
        // Four characters cannot fill `<any>+<digit>{4}`, yet the whole
        // value is a prefix of an accepted string.
        let c = CompiledPattern::compile(&Pattern::new(vec![Token::AnyPlus, Token::Digit(4)]));
        let t = explain(&c, "abc1").unwrap();
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
                assert_eq!(
                    explain(&c, v).is_none(),
                    av_pattern::matches(p, v),
                    "{p} ~ {v:?}"
                );
            }
        }
    }
}
