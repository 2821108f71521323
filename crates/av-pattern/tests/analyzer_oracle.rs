//! Differential oracle for Algorithm 1's analyzer: `analyze_column` (one
//! byte-level scan per value into a run table, supports counted per run
//! signature) must return what the analyzer it replaced returned —
//! `total_values`, and every group's `key`, `count`, `sample_size` and
//! ordered `(Token, BitSet)` lists.
//!
//! The reference below is that old analyzer (a `Pattern` key and three run
//! vectors per value, every option of every value probed into a small
//! vector), kept verbatim over the public API so the oracle shares no code
//! with the production scan. CI runs this file in release with
//! `PROPTEST_CASES=2000`.

use av_pattern::{
    analyze_column, stream_column_profile, tokenize, BitSet, CharClass, CoarseGroup,
    ColumnAnalysis, EnumScratch, Pattern, PatternConfig, PositionOptions, Run, Token,
};
use proptest::prelude::*;
use std::collections::HashMap;

// ---- the old analyzer -------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergedClass {
    Alnum,
    Sym,
    Space,
}

struct MergedRun<'a> {
    class: MergedClass,
    text: &'a str,
    subs: Vec<Run<'a>>,
}

fn merge_class(class: CharClass) -> MergedClass {
    match class {
        CharClass::Digit | CharClass::Letter => MergedClass::Alnum,
        CharClass::Symbol => MergedClass::Sym,
        CharClass::Space => MergedClass::Space,
    }
}

fn merged_runs(value: &str) -> Vec<MergedRun<'_>> {
    let runs = tokenize(value);
    let mut out: Vec<MergedRun<'_>> = Vec::with_capacity(runs.len());
    let mut offset = 0usize;
    for run in runs {
        let end = offset + run.text.len();
        let class = merge_class(run.class);
        match out.last_mut() {
            Some(last) if last.class == MergedClass::Alnum && class == MergedClass::Alnum => {
                let start = end - last.text.len() - run.text.len();
                last.text = &value[start..end];
                last.subs.push(run);
            }
            _ => {
                out.push(MergedRun {
                    class,
                    text: &value[offset..end],
                    subs: vec![run],
                });
            }
        }
        offset = end;
    }
    out
}

fn reference_merged_token_count(value: &str) -> usize {
    let mut count = 0usize;
    let mut cur: Option<MergedClass> = None;
    for c in value.chars() {
        let class = merge_class(CharClass::of(c));
        if cur != Some(class) {
            count += 1;
            cur = Some(class);
        }
    }
    count
}

fn reference_merged_key(value: &str) -> Pattern {
    let mut tokens: Vec<Token> = Vec::new();
    let mut cur: Option<MergedClass> = None;
    for c in value.chars() {
        let class = merge_class(CharClass::of(c));
        if cur != Some(class) {
            tokens.push(match class {
                MergedClass::Alnum => Token::AlnumPlus,
                MergedClass::Sym => Token::SymPlus,
                MergedClass::Space => Token::SpacePlus,
            });
            cur = Some(class);
        }
    }
    Pattern::new(tokens)
}

fn run_options(run: &Run<'_>, cfg: &PatternConfig) -> Vec<Token> {
    let k = run.len() as u16;
    let mut out = vec![Token::lit(run.text)];
    match run.class {
        CharClass::Digit => out.extend([
            Token::Digit(k),
            Token::DigitPlus,
            Token::Num,
            Token::Alnum(k),
            Token::AlnumPlus,
        ]),
        CharClass::Letter => {
            if cfg.case_tokens {
                if run.text.chars().all(|c| c.is_ascii_uppercase()) {
                    out.extend([Token::Upper(k), Token::UpperPlus]);
                } else if run.text.chars().all(|c| c.is_ascii_lowercase()) {
                    out.extend([Token::Lower(k), Token::LowerPlus]);
                }
            }
            out.extend([
                Token::Letter(k),
                Token::LetterPlus,
                Token::Alnum(k),
                Token::AlnumPlus,
            ]);
        }
        CharClass::Space => out.push(Token::SpacePlus),
        CharClass::Symbol => out.extend([Token::Sym(k), Token::SymPlus]),
    }
    out.push(Token::AnyPlus);
    out
}

fn merged_options(m: &MergedRun<'_>) -> Vec<Token> {
    let w = m.text.chars().count() as u16;
    let mut out = vec![Token::lit(m.text)];
    match m.class {
        MergedClass::Alnum => out.extend([Token::Alnum(w), Token::AlnumPlus]),
        MergedClass::Sym => out.extend([Token::Sym(w), Token::SymPlus]),
        MergedClass::Space => out.push(Token::SpacePlus),
    }
    out.push(Token::AnyPlus);
    out
}

fn note_option(options: &mut Vec<(Token, BitSet)>, opt: Token, vi: usize, sample: usize) {
    if let Some((_, bits)) = options.iter_mut().find(|(t, _)| *t == opt) {
        bits.set(vi);
        return;
    }
    let mut bits = BitSet::new(sample);
    bits.set(vi);
    options.push((opt, bits));
}

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

fn collect_options(
    map: Vec<(Token, BitSet)>,
    min_support: usize,
    sample_size: usize,
) -> PositionOptions {
    let mut options: Vec<(Token, BitSet, usize)> = map
        .into_iter()
        .filter_map(|(t, bits)| {
            let count = bits.count();
            (count >= min_support).then_some((t, bits, count))
        })
        .collect();
    options.sort_by(|(a, _, acount), (b, _, bcount)| {
        trim_rank(a, *acount == sample_size)
            .cmp(&trim_rank(b, *bcount == sample_size))
            .then_with(|| acount.cmp(bcount))
            .then_with(|| a.cmp(b))
    });
    PositionOptions {
        options: options.into_iter().map(|(t, bits, _)| (t, bits)).collect(),
    }
}

fn reference_analyze(values: &[&str], cfg: &PatternConfig) -> ColumnAnalysis {
    let total = values.len();
    let mut groups: HashMap<Pattern, Vec<usize>> = HashMap::new();
    for (i, v) in values.iter().enumerate() {
        groups.entry(reference_merged_key(v)).or_default().push(i);
    }
    let min_count = ((cfg.coverage_frac * total as f64).ceil() as usize).max(1);
    let mut out: Vec<CoarseGroup> = Vec::new();
    for (key, members) in groups {
        if members.len() < min_count {
            continue;
        }
        let sample: Vec<&str> = members
            .iter()
            .take(cfg.sample_values)
            .map(|&i| values[i])
            .collect();
        let sample_size = sample.len();
        let parsed: Vec<Vec<MergedRun<'_>>> = sample.iter().map(|v| merged_runs(v)).collect();
        let floor = if sample_size >= 8 { 2 } else { 1 };
        let min_support = ((cfg.coverage_frac * sample_size as f64).ceil() as usize).max(floor);
        let mut positions = Vec::new();
        for j in 0..key.len() {
            let first_classes: Vec<CharClass> = parsed[0][j].subs.iter().map(|r| r.class).collect();
            let consistent = parsed.iter().all(|mr| {
                mr[j].subs.len() == first_classes.len()
                    && mr[j]
                        .subs
                        .iter()
                        .zip(&first_classes)
                        .all(|(r, c)| r.class == *c)
            });
            if consistent {
                for s in 0..first_classes.len() {
                    let mut options = Vec::new();
                    for (vi, mr) in parsed.iter().enumerate() {
                        for opt in run_options(&mr[j].subs[s], cfg) {
                            note_option(&mut options, opt, vi, sample_size);
                        }
                    }
                    positions.push(collect_options(options, min_support, sample_size));
                }
            } else {
                let mut options = Vec::new();
                for (vi, mr) in parsed.iter().enumerate() {
                    for opt in merged_options(&mr[j]) {
                        note_option(&mut options, opt, vi, sample_size);
                    }
                }
                positions.push(collect_options(options, min_support, sample_size));
            }
        }
        out.push(CoarseGroup {
            key,
            count: members.len(),
            sample_size,
            positions,
        });
    }
    out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
    ColumnAnalysis {
        groups: out,
        total_values: total,
    }
}

// ---- the comparison ---------------------------------------------------

fn assert_same(got: &ColumnAnalysis, want: &ColumnAnalysis, what: &str) {
    assert_eq!(got.total_values, want.total_values, "{what}: total_values");
    assert_eq!(got.groups.len(), want.groups.len(), "{what}: group count");
    for (got, want) in got.groups.iter().zip(&want.groups) {
        let key = &want.key;
        assert_eq!(&got.key, key, "{what}: key");
        assert_eq!(got.count, want.count, "{what}: count of {key}");
        assert_eq!(got.sample_size, want.sample_size, "{what}: sample of {key}");
        let (got, want) = (&got.positions, &want.positions);
        assert_eq!(got.len(), want.len(), "{what}: arity of {key}");
        for (p, (got, want)) in got.iter().zip(want).enumerate() {
            assert_eq!(got.options, want.options, "{what}: position {p} of {key}");
        }
    }
}

/// Both analyzers over `values` under `cfg`, whole and behind the τ
/// pre-filter `stream_column_profile` applies.
fn check(values: &[String], cfg: &PatternConfig) {
    let refs: Vec<&str> = values.iter().map(String::as_str).collect();
    assert_same(
        &analyze_column(values, cfg),
        &reference_analyze(&refs, cfg),
        "analyze_column",
    );
    for tau in [0usize, 3, 13] {
        let narrow: Vec<&str> = refs
            .iter()
            .copied()
            .filter(|v| reference_merged_token_count(v) <= tau)
            .collect();
        let want = reference_emissions(&narrow, values.len(), cfg);
        let mut got: Vec<(Pattern, u64)> = Vec::new();
        stream_column_profile(
            values,
            cfg,
            tau,
            &mut EnumScratch::default(),
            |_, _| true,
            |sp, frac| {
                got.push((sp.to_pattern(), frac.to_bits()));
            },
        );
        assert_eq!(got, want, "stream_column_profile, tau {tau}");
    }
}

/// What `stream_column_profile` must emit: the reference groups of the
/// values within τ, enumerated by the production DFS (which
/// `stream_equivalence.rs` holds to its own oracle), scaled by the whole
/// column.
fn reference_emissions(narrow: &[&str], total: usize, cfg: &PatternConfig) -> Vec<(Pattern, u64)> {
    let mut out = Vec::new();
    let mut scratch = EnumScratch::default();
    for group in &reference_analyze(narrow, cfg).groups {
        if group.sample_size == 0 {
            continue;
        }
        let scale = (group.count as f64 / group.sample_size as f64) / total as f64;
        group.for_each_pattern(
            0,
            group.positions.len(),
            1,
            cfg,
            &mut scratch,
            |_, _| true,
            |sp| {
                out.push((sp.to_pattern(), (sp.support as f64 * scale).to_bits()));
            },
        );
    }
    out
}

fn configs() -> Vec<PatternConfig> {
    vec![
        PatternConfig::default(),
        PatternConfig {
            case_tokens: false,
            ..Default::default()
        },
        // Fewer samples than members, a coarser coverage floor.
        PatternConfig {
            sample_values: 5,
            coverage_frac: 0.2,
            max_patterns: 64,
            ..Default::default()
        },
    ]
}

/// Machine-shaped values: short runs of digits, letters of either case,
/// delimiters, all six ASCII whitespace bytes.
fn machine_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Fa-f0-9x :/._|\t\r\n\x0B\x0C-]{0,18}").expect("valid regex")
}

/// The same with what the byte scan must not split or miscount: accented
/// letters, CJK, U+00A0 (whitespace to Unicode, a symbol here), an
/// astral-plane character.
fn unicode_value() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('é'),
            Just('ß'),
            Just('日'),
            Just('本'),
            Just('\u{00A0}'),
            Just('😀'),
            Just('a'),
            Just('Z'),
            Just('7'),
            Just('-'),
            Just(' '),
        ],
        0..10,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// A handful of shapes repeated, so groups have many members and
/// positions have supports between the floor and the sample.
fn shaped_value() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[0-9]{1,2}:[0-9]{2} [AP]M").expect("valid regex"),
        proptest::string::string_regex("[0-9a-f]{8}-[0-9a-f]{4}").expect("valid regex"),
        prop_oneof![Just("ok"), Just("OK"), Just("Ok"), Just("fail")].prop_map(str::to_string),
        Just(String::new()),
        proptest::string::string_regex("[a-z]{1,3}-[A-Z]{1,3}/[0-9]{1,4}").expect("valid regex"),
        // Over any τ the profile uses: 15 merged tokens.
        Just("1/2/3 4:5:6 7-8".to_string()),
    ]
}

fn column() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![
        proptest::collection::vec(machine_value(), 1..12),
        proptest::collection::vec(unicode_value(), 1..12),
        proptest::collection::vec(shaped_value(), 1..40),
        proptest::collection::vec(
            prop_oneof![machine_value(), unicode_value(), shaped_value()],
            1..24
        ),
    ]
}

proptest! {
    /// The analyzer equals the reference on generated columns under every
    /// config, with and without the τ pre-filter.
    #[test]
    fn analyzer_equals_the_reference(col in column()) {
        // `check` panics with what differed; failing here adds the column.
        let agreed = std::panic::catch_unwind(|| configs().iter().for_each(|cfg| check(&col, cfg)));
        prop_assert!(agreed.is_ok());
    }
}

/// Columns a generator would rarely draw, each of which the scan had to
/// get right.
#[test]
fn analyzer_equals_the_reference_on_odd_columns() {
    let owned = |vs: &[&str]| vs.iter().map(|v| v.to_string()).collect::<Vec<_>>();
    let mut columns: Vec<Vec<String>> = vec![
        owned(&["", "", ""]),
        owned(&["", "a", "", "1-2"]),
        owned(&[" ", "\t", "\r\n", "\x0B\x0C", " \t\r\n\x0B\x0C"]),
        owned(&["a\u{00A0}b", "a b", "a\u{00A0}\u{00A0}b"]),
        owned(&["naïve", "naive", "NAÏVE", "日本語", "日本", "ab日本cd"]),
        owned(&["Ab", "aB", "AB", "ab", "A1b2", "a1B2"]),
        owned(&[
            "550e8400-e29b",
            "abcdffff-1234",
            "12345678-abcd",
            "ABCDEF00-00ff",
        ]),
        // Distinct ids past the 256-value sample cap.
        (0..700).map(|i| format!("id-{i:05x}")).collect(),
        // Many groups, interleaved, so the group look-up leaves its fast path.
        (0..300)
            .map(|i| match i % 5 {
                0 => format!("{i}"),
                1 => format!("{i}-{i}"),
                2 => format!("{i} {i}"),
                3 => format!("{i}:{i}:{i}"),
                _ => format!("x{i}/y"),
            })
            .collect(),
    ];
    // A run wider than a fixed-width token can say: 65 537 digits wrap to
    // `<digit>{1}`, as `Run::len() as u16` always has.
    columns.push(vec![
        "7".repeat(65_537),
        "7".repeat(65_537),
        "x".to_string(),
    ]);
    columns.push(vec![format!("{}-{}", "é".repeat(65_536 + 3), "ab")]);
    for col in &columns {
        for cfg in configs() {
            check(col, &cfg);
        }
        check(
            col,
            &PatternConfig {
                coverage_frac: 0.0,
                sample_values: 1000,
                ..Default::default()
            },
        );
    }
}
