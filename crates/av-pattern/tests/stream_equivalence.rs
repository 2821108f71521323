//! Streaming-enumeration equivalence: the fingerprint-first DFS
//! (`CoarseGroup::for_each_pattern` / `stream_column_profile`) must emit
//! exactly what the materializing path produces — same patterns, same
//! supports, same order, same fingerprints, same canonical token counts.
//!
//! The reference below is the pre-streaming implementation (clone a
//! `BitSet` per DFS child, build every `Pattern`, recount support at
//! emission), reconstructed over the public API so the oracle shares no
//! code with the production DFS.

use av_pattern::{
    analyze_column, column_pattern_profile, stream_column_profile, BitSet, CoarseGroup,
    EnumScratch, Pattern, PatternConfig, Token,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// The old materializing enumeration, kept verbatim as the test oracle.
fn reference_enumerate(
    group: &CoarseGroup,
    start: usize,
    end: usize,
    min_support: usize,
    cfg: &PatternConfig,
) -> Vec<(Pattern, usize)> {
    if start == end {
        return vec![(Pattern::empty(), group.sample_size)];
    }
    let mut positions: Vec<Vec<(Token, BitSet)>> = group.positions[start..end]
        .iter()
        .map(|p| p.options.clone())
        .collect();
    loop {
        let product: u128 = positions.iter().map(|p| p.len() as u128).product();
        if product <= cfg.max_patterns as u128 {
            break;
        }
        let widest = positions
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.len())
            .map(|(i, _)| i)
            .expect("positions non-empty");
        if positions[widest].len() <= 1 {
            break;
        }
        positions[widest].remove(0);
    }
    let full = {
        let mut b = BitSet::new(group.sample_size);
        for i in 0..group.sample_size {
            b.set(i);
        }
        b
    };
    let mut out = Vec::new();
    let mut stack: Vec<Token> = Vec::new();
    reference_rec(
        &positions,
        0,
        &full,
        min_support.max(1),
        &mut stack,
        &mut out,
    );
    out.retain(|(p, _)| !is_trivial(p));
    out
}

fn is_trivial(p: &Pattern) -> bool {
    !p.is_empty() && p.tokens().iter().all(|t| matches!(t, Token::AnyPlus))
}

fn reference_rec(
    positions: &[Vec<(Token, BitSet)>],
    depth: usize,
    support: &BitSet,
    min_support: usize,
    stack: &mut Vec<Token>,
    out: &mut Vec<(Pattern, usize)>,
) {
    if depth == positions.len() {
        out.push((Pattern::new(stack.clone()), support.count()));
        return;
    }
    for (token, bits) in &positions[depth] {
        let mut next = support.clone();
        next.and_assign(bits);
        if next.count() < min_support {
            continue;
        }
        stack.push(token.clone());
        reference_rec(positions, depth + 1, &next, min_support, stack, out);
        stack.pop();
    }
}

/// The old per-column profile: enumerate per group, merge by `Pattern`.
fn reference_profile(values: &[String], cfg: &PatternConfig, tau: usize) -> Vec<(Pattern, f64)> {
    let narrow: Vec<&str> = values
        .iter()
        .map(|v| v.as_str())
        .filter(|v| av_pattern::merged_token_count(v) <= tau)
        .collect();
    if narrow.is_empty() {
        return Vec::new();
    }
    let total = values.len();
    let analysis = analyze_column(&narrow, cfg);
    let mut acc: HashMap<Pattern, f64> = HashMap::new();
    for g in &analysis.groups {
        if g.sample_size == 0 {
            continue;
        }
        let scale = (g.count as f64 / g.sample_size as f64) / total as f64;
        for (pattern, support) in reference_enumerate(g, 0, g.positions.len(), 1, cfg) {
            *acc.entry(pattern).or_insert(0.0) += support as f64 * scale;
        }
    }
    let mut out: Vec<(Pattern, f64)> = acc.into_iter().collect();
    out.sort_by(|(a, _), (b, _)| a.cmp(b));
    out
}

fn machine_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9 :/.|_-]{0,18}").expect("valid regex")
}

fn column() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(machine_value(), 1..10)
}

fn configs() -> Vec<PatternConfig> {
    vec![
        PatternConfig::default(),
        // Tiny cap exercises the trim loop.
        PatternConfig {
            max_patterns: 8,
            ..Default::default()
        },
        PatternConfig {
            max_patterns: 64,
            case_tokens: false,
            ..Default::default()
        },
    ]
}

proptest! {
    /// Streamed emissions equal the materializing oracle, element for
    /// element: fingerprint, support, canonical token count, display form,
    /// and emission order.
    #[test]
    fn streaming_matches_materializing_enumeration(col in column()) {
        for cfg in configs() {
            let analysis = analyze_column(&col, &cfg);
            for group in &analysis.groups {
                for min_support in [1usize, group.sample_size.div_ceil(2), group.sample_size] {
                    let expected = reference_enumerate(group, 0, group.positions.len(), min_support, &cfg);
                    let mut got: Vec<(u64, usize, usize, String)> = Vec::new();
                    let mut scratch = EnumScratch::default();
                    group.for_each_pattern(0, group.positions.len(), min_support, &cfg, &mut scratch, |_, _| true, |sp| {
                        got.push((sp.fingerprint, sp.support, sp.token_len, sp.display()));
                    });
                    prop_assert_eq!(got.len(), expected.len());
                    for ((fp, support, token_len, display), (pattern, ref_support)) in
                        got.iter().zip(&expected)
                    {
                        prop_assert_eq!(*fp, pattern.fingerprint());
                        prop_assert_eq!(*support, *ref_support);
                        prop_assert_eq!(*token_len, pattern.len());
                        prop_assert_eq!(display, &pattern.to_string());
                    }
                }
            }
        }
    }

    /// Segment enumeration (the vertical-cut building block) agrees with
    /// the oracle on every sub-range.
    #[test]
    fn streaming_matches_materializing_segments(col in column()) {
        let cfg = PatternConfig { max_patterns: 32, ..Default::default() };
        let analysis = analyze_column(&col, &cfg);
        for group in &analysis.groups {
            let n = group.positions.len().min(4);
            for s in 0..=n {
                for e in s..=n {
                    let expected = reference_enumerate(group, s, e, 1, &cfg);
                    let got = group.enumerate_segment(s, e, 1, &cfg);
                    prop_assert_eq!(got.len(), expected.len());
                    for (sp, (pattern, support)) in got.iter().zip(&expected) {
                        prop_assert_eq!(&sp.pattern, pattern);
                        prop_assert_eq!(sp.support, *support);
                    }
                }
            }
        }
    }

    /// The streamed column profile, merged by fingerprint, is exactly the
    /// materializing profile (fractions compared bit-for-bit), and the
    /// `column_pattern_profile` wrapper still reports the old shape.
    #[test]
    fn streamed_profile_matches_reference(col in column()) {
        let cfg = PatternConfig { max_patterns: 128, ..Default::default() };
        for tau in [3usize, 13] {
            let expected = reference_profile(&col, &cfg, tau);
            let wrapper = column_pattern_profile(&col, &cfg, tau);
            prop_assert_eq!(wrapper.len(), expected.len());
            for ((wp, wf), (ep, ef)) in wrapper.iter().zip(&expected) {
                prop_assert_eq!(wp, ep);
                prop_assert_eq!(wf.to_bits(), ef.to_bits());
            }
            let mut streamed: HashMap<u64, f64> = HashMap::new();
            let mut scratch = EnumScratch::default();
            stream_column_profile(&col, &cfg, tau, &mut scratch, |_, _| true, |sp, frac| {
                *streamed.entry(sp.fingerprint).or_insert(0.0) += frac;
            });
            prop_assert_eq!(streamed.len(), expected.len());
            for (pattern, frac) in &expected {
                let got = streamed.get(&pattern.fingerprint());
                prop_assert_eq!(got.map(|f| f.to_bits()), Some(frac.to_bits()));
            }
        }
    }
}
