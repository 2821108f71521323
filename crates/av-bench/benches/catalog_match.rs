//! Catalog size × per-value classify latency: the catalog automaton
//! (`av-match`'s lazily-determinized NFA union) against the loop over N
//! one-rule automata it replaces — each rule checked on its own, as
//! `validate` checks one. Measured numbers are recorded as Point 6 in
//! `crates/av-bench/PERF.md`.
//!
//! The design contract being verified: one `classify` scan of a value is
//! ~independent of catalog size once the lazy DFA is warm, while the loop
//! pays one full scan per rule — so the gap must widen linearly with the
//! catalog (≥10× at 1 000 rules).
//!
//! The `rules = 1` point sets `classify` (which names the matching rules)
//! against the boolean scan `validate` runs on the same one-rule automaton.
//! It uses the FMDV-VH timestamp rule of the `validator_api` bench, so the
//! numbers sit next to that bench's `check` medians (and the ledger's
//! `pattern.match_ns`).
//!
//! The `insert/at_N` rungs are the write side: one `insert` into a catalog
//! that already holds N pattern rules. An insert appends its fragment's
//! closure to the start key, so the three must read alike — a service
//! catalogs one rule per `infer`, and must not slow down as it learns.

use av_match::CatalogMatcher;
use av_pattern::{parse, CompiledPattern, Pattern, Token};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `n` distinct machine-data shapes: a literal feed prefix plus a mix of
/// digit/upper/lower runs, cycling widths so no two rules share a program.
fn synthetic_catalog(n: usize) -> Vec<CompiledPattern> {
    (0..n)
        .map(|i| {
            let tokens = match i % 4 {
                0 => vec![
                    Token::lit(format!("f{:03}-", i / 4)),
                    Token::Digit(2 + (i % 5) as u16),
                ],
                1 => vec![
                    Token::lit(format!("F{:03}/", i / 4)),
                    Token::Upper(1 + (i % 3) as u16),
                    Token::lit(":".to_string()),
                    Token::DigitPlus,
                ],
                2 => vec![
                    Token::Digit(4),
                    Token::lit(format!(".{:03}.", i / 4)),
                    Token::LowerPlus,
                ],
                _ => vec![Token::lit(format!("id{:04}x", i / 4)), Token::AlnumPlus],
            };
            CompiledPattern::compile(&Pattern::new(tokens))
        })
        .collect()
}

/// A probe mix: values matching rules from the front, middle and back of
/// the catalog, plus misses that die at byte 0 and deep misses.
fn probes(n: usize) -> Vec<String> {
    vec![
        "f000-42".to_string(),
        format!("F{:03}/AB:1234", (n / 2) / 4),
        format!("1999.{:03}.abcdef", (n - 2) / 4),
        "zzz-no-rule-starts-here".to_string(),
        format!("id{:04}x", n),
    ]
}

/// One rule, one value per iteration: `classify_into` (the id-list scan,
/// allocation-free) against `is_match` (the boolean scan) on one automaton.
fn bench_single_rule(c: &mut Criterion) {
    let program = CompiledPattern::compile(
        &parse("<digit>+/<digit>{2}/<digit>{4} <digit>+:<digit>{2}:<digit>{2} <letter>{2}")
            .expect("variadic pattern"),
    );
    let mut matcher = CatalogMatcher::new();
    matcher.insert(0, &program);
    let mut hits = Vec::new();
    let mut group = c.benchmark_group("catalog_match");
    for (label, value) in [
        ("conforming", "9/07/2019 12:01:32 PM"),
        ("drifted", "drift-42"),
    ] {
        matcher.classify_into(value, &mut hits);
        assert_eq!(!hits.is_empty(), matcher.is_match(value), "{value:?}");
        group.bench_function(format!("classify/1 {label}"), |b| {
            b.iter(|| {
                matcher.classify_into(black_box(value), &mut hits);
                hits.len()
            })
        });
        group.bench_function(format!("loop/1 {label}"), |b| {
            b.iter(|| black_box(matcher.is_match(black_box(value))))
        });
    }
    group.finish();
}

fn bench_catalog_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("catalog_match");
    group.sample_size(30);
    for n in [10usize, 100, 1_000, 10_000] {
        let programs = synthetic_catalog(n);
        let values = probes(n);
        let mut matcher = CatalogMatcher::new();
        let mut singles: Vec<CatalogMatcher> = Vec::with_capacity(n);
        for (i, p) in programs.iter().enumerate() {
            matcher.insert(i as u32, p);
            let mut single = CatalogMatcher::new();
            single.insert(0, p);
            singles.push(single);
        }
        // Equal verdicts on every probe, or the speedup is meaningless.
        for v in &values {
            let loop_set: Vec<u32> = (0..)
                .zip(&mut singles)
                .filter_map(|(i, single)| single.is_match(v).then_some(i))
                .collect();
            assert_eq!(matcher.classify(v), loop_set, "verdicts diverge on {v:?}");
        }

        group.bench_function(format!("classify/{n}"), |b| {
            b.iter(|| {
                let mut matched = 0usize;
                for v in &values {
                    matched += matcher.classify(black_box(v)).len();
                }
                matched
            })
        });
        group.bench_function(format!("loop/{n}"), |b| {
            b.iter(|| {
                let mut matched = 0usize;
                for v in &values {
                    matched += singles
                        .iter_mut()
                        .map(|single| single.is_match(black_box(v)))
                        .filter(|&hit| hit)
                        .count();
                }
                matched
            })
        });
    }
    group.finish();
}

/// `insert` at a fixed catalog size: each timed batch of `n / 10` inserts
/// runs on a freshly built `n`-rule matcher (built outside the clock), so
/// the catalog a measured insert meets holds `n` to `1.1 n` rules.
fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("catalog_match");
    group.sample_size(10);
    for n in [100usize, 1_000, 10_000] {
        let programs = synthetic_catalog(n + n / 10);
        let (base, extra) = programs.split_at(n);
        group.bench_function(format!("insert/at_{n}"), |b| {
            b.iter_custom(|iters| {
                let mut elapsed = Duration::ZERO;
                let mut left = iters as usize;
                while left > 0 {
                    let mut matcher = CatalogMatcher::new();
                    for (i, p) in base.iter().enumerate() {
                        matcher.insert(i as u32, p);
                    }
                    let batch = &extra[..left.min(extra.len())];
                    let start = Instant::now();
                    for (i, p) in batch.iter().enumerate() {
                        matcher.insert((n + i) as u32, black_box(p));
                    }
                    elapsed += start.elapsed();
                    left -= batch.len();
                    black_box(matcher.len());
                }
                elapsed
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_single_rule, bench_catalog_scaling, bench_insert
}
criterion_main!(benches);
