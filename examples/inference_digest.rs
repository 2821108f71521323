//! Inference determinism check (run by CI), sibling of `index_build`.
//!
//! Builds a seeded tiny data lake and its index, samples 60 query columns
//! the way the paper's evaluation does (§5.1: the first 10 % of a column
//! is what a validator sees), infers a rule for each with `infer_auto`,
//! and additionally forces the two vertical-cut variants on every
//! composite column of the lake — the inputs that drive the FMDV-V/VH
//! dynamic program through its specificity-first pass, its min-FPR
//! fallback and its infeasible exit. Every outcome (the rule's wire
//! string, its FPR bits and coverage, or the error) folds into one FNV-1a
//! digest that must equal the pinned constant: the index build is
//! bit-deterministic and inference is exact, so a mismatch means a change
//! to enumeration, index lookup or the DP chose a different rule
//! somewhere. Re-pin only when a rule is *meant* to change.
//!
//! ```text
//! cargo run --release --example inference_digest
//! ```

use av_core::{AnyRule, AutoValidate, FmdvConfig, InferError, Variant};
use av_corpus::{generate_lake, Benchmark, ColumnKind, LakeProfile};
use av_index::{IndexConfig, PatternIndex};

/// FNV-1a over every inference outcome, in sample order.
const EXPECTED_DIGEST: u64 = 0xd70aa01607102243;
const QUERY_COLUMNS: usize = 60;

fn fnv1a64(digest: u64, bytes: &[u8]) -> u64 {
    let mut d = digest;
    for &b in bytes {
        d ^= b as u64;
        d = d.wrapping_mul(0x100000001b3);
    }
    d
}

/// Fold one outcome: the wire string carries the pattern, θ and the
/// printed statistics; a pattern rule's FPR bits and coverage are folded
/// raw as well so a last-bit drift cannot hide behind float formatting.
/// Returns the digest and the outcome's row in the printed tally.
fn fold(digest: u64, tag: &str, outcome: &Result<AnyRule, InferError>) -> (u64, &'static str) {
    let d = fnv1a64(digest, tag.as_bytes());
    match outcome {
        Ok(rule) => {
            let d = fnv1a64(d, rule.to_wire().as_bytes());
            match rule {
                AnyRule::Pattern(r) => {
                    let d = fnv1a64(d, &r.expected_fpr.to_bits().to_le_bytes());
                    (fnv1a64(d, &r.coverage.to_le_bytes()), "pattern rule")
                }
                AnyRule::Numeric(_) => (d, "numeric rule"),
                AnyRule::Dictionary(_) => (d, "dictionary rule"),
            }
        }
        Err(e) => {
            let kind = match e {
                InferError::NoFeasible => "no feasible cover",
                _ => "no hypothesis",
            };
            (fnv1a64(d, format!("error: {e}").as_bytes()), kind)
        }
    }
}

fn main() {
    let corpus = generate_lake(&LakeProfile::tiny().scaled(800), 42);
    let cols: Vec<_> = corpus.columns().collect();
    let index = PatternIndex::build(&cols, &IndexConfig::default());
    let mut cfg = FmdvConfig::scaled_for_corpus(index.num_columns);
    cfg.max_segment_tokens = index.tau;
    // A thousandth of the FPR budget: segments that fit `r` above are
    // refused here, so some composites lose their cover and the DP's
    // infeasible exit is pinned too.
    let tight = AutoValidate::new(
        &index,
        FmdvConfig {
            r: cfg.r / 1000.0,
            ..cfg.clone()
        },
    );
    let engine = AutoValidate::new(&index, cfg);

    let start = std::time::Instant::now();
    let mut digest = 0xcbf29ce484222325u64;
    let mut kinds: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut record = |tag: &str, outcome: Result<AnyRule, InferError>| {
        let (d, kind) = fold(digest, tag, &outcome);
        digest = d;
        *kinds.entry(format!("{tag} {kind}")).or_default() += 1;
    };

    let benchmark = Benchmark::sample(&corpus, QUERY_COLUMNS, 20, 1000, 7);
    assert_eq!(benchmark.len(), QUERY_COLUMNS);
    for case in &benchmark.cases {
        record("auto:", engine.infer_auto(&case.train));
    }

    // Composite columns at full length: wide enough (9–25 positions) that
    // the DP has real splits to weigh and, on some, a budget to bust.
    for col in corpus.columns() {
        if col.meta.kind != ColumnKind::Composite {
            continue;
        }
        for (tag, engine, variant) in [
            ("v:", &engine, Variant::FmdvV),
            ("vh:", &engine, Variant::FmdvVH),
            ("vh-tight:", &tight, Variant::FmdvVH),
        ] {
            let outcome = engine.infer(&col.values, variant);
            record(tag, outcome.map(AnyRule::Pattern));
        }
    }

    for (kind, count) in &kinds {
        println!("{kind:>28}: {count}");
    }
    println!(
        "{} inferences over a {}-pattern index in {:.1?}, digest 0x{digest:016x}",
        kinds.values().sum::<usize>(),
        index.len(),
        start.elapsed(),
    );
    assert_eq!(
        digest, EXPECTED_DIGEST,
        "an inferred rule drifted from the pinned run; if a rule changed \
         on purpose, read the diff of this example's output and re-pin"
    );
    println!("ok: every inferred rule is identical to the pinned run");
}
