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
//! A second digest pins the whole-column half of the variant family on
//! the same 60 query columns, at full length: plain FMDV, FMDV-H, the
//! CMDV ablation and the Auto-Tag dual at FNR budgets 0 and 0.05 — the
//! four searches that differ only in the horizontal cut and the selection
//! objective.
//!
//! ```text
//! cargo run --release --example inference_digest
//! ```

use av_core::{AnyRule, AutoValidate, FmdvConfig, InferError, TagRule, Variant};
use av_corpus::{generate_lake, Benchmark, ColumnKind, LakeProfile};
use av_index::{IndexConfig, PatternIndex};

/// FNV-1a over every inference outcome, in sample order.
const EXPECTED_DIGEST: u64 = 0xd70aa01607102243;
/// FNV-1a over the whole-column variants' outcomes, in sample order.
const EXPECTED_WHOLE_COLUMN_DIGEST: u64 = 0x919cd2fc88882d81;
const QUERY_COLUMNS: usize = 60;

fn fnv1a64(digest: u64, bytes: &[u8]) -> u64 {
    let mut d = digest;
    for &b in bytes {
        d ^= b as u64;
        d = d.wrapping_mul(0x100000001b3);
    }
    d
}

/// One pinned digest under construction, with the tally printed next to it.
struct Pinned {
    digest: u64,
    kinds: std::collections::BTreeMap<String, usize>,
}

impl Pinned {
    fn new() -> Pinned {
        Pinned {
            digest: 0xcbf29ce484222325,
            kinds: Default::default(),
        }
    }

    fn fold(&mut self, bytes: &[u8]) {
        self.digest = fnv1a64(self.digest, bytes);
    }

    /// Fold one outcome: the wire string carries the pattern, θ and the
    /// printed statistics; a pattern rule's FPR bits and coverage are folded
    /// raw as well so a last-bit drift cannot hide behind float formatting.
    fn record(&mut self, tag: &str, outcome: Result<AnyRule, InferError>) {
        self.fold(tag.as_bytes());
        let kind = match &outcome {
            Ok(rule) => {
                self.fold(rule.to_wire().as_bytes());
                match rule {
                    AnyRule::Pattern(r) => {
                        self.fold(&r.expected_fpr.to_bits().to_le_bytes());
                        self.fold(&r.coverage.to_le_bytes());
                        "pattern rule"
                    }
                    AnyRule::Numeric(_) => "numeric rule",
                    AnyRule::Dictionary(_) => "dictionary rule",
                }
            }
            Err(e) => self.fold_error(e),
        };
        *self.kinds.entry(format!("{tag} {kind}")).or_default() += 1;
    }

    /// Fold one Auto-Tag outcome: the pattern, its reach and the observed
    /// FNR to the bit.
    fn record_tag(&mut self, tag: &str, outcome: Result<TagRule, InferError>) {
        self.fold(tag.as_bytes());
        let kind = match &outcome {
            Ok(rule) => {
                self.fold(rule.pattern().to_string().as_bytes());
                self.fold(&rule.coverage.to_le_bytes());
                self.fold(&rule.train_fnr.to_bits().to_le_bytes());
                "tag rule"
            }
            Err(e) => self.fold_error(e),
        };
        *self.kinds.entry(format!("{tag} {kind}")).or_default() += 1;
    }

    fn fold_error(&mut self, e: &InferError) -> &'static str {
        self.fold(format!("error: {e}").as_bytes());
        match e {
            InferError::NoFeasible => "no feasible cover",
            _ => "no hypothesis",
        }
    }

    /// Print the tally and hold the digest to its pinned value.
    fn check(&self, expected: u64, index: &PatternIndex, start: std::time::Instant) {
        for (kind, count) in &self.kinds {
            println!("{kind:>28}: {count}");
        }
        println!(
            "{} inferences over a {}-pattern index in {:.1?}, digest 0x{:016x}",
            self.kinds.values().sum::<usize>(),
            index.len(),
            start.elapsed(),
            self.digest,
        );
        assert_eq!(
            self.digest, expected,
            "an inferred rule drifted from the pinned run; if a rule changed \
             on purpose, read the diff of this example's output and re-pin"
        );
    }
}

fn main() {
    let corpus = generate_lake(&LakeProfile::tiny().scaled(800), 42);
    let cols: Vec<_> = corpus.columns().collect();
    let index = PatternIndex::build(&cols, &IndexConfig::default());
    let cfg = FmdvConfig::scaled_for_corpus(index.num_columns);
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
    let mut pinned = Pinned::new();

    let benchmark = Benchmark::sample(&corpus, QUERY_COLUMNS, 20, 1000, 7);
    assert_eq!(benchmark.len(), QUERY_COLUMNS);
    for case in &benchmark.cases {
        pinned.record("auto:", engine.infer_auto(&case.train));
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
            pinned.record(tag, outcome.map(AnyRule::Pattern));
        }
    }
    pinned.check(EXPECTED_DIGEST, &index, start);

    // The whole-column variants: one search, three objectives, and a
    // horizontal cut at θ = 0 (FMDV, CMDV), `cfg.theta` (FMDV-H) or the
    // FNR budget (Auto-Tag). On the query columns at full length (20–60
    // values, where a dirty column's one or two ad-hoc specials fall
    // inside a 5–10 % tolerance and the cut has something to discard).
    let start = std::time::Instant::now();
    let mut whole = Pinned::new();
    for case in &benchmark.cases {
        for (tag, variant) in [
            ("fmdv:", Variant::Fmdv),
            ("h:", Variant::FmdvH),
            ("cmdv:", Variant::Cmdv),
        ] {
            let outcome = engine.infer(&case.column.values, variant);
            whole.record(tag, outcome.map(AnyRule::Pattern));
        }
        for (tag, fnr_budget) in [("tag@0:", 0.0), ("tag@0.05:", 0.05)] {
            whole.record_tag(tag, engine.infer_tag(&case.column.values, fnr_budget));
        }
    }
    whole.check(EXPECTED_WHOLE_COLUMN_DIGEST, &index, start);
    println!("ok: every inferred rule is identical to the pinned run");
}
