//! # av-bench — experiment harness shared by every table/figure binary
//!
//! Each `exp_*` binary regenerates one artifact of the paper's §5 (see
//! DESIGN.md's experiment index). This library holds the shared setup:
//! scale presets, corpus/index construction, the standard method roster,
//! and output-directory plumbing. Results are printed as aligned tables and
//! written as CSV under `results/`.

mod experiments;
mod table;

pub use experiments::{Experiment, EXPERIMENTS};
pub use table::{Cell, Table};

use av_baselines::{
    ColumnValidator, DeequCat, DeequFra, FlashProfile, Grok, PottersWheel, SchemaMatchCorpus,
    SmInstance, SmPattern, Ssis, Tfdv, XSystem,
};
use av_core::{FmdvConfig, Variant};
use av_corpus::{generate_lake, Benchmark, Column, Corpus, LakeProfile};
use av_eval::{evaluate_method, EvalConfig, FmdvValidator, MethodResult};
use av_index::{IndexConfig, PatternIndex};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale smoke runs (CI-friendly).
    Small,
    /// The full simulated reproduction.
    Full,
}

impl Scale {
    /// Corpus size for a base profile.
    pub fn corpus_columns(&self, profile: &LakeProfile) -> usize {
        match self {
            Scale::Small => (profile.num_columns / 5).max(1000),
            Scale::Full => profile.num_columns,
        }
    }

    /// Benchmark cases (the paper samples 1000).
    pub fn benchmark_cases(&self) -> usize {
        match self {
            Scale::Small => 250,
            Scale::Full => 1000,
        }
    }

    /// Recall sample per case (0 = all others, the paper's exact setting).
    pub fn recall_sample(&self) -> usize {
        match self {
            Scale::Small => 50,
            Scale::Full => 100,
        }
    }
}

/// Common command-line arguments for experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Scale preset (`--scale small|full`).
    pub scale: Scale,
    /// Base corpus profile (`--profile enterprise|government`).
    pub profile: LakeProfile,
    /// Output directory for CSVs (`--out DIR`, default `results/`).
    pub out_dir: PathBuf,
    /// Master seed (`--seed N`).
    pub seed: u64,
}

/// `small` / enterprise / `results/` / 42 — the configuration
/// `fidelity.expected` was recorded at.
impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: Scale::Small,
            profile: LakeProfile::enterprise(),
            out_dir: PathBuf::from("results"),
            seed: 42,
        }
    }
}

impl ExpArgs {
    /// Parse from `std::env::args`, with defaults.
    pub fn parse() -> ExpArgs {
        let args: Vec<String> = std::env::args().collect();
        let mut scale = Scale::Small;
        let mut profile = LakeProfile::enterprise();
        let mut out_dir = PathBuf::from("results");
        let mut seed = 42u64;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale = match args.get(i).map(|s| s.as_str()) {
                        Some("full") => Scale::Full,
                        _ => Scale::Small,
                    };
                }
                "--profile" => {
                    i += 1;
                    profile = match args.get(i).map(|s| s.as_str()) {
                        Some("government") => LakeProfile::government(),
                        _ => LakeProfile::enterprise(),
                    };
                }
                "--out" => {
                    i += 1;
                    out_dir = PathBuf::from(args.get(i).cloned().unwrap_or_default());
                }
                "--seed" => {
                    i += 1;
                    seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(42);
                }
                other => {
                    eprintln!("ignoring unknown argument {other:?}");
                }
            }
            i += 1;
        }
        ExpArgs {
            scale,
            profile,
            out_dir,
            seed,
        }
    }
}

/// A fully prepared experiment environment.
pub struct Env {
    /// The simulated lake.
    pub corpus: Corpus,
    /// Offline index over it.
    pub index: Arc<PatternIndex>,
    /// Benchmark of sampled query columns with 10/90 splits.
    pub benchmark: Benchmark,
    /// FMDV configuration scaled to the corpus.
    pub fmdv: FmdvConfig,
}

/// Generate corpus → build index → sample benchmark.
pub fn prepare(args: &ExpArgs) -> Env {
    prepare_with(args, IndexConfig::default(), None)
}

/// Like [`prepare`] but with a custom index configuration and an optional
/// override of benchmark size.
pub fn prepare_with(args: &ExpArgs, index_config: IndexConfig, cases: Option<usize>) -> Env {
    let profile = args
        .profile
        .scaled(args.scale.corpus_columns(&args.profile));
    eprintln!(
        "[setup] generating {} corpus: {} columns…",
        profile.name, profile.num_columns
    );
    let corpus = generate_lake(&profile, args.seed);
    eprintln!("[setup] indexing (τ = {})…", index_config.tau);
    let t0 = std::time::Instant::now();
    let cols: Vec<&Column> = corpus.columns().collect();
    let index = Arc::new(PatternIndex::build(&cols, &index_config));
    eprintln!(
        "[setup] indexed {} columns → {} patterns in {:.1?}",
        index.num_columns,
        index.len(),
        t0.elapsed()
    );
    let value_cap = if profile.name == "government" {
        100
    } else {
        1000
    };
    let benchmark = Benchmark::sample(
        &corpus,
        cases.unwrap_or(args.scale.benchmark_cases()),
        20,
        value_cap,
        args.seed.wrapping_add(1),
    );
    let fmdv = FmdvConfig::scaled_for_corpus(index.num_columns);
    Env {
        corpus,
        index,
        benchmark,
        fmdv,
    }
}

/// The four FMDV variants under the environment's config.
pub fn fmdv_roster(env: &Env) -> Vec<Box<dyn ColumnValidator>> {
    [
        Variant::Fmdv,
        Variant::FmdvV,
        Variant::FmdvH,
        Variant::FmdvVH,
    ]
    .into_iter()
    .map(|v| {
        Box::new(FmdvValidator::new(env.index.clone(), env.fmdv.clone(), v))
            as Box<dyn ColumnValidator>
    })
    .collect()
}

/// The full §5.2 roster: FMDV variants + every baseline.
pub fn full_roster(env: &Env) -> Vec<Box<dyn ColumnValidator>> {
    let mut roster = fmdv_roster(env);
    roster.push(Box::new(PottersWheel));
    roster.push(Box::new(Ssis));
    roster.push(Box::new(XSystem::default()));
    roster.push(Box::new(FlashProfile::default()));
    roster.push(Box::new(Grok::default()));
    roster.push(Box::new(Tfdv));
    roster.push(Box::new(DeequCat::default()));
    roster.push(Box::new(DeequFra::default()));
    let sm = SchemaMatchCorpus::new(&env.corpus);
    roster.push(Box::new(SmInstance::new(sm.clone(), 1)));
    roster.push(Box::new(SmInstance::new(sm.clone(), 10)));
    roster.push(Box::new(SmPattern::majority(sm.clone())));
    roster.push(Box::new(SmPattern::plurality(sm)));
    roster
}

/// An experiment's context: the flags, and the [`Env`] they describe,
/// built on first use and then shared by every experiment of the process.
pub struct Lab {
    /// The flags.
    pub args: ExpArgs,
    env: OnceLock<Env>,
}

impl Lab {
    /// A lab for these flags; nothing is generated until asked for.
    pub fn new(args: ExpArgs) -> Lab {
        Lab {
            args,
            env: OnceLock::new(),
        }
    }

    /// Generate corpus → build index → sample benchmark, once.
    pub fn env(&self) -> &Env {
        self.env.get_or_init(|| {
            let args = &self.args;
            let columns = args.scale.corpus_columns(&args.profile);
            eprintln!(
                "[setup] generating {columns} {} columns…",
                args.profile.name
            );
            let corpus = generate_lake(&args.profile.scaled(columns), args.seed);
            let index = build_index(&corpus, &IndexConfig::default());
            Env {
                benchmark: sample_benchmark(args, &corpus, args.scale.benchmark_cases()),
                fmdv: FmdvConfig::scaled_for_corpus(index.num_columns),
                corpus,
                index,
            }
        })
    }

    /// A benchmark of another size over the same lake.
    pub fn benchmark(&self, cases: usize) -> Benchmark {
        sample_benchmark(&self.args, &self.env().corpus, cases)
    }

    /// Another index (a different τ, or pattern strings kept) over the
    /// same lake.
    pub fn index_with(&self, config: &IndexConfig) -> Arc<PatternIndex> {
        build_index(&self.env().corpus, config)
    }

    /// The §5.1 harness at this scale's recall sample.
    pub fn evaluate(&self, validator: &dyn ColumnValidator, benchmark: &Benchmark) -> MethodResult {
        eprintln!("[eval] {}…", validator.name());
        let config = EvalConfig {
            recall_sample: self.args.scale.recall_sample(),
            ..Default::default()
        };
        evaluate_method(validator, benchmark, &config)
    }
}

fn build_index(corpus: &Corpus, config: &IndexConfig) -> Arc<PatternIndex> {
    eprintln!("[setup] indexing (τ = {})…", config.tau);
    let cols: Vec<&Column> = corpus.columns().collect();
    Arc::new(PatternIndex::build(&cols, config))
}

fn sample_benchmark(args: &ExpArgs, corpus: &Corpus, cases: usize) -> Benchmark {
    let value_cap = if args.profile.name == "government" {
        100
    } else {
        1000
    };
    Benchmark::sample(corpus, cases, 20, value_cap, args.seed.wrapping_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_presets() {
        let e = LakeProfile::enterprise();
        assert_eq!(Scale::Full.corpus_columns(&e), 20_000);
        assert_eq!(Scale::Small.corpus_columns(&e), 4_000);
        assert_eq!(Scale::Full.benchmark_cases(), 1000);
    }

    #[test]
    fn roster_contains_all_paper_methods() {
        let args = ExpArgs {
            scale: Scale::Small,
            profile: LakeProfile::tiny(),
            out_dir: PathBuf::from("/tmp/av-bench-test"),
            seed: 3,
        };
        let env = prepare(&args);
        let roster = full_roster(&env);
        let names: Vec<String> = roster.iter().map(|v| v.name().to_string()).collect();
        for want in [
            "FMDV",
            "FMDV-V",
            "FMDV-H",
            "FMDV-VH",
            "PWheel",
            "SSIS",
            "XSystem",
            "FlashProfile",
            "Grok",
            "TFDV",
            "Deequ-Cat",
            "Deequ-Fra",
            "SM-I-1",
            "SM-I-10",
            "SM-P-M",
            "SM-P-P",
        ] {
            assert!(names.iter().any(|n| n == want), "missing {want}");
        }
    }
}
