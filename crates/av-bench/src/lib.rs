//! # av-bench — the paper's §5 tables as data the build checks
//!
//! Every table and figure of the paper's evaluation is one row of
//! [`EXPERIMENTS`]: a name and a function from a [`Lab`] — the lake, its
//! τ = 13 index and the sampled benchmark, built once per process — to the
//! [`Table`]s it reports. The `exp` binary prints any of them and writes
//! its CSV from the same rows; `tests/fidelity.rs` runs all of them at
//! `small` / enterprise / seed 42 and compares against the checked-in
//! `fidelity.expected`. This file holds the shared setup: scale presets,
//! the four flags and the lab.

mod experiments;
mod table;

pub use experiments::{Experiment, EXPERIMENTS};
pub use table::{Cell, Table};

use av_baselines::ColumnValidator;
use av_core::FmdvConfig;
use av_corpus::{generate_lake, Benchmark, Column, Corpus, LakeProfile};
use av_eval::{evaluate_method, MethodResult};
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
    pub(crate) fn corpus_columns(&self, profile: &LakeProfile) -> usize {
        match self {
            Scale::Small => (profile.num_columns / 5).max(1000),
            Scale::Full => profile.num_columns,
        }
    }

    /// Benchmark cases (the paper samples 1000).
    pub(crate) fn benchmark_cases(&self) -> usize {
        match self {
            Scale::Small => 250,
            Scale::Full => 1000,
        }
    }

    /// Recall sample per case (0 = all others, the paper's exact setting).
    pub(crate) fn recall_sample(&self) -> usize {
        match self {
            Scale::Small => 50,
            Scale::Full => 100,
        }
    }
}

/// The four flags every experiment takes.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Scale preset (`--scale small|full`).
    pub scale: Scale,
    /// Base corpus profile (`--profile enterprise|government`).
    pub profile: LakeProfile,
    /// Output directory for CSVs (`--out DIR`).
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
    /// Parse `--flag value` pairs over the defaults. Anything else — an
    /// unknown flag, a missing or unknown value — is an error naming it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<ExpArgs, String> {
        let mut parsed = ExpArgs::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match (flag.as_str(), value.as_str()) {
                ("--scale", "small") => parsed.scale = Scale::Small,
                ("--scale", "full") => parsed.scale = Scale::Full,
                ("--profile", "enterprise") => parsed.profile = LakeProfile::enterprise(),
                ("--profile", "government") => parsed.profile = LakeProfile::government(),
                ("--out", dir) => parsed.out_dir = PathBuf::from(dir),
                ("--seed", n) => {
                    parsed.seed = n
                        .parse()
                        .map_err(|_| format!("--seed {n:?} is not a number"))?
                }
                ("--scale" | "--profile", other) => {
                    return Err(format!("unknown {} {other:?}", &flag[2..]))
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(parsed)
    }
}

/// What every experiment shares.
pub struct Env {
    /// The simulated lake.
    pub corpus: Corpus,
    /// Offline index over it (τ = 13).
    pub index: Arc<PatternIndex>,
    /// Benchmark of sampled query columns with 10/90 splits.
    pub benchmark: Benchmark,
    /// FMDV configuration scaled to the corpus.
    pub fmdv: FmdvConfig,
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
    pub(crate) fn benchmark(&self, cases: usize) -> Benchmark {
        sample_benchmark(&self.args, &self.env().corpus, cases)
    }

    /// Another index (a different τ, or pattern strings kept) over the
    /// same lake.
    pub(crate) fn index_with(&self, config: &IndexConfig) -> Arc<PatternIndex> {
        build_index(&self.env().corpus, config)
    }

    /// The §5.1 harness at this scale's recall sample.
    pub(crate) fn evaluate(
        &self,
        validator: &dyn ColumnValidator,
        benchmark: &Benchmark,
    ) -> MethodResult {
        eprintln!("[eval] {}…", validator.name());
        evaluate_method(validator, benchmark, self.args.scale.recall_sample())
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
}
