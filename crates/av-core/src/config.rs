//! Configuration of the FMDV optimization problems.

use av_stats::HomogeneityTest;

/// Which Auto-Validate variant to run (§2–§4, compared in Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// Basic FMDV (§2.3): requires a homogeneous query column.
    Fmdv,
    /// FMDV-V (§3): vertical cuts via segmentation dynamic programming.
    FmdvV,
    /// FMDV-H (§4): horizontal cuts tolerating non-conforming values.
    FmdvH,
    /// FMDV-VH: vertical and horizontal cuts combined — the paper's best.
    #[default]
    FmdvVH,
    /// CMDV ablation (§2.3): minimize coverage instead of FPR. The paper
    /// reports this is less effective; included for the ablation bench.
    Cmdv,
}

impl Variant {
    /// Short display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Fmdv => "FMDV",
            Variant::FmdvV => "FMDV-V",
            Variant::FmdvH => "FMDV-H",
            Variant::FmdvVH => "FMDV-VH",
            Variant::Cmdv => "CMDV",
        }
    }
}

/// A variant by name, as the wire protocol and the CLI spell it: the
/// label in lower case (`fmdv-vh`) or, for the cut variants, the cuts
/// alone (`vh`). The error is the message both report.
impl std::str::FromStr for Variant {
    type Err = String;

    fn from_str(name: &str) -> Result<Variant, String> {
        match name {
            "fmdv" => Ok(Variant::Fmdv),
            "v" | "fmdv-v" => Ok(Variant::FmdvV),
            "h" | "fmdv-h" => Ok(Variant::FmdvH),
            "vh" | "fmdv-vh" => Ok(Variant::FmdvVH),
            "cmdv" => Ok(Variant::Cmdv),
            other => Err(format!("unknown variant {other:?}")),
        }
    }
}

/// Significance level of the two-sample homogeneity test at validation
/// time (§4); the paper uses two-tailed Fisher's exact at 0.01.
pub(crate) const ALPHA: f64 = 0.01;

/// Knobs of the FMDV family (Eq. 5–16).
#[derive(Debug, Clone)]
pub struct FmdvConfig {
    /// Target FPR threshold `r` (Eq. 6). Paper sweeps 0–0.1 (Fig. 12a) and
    /// uses `r = 0.1` for the headline FMDV-VH run (Fig. 11).
    pub r: f64,
    /// Minimum coverage `m` (Eq. 7). Paper recommends ≥ 100 on the full
    /// enterprise corpus (Fig. 12b); scale proportionally to corpus size.
    pub m: u64,
    /// Non-conforming tolerance θ (Eq. 16) for the horizontal-cut variants.
    pub theta: f64,
    /// Which homogeneity test to use (at significance level 0.01).
    pub test: HomogeneityTest,
    /// Use `max` instead of `sum` when aggregating segment FPRs in the
    /// vertical DP (the paper's "optimistic" alternative — reported less
    /// effective; exposed for the ablation bench).
    pub optimistic_vertical: bool,
}

impl Default for FmdvConfig {
    fn default() -> Self {
        FmdvConfig {
            r: 0.1,
            m: 100,
            theta: 0.1,
            test: HomogeneityTest::FisherExact,
            optimistic_vertical: false,
        }
    }
}

impl FmdvConfig {
    /// Config scaled for a corpus of `num_columns` columns: the paper's
    /// `m = 100` assumes a 7M-column corpus; for smaller (simulated)
    /// corpora, require the same *fraction* of columns, with a floor of 3.
    pub fn scaled_for_corpus(num_columns: u64) -> FmdvConfig {
        let m = ((num_columns as f64) * (100.0 / 7_000_000.0)).ceil() as u64;
        FmdvConfig {
            m: m.max(3),
            ..Default::default()
        }
    }
}

/// Why rule inference failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The training column is empty.
    EmptyColumn,
    /// `H(C)` is empty (heterogeneous column under the basic variant).
    NoHypothesis,
    /// No hypothesis satisfies the FPR/coverage constraints.
    NoFeasible,
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::EmptyColumn => write!(f, "training column is empty"),
            InferError::NoHypothesis => {
                write!(f, "hypothesis space is empty (heterogeneous column)")
            }
            InferError::NoFeasible => {
                write!(f, "no pattern satisfies the FPR/coverage constraints")
            }
        }
    }
}

impl std::error::Error for InferError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = FmdvConfig::default();
        assert_eq!(c.r, 0.1);
        assert_eq!(c.m, 100);
        assert_eq!(c.test, HomogeneityTest::FisherExact);
        assert_eq!(Variant::default(), Variant::FmdvVH);
    }

    #[test]
    fn scaled_coverage_has_floor() {
        assert_eq!(FmdvConfig::scaled_for_corpus(7_000_000).m, 100);
        assert_eq!(FmdvConfig::scaled_for_corpus(70_000).m, 3);
        assert_eq!(FmdvConfig::scaled_for_corpus(10).m, 3);
    }

    #[test]
    fn labels() {
        assert_eq!(Variant::FmdvVH.label(), "FMDV-VH");
        assert_eq!(Variant::Cmdv.label(), "CMDV");
    }

    #[test]
    fn every_label_parses_back_and_a_typo_does_not() {
        for v in [
            Variant::Fmdv,
            Variant::FmdvV,
            Variant::FmdvH,
            Variant::FmdvVH,
            Variant::Cmdv,
        ] {
            assert_eq!(v.label().to_lowercase().parse(), Ok(v));
        }
        assert_eq!("vh".parse(), Ok(Variant::FmdvVH));
        assert_eq!(
            "banana".parse::<Variant>(),
            Err("unknown variant \"banana\"".to_string())
        );
        assert!("FMDV".parse::<Variant>().is_err(), "names are lower case");
    }
}
