//! Vertical cuts (§3): segment a composite column and validate each segment
//! with its own pattern, minimizing the summed FPR via the Eq. 11 dynamic
//! program (the min-FPR scores have optimal substructure).

use crate::config::{FmdvConfig, InferError};
use crate::fmdv::{probe, within_index, Candidate, SelectObjective, StreamingSelect};
use av_index::PatternIndex;
use av_pattern::{CoarseGroup, EnumScratch, Pattern, PatternConfig, Token};

/// A "structural" segment candidate: when a segment consists purely of
/// symbol/whitespace positions whose literal is constant across all
/// conforming training values (e.g. the `"|"` separators of Fig. 8), the
/// literal itself is a zero-risk validation pattern — no corpus evidence is
/// needed for a delimiter, and a delimiter change *should* trip validation.
/// Alphanumeric constants (years, status words) never get this shortcut:
/// they must pay their corpus-estimated FPR, otherwise the DP would happily
/// pin `Lit("2019")` and false-alarm in January.
fn structural_literal(
    group: &CoarseGroup,
    s: usize,
    e: usize,
    min_support: usize,
) -> Option<Pattern> {
    let mut tokens: Vec<Token> = Vec::with_capacity(e - s);
    for pos in &group.positions[s..e] {
        let mut lit: Option<Token> = None;
        for (t, bits) in &pos.options {
            match t {
                Token::Lit(_) => {
                    if bits.count() >= min_support {
                        lit = Some(t.clone());
                    }
                }
                Token::Sym(_) | Token::SymPlus | Token::SpacePlus | Token::AnyPlus => {}
                _ => return None, // an alphanumeric-class position
            }
        }
        tokens.push(lit?);
    }
    Some(Pattern::new(tokens))
}

/// Result of the vertical-cut optimization.
#[derive(Debug, Clone)]
pub(crate) struct VerticalSolution {
    /// Chosen pattern per segment, in order.
    pub segments: Vec<Candidate>,
    /// Aggregated expected FPR (sum, or max in optimistic mode).
    pub total_fpr: f64,
}

impl VerticalSolution {
    /// Stitch the segment patterns back into one full-column pattern.
    pub(crate) fn full_pattern(&self) -> Pattern {
        let mut p = Pattern::empty();
        for c in &self.segments {
            p = p.concat(&c.pattern);
        }
        p
    }

    /// The weakest coverage across segments (reported on the final rule).
    /// Structural literal segments (cov = `u64::MAX`) are skipped — they
    /// carry no corpus evidence requirement.
    pub(crate) fn min_coverage(&self) -> u64 {
        self.segments
            .iter()
            .map(|c| c.cov)
            .filter(|&c| c != u64::MAX)
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// DP objective mode. The first pass prefers specificity (maximum issue
/// detection); if the chosen segmentation blows the Eq. 9 FPR budget, a
/// second pass minimizes the aggregated FPR instead — the conservative
/// reading of Eq. 8 — so feasible columns are never rejected just because
/// their most specific cover is too risky.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DpMode {
    SpecificFirst,
    MinFpr,
}

/// Objective value of a (partial) segmentation: lexicographic over
/// (total specificity, aggregated FPR) or the reverse, per [`DpMode`].
/// Specificity sums are comparable across segmentations because every
/// segmentation covers the same token positions exactly once.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score {
    spec: u32,
    fpr: f64,
}

impl Score {
    fn better_than(&self, other: &Score, mode: DpMode) -> bool {
        match mode {
            DpMode::SpecificFirst => {
                self.spec < other.spec || (self.spec == other.spec && self.fpr < other.fpr)
            }
            DpMode::MinFpr => {
                self.fpr < other.fpr || (self.fpr == other.fpr && self.spec < other.spec)
            }
        }
    }
}

/// The unsplit ("direct") winners of one cell `[s, e)`: treat `C[s,e)` as
/// one column and solve FMDV on it, once per DP objective. Both selectors
/// saw the same offers in the same order, so either both hold a candidate
/// or neither does — whether a cell is feasible does not depend on the
/// objective.
#[derive(Debug, Clone, Default)]
struct Direct {
    specific: Option<Candidate>,
    lowest_fpr: Option<Candidate>,
}

impl Direct {
    fn for_mode(&self, mode: DpMode) -> Option<&Candidate> {
        match mode {
            DpMode::SpecificFirst => self.specific.as_ref(),
            DpMode::MinFpr => self.lowest_fpr.as_ref(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Cell enumerations run on this thread (tests assert "one sweep").
    static CELLS_ENUMERATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Patterns those enumerations emitted, and how many of them the
    /// index held.
    static EMISSIONS: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// The one pass that touches the index: enumerate every cell `[s, e)` no
/// wider than the index's τ once — the offline scan recorded no wider
/// pattern, so a wider cell could only miss — below the prefixes an
/// indexed pattern starts with, probe each emission once, and let a
/// selector per objective keep its winner. Indexed `[s][e]`.
///
/// Per-segment constraints: coverage (Eq. 10). The FPR budget (Eq. 9) is
/// enforced on the aggregate at the end, but no single segment may exceed
/// it either. Selection streams: each emission is ranked by its
/// fingerprint-looked-up stats and only winners are materialized — a cell
/// offers up to `max_patterns` candidates and keeps one per objective.
fn sweep_direct(
    index: &PatternIndex,
    cfg: &FmdvConfig,
    group: &CoarseGroup,
    min_support: usize,
) -> Vec<Vec<Direct>> {
    let n = group.positions.len();
    let mut direct = vec![vec![Direct::default(); n + 1]; n + 1];
    // One enumeration scratch serves every cell of this sweep.
    let mut scratch = EnumScratch::default();
    for width in 1..=n.min(index.tau) {
        for (s, row) in direct.iter_mut().enumerate().take(n - width + 1) {
            let e = s + width;
            #[cfg(test)]
            CELLS_ENUMERATED.with(|c| c.set(c.get() + 1));
            let mut specific = StreamingSelect::new(SelectObjective::SpecificFirst, cfg.r, cfg.m);
            let mut lowest_fpr = StreamingSelect::new(SelectObjective::LowestFpr, cfg.r, cfg.m);
            group.for_each_pattern(
                s,
                e,
                min_support,
                &PatternConfig::default(),
                &mut scratch,
                within_index(index),
                |sp| {
                    let stats = probe(index, sp);
                    #[cfg(test)]
                    EMISSIONS.with(|n| {
                        let (emitted, hits) = n.get();
                        n.set((emitted + 1, hits + usize::from(stats.1 > 0)));
                    });
                    specific.offer_probed(sp, stats);
                    lowest_fpr.offer_probed(sp, stats);
                },
            );
            if let Some(p) = structural_literal(group, s, e, min_support) {
                let literal = Candidate {
                    pattern: p,
                    fpr: 0.0,
                    cov: u64::MAX,
                };
                specific.offer(literal.clone());
                lowest_fpr.offer(literal);
            }
            row[e] = Direct {
                specific: specific.into_best(),
                lowest_fpr: lowest_fpr.into_best(),
            };
        }
    }
    direct
}

/// One DP cell: best achievable score for segment `[s, e)` plus the argmin
/// (`Direct` reads its candidate from the sweep's table).
#[derive(Debug, Clone, Copy)]
enum Cell {
    Infeasible,
    Direct(Score),
    Split(usize, Score),
}

impl Cell {
    fn score(&self) -> Option<Score> {
        match self {
            Cell::Infeasible => None,
            Cell::Direct(s) | Cell::Split(_, s) => Some(*s),
        }
    }
}

/// The Eq. 11 dynamic program over a swept table, for one objective:
/// O(n³) score comparisons, no enumeration and no index access.
fn combine(
    cfg: &FmdvConfig,
    direct: &[Vec<Direct>],
    mode: DpMode,
) -> Result<VerticalSolution, InferError> {
    let agg = |a: f64, b: f64| {
        if cfg.optimistic_vertical {
            a.max(b)
        } else {
            a + b
        }
    };
    let n = direct.len() - 1;
    // dp[s][e] for 0 ≤ s < e ≤ n, bottom-up over widths (Eq. 11).
    let mut dp = vec![vec![Cell::Infeasible; n + 1]; n + 1];
    for width in 1..=n {
        for s in 0..=(n - width) {
            let e = s + width;
            // Option 1: no split — the cell's direct candidate.
            let mut best = match direct[s][e].for_mode(mode) {
                Some(c) => Cell::Direct(Score {
                    spec: c.specificity(),
                    fpr: c.fpr,
                }),
                None => Cell::Infeasible,
            };
            // Option 2: best two-way split (sub-solutions already optimal).
            #[allow(clippy::needless_range_loop)] // t indexes dp twice, as split point
            for t in s + 1..e {
                if let (Some(left), Some(right)) = (dp[s][t].score(), dp[t][e].score()) {
                    let combined = Score {
                        spec: left.spec + right.spec,
                        fpr: agg(left.fpr, right.fpr),
                    };
                    if best
                        .score()
                        .is_none_or(|cur| combined.better_than(&cur, mode))
                    {
                        best = Cell::Split(t, combined);
                    }
                }
            }
            dp[s][e] = best;
        }
    }
    let total = dp[0][n].score().ok_or(InferError::NoFeasible)?;
    let mut segments = Vec::new();
    let mut pending = vec![(0, n)];
    while let Some((s, e)) = pending.pop() {
        match dp[s][e] {
            Cell::Direct(_) => segments.push(
                direct[s][e]
                    .for_mode(mode)
                    .expect("a Direct cell has a direct candidate")
                    .clone(),
            ),
            Cell::Split(t, _) => {
                pending.push((t, e));
                pending.push((s, t));
            }
            Cell::Infeasible => unreachable!("reconstructing an infeasible cell"),
        }
    }
    Ok(VerticalSolution {
        segments,
        total_fpr: total.fpr,
    })
}

/// Solve FMDV-V / the vertical part of FMDV-VH on a column's conforming
/// group.
///
/// `min_support` controls the per-segment hypothesis space: the group's
/// sample size for pure vertical cuts (every value must conform), or the
/// relaxed Eq. 16 floor when combined with horizontal cuts.
///
/// One [`sweep_direct`] streams thousands of candidate segments per cell
/// through [`crate::fmdv::StreamingSelect`]; every probe is one
/// fingerprint-shard lookup against the immutable index snapshot, so the
/// sweep runs untouched by concurrent shard republishes on the serving
/// side. The objectives then differ only in the cheap [`combine`] pass:
/// the min-FPR fallback re-reads the swept table, it does not enumerate or
/// probe again.
pub(crate) fn solve_vertical(
    index: &PatternIndex,
    cfg: &FmdvConfig,
    group: &CoarseGroup,
    min_support: usize,
) -> Result<VerticalSolution, InferError> {
    if group.positions.is_empty() {
        // A column of empty strings: the empty pattern validates it.
        return Ok(VerticalSolution {
            segments: vec![],
            total_fpr: 0.0,
        });
    }
    let direct = sweep_direct(index, cfg, group, min_support);
    // No cover under one objective means none under the other: the cells
    // that hold a candidate are the same.
    let specific = combine(cfg, &direct, DpMode::SpecificFirst)?;
    if specific.total_fpr <= cfg.r {
        return Ok(specific);
    }
    // Specific cover too risky: fall back to pure FPR minimization before
    // declaring infeasibility.
    let safest = combine(cfg, &direct, DpMode::MinFpr)?;
    if safest.total_fpr > cfg.r {
        return Err(InferError::NoFeasible);
    }
    Ok(safest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AutoValidate, Variant};
    use av_corpus::{generate_lake, machine_domains, Column, CompositeDomain, Domain, LakeProfile};
    use av_index::{IndexConfig, PatternIndex};
    use av_pattern::analyze_column;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_index() -> PatternIndex {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(800), 77);
        let cols: Vec<&Column> = corpus.columns().collect();
        PatternIndex::build(&cols, &IndexConfig::default())
    }

    fn composite_column(n: usize, seed: u64) -> Vec<String> {
        // "date-iso|time-24h|epoch" — a Fig. 8-style composite whose atomic
        // sub-domains are popular in the corpus (so the index carries their
        // segment patterns), joined by a separator no atomic column has.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                format!(
                    "{}-{:02}-{:02}|{:02}:{:02}:{:02}|{}",
                    rng.random_range(2010..2030),
                    rng.random_range(1..13),
                    rng.random_range(1..29),
                    rng.random_range(0..24),
                    rng.random_range(0..60),
                    rng.random_range(0..60),
                    rng.random_range(1_400_000_000u64..1_700_000_000),
                )
            })
            .collect()
    }

    fn refs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }

    /// One DP cell of the two-sweep reference.
    #[derive(Debug, Clone)]
    enum TwoSweepCell {
        Infeasible,
        Direct(Candidate, Score),
        Split(usize, Score),
    }

    impl TwoSweepCell {
        fn score(&self) -> Option<Score> {
            match self {
                TwoSweepCell::Infeasible => None,
                TwoSweepCell::Direct(_, s) | TwoSweepCell::Split(_, s) => Some(*s),
            }
        }
    }

    /// Which way a solve ended.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Exit {
        /// The specificity-first cover fits the budget.
        Accepted,
        /// It does not; the min-FPR cover does.
        FellBack,
        /// Covers exist, none within budget.
        OverBudget,
        /// Some position is in no feasible cell.
        NoCover,
    }

    /// The reference [`solve_vertical`] is checked against: the algorithm
    /// as it stood before the sweep was split from the DP — a full
    /// enumerate-and-probe DP per objective, the second one run whenever
    /// the first is over budget *or* infeasible — and before the
    /// enumeration asked the index about prefixes.
    fn two_sweep_solve(
        index: &PatternIndex,
        cfg: &FmdvConfig,
        group: &CoarseGroup,
        min_support: usize,
    ) -> (Result<VerticalSolution, InferError>, Exit) {
        let first = two_sweep_mode(index, cfg, group, min_support, DpMode::SpecificFirst);
        if matches!(&first, Ok(sol) if sol.total_fpr <= cfg.r) {
            return (first, Exit::Accepted);
        }
        match two_sweep_mode(index, cfg, group, min_support, DpMode::MinFpr) {
            Ok(sol) if sol.total_fpr <= cfg.r => (Ok(sol), Exit::FellBack),
            Ok(_) => (Err(InferError::NoFeasible), Exit::OverBudget),
            Err(e) => {
                // What lets the fused solve stop after an infeasible
                // first objective: the second never finds a cover either.
                assert!(first.is_err(), "cover under one objective only");
                (Err(e), Exit::NoCover)
            }
        }
    }

    fn two_sweep_mode(
        index: &PatternIndex,
        cfg: &FmdvConfig,
        group: &CoarseGroup,
        min_support: usize,
        mode: DpMode,
    ) -> Result<VerticalSolution, InferError> {
        let n = group.positions.len();
        if n == 0 {
            return Ok(VerticalSolution {
                segments: vec![],
                total_fpr: 0.0,
            });
        }
        let agg = |a: f64, b: f64| {
            if cfg.optimistic_vertical {
                a.max(b)
            } else {
                a + b
            }
        };
        let mut dp: Vec<Vec<TwoSweepCell>> = vec![vec![TwoSweepCell::Infeasible; n + 1]; n + 1];
        let mut scratch = EnumScratch::default();
        for width in 1..=n {
            for s in 0..=(n - width) {
                let e = s + width;
                let mut best = TwoSweepCell::Infeasible;
                if width <= index.tau {
                    CELLS_ENUMERATED.with(|c| c.set(c.get() + 1));
                    let objective = match mode {
                        DpMode::SpecificFirst => SelectObjective::SpecificFirst,
                        DpMode::MinFpr => SelectObjective::LowestFpr,
                    };
                    let mut sel = StreamingSelect::new(objective, cfg.r, cfg.m);
                    group.for_each_pattern(
                        s,
                        e,
                        min_support,
                        &PatternConfig::default(),
                        &mut scratch,
                        |_, _| true,
                        |sp| sel.offer_probed(sp, probe(index, sp)),
                    );
                    if let Some(p) = structural_literal(group, s, e, min_support) {
                        sel.offer(Candidate {
                            pattern: p,
                            fpr: 0.0,
                            cov: u64::MAX,
                        });
                    }
                    if let Some(c) = sel.into_best() {
                        let score = Score {
                            spec: c.specificity(),
                            fpr: c.fpr,
                        };
                        best = TwoSweepCell::Direct(c, score);
                    }
                }
                #[allow(clippy::needless_range_loop)] // t indexes dp twice, as split point
                for t in s + 1..e {
                    if let (Some(left), Some(right)) = (dp[s][t].score(), dp[t][e].score()) {
                        let combined = Score {
                            spec: left.spec + right.spec,
                            fpr: agg(left.fpr, right.fpr),
                        };
                        if best
                            .score()
                            .is_none_or(|cur| combined.better_than(&cur, mode))
                        {
                            best = TwoSweepCell::Split(t, combined);
                        }
                    }
                }
                dp[s][e] = best;
            }
        }
        let total = dp[0][n].score().ok_or(InferError::NoFeasible)?;
        let mut segments = Vec::new();
        two_sweep_reconstruct(&dp, 0, n, &mut segments);
        Ok(VerticalSolution {
            segments,
            total_fpr: total.fpr,
        })
    }

    fn two_sweep_reconstruct(
        dp: &[Vec<TwoSweepCell>],
        s: usize,
        e: usize,
        out: &mut Vec<Candidate>,
    ) {
        match &dp[s][e] {
            TwoSweepCell::Direct(c, _) => out.push(c.clone()),
            TwoSweepCell::Split(t, _) => {
                two_sweep_reconstruct(dp, s, *t, out);
                two_sweep_reconstruct(dp, *t, e, out);
            }
            TwoSweepCell::Infeasible => unreachable!("reconstructing an infeasible cell"),
        }
    }

    /// Cell enumerations `f` ran on this thread.
    fn cells_enumerated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = CELLS_ENUMERATED.with(|c| c.get());
        let out = f();
        (out, CELLS_ENUMERATED.with(|c| c.get()) - before)
    }

    /// Cells `[s, e)` no wider than the index's τ, Σ_{w ≤ τ}(n − w + 1):
    /// one sweep.
    fn cells_per_sweep(n: usize, index: &PatternIndex) -> usize {
        (1..=n.min(index.tau)).map(|w| n - w + 1).sum()
    }

    /// Everything a rule is made of.
    fn summary(
        r: &Result<VerticalSolution, InferError>,
    ) -> Result<(Pattern, u64, u64, usize), InferError> {
        r.as_ref()
            .map(|sol| {
                (
                    sol.full_pattern(),
                    sol.total_fpr.to_bits(),
                    sol.min_coverage(),
                    sol.segments.len(),
                )
            })
            .map_err(|e| e.clone())
    }

    /// Compare the fused solve with the two-sweep reference on one
    /// column: both support floors, both aggregations, and a budget that
    /// starts at `base.r` and is then tightened to just under whatever
    /// the solve returned — which walks a column from "specific cover
    /// accepted" through "fell back" to "over budget" or "no cover".
    /// Counts in `exits` how often each exit was compared.
    fn compare_on_column(
        index: &PatternIndex,
        base: &FmdvConfig,
        name: &str,
        values: &[String],
        exits: &mut Exits,
    ) {
        let analysis = analyze_column(&refs(values), &PatternConfig::default());
        let Some(group) = analysis.dominant() else {
            return;
        };
        let relaxed = ((1.0 - base.theta) * group.sample_size as f64).ceil() as usize;
        for min_support in [group.sample_size, relaxed] {
            for optimistic_vertical in [false, true] {
                let mut cfg = FmdvConfig {
                    optimistic_vertical,
                    ..base.clone()
                };
                for _ in 0..3 {
                    let fused = solve_vertical(index, &cfg, group, min_support);
                    let (reference, exit) = two_sweep_solve(index, &cfg, group, min_support);
                    assert_eq!(
                        summary(&fused),
                        summary(&reference),
                        "{name}: min_support={min_support} \
                         optimistic={optimistic_vertical} r={}",
                        cfg.r
                    );
                    *exits.entry(exit).or_default() += 1;
                    match fused {
                        Ok(sol) if sol.total_fpr > 0.0 => cfg.r = sol.total_fpr * (1.0 - 1e-9),
                        _ => break,
                    }
                }
            }
        }
    }

    type Exits = std::collections::HashMap<Exit, usize>;

    fn index_and_config() -> (PatternIndex, FmdvConfig) {
        let index = test_index();
        let cfg = FmdvConfig::scaled_for_corpus(index.num_columns);
        (index, cfg)
    }

    /// Fused ≡ two-sweep, bit for bit, on every machine domain.
    #[test]
    fn fused_sweep_matches_the_two_sweep_reference_on_every_domain() {
        let (index, base) = index_and_config();
        let mut rng = StdRng::seed_from_u64(13);
        let mut exits = Exits::new();
        for d in machine_domains() {
            let values: Vec<String> = (0..20).map(|_| d.sample(&mut rng)).collect();
            compare_on_column(&index, &base, d.name(), &values, &mut exits);
        }
        assert!(exits.contains_key(&Exit::Accepted), "{exits:?}");
        assert!(exits.contains_key(&Exit::NoCover), "{exits:?}");
    }

    /// Fused ≡ two-sweep, bit for bit, on generated 2-, 3- and 4-way
    /// composites over four separators — the columns wide enough that the
    /// specific cover busts the budget — and every exit of the solve is
    /// among the cases compared.
    #[test]
    fn fused_sweep_matches_the_two_sweep_reference_on_composites() {
        let (index, base) = index_and_config();
        let domains = machine_domains();
        let mut rng = StdRng::seed_from_u64(17);
        let mut exits = Exits::new();
        for (i, sep) in ["|", ",", ";", " "].into_iter().enumerate() {
            for arity in 2..=4 {
                let parts: Vec<_> = (0..arity)
                    .map(|k| domains[(7 * i + 11 * arity + 5 * k) % domains.len()].clone())
                    .collect();
                let comp = CompositeDomain::new(format!("{arity}-way {sep:?}"), parts, sep);
                let values: Vec<String> = (0..20).map(|_| comp.sample(&mut rng)).collect();
                compare_on_column(&index, &base, comp.name(), &values, &mut exits);
            }
        }
        for exit in [
            Exit::Accepted,
            Exit::FellBack,
            Exit::OverBudget,
            Exit::NoCover,
        ] {
            assert!(
                exits.contains_key(&exit),
                "never compared {exit:?}: {exits:?}"
            );
        }
    }

    /// A budget the specific cover busts costs one sweep, not two: the
    /// fallback objective re-reads the table.
    #[test]
    fn over_budget_fallback_does_not_sweep_again() {
        let (index, mut cfg) = index_and_config();
        let train = composite_column(60, 5);
        let analysis = analyze_column(&refs(&train), &PatternConfig::default());
        let group = &analysis.groups[0];
        let n = group.positions.len();
        // Tighten `r` to just under the specific cover's aggregate FPR.
        let specific = solve_vertical(&index, &cfg, group, group.sample_size).unwrap();
        assert!(specific.total_fpr > 0.0, "specific cover carries no risk");
        cfg.r = specific.total_fpr / 2.0;

        let (fused, cells) =
            cells_enumerated_by(|| solve_vertical(&index, &cfg, group, group.sample_size));
        assert_eq!(cells, cells_per_sweep(n, &index), "exactly one sweep");
        // The reference pays for the second objective with a second sweep.
        let ((reference, exit), cells) =
            cells_enumerated_by(|| two_sweep_solve(&index, &cfg, group, group.sample_size));
        assert_eq!(cells, 2 * cells_per_sweep(n, &index));
        assert_ne!(exit, Exit::Accepted);
        assert_eq!(summary(&fused), summary(&reference));
        if let Ok(sol) = &fused {
            assert!(sol.total_fpr <= cfg.r);
        }
    }

    /// With no cover under one objective there is none under the other:
    /// the solve says so after its one sweep instead of trying again —
    /// and a sweep stops at the τ of the index it probes, whatever that
    /// is (8 here, not the default 13).
    #[test]
    fn infeasible_column_fails_after_one_sweep() {
        // An index that has never seen a column covers no segment; only
        // the separators (structural literals) are feasible cells.
        let index = PatternIndex::build(&[], &IndexConfig::with_tau(8));
        let cfg = FmdvConfig::scaled_for_corpus(index.num_columns);
        let train = composite_column(60, 5);
        let analysis = analyze_column(&refs(&train), &PatternConfig::default());
        let group = &analysis.groups[0];
        let n = group.positions.len();
        assert!(n > index.tau, "the cap binds: a default τ would sweep more");
        let (result, cells) =
            cells_enumerated_by(|| solve_vertical(&index, &cfg, group, group.sample_size));
        assert_eq!(result.err(), Some(InferError::NoFeasible));
        assert_eq!(cells, cells_per_sweep(n, &index), "exactly one sweep");
    }

    /// The census of the prefix pruning, on the `latency` bench's
    /// 12-position clock column over its tiny-1500 index: an FMDV-VH
    /// inference sweeps the same cells and finds every index hit it found
    /// while enumerating everything, at an eighth of the emissions or less.
    #[test]
    fn prefix_pruning_cuts_a_timestamp_sweep_eightfold() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(1500), 7);
        let cols: Vec<&Column> = corpus.columns().collect();
        let index = PatternIndex::build(&cols, &IndexConfig::default());
        let engine = engine(&index);
        let train: Vec<String> = (0..20)
            .map(|i| {
                format!(
                    "2026-{:02}-{:02}T{:02}:{:02}:{:02}Z",
                    (i % 12) + 1,
                    (i * 5 % 28) + 1,
                    (i * 11) % 24,
                    (i * 7) % 60,
                    (i * 13) % 60
                )
            })
            .collect();
        let census = |keep_every_prefix: bool| {
            crate::fmdv::KEEP_EVERY_PREFIX.with(|keep| keep.set(keep_every_prefix));
            EMISSIONS.with(|n| n.set((0, 0)));
            let (rule, cells) = cells_enumerated_by(|| engine.infer(&train, Variant::FmdvVH));
            crate::fmdv::KEEP_EVERY_PREFIX.with(|keep| keep.set(false));
            let rule = rule.map(|r| (r.pattern().to_string(), r.expected_fpr.to_bits()));
            (rule, cells, EMISSIONS.with(std::cell::Cell::get))
        };
        let (full_rule, full_cells, (full_emitted, full_hits)) = census(true);
        let (rule, cells, (emitted, hits)) = census(false);
        eprintln!(
            "timestamp-12 over tiny-1500: {cells} cells, {full_emitted} → {emitted} emissions \
             for {hits} hits ({} prefix keys held)",
            index
                .shards()
                .iter()
                .map(|s| s.prefix_keys().len())
                .sum::<usize>()
        );
        assert!(full_rule.is_ok(), "the clock column has a rule");
        assert_eq!(rule, full_rule);
        assert_eq!((cells, hits), (full_cells, full_hits));
        assert!(
            8 * emitted <= full_emitted,
            "{full_emitted} → {emitted} emissions"
        );
    }

    fn engine(index: &PatternIndex) -> AutoValidate<'_> {
        AutoValidate::new(index, FmdvConfig::scaled_for_corpus(index.num_columns))
    }

    #[test]
    fn vertical_cut_handles_wide_composite_columns() {
        let index = test_index();
        let engine = engine(&index);
        let train = composite_column(60, 5);
        // The composite column is ~19 tokens wide — too wide for any single
        // indexed pattern — yet the DP must find a feasible segmentation.
        assert_eq!(
            engine.infer(&train, Variant::Fmdv).err(),
            Some(InferError::NoFeasible),
            "a rule for this column has to cut it"
        );
        let rule = engine
            .infer(&train, Variant::FmdvV)
            .expect("vertical cut should find a solution");
        for v in &train {
            assert!(rule.conforms(v), "{} !~ {v}", rule.pattern());
        }
        assert!(rule.expected_fpr <= engine.config.r);
    }

    #[test]
    fn heterogeneous_column_is_rejected() {
        let index = test_index();
        assert_eq!(
            engine(&index)
                .infer(["123", "abc-def"], Variant::FmdvV)
                .err(),
            Some(InferError::NoHypothesis)
        );
    }

    #[test]
    fn empty_train_is_rejected() {
        let index = test_index();
        assert_eq!(
            engine(&index).infer([""; 0], Variant::FmdvV).err(),
            Some(InferError::EmptyColumn)
        );
    }

    #[test]
    fn solution_reports_min_coverage() {
        let index = test_index();
        let engine = engine(&index);
        if let Ok(rule) = engine.infer(composite_column(40, 9), Variant::FmdvV) {
            assert!(rule.coverage >= engine.config.m);
        }
    }

    #[test]
    fn optimistic_aggregation_also_solves() {
        // The optimistic (`max`) aggregation is an ablation; both modes
        // must produce budget-respecting solutions on the same column
        // (their chosen segmentations may legitimately differ).
        let index = test_index();
        let pess = engine(&index);
        let mut opt = engine(&index);
        opt.config.optimistic_vertical = true;
        let train = composite_column(40, 11);
        let a = pess
            .infer(&train, Variant::FmdvV)
            .expect("pessimistic solves");
        let b = opt
            .infer(&train, Variant::FmdvV)
            .expect("optimistic solves");
        assert!(a.expected_fpr <= pess.config.r);
        assert!(b.expected_fpr <= opt.config.r);
        for v in &train {
            assert!(a.conforms(v));
            assert!(b.conforms(v));
        }
    }
}
