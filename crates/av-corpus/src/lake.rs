//! Synthetic data-lake generation: the stand-in for the paper's enterprise
//! corpus `T_E` (Microsoft production pipelines) and government corpus
//! `T_G` (NationalArchives crawl).
//!
//! The generator reproduces the *statistical structure* the algorithms
//! depend on rather than any particular byte content: domain popularity is
//! Zipf-distributed (thousands of columns share popular domains, a long
//! tail does not), ~33% of columns are natural language, ~12% are impure
//! mixtures (the paper measured 87.9% homogeneity), some columns are
//! composites of atomic domains (§3), and some carry ad-hoc non-conforming
//! values like `"-"` or `"NULL"` (§4, Fig. 9).

use crate::column::{Column, ColumnKind, ColumnMeta, Corpus, Table};
use crate::domain::Domain;
use crate::domains::{machine_domains, natural_language_domains, CompositeDomain};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Ad-hoc special values observed in real pipelines (Fig. 9).
pub(crate) const SPECIAL_VALUES: &[&str] = &["-", "", "NULL", "N/A", "?", "(null)", "none"];

/// Shape parameters of a synthetic lake.
#[derive(Debug, Clone)]
pub struct LakeProfile {
    /// Profile name ("enterprise" / "government" / custom).
    pub name: String,
    /// Total number of columns to generate.
    pub num_columns: usize,
    /// Columns per table, inclusive range.
    pub columns_per_table: (usize, usize),
    /// Values per table (rows), inclusive range.
    pub rows: (usize, usize),
    /// Fraction of natural-language columns (paper: ~33%).
    pub nl_fraction: f64,
    /// Fraction of impure two-domain columns (paper: ~12% non-homogeneous).
    pub impure_fraction: f64,
    /// Fraction of composite concatenated columns (§3).
    pub composite_fraction: f64,
    /// Fraction of machine columns carrying ad-hoc special values (§4).
    pub dirty_fraction: f64,
    /// Within a dirty column, the rate of non-conforming values.
    pub dirty_value_rate: f64,
    /// Per-value probability of manual-editing noise (government profile):
    /// stray whitespace, case flips, character drops.
    pub text_noise_rate: f64,
    /// Zipf exponent for domain popularity.
    pub zipf_s: f64,
    /// Fraction of tables that carry a functionally-dependent column pair
    /// (exercises the FD-UB baseline).
    pub fd_pair_fraction: f64,
}

impl LakeProfile {
    /// The enterprise-lake profile `T_E`: larger, cleaner, bigger columns.
    pub fn enterprise() -> LakeProfile {
        LakeProfile {
            name: "enterprise".into(),
            num_columns: 20_000,
            columns_per_table: (3, 10),
            rows: (50, 400),
            nl_fraction: 0.33,
            impure_fraction: 0.08,
            composite_fraction: 0.06,
            dirty_fraction: 0.12,
            dirty_value_rate: 0.05,
            text_noise_rate: 0.0,
            zipf_s: 1.07,
            fd_pair_fraction: 0.35,
        }
    }

    /// The government-lake profile `T_G`: smaller corpus, shorter columns,
    /// dirtier (manually edited CSV) data.
    pub fn government() -> LakeProfile {
        LakeProfile {
            name: "government".into(),
            num_columns: 5_000,
            columns_per_table: (3, 8),
            rows: (20, 120),
            nl_fraction: 0.33,
            impure_fraction: 0.15,
            composite_fraction: 0.04,
            dirty_fraction: 0.15,
            dirty_value_rate: 0.08,
            text_noise_rate: 0.02,
            zipf_s: 1.05,
            fd_pair_fraction: 0.08,
        }
    }

    /// A tiny profile for unit tests (hundreds of columns).
    pub fn tiny() -> LakeProfile {
        LakeProfile {
            name: "tiny".into(),
            num_columns: 300,
            columns_per_table: (2, 5),
            rows: (20, 60),
            nl_fraction: 0.3,
            impure_fraction: 0.1,
            composite_fraction: 0.05,
            dirty_fraction: 0.1,
            dirty_value_rate: 0.03,
            text_noise_rate: 0.0,
            zipf_s: 1.0,
            fd_pair_fraction: 0.1,
        }
    }

    /// Copy of the profile scaled to `num_columns` columns.
    pub fn scaled(&self, num_columns: usize) -> LakeProfile {
        LakeProfile {
            num_columns,
            ..self.clone()
        }
    }
}

/// Zipf sampler over `n` ranks with exponent `s`.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.random_range(0.0..total);
        self.cumulative.partition_point(|&c| c < x)
    }
}

/// Apply government-style manual-editing noise to one value.
fn apply_text_noise(v: &str, rng: &mut StdRng) -> String {
    match rng.random_range(0..4u8) {
        0 => format!(" {v}"),
        1 => format!("{v} "),
        2 => {
            // Flip the case of one letter, if any.
            let mut chars: Vec<char> = v.chars().collect();
            let letters: Vec<usize> = chars
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_ascii_alphabetic())
                .map(|(i, _)| i)
                .collect();
            if let Some(&i) = letters.get(
                rng.random_range(0..letters.len().max(1))
                    .min(letters.len().saturating_sub(1)),
            ) {
                chars[i] = if chars[i].is_ascii_uppercase() {
                    chars[i].to_ascii_lowercase()
                } else {
                    chars[i].to_ascii_uppercase()
                };
            }
            chars.into_iter().collect()
        }
        _ => {
            // Drop the last character.
            let mut s = v.to_string();
            s.pop();
            s
        }
    }
}

/// Sample `n` values from a domain with value reuse: real lake columns
/// repeat values heavily (the paper's Table 1: ~1543 distinct out of ~8945
/// values per column, a ratio of ~0.17, from keys repeated by joins and
/// denormalization). `distinct_ratio` controls the expected distinct/total
/// ratio of the generated column.
fn sample_with_repeats(
    domain: &dyn Domain,
    n: usize,
    distinct_ratio: f64,
    rng: &mut StdRng,
) -> Vec<String> {
    let ratio = distinct_ratio.clamp(0.01, 1.0);
    if domain.drifts() {
        // Drifting feeds repeat *recent* values (today's dates, current
        // build numbers) while the distribution slides forward in time.
        let mut recent: Vec<String> = Vec::with_capacity(24);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if !recent.is_empty() && !rng.random_bool(ratio) {
                out.push(recent[rng.random_range(0..recent.len())].clone());
            } else {
                let t = i as f64 / n.max(1) as f64;
                let v = domain.sample_at(rng, t);
                if recent.len() >= 24 {
                    let slot = rng.random_range(0..recent.len());
                    recent[slot] = v.clone();
                } else {
                    recent.push(v.clone());
                }
                out.push(v);
            }
        }
        return out;
    }
    // Stationary: fix the column's value pool first (the snapshot of a
    // feed has a fixed active-key set), then draw rows uniformly from it.
    let k = ((ratio * n as f64).ceil() as usize).clamp(1, n.max(1));
    let pool: Vec<String> = (0..k).map(|_| domain.sample(rng)).collect();
    (0..n)
        .map(|_| pool[rng.random_range(0..pool.len())].clone())
        .collect()
}

/// Draw a column's target distinct/total ratio: log-uniform in [0.03, 1.0],
/// geometric mean ≈ 0.18 — matching the paper's Table 1 shape.
fn draw_distinct_ratio(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.random_range(0.0..1.5);
    10f64.powf(-u)
}

/// Deterministic region for a country code (the FD group generator).
fn region_for(country: &str) -> &'static str {
    match country {
        "US" | "CA" | "BR" => "Americas",
        "UK" | "DE" | "FR" | "NL" => "Europe",
        "JP" | "IN" => "Asia",
        "AU" => "Oceania",
        _ => "Other",
    }
}

/// Deterministic currency for a country code (the FD pair generator).
fn currency_for(country: &str) -> &'static str {
    match country {
        "US" => "USD",
        "UK" => "GBP",
        "DE" | "FR" | "NL" => "EUR",
        "JP" => "JPY",
        "BR" => "BRL",
        "IN" => "INR",
        "CA" => "CAD",
        "AU" => "AUD",
        _ => "USD",
    }
}

/// Generate a corpus according to `profile`, deterministically from `seed`.
pub fn generate_lake(profile: &LakeProfile, seed: u64) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let machines = machine_domains();
    let nls = natural_language_domains();
    let zipf = Zipf::new(machines.len(), profile.zipf_s);
    let seps: [&'static str; 4] = ["|", " ", ";", ","];
    let countries: [&str; 10] = ["US", "UK", "DE", "JP", "FR", "BR", "IN", "CA", "AU", "NL"];

    let mut tables: Vec<Table> = Vec::new();
    let mut columns_made = 0usize;
    let mut table_idx = 0usize;
    while columns_made < profile.num_columns {
        let cols_here = rng
            .random_range(profile.columns_per_table.0..=profile.columns_per_table.1)
            .min(profile.num_columns - columns_made)
            .max(1);
        let n_rows = rng.random_range(profile.rows.0..=profile.rows.1);
        let mut columns: Vec<Column> = Vec::with_capacity(cols_here);

        // Optionally lead with a functionally-dependent column group
        // (country → currency, country → region) for the FD-UB baseline.
        let fd_pair = cols_here >= 3 && rng.random_bool(profile.fd_pair_fraction);
        if fd_pair {
            let mut country_vals = Vec::with_capacity(n_rows);
            let mut currency_vals = Vec::with_capacity(n_rows);
            let mut region_vals = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let c = countries[rng.random_range(0..countries.len())];
                country_vals.push(c.to_string());
                currency_vals.push(currency_for(c).to_string());
                region_vals.push(region_for(c).to_string());
            }
            columns.push(Column {
                name: format!("t{table_idx}_country"),
                values: country_vals,
                meta: ColumnMeta::machine(
                    "country-code",
                    Some(av_pattern::Pattern::new(vec![av_pattern::Token::Upper(2)])),
                ),
            });
            columns.push(Column {
                name: format!("t{table_idx}_currency"),
                values: currency_vals,
                meta: ColumnMeta::machine(
                    "currency-code",
                    Some(av_pattern::Pattern::new(vec![av_pattern::Token::Upper(3)])),
                ),
            });
            columns.push(Column {
                name: format!("t{table_idx}_region"),
                values: region_vals,
                meta: ColumnMeta {
                    domain: Some("region-name".to_string()),
                    ground_truth: None,
                    kind: ColumnKind::NaturalLanguage,
                    dirty_rate: 0.0,
                },
            });
        }

        while columns.len() < cols_here {
            let ci = columns.len();
            let name = format!("t{table_idx}_c{ci}");
            let roll: f64 = rng.random();
            let column = if roll < profile.nl_fraction {
                let d = &nls[rng.random_range(0..nls.len())];
                make_column(
                    name,
                    d.as_ref(),
                    n_rows,
                    &mut rng,
                    ColumnKind::NaturalLanguage,
                )
            } else if roll < profile.nl_fraction + profile.impure_fraction {
                // Two domains mixed. Production impurity is mostly light
                // contamination — the paper's Example 5 sees impure columns
                // at ~1% impurity ("en-us" creeping into "en-US" columns) —
                // with occasional heavy mixtures from schema accidents.
                let a = &machines[zipf.sample(&mut rng)];
                let b = &machines[zipf.sample(&mut rng)];
                let major = if rng.random_bool(0.1) {
                    rng.random_range(0.6..0.9)
                } else {
                    rng.random_range(0.90..0.98)
                };
                let ratio = draw_distinct_ratio(&mut rng);
                let major_values = sample_with_repeats(a.as_ref(), n_rows, ratio, &mut rng);
                let mut values = Vec::with_capacity(n_rows);
                for v in major_values {
                    if rng.random_bool(major) {
                        values.push(v);
                    } else {
                        values.push(b.sample(&mut rng));
                    }
                }
                Column {
                    name,
                    values,
                    meta: ColumnMeta {
                        domain: Some(format!("{}+{}", a.name(), b.name())),
                        ground_truth: None,
                        kind: ColumnKind::Impure,
                        dirty_rate: 0.0,
                    },
                }
            } else if roll
                < profile.nl_fraction + profile.impure_fraction + profile.composite_fraction
            {
                let k = rng.random_range(2..=4);
                let parts: Vec<Arc<dyn Domain>> = (0..k)
                    .map(|_| machines[zipf.sample(&mut rng)].clone())
                    .collect();
                let sep = seps[rng.random_range(0..seps.len())];
                let comp_name = parts.iter().map(|d| d.name()).collect::<Vec<_>>().join("~");
                let comp = CompositeDomain::new(comp_name, parts, sep);
                let mut col = make_column(name, &comp, n_rows, &mut rng, ColumnKind::Composite);
                col.meta.ground_truth = comp.ground_truth();
                col
            } else {
                let d = &machines[zipf.sample(&mut rng)];
                let mut col = make_column(name, d.as_ref(), n_rows, &mut rng, ColumnKind::Machine);
                col.meta.ground_truth = d.ground_truth();
                // Ad-hoc special values (§4).
                if rng.random_bool(profile.dirty_fraction) {
                    let mut dirty = 0usize;
                    let len = col.values.len();
                    for v in col.values.iter_mut() {
                        if rng.random_bool(profile.dirty_value_rate) {
                            *v = SPECIAL_VALUES[rng.random_range(0..SPECIAL_VALUES.len())]
                                .to_string();
                            dirty += 1;
                        }
                    }
                    col.meta.dirty_rate = dirty as f64 / len.max(1) as f64;
                }
                col
            };
            columns.push(column);
        }

        // Government-style manual-editing noise, applied across the board.
        if profile.text_noise_rate > 0.0 {
            for col in columns.iter_mut() {
                for v in col.values.iter_mut() {
                    if rng.random_bool(profile.text_noise_rate) {
                        *v = apply_text_noise(v, &mut rng);
                    }
                }
            }
        }

        columns_made += columns.len();
        tables.push(Table {
            name: format!("table_{table_idx}"),
            columns,
        });
        table_idx += 1;
    }
    Corpus { tables }
}

fn make_column(
    name: String,
    domain: &dyn Domain,
    n_rows: usize,
    rng: &mut StdRng,
    kind: ColumnKind,
) -> Column {
    let ratio = draw_distinct_ratio(rng);
    let values = sample_with_repeats(domain, n_rows, ratio, rng);
    Column {
        name,
        values,
        meta: ColumnMeta {
            domain: Some(domain.name().to_string()),
            ground_truth: None,
            kind,
            dirty_rate: 0.0,
        },
    }
}

/// Sample `n` benchmark columns uniformly from the corpus (the paper's
/// `B_E`/`B_G`), preferring columns with at least `min_values` values.
pub(crate) fn sample_columns(
    corpus: &Corpus,
    n: usize,
    min_values: usize,
    seed: u64,
) -> Vec<&Column> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut eligible: Vec<&Column> = corpus.columns().filter(|c| c.len() >= min_values).collect();
    eligible.shuffle(&mut rng);
    eligible.truncate(n);
    eligible
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_lake_has_requested_shape() {
        let profile = LakeProfile::tiny();
        let corpus = generate_lake(&profile, 1);
        assert!(corpus.num_columns() >= profile.num_columns);
        assert!(corpus.num_columns() < profile.num_columns + 12);
        for t in &corpus.tables {
            let rows = t.columns[0].len();
            assert!(t.columns.iter().all(|c| c.len() == rows), "aligned rows");
        }
    }

    #[test]
    fn lake_is_deterministic() {
        let profile = LakeProfile::tiny();
        let a = generate_lake(&profile, 7);
        let b = generate_lake(&profile, 7);
        assert_eq!(a.num_columns(), b.num_columns());
        let va: Vec<&String> = a.columns().flat_map(|c| c.values.iter()).collect();
        let vb: Vec<&String> = b.columns().flat_map(|c| c.values.iter()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn kind_fractions_are_roughly_respected() {
        let profile = LakeProfile::tiny().scaled(2000);
        let corpus = generate_lake(&profile, 3);
        let total = corpus.num_columns() as f64;
        let nl = corpus
            .columns()
            .filter(|c| c.meta.kind == ColumnKind::NaturalLanguage)
            .count() as f64;
        let impure = corpus
            .columns()
            .filter(|c| c.meta.kind == ColumnKind::Impure)
            .count() as f64;
        assert!(
            (nl / total - profile.nl_fraction).abs() < 0.06,
            "nl {}",
            nl / total
        );
        assert!(
            (impure / total - profile.impure_fraction).abs() < 0.05,
            "impure {}",
            impure / total
        );
    }

    #[test]
    fn machine_columns_conform_to_ground_truth() {
        let corpus = generate_lake(&LakeProfile::tiny(), 11);
        let mut checked = 0;
        for col in corpus.columns() {
            if col.meta.kind == ColumnKind::Machine && col.meta.dirty_rate == 0.0 {
                if let Some(gt) = &col.meta.ground_truth {
                    for v in &col.values {
                        assert!(av_pattern::matches(gt, v), "{}: {gt} !~ {v:?}", col.name);
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 50, "checked only {checked} columns");
    }

    #[test]
    fn dirty_columns_carry_special_values() {
        let mut profile = LakeProfile::tiny().scaled(1500);
        profile.dirty_fraction = 0.5;
        profile.dirty_value_rate = 0.05;
        let corpus = generate_lake(&profile, 5);
        let dirty_cols = corpus.columns().filter(|c| c.meta.dirty_rate > 0.0).count();
        assert!(dirty_cols > 50, "found {dirty_cols} dirty columns");
    }

    #[test]
    fn fd_pairs_are_functional() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(1000), 13);
        let mut pairs = 0;
        for t in &corpus.tables {
            let country = t.columns.iter().find(|c| c.name.ends_with("_country"));
            let currency = t.columns.iter().find(|c| c.name.ends_with("_currency"));
            if let (Some(a), Some(b)) = (country, currency) {
                pairs += 1;
                for (x, y) in a.values.iter().zip(&b.values) {
                    assert_eq!(currency_for(x), y.as_str());
                }
            }
        }
        assert!(pairs > 5, "found {pairs} FD pairs");
    }

    #[test]
    fn sample_columns_is_stable_and_bounded() {
        let corpus = generate_lake(&LakeProfile::tiny(), 17);
        let a = sample_columns(&corpus, 50, 20, 99);
        let b = sample_columns(&corpus, 50, 20, 99);
        assert_eq!(a.len(), 50);
        let names_a: Vec<&str> = a.iter().map(|c| c.name.as_str()).collect();
        let names_b: Vec<&str> = b.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names_a, names_b);
        assert!(a.iter().all(|c| c.len() >= 20));
    }

    #[test]
    fn government_profile_is_noisier_than_enterprise() {
        let e = LakeProfile::enterprise();
        let g = LakeProfile::government();
        assert!(g.text_noise_rate > e.text_noise_rate);
        assert!(g.dirty_fraction > e.dirty_fraction);
        assert!(g.rows.1 < e.rows.1);
    }
}
