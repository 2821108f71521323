//! Synthetic data domains: the generators standing in for the proprietary
//! formats of the paper's enterprise data lake (Fig. 3).
//!
//! A [`SpecDomain`] is assembled from [`Part`]s; each part knows how to
//! sample a fragment and which pattern token(s) describe its full value
//! space, so every domain carries a derived **ground-truth validation
//! pattern** — the label the paper's authors hand-curated for Table 2.

use av_pattern::{Pattern, Token};
use rand::rngs::StdRng;
use rand::Rng;

/// A data domain: a named distribution over strings with (usually) a
/// ground-truth validation pattern.
pub trait Domain: Send + Sync {
    /// Stable domain name (used as provenance / recall labels).
    fn name(&self) -> &str;
    /// Draw one value.
    fn sample(&self, rng: &mut StdRng) -> String;
    /// The ideal validation pattern for the domain's full value space, if
    /// the domain is pattern-representable (`None` for natural language).
    fn ground_truth(&self) -> Option<Pattern>;
    /// Machine-generated (true) or natural-language-like (false)?
    fn machine_generated(&self) -> bool {
        true
    }
    /// Draw one value at relative time `t ∈ [0, 1]` within a recurring
    /// feed. Temporally-drifting domains (dates, epochs, versions) restrict
    /// the drifting component to a window around `t` — this is what makes
    /// "training on March, validating on April" (the paper's §1 example)
    /// punish over-restrictive rules. Stationary domains ignore `t`.
    fn sample_at(&self, rng: &mut StdRng, _t: f64) -> String {
        self.sample(rng)
    }
    /// Does this domain drift over time?
    fn drifts(&self) -> bool {
        false
    }
}

/// One building block of a [`SpecDomain`].
#[derive(Debug, Clone)]
pub(crate) enum Part {
    /// A constant fragment, e.g. a delimiter or a fixed prefix.
    Const(&'static str),
    /// Zero-padded fixed-width integer in `[lo, hi]`, e.g. "07".
    Padded {
        /// Rendered width.
        width: u16,
        /// Minimum value.
        lo: u64,
        /// Maximum value (must fit the width).
        hi: u64,
    },
    /// Variable-width integer in `[lo, hi]`, rendered without padding.
    Int {
        /// Minimum value.
        lo: u64,
        /// Maximum value.
        hi: u64,
    },
    /// Uniform choice from a fixed vocabulary of pure-letter words.
    Choice(&'static [&'static str]),
    /// `width` random lowercase hex characters (letters and digits mix).
    HexLower(u16),
    /// `width` random uppercase hex characters.
    HexUpper(u16),
    /// Fixed-width uppercase letters.
    UpperFixed(u16),
    /// Fixed-width lowercase letters.
    LowerFixed(u16),
    /// Variable-width lowercase letters in `[lo, hi]` chars.
    LowerVar(u16, u16),
    /// Variable-width alphanumeric (lowercase letters + digits, always at
    /// least one of each class mixed) in `[lo, hi]` chars.
    AlnumVar(u16, u16),
    /// Fixed-width random digits (leading zeros allowed), e.g. ids.
    DigitsFixed(u16),
    /// Variable-width digit strings with `[lo, hi]` digits.
    DigitsVar(u16, u16),
    /// Decimal number: integer part in `[0, int_hi]`, exactly `frac` digits.
    Float {
        /// Maximum integer part.
        int_hi: u64,
        /// Fractional digits.
        frac: u16,
    },
}

impl Part {
    fn sample_into(&self, rng: &mut StdRng, out: &mut String) {
        match self {
            Part::Const(s) => out.push_str(s),
            Part::Padded { width, lo, hi } => {
                let v = rng.random_range(*lo..=*hi);
                let s = format!("{:0width$}", v, width = *width as usize);
                out.push_str(&s);
            }
            Part::Int { lo, hi } => {
                let v = rng.random_range(*lo..=*hi);
                out.push_str(&v.to_string());
            }
            Part::Choice(words) => {
                let w = words[rng.random_range(0..words.len())];
                out.push_str(w);
            }
            Part::HexLower(w) => {
                const H: &[u8] = b"0123456789abcdef";
                for _ in 0..*w {
                    out.push(H[rng.random_range(0..16)] as char);
                }
            }
            Part::HexUpper(w) => {
                const H: &[u8] = b"0123456789ABCDEF";
                for _ in 0..*w {
                    out.push(H[rng.random_range(0..16)] as char);
                }
            }
            Part::UpperFixed(w) => {
                for _ in 0..*w {
                    out.push((b'A' + rng.random_range(0..26u8)) as char);
                }
            }
            Part::LowerFixed(w) => {
                for _ in 0..*w {
                    out.push((b'a' + rng.random_range(0..26u8)) as char);
                }
            }
            Part::LowerVar(lo, hi) => {
                let w = rng.random_range(*lo..=*hi);
                for _ in 0..w {
                    out.push((b'a' + rng.random_range(0..26u8)) as char);
                }
            }
            Part::AlnumVar(lo, hi) => {
                const A: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
                let w = rng.random_range(*lo..=*hi).max(2);
                // Guarantee a class mix so the segment is genuinely alnum.
                let digit_at = rng.random_range(0..w);
                let letter_at = (digit_at + 1 + rng.random_range(0..w.max(2) - 1)) % w;
                for i in 0..w {
                    if i == digit_at {
                        out.push((b'0' + rng.random_range(0..10u8)) as char);
                    } else if i == letter_at {
                        out.push((b'a' + rng.random_range(0..26u8)) as char);
                    } else {
                        out.push(A[rng.random_range(0..A.len())] as char);
                    }
                }
            }
            Part::DigitsFixed(w) => {
                for _ in 0..*w {
                    out.push((b'0' + rng.random_range(0..10u8)) as char);
                }
            }
            Part::DigitsVar(lo, hi) => {
                let w = rng.random_range(*lo..=*hi);
                // No leading zero so width genuinely varies.
                out.push((b'1' + rng.random_range(0..9u8)) as char);
                for _ in 1..w {
                    out.push((b'0' + rng.random_range(0..10u8)) as char);
                }
            }
            Part::Float { int_hi, frac } => {
                let v = rng.random_range(0..=*int_hi);
                out.push_str(&v.to_string());
                out.push('.');
                for _ in 0..*frac {
                    out.push((b'0' + rng.random_range(0..10u8)) as char);
                }
            }
        }
    }

    /// Ground-truth tokens for this part's full value space, consistent with
    /// how `av-pattern` analyzes the generated values.
    fn ground_truth_tokens(&self) -> Vec<Token> {
        match self {
            Part::Const(s) => vec![Token::lit(*s)],
            Part::Padded { width, .. } => vec![Token::Digit(*width)],
            Part::Int { lo, hi } => {
                let dl = digits(*lo);
                let dh = digits(*hi);
                if dl == dh {
                    vec![Token::Digit(dl)]
                } else {
                    vec![Token::DigitPlus]
                }
            }
            Part::Choice(words) => {
                let first = words.first().expect("non-empty vocabulary");
                let same_width = words
                    .iter()
                    .all(|w| w.chars().count() == first.chars().count());
                let all_upper = words
                    .iter()
                    .all(|w| w.chars().all(|c| c.is_ascii_uppercase()));
                let all_lower = words
                    .iter()
                    .all(|w| w.chars().all(|c| c.is_ascii_lowercase()));
                let w = first.chars().count() as u16;
                vec![match (same_width, all_upper, all_lower) {
                    (true, true, _) => Token::Upper(w),
                    (true, _, true) => Token::Lower(w),
                    (true, false, false) => Token::Letter(w),
                    (false, true, _) => Token::UpperPlus,
                    (false, _, true) => Token::LowerPlus,
                    (false, false, false) => Token::LetterPlus,
                }]
            }
            Part::HexLower(w) | Part::HexUpper(w) => vec![Token::Alnum(*w)],
            Part::UpperFixed(w) => vec![Token::Upper(*w)],
            Part::LowerFixed(w) => vec![Token::Lower(*w)],
            Part::LowerVar(..) => vec![Token::LowerPlus],
            Part::AlnumVar(lo, hi) => {
                if lo == hi {
                    vec![Token::Alnum(*lo)]
                } else {
                    vec![Token::AlnumPlus]
                }
            }
            Part::DigitsFixed(w) => vec![Token::Digit(*w)],
            Part::DigitsVar(lo, hi) => {
                if lo == hi {
                    vec![Token::Digit(*lo)]
                } else {
                    vec![Token::DigitPlus]
                }
            }
            Part::Float { int_hi, frac } => {
                let mut toks = vec![];
                if digits(0) == digits(*int_hi) {
                    toks.push(Token::Digit(1));
                } else {
                    toks.push(Token::DigitPlus);
                }
                toks.push(Token::lit("."));
                toks.push(Token::Digit(*frac));
                toks
            }
        }
    }
}

fn digits(mut v: u64) -> u16 {
    let mut d = 1;
    while v >= 10 {
        v /= 10;
        d += 1;
    }
    d
}

/// A domain assembled from [`Part`]s.
#[derive(Debug, Clone)]
pub(crate) struct SpecDomain {
    name: String,
    parts: Vec<Part>,
    /// Index of the part that drifts over time, if any.
    drift_part: Option<usize>,
}

impl SpecDomain {
    /// Build a domain from parts.
    pub fn new(name: impl Into<String>, parts: Vec<Part>) -> SpecDomain {
        SpecDomain {
            name: name.into(),
            parts,
            drift_part: None,
        }
    }

    /// Mark part `i` as temporally drifting (must be `Int`, `Padded` or
    /// `Choice` — the orderable parts).
    pub(crate) fn with_drift(mut self, i: usize) -> SpecDomain {
        debug_assert!(matches!(
            self.parts.get(i),
            Some(Part::Int { .. } | Part::Padded { .. } | Part::Choice(_))
        ));
        self.drift_part = Some(i);
        self
    }

    /// Sample one part, restricting a drifting part to a window around `t`.
    fn sample_part(&self, i: usize, rng: &mut StdRng, t: Option<f64>, out: &mut String) {
        let part = &self.parts[i];
        let Some(t) = t.filter(|_| self.drift_part == Some(i)) else {
            part.sample_into(rng, out);
            return;
        };
        // Drift window: ±5% of the range around position t.
        let window = |lo: u64, hi: u64| -> (u64, u64) {
            let span = (hi - lo) as f64;
            let center = lo as f64 + t * span;
            let half = (span * 0.05).max(0.5);
            let w_lo = (center - half).floor().max(lo as f64) as u64;
            let w_hi = (center + half).ceil().min(hi as f64) as u64;
            (w_lo, w_hi.max(w_lo))
        };
        match part {
            Part::Int { lo, hi } => {
                let (wl, wh) = window(*lo, *hi);
                Part::Int { lo: wl, hi: wh }.sample_into(rng, out);
            }
            Part::Padded { width, lo, hi } => {
                let (wl, wh) = window(*lo, *hi);
                Part::Padded {
                    width: *width,
                    lo: wl,
                    hi: wh,
                }
                .sample_into(rng, out);
            }
            Part::Choice(words) => {
                let (wl, wh) = window(0, (words.len() - 1) as u64);
                let idx = rng.random_range(wl..=wh) as usize;
                out.push_str(words[idx]);
            }
            other => other.sample_into(rng, out),
        }
    }
}

impl Domain for SpecDomain {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&self, rng: &mut StdRng) -> String {
        let mut out = String::with_capacity(24);
        for p in &self.parts {
            p.sample_into(rng, &mut out);
        }
        out
    }

    fn sample_at(&self, rng: &mut StdRng, t: f64) -> String {
        let mut out = String::with_capacity(24);
        for i in 0..self.parts.len() {
            self.sample_part(i, rng, Some(t), &mut out);
        }
        out
    }

    fn drifts(&self) -> bool {
        self.drift_part.is_some()
    }

    fn ground_truth(&self) -> Option<Pattern> {
        let tokens: Vec<Token> = self
            .parts
            .iter()
            .flat_map(|p| p.ground_truth_tokens())
            .collect();
        Some(Pattern::new(tokens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_pattern::{matches, Token};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn padded_int_samples_match_ground_truth() {
        let d = SpecDomain::new(
            "date-mdy",
            vec![
                Part::Padded {
                    width: 2,
                    lo: 1,
                    hi: 12,
                },
                Part::Const("/"),
                Part::Padded {
                    width: 2,
                    lo: 1,
                    hi: 28,
                },
                Part::Const("/"),
                Part::Int { lo: 2000, hi: 2029 },
            ],
        );
        let gt = d.ground_truth().unwrap();
        assert_eq!(gt.to_string(), "<digit>{2}/<digit>{2}/<digit>{4}");
        let mut r = rng();
        for _ in 0..200 {
            let v = d.sample(&mut r);
            assert!(matches(&gt, &v), "{gt} should match {v}");
        }
    }

    #[test]
    fn choice_ground_truth_depends_on_vocabulary_shape() {
        let months = SpecDomain::new("m", vec![Part::Choice(&["Jan", "Feb", "Mar"])]);
        assert_eq!(months.ground_truth().unwrap().tokens(), &[Token::Letter(3)]);
        let ampm = SpecDomain::new("a", vec![Part::Choice(&["AM", "PM"])]);
        assert_eq!(ampm.ground_truth().unwrap().tokens(), &[Token::Upper(2)]);
        let bools = SpecDomain::new("b", vec![Part::Choice(&["true", "false"])]);
        assert_eq!(bools.ground_truth().unwrap().tokens(), &[Token::LowerPlus]);
    }

    #[test]
    fn hex_parts_are_alnum_and_mixed() {
        let d = SpecDomain::new("hex", vec![Part::HexLower(16)]);
        assert_eq!(d.ground_truth().unwrap().tokens(), &[Token::Alnum(16)]);
        let mut r = rng();
        let v = d.sample(&mut r);
        assert_eq!(v.len(), 16);
        assert!(v.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn alnum_var_always_mixes_classes() {
        let d = SpecDomain::new("id", vec![Part::AlnumVar(5, 9)]);
        let mut r = rng();
        for _ in 0..100 {
            let v = d.sample(&mut r);
            assert!(v.chars().any(|c| c.is_ascii_digit()), "{v}");
            assert!(v.chars().any(|c| c.is_ascii_lowercase()), "{v}");
        }
    }

    #[test]
    fn digits_var_has_no_leading_zero() {
        let d = SpecDomain::new("n", vec![Part::DigitsVar(1, 5)]);
        let mut r = rng();
        for _ in 0..100 {
            let v = d.sample(&mut r);
            assert!(!v.starts_with('0') || v.len() == 1, "{v}");
        }
    }

    #[test]
    fn float_ground_truth_uses_three_tokens() {
        let d = SpecDomain::new(
            "f",
            vec![Part::Float {
                int_hi: 99,
                frac: 2,
            }],
        );
        let gt = d.ground_truth().unwrap();
        assert_eq!(gt.to_string(), "<digit>+.<digit>{2}");
        let mut r = rng();
        for _ in 0..100 {
            let v = d.sample(&mut r);
            assert!(matches(&gt, &v), "{v}");
        }
    }

    #[test]
    fn ground_truth_merges_adjacent_constants() {
        let d = SpecDomain::new("kb", vec![Part::Const("/m/"), Part::AlnumVar(5, 7)]);
        let gt = d.ground_truth().unwrap();
        assert_eq!(gt.len(), 2);
        assert_eq!(gt.to_string(), "/m/<alnum>+");
    }
}
