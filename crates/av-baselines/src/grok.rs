//! Grok-pattern validator (§5.2): a curated library of regexes for common
//! data types (as used in log parsing and AWS Glue classifiers). High
//! precision, low recall — only curated types are recognized.

use crate::validator::{ColumnValidator, InferredRule};
use av_match::Regex;
use std::sync::OnceLock;

/// The curated pattern library: `(name, regex)`. A trimmed-down version of
/// the Elastic grok-patterns file, covering the common machine data types.
pub(crate) const GROK_PATTERNS: &[(&str, &str)] = &[
    ("INT", r"[+-]?\d+"),
    ("NUMBER", r"[+-]?\d+(\.\d+)?"),
    ("BASE16NUM", r"(0x)?[0-9A-Fa-f]+"),
    (
        "UUID",
        r"[0-9A-Fa-f]{8}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{12}",
    ),
    (
        "IPV4",
        r"(25[0-5]|2[0-4]\d|[01]?\d?\d)(\.(25[0-5]|2[0-4]\d|[01]?\d?\d)){3}",
    ),
    ("MAC", r"([0-9A-Fa-f]{2}:){5}[0-9A-Fa-f]{2}"),
    (
        "HOSTNAME",
        r"[a-zA-Z0-9]([a-zA-Z0-9-]{0,62})?(\.[a-zA-Z0-9]([a-zA-Z0-9-]{0,62})?)+",
    ),
    (
        "EMAILADDRESS",
        r"[a-zA-Z][a-zA-Z0-9_.+-]*@[a-zA-Z0-9][a-zA-Z0-9._-]*\.[a-zA-Z]+",
    ),
    ("URI", r"https?://[a-zA-Z0-9._-]+(/[a-zA-Z0-9._/-]*)?"),
    ("ISO8601_DATE", r"\d{4}-\d{2}-\d{2}"),
    (
        "ISO8601_TIMESTAMP",
        r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(Z|[+-]\d{2}:?\d{2})?",
    ),
    ("DATE_US", r"\d{1,2}/\d{1,2}/\d{4}"),
    ("DATE_EU", r"\d{1,2}-\d{1,2}-\d{4}"),
    ("TIME", r"\d{1,2}:\d{2}(:\d{2})?"),
    (
        "DATESTAMP_US",
        r"\d{1,2}/\d{1,2}/\d{4}[ T]\d{1,2}:\d{2}:\d{2}( (AM|PM))?",
    ),
    (
        "MONTHDAY_YEAR",
        r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{2} \d{4}",
    ),
    ("HTTPDATE_YEAR", r"\d{4}"),
    ("ZIP", r"\d{5}(-\d{4})?"),
    ("PHONE_US", r"\(\d{3}\) \d{3}-\d{4}"),
    ("VERSION", r"v?\d+(\.\d+)+"),
    ("LOCALE", r"[a-z]{2}-[A-Z]{2}"),
    ("PERCENT", r"\d{1,3}%"),
    ("CURRENCY_USD", r"\$\d+\.\d{2}"),
    ("UNIXPATH", r"(/[a-zA-Z0-9._-]+)+"),
    ("WINPATH", r"[A-Za-z]:(\\[a-zA-Z0-9._ -]+)+"),
    ("WORD", r"[A-Za-z]+"),
];

fn compiled() -> &'static Vec<(&'static str, Regex)> {
    static CACHE: OnceLock<Vec<(&'static str, Regex)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        GROK_PATTERNS
            .iter()
            .map(|(name, pat)| {
                (
                    *name,
                    Regex::new(pat).unwrap_or_else(|e| panic!("grok {name}: {e}")),
                )
            })
            .collect()
    })
}

/// Grok validator: recognize the training column as one of the curated
/// types (≥ `min_match_frac` of values full-match) and require future
/// values to match that type too.
#[derive(Debug)]
pub struct Grok {
    /// Fraction of training values that must match a pattern to adopt it.
    pub min_match_frac: f64,
}

impl Default for Grok {
    fn default() -> Self {
        Grok {
            min_match_frac: 0.99,
        }
    }
}

impl ColumnValidator for Grok {
    fn name(&self) -> &str {
        "Grok"
    }

    fn infer(&self, train: &[&str]) -> Option<InferredRule> {
        if train.is_empty() {
            return None;
        }
        // Pick the FIRST library pattern (they are ordered specific →
        // generic within type families) that explains the training data.
        // The catch-all WORD pattern is excluded from adoption: it would
        // "validate" any letter column.
        let need = (self.min_match_frac * train.len() as f64).ceil() as usize;
        // One explicit NFA scratch for the whole library sweep; the check
        // closure below runs on the engine's thread-local scratch (the
        // `Fn` closure cannot hold `&mut` state and stay `Sync`), so both
        // inference and per-value checks are allocation-free.
        let mut scratch = av_match::NfaScratch::new();
        let (name, regex) = compiled()
            .iter()
            .filter(|(name, _)| *name != "WORD" && *name != "INT" && *name != "HTTPDATE_YEAR")
            .find(|(_, re)| {
                train
                    .iter()
                    .filter(|v| re.is_full_match_with(v, &mut scratch))
                    .count()
                    >= need
            })?;
        let re = regex.clone();
        Some(InferredRule::tolerant(
            format!("grok:{name}"),
            1.0 - self.min_match_frac,
            move |v: &str| re.is_full_match(v),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col<'a>(vals: &[&'a str]) -> Vec<&'a str> {
        vals.to_vec()
    }

    #[test]
    fn all_library_patterns_compile() {
        assert_eq!(compiled().len(), GROK_PATTERNS.len());
    }

    #[test]
    fn recognizes_ip_addresses() {
        let train = col(&["10.0.0.1", "192.168.1.254", "8.8.8.8"]);
        let rule = Grok::default().infer(&train).unwrap();
        assert_eq!(rule.description, "grok:IPV4");
        assert!(rule.passes(&col(&["172.16.0.9"])));
        assert!(!rule.passes(&col(&["999.999.1.1", "abc"])));
    }

    #[test]
    fn recognizes_guids_and_dates() {
        let guids = col(&[
            "550e8400-e29b-41d4-a716-446655440000",
            "67e55044-10b1-426f-9247-bb680e5fe0c8",
        ]);
        assert_eq!(
            Grok::default().infer(&guids).unwrap().description,
            "grok:UUID"
        );
        let dates = col(&["2019-03-01", "2020-12-31"]);
        assert_eq!(
            Grok::default().infer(&dates).unwrap().description,
            "grok:ISO8601_DATE"
        );
    }

    #[test]
    fn declines_proprietary_formats() {
        // Fig. 3-style proprietary ids are not in any curated library —
        // the source of Grok's low recall.
        let train = col(&["/m/0abc12x", "/m/0zz93k7"]);
        let rule = Grok::default().infer(&train);
        if let Some(r) = &rule {
            // If anything matched it would be UNIXPATH; either declining or
            // adopting a path pattern is acceptable grok behavior.
            assert_eq!(r.description, "grok:UNIXPATH");
        }
        let weird = col(&["X|7|OnBooking", "Y|9|Delivered"]);
        assert!(Grok::default().infer(&weird).is_none());
    }

    #[test]
    fn generalizes_across_months_unlike_dictionaries() {
        let train = col(&["Mar 01 2019", "Mar 05 2019"]);
        let rule = Grok::default().infer(&train).unwrap();
        assert!(
            rule.passes(&col(&["Apr 01 2019"])),
            "curated month pattern generalizes"
        );
    }
}
