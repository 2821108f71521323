//! The domain catalog: ~40 machine-generated domains modeled on the
//! proprietary formats of the paper's Fig. 3 (knowledge-base entity ids,
//! ads delivery statuses, timestamps in proprietary formats, ...) plus
//! natural-language domains for the ~33% of columns where pattern methods
//! do not apply.

use crate::domain::{Domain, Part, SpecDomain};
use av_pattern::Pattern;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

const MONTHS3: &[&str] = &[
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];
const WEEKDAYS3: &[&str] = &["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
const AMPM: &[&str] = &["AM", "PM"];
const COUNTRY2: &[&str] = &["US", "UK", "DE", "JP", "FR", "BR", "IN", "CA", "AU", "NL"];
const ADS_STATUS: &[&str] = &[
    "Delivered",
    "Pending",
    "Throttled",
    "Rejected",
    "OnBooking",
    "Paused",
    "Archived",
    "Serving",
];
const BOOLS: &[&str] = &["true", "false"];
const ORDER_STATUS: &[&str] = &[
    "Created",
    "Packed",
    "Shipped",
    "InTransit",
    "Arrived",
    "Returned",
];
const ENVIRONMENTS: &[&str] = &["prod", "staging", "dev", "test", "canary"];
const SEVERITIES: &[&str] = &["LOW", "MEDIUM", "HIGH", "CRITICAL"];
const LOG_LEVELS: &[&str] = &["TRACE", "DEBUG", "INFO", "WARN", "ERROR", "FATAL"];
const DEVICE_TYPES: &[&str] = &["desktop", "mobile", "tablet", "bot", "tv", "console"];
const PAYMENT_METHODS: &[&str] = &["Card", "Invoice", "Wallet", "Transfer", "Voucher"];
const TIERS: &[&str] = &["Free", "Basic", "Plus", "Premium", "Enterprise"];
const COLORS: &[&str] = &["red", "green", "blue", "black", "white", "silver", "gold"];
const UNITS: &[&str] = &["ms", "sec", "min", "hour", "day", "week"];
const BROWSERS: &[&str] = &["Chrome", "Edge", "Firefox", "Safari", "Opera"];
const HTTP_METHODS: &[&str] = &["GET", "PUT", "POST", "HEAD"];
const TLDS: &[&str] = &["com", "org", "net", "dev"];

/// Build the full catalog of machine-generated domains.
///
/// Every domain is deterministic given the caller's RNG and carries a
/// derived ground-truth validation pattern.
pub fn machine_domains() -> Vec<Arc<dyn Domain>> {
    use Part::*;
    /// Domains with a temporally-drifting part (the paper's data-drift
    /// mechanism: a March training window must generalize to April), and
    /// which part index drifts.
    const DRIFT: &[(&str, usize)] = &[
        ("date-month-name", 0),
        ("datetime-us", 0),
        ("date-iso", 2),
        ("datetime-iso", 2),
        ("timestamp-padded", 0),
        ("unix-epoch", 0),
        ("epoch-millis", 0),
        ("month-year", 0),
        ("weekday-date", 4),
        ("quarter-tag", 2),
        ("build-tag", 1),
        ("semver-v", 3),
        ("version-dotted", 2),
        ("invoice-id", 1),
    ];
    let mut out: Vec<Arc<dyn Domain>> = Vec::new();
    let mut push = |name: &str, parts: Vec<Part>| {
        let mut d = SpecDomain::new(name, parts);
        if let Some((_, i)) = DRIFT.iter().find(|(n, _)| *n == name) {
            d = d.with_drift(*i);
        }
        out.push(Arc::new(d));
    };

    // --- Dates and times (the paper's running examples C1 / C2) ---
    push(
        "date-month-name", // "Mar 01 2019" (Fig. 2a)
        vec![
            Choice(MONTHS3),
            Const(" "),
            Padded {
                width: 2,
                lo: 1,
                hi: 28,
            },
            Const(" "),
            Int { lo: 2010, hi: 2029 },
        ],
    );
    push(
        "datetime-us", // "9/07/2019 12:01:32 PM" (Fig. 2b)
        vec![
            Int { lo: 1, hi: 12 },
            Const("/"),
            Padded {
                width: 2,
                lo: 1,
                hi: 28,
            },
            Const("/"),
            Int { lo: 2010, hi: 2029 },
            Const(" "),
            Int { lo: 1, hi: 12 },
            Const(":"),
            Padded {
                width: 2,
                lo: 0,
                hi: 59,
            },
            Const(":"),
            Padded {
                width: 2,
                lo: 0,
                hi: 59,
            },
            Const(" "),
            Choice(AMPM),
        ],
    );
    push(
        "date-iso",
        vec![
            Int { lo: 2010, hi: 2029 },
            Const("-"),
            Padded {
                width: 2,
                lo: 1,
                hi: 12,
            },
            Const("-"),
            Padded {
                width: 2,
                lo: 1,
                hi: 28,
            },
        ],
    );
    push(
        "datetime-iso",
        vec![
            Int { lo: 2010, hi: 2029 },
            Const("-"),
            Padded {
                width: 2,
                lo: 1,
                hi: 12,
            },
            Const("-"),
            Padded {
                width: 2,
                lo: 1,
                hi: 28,
            },
            Const("T"),
            Padded {
                width: 2,
                lo: 0,
                hi: 23,
            },
            Const(":"),
            Padded {
                width: 2,
                lo: 0,
                hi: 59,
            },
            Const(":"),
            Padded {
                width: 2,
                lo: 0,
                hi: 59,
            },
            Const("Z"),
        ],
    );
    push(
        "timestamp-padded", // "02/18/2015 00:00:00" (Fig. 8 segment)
        vec![
            Padded {
                width: 2,
                lo: 1,
                hi: 12,
            },
            Const("/"),
            Padded {
                width: 2,
                lo: 1,
                hi: 28,
            },
            Const("/"),
            Int { lo: 2010, hi: 2029 },
            Const(" "),
            Padded {
                width: 2,
                lo: 0,
                hi: 23,
            },
            Const(":"),
            Padded {
                width: 2,
                lo: 0,
                hi: 59,
            },
            Const(":"),
            Padded {
                width: 2,
                lo: 0,
                hi: 59,
            },
        ],
    );
    push(
        "time-24h",
        vec![
            Padded {
                width: 2,
                lo: 0,
                hi: 23,
            },
            Const(":"),
            Padded {
                width: 2,
                lo: 0,
                hi: 59,
            },
            Const(":"),
            Padded {
                width: 2,
                lo: 0,
                hi: 59,
            },
        ],
    );
    push(
        "unix-epoch",
        vec![Int {
            lo: 1_400_000_000,
            hi: 1_699_999_999,
        }],
    );
    push(
        "epoch-millis",
        vec![Int {
            lo: 1_400_000_000_000,
            hi: 1_699_999_999_999,
        }],
    );
    push("date-compact", vec![DigitsFixed(8)]);
    push(
        "month-year",
        vec![Choice(MONTHS3), Const("-"), Int { lo: 2010, hi: 2029 }],
    );
    push(
        "weekday-date",
        vec![
            Choice(WEEKDAYS3),
            Const(", "),
            Padded {
                width: 2,
                lo: 1,
                hi: 28,
            },
            Const(" "),
            Choice(MONTHS3),
            Const(" "),
            Int { lo: 2010, hi: 2029 },
        ],
    );
    push(
        "quarter-tag",
        vec![
            Int { lo: 2010, hi: 2029 },
            Const("-Q"),
            Int { lo: 1, hi: 4 },
        ],
    );

    // --- Network / machine identifiers ---
    push(
        "ipv4",
        vec![
            Int { lo: 1, hi: 255 },
            Const("."),
            Int { lo: 0, hi: 255 },
            Const("."),
            Int { lo: 0, hi: 255 },
            Const("."),
            Int { lo: 1, hi: 255 },
        ],
    );
    push(
        "mac-address",
        vec![
            HexLower(2),
            Const(":"),
            HexLower(2),
            Const(":"),
            HexLower(2),
            Const(":"),
            HexLower(2),
            Const(":"),
            HexLower(2),
            Const(":"),
            HexLower(2),
        ],
    );
    push(
        "guid",
        vec![
            HexLower(8),
            Const("-"),
            HexLower(4),
            Const("-"),
            HexLower(4),
            Const("-"),
            HexLower(4),
            Const("-"),
            HexLower(12),
        ],
    );
    push(
        "guid-upper",
        vec![
            HexUpper(8),
            Const("-"),
            HexUpper(4),
            Const("-"),
            HexUpper(4),
            Const("-"),
            HexUpper(4),
            Const("-"),
            HexUpper(12),
        ],
    );
    push("hex-id-16", vec![HexLower(16)]);
    push("hash-sha1-like", vec![HexLower(40)]);
    push(
        "kb-entity-id", // Bing knowledge-base ids, Fig. 3 first column
        vec![Const("/m/0"), AlnumVar(5, 7)],
    );
    push(
        "url-https",
        vec![
            Const("https://"),
            LowerVar(4, 10),
            Const("."),
            Choice(TLDS),
            Const("/"),
            LowerVar(3, 8),
        ],
    );
    push(
        "email",
        vec![
            LowerVar(3, 9),
            Const("@"),
            LowerVar(4, 8),
            Const("."),
            Choice(TLDS),
        ],
    );
    push(
        "version-dotted",
        vec![
            Int { lo: 0, hi: 20 },
            Const("."),
            Int { lo: 0, hi: 40 },
            Const("."),
            Int { lo: 0, hi: 9999 },
        ],
    );
    push(
        "semver-v",
        vec![
            Const("v"),
            Int { lo: 1, hi: 9 },
            Const("."),
            Int { lo: 0, hi: 30 },
        ],
    );
    push(
        "build-tag",
        vec![
            Const("build-"),
            Int {
                lo: 1000,
                hi: 99999,
            },
        ],
    );
    push(
        "session-id", // Fig. 3-style proprietary session ids
        vec![
            AlnumVar(7, 7),
            Const("-"),
            AlnumVar(3, 3),
            Const("-"),
            AlnumVar(5, 5),
        ],
    );
    push(
        "http-request",
        vec![
            Choice(HTTP_METHODS),
            Const(" /"),
            LowerVar(3, 9),
            Const(" HTTP/1.1"),
        ],
    );

    // --- Business codes ---
    push(
        "product-sku",
        vec![UpperFixed(3), Const("-"), DigitsFixed(5)],
    );
    push("order-id", vec![Const("ORD"), DigitsFixed(8)]);
    push(
        "invoice-id",
        vec![
            Const("INV-"),
            Int { lo: 2015, hi: 2025 },
            Const("-"),
            DigitsFixed(6),
        ],
    );
    push(
        "currency-usd",
        vec![
            Const("$"),
            Int { lo: 1, hi: 9999 },
            Const("."),
            DigitsFixed(2),
        ],
    );
    push("percentage", vec![Int { lo: 0, hi: 100 }, Const("%")]);
    push("locale", vec![LowerFixed(2), Const("-"), UpperFixed(2)]);
    push("country-code", vec![Choice(COUNTRY2)]);
    push("ads-delivery-status", vec![Choice(ADS_STATUS)]);
    push("http-status", vec![Int { lo: 100, hi: 599 }]);
    push("zip-code", vec![DigitsFixed(5)]);
    push(
        "zip-plus4",
        vec![DigitsFixed(5), Const("-"), DigitsFixed(4)],
    );
    push(
        "phone-us",
        vec![
            Const("("),
            DigitsFixed(3),
            Const(") "),
            DigitsFixed(3),
            Const("-"),
            DigitsFixed(4),
        ],
    );
    push(
        "latitude",
        vec![Int { lo: 0, hi: 89 }, Const("."), DigitsFixed(4)],
    );
    push("metric-float", vec![Float { int_hi: 9, frac: 2 }]);
    push(
        "big-float",
        vec![Float {
            int_hi: 99999,
            frac: 3,
        }],
    );
    push("flight-no", vec![UpperFixed(2), DigitsVar(3, 4)]);
    push("boolean", vec![Choice(BOOLS)]);
    // Word/enum domains — extremely common in real lakes (status flags,
    // environments, log levels, ...); they give `<letter>+`-family patterns
    // the clean corpus evidence they need.
    push("order-status", vec![Choice(ORDER_STATUS)]);
    push("environment", vec![Choice(ENVIRONMENTS)]);
    push("severity", vec![Choice(SEVERITIES)]);
    push("log-level", vec![Choice(LOG_LEVELS)]);
    push("device-type", vec![Choice(DEVICE_TYPES)]);
    push("payment-method", vec![Choice(PAYMENT_METHODS)]);
    push("subscription-tier", vec![Choice(TIERS)]);
    push("color-name", vec![Choice(COLORS)]);
    push("time-unit", vec![Choice(UNITS)]);
    push("browser-name", vec![Choice(BROWSERS)]);
    push(
        "unix-path",
        vec![Const("/var/log/"), LowerVar(3, 8), Const(".log")],
    );
    push(
        "win-path",
        vec![Const("C:\\data\\"), LowerVar(3, 8), Const(".csv")],
    );
    push("row-key", vec![UpperFixed(1), DigitsFixed(7)]);
    push("int-id", vec![DigitsVar(5, 9)]);
    push("small-count", vec![Int { lo: 0, hi: 99 }]);
    out
}

/// Vocabulary for natural-language columns.
const NL_WORDS: &[&str] = &[
    "acme",
    "global",
    "dynamic",
    "systems",
    "analytics",
    "research",
    "development",
    "sales",
    "marketing",
    "finance",
    "operations",
    "northwind",
    "contoso",
    "fabrikam",
    "engineering",
    "quality",
    "assurance",
    "partner",
    "solutions",
    "consulting",
    "digital",
    "services",
    "platform",
    "enterprise",
    "customer",
    "support",
    "product",
    "design",
    "strategy",
    "data",
    "cloud",
    "mobile",
    "retail",
    "logistics",
    "payments",
    "insurance",
    "health",
    "energy",
    "media",
    "travel",
];

/// A natural-language-like domain: short multi-word phrases with varied
/// casing — pattern-based validators should refuse to produce rules here.
#[derive(Debug)]
pub(crate) struct NaturalLanguageDomain {
    name: String,
    min_words: usize,
    max_words: usize,
    capitalize: bool,
}

impl NaturalLanguageDomain {
    /// Create an NL domain producing `min_words..=max_words` phrases.
    pub fn new(
        name: impl Into<String>,
        min_words: usize,
        max_words: usize,
        capitalize: bool,
    ) -> Self {
        NaturalLanguageDomain {
            name: name.into(),
            min_words,
            max_words,
            capitalize,
        }
    }
}

impl Domain for NaturalLanguageDomain {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&self, rng: &mut StdRng) -> String {
        let n = rng.random_range(self.min_words..=self.max_words);
        let mut out = String::new();
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            let w = NL_WORDS[rng.random_range(0..NL_WORDS.len())];
            if self.capitalize {
                let mut cs = w.chars();
                if let Some(first) = cs.next() {
                    out.extend(first.to_uppercase());
                    out.push_str(cs.as_str());
                }
            } else {
                out.push_str(w);
            }
        }
        out
    }

    fn ground_truth(&self) -> Option<Pattern> {
        None
    }

    fn machine_generated(&self) -> bool {
        false
    }
}

/// Natural-language domain catalog.
pub(crate) fn natural_language_domains() -> Vec<Arc<dyn Domain>> {
    vec![
        Arc::new(NaturalLanguageDomain::new("company-names", 1, 3, true)),
        Arc::new(NaturalLanguageDomain::new("department-names", 1, 2, true)),
        Arc::new(NaturalLanguageDomain::new("comments", 2, 6, false)),
        Arc::new(NaturalLanguageDomain::new("project-phrases", 2, 4, true)),
    ]
}

/// A composite domain (§3, Fig. 8): atomic domains concatenated with
/// separators, e.g. `"0.1|02/18/2015 00:00:00|OnBooking"`.
pub struct CompositeDomain {
    name: String,
    subdomains: Vec<Arc<dyn Domain>>,
    separator: &'static str,
}

impl CompositeDomain {
    /// Concatenate `subdomains` with `separator`.
    pub fn new(
        name: impl Into<String>,
        subdomains: Vec<Arc<dyn Domain>>,
        separator: &'static str,
    ) -> CompositeDomain {
        assert!(!subdomains.is_empty(), "composite needs at least one part");
        CompositeDomain {
            name: name.into(),
            subdomains,
            separator,
        }
    }
}

impl Domain for CompositeDomain {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&self, rng: &mut StdRng) -> String {
        let mut out = String::new();
        for (i, d) in self.subdomains.iter().enumerate() {
            if i > 0 {
                out.push_str(self.separator);
            }
            out.push_str(&d.sample(rng));
        }
        out
    }

    fn sample_at(&self, rng: &mut StdRng, t: f64) -> String {
        let mut out = String::new();
        for (i, d) in self.subdomains.iter().enumerate() {
            if i > 0 {
                out.push_str(self.separator);
            }
            out.push_str(&d.sample_at(rng, t));
        }
        out
    }

    fn drifts(&self) -> bool {
        self.subdomains.iter().any(|d| d.drifts())
    }

    fn ground_truth(&self) -> Option<Pattern> {
        let mut pattern = Pattern::empty();
        let sep = Pattern::new(vec![av_pattern::Token::lit(self.separator)]);
        for (i, d) in self.subdomains.iter().enumerate() {
            if i > 0 {
                pattern = pattern.concat(&sep);
            }
            pattern = pattern.concat(&d.ground_truth()?);
        }
        Some(pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_pattern::matches;
    use rand::SeedableRng;

    #[test]
    fn catalog_sizes() {
        assert!(machine_domains().len() >= 40, "catalog should be broad");
        assert_eq!(natural_language_domains().len(), 4);
    }

    #[test]
    fn every_machine_domain_matches_its_ground_truth() {
        let mut rng = StdRng::seed_from_u64(7);
        for d in machine_domains() {
            let gt = d
                .ground_truth()
                .unwrap_or_else(|| panic!("{} lacks ground truth", d.name()));
            for _ in 0..100 {
                let v = d.sample(&mut rng);
                assert!(matches(&gt, &v), "domain {}: {gt} !~ {v:?}", d.name());
            }
        }
    }

    #[test]
    fn domain_names_are_unique() {
        let mut names: Vec<String> = machine_domains()
            .iter()
            .map(|d| d.name().to_string())
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn nl_domains_have_no_ground_truth() {
        for d in natural_language_domains() {
            assert!(d.ground_truth().is_none());
            assert!(!d.machine_generated());
        }
    }

    #[test]
    fn composite_concatenates_ground_truths() {
        let machines = machine_domains();
        let float = machines
            .iter()
            .find(|d| d.name() == "metric-float")
            .unwrap()
            .clone();
        let status = machines
            .iter()
            .find(|d| d.name() == "ads-delivery-status")
            .unwrap()
            .clone();
        let comp = CompositeDomain::new("float|status", vec![float, status], "|");
        let gt = comp.ground_truth().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let v = comp.sample(&mut rng);
            assert!(matches(&gt, &v), "{gt} !~ {v:?}");
            assert!(v.contains('|'));
        }
    }

    #[test]
    fn samples_are_deterministic_given_seed() {
        let d = &machine_domains()[0];
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..10).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..10).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
