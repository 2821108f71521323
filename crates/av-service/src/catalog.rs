//! The persistent rule catalog: named validation rules inferred once,
//! serialized to disk, reloaded on restart — so a recurring pipeline's
//! rules survive service restarts and are never re-inferred per run.
//!
//! On-disk format: text, first line `AVCAT 3`, then one line per
//! rule combining catalog metadata with the rule's `av-core` wire form,
//! then a CRC-32 footer line over every preceding byte:
//!
//! ```text
//! AVCAT 3
//! name=<pct>;variant=<pct>;created=<unix secs>;kind=pattern;...
//! #crc32=9a0b1c2d
//! ```
//!
//! The footer turns silent bit rot into a load error that names the byte
//! offset of the mismatch. `AVCAT 3` is the only version read: the header
//! line is the version, and a text under any other is refused rather than
//! reinterpreted.
//!
//! The catalog does no I/O of its own. Each checkpoint writes this text as
//! a generation-numbered catalog file that its manifest checksums, and
//! recovery reads it back (`durable.rs`), naming the file in any error.
//!
//! The catalog is the one table of per-rule state: a name's entry, its
//! telemetry and its automaton entry change only in
//! [`RuleCatalog::insert`] and [`RuleCatalog::remove`].

use crate::telemetry::RuleTelemetry;
use av_core::{pct_decode, pct_encode, AnyRule, RuleSet};
use av_durable::crc32;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A named rule plus provenance metadata.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Unique rule name (pipeline feed id, column path, ...).
    pub name: String,
    /// The inferred rule, shared with the catalog automaton.
    pub rule: Arc<AnyRule>,
    /// Label of the inference variant that produced it ("FMDV-VH", "auto").
    pub variant: String,
    /// Unix seconds at inference time.
    pub created_unix: u64,
}

/// Errors from parsing a catalog's text.
#[derive(Debug)]
pub(crate) enum CatalogError {
    /// Malformed catalog content.
    Format(String),
    /// The CRC-32 footer did not match the catalog bytes: the text was
    /// corrupted after it was written.
    Corrupt {
        /// Byte offset of the footer whose check failed.
        offset: u64,
        /// What mismatched.
        detail: String,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Format(m) => write!(f, "catalog format error: {m}"),
            CatalogError::Corrupt { offset, detail } => {
                write!(f, "catalog corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

// AVCAT 3 (CRC-32 footer line) is the only version read; the header line
// is the version, and any other is a clean load error.
const HEADER: &str = "AVCAT 3";
const FOOTER_PREFIX: &str = "#crc32=";

/// One cataloged name: its entry and the telemetry of its validations.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) entry: CatalogEntry,
    /// Empty until the rule's first validation, so a rule that is never
    /// validated costs no window.
    pub(crate) telemetry: OnceLock<Arc<RuleTelemetry>>,
}

/// An in-memory collection of named rules, its catalog automaton, and its
/// text form.
#[derive(Debug, Default)]
pub struct RuleCatalog {
    slots: BTreeMap<String, Slot>,
    /// The catalog automaton: every rule folded into one [`RuleSet`] so
    /// `classify` scans a value once instead of running N rules. Insert
    /// and remove patch it through `&mut self`; a reader holding the
    /// catalog scans it through `&self`.
    pub(crate) classifier: RuleSet,
}

impl RuleCatalog {
    /// An empty catalog.
    pub fn new() -> RuleCatalog {
        RuleCatalog::default()
    }

    /// Insert (or replace) a rule and patch the automaton; returns the
    /// previous entry if any, whose telemetry is dropped with it.
    pub fn insert(&mut self, entry: CatalogEntry) -> Option<CatalogEntry> {
        self.classifier.insert(&entry.name, Arc::clone(&entry.rule));
        let (name, telemetry) = (entry.name.clone(), OnceLock::new());
        let previous = self.slots.insert(name, Slot { entry, telemetry });
        previous.map(|slot| slot.entry)
    }

    /// Look up a rule by name.
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.slots.get(name).map(|slot| &slot.entry)
    }

    /// A name's entry and telemetry.
    pub(crate) fn slot(&self, name: &str) -> Option<&Slot> {
        self.slots.get(name)
    }

    /// Remove a rule, with its telemetry and its automaton entry.
    pub fn remove(&mut self, name: &str) -> Option<CatalogEntry> {
        self.classifier.remove(name);
        self.slots.remove(name).map(|slot| slot.entry)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no rules are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterate entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = &CatalogEntry> {
        self.slots.values().map(|slot| &slot.entry)
    }

    /// The telemetry of every rule validated since it was inferred, in
    /// name order.
    pub(crate) fn telemetry(&self) -> impl Iterator<Item = (&str, &Arc<RuleTelemetry>)> {
        self.slots
            .values()
            .filter_map(|slot| Some((slot.entry.name.as_str(), slot.telemetry.get()?)))
    }

    /// Serialize the whole catalog to its text form (AVCAT 3: header,
    /// one line per entry, CRC-32 footer over every preceding byte).
    pub fn to_text(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for e in self.iter() {
            out.push_str(&entry_line(e));
            out.push('\n');
        }
        let crc = crc32(out.as_bytes());
        out.push_str(&format!("{FOOTER_PREFIX}{crc:08x}\n"));
        out
    }

    /// Parse a catalog from its text form (AVCAT 3, footer verified; any
    /// other header is refused).
    pub(crate) fn from_text(text: &str) -> Result<RuleCatalog, CatalogError> {
        match text.lines().next() {
            Some(h) if h.trim() == HEADER => {}
            other => {
                return Err(CatalogError::Format(format!(
                    "unsupported version: header {other:?}, expected {HEADER:?}"
                )))
            }
        }
        // The footer must be the last non-empty line; its CRC covers every
        // byte before the footer line itself.
        let trimmed = text.trim_end_matches(['\n', '\r']);
        let footer_start = trimmed.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let footer = &trimmed[footer_start..];
        let stored = footer
            .strip_prefix(FOOTER_PREFIX)
            .and_then(|h| u32::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| CatalogError::Corrupt {
                offset: footer_start as u64,
                detail: format!("missing {FOOTER_PREFIX:?} footer line"),
            })?;
        let computed = crc32(&text.as_bytes()[..footer_start]);
        if stored != computed {
            return Err(CatalogError::Corrupt {
                offset: footer_start as u64,
                detail: format!("crc32 mismatch: stored {stored:08x}, computed {computed:08x}"),
            });
        }
        let body = &text[..footer_start];
        let mut catalog = RuleCatalog::new();
        for (i, line) in body.lines().skip(1).enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let entry = parse_entry(line)
                .map_err(|m| CatalogError::Format(format!("line {}: {m}", i + 2)))?;
            catalog.insert(entry);
        }
        Ok(catalog)
    }
}

/// One catalog entry rendered as its on-disk line (no trailing newline).
/// This exact form is also the WAL payload of an `infer` record, so a
/// replayed rule is byte-identical to a checkpointed one.
pub(crate) fn entry_line(e: &CatalogEntry) -> String {
    format!(
        "name={};variant={};created={};{}",
        pct_encode(&e.name),
        pct_encode(&e.variant),
        e.created_unix,
        e.rule.to_wire(),
    )
}

pub(crate) fn parse_entry(line: &str) -> Result<CatalogEntry, String> {
    let decode = |v: &str| pct_decode(v).map_err(|e| e.to_string());
    let mut name = None;
    let mut variant = None;
    let mut created = None;
    for part in line.split(';') {
        match part.split_once('=') {
            Some(("name", v)) => name = Some(decode(v)?),
            Some(("variant", v)) => variant = Some(decode(v)?),
            Some(("created", v)) => {
                created = Some(v.parse::<u64>().map_err(|_| "bad created field")?)
            }
            _ => {}
        }
    }
    let rule = AnyRule::from_wire(line).map_err(|e| e.to_string())?;
    Ok(CatalogEntry {
        name: name.ok_or("missing name")?,
        rule: Arc::new(rule),
        variant: variant.unwrap_or_else(|| "unknown".to_string()),
        created_unix: created.unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_core::{DictionaryRule, FmdvConfig, ValidationRule};
    use av_pattern::parse as parse_pattern;
    use av_stats::HomogeneityTest;

    fn entry(name: &str, pattern: &str) -> CatalogEntry {
        CatalogEntry {
            name: name.to_string(),
            rule: AnyRule::Pattern(ValidationRule::new(
                parse_pattern(pattern).unwrap(),
                0.0125,
                400,
                0.003,
                77,
                HomogeneityTest::FisherExact,
                0.01,
            ))
            .into(),
            variant: "FMDV-VH".to_string(),
            created_unix: 1_753_600_000,
        }
    }

    #[test]
    fn text_roundtrip_preserves_entries() {
        let mut cat = RuleCatalog::new();
        cat.insert(entry(
            "feeds/sales.date",
            "<digit>{4}-<digit>{2}-<digit>{2}",
        ));
        cat.insert(entry("weird name; with=delims,", "<digit>+"));
        cat.insert(entry("r1", "<num>"));
        let dict_train: Vec<String> = (0..60).map(|i| ["a", "b", "c"][i % 3].into()).collect();
        cat.insert(CatalogEntry {
            name: "statuses".into(),
            rule: AnyRule::Dictionary(
                DictionaryRule::infer(&dict_train, &FmdvConfig::default(), 0.2).unwrap(),
            )
            .into(),
            variant: "auto".into(),
            created_unix: 7,
        });

        let reloaded = RuleCatalog::from_text(&cat.to_text()).unwrap();
        assert_eq!(reloaded.len(), 4);
        let e = reloaded.get("feeds/sales.date").unwrap();
        assert_eq!(e.variant, "FMDV-VH");
        assert_eq!(e.created_unix, 1_753_600_000);
        assert!(e.rule.conforms("2026-07-27"));
        assert!(!e.rule.conforms("27/07/2026"));
        assert!(reloaded.get("weird name; with=delims,").is_some());
        assert!(reloaded.get("statuses").unwrap().rule.conforms("b"));
        assert!(reloaded.get("r1").unwrap().rule.conforms("42"));
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(RuleCatalog::from_text("").is_err());
        assert!(RuleCatalog::from_text("NOT A CATALOG\n").is_err());
        assert!(RuleCatalog::from_text("AVCAT 3\ngarbage line\n").is_err());
        // Header plus footer alone is a valid empty catalog.
        let empty = RuleCatalog::new().to_text();
        assert!(RuleCatalog::from_text(&empty).unwrap().is_empty());
        // Older versions are refused, not reinterpreted.
        assert!(RuleCatalog::from_text("AVCAT 1\n").is_err());
    }

    #[test]
    fn corrupted_catalog_names_the_offset() {
        let mut cat = RuleCatalog::new();
        cat.insert(entry("r1", "<num>"));
        cat.insert(entry("r2", "<digit>{4}"));
        let text = cat.to_text();
        assert!(text.starts_with("AVCAT 3\n"), "{text}");
        assert!(text
            .trim_end()
            .lines()
            .last()
            .unwrap()
            .starts_with("#crc32="));

        // Any body byte flip is caught by the footer.
        let mut bytes = text.clone().into_bytes();
        bytes[12] ^= 0x40;
        let corrupt = String::from_utf8(bytes).unwrap();
        match RuleCatalog::from_text(&corrupt) {
            Err(CatalogError::Corrupt { offset, detail }) => {
                assert_eq!(offset as usize, text.rfind("#crc32=").unwrap());
                assert!(detail.contains("crc32 mismatch"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // A truncated file (footer lost) is refused too.
        let footer_at = text.rfind("#crc32=").unwrap();
        assert!(matches!(
            RuleCatalog::from_text(&text[..footer_at]),
            Err(CatalogError::Corrupt { .. })
        ));
        let err = RuleCatalog::from_text(&corrupt).unwrap_err().to_string();
        assert!(err.contains("corrupt at byte"), "{err}");
    }

    #[test]
    fn v2_catalogs_are_refused() {
        let mut cat = RuleCatalog::new();
        cat.insert(entry("r1", "<num>"));
        // Render a v2 image by hand: v3 text minus the footer, with the
        // old header.
        let v3 = cat.to_text();
        let body_end = v3.rfind("#crc32=").unwrap();
        let v2 = format!("AVCAT 2\n{}", &v3["AVCAT 3\n".len()..body_end]);
        let err = RuleCatalog::from_text(&v2).unwrap_err().to_string();
        assert!(err.contains("unsupported version"), "{err}");
        assert!(err.contains("AVCAT 2"), "{err}");
    }

    #[test]
    fn replace_and_remove() {
        let mut cat = RuleCatalog::new();
        assert!(cat.insert(entry("r", "<digit>+")).is_none());
        assert!(cat.insert(entry("r", "<letter>+")).is_some());
        assert_eq!(cat.len(), 1);
        assert!(cat.remove("r").is_some());
        assert!(cat.is_empty());
    }
}
