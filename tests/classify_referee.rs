//! Classify referee: the `classify` reply, written straight from the
//! automaton's ranked names, against the reply built the way the service
//! used to build it — a tree of `Json` objects in sorted maps, dumped —
//! from a from-scratch ranking of every cataloged rule that accepts each
//! value. Byte for byte, over random catalogs of dictionary, numeric and
//! pattern rules with tied FPRs, names and values that need escapes, both
//! request forms, and the empty catalog. `RuleSet::classify` and
//! `classify_value` are held to the same ranking.

use av_core::{AnyRule, DictionaryRule, FmdvConfig, RuleSet};
use av_durable::{Manifest, MemStorage};
use av_service::json::Json;
use av_service::{handle_line, CatalogEntry, RuleCatalog, ServiceConfig, ValidationService};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[rustfmt::skip]
const NAMES: &[&str] = &[
    "a", "b", "dates", "zz", "quote\"d", "back\\slash", "tab\tname", "new\nline", "ctl\u{1}x",
    "del\u{7f}", "line\u{2028}sep", "émoji😀",
];

#[rustfmt::skip]
const VALUES: &[&str] = &[
    "2019-03-14", "42", "-3.5", " 7 ", "1e3", "red", "Pending", "ABC-123", "", "a\"b", "x\\y",
    "\u{1}\u{1f}", "tab\there", "😀", "é€", "\u{2028}", "NaN",
];

const PATTERNS: &[&str] = &[
    "<digit>{4}-<digit>{2}-<digit>{2}",
    "<digit>+",
    "<letter>+",
    "<any>+",
    "<upper>+-<digit>+",
];

/// Few distinct FPRs, so pattern rules tie and break on name.
const FPRS: &[f64] = &[0.0, 0.01, 0.01, 0.2];

/// One generated rule: `(kind, a, b)` picks its shape.
fn rule(kind: usize, a: usize, b: usize) -> AnyRule {
    match kind {
        0 => {
            let vocab = [VALUES[a % VALUES.len()], VALUES[b % VALUES.len()]];
            AnyRule::Dictionary(
                DictionaryRule::infer(&vocab, &FmdvConfig::default(), 1.0).expect("a vocabulary"),
            )
        }
        1 => {
            let (lo, hi) = ((a % 5) as f64 * 10.0 - 10.0, 50.0 + b as f64);
            let wire = format!("kind=numeric;lo={lo};hi={hi};theta=0;n=20;test=fisher;alpha=0.05");
            AnyRule::from_wire(&wire).expect("a numeric rule")
        }
        _ => {
            let (pattern, fpr) = (PATTERNS[a % PATTERNS.len()], FPRS[b % FPRS.len()]);
            let wire = format!(
                "kind=pattern;pattern={pattern};theta=0;n=20;fpr={fpr};cov=5;test=fisher;alpha=0.05"
            );
            AnyRule::from_wire(&wire).expect("a pattern rule")
        }
    }
}

/// A service whose catalog is `rules`, loaded from a data directory: a
/// checkpoint manifest that lists the catalog file and no shard.
fn service_with(rules: &BTreeMap<String, AnyRule>) -> ValidationService {
    let mut catalog = RuleCatalog::new();
    for (name, rule) in rules {
        catalog.insert(CatalogEntry {
            name: name.clone(),
            rule: rule.clone().into(),
            variant: "auto".to_string(),
            created_unix: 0,
        });
    }
    let (mem, text) = (MemStorage::new(), catalog.to_text());
    let dir = PathBuf::from("/data");
    av_durable::write_atomic(&mem, &dir.join("rules.avcat"), text.as_bytes())
        .expect("write the catalog");
    let manifest = Manifest {
        generation: 1,
        last_lsn: 0,
        num_columns: 0,
        tau: av_index::IndexConfig::default().tau as u64,
        shard_bits: 0,
        catalog_file: "rules.avcat".to_string(),
        catalog_crc: av_durable::crc32(text.as_bytes()),
        catalog_bytes: text.len() as u64,
        shards: Vec::new(),
    };
    manifest.write(&mem, &dir).expect("publish the manifest");
    let mut config = ServiceConfig::durable(Path::new("/data"));
    config.storage = Arc::new(mem);
    ValidationService::open(config).expect("open the data directory")
}

/// Dictionaries, then patterns by FPR, then numeric ranges; name breaks
/// ties — ranked from scratch over every rule, not through the automaton.
fn reference_ranking(rules: &BTreeMap<String, AnyRule>, value: &str) -> Vec<String> {
    fn key<'a>((name, rule): &(&'a String, &AnyRule)) -> (u8, f64, &'a str) {
        match rule {
            AnyRule::Dictionary(_) => (0, 0.0, name.as_str()),
            AnyRule::Pattern(r) => (1, r.expected_fpr, name.as_str()),
            AnyRule::Numeric(_) => (2, 0.0, name.as_str()),
        }
    }
    let mut hits: Vec<(&String, &AnyRule)> =
        rules.iter().filter(|(_, r)| r.conforms(value)).collect();
    hits.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap_or(Ordering::Equal));
    hits.into_iter().map(|(name, _)| name.clone()).collect()
}

/// The `classify` reply as it was rendered before replies were written
/// member by member: every member a `Json` node, objects sorted maps.
fn tree_reply(generation: u64, results: &[(&str, Vec<String>)]) -> String {
    let results: Vec<Json> = results
        .iter()
        .map(|(value, matches)| {
            let mut members = vec![
                ("value", Json::str(value.to_string())),
                (
                    "rules",
                    Json::Arr(matches.iter().cloned().map(Json::str).collect()),
                ),
            ];
            if let Some(best) = matches.first() {
                members.push(("best", Json::str(best.clone())));
            }
            Json::obj(members)
        })
        .collect();
    let mut members = vec![
        ("catalog_generation", Json::Num(generation as f64)),
        ("results", Json::Arr(results)),
    ];
    members.push(("ok", Json::Bool(true)));
    Json::obj(members).dump()
}

/// Every classify path against the references, for `rules` and `values`.
fn check(rules: &BTreeMap<String, AnyRule>, values: &[&str]) {
    let service = service_with(rules);
    let names: Vec<String> = service
        .catalog_entries()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(
        names,
        rules.keys().cloned().collect::<Vec<_>>(),
        "catalog loaded"
    );
    let mut set = RuleSet::new();
    for (name, rule) in rules {
        set.insert(name, rule.clone());
    }
    let generation = service.classifier_generation();
    let expected: Vec<(&str, Vec<String>)> = values
        .iter()
        .map(|&v| (v, reference_ranking(rules, v)))
        .collect();
    for (value, ranking) in &expected {
        assert_eq!(
            &set.classify(value),
            ranking,
            "RuleSet::classify on {value:?}"
        );
        assert_eq!(&service.classify_value(value).matches, ranking, "{value:?}");
        let frame = format!(
            r#"{{"op":"classify","value":{}}}"#,
            Json::str(*value).dump()
        );
        let want = tree_reply(generation, std::slice::from_ref(&(*value, ranking.clone())));
        assert_eq!(handle_line(&service, &frame).response, want, "{frame}");
    }
    let batch = Json::Arr(values.iter().map(|&v| Json::str(v)).collect()).dump();
    let frame = format!(r#"{{"op":"classify","values":{batch}}}"#);
    let response = handle_line(&service, &frame).response;
    assert_eq!(response, tree_reply(generation, &expected), "{frame}");
}

proptest! {
    #[test]
    fn classify_replies_match_the_tree_built_reference(
        picks in proptest::collection::vec(0..NAMES.len() * 3 * 32 * 32, 0..10),
        values in proptest::collection::vec(0..VALUES.len(), 0..8),
    ) {
        // One pick is a name, a kind and the kind's two parameters.
        let rules: BTreeMap<String, AnyRule> = picks
            .iter()
            .map(|&p| (NAMES[p % NAMES.len()].to_string(), (p / NAMES.len()) % 3, p / NAMES.len() / 3))
            .map(|(name, kind, ab)| (name, rule(kind, ab % 32, ab / 32)))
            .collect();
        let values: Vec<&str> = values.iter().map(|&i| VALUES[i]).collect();
        check(&rules, &values);
    }
}

#[test]
fn empty_catalog_classifies_to_empty_lists() {
    check(&BTreeMap::new(), VALUES);
    check(&BTreeMap::new(), &[]);
}

/// Every name and value at once: all rule kinds, every FPR tie.
#[test]
fn every_name_and_value() {
    let rules: BTreeMap<String, AnyRule> = NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| (name.to_string(), rule(i % 3, i, i / 3)))
        .collect();
    check(&rules, VALUES);
}
