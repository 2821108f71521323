//! **G4 determinism**: the av-index accumulator modules are fixed-point
//! on purpose — integer impurity counters merge associatively, so shard
//! merge order can't change the published index. Two sub-checks:
//!
//! * **floats**: no `f32`/`f64` mentions or float literals in the scoped
//!   modules, outside the two sanctioned conversion boundaries
//!   ([`crate::config::G4_EXEMPT_FNS`]);
//! * **hash-map order**: in persist/serialization files, iterating a
//!   hash-backed field (`map`, `patterns`, `prefixes`) in a
//!   function that never sorts leaks nondeterministic order into bytes —
//!   checkpoints would differ run to run and recovery diffs would be
//!   meaningless.

use crate::config::{G4_EXEMPT_FNS, G4_HASHMAP_FIELDS, G4_PERSIST_FILES, G4_SCOPE};
use crate::diag::Finding;
use crate::lexer::Kind;
use crate::source::SourceFile;

use super::in_scope;

/// Iteration methods whose order is the map's internal order.
const ITER_METHODS: &[&str] = &["iter", "iter_mut", "keys", "values", "values_mut"];

/// Run the pass.
pub(crate) fn run(sf: &SourceFile, out: &mut Vec<Finding>) {
    if in_scope(&sf.rel_path, G4_SCOPE) {
        floats(sf, out);
    }
    if in_scope(&sf.rel_path, G4_PERSIST_FILES) {
        hashmap_order(sf, out);
    }
}

fn floats(sf: &SourceFile, out: &mut Vec<Finding>) {
    for (i, t) in sf.tokens.iter().enumerate() {
        let hit = t.kind == Kind::Float || t.is_ident("f32") || t.is_ident("f64");
        if !hit {
            continue;
        }
        if sf
            .enclosing_fn_with_sig(i)
            .is_some_and(|f| G4_EXEMPT_FNS.contains(&f))
        {
            continue;
        }
        let what = if t.kind == Kind::Float {
            "float literal".to_string()
        } else {
            format!("`{}`", t.text)
        };
        out.push(Finding {
            rule: "G4",
            file: sf.rel_path.clone(),
            line: t.line,
            message: format!(
                "{what} in a fixed-point accumulator module — only `add_impurity`/`finish` \
                 may touch floats"
            ),
        });
    }
}

fn hashmap_order(sf: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    for span in &sf.fns {
        let body = &toks[span.body_start..span.body_end];
        if body
            .iter()
            .any(|t| t.kind == Kind::Ident && t.text.contains("sort"))
        {
            continue;
        }
        for i in span.body_start..span.body_end {
            let t = &toks[i];
            if t.kind != Kind::Ident || !G4_HASHMAP_FIELDS.contains(&t.text.as_str()) {
                continue;
            }
            // `field.iter()` / `.keys()` / `.values()` …
            let method_iter = toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| ITER_METHODS.iter().any(|m| n.is_ident(m)));
            // `for (k, v) in &self.field {`
            let for_iter = toks.get(i + 1).is_some_and(|n| n.is_punct('{'))
                && toks[span.body_start..i]
                    .iter()
                    .rev()
                    .take(12)
                    .any(|p| p.is_ident("in"));
            if method_iter || for_iter {
                out.push(Finding {
                    rule: "G4",
                    file: sf.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "fn `{}` iterates hash-map field `{}` on a persist path without \
                         sorting — byte output becomes nondeterministic",
                        span.name, t.text
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let sf = SourceFile::parse(path, src);
        let mut out = Vec::new();
        run(&sf, &mut out);
        out
    }

    #[test]
    fn floats_flagged_outside_boundaries() {
        let out = findings(
            "crates/av-index/src/stats.rs",
            r#"const SCALE: f64 = 1e9;
               fn add_impurity(&mut self, x: f64) { self.acc += (x * 1e9) as u64; }
               fn finish(&self) -> f64 { self.acc as f64 / 1e9 }
               fn middle(&self) -> u64 { (self.acc as f32) as u64 }"#,
        );
        // `f64` + `1e9` at top level, `f32` in `middle`; boundaries exempt.
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn unsorted_map_iteration_flagged() {
        let out = findings(
            "crates/av-index/src/persist.rs",
            r#"fn dump(&self) -> Vec<u8> {
                let mut v = Vec::new();
                for (k, c) in &self.map { v.push(*k); }
                v
            }"#,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`map`"));
    }

    #[test]
    fn sorted_iteration_passes() {
        assert!(findings(
            "crates/av-index/src/persist.rs",
            r#"fn dump(&self) -> Vec<u8> {
                let mut rows: Vec<_> = self.map.iter().collect();
                rows.sort_by_key(|(k, _)| *k);
                rows.into_iter().map(|(k, _)| *k).collect()
            }"#,
        )
        .is_empty());
    }

    #[test]
    fn out_of_scope_passes() {
        assert!(findings("crates/av-cli/src/main.rs", "fn f() -> f64 { 1.5 }",).is_empty());
    }
}
