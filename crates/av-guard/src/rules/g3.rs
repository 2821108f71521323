//! **G3 panic-path**: the event loops and their connections
//! (`crates/av-service/src/server/`) must not panic. A panicking loop
//! takes every connection on it down, and with it the server. Banned in non-test code there: `.unwrap()`,
//! `.expect(…)`, `panic!`, and slice indexing (`buf[a..b]`, `v[i]`) —
//! use `.get(…)`/pattern matching, or poison-recovery
//! (`.unwrap_or_else(|e| e.into_inner())`) for mutexes.

use crate::config::G3_SCOPE;
use crate::diag::Finding;
use crate::lexer::Kind;
use crate::source::SourceFile;

use super::{in_scope, is_method_call};

/// Run the pass.
pub(crate) fn run(sf: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&sf.rel_path, G3_SCOPE) {
        return;
    }
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if is_method_call(toks, i) && (t.text == "unwrap" || t.text == "expect") {
            out.push(Finding {
                rule: "G3",
                file: sf.rel_path.clone(),
                line: t.line,
                message: format!(
                    "`.{}(…)` in event-loop code can panic — handle the None/Err \
                     (poison-recover mutexes with `unwrap_or_else(|e| e.into_inner())`)",
                    t.text
                ),
            });
        } else if (t.is_ident("panic") || t.is_ident("unreachable") || t.is_ident("todo"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(Finding {
                rule: "G3",
                file: sf.rel_path.clone(),
                line: t.line,
                message: format!("`{}!` in event-loop code kills the thread", t.text),
            });
        } else if t.is_punct('[')
            && i > 0
            && (toks[i - 1].kind == Kind::Ident
                || toks[i - 1].is_punct(']')
                || toks[i - 1].is_punct(')'))
            // `&mut [u8]` / `dyn [..]` are types, not indexing.
            && !toks[i - 1].is_ident("mut")
            && !toks[i - 1].is_ident("dyn")
        {
            out.push(Finding {
                rule: "G3",
                file: sf.rel_path.clone(),
                line: t.line,
                message: "slice/array index in event-loop code can panic — use `.get(…)` \
                          or split/pattern APIs"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::parse("crates/av-service/src/server/conn.rs", src);
        let mut out = Vec::new();
        run(&sf, &mut out);
        out
    }

    #[test]
    fn panics_are_flagged() {
        let out = findings(
            r#"fn f(v: &[u8]) {
                let a = v.first().unwrap();
                let b = q.lock().expect("poisoned");
                let c = &v[1..3];
                panic!("boom");
            }"#,
        );
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn safe_forms_pass() {
        assert!(findings(
            r#"fn f(v: &[u8]) -> Option<u8> {
                let buf: [u8; 4] = [0; 4];
                let g = q.lock().unwrap_or_else(|e| e.into_inner());
                v.get(1).copied()
            }"#,
        )
        .is_empty());
    }

    #[test]
    fn out_of_scope_passes() {
        let sf = SourceFile::parse("crates/av-service/src/engine.rs", "fn f() { x.unwrap(); }");
        let mut out = Vec::new();
        run(&sf, &mut out);
        assert!(out.is_empty());
    }
}
