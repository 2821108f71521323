//! **G1 lock-order**: within a function, nested acquisitions of the
//! tracked locks (see [`crate::config::LOCK_HIERARCHY`]) must be
//! strictly ascending in rank. Acquiring a lower-ranked lock while a
//! higher-ranked one is held is the half of a deadlock this pass can see
//! statically; the other half is the runtime tracker in
//! `crates/av-service/src/lockorder.rs`.
//!
//! The interpreter mirrors Rust's guard lifetimes closely enough to
//! avoid false positives on the real tree:
//!
//! * an acquisition is a `.lock()`, `.read()`, or `.write()` call with
//!   **empty parens** whose receiver resolves to a hierarchy name
//!   (nearest preceding identifier over bracket groups, falling back to
//!   any hierarchy identifier earlier in the statement — which catches
//!   a lock reached through a closure parameter,
//!   `[&self.wal].iter().map(|m| m.lock())`);
//! * the guard is **bound** (held to end of scope) iff the call chain —
//!   after skipping `.unwrap()`/`.expect("…")` — ends at `;` inside a
//!   `let` statement, or ends a tuple literal that is a `let`
//!   initializer (`let (_r, g) = (rank_guard(R), x.lock().expect(…));`);
//! * otherwise it is a **temporary**, released at the next `;` at the
//!   acquisition's brace depth or shallower (and at match-arm `=>`
//!   boundaries, so sibling arms don't see each other's temporaries);
//! * `drop(ident)` releases the bound guard named `ident`; closing `}`
//!   releases everything acquired inside the block;
//! * re-acquiring a held lock is an inversion like any other: no lock in
//!   the hierarchy is a family of same-rank instances.

use crate::config::{lock_by_name, LockEntry};
use crate::diag::Finding;
use crate::lexer::{Kind, Tok};
use crate::source::{FnSpan, SourceFile};

use super::{matching_close_forward, matching_open_backward, receiver_of};

struct Held {
    entry: &'static LockEntry,
    /// Brace depth at acquisition (body `{` is depth 1).
    depth: i32,
    /// Bound guards survive `;`; temporaries do not.
    bound: bool,
    /// Binding-pattern identifiers, so `drop(name)` can release.
    names: Vec<String>,
    line: u32,
}

/// Run the pass over every function in the file.
pub(crate) fn run(sf: &SourceFile, out: &mut Vec<Finding>) {
    for span in &sf.fns {
        check_fn(sf, span, out);
    }
}

fn check_fn(sf: &SourceFile, span: &FnSpan, out: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_start = span.body_start;
    let mut i = span.body_start;
    while i < span.body_end {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            stmt_start = i + 1;
        } else if t.is_punct('}') {
            held.retain(|h| h.depth < depth);
            depth -= 1;
            stmt_start = i + 1;
        } else if t.is_punct(';') {
            held.retain(|h| h.bound || h.depth < depth);
            stmt_start = i + 1;
        } else if t.is_punct('=') && toks.get(i + 1).is_some_and(|n| n.is_punct('>')) {
            // Match-arm boundary: the previous arm's temporaries are gone.
            held.retain(|h| h.bound || h.depth < depth);
            i += 2;
            continue;
        } else if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == Kind::Ident)
            && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            let name = &toks[i + 2].text;
            held.retain(|h| !h.names.iter().any(|n| n == name));
            i += 4;
            continue;
        } else if is_acquisition(toks, i) {
            if let Some(entry) = resolve(toks, i, stmt_start) {
                for h in &held {
                    if h.entry.rank >= entry.rank {
                        out.push(Finding {
                            rule: "G1",
                            file: sf.rel_path.clone(),
                            line: t.line,
                            message: format!(
                                "fn `{}` acquires `{}` (rank {}) while holding `{}` (rank {}, \
                                 acquired line {}) — violates the lock hierarchy",
                                span.name,
                                entry.name,
                                entry.rank,
                                h.entry.name,
                                h.entry.rank,
                                h.line
                            ),
                        });
                        break;
                    }
                }
                let (bound, names) = classify_binding(toks, i, stmt_start, span.body_end);
                held.push(Held {
                    entry,
                    depth,
                    bound,
                    names,
                    line: t.line,
                });
            }
        }
        i += 1;
    }
}

/// `.lock()`, `.read()`, or `.write()` with empty parens. The empty-paren
/// requirement is what keeps `io::Read::read(&mut buf)` and
/// `cv.wait(guard)` out of the model.
fn is_acquisition(toks: &[Tok], i: usize) -> bool {
    let t = &toks[i];
    (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
}

/// Resolve the acquisition's receiver to a hierarchy entry: direct
/// receiver first, then any hierarchy identifier earlier in the same
/// statement (closure-parameter indirection).
fn resolve(toks: &[Tok], name_idx: usize, stmt_start: usize) -> Option<&'static LockEntry> {
    if let Some(recv) = receiver_of(toks, name_idx, stmt_start) {
        if let Some(entry) = lock_by_name(recv) {
            return Some(entry);
        }
    }
    let mut j = name_idx.checked_sub(2)?;
    while j >= stmt_start {
        if toks[j].kind == Kind::Ident {
            if let Some(entry) = lock_by_name(&toks[j].text) {
                return Some(entry);
            }
        }
        if j == 0 {
            break;
        }
        j -= 1;
    }
    None
}

/// Bound or temporary? Returns the binding-pattern identifiers when
/// bound (for `drop(name)` release).
fn classify_binding(
    toks: &[Tok],
    name_idx: usize,
    stmt_start: usize,
    end: usize,
) -> (bool, Vec<String>) {
    // Step over the call parens, then any `.unwrap()` / `.expect("…")`.
    let mut j = name_idx + 3;
    loop {
        if j + 2 < end
            && toks[j].is_punct('.')
            && (toks[j + 1].is_ident("unwrap") || toks[j + 1].is_ident("expect"))
            && toks[j + 2].is_punct('(')
        {
            j = matching_close_forward(toks, j + 2) + 1;
        } else {
            break;
        }
    }
    let temp = (false, Vec::new());
    let Some(t) = toks.get(j) else { return temp };
    let ends_stmt = if t.is_punct(';') {
        true
    } else if t.is_punct(')') {
        // Tuple-initializer case: the chain ends a parenthesized list
        // sitting directly after `=`.
        let open = matching_open_backward(toks, j, '(', ')');
        open > 0
            && open != j
            && toks[open - 1].is_punct('=')
            && toks.get(j + 1).is_some_and(|n| n.is_punct(';'))
    } else {
        false
    };
    if !ends_stmt {
        return temp;
    }
    // Bound only if the statement is a `let`; collect pattern idents.
    let mut names = Vec::new();
    let mut saw_let = false;
    for t in &toks[stmt_start..name_idx] {
        if t.is_ident("let") {
            saw_let = true;
        } else if saw_let && t.is_punct('=') {
            break;
        } else if saw_let && t.kind == Kind::Ident && t.text != "mut" {
            names.push(t.text.clone());
        }
    }
    if saw_let {
        (true, names)
    } else {
        temp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::parse("crates/av-service/src/engine.rs", src);
        let mut out = Vec::new();
        run(&sf, &mut out);
        out
    }

    #[test]
    fn inversion_is_flagged() {
        let out = findings(
            r#"fn bad(&self) {
                let catalog = self.catalog.write().expect("poisoned");
                let wal = self.wal.lock().expect("poisoned");
            }"#,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`wal`"));
        assert!(out[0].message.contains("`catalog`"));
    }

    #[test]
    fn ascending_order_passes() {
        assert!(findings(
            r#"fn good(&self) {
                let wal = self.wal.lock().expect("p");
                let catalog = self.catalog.write().expect("p");
            }"#,
        )
        .is_empty());
    }

    #[test]
    fn temporary_releases_at_semicolon() {
        assert!(findings(
            r#"fn good(&self) {
                let removed = self.catalog.write().expect("p").remove(name).is_some();
                let e = self.epoch.write().expect("p");
            }"#,
        )
        .is_empty());
    }

    #[test]
    fn drop_releases_bound_guard() {
        assert!(findings(
            r#"fn good(&self) {
                let classifier = self.classifier.read().expect("p");
                drop(classifier);
                let catalog = self.catalog.write().expect("p");
            }"#,
        )
        .is_empty());
    }

    #[test]
    fn scope_exit_releases() {
        assert!(findings(
            r#"fn good(&self) {
                {
                    let classifier = self.classifier.read().expect("p");
                }
                let catalog = self.catalog.write().expect("p");
            }"#,
        )
        .is_empty());
    }

    #[test]
    fn tuple_initializer_binds() {
        let out = findings(
            r#"fn bad(&self) {
                let (_r, g) = (rank_guard(70), self.catalog.write().expect("p"));
                let (_r2, g2) = (rank_guard(20), self.wal.lock().expect("p"));
            }"#,
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn same_lock_twice_is_flagged() {
        let out = findings(
            r#"fn bad(&self) {
                let a = self.wal.lock().expect("p");
                let b = self.wal.lock().expect("p");
            }"#,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn closure_receiver_falls_back_to_statement() {
        assert!(findings(
            r#"fn good(&self) {
                let _guards: Vec<_> = [&self.wal].iter().map(|m| m.lock().expect("p")).collect();
            }"#,
        )
        .is_empty());
        let out = findings(
            r#"fn bad(&self) {
                let c = self.classifier.read().expect("p");
                let _guards: Vec<_> = [&self.wal].iter().map(|m| m.lock().expect("p")).collect();
            }"#,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn match_arms_do_not_leak_temporaries() {
        assert!(findings(
            r#"fn good(&self, x: u32) -> bool {
                match x {
                    0 => self.classifier.read().expect("p").is_empty(),
                    _ => self.catalog.read().expect("p").is_empty(),
                }
            }"#,
        )
        .is_empty());
    }

    #[test]
    fn untracked_receivers_are_ignored() {
        assert!(findings(
            r#"fn good(&self) {
                let jobs = self.queues.jobs.lock().expect("p");
                let state = self.state.lock().expect("p");
            }"#,
        )
        .is_empty());
    }
}
