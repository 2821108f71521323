//! Source-file preparation: allow-annotation parsing, `#[cfg(test)]`
//! stripping, function-span discovery, and the workspace walker.

use crate::lexer::{self, Kind, Tok};

/// One parsed `// av-guard: allow(<rule>, reason = "...")` annotation.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    /// 1-based line of the comment. The allow suppresses findings on
    /// this line and the line directly below (annotation-above style).
    pub line: u32,
    /// Rule ID the allow names (its mandatory reason is checked at parse
    /// time and not kept).
    pub rule: String,
}

/// A malformed annotation (missing reason, bad syntax) — reported as a
/// `G0` finding, never honored.
#[derive(Debug, Clone)]
pub(crate) struct BadAllow {
    /// 1-based line of the comment.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

/// A function's name and the token ranges of its signature and body.
#[derive(Debug, Clone)]
pub(crate) struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index one past the body's closing `}`.
    pub body_end: usize,
}

/// A file ready for rule passes: test code stripped, allows parsed.
#[derive(Debug)]
pub(crate) struct SourceFile {
    /// Workspace-relative path (rule scopes match against this).
    pub rel_path: String,
    /// Non-test, non-comment tokens.
    pub tokens: Vec<Tok>,
    /// Well-formed allow annotations.
    pub allows: Vec<Allow>,
    /// Malformed annotations (become `G0` findings).
    pub bad_allows: Vec<BadAllow>,
    /// Function spans over `tokens`.
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lex and prepare one file's text.
    pub(crate) fn parse(rel_path: &str, text: &str) -> SourceFile {
        let out = lexer::lex(text);
        let mut allows = Vec::new();
        let mut bad_allows = Vec::new();
        for c in &out.comments {
            match parse_allow(&c.text) {
                None => {}
                Some(Ok((rule, _reason))) => allows.push(Allow { line: c.line, rule }),
                Some(Err(message)) => bad_allows.push(BadAllow {
                    line: c.line,
                    message,
                }),
            }
        }
        let tokens = strip_test_code(out.tokens);
        let fns = find_fns(&tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            tokens,
            allows,
            bad_allows,
            fns,
        }
    }

    /// The name of the function whose body contains token `idx`, if any.
    /// With nested `fn` items the innermost wins.
    #[cfg(test)]
    pub(crate) fn enclosing_fn(&self, idx: usize) -> Option<&str> {
        self.fns
            .iter()
            .rfind(|f| f.body_start <= idx && idx < f.body_end)
            .map(|f| f.name.as_str())
    }

    /// Like [`enclosing_fn`](Self::enclosing_fn), but the span includes
    /// the signature — a sanctioned float boundary's `x: f64` parameter
    /// is part of the boundary.
    pub(crate) fn enclosing_fn_with_sig(&self, idx: usize) -> Option<&str> {
        self.fns
            .iter()
            .rfind(|f| f.sig_start <= idx && idx < f.body_end)
            .map(|f| f.name.as_str())
    }
}

/// Parse an allow annotation out of one comment's text.
///
/// Returns `None` for comments that are not av-guard directives,
/// `Some(Ok((rule, reason)))` for a well-formed allow, and
/// `Some(Err(why))` for a malformed one.
fn parse_allow(text: &str) -> Option<Result<(String, String), String>> {
    // Doc comments (`///` → text starts with `/`, `//!` → `!`) are
    // documentation *about* the directive, never the directive itself.
    if text.starts_with('/') || text.starts_with('!') {
        return None;
    }
    let idx = text.find("av-guard:")?;
    let rest = text[idx + "av-guard:".len()..].trim();
    let Some(body) = rest.strip_prefix("allow(") else {
        return Some(Err(format!(
            "unrecognized av-guard directive (expected `allow(<rule>, reason = \"...\")`): {rest}"
        )));
    };
    let Some(comma) = body.find(',') else {
        return Some(Err(
            "allow annotation is missing its mandatory `reason = \"...\"`".to_string(),
        ));
    };
    let rule = body[..comma].trim().to_string();
    if rule.is_empty() {
        return Some(Err("allow annotation names no rule".to_string()));
    }
    let after = body[comma + 1..].trim_start();
    let Some(after) = after.strip_prefix("reason") else {
        return Some(Err(
            "allow annotation is missing its mandatory `reason = \"...\"`".to_string(),
        ));
    };
    let after = after.trim_start();
    let Some(after) = after.strip_prefix('=') else {
        return Some(Err("allow reason must be `reason = \"...\"`".to_string()));
    };
    let after = after.trim_start();
    let Some(after) = after.strip_prefix('"') else {
        return Some(Err("allow reason must be a quoted string".to_string()));
    };
    // The reason runs to the last quote (reasons may contain parens).
    let Some(endq) = after.rfind('"') else {
        return Some(Err("allow reason string is unterminated".to_string()));
    };
    let reason = after[..endq].trim().to_string();
    if reason.is_empty() {
        return Some(Err(
            "allow annotation has an empty reason — write down why".to_string()
        ));
    }
    if !after[endq + 1..].trim_start().starts_with(')') {
        return Some(Err(
            "allow annotation is missing its closing `)`".to_string()
        ));
    }
    Some(Ok((rule, reason)))
}

/// Remove `#[cfg(test)]`-attributed items and `#[test]` functions from
/// the token stream. The item after the attribute (plus any further
/// attributes) is skipped to its closing `}` or terminating `;`.
fn strip_test_code(tokens: Vec<Tok>) -> Vec<Tok> {
    let mut keep = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(attr_end) = match_test_attr(&tokens, i) {
            // Skip any further attributes stacked on the same item.
            let mut j = attr_end;
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attr(&tokens, j);
            }
            i = skip_item(&tokens, j);
            continue;
        }
        keep.push(tokens[i].clone());
        i += 1;
    }
    keep
}

/// If tokens at `i` start `#[cfg(test)]` or `#[test]`, return the index
/// one past the closing `]`.
fn match_test_attr(tokens: &[Tok], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct('#') || !tokens.get(i + 1)?.is_punct('[') {
        return None;
    }
    let t2 = tokens.get(i + 2)?;
    if t2.is_ident("test") && tokens.get(i + 3)?.is_punct(']') {
        return Some(i + 4);
    }
    if t2.is_ident("cfg")
        && tokens.get(i + 3)?.is_punct('(')
        && tokens.get(i + 4)?.is_ident("test")
        && tokens.get(i + 5)?.is_punct(')')
        && tokens.get(i + 6)?.is_punct(']')
    {
        return Some(i + 7);
    }
    None
}

/// Skip one `#[...]` attribute starting at the `#`; returns the index
/// one past the matching `]`.
fn skip_attr(tokens: &[Tok], i: usize) -> usize {
    let mut j = i + 1;
    if j >= tokens.len() || !tokens[j].is_punct('[') {
        return i + 1;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Skip one item starting at `i`: to the matching `}` of its first
/// top-level brace block, or to the first `;` before any brace opens.
fn skip_item(tokens: &[Tok], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth <= 0 {
                return j + 1;
            }
        } else if t.is_punct(';') && depth == 0 {
            return j + 1;
        }
        j += 1;
    }
    j
}

/// Find every `fn` item's name and body token range.
fn find_fns(tokens: &[Tok]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some(name_tok) = tokens.get(i + 1) {
                if name_tok.kind == Kind::Ident {
                    // Find the body `{` — or a `;` first (trait method
                    // declaration, no body).
                    let mut j = i + 2;
                    let mut body = None;
                    while j < tokens.len() {
                        if tokens[j].is_punct('{') {
                            body = Some(j);
                            break;
                        }
                        if tokens[j].is_punct(';') {
                            break;
                        }
                        j += 1;
                    }
                    if let Some(start) = body {
                        let mut depth = 0i32;
                        let mut k = start;
                        while k < tokens.len() {
                            if tokens[k].is_punct('{') {
                                depth += 1;
                            } else if tokens[k].is_punct('}') {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            k += 1;
                        }
                        fns.push(FnSpan {
                            name: name_tok.text.clone(),
                            sig_start: i,
                            body_start: start,
                            body_end: (k + 1).min(tokens.len()),
                        });
                    }
                }
            }
        }
        i += 1;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allows_parse_and_misparse() {
        assert!(parse_allow("just a comment").is_none());
        assert!(parse_allow("/ doc text: av-guard: allow(G3, reason = \"x\")").is_none());
        assert!(parse_allow("! doc text: av-guard: allow(G3)").is_none());
        let ok =
            parse_allow(r#" av-guard: allow(G3, reason = "shutdown path (already drained)") "#)
                .unwrap()
                .unwrap();
        assert_eq!(ok.0, "G3");
        assert_eq!(ok.1, "shutdown path (already drained)");
        assert!(parse_allow(" av-guard: allow(G3)").unwrap().is_err());
        assert!(parse_allow(r#" av-guard: allow(G3, reason = "")"#)
            .unwrap()
            .is_err());
        assert!(parse_allow(" av-guard: deny(G3)").unwrap().is_err());
    }

    #[test]
    fn test_mods_and_test_fns_are_stripped() {
        let src = r#"
            fn live() { let x = 1; }
            #[cfg(test)]
            mod tests {
                #[test]
                fn gone() { panic!("in test"); }
            }
            #[test]
            fn also_gone() { let y = 2; }
            fn live_too() {}
        "#;
        let f = SourceFile::parse("x.rs", src);
        let names: Vec<_> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live", "live_too"]);
        assert!(!f.tokens.iter().any(|t| t.is_ident("panic")));
    }

    /// Non-test code per crate: over the root package's `src/` and every
    /// `crates/*/src/` but the vendored shims, the distinct lines on which
    /// a token starts, once comments are dropped and `#[cfg(test)]` /
    /// `#[test]` items are stripped as for every rule pass. Blank lines,
    /// comment lines and test items anywhere in a file do not count, so
    /// two counts of one tree agree however its test code is placed.
    ///
    /// `cargo test -p av-guard --lib code_lines -- --ignored --nocapture`
    #[test]
    #[ignore = "a report, not a gate: run with --ignored --nocapture"]
    fn code_lines_per_crate() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut crates = vec![("auto-validate".to_string(), root.join("src"))];
        for entry in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name != "vendor" && entry.path().join("src").is_dir() {
                crates.push((name, entry.path().join("src")));
            }
        }
        crates.sort();
        let mut total = 0;
        for (name, src) in crates {
            let mut files = Vec::new();
            crate::collect_rs(&src, &mut files).unwrap();
            let lines: usize = files
                .iter()
                .map(|path| {
                    let text = std::fs::read_to_string(path).unwrap();
                    let tokens = strip_test_code(lexer::lex(&text).tokens);
                    let mut lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
                    lines.dedup();
                    lines.len()
                })
                .sum();
            println!(
                "{name}: {lines} non-test code lines in {} files",
                files.len()
            );
            total += lines;
        }
        println!("total: {total} non-test code lines");
    }

    #[test]
    fn enclosing_fn_resolves() {
        let f = SourceFile::parse("x.rs", "fn a() { inner(); } fn b() { other(); }");
        let idx = f.tokens.iter().position(|t| t.is_ident("other")).unwrap();
        assert_eq!(f.enclosing_fn(idx), Some("b"));
    }
}
