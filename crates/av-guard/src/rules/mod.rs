//! The rule passes. Each `gN::run` takes a prepared
//! [`SourceFile`](crate::source::SourceFile) and
//! appends findings; scope filtering (which files a rule even looks at)
//! lives in [`crate::config`], not here.

pub(crate) mod g1;
pub(crate) mod g2;
pub(crate) mod g3;
pub(crate) mod g4;
pub(crate) mod g5;

use crate::lexer::{Kind, Tok};

/// Does `path` fall under any of the scope prefixes? Entries may be
/// directory prefixes (`crates/av-service/src/server/`) or exact files.
pub(crate) fn in_scope(path: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| path.starts_with(s))
}

/// Is token `i` a method-call name: `.name(`?
pub(crate) fn is_method_call(toks: &[Tok], i: usize) -> bool {
    toks[i].kind == Kind::Ident
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Is token `i` a path-call name: `::name(`?
pub(crate) fn is_path_call(toks: &[Tok], i: usize) -> bool {
    toks[i].kind == Kind::Ident
        && i > 1
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Index of the `[`/`(` matching the closer at `close`, scanning
/// backward. Returns `close` itself if unmatched (caller treats that as
/// "stop here").
pub(crate) fn matching_open_backward(toks: &[Tok], close: usize, open: char, shut: char) -> usize {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        if toks[j].is_punct(shut) {
            depth += 1;
        } else if toks[j].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        if j == 0 {
            return close;
        }
        j -= 1;
    }
}

/// Index of the `)` matching the opener at `open`, scanning forward.
pub(crate) fn matching_close_forward(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len() - 1
}

/// Resolve the receiver identifier of the method call whose name is at
/// `name_idx` (so `toks[name_idx - 1]` is the `.`): the nearest
/// preceding identifier, walking back over `[...]`/`(...)` groups and
/// `?`. `shards[i].lock()` resolves to `shards`;
/// `self.epoch.read()` to `epoch`.
pub(crate) fn receiver_of(toks: &[Tok], name_idx: usize, floor: usize) -> Option<&str> {
    let mut j = name_idx.checked_sub(2)?;
    loop {
        if j < floor {
            return None;
        }
        let t = &toks[j];
        if t.is_punct(']') {
            let open = matching_open_backward(toks, j, '[', ']');
            if open == j || open == 0 {
                return None;
            }
            j = open - 1;
        } else if t.is_punct(')') {
            let open = matching_open_backward(toks, j, '(', ')');
            if open == j || open == 0 {
                return None;
            }
            j = open - 1;
        } else if t.is_punct('?') {
            if j == 0 {
                return None;
            }
            j -= 1;
        } else if t.kind == Kind::Ident {
            return Some(&t.text);
        } else {
            return None;
        }
    }
}
