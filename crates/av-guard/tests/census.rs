//! Public-item census: for every crate under `crates/` (vendored shims
//! included), the `pub` items of its library that no file outside that
//! library names — not another crate, not a root binary, test or example,
//! not `bench/src`, not the crate's own tests, benches or binaries. A
//! name search, so a hit is a lead, not a verdict.
//!
//! `cargo test -p av-guard --test census -- --ignored --nocapture`

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const KINDS: &str = "fn struct enum trait type const static union";

fn rust_files(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path.clone(), fs::read_to_string(&path).unwrap()));
        }
    }
}

fn idents(text: &str) -> impl Iterator<Item = &str> {
    let words = text.split(|c: char| !c.is_alphanumeric() && c != '_');
    words.filter(|w| !w.is_empty())
}

/// The name a `pub fn|struct|enum|trait|type|const|static|union` line declares.
fn pub_item(line: &str) -> Option<&str> {
    let mut words = line.trim_start().strip_prefix("pub ")?.split_whitespace();
    let is_kind = |w: &str| KINDS.split(' ').any(|k| k == w);
    let mut kind = false;
    let word = words.find(|w| {
        kind |= is_kind(w);
        !is_kind(w) && !["unsafe", "async", "mut"].contains(w)
    })?;
    let name = idents(word).next()?;
    (kind && word.starts_with(name)).then_some(name)
}

#[test]
#[ignore = "a report, not a gate: run with --ignored --nocapture"]
fn public_items_named_only_inside_their_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut files, mut crates) = (Vec::new(), Vec::new());
    for dir in ["crates", "src", "tests", "examples", "bench/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    for dir in ["crates", "crates/vendor"] {
        for entry in fs::read_dir(root.join(dir)).into_iter().flatten().flatten() {
            if entry.path().join("src").is_dir() {
                crates.push(entry.path());
            }
        }
    }
    crates.sort();
    let (mut unused_total, mut items_total) = (0, 0);
    for krate in &crates {
        let (src, bin) = (krate.join("src"), krate.join("src/bin"));
        let (mut items, mut outside) = (Vec::new(), HashSet::new());
        for (path, text) in &files {
            if path.starts_with(&src) && !path.starts_with(&bin) && !path.ends_with("main.rs") {
                items.extend(text.lines().filter_map(pub_item));
            } else {
                outside.extend(idents(text));
            }
        }
        items.sort();
        let mut unused = items.clone();
        unused.retain(|i| !outside.contains(i));
        let name = krate.file_name().unwrap_or_default().to_string_lossy();
        println!("{name}: {} of {} — {unused:?}", unused.len(), items.len());
        (unused_total, items_total) = (unused_total + unused.len(), items_total + items.len());
    }
    println!("total: {unused_total} of {items_total} public items named only inside their crate's library");
}
