//! # av-guard — workspace invariant linter
//!
//! A self-contained static analysis over this workspace's own Rust
//! sources. No external parser: a hand-rolled `lexer` (in the same
//! house style as the byte-level pattern matchers) feeds token-level
//! rule passes, with scope tables and the global lock hierarchy checked
//! in as code (`config`). Run as a CI gate:
//!
//! ```text
//! cargo run -p av-guard --release -- --deny
//! ```
//!
//! ## Rules
//!
//! | ID | Name | What it defends |
//! |----|------|-----------------|
//! | `G0` | allow hygiene | Every `// av-guard: allow(<rule>, reason = "…")` must name a known rule, carry a non-empty reason, and actually suppress something. Malformed, reason-less, or unused allows are findings — an allow is a justified debt record, not a mute button. |
//! | `G1` | lock-order | Nested `.lock()`/`.read()`/`.write()` acquisitions of the tracked locks must ascend the global hierarchy (`config::LOCK_HIERARCHY`, canonically documented in `crates/av-service/src/lockorder.rs`). Inversions are the statically-visible half of a deadlock; the runtime tracker in av-service checks the same table under `debug_assertions`. |
//! | `G2` | storage-bypass | In av-service/av-index/av-durable, file I/O goes through the `Storage` trait. Direct `std::fs`/`File::open`/`fs::rename` bypasses `write_atomic`'s temp+fsync+rename discipline and is invisible to fault injection. Only `OsStorage` itself touches the real filesystem. |
//! | `G3` | panic-path | Event-loop and connection code (`av-service/src/server/`) must not panic: no `unwrap`/`expect`/`panic!`/slice-index. A loop's panic takes down every connection on it. |
//! | `G4` | determinism | The av-index accumulator modules are fixed-point so shard merges commute; no `f32`/`f64` outside the two sanctioned conversion boundaries. On persist paths, no unsorted hash-map iteration feeding bytes. |
//! | `G5` | blocking-in-reactor | No `thread::sleep`, channel `recv`, blocking reads, or `join`/`wait` in event-loop code — one blocked call stalls every connection on the loop. The poller's own wait is the one configured exemption. |
//!
//! ## Escape hatch
//!
//! ```text
//! // av-guard: allow(G3, reason = "shutdown path; queue already drained")
//! ```
//!
//! placed on the offending line or the line directly above. The reason
//! string is mandatory and must be non-empty; `G0` enforces that and
//! flags allows that no longer suppress anything.

mod config;
mod diag;
mod lexer;
mod rules;
mod source;

use std::io;
use std::path::{Path, PathBuf};

pub use diag::{Finding, Report};
use source::SourceFile;

/// Rule IDs an allow annotation may name (`G0` itself cannot be
/// allowed).
pub(crate) const KNOWN_RULES: &[&str] = &["G1", "G2", "G3", "G4", "G5"];

/// Scan one file's text under its workspace-relative path. This is the
/// whole linter for one file: rule passes, then allow matching, then
/// allow hygiene (`G0`).
pub fn scan_source(rel_path: &str, text: &str) -> Report {
    let sf = SourceFile::parse(rel_path, text);
    let mut findings = Vec::new();
    rules::g1::run(&sf, &mut findings);
    rules::g2::run(&sf, &mut findings);
    rules::g3::run(&sf, &mut findings);
    rules::g4::run(&sf, &mut findings);
    rules::g5::run(&sf, &mut findings);

    // An allow suppresses findings of its rule on its own line or the
    // line directly below.
    let mut used = vec![false; sf.allows.len()];
    let mut honored = 0usize;
    findings.retain(|f| {
        for (k, a) in sf.allows.iter().enumerate() {
            if a.rule == f.rule && (f.line == a.line || f.line == a.line + 1) {
                used[k] = true;
                honored += 1;
                return false;
            }
        }
        true
    });

    for b in &sf.bad_allows {
        findings.push(Finding {
            rule: "G0",
            file: rel_path.to_string(),
            line: b.line,
            message: b.message.clone(),
        });
    }
    for (k, a) in sf.allows.iter().enumerate() {
        if !KNOWN_RULES.contains(&a.rule.as_str()) {
            findings.push(Finding {
                rule: "G0",
                file: rel_path.to_string(),
                line: a.line,
                message: format!("allow names unknown rule `{}`", a.rule),
            });
        } else if !used[k] {
            findings.push(Finding {
                rule: "G0",
                file: rel_path.to_string(),
                line: a.line,
                message: format!(
                    "allow({}) suppresses nothing on this line or the next — remove it",
                    a.rule
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    Report {
        findings,
        files_scanned: 1,
        allows_honored: honored,
    }
}

/// Scan the whole workspace under `root`: the root package's `src/` and
/// every `crates/*/src/` except the vendored shims, which are external
/// code held to external rules.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "vendor"))
            .collect();
        members.sort();
        for m in members {
            collect_rs(&m.join("src"), &mut files)?;
        }
    }
    files.sort();

    let mut report = Report::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path)?;
        report.absorb(scan_source(&rel, &text));
    }
    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_suppresses_and_is_counted() {
        let src = r#"
            fn f(v: &[u8]) {
                // av-guard: allow(G3, reason = "length checked by caller")
                let b = &v[1..3];
            }
        "#;
        let r = scan_source("crates/av-service/src/server/conn.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allows_honored, 1);
    }

    #[test]
    fn unused_and_malformed_allows_are_g0() {
        let src = r#"
            // av-guard: allow(G3, reason = "nothing here to suppress")
            fn clean() {}
            // av-guard: allow(G3)
            fn also_clean() {}
            // av-guard: allow(G9, reason = "no such rule")
            fn still_clean() {}
        "#;
        let r = scan_source("crates/av-service/src/server/conn.rs", src);
        assert_eq!(r.of_rule("G0").len(), 3, "{:?}", r.findings);
        assert_eq!(r.allows_honored, 0);
    }

    #[test]
    fn inline_allow_on_same_line_works() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] } // av-guard: allow(G3, reason = \"caller guarantees non-empty\")\n";
        let r = scan_source("crates/av-service/src/server/conn.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
