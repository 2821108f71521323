//! **G2 storage-bypass**: inside the storage-managed crates
//! (`av-service`, `av-index`, `av-durable`) all file I/O goes through
//! the `Storage` trait. Direct `std::fs` / `File::open` / `fs::rename`
//! calls bypass the trait — which means they bypass `write_atomic`'s
//! temp-file + fsync + rename discipline and fault injection can't see
//! them. The one allowed site is `OsStorage` itself
//! ([`crate::config::G2_ALLOWED_FILES`]).

use crate::config::{G2_ALLOWED_FILES, G2_SCOPE};
use crate::diag::Finding;
use crate::lexer::Kind;
use crate::source::SourceFile;

use super::in_scope;

/// `File::` associated functions that open or create files.
const FILE_FNS: &[&str] = &["open", "create", "create_new", "options"];

/// Run the pass.
pub(crate) fn run(sf: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&sf.rel_path, G2_SCOPE) || in_scope(&sf.rel_path, G2_ALLOWED_FILES) {
        return;
    }
    let toks = &sf.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("std")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("fs"))
        {
            out.push(Finding {
                rule: "G2",
                file: sf.rel_path.clone(),
                line: t.line,
                message: "direct `std::fs` use — route file I/O through the `Storage` trait"
                    .to_string(),
            });
            i += 4;
            continue;
        }
        if t.is_ident("fs")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.kind == Kind::Ident)
        {
            out.push(Finding {
                rule: "G2",
                file: sf.rel_path.clone(),
                line: t.line,
                message: format!(
                    "direct `fs::{}` call — route file I/O through the `Storage` trait",
                    toks[i + 3].text
                ),
            });
            i += 4;
            continue;
        }
        if (t.is_ident("File") || t.is_ident("OpenOptions"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks
                .get(i + 3)
                .is_some_and(|n| FILE_FNS.iter().any(|f| n.is_ident(f)) || n.is_ident("new"))
        {
            out.push(Finding {
                rule: "G2",
                file: sf.rel_path.clone(),
                line: t.line,
                message: format!(
                    "direct `{}::{}` — open files through the `Storage` trait",
                    t.text,
                    toks[i + 3].text
                ),
            });
            i += 4;
            continue;
        }
        i += 1;
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
    fn raw_fs_in_scope_is_flagged() {
        let out = findings(
            "crates/av-index/src/persist.rs",
            r#"fn save(&self) { std::fs::rename(&tmp, &path).ok(); let f = File::create(p); }"#,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn imported_fs_is_flagged() {
        let out = findings(
            "crates/av-service/src/catalog.rs",
            "use std::fs;\nfn load() { fs::read_to_string(p).ok(); }",
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn storage_impl_and_out_of_scope_pass() {
        assert!(findings(
            "crates/av-durable/src/storage.rs",
            "fn create(&self) { std::fs::File::create(p).ok(); }",
        )
        .is_empty());
        assert!(findings(
            "crates/av-cli/src/main.rs",
            "fn go() { std::fs::read(p).ok(); }",
        )
        .is_empty());
    }
}
