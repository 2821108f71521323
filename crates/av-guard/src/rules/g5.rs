//! **G5 blocking-in-reactor**: an event loop multiplexes its connections
//! on one thread and executes their requests there — a blocking call
//! stalls all of them at once. Banned in event-loop code: `thread::sleep`,
//! channel `recv`, blocking reads, `join`/`wait`. The one exemption is
//! configured, not inferred: the poller's own event wait
//! ([`crate::config::G5_ALLOWED_RECEIVERS`]).

use crate::config::{G5_ALLOWED_RECEIVERS, G5_BANNED, G5_SCOPE};
use crate::diag::Finding;
use crate::source::SourceFile;

use super::{in_scope, is_method_call, is_path_call, receiver_of};

/// Run the pass.
pub(crate) fn run(sf: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&sf.rel_path, G5_SCOPE) {
        return;
    }
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !G5_BANNED.contains(&t.text.as_str()) {
            continue;
        }
        let method = is_method_call(toks, i);
        if !method && !is_path_call(toks, i) {
            continue;
        }
        if method {
            let recv = receiver_of(toks, i, 0);
            if recv.is_some_and(|r| {
                G5_ALLOWED_RECEIVERS
                    .iter()
                    .any(|(name, rx)| t.text == *name && r == *rx)
            }) {
                continue;
            }
        }
        out.push(Finding {
            rule: "G5",
            file: sf.rel_path.clone(),
            line: t.line,
            message: format!(
                "blocking `{}` call in event-loop code — every connection on the loop stalls behind it",
                t.text
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::parse("crates/av-service/src/server/event_loop.rs", src);
        let mut out = Vec::new();
        run(&sf, &mut out);
        out
    }

    #[test]
    fn blocking_calls_flagged() {
        let out = findings(
            r#"fn dispatch(&mut self) {
                std::thread::sleep(d);
                let job = rx.recv();
                sock.read_to_end(&mut buf).ok();
            }"#,
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn poller_wait_passes_and_no_function_is_exempt() {
        assert!(findings(
            r#"fn run(&mut self) { let n = self.poller.wait(&mut events, timeout); }"#
        )
        .is_empty());
        let out = findings(r#"fn worker_loop(q: &Queue) { self.job_ready.wait(guard); }"#);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn out_of_scope_passes() {
        let sf = SourceFile::parse(
            "crates/av-service/src/server/netfault.rs",
            "fn f() { std::thread::sleep(d); }",
        );
        let mut out = Vec::new();
        run(&sf, &mut out);
        assert!(out.is_empty());
    }
}
