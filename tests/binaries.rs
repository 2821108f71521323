//! The two binaries' command lines: what `--help` lists and what a
//! mistyped argument gets; and what `av-serve --data` keeps through a
//! kill.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

/// `av-serve --help` names every op the dispatcher has a row for — the
/// list is printed from the op table, so it cannot fall behind it.
#[test]
fn av_serve_help_lists_every_op() {
    let out = Command::new(env!("CARGO_BIN_EXE_av-serve"))
        .arg("--help")
        .output()
        .expect("run av-serve");
    assert!(out.status.success());
    let help = String::from_utf8(out.stderr).expect("utf-8 help");
    let listed = help
        .split_once("protocol ops:")
        .expect("the help lists the ops")
        .1;
    let listed: Vec<&str> = listed.split(',').map(str::trim).collect();
    let rows: Vec<&str> = av_service::telemetry::OPS
        .into_iter()
        .filter(|op| !matches!(*op, "invalid" | "unknown"))
        .collect();
    assert_eq!(rows.len(), av_service::telemetry::OPS.len() - 2);
    assert_eq!(listed, rows);
    for op in ["classify", "explain", "metrics", "watch"] {
        assert!(listed.contains(&op), "{op} is an op");
    }
}

/// An option `av-serve` does not take, or a value it cannot parse, is a
/// usage error: the usage on stderr and exit code 2, before any state is
/// opened. The auto-checkpoint cadence is a rule, not an option, and a
/// data directory is always durable, so there is no `--durable`.
#[test]
fn av_serve_usage_errors_exit_2() {
    for args in [
        &["--checkpoint-every", "5"][..],
        &["--workers", "x"],
        &["--durable"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_av-serve"))
            .args(args)
            .output()
            .expect("run av-serve");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("--checkpoint-every"), "{stderr}");
        assert!(!stderr.contains("--durable"), "{stderr}");
    }
}

/// `av-serve --data DIR` acknowledges an op only once it is logged: a
/// session that ingests and infers, never persists, and is killed leaves
/// a directory the next process lists the rule from.
#[test]
fn av_serve_data_dir_keeps_acknowledged_ops_through_a_kill() {
    let dir = std::env::temp_dir().join(format!("av-serve-kill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let serve = || {
        Command::new(env!("CARGO_BIN_EXE_av-serve"))
            .arg("--data")
            .arg(&dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("run av-serve")
    };

    let mut first = serve();
    let mut stdin = first.stdin.take().expect("piped stdin");
    let mut replies = BufReader::new(first.stdout.take().expect("piped stdout")).lines();
    for frame in [
        r#"{"op":"ingest","columns":[{"name":"d1","values":["2026-01-03","2026-01-17"]},{"name":"d2","values":["2025-02-03","2025-02-17"]},{"name":"d3","values":["2024-03-03","2024-03-17"]}]}"#,
        r#"{"op":"infer","rule":"feeds/date","values":["2026-07-01","2026-07-02"]}"#,
    ] {
        writeln!(stdin, "{frame}").expect("write a frame");
        stdin.flush().expect("flush the frame");
        let reply = replies.next().expect("a reply").expect("utf-8 reply");
        assert!(av_service::response_ok(&reply), "{frame}: {reply}");
    }
    first.kill().expect("kill the first process");
    first.wait().expect("reap the first process");

    let mut second = serve();
    let mut stdin = second.stdin.take().expect("piped stdin");
    writeln!(stdin, r#"{{"op":"catalog"}}"#).expect("write catalog");
    drop(stdin);
    let mut reply = String::new();
    BufReader::new(second.stdout.take().expect("piped stdout"))
        .read_line(&mut reply)
        .expect("read the catalog reply");
    assert!(second.wait().expect("second process exits").success());
    assert!(av_service::response_ok(&reply), "{reply}");
    assert!(reply.contains("\"feeds/date\""), "{reply}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A variant `auto-validate` does not know is an error with the usage,
/// not a silent FMDV-VH; every name the wire protocol takes is known.
#[test]
fn auto_validate_refuses_an_unknown_variant() {
    let infer = |variant: &str| {
        Command::new(env!("CARGO_BIN_EXE_auto-validate"))
            .args(["infer", "-i", "/nonexistent/lake.avix", "column.txt"])
            .args(["--variant", variant])
            .output()
            .expect("run auto-validate")
    };
    let out = infer("banana");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown variant \"banana\""), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    for known in [
        "fmdv", "v", "fmdv-v", "h", "fmdv-h", "vh", "fmdv-vh", "cmdv",
    ] {
        // Past the variant, the missing index is what stops it.
        let stderr = String::from_utf8(infer(known).stderr).expect("utf-8 stderr");
        assert!(!stderr.contains("unknown variant"), "{known}: {stderr}");
        assert!(!stderr.contains("usage:"), "{known}: {stderr}");
    }
}

/// A mistyped flag, or a flag value that does not parse, is a usage error
/// for `auto-validate` as for `av-serve`: the usage and exit code 2, and
/// no index built under a default τ.
#[test]
fn auto_validate_usage_errors_exit_2() {
    let dir = std::env::temp_dir().join(format!("av-cli-flags-{}", std::process::id()));
    let columns = dir.join("columns");
    std::fs::create_dir_all(&columns).expect("temp dir");
    std::fs::write(columns.join("ids"), "A-1\nB-22\nC-333\n").expect("column file");
    let built = dir.join("out.avix");
    let index = |flags: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_auto-validate"))
            .arg("index")
            .arg(&columns)
            .args(flags)
            .arg("-o")
            .arg(&built)
            .output()
            .expect("run auto-validate")
    };
    for flags in [&["--tua", "9"][..], &["--tau", "x"], &["--bogus"]] {
        let out = index(flags);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains("usage:"), "{flags:?}: {stderr}");
        assert!(!built.exists(), "{flags:?} built an index");
    }
    assert!(
        index(&["--tau", "9"]).status.success(),
        "spelled right, it builds"
    );
    assert!(built.exists());
    std::fs::remove_dir_all(&dir).ok();
}
