//! The two binaries' command lines: what `--help` lists and what a
//! mistyped argument gets.

use std::process::Command;

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
/// opened. The auto-checkpoint cadence is a rule, not an option.
#[test]
fn av_serve_usage_errors_exit_2() {
    for args in [["--checkpoint-every", "5"], ["--workers", "x"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_av-serve"))
            .args(args)
            .output()
            .expect("run av-serve");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("--checkpoint-every"), "{stderr}");
    }
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
