//! `exp` runs only what it understands: anything else — no experiment name
//! or an unknown one, an unknown flag, a mistyped or missing value — exits
//! 2 with the usage and the experiment names (`--scale ful` used to run
//! the smoke scale silently).

use std::process::Command;

#[test]
fn exp_exits_2_with_the_usage_on_what_it_does_not_understand() {
    let refused: [&[&str]; 7] = [
        &[],
        &["fig99"],
        &["table1", "--scale", "ful"],
        &["table1", "--profile", "gov"],
        &["table1", "--seed", "forty-two"],
        &["table1", "--out"],
        &["table1", "--verbose", "1"],
    ];
    for args in refused {
        let exp = Command::new(env!("CARGO_BIN_EXE_exp")).args(args).output();
        let exp = exp.expect("run exp");
        let stderr = String::from_utf8_lossy(&exp.stderr);
        assert_eq!(exp.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: exp <name> [--scale"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("ablation stability"), "{args:?}: {stderr}");
    }
}
