//! The paper-fidelity gate. Every row of [`EXPERIMENTS`], run at `small` /
//! enterprise / seed 42, must equal `fidelity.expected` exactly (the runs
//! are deterministic; timing cells are not pinned), and on top of the
//! numbers the paper's *shapes* must hold as inequalities. The shapes that
//! do not hold on this lake are not asserted: they are pinned rows with a
//! `deviation:` note beside them in the expected file.
//!
//! On a mismatch the differing rows are printed and the rows measured are
//! written to `target/fidelity.actual`; an intended change is re-blessed by
//! copying that file over `crates/av-bench/fidelity.expected` and reviewing
//! the diff.

use av_bench::{Cell, ExpArgs, Lab, Table, EXPERIMENTS};
use std::path::Path;

const VARIANTS: [&str; 4] = ["FMDV", "FMDV-V", "FMDV-H", "FMDV-VH"];

fn table<'a>(tables: &'a [Table], name: &str) -> &'a Table {
    let found = tables.iter().find(|t| t.name == name);
    found.unwrap_or_else(|| panic!("no table {name}"))
}

/// Cell `col` of the row of table `name` whose leading cells read `key`.
fn cell(tables: &[Table], name: &str, key: &[&str], col: &str) -> f64 {
    let table = table(tables, name);
    let col = table.header.iter().position(|h| h == col);
    let is_keyed = |row: &&Vec<Cell>| key.iter().zip(*row).all(|(k, c)| *c == Cell::text(k));
    let row = table.rows.iter().find(is_keyed);
    let row = row.unwrap_or_else(|| panic!("no row {key:?} in {name}"));
    row[col.unwrap_or_else(|| panic!("no column in {name}"))].num()
}

fn at_least(what: &str, a: f64, b: f64) {
    assert!(a + 1e-9 >= b, "{what}: {a} < {b}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 15 s optimised")]
fn rows_equal_fidelity_expected_and_keep_the_papers_shapes() {
    let lab = Lab::new(ExpArgs::default());
    let tables: Vec<Table> = EXPERIMENTS.iter().flat_map(|(_, run)| run(&lab)).collect();

    let actual: String = tables.iter().map(Table::pinned).collect();
    let expected = include_str!("../fidelity.expected");
    if actual != expected {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).with_file_name("fidelity.actual");
        std::fs::write(&path, &actual).expect("write target/fidelity.actual");
        let only_in = |a: &str, b: &str, sign: char| {
            let lines = a.lines().filter(|line| !b.lines().any(|l| l == *line));
            lines.for_each(|line| eprintln!("{sign} {line}"));
        };
        only_in(expected, &actual, '-');
        only_in(&actual, expected, '+');
        let path = path.display();
        panic!(
            "rows differ from crates/av-bench/fidelity.expected; if intended, copy {path} over it"
        );
    }

    let get = |name: &str, key: &[&str], col: &str| cell(&tables, name, key, col);
    let fig10 = |method: &str, col: &str| get("fig10_enterprise", &[method], col);
    let ablation = |method: &str, col: &str| get("ablation", &[method], col);
    let table2 = |evaluation: &str, col: &str| get("table2_groundtruth", &[evaluation], col);
    let fig12 = |knob: &str, value: &str, variant: &str, col: &str| {
        get("fig12_sensitivity", &[knob, value, variant], col)
    };

    // Fig. 10: each cut only adds recall, at a precision that stays high,
    // and the combined variant beats every baseline.
    let recall = |method: &str| fig10(method, "recall");
    at_least("recall VH ≥ V", recall("FMDV-VH"), recall("FMDV-V"));
    at_least("recall V ≥ FMDV", recall("FMDV-V"), recall("FMDV"));
    at_least("recall VH ≥ H", recall("FMDV-VH"), recall("FMDV-H"));
    at_least("recall H ≥ FMDV", recall("FMDV-H"), recall("FMDV"));
    for variant in VARIANTS {
        at_least(variant, fig10(variant, "precision"), 0.95);
    }
    let f1 = |method: &str| fig10(method, "f1");
    for row in &table(&tables, "fig10_enterprise").rows[VARIANTS.len()..] {
        let Cell::Text(baseline) = &row[0] else {
            panic!("method names are text")
        };
        assert!(f1("FMDV-VH") > f1(baseline), "F1 of FMDV-VH ≤ {baseline}");
    }

    // The ablations' expected shapes.
    let (fmdv, cmdv) = ("FMDV (objective)", "CMDV (objective)");
    at_least("F1 FMDV ≥ CMDV", ablation(fmdv, "f1"), ablation(cmdv, "f1"));
    let (sum, max) = ("VH sum-FPR", "VH max-FPR");
    let precision = |method: &str| ablation(method, "precision");
    at_least("precision sum ≥ max", precision(sum), precision(max));
    for col in ["precision", "recall"] {
        // The default FMDV-VH row is one row wherever it is measured, and
        // the choice of homogeneity test barely moves it.
        let vh = fig10("FMDV-VH", col);
        assert_eq!(vh, ablation(sum, col));
        assert_eq!(vh, ablation("VH Fisher", col));
        assert_eq!(vh, table2("programmatic", col));
        assert_eq!(vh, fig12("r", "0.1", "FMDV-VH", col));
        let yates = ablation("VH chi2-Yates", col);
        assert!(
            (vh - yates).abs() <= 1e-3,
            "{col}: Fisher {vh} ≉ χ²-Yates {yates}"
        );
        // Table 2: the ground-truth adjustment only improves both numbers.
        at_least(col, table2("ground-truth", col), vh);
    }

    // Fig. 12: recall rises with r; m = 0 and m = 10 are the same rows.
    for variant in VARIANTS {
        let recall = |r: &str| fig12("r", r, variant, "recall");
        for pair in ["0", "0.01", "0.02", "0.04", "0.06", "0.08", "0.1"].windows(2) {
            at_least(
                &format!("{variant} r = {pair:?}"),
                recall(pair[1]),
                recall(pair[0]),
            );
        }
        for col in ["precision", "recall"] {
            let at = |m: &str| fig12("m", m, variant, col);
            assert_eq!(
                at("0"),
                at("10"),
                "{variant} {col} moves between m = 0 and 10"
            );
        }
    }

    // Fig. 15: drift is caught exactly where the two columns' formats
    // differ — 8 of the 11 tasks, no false positive.
    let fig15 = &table(&tables, "fig15_kaggle").rows;
    let detected = fig15.iter().filter(|row| row[5] == Cell::text(true));
    assert_eq!((fig15.len(), detected.count()), (11, 8));
    let as_detectable = |row: &Vec<Cell>| row[5] == row[6];
    assert!(fig15.iter().all(as_detectable), "detected ≢ detectable");

    // Fig. 14 is a ratio, not a time (119× measured on the parent).
    let speedup = get("fig14_latency", &["FMDV-VH"], "times_faster_than_scan");
    at_least("indexed FMDV-VH vs the scan", speedup, 10.0);
}
