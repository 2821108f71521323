//! `auto-validate` — command-line interface to the library.
//!
//! Columns are plain text files with one value per line (the universal
//! interchange format for single-column data). Typical session:
//!
//! ```sh
//! # offline: index a directory of column files (one scan)
//! auto-validate index data/columns/ -o lake.avix
//!
//! # online: infer a validation rule for a new feed's column
//! auto-validate infer -i lake.avix train.txt
//!
//! # recurring: validate today's feed against yesterday's training data
//! auto-validate validate -i lake.avix --train train.txt --test today.txt
//!
//! # no data handy? generate a synthetic lake and play
//! auto-validate demo
//! ```
//!
//! An unknown flag, or a flag value that does not parse, prints the usage
//! and exits 2.

use auto_validate::prelude::*;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  auto-validate index <dir> [-o index.avix] [--tau N]
      Scan a directory of column files (one value per line) into an index.
  auto-validate infer -i <index.avix> <column.txt> [--variant fmdv|v|h|vh|cmdv]
      Infer a validation rule for a column and print it (with regex export);
      the default variant is vh, and fmdv-v, fmdv-h, fmdv-vh are also names.
  auto-validate validate -i <index.avix> --train <a.txt> --test <b.txt>
      Train a rule on one file and validate another; exit 1 when flagged.
  auto-validate demo
      Generate a synthetic lake, infer and apply a rule end to end."
    );
    ExitCode::from(2)
}

fn read_column(path: &Path) -> Result<Vec<String>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text.lines().map(|l| l.to_string()).collect())
}

/// One subcommand's command line: its positionals and its flags, each
/// flag taking one value.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// `None` for a flag outside `known` or a flag missing its value.
    fn parse(args: &[String], known: &[&str]) -> Option<Args> {
        let (mut positional, mut flags) = (Vec::new(), Vec::new());
        let mut args = args.iter();
        while let Some(a) = args.next() {
            if !a.starts_with('-') {
                positional.push(a.clone());
            } else if known.contains(&a.as_str()) {
                flags.push((a.clone(), args.next()?.clone()));
            } else {
                return None;
            }
        }
        Some(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(flag, _)| flag == name)?;
        Some(value)
    }
}

fn cmd_index(args: &Args, tau: usize) -> Result<(), String> {
    let dir = args.positional.first().ok_or("missing column directory")?;
    let out = args.flag("-o").unwrap_or("index.avix");
    let mut columns: Vec<Column> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        if !entry.file_type().map_err(|e| e.to_string())?.is_file() {
            continue;
        }
        let path = entry.path();
        let values = read_column(&path)?;
        if values.is_empty() {
            continue;
        }
        columns.push(Column {
            name: path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned(),
            values,
            meta: av_corpus::ColumnMeta::machine("file", None),
        });
    }
    if columns.is_empty() {
        return Err(format!("no column files found under {dir}"));
    }
    let refs: Vec<&Column> = columns.iter().collect();
    let config = IndexConfig {
        tau,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let index = PatternIndex::build(&refs, &config);
    index.save(out).map_err(|e| e.to_string())?;
    println!(
        "indexed {} columns → {} patterns in {:.1?}; wrote {out}",
        index.num_columns,
        index.len(),
        t0.elapsed()
    );
    Ok(())
}

fn load_engine(args: &Args) -> Result<(PatternIndex, FmdvConfig), String> {
    let index_path = args.flag("-i").ok_or("missing -i <index.avix>")?;
    let index = PatternIndex::load(index_path).map_err(|e| e.to_string())?;
    let config = FmdvConfig::scaled_for_corpus(index.num_columns);
    Ok((index, config))
}

fn cmd_infer(args: &Args, variant: Variant) -> Result<(), String> {
    let (index, config) = load_engine(args)?;
    let column_path = args.positional.first().ok_or("missing column file")?;
    let train = read_column(Path::new(column_path))?;
    let engine = AutoValidate::new(&index, config);
    let t0 = std::time::Instant::now();
    match engine.infer(&train, variant) {
        Ok(rule) => {
            println!("rule     : {rule}");
            println!("regex    : /{}/", rule.to_regex());
            println!(
                "inferred : {:.1?} over {} training values",
                t0.elapsed(),
                train.len()
            );
            Ok(())
        }
        Err(e) => {
            // Fall back like infer_auto and report which family applied.
            match engine.infer_auto(&train) {
                Ok(rule) => {
                    println!(
                        "no syntactic pattern ({e}); fallback rule: {}",
                        rule.describe()
                    );
                    Ok(())
                }
                Err(_) => Err(format!("no rule inferable: {e}")),
            }
        }
    }
}

fn cmd_validate(args: &Args) -> Result<bool, String> {
    let (index, config) = load_engine(args)?;
    let train_path = args.flag("--train").ok_or("missing --train")?;
    let test_path = args.flag("--test").ok_or("missing --test")?;
    let train = read_column(Path::new(train_path))?;
    let test = read_column(Path::new(test_path))?;
    let engine = AutoValidate::new(&index, config);
    let rule = engine
        .infer_auto(&train)
        .map_err(|e| format!("no rule inferable from {train_path}: {e}"))?;
    let report = rule.validate(&test);
    println!("rule          : {}", rule.describe());
    println!("checked       : {}", report.checked);
    println!(
        "nonconforming : {} ({:.2}%)",
        report.nonconforming,
        report.nonconforming_frac * 100.0
    );
    println!("p-value       : {:.3e}", report.p_value);
    println!(
        "verdict       : {}",
        if report.flagged { "FLAGGED" } else { "ok" }
    );
    Ok(report.flagged)
}

fn cmd_demo() -> Result<(), String> {
    println!("generating a 2000-column synthetic lake…");
    let corpus = generate_lake(&LakeProfile::tiny().scaled(2000), 7);
    let columns: Vec<&Column> = corpus.columns().collect();
    let index = PatternIndex::build(&columns, &IndexConfig::default());
    println!(
        "indexed {} patterns from {} columns",
        index.len(),
        index.num_columns
    );
    let engine = AutoValidate::new(&index, FmdvConfig::scaled_for_corpus(index.num_columns));
    let march: Vec<String> = (1..=28).map(|d| format!("Mar {d:02} 2019")).collect();
    let rule = engine.infer_default(&march).map_err(|e| e.to_string())?;
    println!("training column: Mar 01 2019 … Mar 28 2019");
    println!("inferred rule  : {rule}");
    let april: Vec<String> = (1..=30).map(|d| format!("Apr {d:02} 2019")).collect();
    println!(
        "April feed     : flagged = {}",
        rule.validate(&april).flagged
    );
    let drift: Vec<String> = (0..30).map(|i| format!("user-{i}")).collect();
    println!(
        "drifted feed   : flagged = {}",
        rule.validate(&drift).flagged
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let known: &[&str] = match cmd.as_str() {
        "index" => &["-o", "--tau"],
        "infer" => &["-i", "--variant"],
        "validate" => &["-i", "--train", "--test"],
        "demo" => &[],
        _ => return usage(),
    };
    let Some(args) = Args::parse(rest, known) else {
        return usage();
    };
    let result = match cmd.as_str() {
        "index" => {
            let Ok(tau) = args.flag("--tau").map_or(Ok(13), str::parse) else {
                return usage();
            };
            cmd_index(&args, tau).map(|()| false)
        }
        "infer" => match args
            .flag("--variant")
            .map_or(Ok(Variant::default()), str::parse)
        {
            Ok(variant) => cmd_infer(&args, variant).map(|()| false),
            Err(unknown) => {
                eprintln!("error: {unknown}");
                return usage();
            }
        },
        "validate" => cmd_validate(&args),
        _ => cmd_demo().map(|()| false),
    };
    match result {
        Ok(flagged) => {
            if flagged {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
