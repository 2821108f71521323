//! `exp <name> [--scale small|full] [--profile enterprise|government]
//! [--seed N] [--out DIR]` — run one row of [`EXPERIMENTS`], print its
//! tables aligned and write each as `DIR/<table>.csv` from the same rows.

use av_bench::{ExpArgs, Experiment, Lab, EXPERIMENTS};
use std::process::ExitCode;

fn parse(mut args: impl Iterator<Item = String>) -> Result<(&'static Experiment, ExpArgs), String> {
    let name = args.next().unwrap_or_default();
    let experiment = EXPERIMENTS.iter().find(|(known, _)| *known == name);
    let experiment = experiment.ok_or(format!("unknown experiment {name:?}"))?;
    Ok((experiment, ExpArgs::parse(args)?))
}

fn main() -> ExitCode {
    let ((_, run), args) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "exp: {message}\nusage: exp <name> [--scale small|full] \
                 [--profile enterprise|government] [--seed N] [--out DIR]\nexperiments: {}",
                names.join(" ")
            );
            return ExitCode::from(2);
        }
    };
    let lab = Lab::new(args);
    std::fs::create_dir_all(&lab.args.out_dir).expect("create the output directory");
    for table in run(&lab) {
        let path = lab.args.out_dir.join(format!("{}.csv", table.name));
        std::fs::write(&path, table.csv(true)).expect("write the CSV");
        println!("{table}\nwrote {}\n", path.display());
    }
    ExitCode::SUCCESS
}
