//! Figure 14 — average latency (ms) to process one query column: the four
//! indexed FMDV variants vs pattern profilers vs FMDV without the offline
//! index (which must scan the corpus per query).

use av_baselines::{ColumnValidator, FlashProfile, PottersWheel, XSystem};
use av_bench::{prepare, ExpArgs};
use av_core::Variant;
use av_eval::{latency_table, write_series_csv, FmdvValidator, NoIndexFmdv};
use std::sync::Arc;
use std::time::Instant;

fn measure(validator: &dyn ColumnValidator, trains: &[Vec<String>]) -> f64 {
    // Borrow once outside the timed loop: the measured cost is inference,
    // not slice construction.
    let borrowed: Vec<Vec<&str>> = trains
        .iter()
        .map(|t| t.iter().map(String::as_str).collect())
        .collect();
    let t0 = Instant::now();
    let mut inferred = 0usize;
    for train in &borrowed {
        if validator.infer(train).is_some() {
            inferred += 1;
        }
    }
    let ms = t0.elapsed().as_secs_f64() * 1000.0 / trains.len() as f64;
    eprintln!(
        "[fig14] {:<16} {:>10.3} ms/column ({} rules from {} columns)",
        validator.name(),
        ms,
        inferred,
        trains.len()
    );
    ms
}

fn main() {
    let args = ExpArgs::parse();
    let env = prepare(&args);
    let trains: Vec<Vec<String>> = env
        .benchmark
        .eligible_cases()
        .take(60)
        .map(|c| c.train.clone())
        .collect();
    println!(
        "Figure 14: per-query-column inference latency over {} columns\n",
        trains.len()
    );
    let mut results: Vec<(String, f64)> = Vec::new();
    for variant in [
        Variant::Fmdv,
        Variant::FmdvV,
        Variant::FmdvH,
        Variant::FmdvVH,
    ] {
        let v = FmdvValidator::new(env.index.clone(), env.fmdv.clone(), variant);
        results.push((v.name().to_string(), measure(&v, &trains)));
    }
    for p in [
        Box::new(PottersWheel) as Box<dyn ColumnValidator>,
        Box::new(XSystem::default()),
        Box::new(FlashProfile::default()),
    ] {
        results.push((p.name().to_string(), measure(p.as_ref(), &trains)));
    }
    // No-index FMDV is orders of magnitude slower: measure on fewer columns.
    let columns = Arc::new(env.corpus.columns().cloned().collect::<Vec<_>>());
    let no_index = NoIndexFmdv::new(columns, env.fmdv.clone(), env.index.tau);
    let slow_sample: Vec<Vec<String>> = trains.iter().take(5).cloned().collect();
    results.push((
        no_index.name().to_string(),
        measure(&no_index, &slow_sample),
    ));

    println!("\n{}", latency_table(&results));
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(n, ms)| vec![n.clone(), format!("{ms:.4}")])
        .collect();
    let path = args.out_dir.join("fig14_latency.csv");
    write_series_csv(&path, "method,latency_ms", &rows).expect("write csv");
    println!("wrote {}", path.display());

    let fmdv_vh = results
        .iter()
        .find(|(n, _)| n == "FMDV-VH")
        .map(|(_, ms)| *ms)
        .unwrap_or(f64::NAN);
    let no_idx = results
        .iter()
        .find(|(n, _)| n.contains("no-index"))
        .map(|(_, ms)| *ms)
        .unwrap_or(f64::NAN);
    println!(
        "\nindexed FMDV-VH is {:.0}× faster than scanning the corpus per query",
        no_idx / fmdv_vh
    );
    println!(
        "paper reference: FMDV variants ≈ 10–82 ms; profilers ≈ 6–7 s; \
         no-index FMDV is many orders of magnitude slower."
    );
}
