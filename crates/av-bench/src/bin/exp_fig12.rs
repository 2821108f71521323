//! Figure 12 — sensitivity of the four FMDV variants to the FPR target r
//! (a), the coverage target m (b), the token-limit τ (c), and the
//! non-conforming tolerance θ (d), on the enterprise benchmark.

use av_bench::{prepare_with, ExpArgs};
use av_core::{FmdvConfig, Variant};
use av_eval::{evaluate_method, write_series_csv, EvalConfig, FmdvValidator};
use av_index::IndexConfig;

const VARIANTS: [Variant; 4] = [
    Variant::Fmdv,
    Variant::FmdvV,
    Variant::FmdvH,
    Variant::FmdvVH,
];

fn eval_point(
    env: &av_bench::Env,
    config: FmdvConfig,
    variant: Variant,
    cfg: &EvalConfig,
) -> (f64, f64) {
    let v = FmdvValidator::new(env.index.clone(), config, variant);
    let r = evaluate_method(&v, &env.benchmark, cfg);
    (r.precision, r.recall)
}

fn main() {
    let args = ExpArgs::parse();
    let env = prepare_with(&args, IndexConfig::default(), None);
    let cfg = EvalConfig {
        recall_sample: args.scale.recall_sample(),
        ..Default::default()
    };
    let mut rows: Vec<Vec<String>> = Vec::new();

    // (a) FPR threshold r.
    println!("Fig 12(a): sensitivity to FPR threshold r");
    for r_target in [0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.1] {
        for variant in VARIANTS {
            let mut c = env.fmdv.clone();
            c.r = r_target;
            let (p, rec) = eval_point(&env, c, variant, &cfg);
            println!(
                "  r={r_target:<5} {:<8} P={p:.3} R={rec:.3}",
                variant.label()
            );
            rows.push(vec![
                "r".into(),
                format!("{r_target}"),
                variant.label().into(),
                format!("{p:.4}"),
                format!("{rec:.4}"),
            ]);
        }
    }

    // (b) Coverage target m — the paper sweeps 0/10/100 on a 7M-column
    // corpus; scale the fractions to ours.
    println!("Fig 12(b): sensitivity to coverage target m");
    let scale_m = |paper_m: f64| -> u64 {
        ((env.index.num_columns as f64) * (paper_m / 7_000_000.0)).ceil() as u64
    };
    for (paper_m, m) in [
        (0.0, 0u64),
        (10.0, scale_m(10.0).max(1)),
        (100.0, scale_m(100.0).max(3)),
    ] {
        for variant in VARIANTS {
            let mut c = env.fmdv.clone();
            c.m = m;
            let (p, rec) = eval_point(&env, c, variant, &cfg);
            println!(
                "  m={paper_m:<4} (ours {m:<3}) {:<8} P={p:.3} R={rec:.3}",
                variant.label()
            );
            rows.push(vec![
                "m".into(),
                format!("{paper_m}"),
                variant.label().into(),
                format!("{p:.4}"),
                format!("{rec:.4}"),
            ]);
        }
    }

    // (c) Token limit τ — requires re-indexing per τ. The paper pairs τ
    // with a drill-down depth (8-5, 11-7, 13-8); we sweep τ itself.
    println!("Fig 12(c): sensitivity to token limit τ (re-indexing per point)");
    for tau in [8usize, 11, 13] {
        let ic = IndexConfig {
            tau,
            ..Default::default()
        };
        let env_tau = prepare_with(&args, ic, None);
        for variant in VARIANTS {
            let (p, rec) = eval_point(&env_tau, env_tau.fmdv.clone(), variant, &cfg);
            println!("  τ={tau:<3} {:<8} P={p:.3} R={rec:.3}", variant.label());
            rows.push(vec![
                "tau".into(),
                format!("{tau}"),
                variant.label().into(),
                format!("{p:.4}"),
                format!("{rec:.4}"),
            ]);
        }
    }

    // (d) Non-conforming tolerance θ (horizontal variants only react).
    println!("Fig 12(d): sensitivity to tolerance θ");
    for theta in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        for variant in [Variant::FmdvH, Variant::FmdvVH] {
            let mut c = env.fmdv.clone();
            c.theta = theta;
            let (p, rec) = eval_point(&env, c, variant, &cfg);
            println!("  θ={theta:<4} {:<8} P={p:.3} R={rec:.3}", variant.label());
            rows.push(vec![
                "theta".into(),
                format!("{theta}"),
                variant.label().into(),
                format!("{p:.4}"),
                format!("{rec:.4}"),
            ]);
        }
    }

    let path = args.out_dir.join("fig12_sensitivity.csv");
    write_series_csv(&path, "knob,value,variant,precision,recall", &rows).expect("write csv");
    println!("\nwrote {}", path.display());
    println!(
        "\npaper reference: r trades precision for recall and FMDV-VH is stable for r ≥ 0.02; \
         insensitive to m; vertical-cut variants insensitive to τ while FMDV/FMDV-H lose recall \
         at τ = 8; insensitive to θ unless θ is very small."
    );
}
