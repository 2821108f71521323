//! The rows of [`EXPERIMENTS`]: one function per table or figure of the
//! paper's §5, plus the ablations §2.3 / §3 / §4 discuss without plotting
//! and the rule-stability count the recurring-pipeline premise needs.
//!
//! A note that starts `paper:` carries the paper's own numbers; one that
//! starts `deviation:` explains a pinned row that disagrees with them, as
//! measured on the `small` / enterprise / seed 42 run `fidelity.expected`
//! records.

use crate::eval::{evaluate_method, FmdvValidator, MethodResult, NoIndexFmdv};
use crate::ml::{average_precision, r2_score, CategoryEncoder, Gbdt, GbdtConfig};
use crate::table::Cell::{self, Int, Real, Timing};
use crate::{Lab, Table};
use av_baselines::{
    ad_recall_upper_bound, common_patterns, fd_recall_upper_bound, study_panel, ColumnValidator,
    DeequCat, DeequFra, FlashProfile, Grok, PottersWheel, SchemaMatchCorpus, SmInstance, SmPattern,
    Ssis, Tfdv, XSystem,
};
use av_core::{AutoValidate, FmdvConfig, Variant};
use av_corpus::{generate_lake, kaggle_tasks, Column, ColumnMeta, KaggleTask, LakeProfile};
use av_index::{profile_columns, IndexConfig, PatternIndex};
use av_stats::HomogeneityTest;
use std::iter::once;
use std::sync::Arc;
use std::time::Instant;

/// An experiment: its name on `exp`'s command line and the function that
/// measures it.
pub type Experiment = (&'static str, fn(&Lab) -> Vec<Table>);

/// Every experiment.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("ablation", ablation),
    ("stability", stability),
];

const VARIANTS: [Variant; 4] = [
    Variant::Fmdv,
    Variant::FmdvV,
    Variant::FmdvH,
    Variant::FmdvVH,
];

/// One FMDV variant over the lab's index, under `config`.
fn fmdv(lab: &Lab, variant: Variant, config: FmdvConfig) -> FmdvValidator {
    FmdvValidator::new(lab.env().index.clone(), config, variant)
}

/// FMDV-VH under the lab's default configuration.
fn fmdv_vh(lab: &Lab) -> FmdvValidator {
    fmdv(lab, Variant::FmdvVH, lab.env().fmdv.clone())
}

/// The full §5.2 roster: the four FMDV variants, then every baseline.
fn full_roster(lab: &Lab) -> Vec<Box<dyn ColumnValidator>> {
    let sm = SchemaMatchCorpus::new(&lab.env().corpus);
    let variants = VARIANTS.map(|v| Box::new(fmdv(lab, v, lab.env().fmdv.clone())) as _);
    let baselines: [Box<dyn ColumnValidator>; 12] = [
        Box::new(PottersWheel),
        Box::new(Ssis),
        Box::new(XSystem::default()),
        Box::new(FlashProfile::default()),
        Box::new(Grok::default()),
        Box::new(Tfdv),
        Box::new(DeequCat::default()),
        Box::new(DeequFra::default()),
        Box::new(SmInstance::new(sm.clone(), 1)),
        Box::new(SmInstance::new(sm.clone(), 10)),
        Box::new(SmPattern::majority(sm.clone())),
        Box::new(SmPattern::plurality(sm)),
    ];
    variants.into_iter().chain(baselines).collect()
}

/// A method-by-quality table in Fig. 10's columns.
fn quality_table(name: &str, title: &str, results: &[MethodResult]) -> Table {
    let header = "method,precision,recall,f1,precision_gt,recall_gt,latency_ms";
    let mut table = Table::new(name, title, header);
    table.decimals = 6;
    for r in results {
        let quality = [r.precision, r.recall, r.f1(), r.precision_gt, r.recall_gt].map(Real);
        let cells = once(Cell::text(&r.method)).chain(quality);
        table.push(cells.chain(once(Timing(r.avg_latency_ms))));
    }
    table
}

/// Figure 10 — precision / recall of every method on the enterprise (a) or
/// government (b) benchmark, plus the FD-UB and AD-UB recall upper bounds.
fn fig10(lab: &Lab) -> Vec<Table> {
    let env = lab.env();
    let profile = &lab.args.profile.name;
    let eligible: Vec<_> = env.benchmark.eligible_cases().collect();
    let roster = full_roster(lab).into_iter();
    let results: Vec<MethodResult> = roster
        .map(|validator| lab.evaluate(validator.as_ref(), &env.benchmark))
        .collect();
    let title = format!(
        "Figure 10 ({profile}): {} benchmark cases, {} pattern-eligible",
        env.benchmark.len(),
        eligible.len()
    );
    let quality = quality_table(&format!("fig10_{profile}"), &title, &results)
        .note(
            "paper: (enterprise) FMDV-VH ≈ (0.96 precision, 0.88 recall), recall ordering \
             FMDV-VH > FMDV-H > FMDV-V > FMDV > PWheel/SM-I-1 > others; TFDV/Deequ low precision.",
        )
        .note(
            "deviation: recall FMDV-H < FMDV-V (paper: H > V). `dirty_fraction` 0.12 applies to \
             machine columns only (53% of the lake), so dirty columns are 6.4% of the lake \
             against 6% composite — level, not 2:1 — and of the 166 eligible cases 21 are \
             composite, 11 dirty. V lifts 15 cases from recall 0 to ≈ 1 (13 composites, 2 GUID \
             columns wider than τ = 13) and loses one to a false alarm; H lifts 7 (4 dirty \
             columns whose 10% training split caught a special value, 3 impure columns). The \
             paper's lake has many more dirty than composite columns; this one does not.",
        );

    let names: Vec<&str> = eligible.iter().map(|c| c.column.name.as_str()).collect();
    let queries: Vec<Vec<String>> = eligible.iter().map(|c| c.train.clone()).collect();
    let common = common_patterns(&env.corpus, env.fmdv.m as usize);
    let fd_ub = fd_recall_upper_bound(&env.corpus, &names);
    let ad_ub = ad_recall_upper_bound(&common, &queries);
    let mut bounds = Table::new(
        format!("fig10_{profile}_upper_bounds"),
        "Recall upper bounds of the FD and Auto-Detect families (precision := 1, §5.2)",
        "bound,recall",
    );
    bounds.push([Cell::text("FD-UB"), Real(fd_ub)]);
    bounds.push([Cell::text("AD-UB"), Real(ad_ub)]);
    vec![quality, bounds]
}

/// Figure 11 — case-by-case F1 on 100 sampled cases, FMDV-VH vs the
/// competitive baselines, sorted by FMDV-VH's F1 so the dominance profile
/// is visible.
fn fig11(lab: &Lab) -> Vec<Table> {
    let benchmark = lab.benchmark(100);
    let vh = fmdv_vh(lab);
    let (grok, xsystem) = (Grok::default(), XSystem::default());
    let methods: [&dyn ColumnValidator; 5] = [&vh, &PottersWheel, &Ssis, &grok, &xsystem];
    let results = methods.map(|m| lab.evaluate(m, &benchmark));
    let f1 = |method: usize, case: usize| results[method].cases[case].f1();
    let mut order: Vec<usize> = (0..results[0].cases.len()).collect();
    order.sort_by(|&a, &b| f1(0, b).partial_cmp(&f1(0, a)).expect("finite F1"));

    let names: Vec<&str> = results.iter().map(|r| r.method.as_str()).collect();
    let title = format!("Figure 11: case-by-case F1 ({} cases)", order.len());
    let header = format!("case,{}", names.join(","));
    let mut table = Table::new("fig11_case_by_case", title, &header);
    for (rank, &case) in order.iter().enumerate() {
        let scores = (0..results.len()).map(|method| Real(f1(method, case)));
        table.push(once(Int(rank as u64)).chain(scores));
    }
    let beats_all = |case: &&usize| (1..results.len()).all(|m| f1(0, **case) >= f1(m, **case));
    let wins = order.iter().filter(beats_all).count();
    let summary = format!(
        "FMDV-VH ties-or-beats the best baseline on {wins}/{} cases",
        order.len()
    );
    let paper = "paper: FMDV dominates other methods across the 100 sampled cases.";
    vec![table.note(summary).note(paper)]
}

/// Figure 12 — sensitivity of the four FMDV variants to the FPR target r
/// (a), the coverage target m (b), the token-limit τ (c), and the
/// non-conforming tolerance θ (d).
fn fig12(lab: &Lab) -> Vec<Table> {
    let env = lab.env();
    let base = &env.fmdv;
    let mut table = Table::new(
        "fig12_sensitivity",
        "Figure 12: sensitivity to r (a), m (b), τ (c) and θ (d)",
        "knob,value,variant,precision,recall",
    );
    let mut point = |knob: &str, value: String, index: &Arc<PatternIndex>, config, variant| {
        let validator = FmdvValidator::new(index.clone(), config, variant);
        let r = lab.evaluate(&validator, &env.benchmark);
        let label = [knob, &value, variant.label()].map(Cell::text);
        let quality = [r.precision, r.recall].map(Real);
        table.push(label.into_iter().chain(quality));
    };
    for r in [0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.1] {
        for variant in VARIANTS {
            let config = FmdvConfig { r, ..base.clone() };
            point("r", r.to_string(), &env.index, config, variant);
        }
    }
    // The paper sweeps m = 0 / 10 / 100 on a 7M-column corpus; ours are the
    // same fractions of this lake, floored as `scaled_for_corpus` does.
    let scale_m = |paper_m: f64| (env.index.num_columns as f64 * paper_m / 7e6).ceil() as u64;
    let (m10, m100) = (scale_m(10.0).max(1), scale_m(100.0).max(3));
    for (paper_m, m) in [(0, 0), (10, m10), (100, m100)] {
        for variant in VARIANTS {
            let config = FmdvConfig { m, ..base.clone() };
            point("m", paper_m.to_string(), &env.index, config, variant);
        }
    }
    // The paper pairs τ with a drill-down depth (8-5, 11-7, 13-8); we sweep
    // τ itself, each point over its own index of the same lake.
    for tau in [8, 11, 13] {
        let index = if tau == env.index.tau {
            env.index.clone()
        } else {
            lab.index_with(&IndexConfig::with_tau(tau))
        };
        for variant in VARIANTS {
            point("tau", tau.to_string(), &index, base.clone(), variant);
        }
    }
    // Only the horizontal variants react to θ.
    for theta in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        for variant in [Variant::FmdvH, Variant::FmdvVH] {
            let config = FmdvConfig {
                theta,
                ..base.clone()
            };
            point("theta", theta.to_string(), &env.index, config, variant);
        }
    }
    let table = table
        .note(
            "paper: r trades precision for recall and FMDV-VH is stable for r ≥ 0.02; \
             insensitive to m; vertical-cut variants insensitive to τ while FMDV/FMDV-H lose \
             recall at τ = 8; insensitive to θ unless θ is very small.",
        )
        .note(
            "deviation: FMDV-VH recall is not flat for r ≥ 0.02, it climbs to r = 0.1 (paper: \
             stable). At 4 000 columns a domain is followed by tens of columns, and the 8% \
             impure columns each add ≈ 0.5 impurity to two domains' patterns, so the FPR_T \
             estimate of a domain's best pattern is 0.03–0.08 (median 0.06; 12 of the 150 \
             selected rules are ≤ 0.02, 130 are ≤ 0.08): below r = 0.08 most domains have no \
             feasible pattern. In a 7M-column lake the same patterns sit far below 0.02.",
        )
        .note(
            "deviation: FMDV-V / FMDV-VH lose recall at τ = 8 and 11 (paper: insensitive). Same \
             cause: with segment FPRs of 0.03–0.08 the sum over segments stays under r = 0.1 \
             for one or two cuts only, so a 13-token domain (datetime-us, alone or inside a \
             composite) cannot be recomposed from ≤ 8-token segments; FMDV-V declines 40 of 166 \
             cases at τ = 8, 30 at 11, 23 at 13.",
        );
    vec![table]
}

/// Figure 13 — distribution of patterns in the offline index: (a) by number
/// of tokens, (b) by how many columns follow each pattern (the power-law
/// "head domains vs junk tail" plot), with the high-coverage / low-FPR
/// head patterns — the Fig. 3-style common domains of the lake.
fn fig13(lab: &Lab) -> Vec<Table> {
    let index = lab.index_with(&IndexConfig {
        keep_patterns: true,
        ..Default::default()
    });
    let histogram = |name: &str, title: &str, header: &str, buckets: &[(u64, u64)]| {
        let mut table = Table::new(name, format!("Figure 13{title}"), header);
        let mut cumulative = 0;
        for &(key, patterns) in buckets {
            cumulative += patterns;
            table.push([Int(key), Int(patterns), Int(cumulative)]);
        }
        table
    };
    let by_len = index.token_length_histogram();
    let by_len: Vec<(u64, u64)> = by_len.into_iter().map(|(l, n)| (l as u64, n)).collect();
    let by_tokens = histogram(
        "fig13a_by_tokens",
        "(a): pattern distribution by token count",
        "tokens,patterns,cumulative",
        &by_len,
    )
    .note("paper: patterns spread over token lengths with 5–7 the most common.")
    .note(
        "deviation: 14- and 16-token rows in a τ = 13 index. τ bounds a value's merged \
         positions (`analyze.rs`'s `scan`); `token_len` counts the canonical tokens of the \
         emitted pattern, and one alphanumeric position can emit several (`<letter>+<digit>+`).",
    );

    let by_cov = index.coverage_histogram(200);
    let tail: u64 = by_cov.iter().filter(|(c, _)| *c <= 2).map(|(_, n)| n).sum();
    let total: u64 = by_cov.iter().map(|(_, n)| n).sum();
    let min_cov = (index.num_columns / 100).max(5);
    let mut by_coverage = histogram(
        "fig13b_by_coverage",
        "(b): pattern distribution by column frequency",
        "coverage,patterns,cumulative",
        &by_cov,
    )
    .note(format!(
        "tail share (patterns followed by ≤ 2 columns): {:.1}%; head domain patterns \
         (coverage ≥ {min_cov}, FPR ≤ 1%):",
        100.0 * tail as f64 / total as f64
    ));
    for (pattern, stats) in index.head_patterns(min_cov, 0.01).into_iter().take(20) {
        let (cov, fpr) = (stats.cov, stats.fpr * 100.0);
        by_coverage = by_coverage.note(format!("  cov {cov:>5}  fpr {fpr:>7.4}%  {pattern}"));
    }
    let paper = "paper: coverage distribution is power-law-like — a few head domains, a huge tail.";
    vec![by_tokens, by_coverage.note(paper)]
}

/// Figure 14 — average latency (ms) to process one query column: the four
/// indexed FMDV variants vs pattern profilers vs FMDV without the offline
/// index (which must scan the corpus per query).
fn fig14(lab: &Lab) -> Vec<Table> {
    let env = lab.env();
    // Borrow once outside the timed loops: the measured cost is inference,
    // not slice construction.
    let cases = env.benchmark.eligible_cases().take(60);
    let trains: Vec<Vec<&str>> = cases
        .map(|c| c.train.iter().map(String::as_str).collect())
        .collect();
    let measure = |validator: &dyn ColumnValidator, trains: &[Vec<&str>]| {
        let t0 = Instant::now();
        let rules = trains.iter().filter(|t| validator.infer(t).is_some());
        let (rules, n) = (rules.count(), trains.len());
        let ms = t0.elapsed().as_secs_f64() * 1000.0 / n as f64;
        let name = validator.name().to_string();
        eprintln!("[fig14] {name:<16} {ms:>10.3} ms/column ({rules} rules from {n} columns)");
        (name, ms)
    };
    let (pwheel, xsystem, flash) = (PottersWheel, XSystem::default(), FlashProfile::default());
    let variants = VARIANTS.map(|v| fmdv(lab, v, env.fmdv.clone()));
    let indexed = variants.iter().map(|v| v as &dyn ColumnValidator);
    let profilers: [&dyn ColumnValidator; 3] = [&pwheel, &xsystem, &flash];
    let mut latencies: Vec<(String, f64)> = indexed
        .chain(profilers)
        .map(|validator| measure(validator, &trains))
        .collect();
    // The scan is orders of magnitude slower: measure it on fewer columns.
    let columns = Arc::new(env.corpus.columns().cloned().collect::<Vec<_>>());
    let scan = NoIndexFmdv::new(columns, env.fmdv.clone(), env.index.tau);
    let (scan_name, scan_ms) = measure(&scan, &trains[..trains.len().min(5)]);
    latencies.push((scan_name, scan_ms));

    let title = format!(
        "Figure 14: per-query-column inference latency over {} columns",
        trains.len()
    );
    let header = "method,latency_ms,times_faster_than_scan";
    let mut table = Table::new("fig14_latency", title, header);
    for (name, ms) in latencies {
        table.push([Cell::Text(name), Timing(ms), Timing(scan_ms / ms)]);
    }
    vec![table.note(
        "paper: FMDV variants ≈ 10–82 ms; profilers ≈ 6–7 s; no-index FMDV is many orders of \
         magnitude slower.",
    )]
}

/// Train GBDT on a task's training split and score a given test split.
fn train_and_score(task: &KaggleTask, test_cats: &[Vec<String>]) -> f64 {
    // Per-position categorical encoders — the pipeline the paper's case
    // study assumes, where a silent positional swap scrambles encodings.
    let fit = |col: &Vec<String>| CategoryEncoder::fit(col);
    let encoders: Vec<CategoryEncoder> = task.cat_train.iter().map(fit).collect();
    let encode = |cats: &[Vec<String>], nums: &[Vec<f64>]| -> Vec<Vec<f64>> {
        let encoded = encoders.iter().zip(cats);
        let encoded = encoded.map(|(encoder, col)| encoder.encode_column(col));
        encoded.chain(nums.iter().cloned()).collect()
    };
    let config = if task.is_classification {
        GbdtConfig::classification()
    } else {
        GbdtConfig::default()
    };
    let features = encode(&task.cat_train, &task.num_train);
    let model = Gbdt::train(&features, &task.y_train, config);
    let preds = model.predict(&encode(test_cats, &task.num_test));
    if task.is_classification {
        average_precision(&task.y_test, &preds)
    } else {
        r2_score(&task.y_test, &preds)
    }
}

/// Figure 15 — impact of schema-drift on the eleven Kaggle-style tasks,
/// with and without data validation. Per task: score the clean test data,
/// the test data with two categorical columns silently swapped, and check
/// whether an FMDV-VH rule per column — inferred against the lake's index,
/// as deployed validation would — catches the swap.
fn fig15(lab: &Lab) -> Vec<Table> {
    let env = lab.env();
    let engine = AutoValidate::new(&env.index, env.fmdv.clone());
    let tasks = kaggle_tasks(600, 300, lab.args.seed);
    let mut table = Table::new(
        "fig15_kaggle",
        "Figure 15: schema-drift impact on ML quality, with and without validation",
        "task,kind,score_clean,score_drifted,relative,detected,syntactically_detectable",
    );
    let mut detected_count = 0;
    for task in &tasks {
        let clean = train_and_score(task, &task.cat_test);
        let drifted_task = task.with_swapped_test_cats(0, 1);
        let drifted = train_and_score(task, &drifted_task.cat_test);
        let relative = if clean.abs() > 1e-9 {
            drifted / clean
        } else {
            0.0
        };
        // Flag the task if any column's post-drift test data trips the
        // rule inferred from that column's training data.
        let trips = |(train, test): (&Vec<String>, &Vec<String>)| {
            let rule = engine.infer(train, Variant::FmdvVH);
            rule.is_ok_and(|rule| rule.validate(test).flagged)
        };
        let mut columns = task.cat_train.iter().zip(&drifted_task.cat_test);
        let detected = columns.any(trips);
        detected_count += usize::from(detected);
        let kind = if task.is_classification {
            "classification"
        } else {
            "regression"
        };
        let labels = [Cell::text(&task.name), Cell::text(kind)];
        let scores = [clean, drifted, relative].map(Real);
        let flags = [detected, task.swap_is_detectable(0, 1)].map(Cell::text);
        table.push(labels.into_iter().chain(scores).chain(flags));
    }
    let summary = format!(
        "validation detected schema-drift in {detected_count} / {} tasks",
        tasks.len()
    );
    vec![table.note(summary).note(
        "paper: quality drops up to 78% under drift; FMDV detects 8/11 tasks (all except \
         WestNile, HomeDepot, WalmartTrips — same-format column pairs) with no false positives.",
    )]
}

/// Table 1 — characteristics of the two data corpora.
fn table1(lab: &Lab) -> Vec<Table> {
    let mut table = Table::new(
        "table1_corpora",
        "Table 1: characteristics of data corpora (simulated)",
        "corpus,files,columns,avg_values,std_values,avg_distinct,std_distinct",
    );
    table.decimals = 1;
    for base in [LakeProfile::enterprise(), LakeProfile::government()] {
        let s = if base.name == lab.args.profile.name {
            lab.env().corpus.stats()
        } else {
            let profile = base.scaled(lab.args.scale.corpus_columns(&base));
            generate_lake(&profile, lab.args.seed).stats()
        };
        let counts = [s.num_files, s.num_columns].map(|n| Int(n as u64));
        let values = [s.avg_value_count, s.std_value_count];
        let distinct = [s.avg_distinct_count, s.std_distinct_count];
        let cells = once(Cell::Text(base.name)).chain(counts);
        table.push(cells.chain(values.map(Real)).chain(distinct.map(Real)));
    }
    vec![table.note(
        "paper: TE = 507K files / 7.2M cols / 8945 (17778) / 1543 (7219); \
         TG = 29K files / 628K cols / 305 (331) / 46 (119)",
    )]
}

/// Table 2 — programmatic evaluation vs (simulated) hand-curated ground
/// truth for FMDV-VH. The paper hand-labeled 1000 cases to remove test
/// values that do not belong to a column and to stop counting same-domain
/// columns as recall losses; the generator's recorded domain and ideal
/// pattern play the role of those labels.
fn table2(lab: &Lab) -> Vec<Table> {
    let r = lab.evaluate(&fmdv_vh(lab), &lab.env().benchmark);
    let mut table = Table::new(
        "table2_groundtruth",
        "Table 2: programmatic vs ground-truth evaluation (FMDV-VH)",
        "evaluation,precision,recall",
    );
    table.push([
        Cell::text("programmatic"),
        Real(r.precision),
        Real(r.recall),
    ]);
    table.push([
        Cell::text("ground-truth"),
        Real(r.precision_gt),
        Real(r.recall_gt),
    ]);
    vec![table.note(
        "paper: programmatic (0.961, 0.880) vs hand-curated (0.963, 0.915) — ground-truth \
         adjustment should only improve both numbers.",
    )]
}

/// Table 3 — the user study: simulated programmers hand-writing validation
/// regexes for 20 sampled columns vs FMDV-VH, under the same methodology.
/// Authoring time cannot be simulated, so the programmers' `avg_time_s` is
/// the paper's measurement; the quality comparison is what the
/// substitution preserves: hand-written regexes overfit the sample.
fn table3(lab: &Lab) -> Vec<Table> {
    let benchmark = lab.benchmark(20);
    let title = format!("Table 3: user study on {} test columns", benchmark.len());
    let header = "participant,avg_time_s,precision,recall";
    let mut table = Table::new("table3_user_study", title, header);
    // 20 cases: test each rule against all the others, like the paper.
    let mut participant = |validator: &dyn ColumnValidator, paper_seconds: Option<f64>| {
        let r = evaluate_method(validator, &benchmark, 0);
        let seconds = paper_seconds.unwrap_or(r.avg_latency_ms / 1000.0);
        let quality = [Timing(seconds), Real(r.precision), Real(r.recall)];
        table.push(once(Cell::Text(r.method)).chain(quality));
    };
    let panel = study_panel(lab.args.seed);
    for (programmer, paper_seconds) in panel.iter().zip([145.0, 123.0, 84.0]) {
        participant(programmer, Some(paper_seconds));
    }
    participant(&fmdv_vh(lab), None);
    vec![table.note(
        "paper: programmers averaged 117 s per regex at precision 0.3–0.65 (2 of 5 failed \
         outright); FMDV-VH took 0.08 s at precision 1.0 / recall 0.978.",
    )]
}

/// Ablations of design choices the paper discusses but does not plot:
/// CMDV vs FMDV (§2.3, "the conservative FMDV is more effective in
/// practice"), `max` instead of `sum` over segment FPRs (§3, "less
/// effective"), Fisher's exact vs χ²-Yates (§4, "little difference").
fn ablation(lab: &Lab) -> Vec<Table> {
    let env = lab.env();
    let base = || env.fmdv.clone();
    let max_fpr = FmdvConfig {
        optimistic_vertical: true,
        ..base()
    };
    let with_test = |test| FmdvConfig { test, ..base() };
    let rows = [
        ("FMDV (objective)", Variant::Fmdv, base()),
        ("CMDV (objective)", Variant::Cmdv, base()),
        ("VH sum-FPR", Variant::FmdvVH, base()),
        ("VH max-FPR", Variant::FmdvVH, max_fpr),
        (
            "VH Fisher",
            Variant::FmdvVH,
            with_test(HomogeneityTest::FisherExact),
        ),
        (
            "VH chi2-Yates",
            Variant::FmdvVH,
            with_test(HomogeneityTest::ChiSquaredYates),
        ),
    ];
    let results = rows.map(|(label, variant, config)| {
        let mut result = lab.evaluate(&fmdv(lab, variant, config), &env.benchmark);
        result.method = label.to_string();
        result
    });
    let table = quality_table("ablation", "Ablation study", &results);
    vec![table
        .note("paper: FMDV ≥ CMDV on F1; sum-FPR ≥ max-FPR on precision; Fisher ≈ chi2-Yates.")]
}

/// Rule stability (ledger Finding 6) — for 60 query columns, how many
/// FMDV-VH rules change once unrelated one-word columns are merged into
/// the index they are inferred against.
fn stability(lab: &Lab) -> Vec<Table> {
    let env = lab.env();
    let cases = env.benchmark.eligible_cases().take(60);
    let trains: Vec<&Vec<String>> = cases.map(|c| &c.train).collect();
    let rules = |index: &PatternIndex| -> Vec<Option<String>> {
        let engine = AutoValidate::new(index, env.fmdv.clone());
        let infer = |train: &&Vec<String>| engine.infer(*train, Variant::FmdvVH).ok();
        let rules = trains.iter().map(infer);
        rules
            .map(|rule| Some(rule?.pattern().to_string()))
            .collect()
    };
    const WORDS: [&str; 7] = ["red", "green", "blue", "black", "white", "silver", "gold"];
    let one_word_column = |k: usize| Column {
        name: format!("unrelated-{k}"),
        values: (0..12)
            .map(|row| WORDS[(k + row * (k % 5 + 1)) % WORDS.len()].to_string())
            .collect(),
        meta: ColumnMeta::machine("colour", None),
    };
    let title = format!(
        "Rule stability: FMDV-VH rules of {} query columns under unrelated ingests",
        trains.len()
    );
    let header = "unrelated_columns,rules_changed,query_columns";
    let mut table = Table::new("stability", title, header);
    let before = rules(&env.index);
    let mut index = PatternIndex::clone(&env.index);
    let mut merged = 0;
    for total in [10, 100, 1000] {
        let columns: Vec<Column> = (merged..total).map(one_word_column).collect();
        let delta = profile_columns(&columns, &IndexConfig::default());
        index.merge_delta(delta).expect("same τ as the index");
        merged = total;
        let after = rules(&index);
        let changed = after.iter().zip(&before).filter(|(a, b)| a != b).count();
        table.push([total, changed, trains.len()].map(|n| Int(n as u64)));
    }
    vec![table.note(
        "the paper's premise is that a rule inferred from the lake can be deployed in a \
         recurring pipeline. 58 of 60 rules are untouched by 1 000 unrelated columns (the lake \
         grown by a quarter); the two that move (a date~colour composite, a URL) are \
         vertical-cut rules with a one-word segment, whose `<lower>+` index entry the ingested \
         words share: both change once, before 100 columns, from general tokens (`<alnum>+`, \
         `<any>+`) to `<lower>+`, then hold. A deployed rule is not re-inferred, so it does not \
         move; an `infer` repeated after ingests may answer differently (ledger Finding 6).",
    )]
}
