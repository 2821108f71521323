//! Simulated programmers for the user study (Table 3).
//!
//! The paper recruited five programmers to hand-write validation regexes
//! for 20 sampled columns; two failed outright (ill-formed or non-matching
//! regexes) and the rest averaged precision 0.47 — far below the
//! algorithm — because hand-written regexes overfit the training sample.
//!
//! We model a programmer as a skill-parameterized regex author: skill
//! controls how often they correctly generalize a position (variable width
//! where the domain varies, class instead of literal) versus pinning what
//! they saw, and how often they produce a broken regex altogether.
//! Authoring wall-clock time cannot be simulated; the paper's measured
//! times are carried by `av-bench`'s `table3` experiment.

use crate::validator::{ColumnValidator, InferredRule};
use av_match::Regex;
use av_pattern::{tokenize, CharClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Skill profile of a simulated programmer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Skill {
    /// Probability of generalizing a fixed width to `+`/`{m,n}` when the
    /// training sample shows varying widths.
    pub generalize_width: f64,
    /// Probability of using a character class where the sample shows
    /// varying content (vs pinning the literal they saw first).
    pub generalize_content: f64,
    /// Probability the final regex is ill-formed / fails on its own
    /// training data (the "2 out of 5 users fail completely" mode).
    pub blunder: f64,
}

impl Skill {
    /// A careful senior developer.
    pub(crate) fn expert() -> Skill {
        Skill {
            generalize_width: 0.9,
            generalize_content: 0.95,
            blunder: 0.0,
        }
    }

    /// A middling developer: frequently pins what they saw.
    pub(crate) fn average() -> Skill {
        Skill {
            generalize_width: 0.5,
            generalize_content: 0.7,
            blunder: 0.1,
        }
    }

    /// A hurried developer: overfits heavily and sometimes ships a broken
    /// regex.
    pub(crate) fn novice() -> Skill {
        Skill {
            generalize_width: 0.2,
            generalize_content: 0.4,
            blunder: 0.4,
        }
    }
}

/// A simulated programmer writing one regex per column.
pub struct SimulatedProgrammer {
    /// Display name ("#1", "#2", ...).
    pub label: String,
    skill: Skill,
    seed: u64,
}

impl SimulatedProgrammer {
    /// Create a programmer with a given skill and RNG seed.
    pub fn new(label: impl Into<String>, skill: Skill, seed: u64) -> SimulatedProgrammer {
        SimulatedProgrammer {
            label: label.into(),
            skill,
            seed,
        }
    }
}

impl ColumnValidator for SimulatedProgrammer {
    fn name(&self) -> &str {
        &self.label
    }

    fn infer(&self, train: &[&str]) -> Option<InferredRule> {
        let first = *train.first()?;
        // Deterministic per-column randomness: seed ⊕ column content hash.
        let mut h: u64 = self.seed;
        for v in train.iter().take(4) {
            for b in v.as_bytes() {
                h = h.wrapping_mul(0x100000001b3) ^ (*b as u64);
            }
        }
        let mut rng = StdRng::seed_from_u64(h);
        if rng.random_bool(self.skill.blunder) {
            // Ships a regex that cannot even match the sample: model as a
            // rule that fails everything (it would alarm daily and be
            // discarded; precision/recall are scored as written).
            return Some(InferredRule::all_match(
                format!("{}: broken regex", self.label),
                |_: &str| false,
            ));
        }
        // Author the regex by looking at (at most) the first 10 values,
        // like a human skimming a sample.
        let sample: Vec<&str> = train.iter().take(10).copied().collect();
        let runs = tokenize(first);
        let mut regex = String::new();
        for (i, run) in runs.iter().enumerate() {
            // What does this position look like across the sample?
            let texts: Vec<&str> = sample
                .iter()
                .filter_map(|v| tokenize(v).get(i).map(|r| r.text))
                .collect();
            let same_text = texts.iter().all(|t| *t == run.text);
            let widths: Vec<usize> = texts.iter().map(|t| t.chars().count()).collect();
            let same_width = widths.iter().all(|w| *w == widths[0]);
            let class = match run.class {
                CharClass::Digit => r"\d",
                CharClass::Letter => "[A-Za-z]",
                CharClass::Space => r"\s",
                CharClass::Symbol => "",
            };
            if run.class == CharClass::Symbol {
                for c in run.text.chars() {
                    if "\\^$.|?*+()[]{}".contains(c) {
                        regex.push('\\');
                    }
                    regex.push(c);
                }
                continue;
            }
            let generalize_content = !same_text && rng.random_bool(self.skill.generalize_content);
            let pin_literal = same_text && !rng.random_bool(self.skill.generalize_content);
            if pin_literal || (!generalize_content && !same_text && texts.len() > 1) {
                // Pins the first literal they saw (overfit mode) — or, if
                // they noticed variation but didn't generalize, writes an
                // alternation of observed values (still overfit).
                let mut alts: Vec<&str> = if pin_literal {
                    vec![run.text]
                } else {
                    texts.clone()
                };
                alts.sort_unstable();
                alts.dedup();
                let escaped: Vec<String> = alts
                    .iter()
                    .map(|t| {
                        t.chars()
                            .flat_map(|c| {
                                if "\\^$.|?*+()[]{}".contains(c) {
                                    vec!['\\', c]
                                } else {
                                    vec![c]
                                }
                            })
                            .collect()
                    })
                    .collect();
                regex.push('(');
                regex.push_str(&escaped.join("|"));
                regex.push(')');
            } else if same_width && !rng.random_bool(self.skill.generalize_width) {
                regex.push_str(&format!("{}{{{}}}", class, widths[0]));
            } else {
                regex.push_str(class);
                regex.push('+');
            }
        }
        let compiled = Regex::new(&regex).ok()?;
        Some(InferredRule::all_match(
            format!("{}: /{}/", self.label, regex),
            move |v: &str| compiled.is_full_match(v),
        ))
    }
}

/// The study panel: three scoring programmers (the paper's two complete
/// failures are modeled by the novice's blunder rate).
pub fn study_panel(seed: u64) -> Vec<SimulatedProgrammer> {
    vec![
        SimulatedProgrammer::new("Programmer#1", Skill::expert(), seed),
        SimulatedProgrammer::new("Programmer#2", Skill::average(), seed.wrapping_add(1)),
        SimulatedProgrammer::new("Programmer#3", Skill::novice(), seed.wrapping_add(2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col<'a>(vals: &[&'a str]) -> Vec<&'a str> {
        vals.to_vec()
    }

    #[test]
    fn expert_generalizes_dates() {
        let p = SimulatedProgrammer::new("e", Skill::expert(), 7);
        let train = col(&[
            "Mar 01 2019",
            "Mar 05 2019",
            "Mar 11 2019",
            "Mar 19 2019",
            "Mar 28 2019",
        ]);
        let rule = p.infer(&train).expect("expert writes a regex");
        assert!(rule.passes(&col(&["Mar 14 2019"])), "{}", rule.description);
    }

    #[test]
    fn novice_overfits_or_blunders() {
        // Across many columns, the novice must be measurably worse than the
        // expert at accepting same-domain future data.
        let novice = SimulatedProgrammer::new("n", Skill::novice(), 1);
        let expert = SimulatedProgrammer::new("e", Skill::expert(), 1);
        let mut novice_ok = 0;
        let mut expert_ok = 0;
        for s in 0..40u64 {
            let train: Vec<String> = (0..8)
                .map(|i| format!("{}-{:02}-{:02}", 2010 + ((s + i) % 9), (i % 12) + 1, i + 1))
                .collect();
            let train_refs: Vec<&str> = train.iter().map(String::as_str).collect();
            let future: Vec<String> = vec![format!("{}-{:02}-{:02}", 2024, 7, 15)];
            if let Some(r) = novice.infer(&train_refs) {
                if r.passes(&future) {
                    novice_ok += 1;
                }
            }
            if let Some(r) = expert.infer(&train_refs) {
                if r.passes(&future) {
                    expert_ok += 1;
                }
            }
        }
        assert!(
            novice_ok < expert_ok,
            "novice {novice_ok} vs expert {expert_ok}"
        );
        assert!(
            expert_ok >= 30,
            "expert should usually generalize: {expert_ok}"
        );
    }

    #[test]
    fn panel_is_deterministic() {
        let train = col(&["10.0.0.1", "10.0.0.2", "192.168.7.13"]);
        for p in study_panel(9) {
            let a = p.infer(&train).map(|r| r.description);
            let b = p.infer(&train).map(|r| r.description);
            assert_eq!(a, b);
        }
    }
}
