//! Pattern-profiler baselines: Potter's Wheel, SSIS, XSystem, FlashProfile
//! (§5.2). All profile the query column alone; they differ in how specific
//! their patterns are and whether they branch into multiple patterns.

use crate::profile::{profile_group, strict_groups, TokenChoice};
use crate::validator::{ColumnValidator, InferredRule};
use av_core::RuleAutomaton;
use av_pattern::Pattern;

/// Does the column look like natural language (many multi-word letter/space
/// values)? Profilers produce only the trivial pattern there; following the
/// paper, they decline instead.
fn looks_natural_language(train: &[&str]) -> bool {
    if train.is_empty() {
        return true;
    }
    let wordy = train
        .iter()
        .filter(|v| {
            let mut words = 0;
            let mut letters = 0usize;
            let mut others = 0usize;
            for part in v.split(' ') {
                if !part.is_empty() {
                    words += 1;
                }
                for c in part.chars() {
                    if c.is_ascii_alphabetic() {
                        letters += 1;
                    } else {
                        others += 1;
                    }
                }
            }
            words >= 2 && letters > 4 * others.max(1)
        })
        .count();
    wordy * 2 > train.len()
}

/// Potter's Wheel \[57\]: single MDL-optimal pattern over the dominant
/// structure; future values must all match it.
#[derive(Debug, Default)]
pub struct PottersWheel;

impl ColumnValidator for PottersWheel {
    fn name(&self) -> &str {
        "PWheel"
    }

    fn infer(&self, train: &[&str]) -> Option<InferredRule> {
        if looks_natural_language(train) {
            return None;
        }
        let groups = strict_groups(train);
        let dominant = groups.first()?;
        let pattern = profile_group(dominant, TokenChoice::Mdl);
        if pattern.is_trivial() {
            return None;
        }
        let automaton = RuleAutomaton::new([pattern.compile()]);
        Some(InferredRule::all_match(
            pattern.to_string(),
            move |v: &str| automaton.conforms(v),
        ))
    }
}

/// SQL Server Integration Services data profiling: class-only regex per
/// column (never pins alphanumeric literals).
#[derive(Debug, Default)]
pub struct Ssis;

impl ColumnValidator for Ssis {
    fn name(&self) -> &str {
        "SSIS"
    }

    fn infer(&self, train: &[&str]) -> Option<InferredRule> {
        if looks_natural_language(train) {
            return None;
        }
        let groups = strict_groups(train);
        let dominant = groups.first()?;
        let pattern = profile_group(dominant, TokenChoice::ClassOnly);
        if pattern.is_trivial() {
            return None;
        }
        let automaton = RuleAutomaton::new([pattern.compile()]);
        Some(InferredRule::all_match(
            pattern.to_regex(),
            move |v: &str| automaton.conforms(v),
        ))
    }
}

/// XSystem \[40\]: branch-and-merge — one class pattern per retained branch;
/// a future value must match *some* branch.
#[derive(Debug)]
pub struct XSystem {
    /// Minimum fraction of training values a branch needs to be retained.
    pub min_branch_frac: f64,
}

impl Default for XSystem {
    fn default() -> Self {
        XSystem {
            min_branch_frac: 0.05,
        }
    }
}

impl ColumnValidator for XSystem {
    fn name(&self) -> &str {
        "XSystem"
    }

    fn infer(&self, train: &[&str]) -> Option<InferredRule> {
        if looks_natural_language(train) {
            return None;
        }
        let groups = strict_groups(train);
        let min_count = ((self.min_branch_frac * train.len() as f64).ceil() as usize).max(1);
        let branches: Vec<Pattern> = groups
            .iter()
            .filter(|g| g.count >= min_count)
            .map(|g| profile_group(g, TokenChoice::ClassOnly))
            .filter(|p| !p.is_trivial() || p.is_empty())
            .collect();
        if branches.is_empty() {
            return None;
        }
        let desc = branches
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(" | ");
        let automaton = RuleAutomaton::new(branches.iter().map(Pattern::compile));
        Some(InferredRule::all_match(desc, move |v: &str| {
            automaton.conforms(v)
        }))
    }
}

/// FlashProfile \[49\]: cluster by syntactic shape, emit one *specific*
/// pattern per cluster; a future value must match some cluster pattern.
#[derive(Debug)]
pub struct FlashProfile {
    /// Minimum cluster fraction to keep.
    pub min_cluster_frac: f64,
}

impl Default for FlashProfile {
    fn default() -> Self {
        FlashProfile {
            min_cluster_frac: 0.02,
        }
    }
}

impl ColumnValidator for FlashProfile {
    fn name(&self) -> &str {
        "FlashProfile"
    }

    fn infer(&self, train: &[&str]) -> Option<InferredRule> {
        if looks_natural_language(train) {
            return None;
        }
        // Cluster = strict signature + per-position width signature: the
        // clusters FlashProfile's dissimilarity function converges to on
        // machine-generated data.
        use std::collections::HashMap;
        let mut clusters: HashMap<String, Vec<&str>> = HashMap::new();
        for v in train {
            let sig: String = av_pattern::tokenize(v)
                .iter()
                .map(|r| format!("{:?}{}", r.class, r.len()))
                .collect();
            clusters.entry(sig).or_default().push(v);
        }
        let min_count = ((self.min_cluster_frac * train.len() as f64).ceil() as usize).max(1);
        let mut patterns: Vec<Pattern> = Vec::new();
        for values in clusters.values() {
            if values.len() < min_count {
                continue;
            }
            let groups = strict_groups(values);
            if let Some(g) = groups.first() {
                // Singleton clusters would pin every literal; FlashProfile's
                // synthesis falls back to class atoms there.
                let choice = if values.len() == 1 {
                    TokenChoice::ClassOnly
                } else {
                    TokenChoice::MostSpecific
                };
                patterns.push(profile_group(g, choice));
            }
        }
        if patterns.is_empty() {
            return None;
        }
        patterns.sort();
        patterns.dedup();
        let desc = format!("{} cluster patterns", patterns.len());
        let automaton = RuleAutomaton::new(patterns.iter().map(Pattern::compile));
        Some(InferredRule::all_match(desc, move |v: &str| {
            automaton.conforms(v)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col<'a>(vals: &[&'a str]) -> Vec<&'a str> {
        vals.to_vec()
    }

    #[test]
    fn pwheel_overfits_months_as_paper_describes() {
        let train = col(&["Mar 01 2019", "Mar 05 2019", "Mar 30 2019"]);
        let rule = PottersWheel.infer(&train).unwrap();
        assert_eq!(rule.description, "Mar <digit>{2} 2019");
        assert!(rule.passes(&col(&["Mar 17 2019"])));
        // False alarm on April — the profiling-vs-validation gap (§1).
        assert!(!rule.passes(&col(&["Apr 01 2019"])));
    }

    #[test]
    fn ssis_generalizes_the_month_but_not_widths() {
        let train = col(&["Mar 01 2019", "Mar 05 2019"]);
        let rule = Ssis.infer(&train).unwrap();
        assert!(rule.passes(&col(&["Apr 17 2019"])));
        assert!(!rule.passes(&col(&["April 17 2019"])));
    }

    #[test]
    fn xsystem_branches_on_mixed_columns() {
        let mut train = col(&["12345", "23456", "34567", "45678"]);
        train.extend(col(&["ab-1", "cd-2"]));
        let rule = XSystem::default().infer(&train).unwrap();
        assert!(rule.passes(&col(&["99999", "xy-7"])));
        assert!(!rule.passes(&col(&["hello world ok"])));
    }

    #[test]
    fn flashprofile_is_width_specific() {
        let train = col(&["9:07", "8:30", "12:45"]);
        let rule = FlashProfile::default().infer(&train).unwrap();
        assert!(rule.passes(&col(&["7:59"])));
        assert!(rule.passes(&col(&["11:11"])));
        // Unseen width signature (3-digit hour) fails.
        assert!(!rule.passes(&col(&["123:45"])));
    }

    #[test]
    fn profilers_decline_natural_language() {
        let train = col(&[
            "Global Dynamics Research",
            "Acme Consulting Group",
            "Northwind Data Services",
        ]);
        assert!(PottersWheel.infer(&train).is_none());
        assert!(Ssis.infer(&train).is_none());
        assert!(XSystem::default().infer(&train).is_none());
        assert!(FlashProfile::default().infer(&train).is_none());
    }

    #[test]
    fn empty_training_declines() {
        assert!(PottersWheel.infer(&[]).is_none());
        assert!(FlashProfile::default().infer(&[]).is_none());
    }
}
