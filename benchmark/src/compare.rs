//! `benchmark compare`: judge a change against its parent from run
//! records, by a paired-runs rule (a gain needs ≥ 10 pairs, a win in
//! ≥ 9/10 of them and a median gap wider than the parent's interquartile
//! range) and the bounds in `BENCHMARK.json`.
//!
//! Each input file holds the stdout of several benchmark runs (every run
//! prints one `{"record": ...}` line). A parent run and a change run pair
//! up when they ran the same workload with the same seed (the i-th of each
//! side when a seed repeats); a run without a partner is left out.

use crate::json::{self, Value};
use crate::stats::{median, quartiles, relative_iqr};
use crate::Better;
use std::collections::BTreeMap;

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of ≥ 10 pairs and its median beats the
    /// parent's by more than the parent's interquartile range.
    Improved,
    /// Within the bound, or better in every run but short of the gain rule.
    Unchanged,
    /// Worse than the parent's median by more than the bound; for an exact
    /// metric (bound 0), worse in any pair.
    Regressed,
    /// The parent's own spread exceeds the bound, so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn sign(better: Better) -> f64 {
    match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    }
}

/// Pairs (by index) the change wins, and the number of pairs.
pub fn wins(parent: &[f64], change: &[f64], better: Better) -> (usize, usize) {
    let pairs = parent.len().min(change.len());
    let won = (0..pairs)
        .filter(|&i| sign(better) * (change[i] - parent[i]) > 0.0)
        .count();
    (won, pairs)
}

/// Judge `change` against `parent` (paired by index) for a metric that
/// improves in direction `better` and may worsen by at most `bound` (a
/// share of the parent's median).
///
/// A bound of 0 marks a metric that is exact for a seed, such as a
/// simulated cycle count: there is no noise to allow for, so a single pair
/// that got worse is a regression, and only a gain in every pair is an
/// improvement.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let sign = sign(better);
    let (won, pairs) = wins(parent, change, better);
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    if bound == 0.0 {
        let (lost, _) = wins(change, parent, better);
        return if lost > 0 {
            Verdict::Regressed
        } else if won == pairs {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
    }
    let (p, c) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let gain = sign * (c - p);
    if pairs >= 10 && won * 10 >= pairs * 9 && gain > q3 - q1 {
        return Verdict::Improved;
    }
    let worse_share = if p == 0.0 { 0.0 } else { -gain / p.abs() };
    let beats = |a: &[f64], b: &[f64]| a.iter().all(|&x| b.iter().all(|&y| sign * (x - y) > 0.0));
    if relative_iqr(parent) > bound {
        return if beats(change, parent) {
            Verdict::Unchanged
        } else if beats(parent, change) && worse_share > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_share > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// One untraced run's record.
pub struct Run {
    /// The seed it ran with.
    pub seed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations that failed.
    pub failed: u64,
}

/// The untraced run records in `text`, grouped by workload in file order.
pub fn records(text: &str) -> BTreeMap<String, Vec<Run>> {
    let mut out: BTreeMap<String, Vec<_>> = BTreeMap::new();
    for line in text.lines() {
        let Ok(v) = json::parse(line.trim()) else {
            continue;
        };
        let Some(r) = v.get("record") else {
            continue;
        };
        if r.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let (Some(workload), Some(seed)) = (
            r.get("workload").and_then(Value::as_str),
            r.get("seed").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let mut metrics = BTreeMap::new();
        if let Some(Value::Obj(ms)) = r.get("metrics") {
            for (name, m) in ms {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    metrics.insert(name.clone(), x);
                }
            }
        }
        let failed = r.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        out.entry(workload.to_string()).or_default().push(Run {
            seed: seed as u64,
            metrics,
            failed,
        });
    }
    out
}

/// Pair the i-th parent run of each seed with the i-th change run of the
/// same seed.
pub fn pair<'a>(parent: &'a [Run], change: &'a [Run]) -> Vec<(&'a Run, &'a Run)> {
    let mut taken = vec![false; change.len()];
    parent
        .iter()
        .filter_map(|p| {
            let j = (0..change.len()).find(|&j| !taken[j] && change[j].seed == p.seed)?;
            taken[j] = true;
            Some((p, &change[j]))
        })
        .collect()
}

/// The end-to-end metrics of a `BENCHMARK.json`: name, direction, bound.
pub fn bounds(benchmark_json: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let v = json::parse(benchmark_json)?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: better must be higher or lower")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

/// Compare two files' records; returns the report and whether anything
/// regressed (or the change failed more operations than its parent).
pub fn compare(parent: &str, change: &str, benchmark_json: &str) -> Result<(String, bool), String> {
    let metrics = bounds(benchmark_json)?;
    let (p, c) = (records(parent), records(change));
    let mut report = format!(
        "{:<8} {:<16} {:>10} {:>18} {:>18} {:>16} {:>7}\n",
        "workload", "metric", "verdict", "parent", "change", "parent IQR", "wins"
    );
    let mut bad = false;
    for (workload, prs) in &p {
        let pairs = pair(prs, c.get(workload).map_or(&[], Vec::as_slice));
        if pairs.is_empty() {
            report.push_str(&format!(
                "{workload:<8} (no change runs with a parent's seed)\n"
            ));
            continue;
        }
        let pf: u64 = pairs.iter().map(|(p, _)| p.failed).sum();
        let cf: u64 = pairs.iter().map(|(_, c)| c.failed).sum();
        let more_failures = cf > pf;
        bad |= more_failures;
        for (name, better, bound) in &metrics {
            let (pv, cv): (Vec<f64>, Vec<f64>) = pairs
                .iter()
                .filter_map(|(p, c)| Some((*p.metrics.get(name)?, *c.metrics.get(name)?)))
                .unzip();
            let mut v = judge(&pv, &cv, *better, *bound);
            if v == Verdict::Improved && more_failures {
                // A gain does not count when more operations fail.
                v = Verdict::Unresolved;
            }
            bad |= v == Verdict::Regressed;
            let (won, n) = wins(&pv, &cv, *better);
            let (q1, q3) = quartiles(&pv);
            report.push_str(&format!(
                "{workload:<8} {name:<16} {:>10} {:>18.6} {:>18.6} {:>16.6} {:>3}/{}\n",
                v.as_str(),
                median(&pv),
                median(&cv),
                q3 - q1,
                won,
                n
            ));
        }
        if pf + cf > 0 {
            report.push_str(&format!(
                "{workload:<8} failed operations: parent {pf}, change {cf}\n"
            ));
        }
    }
    Ok((report, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn a_consistent_gain_beyond_the_spread_is_improved() {
        let parent = ten(100.0, 0.1);
        let change = ten(110.0, 0.1);
        assert_eq!(
            judge(&parent, &change, Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            judge(&change, &parent, Better::Lower, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn a_small_loss_is_unchanged_and_a_large_one_regressed() {
        let parent = ten(100.0, 0.1);
        assert_eq!(
            judge(&parent, &ten(97.0, 0.1), Better::Higher, 0.05),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&parent, &ten(90.0, 0.1), Better::Higher, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&parent, &ten(110.0, 0.1), Better::Lower, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn too_few_pairs_cannot_claim_a_gain() {
        let parent = vec![100.0; 5];
        let change = vec![120.0; 5];
        assert_eq!(
            judge(&parent, &change, Better::Higher, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = ten(50.0, 10.0);
        let change = ten(48.0, 10.0);
        assert_eq!(
            judge(&parent, &change, Better::Higher, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn an_exact_metric_regresses_when_any_pair_gets_worse() {
        // Deterministic per seed but different across seeds: the spread
        // between seeds must not hide a 1 % loss on every one of them.
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.03 * i as f64).collect();
        let worse: Vec<f64> = parent.iter().map(|x| x * 1.01).collect();
        assert_eq!(
            judge(&parent, &worse, Better::Lower, 0.0),
            Verdict::Regressed
        );
        let mut one_worse = parent.clone();
        one_worse[3] += 1e-9;
        assert_eq!(
            judge(&parent, &one_worse, Better::Lower, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&parent, &parent, Better::Lower, 0.0),
            Verdict::Unchanged
        );
        let better: Vec<f64> = parent.iter().map(|x| x * 0.99).collect();
        assert_eq!(
            judge(&parent, &better, Better::Lower, 0.0),
            Verdict::Improved
        );
    }

    fn rec(w: &str, seed: u64, throughput: f64, slowdown: f64) -> String {
        format!(
            "{{\"record\": {{\"workload\": \"{w}\", \"seed\": {seed}, \"trace\": 0, \
             \"failed\": 0, \"metrics\": {{\
             \"throughput\": {{\"value\": {throughput}, \"unit\": \"1/s\"}}, \
             \"sim_slowdown\": {{\"value\": {slowdown}, \"unit\": \"ratio\"}}}}}}}}\n"
        )
    }

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "sim_slowdown", "unit": "ratio", "better": "lower", "bound": 0}]}"#;

    fn verdict(report: &str, metric: &str) -> String {
        report
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(metric))
            .and_then(|l| l.split_whitespace().nth(2))
            .unwrap_or_else(|| panic!("no {metric} row in {report}"))
            .to_string()
    }

    #[test]
    fn compares_record_files_pairing_runs_by_seed() {
        let slowdown = |seed: u64| 1.0 + 0.03 * seed as f64;
        let parent: String = (1..=10)
            .map(|s| rec("ample", s, 100.0 + s as f64 * 0.1, slowdown(s)))
            .collect();
        // The change's runs arrive in another order; pairing is by seed.
        let slower: String = (1..=10)
            .rev()
            .map(|s| rec("ample", s, 80.0 + s as f64 * 0.1, slowdown(s)))
            .collect();
        let (report, bad) = compare(&parent, &slower, SPEC).unwrap();
        assert!(bad);
        assert_eq!(verdict(&report, "throughput"), "regressed", "{report}");
        assert_eq!(verdict(&report, "sim_slowdown"), "unchanged", "{report}");

        let more_cycles: String = (1..=10)
            .rev()
            .map(|s| rec("ample", s, 100.0 + s as f64 * 0.1, slowdown(s) * 1.01))
            .collect();
        let (report, bad) = compare(&parent, &more_cycles, SPEC).unwrap();
        assert!(bad);
        assert_eq!(verdict(&report, "sim_slowdown"), "regressed", "{report}");
        assert_eq!(verdict(&report, "throughput"), "unchanged", "{report}");

        let (_, bad) = compare(&parent, &parent, SPEC).unwrap();
        assert!(!bad);
        let other_seeds: String = (11..=20).map(|s| rec("ample", s, 50.0, 9.0)).collect();
        let (report, bad) = compare(&parent, &other_seeds, SPEC).unwrap();
        assert!(!bad && report.contains("no change runs"), "{report}");
    }
}
