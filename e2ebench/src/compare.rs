//! `e2e compare BASE CHANGE`: per workload and metric, the two sides'
//! medians and quartiles and a verdict against the bounds in
//! `BENCHMARK.json`. Each side is a result file (`e2e_<seed>.json` from
//! `run`, or `<workload>_<seed>.json` from `run --workload`) or a
//! directory, whose `<workload>_*.json` files are read (`run` writes
//! those too, so its `e2e_*` summaries are skipped); runs are pooled per
//! side.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use drd_serve::json::{self, Value};

use crate::stats::{median, quartiles};
use crate::WORKLOADS;

/// `(workload, metric)` → values, one per run.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn files(arg: &str) -> Result<Vec<PathBuf>, String> {
    let path = Path::new(arg);
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut out: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("read {arg}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && WORKLOADS.iter().any(|w| name.starts_with(w))
        })
        .collect();
    out.sort();
    Ok(out)
}

fn add_result(runs: &mut Runs, workload: &str, result: &Value) {
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        if let Some(v) = m.get("value").and_then(Value::as_num) {
            runs.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(v);
        }
    }
}

fn load(arg: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in files(arg)? {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if let Some(w) = WORKLOADS.iter().find(|w| stem.starts_with(*w)) {
            if let Some(result) = doc.get("result") {
                add_result(&mut runs, w, result);
            }
        } else {
            for w in WORKLOADS {
                if let Some(result) = doc.get(w) {
                    add_result(&mut runs, w, result);
                }
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("no benchmark results in {arg}"));
    }
    Ok(runs)
}

/// `name` → `(better is lower, bound)` for every declared metric; per-layer
/// metrics carry no bound.
fn declared() -> Result<BTreeMap<String, (bool, Option<f64>)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Value::as_arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Value::as_num);
            out.insert(name.to_owned(), (lower, bound));
        }
    }
    Ok(out)
}

/// Relative spread of one side: (Q3 − Q1) / median.
fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs()
}

/// The verdict for one metric on one workload: a metric whose run spread
/// exceeds its bound is unresolved unless every change run beats (or
/// trails) every base run; a gain must also beat the base's own spread
/// and win nine tenths of the cross pairs.
fn verdict(base: &[f64], change: &[f64], lower: bool, bound: Option<f64>) -> &'static str {
    let Some(bound) = bound else {
        return "no bound";
    };
    let sign = if lower { -1.0 } else { 1.0 };
    let gain = sign * (median(change) - median(base)) / median(base).abs();
    if base.len() < 2 || change.len() < 2 {
        // No spread to judge by: the bound alone decides.
        return if gain > bound {
            "improved"
        } else if gain < -bound {
            "regressed"
        } else {
            "unchanged"
        };
    }
    let better = |c: f64, b: f64| sign * (c - b) > 0.0;
    let pairs = (base.len() * change.len()) as f64;
    let wins = change
        .iter()
        .map(|&c| base.iter().filter(|&&b| better(c, b)).count())
        .sum::<usize>();
    let losses = change
        .iter()
        .map(|&c| base.iter().filter(|&&b| better(b, c)).count())
        .sum::<usize>();
    let (all_better, all_worse) = (wins as f64 == pairs, losses as f64 == pairs);
    if spread(base).max(spread(change)) > bound && !all_better && !all_worse {
        "unresolved"
    } else if gain < -bound {
        "regressed"
    } else if gain > spread(base) && wins as f64 >= 0.9 * pairs {
        "improved"
    } else {
        "unchanged"
    }
}

pub fn run(args: &[String]) -> Result<(), String> {
    let [base, change] = args else {
        return Err("usage: e2e compare BASE CHANGE (files or directories of results)".into());
    };
    let (base, change) = (load(base)?, load(change)?);
    let declared = declared()?;
    let fmt = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        format!("{:.6} [{:.6}, {:.6}] n={}", median(v), q1, q3, v.len())
    };
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    let mut current = "";
    for ((workload, metric), b) in &base {
        let Some(c) = change.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (lower, bound) = declared.get(metric).copied().unwrap_or((true, None));
        let v = verdict(b, c, lower, bound);
        *tally.entry(v).or_default() += 1;
        if workload != current {
            println!("{workload}");
            current = workload;
        }
        let delta = (median(c) - median(b)) / median(b).abs() * 100.0;
        println!(
            "  {metric:<36} base {}  change {}  {delta:+.2}%  {v}",
            fmt(b),
            fmt(c)
        );
    }
    let summary: Vec<String> = tally.iter().map(|(v, n)| format!("{n} {v}")).collect();
    println!("{}", summary.join(", "));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&base, &[10.05, 10.0, 9.95, 10.1], true, Some(0.05)),
            "unchanged"
        );
        assert_eq!(
            verdict(&base, &[12.0, 12.1, 11.9, 12.0], true, Some(0.05)),
            "regressed"
        );
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 7.9, 8.0], true, Some(0.05)),
            "improved"
        );
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 7.9, 8.0], false, Some(0.05)),
            "regressed"
        );
        let noisy = [5.0, 15.0, 8.0, 12.0];
        assert_eq!(verdict(&base, &noisy, true, Some(0.05)), "unresolved");
        assert_eq!(verdict(&[10.0], &[10.2], true, Some(0.05)), "unchanged");
        assert_eq!(verdict(&base, &[1.0], true, None), "no bound");
    }
}
