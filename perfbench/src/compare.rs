//! `compare`: two sets of results, side by side, judged by the bounds in
//! `BENCHMARK.json`.
//!
//! A result set is a directory of saved run outputs, one file per run,
//! named `<workload>.<anything>` (for example `tall.3.json`). The last
//! non-empty line of each file is the run's result line.

use crate::report::quartiles;
use depminer_observe::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// Per workload: runs, attempted, failed, and every metric's values.
#[derive(Default)]
struct Side {
    runs: u64,
    attempted: u64,
    failed: u64,
    incorrect: u64,
    values: BTreeMap<String, Vec<f64>>,
}

impl Side {
    /// Whether this side failed a larger share of its operations, or
    /// reported a larger share of incorrect runs, than `base`.
    fn fails_more_than(&self, base: &Side) -> bool {
        let more = |n: u64, of: u64, base_n: u64, base_of: u64| {
            u128::from(n) * u128::from(base_of.max(1)) > u128::from(base_n) * u128::from(of.max(1))
        };
        more(self.failed, self.attempted, base.failed, base.attempted)
            || more(self.incorrect, self.runs, base.incorrect, base.runs)
    }
}

fn declared(spec_path: &Path) -> Result<(Vec<String>, Vec<Declared>), String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let spec = parse(&text).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let workloads = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end metrics")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("an end_to_end metric lacks its name, better or bound")?;
    Ok((workloads, metrics))
}

fn load(dir: &Path) -> Result<BTreeMap<String, Side>, String> {
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths.into_iter().filter(|p| p.is_file()) {
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        let Some((workload, _)) = name.split_once('.') else {
            continue;
        };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let Some(line) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
            return Err(format!("{} is empty", path.display()));
        };
        let doc = parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let side = sides.entry(workload.to_string()).or_default();
        side.runs += 1;
        side.attempted += doc.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        side.failed += doc.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if doc.get("correct").and_then(Value::as_bool) != Some(true) {
            side.incorrect += 1;
        }
        if let Some(Value::Obj(metrics)) = doc.get("metrics") {
            for (metric, v) in metrics {
                if let Some(x) = v.get("value").and_then(Value::as_f64) {
                    side.values.entry(metric.clone()).or_default().push(x);
                }
            }
        }
    }
    Ok(sides)
}

/// What the comparison concluded for one metric on one workload.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Fewer than two runs, or a spread wider than the bound on a side.
    Unresolved,
    /// The new median is worse than the base one by more than the bound.
    Regressed,
    /// The new median is better by more than the bound.
    Improved,
    /// Within the bound either way.
    Within,
}

fn judge(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, String) {
    let (Some(b), Some(n)) = (quartiles(base), quartiles(new)) else {
        return (Verdict::Unresolved, "fewer than two runs".into());
    };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
    let change = (n[1] - b[1]) / b[1];
    let worse = if lower_is_better { change } else { -change };
    let text = format!(
        "{:>11.4} [{:.4}, {:.4}] {:>6.2}%  {:>11.4} [{:.4}, {:.4}] {:>6.2}%  {:>+7.2}%",
        b[1],
        b[0],
        b[2],
        spread(b) * 100.0,
        n[1],
        n[0],
        n[2],
        spread(n) * 100.0,
        change * 100.0
    );
    let verdict = if spread(b) > bound || spread(n) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    (verdict, text)
}

/// Prints the comparison; `Ok(true)` when some metric regressed or the
/// new side failed more than the base side on some workload. Comparing a
/// set with itself shows whether each metric's spread is within its
/// bound: a wider one reads `Unresolved`.
pub fn compare(base: &Path, new: &Path, spec: &Path) -> Result<bool, String> {
    let (workloads, metrics) = declared(spec)?;
    let (base, new) = (load(base)?, load(new)?);
    let mut worse = false;
    println!(
        "{:<9} {:<17} {:>39}  {:>39}  {:>8}  verdict",
        "workload", "metric", "base median [q1, q3] spread", "new median [q1, q3] spread", "change"
    );
    for w in &workloads {
        let (Some(b), Some(n)) = (base.get(w), new.get(w)) else {
            println!("{w:<9} (missing on one side)");
            continue;
        };
        for m in &metrics {
            let empty = Vec::new();
            let bv = b.values.get(&m.name).unwrap_or(&empty);
            let nv = n.values.get(&m.name).unwrap_or(&empty);
            let (verdict, text) = judge(bv, nv, m.lower_is_better, m.bound);
            worse |= verdict == Verdict::Regressed;
            println!(
                "{w:<9} {:<17} {text}  {:?} (bound {}%)",
                m.name,
                verdict,
                m.bound * 100.0
            );
        }
        let failed = n.fails_more_than(b);
        worse |= failed;
        println!(
            "{w:<9} failed/attempted: base {}/{} ({} of {} runs incorrect), new {}/{} ({} of {} runs incorrect){}",
            b.failed,
            b.attempted,
            b.incorrect,
            b.runs,
            n.failed,
            n.attempted,
            n.incorrect,
            n.runs,
            if failed { "  Failed" } else { "" }
        );
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let base = [1.0, 1.01, 0.99, 1.0, 1.02];
        assert_eq!(judge(&base, &base, true, 0.1).0, Verdict::Within);
        let slower = [1.2, 1.21, 1.19, 1.2, 1.22];
        assert_eq!(judge(&base, &slower, true, 0.1).0, Verdict::Regressed);
        assert_eq!(judge(&slower, &base, true, 0.1).0, Verdict::Improved);
        assert_eq!(judge(&base, &slower, false, 0.1).0, Verdict::Improved);
        let noisy = [0.5, 1.5, 1.0, 0.6, 1.4];
        assert_eq!(judge(&base, &noisy, true, 0.1).0, Verdict::Unresolved);
        assert_eq!(judge(&base, &[1.0], true, 0.1).0, Verdict::Unresolved);
    }

    #[test]
    fn more_failures_or_incorrect_runs_than_the_base_fail() {
        let side = |runs, attempted, failed, incorrect| Side {
            runs,
            attempted,
            failed,
            incorrect,
            values: BTreeMap::new(),
        };
        let clean = side(10, 100, 0, 0);
        assert!(!clean.fails_more_than(&clean));
        assert!(side(10, 100, 1, 0).fails_more_than(&clean));
        assert!(side(10, 100, 0, 1).fails_more_than(&clean));
        // The same share of failed operations over more runs is no worse.
        assert!(!side(20, 200, 2, 0).fails_more_than(&side(10, 100, 1, 0)));
        assert!(!clean.fails_more_than(&side(10, 100, 1, 1)));
    }
}
