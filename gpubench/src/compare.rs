//! `gpubench compare`: judge a new result set against a base one, per
//! (workload, end-to-end metric), by the bounds in `BENCHMARK.json`.
//!
//! A result set is a file holding the standard output of any number of
//! untraced runs; each run's `bench-record` line is read from it. A run
//! with a failed answer is not a measurement, and is refused.
//!
//! Runs are judged in pairs: the base and new runs of one workload with
//! the same seed, the k-th of each with that seed forming the k-th pair.
//! Run the two sides alternated, so that each pair shares the host's
//! state of the moment and a drift of the host's speed cancels in the
//! pair's ratio new/base. Verdicts, on the median of those ratios:
//!
//! * `unresolved` — fewer than two pairs, or the ratios' spread
//!   (interquartile range over the median) exceeds the bound, unless the
//!   new run wins every pair;
//! * `regressed` — the new side is worse by more than the bound;
//! * `improved` — the new side wins at least nine pairs in ten and is
//!   better by more than the base runs' own spread;
//! * `no worse` — otherwise.

use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|e| &e.1),
        _ => None,
    }
}

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Number(n)) => Some(n.as_f64()),
        _ => None,
    }
}

fn as_str(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let Some(Value::Array(rows)) = field(benchmark, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    rows.iter()
        .map(|row| {
            Some(Bound {
                name: as_str(field(row, "name"))?.to_string(),
                unit: as_str(field(row, "unit"))?.to_string(),
                lower_is_better: as_str(field(row, "better"))? == "lower",
                bound: as_f64(field(row, "bound"))?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

/// One untraced run: its seed and metric values.
struct Run {
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

/// workload → its runs, in file order.
type Results = BTreeMap<String, Vec<Run>>;

/// The untraced `bench-record` lines of `text` (read from `path`).
fn results(path: &str, text: &str) -> Result<Results, String> {
    let mut out = Results::new();
    for line in text.lines() {
        let Some(json) = line.strip_prefix("bench-record ") else {
            continue;
        };
        let record: Value = serde_json::from_str(json).map_err(|e| format!("{path}: {e}"))?;
        let meta = field(&record, "meta");
        if matches!(
            meta.and_then(|m| field(m, "trace")),
            Some(Value::Bool(true))
        ) {
            continue;
        }
        let workload = as_str(meta.and_then(|m| field(m, "workload")))
            .ok_or(format!("{path}: record without a workload"))?;
        let seed = match meta.and_then(|m| field(m, "seed")) {
            Some(Value::Number(n)) => n.as_u64(),
            _ => None,
        }
        .ok_or(format!("{path}: record without a seed"))?;
        if as_f64(field(&record, "failed")) != Some(0.0) {
            return Err(format!(
                "{path}: the {workload} run with seed {seed} had failed answers; it is not a measurement"
            ));
        }
        let Some(Value::Object(metrics)) = field(&record, "metrics") else {
            return Err(format!("{path}: record without metrics"));
        };
        let metrics = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), as_f64(field(m, "value"))?)))
            .collect();
        out.entry(workload.to_string())
            .or_default()
            .push(Run { seed, metrics });
    }
    if out.is_empty() {
        return Err(format!("{path}: no untraced bench-record lines"));
    }
    Ok(out)
}

/// The k-th base run of a seed with the k-th new run of that seed.
fn pairs<'r>(base: &'r [Run], new: &'r [Run]) -> Vec<(&'r Run, &'r Run)> {
    let mut used = vec![false; new.len()];
    base.iter()
        .filter_map(|b| {
            let j = (0..new.len()).find(|&j| !used[j] && new[j].seed == b.seed)?;
            used[j] = true;
            Some((b, &new[j]))
        })
        .collect()
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::INFINITY;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// What one (workload, metric) row rests on.
struct Judged {
    verdict: &'static str,
    /// Median of the per-pair ratios new/base.
    ratio: f64,
    ratio_spread: f64,
    base_spread: f64,
    wins: usize,
}

/// Judge `(base, new)` value pairs against `b`.
fn verdict(b: &Bound, pairs: &[(f64, f64)]) -> Judged {
    let ratios: Vec<f64> = pairs.iter().map(|&(o, n)| n / o).collect();
    let base: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let wins = pairs
        .iter()
        .filter(|&&(o, n)| if b.lower_is_better { n < o } else { n > o })
        .count();
    let ratio = median(&ratios);
    let (ratio_spread, base_spread) = (spread(&ratios), spread(&base));
    let worse_by = if b.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let verdict = if pairs.len() < 2 || (ratio_spread > b.bound && wins < pairs.len()) {
        "unresolved"
    } else if worse_by > b.bound {
        "regressed"
    } else if wins * 10 >= pairs.len() * 9 && -worse_by > base_spread {
        "improved"
    } else {
        "no worse"
    };
    Judged {
        verdict,
        ratio,
        ratio_spread,
        base_spread,
        wins,
    }
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let [benchmark, base, new] = argv else {
        return Err("usage: gpubench compare <BENCHMARK.json> <base results> <new results>".into());
    };
    let benchmark: Value =
        serde_json::from_str(&read(benchmark)?).map_err(|e| format!("{benchmark}: {e}"))?;
    let bounds = bounds(&benchmark)?;
    let (base, new) = (results(base, &read(base)?)?, results(new, &read(new)?)?);
    println!(
        "{:<12} {:<15} {:>5} {:>12} {:>12} {:>9} {:>7} {:>7} {:>5} {:>6}  verdict",
        "workload",
        "metric",
        "pairs",
        "base p50",
        "new p50",
        "new/base",
        "spread",
        "base sp",
        "wins",
        "bound"
    );
    for (workload, base_runs) in &base {
        let paired = pairs(base_runs, new.get(workload).map_or(&[], Vec::as_slice));
        if paired.is_empty() {
            println!("{workload:<12} (no new run has the seed of a base run)");
            continue;
        }
        for b in &bounds {
            let values: Vec<(f64, f64)> = paired
                .iter()
                .filter_map(|(o, n)| Some((*o.metrics.get(&b.name)?, *n.metrics.get(&b.name)?)))
                .collect();
            if values.is_empty() {
                continue;
            }
            let j = verdict(b, &values);
            let mb = median(&values.iter().map(|p| p.0).collect::<Vec<_>>());
            let mn = median(&values.iter().map(|p| p.1).collect::<Vec<_>>());
            println!(
                "{:<12} {:<15} {:>5} {:>12.3} {:>12.3} {:>9.4} {:>6.1}% {:>6.1}% {:>5} {:>5.0}%  {} (base {mb:.3} {})",
                workload,
                b.name,
                values.len(),
                mb,
                mn,
                j.ratio,
                100.0 * j.ratio_spread,
                100.0 * j.base_spread,
                j.wins,
                100.0 * b.bound,
                j.verdict,
                b.unit,
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool) -> Bound {
        Bound {
            name: "m".into(),
            unit: "us".into(),
            lower_is_better: lower,
            bound: 0.1,
        }
    }

    fn judge(lower: bool, base: &[f64], new: &[f64]) -> &'static str {
        let pairs: Vec<(f64, f64)> = base.iter().copied().zip(new.iter().copied()).collect();
        verdict(&bound(lower), &pairs).verdict
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.0, 101.0, 99.0, 100.2, 99.8];
        assert_eq!(judge(true, &base, &same), "no worse");
        let up = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(true, &base, &up), "regressed");
        assert_eq!(judge(false, &base, &up), "improved");
        let noisy = [50.0, 150.0, 90.0, 200.0, 101.0];
        assert_eq!(judge(true, &base, &noisy), "unresolved");
        assert_eq!(judge(true, &base[..1], &up[..1]), "unresolved");
    }

    #[test]
    fn a_host_drift_shared_by_each_pair_cancels() {
        // The host slows by up to 40% from pair to pair; the new side
        // matches the base within 1% in every pair.
        let base = [100.0, 140.0, 110.0, 130.0, 105.0, 125.0];
        let new = [101.0, 139.0, 110.5, 131.0, 104.5, 125.5];
        assert_eq!(judge(true, &base, &new), "no worse");
    }

    #[test]
    fn winning_every_pair_lifts_unresolved_but_is_not_enough_to_improve() {
        // Every pair better, by a noisy but large margin: improved.
        let base = [100.0; 5];
        assert_eq!(
            judge(true, &base, &[50.0, 90.0, 60.0, 95.0, 70.0]),
            "improved"
        );
        // Every pair better, by 2%, inside the base runs' own 10%
        // spread: no worse, not improved.
        let base = [100.0, 90.0, 110.0, 95.0, 105.0];
        let new: Vec<f64> = base.iter().map(|v| v * 0.98).collect();
        assert_eq!(judge(true, &base, &new), "no worse");
    }

    #[test]
    fn runs_pair_by_seed_and_failed_runs_are_refused() {
        let record = |seed: u64, failed: u64, v: f64| {
            format!(
                "bench-record {{\"meta\":{{\"workload\":\"w\",\"seed\":{seed},\"trace\":false}},\
                 \"failed\":{failed},\"metrics\":{{\"m\":{{\"value\":{v},\"unit\":\"us\"}}}}}}\n"
            )
        };
        let base = results("base", &(record(1, 0, 10.0) + &record(2, 0, 20.0))).unwrap();
        let new = results("new", &(record(2, 0, 21.0) + &record(3, 0, 30.0))).unwrap();
        let paired = pairs(&base["w"], &new["w"]);
        assert_eq!(paired.len(), 1);
        assert_eq!(
            (paired[0].0.metrics["m"], paired[0].1.metrics["m"]),
            (20.0, 21.0)
        );
        let err = results("bad", &record(4, 1, 10.0)).err().unwrap();
        assert!(err.contains("failed answers"), "{err}");
    }
}
