//! Run sets (`--record`) and their comparison (`--compare`).
//!
//! A run set is a JSON file `{"commit", "nproc", "rustc", "runs": [...]}`
//! with one entry per workload run. A file may instead hold several
//! named sets under `"sets"`; `FILE#NAME` selects one.

use crate::spec::{self, Better};
use crate::stats;
use rasengan_obs::json::{parse, Json};
use std::collections::BTreeMap;

/// One recorded workload run.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub input_digest: String,
    pub result_digest: String,
    pub metrics: BTreeMap<String, f64>,
}

impl Run {
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Int(i128::from(self.seed))),
            ("trace", Json::Int(i128::from(self.trace))),
            ("correct", Json::Bool(self.correct)),
            ("input_digest", Json::Str(self.input_digest.clone())),
            ("result_digest", Json::Str(self.result_digest.clone())),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<Run, String> {
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("run without `{k}`"))
        };
        let metrics = match j.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
            _ => return Err("run without `metrics`".to_string()),
        };
        Ok(Run {
            workload: text("workload")?,
            seed: j.get("seed").and_then(Json::as_i128).unwrap_or(0) as u64,
            trace: j.get("trace").and_then(Json::as_i128).unwrap_or(0) != 0,
            correct: j.get("correct").and_then(Json::as_bool).unwrap_or(false),
            input_digest: text("input_digest")?,
            result_digest: text("result_digest")?,
            metrics,
        })
    }
}

/// Appends `runs` to the run set in `path`, creating it if needed.
pub fn record(path: &str, runs: &[Run]) -> Result<(), String> {
    let mut all = match std::fs::read_to_string(path) {
        Ok(text) => load_text(&text, None)?,
        Err(_) => Vec::new(),
    };
    all.extend(runs.iter().cloned());
    // Where and on what the runs were measured; commit and compiler come
    // from `git` and `rustc` when they are on the path.
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let doc = Json::obj(vec![
        (
            "commit",
            Json::Str(output("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("nproc", Json::Int(nproc as i128)),
        ("rustc", Json::Str(output("rustc", &["-V"]))),
        ("runs", Json::Arr(all.iter().map(Run::json).collect())),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))
}

fn load_text(text: &str, set: Option<&str>) -> Result<Vec<Run>, String> {
    let doc = parse(text)?;
    let holder = match set {
        Some(name) => doc
            .get("sets")
            .and_then(|s| s.get(name))
            .ok_or_else(|| format!("no set `{name}`"))?,
        None => &doc,
    };
    holder
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("no `runs` list")?
        .iter()
        .map(Run::from_json)
        .collect()
}

/// Loads `FILE` or `FILE#SET`.
pub fn load(spec: &str) -> Result<Vec<Run>, String> {
    let (path, set) = match spec.split_once('#') {
        Some((p, s)) => (p, Some(s)),
        None => (spec, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    load_text(&text, set).map_err(|e| format!("{spec}: {e}"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn token(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric on one workload, from `(base, head)`
/// pairs of runs on the same seed.
///
/// * improved: head wins at least 9 of 10 pairs (ties count for
///   neither) and the medians differ, in head's favour, by more than
///   the base's interquartile range;
/// * regressed: head's median is worse than base's by more than `bound`
///   (a share of base's median);
/// * unresolved: base's own spread is wider than `bound`, unless every
///   head run reads better than every base run;
/// * no-worse otherwise. Per-layer metrics (no bound) are never
///   regressed or unresolved.
pub fn verdict(pairs: &[(f64, f64)], better: Better, bound: Option<f64>) -> Verdict {
    let gain = |base: f64, head: f64| match better {
        Better::Lower => base - head,
        Better::Higher => head - base,
    };
    let base: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let head: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (Some([b1, bm, b3]), Some(hm)) = (stats::quartiles(&base), stats::median(&head)) else {
        return Verdict::Unresolved;
    };
    let wins = pairs.iter().filter(|(b, h)| gain(*b, *h) > 0.0).count();
    if wins * 10 >= pairs.len() * 9 && gain(bm, hm) > b3 - b1 {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        return Verdict::NoWorse;
    };
    if -gain(bm, hm) > bound * bm.abs() {
        return Verdict::Regressed;
    }
    let all_better = base.iter().all(|b| head.iter().all(|h| gain(*b, *h) > 0.0));
    if stats::relative_spread(&base).is_none_or(|s| s > bound) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::NoWorse
}

/// Prints, per workload and metric, both sides' medians and quartiles,
/// the head's win fraction and the verdict. Returns the printed table.
pub fn compare(base: &[Run], head: &[Run]) -> String {
    let mut out = String::new();
    let key = |r: &Run| (r.workload.clone(), r.trace, r.seed);
    let head_by: BTreeMap<_, &Run> = head.iter().map(|r| (key(r), r)).collect();
    let mut pairs: BTreeMap<(String, bool, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut digest_mismatches = Vec::new();
    for b in base {
        let Some(h) = head_by.get(&key(b)) else {
            continue;
        };
        if b.input_digest != h.input_digest || b.result_digest != h.result_digest {
            digest_mismatches.push(format!("{} seed {}", b.workload, b.seed));
        }
        for (name, bv) in &b.metrics {
            if let Some(hv) = h.metrics.get(name) {
                pairs
                    .entry((b.workload.clone(), b.trace, name.clone()))
                    .or_default()
                    .push((*bv, *hv));
            }
        }
    }
    out.push_str(&format!(
        "{:<18} {:<28} {:>5} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict\n",
        "workload",
        "metric",
        "pairs",
        "base median",
        "base quartiles",
        "head median",
        "head quartiles",
        "wins"
    ));
    for ((workload, _, name), p) in &pairs {
        let Some(m) = spec::metric(name) else {
            continue;
        };
        let side = |pick: fn(&(f64, f64)) -> f64| {
            let v: Vec<f64> = p.iter().map(pick).collect();
            let [q1, q2, q3] = stats::quartiles(&v).unwrap_or([f64::NAN; 3]);
            (q2, format!("{q1:.4}..{q3:.4}"))
        };
        let (bm, bq) = side(|x| x.0);
        let (hm, hq) = side(|x| x.1);
        let wins = p
            .iter()
            .filter(|(b, h)| match m.better {
                Better::Lower => h < b,
                Better::Higher => h > b,
            })
            .count();
        out.push_str(&format!(
            "{workload:<18} {:<28} {:>5} {bm:>12.4} {bq:>25} {hm:>12.4} {hq:>25} {:>6}  {}\n",
            format!("{name} ({}, {})", m.unit, m.better.token()),
            p.len(),
            format!("{wins}/{}", p.len()),
            verdict(p, m.better, m.bound).token()
        ));
    }
    if digest_mismatches.is_empty() {
        out.push_str("digests: inputs and results identical on every paired seed\n");
    } else {
        out.push_str(&format!(
            "digests differ on: {}\n",
            digest_mismatches.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(base: &[f64], head: &[f64]) -> Vec<(f64, f64)> {
        base.iter().copied().zip(head.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_pairing_rules() {
        let base = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05];
        let faster: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        let lower = Better::Lower;
        assert_eq!(
            verdict(&pairs(&base, &faster), lower, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&pairs(&base, &slower), lower, Some(0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&pairs(&base, &same), lower, Some(0.1)),
            Verdict::NoWorse
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&pairs(&base, &slower), Better::Higher, Some(0.1)),
            Verdict::Improved
        );
        // A base spread wider than the bound leaves a small change unresolved.
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let nudged: Vec<f64> = noisy.iter().rev().map(|b| b * 1.02).collect();
        assert_eq!(
            verdict(&pairs(&noisy, &nudged), lower, Some(0.1)),
            Verdict::Unresolved
        );
        // Per-layer metrics carry no bound.
        assert_eq!(
            verdict(&pairs(&base, &slower), lower, None),
            Verdict::NoWorse
        );
    }

    #[test]
    fn eight_of_ten_wins_is_not_a_gain() {
        let base = [10.0; 10];
        let mut head = [9.0; 10];
        head[0] = 11.0;
        head[1] = 11.0;
        assert_ne!(
            verdict(&pairs(&base, &head), Better::Lower, Some(0.5)),
            Verdict::Improved
        );
    }

    #[test]
    fn runs_round_trip_through_json() {
        let run = Run {
            workload: "exact-corpus".into(),
            seed: 3,
            trace: false,
            correct: true,
            input_digest: "00ff".into(),
            result_digest: "ab".into(),
            metrics: [("solve_rate".to_string(), 12.5)].into_iter().collect(),
        };
        assert_eq!(Run::from_json(&run.json()).unwrap(), run);
        let doc = format!(
            "{{\"sets\":{{\"a\":{{\"runs\":[{}]}}}}}}",
            run.json().render()
        );
        assert_eq!(load_text(&doc, Some("a")).unwrap(), vec![run]);
        assert!(load_text(&doc, Some("b")).is_err());
    }
}
