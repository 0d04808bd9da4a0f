//! One workload run's outcome and the JSON line that carries it.

use crate::spec::Metric;
use rasengan_obs::json::Json;
use std::collections::BTreeMap;

/// What one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations (solves or requests) attempted in the measured phase.
    pub attempted: u64,
    /// Operations that returned an error, `BUSY`, or no reply.
    pub failed: u64,
    /// Metric values by declared name.
    pub values: BTreeMap<&'static str, f64>,
    /// Digest of the generated inputs plus their knobs.
    pub input_digest: u64,
    /// Digest of the deterministic result bytes of the first pass (or,
    /// for the served workload, of every key served).
    pub result_digest: u64,
    /// Human-readable lines for the summary on standard error.
    pub notes: Vec<String>,
    /// Check failures, one line each.
    pub problems: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check; the run is then incorrect.
    pub fn fail(&mut self, line: String) {
        self.problems.push(line);
    }

    /// Sets every metric of `list` a workload bypasses to 0.
    pub fn zero_unset(&mut self, list: &[Metric]) {
        for m in list {
            self.values.entry(m.name).or_insert(0.0);
        }
    }
}

/// The run's result line: exactly the declared metrics of `list`, each
/// with its unit. Fails when a declared metric has no value or a value
/// has no declaration, so the emitted names always match the
/// declaration.
pub fn result_line(report: &Report, list: &[Metric]) -> Result<Json, String> {
    let mut metrics = Vec::new();
    for m in list {
        let value = report
            .values
            .get(m.name)
            .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
        metrics.push((
            m.name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(*value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        ));
    }
    if let Some(extra) = report
        .values
        .keys()
        .find(|k| !list.iter().any(|m| m.name == **k))
    {
        return Err(format!("metric `{extra}` is not declared"));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Int(i128::from(report.attempted))),
        ("failed", Json::Int(i128::from(report.failed))),
        ("metrics", Json::Obj(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    fn full(list: &[Metric]) -> Report {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        for (i, m) in list.iter().enumerate() {
            r.set(m.name, 1.5 + i as f64);
        }
        r
    }

    #[test]
    fn emitted_names_are_exactly_the_declared_ones() {
        for list in [&END_TO_END[..], &PER_LAYER[..]] {
            let line = result_line(&full(list), list).unwrap();
            let emitted: Vec<&str> = match line.get("metrics").unwrap() {
                Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("metrics is an object"),
            };
            let declared: Vec<&str> = list.iter().map(|m| m.name).collect();
            assert_eq!(emitted, declared);
            let keys: Vec<&str> = match &line {
                Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                _ => unreachable!(),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    #[test]
    fn missing_or_undeclared_metrics_are_refused() {
        let mut r = full(&END_TO_END);
        r.values.remove("setup_s");
        assert!(result_line(&r, &END_TO_END).is_err());
        let mut r = full(&END_TO_END);
        r.set("core.solves", 1.0);
        assert!(result_line(&r, &END_TO_END).is_err());
    }
}
