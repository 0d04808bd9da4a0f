//! The repository benchmark: end-to-end and per-layer metrics of four
//! workloads (see `README.md` beside this file).
//!
//! ```text
//! perf [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! perf --compare BASE[#SET] HEAD[#SET]
//! ```
//!
//! With `--workload` one workload runs in this process and the last
//! line of standard output is its result as JSON. Without it, every
//! workload runs in a child process of its own (so the global metrics
//! registry the server installs never reaches the in-process
//! workloads), a table of every metric is printed, and the last line
//! holds each workload's metrics under the workload's name.

mod clock;
mod compare;
mod inproc;
mod report;
mod serve_mix;
mod spec;
mod stats;
mod trace;

use compare::Run;
use rasengan_obs::json::{parse, Json};
use report::{result_line, Report};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        record: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|_| format!("bad number `{text}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let text = value("a seed")?;
                args.seed = text.parse().map_err(|_| format!("bad seed `{text}`"))?;
            }
            "--seconds" => args.seconds = number(value("seconds")?)?,
            // `--trace 0|1`, or a bare `--trace` for 1.
            "--trace" => {
                let bare = !matches!(it.peek().map(String::as_str), Some("0" | "1"));
                args.trace = bare || it.next().as_deref() == Some("1");
            }
            "--record" => args.record = Some(value("a file")?),
            "--compare" => {
                let base = value("BASE and HEAD files")?;
                let head = it.next().ok_or("--compare needs BASE and HEAD files")?;
                args.compare = Some((base, head));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    if let Some(w) = &args.workload {
        if spec::workload(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> Result<Report, String> {
    match inproc::Kind::of(name) {
        Some(kind) => inproc::run(kind, args.seed, args.seconds, args.trace),
        None => serve_mix::run(args.seed, args.seconds, args.trace),
    }
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// One workload in this process: summary on standard error, digests
/// and the result line on standard output.
fn single(name: &str, args: &Args) -> Result<ExitCode, String> {
    let report = run_workload(name, args)?;
    for line in report.notes.iter().chain(&report.problems) {
        eprintln!("{line}");
    }
    let list = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let line = result_line(&report, list)?;
    if let Some(path) = &args.record {
        compare::record(path, &[to_run(name, args, &line, &report)])?;
    }
    println!("input_digest {}", hex(report.input_digest));
    println!("result_digest {}", hex(report.result_digest));
    println!("{}", line.render());
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn to_run(name: &str, args: &Args, line: &Json, report: &Report) -> Run {
    Run {
        workload: name.to_string(),
        seed: args.seed,
        trace: args.trace,
        correct: report.correct,
        input_digest: hex(report.input_digest),
        result_digest: hex(report.result_digest),
        metrics: metric_values(line),
    }
}

fn metric_values(line: &Json) -> std::collections::BTreeMap<String, f64> {
    match line.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| {
                v.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (k.clone(), v))
            })
            .collect(),
        _ => Default::default(),
    }
}

/// Runs one workload as a child process and parses what it printed.
fn child(name: &str, trace: bool, args: &Args) -> Result<Run, String> {
    let seed = args.seed;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let field = |key: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .map(|v| v.trim().to_string())
            .unwrap_or_default()
    };
    let line = stdout
        .lines()
        .last()
        .and_then(|l| parse(l).ok())
        .ok_or_else(|| format!("{name} (seed {seed}) printed no result ({})", output.status))?;
    Ok(Run {
        workload: name.to_string(),
        seed,
        trace,
        correct: line.get("correct").and_then(Json::as_bool) == Some(true)
            && output.status.success(),
        input_digest: field("input_digest "),
        result_digest: field("result_digest "),
        metrics: metric_values(&line),
    })
}

/// Every workload once at `--seed`, each in a child process (and again
/// traced with `--trace`); prints a table of every metric and, last,
/// the combined result line.
fn all(args: &Args) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        println!("{}: {}", w.name, w.why);
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let run = child(w.name, trace, args)?;
            println!(
                "{} trace {}: correct {}, input {}, result {}",
                run.workload,
                u8::from(trace),
                run.correct,
                run.input_digest,
                run.result_digest
            );
            for (name, value) in &run.metrics {
                let unit = spec::metric(name).map_or("", |m| m.unit);
                println!("  {name:<28} {value:>14.6} {unit}");
            }
            runs.push(run);
        }
    }
    if let Some(path) = &args.record {
        compare::record(path, &runs)?;
    }
    let line = combined(&runs);
    println!("{}", line.render());
    Ok(if runs.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One object per workload, under its declared name, with the declared
/// metric names of its runs (end-to-end and, traced, per-layer).
fn combined(runs: &[Run]) -> Json {
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mine: Vec<&Run> = runs.iter().filter(|r| r.workload == w.name).collect();
        let metrics = mine
            .iter()
            .flat_map(|r| &r.metrics)
            .map(|(name, value)| {
                let unit = spec::metric(name).map_or("", |m| m.unit);
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        workloads.push((
            w.name.to_string(),
            Json::obj(vec![
                ("correct", Json::Bool(mine.iter().all(|r| r.correct))),
                ("metrics", Json::Obj(metrics)),
            ]),
        ));
    }
    Json::obj(vec![
        ("correct", Json::Bool(runs.iter().all(|r| r.correct))),
        ("attempted", Json::Int(runs.len() as i128)),
        (
            "failed",
            Json::Int(runs.iter().filter(|r| !r.correct).count() as i128),
        ),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some((base, head)) = &args.compare {
            print!(
                "{}",
                compare::compare(&compare::load(base)?, &compare::load(head)?)
            );
            return Ok(ExitCode::SUCCESS);
        }
        match &args.workload {
            Some(name) => single(name, &args),
            None => all(&args),
        }
    });
    outcome.unwrap_or_else(|err| {
        eprintln!("perf: {err}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(list: &str) -> Vec<String> {
        let file = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        file.get(list)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    fn keys(json: &Json) -> Vec<String> {
        match json {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("an object"),
        }
    }

    #[test]
    fn combined_line_uses_the_declared_names() {
        let runs: Vec<Run> = WORKLOADS
            .iter()
            .flat_map(|w| {
                [(false, &END_TO_END[..]), (true, &PER_LAYER[..])].map(|(trace, list)| Run {
                    workload: w.name.to_string(),
                    seed: spec::DEFAULT_SEED,
                    trace,
                    correct: true,
                    input_digest: String::new(),
                    result_digest: String::new(),
                    metrics: list.iter().map(|m| (m.name.to_string(), 1.0)).collect(),
                })
            })
            .collect();
        let line = combined(&runs);
        let workloads = line.get("workloads").unwrap();
        assert_eq!(keys(workloads), declared("workloads"));
        let mut names = declared("end_to_end");
        names.extend(declared("per_layer"));
        names.sort();
        for w in &WORKLOADS {
            let mut emitted = keys(workloads.get(w.name).unwrap().get("metrics").unwrap());
            emitted.sort();
            assert_eq!(emitted, names, "{}", w.name);
        }
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    }
}
