//! The paper's tables and figures, plus a case-averaged suite and the
//! repo's own design ablations, as library functions.
//!
//! Each experiment is a function `fn(&RunSettings) -> Report`: it runs
//! its solves and returns its tables, each named for the files it is
//! saved as, and any summary lines. It prints nothing and writes no
//! file. The `all_experiments` binary does both, running the
//! experiments in-process through [`run_all`].

use crate::settings::unknown_argument;
use crate::{RunSettings, Table};
use std::panic::catch_unwind;

mod ablation_design;
mod fig09_layers;
mod fig10_scalability;
mod fig11_devices;
mod fig12_latency;
mod fig13_segments;
mod fig14_noise;
mod fig15_ablation_depth;
mod fig16_ablation_quality;
mod fig17_pruning;
mod suite;
mod table1;
mod table2;

/// What one experiment produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The tables, in print order.
    pub tables: Vec<NamedTable>,
    /// Summary lines, printed after the tables.
    pub notes: Vec<String>,
}

/// A report table and the names of the files it is saved as.
#[derive(Clone, Debug)]
pub struct NamedTable {
    /// File stem: the table is saved as `<name>.csv`.
    pub name: &'static str,
    /// Whether it is also saved as `BENCH_<name>.json`.
    pub json: bool,
    /// The table itself.
    pub table: Table,
}

impl Report {
    /// Adds a table saved as `<name>.csv`.
    pub fn table(mut self, name: &'static str, table: Table) -> Self {
        let json = false;
        self.tables.push(NamedTable { name, json, table });
        self
    }

    /// Adds a table saved as `<name>.csv` and `BENCH_<name>.json`.
    pub fn table_with_json(mut self, name: &'static str, table: Table) -> Self {
        let json = true;
        self.tables.push(NamedTable { name, json, table });
        self
    }

    /// Adds a summary line.
    pub fn note(mut self, line: impl Into<String>) -> Self {
        self.notes.push(line.into());
        self
    }
}

/// A named experiment.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// The name the driver selects it by.
    pub name: &'static str,
    /// Runs it.
    pub run: fn(&RunSettings) -> Report,
}

impl Experiment {
    const fn new(name: &'static str, run: fn(&RunSettings) -> Report) -> Self {
        Experiment { name, run }
    }
}

/// Every experiment, in the order the driver runs them: the paper's
/// eleven, then the suite and the design ablations.
pub const ALL: [Experiment; 13] = [
    Experiment::new("table1", table1::run),
    Experiment::new("table2", table2::run),
    Experiment::new("fig09_layers", fig09_layers::run),
    Experiment::new("fig10_scalability", fig10_scalability::run),
    Experiment::new("fig11_devices", fig11_devices::run),
    Experiment::new("fig12_latency", fig12_latency::run),
    Experiment::new("fig13_segments", fig13_segments::run),
    Experiment::new("fig14_noise", fig14_noise::run),
    Experiment::new("fig15_ablation_depth", fig15_ablation_depth::run),
    Experiment::new("fig16_ablation_quality", fig16_ablation_quality::run),
    Experiment::new("fig17_pruning", fig17_pruning::run),
    Experiment::new("suite", suite::run),
    Experiment::new("ablation_design", ablation_design::run),
];

/// The driver's usage line.
pub const USAGE: &str = "usage: all_experiments [--full] [--seed N] [NAME...]";

/// Parses the driver's arguments, without the program name: `--full`,
/// `--seed N` and experiment names. No name selects every experiment.
/// The selection keeps [`ALL`]'s order. Any other token is an error.
pub fn parse_args(args: &[String]) -> Result<(RunSettings, Vec<Experiment>), String> {
    let mut settings = RunSettings::fast();
    let mut names = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if settings.apply_flag(arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            flag if flag.starts_with('-') => return Err(unknown_argument(flag)),
            name if ALL.iter().any(|e| e.name == name) => names.push(name),
            name => {
                let valid: Vec<&str> = ALL.iter().map(|e| e.name).collect();
                return Err(format!(
                    "unknown experiment `{name}`; valid names: {}",
                    valid.join(" ")
                ));
            }
        }
    }
    let selected = ALL
        .into_iter()
        .filter(|e| names.is_empty() || names.contains(&e.name))
        .collect();
    Ok((settings, selected))
}

/// Runs the experiments in order, in this process, and hands each
/// finished report to `done`. An experiment that panics is caught and
/// the rest still run. Returns the names of those that panicked.
pub fn run_all(
    experiments: &[Experiment],
    settings: &RunSettings,
    mut done: impl FnMut(&'static str, Report),
) -> Vec<&'static str> {
    let mut failed = Vec::new();
    for exp in experiments {
        match catch_unwind(|| (exp.run)(settings)) {
            Ok(report) => done(exp.name, report),
            Err(_) => failed.push(exp.name),
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn args(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    fn names(selected: &[Experiment]) -> Vec<&'static str> {
        selected.iter().map(|e| e.name).collect()
    }

    #[test]
    fn no_arguments_select_every_experiment_in_fast_mode() {
        let (settings, selected) = parse_args(&[]).unwrap();
        assert_eq!(settings, RunSettings::fast());
        assert_eq!(names(&selected), names(&ALL));
    }

    #[test]
    fn flags_and_names_parse_in_any_order() {
        let (settings, selected) =
            parse_args(&args(&["fig17_pruning", "--seed", "7", "table1", "--full"])).unwrap();
        assert!(settings.full);
        assert_eq!(settings.seed, 7);
        // The selection runs in list order, not argument order.
        assert_eq!(names(&selected), ["table1", "fig17_pruning"]);
    }

    #[test]
    fn malformed_seed_is_rejected() {
        for bad in [&["--seed", "7x"][..], &["--seed", "-1"], &["--seed"]] {
            let err = parse_args(&args(bad)).unwrap_err();
            assert!(err.contains("--seed"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse_args(&args(&["--threads", "4"])).unwrap_err();
        assert_eq!(err, "unknown flag `--threads`");
    }

    #[test]
    fn unknown_experiment_is_rejected_with_the_valid_names() {
        let err = parse_args(&args(&["table1", "fig99"])).unwrap_err();
        assert!(err.starts_with("unknown experiment `fig99`"), "{err}");
        for exp in ALL {
            assert!(err.contains(exp.name), "{err} lacks {}", exp.name);
        }
    }

    static RUNS: AtomicUsize = AtomicUsize::new(0);

    fn good(title: &str) -> Report {
        RUNS.fetch_add(1, Ordering::SeqCst);
        let mut table = Table::new(title, vec!["cell"]);
        table.row(vec![title.to_string()]);
        Report::default().table("good", table).note(title)
    }

    #[test]
    fn a_panicking_experiment_fails_alone() {
        let list = [
            Experiment::new("first", |_| good("first")),
            Experiment::new("bad", |_| {
                RUNS.fetch_add(1, Ordering::SeqCst);
                panic!("injected experiment failure")
            }),
            Experiment::new("last", |_| good("last")),
        ];
        let mut reports = Vec::new();
        let failed = run_all(&list, &RunSettings::fast(), |name, report| {
            reports.push((name, report))
        });
        assert_eq!(RUNS.load(Ordering::SeqCst), 3);
        assert_eq!(failed, ["bad"]);
        assert_eq!(reports.len(), 2);
        for ((name, report), want) in reports.iter().zip(["first", "last"]) {
            assert_eq!(*name, want);
            assert_eq!(report.notes, [want]);
            assert_eq!(report.tables.len(), 1);
            assert_eq!(
                report.tables[0].table.render(),
                good(want).tables[0].table.render()
            );
        }
    }
}
