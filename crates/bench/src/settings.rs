//! Fast/full run settings.
//!
//! The paper's artifact scales its reproduce scripts down (≈10 cases per
//! benchmark instead of 100) to finish in reasonable time; this harness
//! does the same. The default is *fast* mode; pass `--full` for the
//! paper's iteration budgets. Every tool parses its arguments strictly:
//! an unknown flag or a malformed value is an error, which the binaries
//! report with their usage line and exit status 2.

use std::str::FromStr;

/// Runtime knobs shared by the experiments and the perf tools. The
/// engine's thread count is not one of them: it comes from
/// `RASENGAN_THREADS`, and never changes a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSettings {
    /// Whether `--full` was requested.
    pub full: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl RunSettings {
    /// Parses the arguments, without the program name, of a tool that
    /// takes only `--full` and `--seed N` (`fusion`). Any other token is
    /// an error.
    pub fn parse_args(args: &[String]) -> Result<Self, String> {
        let mut settings = RunSettings::fast();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !settings.apply_flag(arg, &mut rest)? {
                return Err(unknown_argument(arg));
            }
        }
        Ok(settings)
    }

    /// Applies `arg` if it is one of the flags every tool takes:
    /// `--full`, or `--seed N` with `N` the next token of `rest`.
    /// Returns whether it was one.
    ///
    /// # Errors
    ///
    /// `--seed` without a value, or with one that is not an unsigned
    /// integer.
    pub fn apply_flag<'a>(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        match arg {
            "--full" => self.full = true,
            "--seed" => self.seed = unsigned_value(arg, rest)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Fast mode at seed 2025: the driver's defaults.
    pub fn fast() -> Self {
        RunSettings {
            full: false,
            seed: 2025,
        }
    }

    /// Optimizer budget for Rasengan (paper: 300).
    pub fn rasengan_iterations(&self) -> usize {
        if self.full {
            300
        } else {
            80
        }
    }

    /// Optimizer budget for baselines, derated for large dense
    /// simulations in fast mode.
    pub fn baseline_iterations(&self, n_vars: usize) -> usize {
        match (self.full, n_vars) {
            (true, _) => 300,
            (false, n) if n > 16 => 12,
            (false, n) if n > 12 => 25,
            (false, _) => 50,
        }
    }

    /// Number of randomized cases per benchmark (paper: 100).
    pub fn cases_per_benchmark(&self) -> usize {
        if self.full {
            10
        } else {
            1
        }
    }

    /// Shots per circuit execution in hardware-style experiments
    /// (paper: 1024; fast mode trims to keep trajectory counts low).
    pub fn shots(&self) -> usize {
        if self.full {
            1024
        } else {
            256
        }
    }
}

/// The unsigned integer after `flag`: the next token of `rest`.
///
/// # Errors
///
/// No next token, or one that does not parse as `T`.
pub fn unsigned_value<'a, T: FromStr>(
    flag: &str,
    rest: &mut impl Iterator<Item = &'a String>,
) -> Result<T, String> {
    let value = rest.next().ok_or(format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not an unsigned integer"))
}

/// The error for a token no parser accepts.
pub fn unknown_argument(arg: &str) -> String {
    if arg.starts_with('-') {
        format!("unknown flag `{arg}`")
    } else {
        format!("unexpected argument `{arg}`")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<RunSettings, String> {
        let args: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        RunSettings::parse_args(&args)
    }

    #[test]
    fn shared_flags_parse() {
        assert_eq!(parse(&[]), Ok(RunSettings::fast()));
        let s = parse(&["--seed", "7", "--full"]).unwrap();
        assert!(s.full);
        assert_eq!(s.seed, 7);
    }

    #[test]
    fn a_bad_seed_is_rejected() {
        assert_eq!(parse(&["--seed"]), Err("--seed needs a value".to_string()));
        for bad in ["7x", "-1", "", "1.5"] {
            let err = parse(&["--seed", bad]).unwrap_err();
            assert_eq!(err, format!("--seed: `{bad}` is not an unsigned integer"));
        }
    }

    #[test]
    fn unknown_tokens_are_rejected() {
        assert_eq!(
            parse(&["--node", "2"]),
            Err("unknown flag `--node`".to_string())
        );
        assert_eq!(
            parse(&["full"]),
            Err("unexpected argument `full`".to_string())
        );
        // A flag of another tool is unknown here.
        assert_eq!(
            parse(&["--replay"]),
            Err("unknown flag `--replay`".to_string())
        );
    }

    #[test]
    fn fast_mode_derates_large_problems() {
        let s = RunSettings::fast();
        assert!(s.baseline_iterations(20) < s.baseline_iterations(10));
        assert_eq!(s.rasengan_iterations(), 80);
        assert_eq!(s.cases_per_benchmark(), 1);
    }

    #[test]
    fn full_mode_uses_paper_budgets() {
        let s = RunSettings {
            full: true,
            seed: 1,
        };
        assert_eq!(s.rasengan_iterations(), 300);
        assert_eq!(s.baseline_iterations(20), 300);
    }
}
