//! Fast/full run settings.
//!
//! The paper's artifact scales its reproduce scripts down (≈10 cases per
//! benchmark instead of 100) to finish in reasonable time; this harness
//! does the same. The default is *fast* mode; pass `--full` for the
//! paper's iteration budgets.

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
    /// Reads `--full` and `--seed N` from the process arguments for the
    /// perf tools (`fusion`, `loadgen`), which take flags of their own
    /// beside them. An unreadable seed falls back to 2025. The
    /// experiment driver parses strictly instead, through
    /// [`crate::experiments::parse_args`].
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let full = args.iter().any(|a| a == "--full");
        let seed = args
            .iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(2025);
        RunSettings { full, seed }
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

#[cfg(test)]
mod tests {
    use super::*;

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
