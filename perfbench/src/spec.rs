//! What the benchmark measures: its workloads, its metrics, and the
//! input digests of the default seed. `BENCHMARK.json` at the repository
//! root declares the same names; a unit test keeps the two in step.

/// The seed the committed input digests were generated from.
pub const DEFAULT_SEED: u64 = 2025;

/// Measured seconds per run, as `BENCHMARK.json` fixes it.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Digest of the inputs (problems plus knobs) the default seed
    /// generates. A run refuses to start when generation drifts from it,
    /// so a change to a generator cannot silently change the workload.
    pub default_input_digest: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "exact-corpus",
        why: "compile plus exact mixture propagation over all 32 registry ids at the CLI's 150 iterations, no sampling or noise; 10-seed spread: latency_ms 4.9-6.3%, setup_s 2.6-4.4%",
        default_input_digest: 0x8f58_7941_04b2_ad74,
    },
    Workload {
        name: "noisy-trajectory",
        why: "the per-shot sparse trajectory loop under Kyiv noise with retries and degradation armed, which exact-corpus bypasses; 10-seed spread: latency_ms 4.1-5.4%, setup_s 2.9-4.6%",
        default_input_digest: 0xbf87_5ab1_5820_f8a2,
    },
    Workload {
        name: "flp-scale",
        why: "Fig. 10 FLP at 36-52 vars: the segment layer sampled at 2048 shots, not exact, 68-111 segments per evaluation; 10-seed spread: latency_ms 5.5-10.8%, setup_s 3.7-5.1%",
        default_input_digest: 0xf93e_17b5_965f_9333,
    },
    Workload {
        name: "serve-mix",
        why: "two TCP callers in a closed loop: 4 in 5 requests solve a new key in one of 4 wire formats, 1 in 5 hits the cache; 10-seed spread: latency_ms 4.7-7.2%, setup_s 6.0-7.8%",
        default_input_digest: 0xeedc_2532_eca1_258d,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off, at the reference speed (see `clock`);
/// every workload reports every one. On the reference machine, a shared
/// 2-vCPU VM, ten seeds spread `setup_s` by at most 7.8% and
/// `latency_ms` by at most 10.8% (interquartile range over median; each
/// workload's spreads are in its `why` line and in the README). Each
/// bound is about twice the widest latency spread, so a pairing is not
/// left unresolved by its own noise; set-up time takes the same bound,
/// which is the largest.
pub const END_TO_END: [Metric; 2] = [
    e2e("setup_s", "s", Lower, 0.2),
    e2e("latency_ms", "ms", Lower, 0.2),
];

/// Measured by the traced run (`--trace 1`). A workload that bypasses
/// a layer reports 0 for it.
pub const PER_LAYER: [Metric; 42] = [
    // problems: generation, wire parse, fingerprint.
    layer("problems.generate_ms", "ms", Lower),
    layer("problems.parse_us", "us", Lower),
    layer("problems.fingerprint_us", "us", Lower),
    // math + core compile stages, split from `prepare`.
    layer("core.prepare_ms", "ms", Lower),
    layer("math.basis_ms", "ms", Lower),
    layer("core.simplify_ms", "ms", Lower),
    layer("core.prune_ms", "ms", Lower),
    layer("core.segment_ms", "ms", Lower),
    // core::solver training and execution.
    layer("core.solves", "count", Higher),
    layer("core.evaluations", "count", Lower),
    layer("core.eval_ms", "ms", Lower),
    layer("core.train_share", "frac", Lower),
    layer("core.segments", "count", Lower),
    layer("core.segment_exec_ms", "ms", Lower),
    layer("core.purify_kept_frac", "frac", Higher),
    layer("core.retries", "count", Lower),
    layer("core.degradations", "count", Lower),
    layer("core.arg_mean", "ratio", Lower),
    // qsim: thread fan-out and shots.
    layer("qsim.par_map_calls", "count", Lower),
    layer("qsim.par_map_items_per_call", "count", Higher),
    layer("qsim.shots", "count", Lower),
    layer("qsim.us_per_shot", "us", Lower),
    layer("qsim.fanout_eval_ratio", "ratio", Lower),
    // serve: cache, queue, front end, render.
    layer("serve.hit_ratio", "frac", Higher),
    layer("serve.compile_hit_ratio", "frac", Higher),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.queue_wait_ms_p90", "ms", Lower),
    layer("serve.front_ms_p50", "ms", Lower),
    layer("serve.render_us", "us", Lower),
    layer("serve.solve_ms_p50", "ms", Lower),
    layer("serve.hit_p50_ms", "ms", Lower),
    layer("serve.miss_p50_ms", "ms", Lower),
    layer("serve.latency_p90_ms", "ms", Lower),
    layer("serve.request_rate", "1/s", Higher),
    // The tracing itself.
    layer("obs.trace_overhead_frac", "frac", Lower),
    layer("obs.spans", "count", Lower),
    // Self time per layer as a share of the traced wall-clock.
    layer("self.problems_frac", "frac", Lower),
    layer("self.compile_frac", "frac", Lower),
    layer("self.train_frac", "frac", Lower),
    layer("self.execute_frac", "frac", Lower),
    layer("self.solver_frac", "frac", Lower),
    layer("self.layers_frac", "frac", Higher),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasengan_obs::json::{parse, Json};

    fn declared() -> Json {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<(String, String, String, Option<f64>)> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        list.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.token().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let file = declared();
        assert_eq!(names(file.get("end_to_end").unwrap()), ours(&END_TO_END));
        assert_eq!(names(file.get("per_layer").unwrap()), ours(&PER_LAYER));
    }

    #[test]
    fn declared_workloads_match_the_benchmark_file() {
        let file = declared();
        let listed: Vec<(String, String)> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        let seconds = file.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name))
            .collect();
        for name in &all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len());
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(metric("setup_s").unwrap().bound, Some(largest));
    }
}
