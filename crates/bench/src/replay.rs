//! Deterministic workload replay: a seeded synthetic request stream
//! over the full benchmark corpus.
//!
//! A replay is fully described by a [`Manifest`]: seeded Poisson
//! arrivals (exponential inter-arrival gaps), a seeded mixture over
//! every registry id, per-draw solver knobs (seed, shots, iterations)
//! and a per-draw *wire format* (`native|qubo|qubo-recover|lp`), all
//! fixed at manifest-build time. Every random quantity is drawn from
//! SplitMix64 streams derived from the manifest seed via
//! [`case_seed`], so the same
//! seed reproduces the same request sequence on any machine — and
//! because the solver itself is bit-deterministic, replaying a manifest
//! twice must produce byte-identical per-request `result` sections.
//! The loadgen binary's `--replay` arm checks exactly that.
//!
//! Formats are drawn uniformly and then *resolved* against the drawn
//! problem: a format the problem cannot round-trip through (e.g. a
//! quadratic objective has no LP form) falls back to native,
//! deterministically, so the manifest always records the format that
//! actually goes on the wire.

use rasengan_problems::ingest::{parse_as, write_as, Format};
use rasengan_problems::registry::{all_ids, benchmark, case_seed, BenchmarkId};

/// Knobs of a replay run.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Manifest seed: everything derives from this.
    pub seed: u64,
    /// Number of requests to draw.
    pub requests: usize,
    /// Mean arrival rate, requests per second.
    pub rate_per_s: f64,
    /// Optimizer iteration budget per request (fixed; the varied knobs
    /// are seed and shots).
    pub iterations: usize,
}

impl ReplayConfig {
    /// The loadgen defaults: fast mode keeps the arm to a few seconds.
    pub fn new(seed: u64, full: bool) -> Self {
        ReplayConfig {
            seed,
            requests: if full { 48 } else { 12 },
            rate_per_s: 25.0,
            iterations: if full { 40 } else { 12 },
        }
    }
}

/// One drawn request.
#[derive(Clone, Debug, PartialEq)]
pub struct Draw {
    /// Position in the stream.
    pub index: usize,
    /// Registry benchmark id (e.g. `"F2"`).
    pub id: String,
    /// Absolute arrival time since replay start, milliseconds.
    pub arrival_ms: f64,
    /// Solver RNG seed for this request.
    pub solver_seed: u64,
    /// Shots per objective evaluation.
    pub shots: usize,
    /// Optimizer iteration cap.
    pub iterations: usize,
    /// Wire format the problem body travels in (already resolved: the
    /// problem is guaranteed to round-trip through it).
    pub format: Format,
}

/// A fully-materialized replay: the mixture weights and every draw.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// The seed the manifest was built from.
    pub seed: u64,
    /// Mean arrival rate, requests per second.
    pub rate_per_s: f64,
    /// Normalized mixture weight per registry id, in registry order.
    pub weights: Vec<(String, f64)>,
    /// The request stream, in arrival order.
    pub draws: Vec<Draw>,
}

/// Uniform in `[0, 1)` from a SplitMix64 output (53-bit mantissa).
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Resolves a drawn format against a problem: keep it when the problem
/// round-trips through that format (export then re-parse both
/// succeed), otherwise fall back to native. Pure, so manifest
/// regeneration resolves identically.
fn resolve_format(problem: &rasengan_problems::problem::Problem, desired: Format) -> Format {
    if desired == Format::Native {
        return Format::Native;
    }
    let ok = write_as(desired, problem)
        .ok()
        .and_then(|text| parse_as(desired, &text).ok())
        .is_some();
    if ok {
        desired
    } else {
        Format::Native
    }
}

/// Renders a problem's wire body in a draw's resolved format.
/// Resolution guaranteed the export succeeds.
pub fn wire_body(id: &str, format: Format) -> String {
    let problem = benchmark(BenchmarkId::parse(id).expect("manifest id"));
    write_as(format, &problem).expect("resolved format must export")
}

/// Builds the manifest for a config. Pure and deterministic: the same
/// config always yields the same manifest, byte for byte.
pub fn manifest(cfg: &ReplayConfig) -> Manifest {
    let ids: Vec<String> = all_ids().iter().map(|id| id.to_string()).collect();
    // Stream 0: mixture weights — one positive draw per id, normalized.
    let raw: Vec<f64> = (0..ids.len())
        .map(|i| 0.25 + unit(case_seed(cfg.seed, i as u64)))
        .collect();
    let total: f64 = raw.iter().sum();
    let weights: Vec<(String, f64)> = ids
        .iter()
        .cloned()
        .zip(raw.iter().map(|w| w / total))
        .collect();

    // Streams 1..: per-draw quantities, one derived seed per (draw,
    // slot) pair so inserting a new slot never shifts the others.
    let slot = |draw: usize, k: u64| case_seed(cfg.seed, 0x1000 + (draw as u64) * 8 + k);
    let mut arrival_ms = 0.0;
    let draws = (0..cfg.requests)
        .map(|i| {
            // Exponential inter-arrival gap (Poisson process).
            let u = unit(slot(i, 0));
            arrival_ms += -(1.0 - u).ln() / cfg.rate_per_s * 1000.0;
            // Weighted mixture pick.
            let mut pick = unit(slot(i, 1));
            let mut id = weights[weights.len() - 1].0.clone();
            for (candidate, w) in &weights {
                if pick < *w {
                    id = candidate.clone();
                    break;
                }
                pick -= w;
            }
            // Uniform format pick, resolved against the drawn problem
            // (unsupported exports fall back to native).
            let all = Format::all();
            let desired = all[(slot(i, 4) % all.len() as u64) as usize];
            let format = resolve_format(
                &benchmark(BenchmarkId::parse(&id).expect("registry id")),
                desired,
            );
            Draw {
                index: i,
                id,
                arrival_ms,
                solver_seed: slot(i, 2),
                shots: 128 << (slot(i, 3) % 2), // 128 or 256
                iterations: cfg.iterations,
                format,
            }
        })
        .collect();
    Manifest {
        seed: cfg.seed,
        rate_per_s: cfg.rate_per_s,
        weights,
        draws,
    }
}

impl Manifest {
    /// Renders the manifest as a canonical JSON document — the
    /// replayable artifact. Two manifests from the same seed render to
    /// identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"seed\":{},\"rate_per_s\":{},\"weights\":{{",
            self.seed, self.rate_per_s
        ));
        for (i, (id, w)) in self.weights.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{id}\":{w:.6}"));
        }
        out.push_str("},\"draws\":[");
        for (i, d) in self.draws.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"id\":\"{}\",\"arrival_ms\":{:.3},\
                 \"seed\":{},\"shots\":{},\"iterations\":{},\"format\":\"{}\"}}",
                d.index,
                d.id,
                d.arrival_ms,
                d.solver_seed,
                d.shots,
                d.iterations,
                d.format.token()
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_manifest_bytes() {
        let cfg = ReplayConfig::new(2025, false);
        let a = manifest(&cfg);
        let b = manifest(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = manifest(&ReplayConfig::new(1, false));
        let b = manifest(&ReplayConfig::new(2, false));
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn weights_cover_the_corpus_and_normalize() {
        let m = manifest(&ReplayConfig::new(7, false));
        assert_eq!(m.weights.len(), all_ids().len());
        let total: f64 = m.weights.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        assert!(m.weights.iter().all(|(_, w)| *w > 0.0));
    }

    #[test]
    fn arrivals_increase_and_draws_hit_registry_ids() {
        let m = manifest(&ReplayConfig::new(11, true));
        let ids: Vec<String> = all_ids().iter().map(|id| id.to_string()).collect();
        let mut last = 0.0;
        for d in &m.draws {
            assert!(d.arrival_ms > last, "arrivals must strictly increase");
            last = d.arrival_ms;
            assert!(ids.contains(&d.id), "unknown id {}", d.id);
            assert!(d.shots == 128 || d.shots == 256);
        }
        // A 48-draw stream over 32 ids should touch more than a couple.
        let distinct: std::collections::HashSet<&str> =
            m.draws.iter().map(|d| d.id.as_str()).collect();
        assert!(distinct.len() >= 8, "mixture collapsed: {distinct:?}");
    }

    #[test]
    fn formats_mix_and_resolved_formats_export() {
        let m = manifest(&ReplayConfig::new(2025, false));
        let distinct: std::collections::HashSet<Format> =
            m.draws.iter().map(|d| d.format).collect();
        assert!(
            distinct.len() >= 2,
            "the mixture must exercise several wire formats, got {distinct:?}"
        );
        // Every resolved format must actually render a wire body, and
        // the manifest records it.
        for d in &m.draws {
            let body = wire_body(&d.id, d.format);
            assert!(!body.is_empty());
            assert!(m.to_json().contains(&format!("\"{}\"", d.format.token())));
        }
    }

    #[test]
    fn format_resolution_is_deterministic_across_regeneration() {
        let cfg = ReplayConfig::new(99, false);
        let a: Vec<Format> = manifest(&cfg).draws.iter().map(|d| d.format).collect();
        let b: Vec<Format> = manifest(&cfg).draws.iter().map(|d| d.format).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn unit_interval_is_half_open() {
        assert_eq!(unit(0), 0.0);
        assert!(unit(u64::MAX) < 1.0);
    }
}
