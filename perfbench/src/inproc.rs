//! The in-process workloads: one caller in a closed loop, solving whole
//! passes over a generated input set until the run's seconds are spent.
//!
//! Every pass has the same composition (the same ids or shapes, fresh
//! seeds), so a median over whole passes does not depend on how many
//! passes fit into a run.

use crate::clock;
use crate::report::Report;
use crate::spec::{self, DEFAULT_SEED, PER_LAYER};
use crate::stats::{self, Fnv};
use crate::trace;
use rasengan_core::prune::{build_chain, reachable_count, ChainConfig};
use rasengan_core::segment::{plan_segments, single_segment, SegmentProgram};
use rasengan_core::{
    problem_basis, simplify_basis, ChainStats, Prepared, Rasengan, RasenganConfig, RasenganError,
    ResilienceConfig, TraceTree,
};
use rasengan_obs::metrics::install_global;
use rasengan_obs::span::Tracer;
use rasengan_problems::flp::FacilityLocation;
use rasengan_problems::io::write_problem;
use rasengan_problems::registry::{all_ids, benchmark, case_seed, cases, BenchmarkId, Domain};
use rasengan_problems::Problem;
use rasengan_qsim::sparse::label_from_bits;
use rasengan_qsim::Device;
use rasengan_serve::render_outcome;
use std::time::Instant;

/// Engine threads per solve, pinned so `RASENGAN_THREADS` cannot change
/// the workload. One, not the CLI's default of one per core: on the
/// 2-vCPU reference machine the scoped threads `par_map` spawns per call
/// put 13-21% run-to-run spreads on the per-evaluation latency at 2
/// threads, against 4-6% at 1. The traced run measures the 2-thread
/// cost on its own (`qsim.fanout_eval_ratio`).
const ENGINE_THREADS: usize = 1;

/// Registry ids of at most 15 variables whose solves stay feasible
/// under Kyiv noise with the recommended resilience posture.
const NOISY_IDS: [&str; 16] = [
    "F1", "F2", "F3", "K1", "K2", "J1", "J2", "S1", "S2", "G1", "G2", "M1", "M2", "B1", "P2", "P3",
];

/// Fig. 10 FLP shapes `(facilities, demands)`: 36, 45 and 52 variables.
const FLP_SHAPES: [(usize, usize); 3] = [(4, 4), (5, 4), (4, 6)];
const FLP_INSTANCE_SEED: u64 = 2025;

/// Setups per run; `setup_s` reports their median.
const SETUP_REPEATS: usize = 11;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ExactCorpus,
    NoisyTrajectory,
    FlpScale,
}

impl Kind {
    pub fn of(name: &str) -> Option<Kind> {
        match name {
            "exact-corpus" => Some(Kind::ExactCorpus),
            "noisy-trajectory" => Some(Kind::NoisyTrajectory),
            "flp-scale" => Some(Kind::FlpScale),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::ExactCorpus => "exact-corpus",
            Kind::NoisyTrajectory => "noisy-trajectory",
            Kind::FlpScale => "flp-scale",
        }
    }
}

/// One solve: the problem, its knobs, and a label for reports.
struct Item {
    problem: Problem,
    config: RasenganConfig,
    label: String,
}

impl Item {
    /// The knobs that define the workload, rendered for the digest.
    fn knobs(&self) -> String {
        let c = &self.config;
        format!(
            "{} seed={} shots={:?} iterations={} device={} retries={} degrade={} threads={:?}",
            self.label,
            c.seed,
            c.shots,
            c.max_iterations,
            c.device.name,
            c.resilience.retry_budget,
            c.resilience.degrade,
            c.threads
        )
    }
}

/// The instance of `id` a workload solves for `seed`. Set cover, graph
/// coloring and bin packing draw their constraint structure, and so the
/// cost of every evaluation, from the generator seed (an S4 evaluation
/// varies 14x across seeds); their canonical instance keeps every seed
/// measuring the same shapes. The other domains draw only costs.
fn instance(id: BenchmarkId, seed: u64) -> Problem {
    match id.domain {
        Domain::Scp | Domain::Gcp | Domain::BinPack => benchmark(id),
        _ => cases(id, 1, seed).remove(0),
    }
}

/// Pass `pass` of a workload's input set for `seed`.
fn pass_items(kind: Kind, seed: u64, pass: u64) -> Vec<Item> {
    let base = RasenganConfig::default().with_threads(ENGINE_THREADS);
    match kind {
        // Two fresh cases of every registry id per pass, exact mixture
        // propagation at the CLI's 150-iteration default.
        Kind::ExactCorpus => all_ids()
            .into_iter()
            .enumerate()
            .flat_map(|(k, id)| (0..2).map(move |i| (k, id, i)))
            .map(|(k, id, i)| Item {
                problem: instance(id, case_seed(seed, pass * 64 + k as u64 * 2 + i)),
                config: base.clone().with_seed(seed).with_max_iterations(150),
                label: format!("{id}/{pass}.{i}"),
            })
            .collect(),
        // The same instances every pass; each pass draws fresh solver
        // seeds, so the trajectories differ.
        Kind::NoisyTrajectory => NOISY_IDS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let id = BenchmarkId::parse(name).expect("registry id");
                let solver_seed =
                    case_seed(seed ^ 0x4E01_5E00, pass * NOISY_IDS.len() as u64 + i as u64);
                Item {
                    problem: instance(id, seed),
                    config: base
                        .clone()
                        .on_device(Device::ibm_kyiv())
                        .with_seed(solver_seed)
                        .with_shots(256)
                        .with_max_iterations(30)
                        .with_resilience(ResilienceConfig::recommended()),
                    label: format!("{name}/{pass}"),
                }
            })
            .collect(),
        // The same three instances for every seed: at 2048 shots the
        // cost of an evaluation follows the support the costs steer the
        // distribution onto, so the seed draws only the solver seeds.
        // Five optimizer iterations after the initial simplex (one
        // evaluation per parameter) keep the evaluated parameters, and so
        // the cost per evaluation, close across solver seeds: at 20 the
        // per-evaluation latency spread 10-13% between seeds, at 5 about
        // 5%, as much as repeats of one seed.
        Kind::FlpScale => FLP_SHAPES
            .iter()
            .enumerate()
            .map(|(i, &(f, d))| {
                let s = case_seed(
                    seed ^ 0xF1B0_0000,
                    pass * FLP_SHAPES.len() as u64 + i as u64,
                );
                Item {
                    problem: FacilityLocation::generate(f, d, FLP_INSTANCE_SEED).into_problem(),
                    config: base
                        .clone()
                        .with_seed(s)
                        .with_shots(2048)
                        .with_max_iterations(5),
                    label: format!("flp({f},{d})/{pass}"),
                }
            })
            .collect(),
    }
}

/// An input compiled by `Rasengan::prepare`, ready to train.
struct Compiled {
    item: Item,
    prepared: Result<Prepared, RasenganError>,
}

fn compile(items: Vec<Item>) -> Vec<Compiled> {
    items
        .into_iter()
        .map(|item| Compiled {
            prepared: Rasengan::new(item.config.clone()).prepare(&item.problem),
            item,
        })
        .collect()
}

/// FNV over `write_problem` of each input plus its knobs.
fn input_digest<'a>(items: impl IntoIterator<Item = &'a Item>) -> u64 {
    let mut h = Fnv::default();
    for item in items {
        h.str(&write_problem(&item.problem)).str(&item.knobs());
    }
    h.finish()
}

/// Refuses to measure when the default seed no longer generates the
/// committed inputs. Runs once per process, outside any timed region.
fn check_drift(kind: Kind) -> Result<(), String> {
    let committed = spec::workload(kind.name())
        .expect("declared workload")
        .default_input_digest;
    let default_digest = input_digest(&pass_items(kind, DEFAULT_SEED, 0));
    if default_digest != committed {
        return Err(format!(
            "{}: generated inputs drifted (default-seed digest {default_digest:016x}, \
             committed {committed:016x}); refusing to measure a different workload",
            kind.name()
        ));
    }
    Ok(())
}

struct Setup {
    first: Vec<Compiled>,
    generate_s: f64,
    /// Generation plus compile, and the host's speed around it.
    setup_s: f64,
    speed: f64,
}

/// Generates the first pass and compiles it, between two kernel runs;
/// `setup_s` times generation and compile.
fn setup(kind: Kind, seed: u64) -> Setup {
    let kernel_before = clock::kernel_s();
    let started = Instant::now();
    let items = pass_items(kind, seed, 0);
    let generate_s = started.elapsed().as_secs_f64();
    let first = compile(items);
    let setup_s = started.elapsed().as_secs_f64();
    Setup {
        first,
        generate_s,
        setup_s,
        speed: clock::speed(kernel_before, clock::kernel_s()),
    }
}

/// Repeats the setup between solves, spread over the measured phase:
/// a setup takes milliseconds, and the host changes speed for seconds at
/// a time, so setups taken back to back all land in one such stretch.
struct SetupSampler {
    kind: Kind,
    seed: u64,
    every_s: f64,
    last: Instant,
    /// Each setup's `(setup_s, speed)`.
    times: Vec<(f64, f64)>,
}

impl SetupSampler {
    fn new(kind: Kind, seed: u64, first: &Setup, seconds: f64) -> SetupSampler {
        SetupSampler {
            kind,
            seed,
            every_s: seconds / SETUP_REPEATS as f64,
            last: Instant::now(),
            times: vec![(first.setup_s, first.speed)],
        }
    }

    fn sample(&mut self) {
        let again = setup(self.kind, self.seed);
        self.times.push((again.setup_s, again.speed));
    }

    /// Sets up again when due; returns the seconds it took.
    fn tick(&mut self) -> f64 {
        if self.times.len() >= SETUP_REPEATS || self.last.elapsed().as_secs_f64() < self.every_s {
            return 0.0;
        }
        let started = Instant::now();
        self.sample();
        self.last = Instant::now();
        started.elapsed().as_secs_f64()
    }

    /// The median setup time, as measured and at the reference speed,
    /// topping up samples the phase left short.
    fn medians(mut self) -> (f64, f64) {
        while self.times.len() < SETUP_REPEATS {
            self.sample();
        }
        let raw: Vec<f64> = self.times.iter().map(|t| t.0).collect();
        let scaled: Vec<f64> = self.times.iter().map(|(s, speed)| s * speed).collect();
        let median = |v: &[f64]| stats::median(v).expect("setup samples");
        (median(&raw), median(&scaled))
    }
}

/// Everything the passes of one phase measured.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    /// Each solve's wall time over its objective evaluations.
    per_eval_ms: Vec<f64>,
    /// In untraced passes, the host's speed around each solve.
    speeds: Vec<f64>,
    wall_s: f64,
    passes: usize,
    attempted: u64,
    failed: u64,
    solves: u64,
    evaluations: u64,
    train_s: f64,
    execute_s: f64,
    solve_s: f64,
    shots: u64,
    retries: u64,
    degradations: u64,
    segments: u64,
    raw_rate_sum: f64,
    first_pass_args: Vec<f64>,
    result_digest: Fnv,
    problems: Vec<String>,
}

/// The tracing side of a phase: the recorder, the solver trees to graft
/// and the compile split's verification inputs.
struct Traced {
    tracer: Tracer,
    solver_trees: Vec<TraceTree>,
}

fn span<T>(traced: &mut Option<Traced>, label: &'static str, f: impl FnOnce() -> T) -> T {
    match traced {
        Some(t) => {
            let tok = t.tracer.open(label);
            let out = f();
            t.tracer.close(tok);
            out
        }
        None => f(),
    }
}

/// Compiles `problem` by calling each public stage function in turn,
/// as `Rasengan::prepare` does, so each stage gets its own span.
fn prepare_split(
    traced: &mut Option<Traced>,
    problem: &Problem,
    cfg: &RasenganConfig,
) -> Result<Prepared, RasenganError> {
    let (raw_basis, seed_bits) = span(traced, "math.basis", || {
        let basis = problem_basis(problem).map_err(RasenganError::Basis)?;
        let seed = problem.initial_feasible().map(<[i64]>::to_vec).or_else(|| {
            rasengan_math::find_binary_solution(problem.constraints(), problem.rhs()).ok()
        });
        Ok::<_, RasenganError>((basis, seed))
    })?;
    if raw_basis.is_empty() {
        return Err(RasenganError::FullyDetermined);
    }
    let seed_label = label_from_bits(&seed_bits.ok_or(RasenganError::NoFeasibleSeed)?);
    let simplified = span(traced, "core.simplify", || simplify_basis(&raw_basis));
    let (basis, simplify_cost, chain) = span(traced, "core.prune", || {
        let keep_simplified = cfg.simplify
            && reachable_count(&simplified.basis, seed_label, cfg.support_cap)
                >= reachable_count(&raw_basis, seed_label, cfg.support_cap);
        let (basis, cost) = if keep_simplified {
            (
                simplified.basis,
                (simplified.cost_before, simplified.cost_after),
            )
        } else {
            (raw_basis, (simplified.cost_before, simplified.cost_before))
        };
        let chain = build_chain(
            &basis,
            seed_label,
            &ChainConfig {
                max_rounds: cfg.max_rounds,
                prune: cfg.prune,
                early_stop: cfg.early_stop,
                support_cap: cfg.support_cap,
            },
        );
        (basis, cost, chain)
    });
    Ok(span(traced, "core.segment", || {
        let plan = if cfg.segmented {
            plan_segments(&chain.ops, cfg.segment_depth_budget)
        } else {
            single_segment(&chain.ops)
        };
        let max_segment_cx_depth = plan
            .segments
            .iter()
            .map(|r| chain.ops[r.clone()].iter().map(|o| o.cx_cost()).sum())
            .max()
            .unwrap_or(0);
        let stats = ChainStats {
            m_basis: basis.len(),
            raw_ops: chain.raw_len,
            kept_ops: chain.ops.len(),
            n_segments: plan.len(),
            max_segment_cx_depth,
            total_cx_depth: chain.total_cx_cost(),
            n_params: chain.n_params(),
            simplify_cost,
        };
        let programs = plan
            .segments
            .iter()
            .map(|r| SegmentProgram::compile(&chain.ops[r.clone()]))
            .collect();
        Prepared {
            basis,
            chain,
            plan,
            programs,
            seed_label,
            stats,
        }
    }))
}

/// Solves one compiled pass and folds it into `tally`. Traced, the
/// compile is redone stage by stage and every call into a layer gets a
/// span.
fn run_pass(
    pass: &[Compiled],
    first: bool,
    tally: &mut Tally,
    traced: &mut Option<Traced>,
    sampler: &mut Option<SetupSampler>,
) {
    let started = Instant::now();
    // Setup samples and kernel runs, left out of the pass's wall time.
    let mut sampling_s = 0.0;
    for Compiled { item, prepared } in pass {
        if let Some(sampler) = sampler.as_mut() {
            sampling_s += sampler.tick();
        }
        tally.attempted += 1;
        // Untraced, kernel runs around each solve give the host's speed;
        // traced, they would count as time outside every layer.
        let kernel_before = traced.is_none().then(clock::kernel_s);
        let t0 = Instant::now();
        let result = match traced {
            None => prepared
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|prepared| {
                    Rasengan::new(item.config.clone()).solve_prepared(&item.problem, prepared)
                }),
            Some(_) => {
                let solver = Rasengan::new(item.config.clone().with_trace(true));
                prepare_split(traced, &item.problem, solver.config()).and_then(|prepared| {
                    span(traced, trace::SOLVE, || {
                        solver.solve_prepared(&item.problem, &prepared)
                    })
                })
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        let speed = kernel_before.map(|before| {
            let after = clock::kernel_s();
            sampling_s += before + after;
            clock::speed(before, after)
        });
        let mut outcome = match result {
            Ok(outcome) => outcome,
            Err(err) => {
                tally.failed += 1;
                tally
                    .problems
                    .push(format!("{}: solve failed: {err}", item.label));
                continue;
            }
        };
        tally.latencies_ms.push(ms);
        tally
            .per_eval_ms
            .push(ms / outcome.evaluations.max(1) as f64);
        tally.speeds.extend(speed);
        let checked = span(traced, "problems.check", || {
            let feasible = outcome.best.feasible && item.problem.is_feasible(&outcome.best.bits);
            feasible && outcome.in_constraints_rate == 1.0
        });
        if !checked {
            tally.problems.push(format!(
                "{}: infeasible best solution or in_constraints_rate {} != 1",
                item.label, outcome.in_constraints_rate
            ));
        }
        if first {
            let bytes = span(traced, "serve.render", || render_outcome(&outcome));
            tally.result_digest.str(&item.label).str(&bytes);
            tally.first_pass_args.push(outcome.arg);
        }
        let stages = &outcome.latency.stages;
        tally.solves += 1;
        tally.evaluations += outcome.evaluations as u64;
        tally.train_s += stages.train_s;
        tally.execute_s += stages.execute_s;
        tally.solve_s += ms / 1000.0;
        tally.shots += outcome.total_shots as u64;
        tally.retries += outcome.resilience.retries() as u64;
        tally.degradations += outcome.resilience.degradations() as u64;
        tally.segments += outcome.stats.n_segments as u64;
        tally.raw_rate_sum += outcome.raw_in_constraints_rate;
        if let (Some(t), Some(tree)) = (traced.as_mut(), outcome.trace.take()) {
            t.solver_trees.push(tree);
        }
    }
    tally.wall_s += started.elapsed().as_secs_f64() - sampling_s;
}

/// Runs whole passes, starting from `first`, while the next pass is
/// expected to finish by half a pass past `budget_s`. Later
/// passes are generated and compiled between passes, untimed. Returns
/// the tally and the passes.
fn run_phase(
    kind: Kind,
    seed: u64,
    first: Vec<Compiled>,
    budget_s: f64,
    sampler: &mut Option<SetupSampler>,
) -> (Tally, Vec<Vec<Compiled>>) {
    let mut tally = Tally::default();
    let mut passes = vec![first];
    loop {
        let pass = &passes[tally.passes];
        run_pass(pass, tally.passes == 0, &mut tally, &mut None, sampler);
        tally.passes += 1;
        let mean_pass = tally.wall_s / tally.passes as f64;
        if tally.wall_s + mean_pass / 2.0 > budget_s {
            return (tally, passes);
        }
        passes.push(compile(pass_items(kind, seed, tally.passes as u64)));
    }
}

fn summarize(report: &mut Report, tally: &Tally, label: &str) {
    let n = tally.latencies_ms.len();
    let tail = stats::supported_tail(n)
        .and_then(|q| stats::percentile(&tally.latencies_ms, q).map(|v| (q, v)));
    report.note(format!(
        "{label}: {} passes, {} solves in {:.3} s ({:.3} solves/s); ms per evaluation p50 {:.4}, geometric mean {:.4}; solve ms p50 {:.3}{}",
        tally.passes,
        tally.solves,
        tally.wall_s,
        tally.solves as f64 / tally.wall_s,
        stats::median(&tally.per_eval_ms).unwrap_or(0.0),
        stats::geomean(&tally.per_eval_ms).unwrap_or(0.0),
        stats::median(&tally.latencies_ms).unwrap_or(0.0),
        match tail {
            Some((q, v)) => format!(", p{} {v:.3} (n={n})", q * 100.0),
            None => format!(" (n={n}, too few samples for a tail)"),
        }
    ));
    let solves = tally.solves.max(1) as f64;
    report.note(format!(
        "{label}: per solve {:.1} evaluations, {:.1} segments, {:.0} shots; train {:.1}% / execute {:.1}% of solve time; {} retries, {} degradations",
        tally.evaluations as f64 / solves,
        tally.segments as f64 / solves,
        tally.shots as f64 / solves,
        100.0 * tally.train_s / tally.solve_s.max(f64::MIN_POSITIVE),
        100.0 * tally.execute_s / tally.solve_s.max(f64::MIN_POSITIVE),
        tally.retries,
        tally.degradations
    ));
}

/// Runs one in-process workload. `Err` means it refused to start.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    check_drift(kind)?;
    if !traced {
        return Ok(run_untraced(kind, seed, seconds));
    }
    let setup = setup(kind, seed);
    let mut report = Report {
        input_digest: input_digest(setup.first.iter().map(|c| &c.item)),
        ..Report::default()
    };
    let per_input_ms = 1000.0 * setup.generate_s / setup.first.len() as f64;

    // Untraced first half, then the same passes again traced: the pair
    // gives the tracing overhead on identical work.
    let (plain, passes) = run_phase(kind, seed, setup.first, seconds / 2.0, &mut None);
    summarize(&mut report, &plain, &format!("{} untraced", kind.name()));
    absorb(&mut report, &plain);
    let registry = install_global();
    let counter = |name: &str| registry.counter(name) as f64;
    let (calls0, items0) = (counter("qsim.par_map.calls"), counter("qsim.par_map.items"));
    let mut tally = Tally::default();
    let mut state = Some(Traced {
        tracer: Tracer::memory("bench"),
        solver_trees: Vec::new(),
    });
    for (i, pass) in passes.iter().enumerate() {
        run_pass(pass, i == 0, &mut tally, &mut state, &mut None);
        tally.passes += 1;
    }
    let calls = counter("qsim.par_map.calls") - calls0;
    let items = counter("qsim.par_map.items") - items0;
    let Traced {
        tracer,
        solver_trees,
    } = state.expect("traced state");
    let mut tree = tracer.finish().expect("recording tracer");
    let grafted = trace::graft(&mut tree.root, &mut solver_trees.into_iter());
    summarize(&mut report, &tally, &format!("{} traced", kind.name()));

    if tally.result_digest.finish() != plain.result_digest.finish() {
        report.fail("tracing changed the result bytes of the first pass".to_string());
    }
    verify_split(&mut report, &passes[0]);
    let fanout = fanout_ratio(&passes[0]);

    let wall = tree.root.elapsed_s;
    let selfs = trace::self_seconds(&tree.root);
    let share = |layers: &[&str]| layers.iter().filter_map(|l| selfs.get(l)).sum::<f64>() / wall;
    let layers_frac = 1.0 - share(&["bench"]);
    if (layers_frac - 1.0).abs() > 0.05 {
        report.fail(format!(
            "layer self-times cover {:.1}% of the traced wall-clock, not within 5%",
            100.0 * layers_frac
        ));
    }
    match trace::write_jsonl(&tree, kind.name(), seed) {
        Ok(path) => report.note(format!(
            "spans: {} written to {}",
            tree.count(),
            path.display()
        )),
        Err(err) => report.note(format!("spans: could not write JSONL: {err}")),
    }
    report.note(format!(
        "self time: {}",
        selfs
            .iter()
            .map(|(l, s)| format!("{l} {:.1}%", 100.0 * s / wall))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let solves = tally.solves.max(1) as f64;
    let compiles = tally.attempted.max(1) as f64;
    let mean_ms = |label: &str| 1000.0 * trace::label_total(&tree.root, label).0 / compiles;
    let (segment_s, segment_spans) = trace::label_total(&tree.root, "segment");
    let (render_s, renders) = trace::label_total(&tree.root, "serve.render");
    let stages = ["math.basis", "core.simplify", "core.prune", "core.segment"];
    let compile_s: f64 = stages
        .iter()
        .map(|l| trace::label_total(&tree.root, l).0)
        .sum();
    for (name, value) in [
        ("problems.generate_ms", per_input_ms),
        ("core.prepare_ms", stages.iter().map(|l| mean_ms(l)).sum()),
        ("math.basis_ms", mean_ms("math.basis")),
        ("core.simplify_ms", mean_ms("core.simplify")),
        ("core.prune_ms", mean_ms("core.prune")),
        ("core.segment_ms", mean_ms("core.segment")),
        ("core.solves", tally.solves as f64),
        ("core.evaluations", tally.evaluations as f64 / solves),
        (
            "core.eval_ms",
            1000.0 * tally.train_s / tally.evaluations.max(1) as f64,
        ),
        ("core.train_share", tally.train_s / tally.solve_s),
        ("core.segments", tally.segments as f64 / solves),
        (
            "core.segment_exec_ms",
            1000.0 * segment_s / segment_spans.max(1) as f64,
        ),
        ("core.purify_kept_frac", tally.raw_rate_sum / solves),
        ("core.retries", tally.retries as f64),
        ("core.degradations", tally.degradations as f64),
        (
            "core.arg_mean",
            stats::mean(&plain.first_pass_args).unwrap_or(0.0),
        ),
        ("qsim.par_map_calls", calls / solves),
        ("qsim.par_map_items_per_call", items / calls.max(1.0)),
        ("qsim.shots", tally.shots as f64 / solves),
        ("qsim.fanout_eval_ratio", fanout),
        (
            "qsim.us_per_shot",
            if tally.shots == 0 {
                0.0
            } else {
                1e6 * (tally.train_s + tally.execute_s) / tally.shots as f64
            },
        ),
        ("serve.render_us", 1e6 * render_s / renders.max(1) as f64),
        // The untraced phase trained from compiled inputs; the traced
        // one also recompiled them stage by stage.
        (
            "obs.trace_overhead_frac",
            (tally.wall_s - compile_s) / plain.wall_s - 1.0,
        ),
        ("obs.spans", tree.count() as f64),
        ("self.problems_frac", share(&["problems"])),
        ("self.compile_frac", share(&["math", "compile"])),
        ("self.train_frac", share(&["train"])),
        ("self.execute_frac", share(&["execute"])),
        ("self.solver_frac", share(&["solver"])),
        ("self.layers_frac", layers_frac),
    ] {
        report.set(name, value);
    }
    if grafted != tally.solves as usize {
        report.fail(format!(
            "grafted {grafted} solver trees onto {} solves",
            tally.solves
        ));
    }
    report.zero_unset(&PER_LAYER);
    let first_pass_digest = report.result_digest;
    absorb(&mut report, &tally);
    report.result_digest = first_pass_digest;
    Ok(report)
}

/// The end-to-end run: every setup and solve between two kernel runs,
/// so that each time can be reported at the reference speed.
fn run_untraced(kind: Kind, seed: u64, seconds: f64) -> Report {
    let setup = setup(kind, seed);
    let mut report = Report {
        input_digest: input_digest(setup.first.iter().map(|c| &c.item)),
        ..Report::default()
    };
    let mut sampler = Some(SetupSampler::new(kind, seed, &setup, seconds));
    let (tally, _) = run_phase(kind, seed, setup.first, seconds, &mut sampler);
    summarize(&mut report, &tally, kind.name());
    // Every pass has the same composition, so over whole passes the
    // geometric mean weighs each input alike, whichever seed drew it.
    let scaled: Vec<f64> = tally
        .per_eval_ms
        .iter()
        .zip(&tally.speeds)
        .map(|(ms, speed)| ms * speed)
        .collect();
    let latency = stats::geomean(&scaled).unwrap_or(f64::NAN);
    let (raw_setup_s, setup_s) = sampler.expect("untraced runs sample setups").medians();
    report.note(format!(
        "{}: at the reference speed (host speed median {:.3}): ms per evaluation geometric mean {latency:.4}, setup {:.3} ms (measured {:.3} ms)",
        kind.name(),
        stats::median(&tally.speeds).unwrap_or(f64::NAN),
        1000.0 * setup_s,
        1000.0 * raw_setup_s
    ));
    report.set("latency_ms", latency);
    report.set("setup_s", setup_s);
    absorb(&mut report, &tally);
    report
}

/// Training time of the first inputs at 2 engine threads over the same
/// solves at 1, solved alternately until 2 s have passed: what the
/// scoped threads `par_map` spawns per call cost (or save) at the CLI's
/// default thread count on a 2-core machine.
fn fanout_ratio(pass: &[Compiled]) -> f64 {
    let started = Instant::now();
    let (mut two, mut one) = (0.0, 0.0);
    for Compiled { item, prepared } in pass {
        let Ok(prepared) = prepared else {
            continue;
        };
        for (threads, total) in [(2, &mut two), (1, &mut one)] {
            let t0 = Instant::now();
            let solver = Rasengan::new(item.config.clone().with_threads(threads));
            let _ = solver.solve_prepared(&item.problem, prepared);
            *total += t0.elapsed().as_secs_f64();
        }
        if started.elapsed().as_secs_f64() > 2.0 {
            break;
        }
    }
    two / one
}

/// Checks that the stage-by-stage compile reproduces `prepare`.
fn verify_split(report: &mut Report, pass: &[Compiled]) {
    for Compiled { item, prepared } in pass {
        let solver = Rasengan::new(item.config.clone());
        let split = prepare_split(&mut None, &item.problem, solver.config());
        let same = match (prepared, &split) {
            (Ok(a), Ok(b)) => {
                a.stats == b.stats
                    && a.basis == b.basis
                    && a.plan == b.plan
                    && a.seed_label == b.seed_label
                    && a.programs.len() == b.programs.len()
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !same {
            report.fail(format!(
                "{}: the split compile does not reproduce prepare",
                item.label
            ));
        }
    }
}

/// Folds a phase's counts, checks and digest into the report.
fn absorb(report: &mut Report, tally: &Tally) {
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    report.result_digest = tally.result_digest.finish();
    report.problems.extend(tally.problems.iter().cloned());
    report.correct = report.problems.is_empty() && report.failed == 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_keep_their_composition_and_regenerate_identically() {
        for kind in [Kind::ExactCorpus, Kind::NoisyTrajectory, Kind::FlpScale] {
            let a = pass_items(kind, 7, 0);
            assert_eq!(input_digest(&a), input_digest(&pass_items(kind, 7, 0)));
            let b = pass_items(kind, 7, 1);
            assert_eq!(a.len(), b.len());
            assert_ne!(input_digest(&a), input_digest(&b));
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.problem.n_vars(), y.problem.n_vars(), "{}", x.label);
            }
        }
        assert_eq!(pass_items(Kind::ExactCorpus, 7, 0).len(), 64);
        let sizes: Vec<usize> = pass_items(Kind::FlpScale, 7, 0)
            .iter()
            .map(|i| i.problem.n_vars())
            .collect();
        assert_eq!(sizes, [36, 45, 52]);
    }

    #[test]
    fn split_compile_reproduces_prepare() {
        let mut report = Report::default();
        let items: Vec<Item> = pass_items(Kind::ExactCorpus, 3, 0)
            .into_iter()
            .step_by(7)
            .collect();
        verify_split(&mut report, &compile(items));
        assert!(report.problems.is_empty(), "{:?}", report.problems);
    }
}
