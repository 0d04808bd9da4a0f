//! Compile-stage timings: where `Rasengan::prepare` spends its time.
//!
//! For the three Fig. 10 FLP shapes of the repo benchmark's `flp-scale`
//! workload (instance seed 2025) and for the 32-id registry corpus, it
//! times each compile stage on its own, by calling the public stage
//! functions in the order `prepare` does:
//!
//! * `basis` — the ternary nullspace basis and the seed feasible state;
//! * `simplify` — Algorithm 1 on that basis;
//! * `guard_two_full_bfs` — the connectivity check as two full
//!   [`reachable_count`] BFS (raw and simplified basis). `prepare` now
//!   stops the raw BFS once it passes the simplified count, so this
//!   column over-counts the guard `prepare` runs; it tracks the cost of
//!   a full reachable-set walk;
//! * `chain` — [`build_chain`] on the kept basis;
//! * `segment` — the segmentation plan plus one compiled program per
//!   segment;
//! * `prepare` — the whole `Rasengan::prepare` call, for reference.
//!
//! Each figure is the median over 21 repetitions, in milliseconds; the
//! corpus row sums the 32 ids per repetition. It prints the table and,
//! with `--out PATH`, writes the medians as one JSON record under a
//! side name (`--side`, default `change`) with the commit, `rustc -V`
//! and the available parallelism. `BENCH_compile.json` at the
//! repository root pairs two such sides, each the median of several
//! runs alternated between the two builds.
//!
//! ```text
//! cargo run --release -p rasengan-bench --bin compile_stages -- --side parent --out parent.json
//! ```

#![forbid(unsafe_code)]

use rasengan_bench::report::fmt;
use rasengan_bench::Table;
use rasengan_core::prune::{build_chain, reachable_count, ChainConfig};
use rasengan_core::segment::{single_segment, SegmentProgram};
use rasengan_core::{plan_segments, problem_basis, simplify_basis, Rasengan, RasenganConfig};
use rasengan_obs::json::Json;
use rasengan_problems::flp::FacilityLocation;
use rasengan_problems::registry::{all_ids, benchmark};
use rasengan_problems::Problem;
use rasengan_qsim::sparse::label_from_bits;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

const STAGES: [&str; 6] = [
    "basis",
    "simplify",
    "guard_two_full_bfs",
    "chain",
    "segment",
    "prepare",
];
const REPS: usize = 21;
const FLP_SHAPES: [(usize, usize); 3] = [(4, 4), (5, 4), (4, 6)];
const FLP_INSTANCE_SEED: u64 = 2025;

/// Wall-clock milliseconds of each stage for one compile of `problem`.
fn time_stages(problem: &Problem, cfg: &RasenganConfig) -> [f64; 6] {
    let mut ms = [0.0; 6];
    let mut lap = |stage: usize, started: Instant| {
        ms[stage] = 1e3 * started.elapsed().as_secs_f64();
    };

    let t = Instant::now();
    let raw = problem_basis(problem).expect("benchmark basis");
    let seed_bits = problem
        .initial_feasible()
        .map(<[i64]>::to_vec)
        .or_else(|| rasengan_math::find_binary_solution(problem.constraints(), problem.rhs()).ok())
        .expect("feasible seed");
    let seed = label_from_bits(&seed_bits);
    lap(0, t);

    let t = Instant::now();
    let simplified = simplify_basis(&raw);
    lap(1, t);

    let t = Instant::now();
    let keep_simplified = cfg.simplify
        && reachable_count(&simplified.basis, seed, cfg.support_cap)
            >= reachable_count(&raw, seed, cfg.support_cap);
    lap(2, t);
    let basis = if keep_simplified {
        simplified.basis
    } else {
        raw
    };

    let t = Instant::now();
    let chain = build_chain(
        &basis,
        seed,
        &ChainConfig {
            max_rounds: cfg.max_rounds,
            prune: cfg.prune,
            early_stop: cfg.early_stop,
            support_cap: cfg.support_cap,
        },
    );
    lap(3, t);

    let t = Instant::now();
    let plan = if cfg.segmented {
        plan_segments(&chain.ops, cfg.segment_depth_budget)
    } else {
        single_segment(&chain.ops)
    };
    let programs: Vec<SegmentProgram> = plan
        .segments
        .iter()
        .map(|r| SegmentProgram::compile(&chain.ops[r.clone()]))
        .collect();
    lap(4, t);
    black_box(programs);

    let t = Instant::now();
    let prepared = Rasengan::new(cfg.clone())
        .prepare(problem)
        .expect("benchmark prepares");
    lap(5, t);
    // The split must compile what `prepare` compiles, or its stage
    // times describe some other chain.
    assert_eq!(prepared.basis, basis, "split kept another basis");
    assert_eq!(
        prepared.chain.ops.len(),
        chain.ops.len(),
        "split built another chain"
    );
    ms
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Per-stage medians over [`REPS`] repetitions of compiling `problems`,
/// each repetition summing the stage over all of them.
fn measure(problems: &[Problem], cfg: &RasenganConfig) -> [f64; 6] {
    let mut samples: Vec<[f64; 6]> = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut sum = [0.0; 6];
        for p in problems {
            for (s, v) in sum.iter_mut().zip(time_stages(p, cfg)) {
                *s += v;
            }
        }
        samples.push(sum);
    }
    std::array::from_fn(|stage| median(&mut samples.iter().map(|s| s[stage]).collect::<Vec<_>>()))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn stage_obj(ms: &[f64]) -> Json {
    Json::Obj(
        STAGES
            .iter()
            .zip(ms)
            .map(|(s, &v)| (s.to_string(), Json::Num((v * 1e4).round() / 1e4)))
            .collect(),
    )
}

fn main() {
    let mut side = "change".to_string();
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--side" => side = args.next().expect("--side NAME"),
            "--out" => out = Some(args.next().expect("--out PATH")),
            other => panic!("unknown argument {other:?} (expected --side, --out)"),
        }
    }

    let cfg = RasenganConfig::default();
    let mut rows: Vec<(String, Vec<Problem>)> = FLP_SHAPES
        .iter()
        .map(|&(f, d)| {
            (
                format!("flp({f},{d})"),
                vec![FacilityLocation::generate(f, d, FLP_INSTANCE_SEED).into_problem()],
            )
        })
        .collect();
    rows.push((
        "corpus(32)".to_string(),
        all_ids().into_iter().map(benchmark).collect(),
    ));

    let mut headers = vec!["input"];
    headers.extend(STAGES);
    let mut table = Table::new(
        format!("Compile stages ({side}): median ms over {REPS} repetitions"),
        headers,
    );
    let mut medians = Vec::new();
    for (name, problems) in &rows {
        let ms = measure(problems, &cfg);
        let mut cells = vec![name.clone()];
        cells.extend(ms.iter().map(|&v| fmt(v)));
        table.row(cells);
        medians.push((name.clone(), stage_obj(&ms)));
    }
    table.print();

    if let Some(out) = out {
        let record = Json::obj(vec![
            ("side", Json::Str(side)),
            (
                "commit",
                Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
            ),
            ("rustc", Json::Str(command_line("rustc", &["-V"]))),
            (
                "nproc",
                Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i128),
            ),
            ("median_ms", Json::Obj(medians)),
        ]);
        std::fs::write(&out, record.render() + "\n").expect("write the compile-stage record");
        println!("wrote {out}");
    }
}
