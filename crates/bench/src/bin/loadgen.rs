//! Load generator for the solve service (PR 3 acceptance experiment).
//!
//! Starts an in-process server and drives three arms:
//!
//! * **cold** — distinct `(problem, seed)` requests, every one a cache
//!   miss: the steady-state solve cost.
//! * **warm** — the same request repeated: after the first miss every
//!   response comes from the result cache. The arm checks the cached
//!   `result` section is *byte-identical* to the cold one and that the
//!   warm median latency is ≥10× below the cold median.
//! * **saturation** — a deliberately tiny server (one worker, queue
//!   capacity one) flooded concurrently: some requests must be shed
//!   with a structured `BUSY` response, and every request must get
//!   *some* well-formed answer (no panic, no indefinite block).
//! * **warm-restart** — the main server runs with `--state-dir`; after
//!   it shuts down, a fresh server on the same directory replays the
//!   cold corpus. Measures restart-to-warm time and the first-100-
//!   request warm hit rate (must be ≥90%), and checks disk-served
//!   `result` bytes are byte-identical to the original cold solves.
//!
//! Reports throughput and p50/p95/p99 per arm and saves
//! `BENCH_loadgen.{csv,json}` plus the warm-restart metrics as
//! `BENCH_persist.{csv,json}` under `target/rasengan-reports/`.
//!
//! Passing `--nodes N` runs the multi-node fabric arm instead: an
//! in-process N-node cluster (consistent-hash routing, gossip
//! membership) fields the cold corpus with requests entering
//! round-robin at every node, every `result` is asserted
//! byte-identical to a single-node baseline, and throughput per node
//! count lands in `BENCH_fabric.json`. Under `--full` the 2-node arm
//! must clear a ≥1.6× throughput floor.
//!
//! Passing `--replay` runs the deterministic workload-replay mode
//! instead (see [`rasengan_bench::replay`]): a seeded manifest of
//! Poisson arrivals mixed over the full 32-id corpus is executed twice
//! against fresh servers, every pass-2 `result` section is asserted
//! byte-identical to pass 1, and `BENCH_replay.json` plus the manifest
//! itself land under `target/rasengan-reports/`.

#![forbid(unsafe_code)]

use rasengan_bench::replay::{manifest, wire_body, ReplayConfig};
use rasengan_bench::settings::{unknown_argument, unsigned_value};
use rasengan_bench::{report::fmt, RunSettings, Table};
use rasengan_obs::metrics::{try_global, Histogram};
use rasengan_problems::io::write_problem;
use rasengan_problems::registry::{benchmark, BenchmarkId};
use rasengan_serve::{
    serve, submit, submit_trickled, FabricConfig, HeldConnection, ReplyStatus, ServeConfig,
    SolveRequest, EVENT_LOOP_SUPPORTED,
};
use std::time::{Duration, Instant};

/// An obs histogram percentile, in milliseconds (recorded in micros).
fn hist_ms(hist: &Histogram, q: f64) -> f64 {
    hist.percentile(q) as f64 / 1000.0
}

/// Nearest-rank percentile of an unsorted sample, in milliseconds.
/// An empty arm (every request shed, or a filter that matched nothing)
/// reports 0 rather than aborting the whole bench run.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

fn request_for(id: &str, seed: u64, settings: &RunSettings) -> SolveRequest {
    let problem = benchmark(BenchmarkId::parse(id).expect("registry id"));
    // Budgets large enough that a cold solve dwarfs the TCP round
    // trip; otherwise the warm-vs-cold comparison measures the
    // network, not the cache.
    SolveRequest::new(write_problem(&problem))
        .with_seed(seed)
        .with_shots(1024)
        .with_iterations(if settings.full { 150 } else { 60 })
}

/// The `--replay` arm: generate a deterministic manifest from the run
/// seed, execute it twice against fresh servers, and assert the two
/// passes return byte-identical `result` sections request by request.
fn run_replay(settings: &RunSettings) {
    let cfg = ReplayConfig::new(settings.seed, settings.full);
    let plan = manifest(&cfg);
    // Acceptance: regenerating the manifest from the same seed must
    // reproduce the request sequence byte for byte.
    assert_eq!(
        plan.to_json(),
        manifest(&cfg).to_json(),
        "manifest regeneration must be byte-identical"
    );
    // Each draw travels in its manifest-resolved wire format: the body
    // is the problem exported to that format and the request carries
    // the matching `format` header, so the served mixture exercises
    // the whole ingest surface, not just the native parser.
    let requests: Vec<SolveRequest> = plan
        .draws
        .iter()
        .map(|d| {
            SolveRequest::new(wire_body(&d.id, d.format))
                .with_seed(d.solver_seed)
                .with_shots(d.shots)
                .with_iterations(d.iterations)
                .with_format(d.format)
        })
        .collect();
    let distinct: std::collections::HashSet<&str> =
        plan.draws.iter().map(|d| d.id.as_str()).collect();
    let mut format_mix: std::collections::BTreeMap<&str, usize> = Default::default();
    for d in &plan.draws {
        *format_mix.entry(d.format.token()).or_default() += 1;
    }
    println!(
        "replay: seed {}, {} requests over {} distinct ids, rate {}/s, formats {:?}",
        cfg.seed,
        plan.draws.len(),
        distinct.len(),
        plan.rate_per_s,
        format_mix
    );
    assert!(
        format_mix.len() >= 2,
        "the replay mixture must exercise several wire formats"
    );

    let mut table = Table::new(
        "replay: deterministic workload replay",
        vec![
            "pass",
            "requests",
            "ok",
            "distinct_ids",
            "throughput/s",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        ],
    );
    let mut passes: Vec<Vec<String>> = Vec::new();
    for pass in 1..=2 {
        // A fresh server per pass: pass 2 re-solves everything from
        // scratch, so identical bytes prove solver determinism, not
        // cache retention.
        let server = serve(ServeConfig::default()).expect("bind ephemeral port");
        let addr = server.addr();
        let started = Instant::now();
        let mut ms = Vec::new();
        let mut results = Vec::new();
        let mut last_arrival = 0.0;
        for (draw, request) in plan.draws.iter().zip(&requests) {
            // Honor the manifest's arrival schedule, with each gap
            // capped so a slow tail can't stall the bench. Timing never
            // affects results — only the (problem, seed, knobs) tuple
            // does — so the cap preserves determinism.
            let gap_ms = (draw.arrival_ms - last_arrival).min(20.0);
            last_arrival = draw.arrival_ms;
            std::thread::sleep(Duration::from_micros((gap_ms * 1000.0) as u64));
            let sent = Instant::now();
            let reply = submit(addr, request).expect("replay submit");
            ms.push(sent.elapsed().as_secs_f64() * 1000.0);
            assert_eq!(
                reply.status,
                ReplyStatus::Ok,
                "replay solve failed for {} (pass {pass})",
                draw.id
            );
            results.push(reply.section("result").expect("result section").to_string());
        }
        let wall = started.elapsed().as_secs_f64();
        server.shutdown();
        table.row(vec![
            format!("pass-{pass}"),
            plan.draws.len().to_string(),
            results.len().to_string(),
            distinct.len().to_string(),
            fmt(plan.draws.len() as f64 / wall),
            fmt(percentile(&mut ms, 0.50)),
            fmt(percentile(&mut ms, 0.95)),
            fmt(percentile(&mut ms, 0.99)),
        ]);
        passes.push(results);
    }
    for (i, (a, b)) in passes[0].iter().zip(&passes[1]).enumerate() {
        assert_eq!(
            a, b,
            "replay request #{i} ({}) must produce byte-identical results across passes",
            plan.draws[i].id
        );
    }
    println!(
        "replay: {} requests byte-identical across both passes",
        passes[0].len()
    );

    table.print();
    if let Ok(p) = table.save_csv("replay") {
        println!("saved: {}", p.display());
    }
    if let Ok(p) = table.save_json("BENCH_replay") {
        println!("saved: {}", p.display());
    }
    let dir = std::path::PathBuf::from("target/rasengan-reports");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("replay_manifest.json");
        if std::fs::write(&path, plan.to_json()).is_ok() {
            println!("saved: {}", path.display());
        }
    }
}

/// Soft open-file limit, from `/proc/self/limits` (Linux). `None` when
/// unreadable — callers fall back to a conservative guess.
fn fd_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// The `--connections N` arm: how many concurrent connections each
/// front end actually sustains, at equal worker count.
///
/// Per level C ∈ {64, 256, 1024} (capped at N and at fd headroom) and
/// per front end, the arm parks C connections mid-request (verb line
/// sent, headers withheld), runs a measurement window of fast submits
/// plus a trickled slow-client mix, then finishes every parked
/// connection in admission order. A connection counts as *sustained*
/// when the server still honors it end-to-end — the finish gets an
/// `OK` whose `result` bytes match the in-process solve. On the
/// blocking driver parked connections eat the admission queue and
/// the worker pool, so everything past `queue + workers` is shed with
/// `BUSY` at park time; the reactor just keeps C parsers buffering and
/// sustains the lot. The arm asserts the reactor's best sustained
/// count is ≥4× the blocking driver's, saves `BENCH_evloop.json`,
/// and checks every `OK` reply byte-identical across front ends and to
/// the in-process baseline.
fn run_evloop(settings: &RunSettings, max_conns: usize) {
    use rasengan_core::Rasengan;
    use rasengan_serve::render_outcome;

    // Every parked connection costs two fds in this process (client +
    // server end), plus server/runtime overhead.
    let fd_cap = fd_soft_limit().unwrap_or(1024).saturating_sub(512) / 2;
    let mut levels: Vec<usize> = [64usize, 256, 1024]
        .into_iter()
        .filter(|c| *c <= max_conns)
        .collect();
    if levels.is_empty() {
        levels.push(max_conns.max(1));
    }
    for dropped in levels.iter().filter(|c| **c > fd_cap) {
        println!("evloop: dropping C={dropped}: fd soft limit allows only {fd_cap}");
    }
    levels.retain(|c| *c <= fd_cap);
    assert!(!levels.is_empty(), "fd limit too low for any level");

    let workers = 4usize;
    let window = if settings.full {
        Duration::from_secs(2)
    } else {
        Duration::from_secs(1)
    };

    // One request everywhere: front-end capacity is the quantity under
    // test, so after the first cold solve every reply is a cache hit
    // and the solver never becomes the bottleneck. One baseline then
    // checks every OK reply, from either front end, byte-for-byte.
    let problem = benchmark(BenchmarkId::parse("F2").expect("registry id"));
    let request = SolveRequest::new(write_problem(&problem))
        .with_seed(7)
        .with_shots(128)
        .with_iterations(8);
    let config = request.config();
    let baseline = render_outcome(&Rasengan::new(config).solve(&problem).expect("baseline"));
    let rendered = request.render();
    let verb_end = rendered.find('\n').expect("verb line") + 1;
    let (prefix, rest) = rendered.split_at(verb_end);

    let fronts: &[(&str, bool)] = if EVENT_LOOP_SUPPORTED {
        &[("reactor", true), ("blocking", false)]
    } else {
        println!("evloop: reactor unsupported on this target; blocking only, no ratio gate");
        &[("blocking", false)]
    };

    let mut table = Table::new(
        "evloop: sustained connections per front end",
        vec![
            "front_end",
            "connections",
            "sustained",
            "fast_ok",
            "fast_busy",
            "trickle_ok",
            "conns_open",
            "throughput/s",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        ],
    );
    let mut best: std::collections::HashMap<&str, usize> = Default::default();

    for &(front, event_loop) in fronts {
        for &level in &levels {
            // Equal worker count and queue on both front ends; the
            // default 30s io timeout comfortably exceeds the arm, so
            // parked connections die by capacity, never by deadline.
            let server = serve(
                ServeConfig::default()
                    .with_event_loop(event_loop)
                    .with_workers(workers)
                    .with_queue_capacity(32),
            )
            .expect("bind ephemeral port");
            let addr = server.addr();

            // Park phase: C connections frozen after the verb line.
            let mut parked: Vec<Option<HeldConnection>> = (0..level)
                .map(|_| HeldConnection::open(addr, prefix.as_bytes()).ok())
                .collect();
            let parked_alive = parked.iter().filter(|c| c.is_some()).count();

            // Measurement window: a trickled slow-client mix in the
            // background, fast submits in the foreground.
            let (fast_ok, fast_busy, mut fast_ms, trickle_ok, wall) = std::thread::scope(|scope| {
                let tricklers: Vec<_> = (0..4)
                    .map(|_| {
                        let request = &request;
                        scope.spawn(move || {
                            submit_trickled(addr, request, 8, Duration::from_millis(20))
                                .map(|r| (r.status, r.section("result").map(str::to_string)))
                        })
                    })
                    .collect();
                let started = Instant::now();
                let mut ok = 0usize;
                let mut busy = 0usize;
                let mut ms = Vec::new();
                while started.elapsed() < window {
                    let sent = Instant::now();
                    match submit(addr, &request) {
                        Ok(reply) if reply.status == ReplyStatus::Ok => {
                            assert_eq!(
                                reply.section("result").unwrap(),
                                baseline,
                                "fast-mix reply must match the in-process solve ({front})"
                            );
                            ok += 1;
                            ms.push(sent.elapsed().as_secs_f64() * 1000.0);
                        }
                        Ok(reply) if reply.status == ReplyStatus::Busy => busy += 1,
                        _ => {}
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                let wall = started.elapsed().as_secs_f64();
                // A slow client counts only when it was actually
                // served, byte-for-byte; a BUSY shed or a reset
                // mid-trickle (the blocking driver under load) is
                // not a sustained outcome.
                let trickle_ok = tricklers
                    .into_iter()
                    .filter_map(|h| h.join().ok())
                    .filter(|outcome| {
                        matches!(
                            outcome,
                            Ok((ReplyStatus::Ok, Some(body))) if *body == baseline
                        )
                    })
                    .count();
                (ok, busy, ms, trickle_ok, wall)
            });
            let conns_open = server.stats().conns_open;

            // Finish phase, in admission order (the blocking driver's
            // queue is FIFO, so bodies arrive exactly as workers reach them).
            let mut sustained = 0usize;
            for conn in parked.iter_mut() {
                let Some(mut held) = conn.take() else {
                    continue;
                };
                let _ = held.set_io_timeout(Duration::from_secs(10));
                if let Ok(reply) = held.finish(rest.as_bytes()) {
                    if reply.status == ReplyStatus::Ok {
                        assert_eq!(
                            reply.section("result").unwrap(),
                            baseline,
                            "sustained reply must match the in-process solve ({front})"
                        );
                        sustained += 1;
                    }
                }
            }
            server.shutdown();

            println!(
                "evloop {front} C={level}: parked {parked_alive}, sustained {sustained}, \
                 fast {fast_ok} ok / {fast_busy} busy, trickle {trickle_ok}/4, \
                 conns_open {conns_open}"
            );
            let entry = best.entry(front).or_default();
            *entry = (*entry).max(sustained);
            table.row(vec![
                front.into(),
                level.to_string(),
                sustained.to_string(),
                fast_ok.to_string(),
                fast_busy.to_string(),
                trickle_ok.to_string(),
                conns_open.to_string(),
                fmt(fast_ok as f64 / wall),
                fmt(percentile(&mut fast_ms, 0.50)),
                fmt(percentile(&mut fast_ms, 0.95)),
                fmt(percentile(&mut fast_ms, 0.99)),
            ]);
        }
    }

    table.print();
    if let Ok(p) = table.save_csv("evloop") {
        println!("saved: {}", p.display());
    }
    if let Ok(p) = table.save_json("BENCH_evloop") {
        println!("saved: {}", p.display());
    }

    if EVENT_LOOP_SUPPORTED {
        let reactor = best.get("reactor").copied().unwrap_or(0);
        let blocking = best.get("blocking").copied().unwrap_or(0).max(1);
        let ratio = reactor as f64 / blocking as f64;
        println!(
            "evloop: reactor sustained {reactor}, blocking sustained {blocking} ({ratio:.1}x)"
        );
        assert!(
            ratio >= 4.0,
            "the reactor must sustain >=4x the blocking driver's connections \
             (got {reactor} vs {blocking})"
        );
    }
}

/// Submits `corpus` request indices round-robin over `addrs` from
/// `clients` threads and returns `(index, result_bytes)` pairs plus the
/// wall-clock seconds the whole sweep took. Panics on any non-OK reply.
fn fabric_sweep(
    addrs: &[std::net::SocketAddr],
    requests: &[SolveRequest],
    clients: usize,
) -> (Vec<(usize, String)>, f64) {
    let started = Instant::now();
    let results: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for idx in (client..requests.len()).step_by(clients) {
                        // Entry node rotates with the request index, so
                        // every node fields both owned and forwarded
                        // work.
                        let addr = addrs[idx % addrs.len()];
                        let reply = submit(addr, &requests[idx]).expect("fabric submit");
                        assert_eq!(
                            reply.status,
                            ReplyStatus::Ok,
                            "fabric solve failed for request #{idx}"
                        );
                        out.push((idx, reply.section("result").expect("result").to_string()));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (results, started.elapsed().as_secs_f64())
}

/// The `--nodes N` arm: an in-process N-node fabric versus a single
/// node on the same corpus.
///
/// One single-node server first solves the whole corpus — that is both
/// the throughput baseline and the byte-identity oracle. Then N
/// fabric-joined servers (consistent-hash routing, gossip membership)
/// field the same corpus with requests entering round-robin at every
/// node, so roughly (N-1)/N of them arrive at a non-owner and cross
/// the wire. Every `result` section must be byte-identical to the
/// single-node solve regardless of entry node. Saves
/// `BENCH_fabric.{csv,json}`; under `--full` the 2-node arm must clear
/// a ≥1.6× throughput floor over the baseline (fast mode records the
/// ratio without gating, since CI containers may have a single CPU).
fn run_fabric(settings: &RunSettings, nodes: usize) {
    let ids = ["F2", "J2", "S2", "K2", "G2"];
    let seeds_per_id: u64 = if settings.full { 6 } else { 2 };
    let clients = 4usize;
    let mut labels = Vec::new();
    let mut requests = Vec::new();
    for id in ids {
        for seed in 0..seeds_per_id {
            labels.push(format!("{id}/{seed}"));
            requests.push(request_for(id, seed, settings));
        }
    }

    let mut table = Table::new(
        "fabric: multi-node throughput and byte-identity",
        vec![
            "nodes",
            "requests",
            "ok",
            "mismatches",
            "forwards",
            "remote_hits",
            "ring_version",
            "throughput/s",
            "speedup",
            "p50_ms",
        ],
    );

    // --- single-node baseline: the byte-identity oracle.
    let baseline_server = serve(ServeConfig::default()).expect("bind ephemeral port");
    let (mut baseline, baseline_wall) = fabric_sweep(&[baseline_server.addr()], &requests, clients);
    baseline.sort_by_key(|(idx, _)| *idx);
    let baseline_tps = requests.len() as f64 / baseline_wall;
    baseline_server.shutdown();
    table.row(vec![
        "1".into(),
        requests.len().to_string(),
        baseline.len().to_string(),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        fmt(baseline_tps),
        fmt(1.0),
        fmt(baseline_wall * 1000.0 / requests.len() as f64),
    ]);

    // --- N-node cluster: node i seeds its peer list with every node
    // bound before it; gossip closes the rest of the mesh.
    let mut servers = Vec::new();
    let mut addrs: Vec<std::net::SocketAddr> = Vec::new();
    for i in 0..nodes {
        let fabric = FabricConfig::new(format!("loadgen-n{i}"))
            .with_seed(settings.seed + i as u64)
            .with_peers(addrs.iter().map(|a| a.to_string()).collect())
            .with_heartbeat(Duration::from_millis(50));
        let server =
            serve(ServeConfig::default().with_fabric(fabric)).expect("bind ephemeral port");
        addrs.push(server.addr());
        servers.push(server);
    }
    // Wait for the mesh to converge: every node must count all N
    // members (self included) alive before the sweep, or early
    // requests would be routed on partial rings (correct, but noisy
    // for the benchmark).
    let deadline = Instant::now() + Duration::from_secs(10);
    while servers
        .iter()
        .any(|s| (s.stats().fabric.members_alive as usize) < nodes)
    {
        assert!(
            Instant::now() < deadline,
            "fabric membership did not converge within 10s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let (mut cluster, cluster_wall) = fabric_sweep(&addrs, &requests, clients);
    cluster.sort_by_key(|(idx, _)| *idx);
    let mut mismatches = 0usize;
    for ((idx, bytes), (_, expected)) in cluster.iter().zip(&baseline) {
        if bytes != expected {
            mismatches += 1;
            println!("fabric: BYTE MISMATCH on {}", labels[*idx]);
        }
    }
    let mut forwards = 0u64;
    let mut remote_hits = 0u64;
    let mut ring_version = 0u64;
    for server in &servers {
        let fabric = server.stats().fabric;
        forwards += fabric.forwards_out;
        remote_hits += fabric.remote_hits;
        ring_version = ring_version.max(fabric.ring_version);
    }
    for server in servers {
        server.shutdown();
    }
    let cluster_tps = requests.len() as f64 / cluster_wall;
    let speedup = cluster_tps / baseline_tps;
    table.row(vec![
        nodes.to_string(),
        requests.len().to_string(),
        cluster.len().to_string(),
        mismatches.to_string(),
        forwards.to_string(),
        remote_hits.to_string(),
        ring_version.to_string(),
        fmt(cluster_tps),
        fmt(speedup),
        fmt(cluster_wall * 1000.0 / requests.len() as f64),
    ]);

    table.print();
    if let Ok(p) = table.save_csv("fabric") {
        println!("saved: {}", p.display());
    }
    if let Ok(p) = table.save_json("BENCH_fabric") {
        println!("saved: {}", p.display());
    }

    assert_eq!(
        mismatches, 0,
        "fabric replies must be byte-identical to the single-node solve"
    );
    assert!(
        forwards > 0,
        "round-robin entry must forward at least one request"
    );
    println!(
        "fabric: {} requests over {nodes} nodes, {forwards} forwarded, \
         speedup {:.2}x vs single node",
        requests.len(),
        speedup
    );
    if settings.full && nodes == 2 {
        assert!(
            speedup >= 1.6,
            "2-node fabric must reach >=1.6x single-node throughput (got {speedup:.2}x)"
        );
    }
}

/// The tool's usage line.
const USAGE: &str = "usage: loadgen [--full] [--seed N] [--replay | --nodes N | --connections N]";

/// Which arms a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// The cold, warm, saturation and warm-restart arms.
    Arms,
    /// The deterministic workload replay (`--replay`).
    Replay,
    /// The multi-node fabric arm over 2 to 8 nodes (`--nodes N`).
    Fabric(usize),
    /// The event-loop arm up to `N` parked connections
    /// (`--connections N`).
    Evloop(usize),
}

/// Parses the arguments, without the program name: the shared flags
/// plus at most one mode flag. Any other token, a malformed value, a
/// node count outside 2..=8 or a second mode flag is an error.
fn parse_args(args: &[String]) -> Result<(RunSettings, Mode), String> {
    let mut settings = RunSettings::fast();
    let mut mode = Mode::Arms;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if settings.apply_flag(arg, &mut rest)? {
            continue;
        }
        let chosen = match arg.as_str() {
            "--replay" => Mode::Replay,
            "--nodes" => match unsigned_value(arg, &mut rest)? {
                nodes @ 2..=8 => Mode::Fabric(nodes),
                nodes => return Err(format!("--nodes: {nodes} is not in 2..=8")),
            },
            "--connections" => match unsigned_value(arg, &mut rest)? {
                0 => return Err("--connections: 0 is not positive".to_string()),
                conns => Mode::Evloop(conns),
            },
            _ => return Err(unknown_argument(arg)),
        };
        if mode != Mode::Arms {
            return Err(format!("`{arg}` after another mode flag"));
        }
        mode = chosen;
    }
    Ok((settings, mode))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (settings, mode) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("loadgen: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match mode {
        Mode::Arms => run_arms(&settings),
        Mode::Replay => run_replay(&settings),
        Mode::Fabric(nodes) => run_fabric(&settings, nodes),
        Mode::Evloop(conns) => run_evloop(&settings, conns),
    }
}

/// The cold, warm, saturation and warm-restart arms against one server.
fn run_arms(settings: &RunSettings) {
    let repeats = if settings.full { 60 } else { 20 };
    let ids = ["F2", "J2", "S2", "K2", "G2"];
    let seeds_per_id: u64 = if settings.full { 6 } else { 2 };

    let mut table = Table::new(
        "loadgen: served solve throughput and latency",
        vec![
            "arm",
            "requests",
            "ok",
            "busy",
            "error",
            "throughput/s",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        ],
    );

    // The main server persists everything it computes, so the
    // warm-restart arm can replay the cold corpus from disk later.
    let state_dir =
        std::env::temp_dir().join(format!("rasengan-loadgen-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let server =
        serve(ServeConfig::default().with_state_dir(&state_dir)).expect("bind ephemeral port");
    let addr = server.addr();

    // Client-side latency histogram (obs log-bucketed, micros): every
    // request from every arm lands here, and its percentiles are
    // reported next to the exact nearest-rank ones.
    let mut client_hist = Histogram::new();

    // --- cold arm: every request is a fresh (problem, seed) pair.
    let mut cold_ms = Vec::new();
    let mut cold_results = Vec::new();
    let cold_started = Instant::now();
    for id in ids {
        for seed in 0..seeds_per_id {
            let request = request_for(id, seed, settings);
            let started = Instant::now();
            let reply = submit(addr, &request).expect("cold submit");
            client_hist.record(started.elapsed().as_micros() as u64);
            cold_ms.push(started.elapsed().as_secs_f64() * 1000.0);
            assert_eq!(reply.status, ReplyStatus::Ok, "cold solve failed");
            let service = reply.json("service").expect("service section");
            assert_ne!(
                service.get("cache").and_then(|c| c.as_str()),
                Some("hit"),
                "cold arm must not hit the result cache"
            );
            cold_results.push((id, seed, reply.section("result").unwrap().to_string()));
        }
    }
    let cold_wall = cold_started.elapsed().as_secs_f64();
    let cold_n = cold_ms.len();
    table.row(vec![
        "cold".into(),
        cold_n.to_string(),
        cold_n.to_string(),
        "0".into(),
        "0".into(),
        fmt(cold_n as f64 / cold_wall),
        fmt(percentile(&mut cold_ms, 0.50)),
        fmt(percentile(&mut cold_ms, 0.95)),
        fmt(percentile(&mut cold_ms, 0.99)),
    ]);

    // --- warm arm: one request repeated; all but the first round hit.
    let warm_request = request_for("F2", 0, settings);
    let baseline = cold_results
        .iter()
        .find(|(id, seed, _)| *id == "F2" && *seed == 0)
        .map(|(_, _, result)| result.clone())
        .expect("cold arm covered F2 seed 0");
    let mut warm_ms = Vec::new();
    let warm_started = Instant::now();
    for _ in 0..repeats {
        let started = Instant::now();
        let reply = submit(addr, &warm_request).expect("warm submit");
        client_hist.record(started.elapsed().as_micros() as u64);
        warm_ms.push(started.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(reply.status, ReplyStatus::Ok);
        let service = reply.json("service").expect("service section");
        assert_eq!(
            service.get("cache").and_then(|c| c.as_str()),
            Some("hit"),
            "warm arm must hit the result cache"
        );
        assert_eq!(
            reply.section("result").unwrap(),
            baseline,
            "cached result must be byte-identical to the cold solve"
        );
    }
    let warm_wall = warm_started.elapsed().as_secs_f64();
    let warm_p50 = percentile(&mut warm_ms, 0.50);
    let cold_p50 = percentile(&mut cold_ms, 0.50);
    table.row(vec![
        "warm".into(),
        repeats.to_string(),
        repeats.to_string(),
        "0".into(),
        "0".into(),
        fmt(repeats as f64 / warm_wall),
        fmt(warm_p50),
        fmt(percentile(&mut warm_ms, 0.95)),
        fmt(percentile(&mut warm_ms, 0.99)),
    ]);
    let speedup = cold_p50 / warm_p50;
    println!(
        "warm-cache speedup: {:.1}x (cold p50 {} ms, warm p50 {} ms)",
        speedup,
        fmt(cold_p50),
        fmt(warm_p50)
    );
    assert!(
        speedup >= 10.0,
        "warm repeat must be >=10x faster than cold (got {speedup:.1}x)"
    );
    let stats = server.stats();
    assert!(stats.result_hits >= repeats as u64, "hit counter moved");
    // Every id's non-first seed misses the result cache (the key
    // includes the seed) but hits the compile cache, whose `Prepared`
    // carries compiled segment programs — so the compile-hit counter
    // must have moved once per such seed at minimum.
    let program_hits = ids.len() as u64 * (seeds_per_id - 1);
    assert!(
        stats.compile_hits >= program_hits,
        "non-first seeds must reuse cached compiles \
         (wanted >={program_hits}, got {})",
        stats.compile_hits
    );
    println!("compile cache hits: {}", stats.compile_hits);
    server.shutdown();

    // --- saturation arm: tiny server, concurrent flood, expect sheds.
    let tiny = serve(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(1),
    )
    .expect("bind ephemeral port");
    let tiny_addr = tiny.addr();
    let flood = if settings.full { 32 } else { 16 };
    let flood_request = request_for("J2", 9, settings);
    let flood_started = Instant::now();
    let outcomes: Vec<(ReplyStatus, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..flood)
            .map(|_| {
                let request = flood_request.clone();
                scope.spawn(move || {
                    let started = Instant::now();
                    let reply = submit(tiny_addr, &request).expect("flood submit");
                    (reply.status, started.elapsed().as_secs_f64() * 1000.0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let flood_wall = flood_started.elapsed().as_secs_f64();
    let ok = outcomes
        .iter()
        .filter(|(s, _)| *s == ReplyStatus::Ok)
        .count();
    let busy = outcomes
        .iter()
        .filter(|(s, _)| *s == ReplyStatus::Busy)
        .count();
    let errors = outcomes.len() - ok - busy;
    let mut flood_ms: Vec<f64> = outcomes.iter().map(|(_, ms)| *ms).collect();
    for (_, ms) in &outcomes {
        client_hist.record((ms * 1000.0) as u64);
    }
    table.row(vec![
        "saturation".into(),
        flood.to_string(),
        ok.to_string(),
        busy.to_string(),
        errors.to_string(),
        fmt(flood as f64 / flood_wall),
        fmt(percentile(&mut flood_ms, 0.50)),
        fmt(percentile(&mut flood_ms, 0.95)),
        fmt(percentile(&mut flood_ms, 0.99)),
    ]);
    println!("saturation: {ok} ok, {busy} busy, {errors} error of {flood}");
    assert!(ok >= 1, "at least one flooded request must be served");
    assert!(
        busy >= 1,
        "a saturated queue must shed load with structured BUSY responses"
    );
    assert_eq!(errors, 0, "saturation must not produce malformed replies");
    let shed = tiny.stats().shed;
    assert_eq!(shed, busy as u64, "shed counter matches BUSY replies");
    tiny.shutdown();

    // --- warm-restart arm: a fresh server process-equivalent (new
    // caches, same state directory) replays the cold corpus. The disk
    // tier must carry the warmth across the restart: ≥90% of the first
    // 100 requests hit (memory or disk), and every served result is
    // byte-identical to the original cold solve.
    let restart_started = Instant::now();
    let restarted =
        serve(ServeConfig::default().with_state_dir(&state_dir)).expect("bind ephemeral port");
    let restarted_addr = restarted.addr();
    let recovered = restarted.stats().persist;
    assert!(
        recovered.recovered >= (ids.len() as u64) * seeds_per_id,
        "recovery must readmit the cold corpus (got {} records)",
        recovered.recovered
    );
    assert_eq!(
        recovered.quarantined, 0,
        "clean shutdown leaves no corruption"
    );

    let first_n = 100usize;
    let mut restart_ms = Vec::new();
    let mut warm_hits = 0usize;
    let mut restart_to_warm_ms = f64::NAN;
    for i in 0..first_n {
        let (id, seed, baseline) = &cold_results[i % cold_results.len()];
        let request = request_for(id, *seed, settings);
        let started = Instant::now();
        let reply = submit(restarted_addr, &request).expect("warm-restart submit");
        client_hist.record(started.elapsed().as_micros() as u64);
        restart_ms.push(started.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(reply.status, ReplyStatus::Ok, "warm-restart solve failed");
        let cache = reply
            .json("service")
            .expect("service section")
            .get("cache")
            .and_then(|c| c.as_str())
            .map(str::to_string)
            .unwrap_or_default();
        if cache == "hit" || cache == "disk-hit" {
            warm_hits += 1;
            if restart_to_warm_ms.is_nan() {
                restart_to_warm_ms = restart_started.elapsed().as_secs_f64() * 1000.0;
            }
            assert_eq!(
                reply.section("result").unwrap(),
                baseline,
                "warm-restart result must be byte-identical to the cold solve"
            );
        }
    }
    let hit_rate = warm_hits as f64 / first_n as f64;
    let restart_stats = restarted.stats().persist;
    println!(
        "warm-restart: {warm_hits}/{first_n} warm ({:.0}%), restart-to-warm {} ms, \
         {} disk hits, {} disk misses",
        hit_rate * 100.0,
        fmt(restart_to_warm_ms),
        restart_stats.disk_hits,
        restart_stats.disk_misses
    );
    assert!(
        hit_rate >= 0.90,
        "warm-restart hit rate must be >=90% (got {:.0}%)",
        hit_rate * 100.0
    );
    assert!(
        restart_stats.disk_hits >= cold_results.len() as u64,
        "every replayed corpus entry must be served from disk once"
    );
    restarted.shutdown();

    let mut persist_table = Table::new(
        "persist: warm-restart recovery",
        vec![
            "arm",
            "requests",
            "warm_hits",
            "hit_rate",
            "restart_to_warm_ms",
            "recovered",
            "quarantined",
            "disk_hits",
            "p50_ms",
            "p95_ms",
        ],
    );
    persist_table.row(vec![
        "warm-restart".into(),
        first_n.to_string(),
        warm_hits.to_string(),
        fmt(hit_rate),
        fmt(restart_to_warm_ms),
        recovered.recovered.to_string(),
        recovered.quarantined.to_string(),
        restart_stats.disk_hits.to_string(),
        fmt(percentile(&mut restart_ms, 0.50)),
        fmt(percentile(&mut restart_ms, 0.95)),
    ]);
    persist_table.print();
    if let Ok(p) = persist_table.save_csv("persist") {
        println!("saved: {}", p.display());
    }
    if let Ok(p) = persist_table.save_json("BENCH_persist") {
        println!("saved: {}", p.display());
    }
    let _ = std::fs::remove_dir_all(&state_dir);

    // --- obs histogram rows: the client-side merged histogram, and the
    // server-side `serve.request_us` histogram the service records into
    // the global registry (both servers above share it, since they run
    // in this process). Bucketed percentiles are upper bounds, so they
    // may sit slightly above the exact nearest-rank values.
    assert_eq!(
        client_hist.count(),
        (cold_n + repeats + flood + first_n) as u64,
        "every request must be recorded in the obs histogram"
    );
    table.row(vec![
        "obs-client".into(),
        client_hist.count().to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fmt(hist_ms(&client_hist, 0.50)),
        fmt(hist_ms(&client_hist, 0.95)),
        fmt(hist_ms(&client_hist, 0.99)),
    ]);
    let server_hist = try_global()
        .and_then(|reg| reg.histogram("serve.request_us"))
        .expect("the service records request latencies");
    assert!(
        server_hist.count() >= (cold_n + repeats) as u64,
        "server-side histogram must cover at least the served requests"
    );
    table.row(vec![
        "obs-server".into(),
        server_hist.count().to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fmt(hist_ms(&server_hist, 0.50)),
        fmt(hist_ms(&server_hist, 0.95)),
        fmt(hist_ms(&server_hist, 0.99)),
    ]);

    table.print();
    if let Ok(p) = table.save_csv("loadgen") {
        println!("saved: {}", p.display());
    }
    if let Ok(p) = table.save_json("BENCH_loadgen") {
        println!("saved: {}", p.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_handles_empty_and_nearest_rank() {
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(percentile(&mut [], 0.99), 0.0);
        let mut one = [7.0];
        assert_eq!(percentile(&mut one, 0.5), 7.0);
        let mut samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut samples, 0.5), 2.0);
        assert_eq!(percentile(&mut samples, 1.0), 4.0);
        assert_eq!(percentile(&mut samples, 0.0), 1.0);
    }

    fn parse(tokens: &[&str]) -> Result<(RunSettings, Mode), String> {
        let args: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn every_mode_parses() {
        let fast = RunSettings::fast();
        assert_eq!(parse(&[]), Ok((fast, Mode::Arms)));
        assert_eq!(parse(&["--replay"]), Ok((fast, Mode::Replay)));
        for nodes in [2, 4, 8] {
            let arg = nodes.to_string();
            assert_eq!(parse(&["--nodes", &arg]), Ok((fast, Mode::Fabric(nodes))));
        }
        let (settings, mode) = parse(&["--connections", "1024", "--seed", "3", "--full"]).unwrap();
        assert_eq!(mode, Mode::Evloop(1024));
        assert_eq!((settings.seed, settings.full), (3, true));
    }

    #[test]
    fn malformed_values_are_rejected() {
        for (tokens, want) in [
            (&["--nodes"][..], "--nodes needs a value"),
            (
                &["--nodes", "two"],
                "--nodes: `two` is not an unsigned integer",
            ),
            (&["--nodes", "1"], "--nodes: 1 is not in 2..=8"),
            (&["--nodes", "9"], "--nodes: 9 is not in 2..=8"),
            (&["--connections"], "--connections needs a value"),
            (
                &["--connections", "-5"],
                "--connections: `-5` is not an unsigned integer",
            ),
            (&["--connections", "0"], "--connections: 0 is not positive"),
            (&["--seed", "7x"], "--seed: `7x` is not an unsigned integer"),
        ] {
            assert_eq!(parse(tokens), Err(want.to_string()), "{tokens:?}");
        }
    }

    #[test]
    fn unknown_and_conflicting_flags_are_rejected() {
        for (tokens, want) in [
            (&["--node", "2"][..], "unknown flag `--node`"),
            (&["replay"], "unexpected argument `replay`"),
            (
                &["--replay", "--nodes", "2"],
                "`--nodes` after another mode flag",
            ),
            (
                &["--nodes", "2", "--connections", "64"],
                "`--connections` after another mode flag",
            ),
        ] {
            assert_eq!(parse(tokens), Err(want.to_string()), "{tokens:?}");
        }
    }
}
