//! serve-mix: two callers in a closed loop against an in-process
//! server over TCP, mixing requests that solve with cache hits.
//!
//! The request sequence runs in laps of 40. Each lap asks once for
//! every registry id (in a seeded order) under the lap's solver seed and
//! wire format: 32 new keys, each a miss that solves. After every four
//! of them comes a repeat of a key from the previous lap, a result-cache
//! hit. Laps cycle through 16 solver seeds, so past 256 keys the LRU
//! evicts. The keys themselves (canonical instances, fixed solver
//! seeds) are the same for every seed: the cost of a solve follows the
//! optimizer's convergence, which varies several-fold between instances
//! and solver seeds, and an open-loop schedule over seeded keys read
//! 30-70% run-to-run spreads. The seed orders each lap and picks the
//! repeats. Each caller sends its next request when its reply arrives;
//! between laps, with the server idle, the reference kernel is timed
//! (see `clock`).

use crate::clock;
use crate::report::Report;
use crate::spec::{self, DEFAULT_SEED, PER_LAYER};
use crate::stats::{self, Fnv};
use crate::trace;
use rasengan_core::Rasengan;
use rasengan_obs::json::Json;
use rasengan_obs::metrics::try_global;
use rasengan_obs::span::{Span, TraceTree, Tracer};
use rasengan_problems::ingest::{parse_as, write_as, Format};
use rasengan_problems::registry::{all_ids, benchmark, case_seed};
use rasengan_problems::{optimum, Problem};
use rasengan_serve::{
    render_outcome, serve, submit, Reply, ReplyStatus, ServeConfig, ServerHandle, SolveRequest,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Concurrent callers, each with one request in flight.
const CALLERS: usize = 2;
const WORKERS: usize = 2;
const IDS: usize = 32;
const SOLVER_SEEDS_PER_ID: usize = 16;
/// Every `REPEAT_EVERY`-th request of a lap repeats an earlier key.
const REPEAT_EVERY: usize = 5;
const LAP: usize = IDS * REPEAT_EVERY / (REPEAT_EVERY - 1);
const SHOTS: usize = 256;
const ITERATIONS: usize = 40;
/// Solver seeds of the key population derive from this.
const KEY_SEED: u64 = 2025;
/// New keys, the first of the sequence, whose served bytes are compared
/// with an in-process solve.
const CHECKED_KEYS: usize = 8;
/// Non-native formats of larger problems fall back to native: an
/// unconstrained QUBO of n variables costs the solver a 2^n optimum
/// enumeration per miss.
const MAX_NON_NATIVE_VARS: usize = 16;
/// Laps of the sequence the manifest digest covers.
const DIGEST_LAPS: usize = 64;
const SETUP_REPEATS: usize = 9;

/// One cache key: an instance, a solver seed and a wire format.
pub struct Key {
    label: String,
    request: SolveRequest,
}

/// The key population and the seed that orders the request sequence.
pub struct Manifest {
    keys: Vec<Key>,
    seed: u64,
}

/// Keeps `format` when the problem round-trips through it, the lowered
/// problem stays small, and its optimum is nonzero (the ARG is
/// undefined at a zero optimum); otherwise native.
fn resolve(problem: &Problem, format: Format) -> Format {
    if format == Format::Native {
        return format;
    }
    let lowered = write_as(format, problem)
        .ok()
        .and_then(|text| parse_as(format, &text).ok());
    match lowered {
        Some(q) if q.n_vars() <= MAX_NON_NATIVE_VARS && optimum(&q).1 != 0.0 => format,
        _ => Format::Native,
    }
}

/// The 512 keys: id `i` with solver-seed slot `s` is key `16 i + s`,
/// sent in format `s mod 4` (or native, see [`resolve`]).
fn keys() -> Result<Vec<Key>, String> {
    let mut keys = Vec::with_capacity(IDS * SOLVER_SEEDS_PER_ID);
    for (i, id) in all_ids().into_iter().enumerate() {
        let problem = benchmark(id);
        if optimum(&problem).1 == 0.0 {
            return Err(format!("{id}: zero optimum, ARG undefined"));
        }
        let formats: Vec<Format> = Format::all()
            .iter()
            .map(|&f| resolve(&problem, f))
            .collect();
        for s in 0..SOLVER_SEEDS_PER_ID {
            let k = i * SOLVER_SEEDS_PER_ID + s;
            let format = formats[s % formats.len()];
            let body = write_as(format, &problem).map_err(|e| format!("{id}: {e}"))?;
            keys.push(Key {
                label: format!("{id}/{s}/{}", format.token()),
                request: SolveRequest::new(body)
                    .with_seed(case_seed(KEY_SEED, k as u64))
                    .with_shots(SHOTS)
                    .with_iterations(ITERATIONS)
                    .with_format(format),
            });
        }
    }
    Ok(keys)
}

impl Manifest {
    pub fn build(seed: u64) -> Result<Manifest, String> {
        Ok(Manifest {
            keys: keys()?,
            seed,
        })
    }

    /// The `q`-th new key of lap `lap`: the `q`-th id of the lap's seeded
    /// order, under the lap's solver-seed slot.
    fn new_key(&self, lap: usize, q: usize) -> usize {
        let mut order: Vec<usize> = (0..IDS).collect();
        order.sort_by_key(|&i| case_seed(self.seed ^ 0x5E_0004 ^ lap as u64, i as u64));
        order[q] * SOLVER_SEEDS_PER_ID + lap % SOLVER_SEEDS_PER_ID
    }

    /// The key of request `i` of the sequence.
    pub fn key_at(&self, i: usize) -> usize {
        let (lap, p) = (i / LAP, i % LAP);
        if p % REPEAT_EVERY != REPEAT_EVERY - 1 {
            return self.new_key(lap, p - p / REPEAT_EVERY);
        }
        // A repeat: a key of the previous lap (the first lap repeats its
        // own earlier keys).
        let (from, count) = if lap == 0 {
            (0, p - p / REPEAT_EVERY)
        } else {
            (lap - 1, IDS)
        };
        let pick = case_seed(self.seed ^ 0x5E_0006, i as u64) % count as u64;
        self.new_key(from, pick as usize)
    }

    /// Canonical text: every key's full request and the first
    /// `DIGEST_LAPS` laps of the sequence.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (k, key) in self.keys.iter().enumerate() {
            out.push_str(&format!("key {k} {}\n{}", key.label, key.request.render()));
        }
        for i in 0..DIGEST_LAPS * LAP {
            out.push_str(&format!("{}\n", self.key_at(i)));
        }
        out
    }

    pub fn digest(&self) -> u64 {
        Fnv::default().str(&self.text()).finish()
    }
}

/// One request as sent and answered. Times are seconds after the
/// callers started; `speed` is the host's, from the reference kernel
/// timed before and after the request's lap.
struct Record {
    index: usize,
    key: usize,
    start: f64,
    done: f64,
    speed: f64,
    reply: Result<Reply, String>,
}

/// Runs the sequence lap by lap from `CALLERS` threads until `seconds`
/// have passed, finishing the lap in progress. Between laps, with the
/// server idle, the reference kernel is timed and `between_laps` runs;
/// its time counts neither toward `seconds` nor in any record's times.
/// Traced, each caller wraps its requests in spans.
fn drive(
    addr: std::net::SocketAddr,
    manifest: &Manifest,
    seconds: f64,
    traced: bool,
    mut between_laps: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<Record>, Option<TraceTree>), String> {
    let opened = Instant::now();
    let mut paused_s = 0.0;
    let mut records = Vec::new();
    let mut callers = Vec::new();
    let mut lap = 0;
    while opened.elapsed().as_secs_f64() - paused_s < seconds {
        let kernel_before = clock::kernel_s();
        let next = AtomicUsize::new(lap * LAP);
        let end = (lap + 1) * LAP;
        let now = || opened.elapsed().as_secs_f64() - paused_s;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    let (next, now) = (&next, &now);
                    scope.spawn(move || {
                        let mut tracer = traced.then(|| Tracer::memory("bench.caller"));
                        let mut out = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::SeqCst);
                            if index >= end {
                                break;
                            }
                            let key = manifest.key_at(index);
                            let plain = &manifest.keys[key].request;
                            let with_trace = traced.then(|| plain.clone().with_trace());
                            let request = with_trace.as_ref().unwrap_or(plain);
                            let start = now();
                            let tok = tracer.as_mut().map(|t| t.open("serve.request"));
                            let reply = submit(addr, request);
                            if let (Some(t), Some(tok)) = (tracer.as_mut(), tok) {
                                t.close(tok);
                            }
                            out.push(Record {
                                index,
                                key,
                                start,
                                done: now(),
                                speed: f64::NAN,
                                reply: reply.map_err(|e| e.to_string()),
                            });
                        }
                        (out, tracer.and_then(Tracer::finish))
                    })
                })
                .collect();
            for h in handles {
                let (out, tree) = h.join().expect("caller thread");
                records.extend(out);
                callers.extend(tree);
            }
        });
        let speed = clock::speed(kernel_before, clock::kernel_s());
        for r in &mut records[lap * LAP..] {
            r.speed = speed;
        }
        lap += 1;
        let paused = Instant::now();
        between_laps()?;
        paused_s += paused.elapsed().as_secs_f64();
    }
    records.sort_by_key(|r| r.index);
    let tree = traced.then(|| TraceTree {
        root: Span {
            id: rasengan_obs::splitmix64(rasengan_obs::fnv64("bench")),
            label: "bench",
            ordinal: 0,
            attrs: Vec::new(),
            elapsed_s: opened.elapsed().as_secs_f64(),
            children: callers.into_iter().map(|t| t.root).collect(),
        },
    });
    Ok((records, tree))
}

/// The measured requests: the OK replies of the whole cycles of laps
/// after the first lap (which warms the compile cache). A cycle of
/// `SOLVER_SEEDS_PER_ID` laps asks for every key once, so every seed
/// measures the same keys; the seed only orders them and picks the
/// repeats. Short of one cycle, every lap after the first, or the first
/// alone.
fn measured(records: &[Record]) -> Vec<(&Record, &Reply)> {
    let laps = records.len() / LAP;
    let cycles = laps.saturating_sub(1) / SOLVER_SEEDS_PER_ID;
    let range = match (laps, cycles) {
        (0 | 1, _) => 0..records.len(),
        (_, 0) => LAP..records.len(),
        _ => LAP..(1 + cycles * SOLVER_SEEDS_PER_ID) * LAP,
    };
    records[range]
        .iter()
        .filter_map(|r| match &r.reply {
            Ok(reply) if reply.status == ReplyStatus::Ok => Some((r, reply)),
            _ => None,
        })
        .collect()
}

fn latency_ms(r: &Record) -> f64 {
    1000.0 * (r.done - r.start)
}

struct Setup {
    manifest: Manifest,
    generate_s: f64,
    /// Key generation plus server start, as measured and at the
    /// reference speed (from kernel runs before and after).
    setup_s: f64,
    scaled_s: f64,
    server: ServerHandle,
}

fn server_config() -> ServeConfig {
    ServeConfig::default()
        .with_workers(WORKERS)
        .with_solver_threads(1)
}

/// Refuses to measure when the default seed no longer generates the
/// committed manifest. Runs once per process, outside any timed region.
fn check_drift() -> Result<(), String> {
    let committed = spec::workload("serve-mix")
        .expect("declared workload")
        .default_input_digest;
    let default_digest = Manifest::build(DEFAULT_SEED)?.digest();
    if default_digest != committed {
        return Err(format!(
            "serve-mix: generated inputs drifted (default-seed digest {default_digest:016x}, \
             committed {committed:016x}); refusing to measure a different workload"
        ));
    }
    Ok(())
}

/// Builds the key population and starts the server; `setup_s` times
/// both.
fn setup(seed: u64) -> Result<Setup, String> {
    let kernel_before = clock::kernel_s();
    let started = Instant::now();
    let manifest = Manifest::build(seed)?;
    let generate_s = started.elapsed().as_secs_f64();
    let server = serve(server_config()).map_err(|e| format!("serve-mix: bind: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    Ok(Setup {
        manifest,
        generate_s,
        setup_s,
        scaled_s: setup_s * clock::speed(kernel_before, clock::kernel_s()),
        server,
    })
}

/// Repeats the setup between laps, spread over the measured phase (each
/// new server shut down again): the shared host changes speed for
/// seconds at a time, so setups taken back to back all land in one such
/// stretch.
struct SetupSampler {
    seed: u64,
    every_s: f64,
    last: Instant,
    /// Each setup's `(setup_s, scaled_s)`.
    times: Vec<(f64, f64)>,
}

impl SetupSampler {
    fn new(seed: u64, first: &Setup, seconds: f64) -> SetupSampler {
        SetupSampler {
            seed,
            every_s: seconds / SETUP_REPEATS as f64,
            last: Instant::now(),
            times: vec![(first.setup_s, first.scaled_s)],
        }
    }

    fn sample(&mut self) -> Result<(), String> {
        let again = setup(self.seed)?;
        self.times.push((again.setup_s, again.scaled_s));
        again.server.shutdown();
        self.last = Instant::now();
        Ok(())
    }

    /// Sets up again when due.
    fn tick(&mut self) -> Result<(), String> {
        if self.times.len() < SETUP_REPEATS && self.last.elapsed().as_secs_f64() >= self.every_s {
            self.sample()?;
        }
        Ok(())
    }

    /// The median setup time, as measured and at the reference speed,
    /// topping up samples the phase left short.
    fn medians(mut self) -> Result<(f64, f64), String> {
        while self.times.len() < SETUP_REPEATS {
            self.sample()?;
        }
        let (raw, scaled): (Vec<f64>, Vec<f64>) = self.times.into_iter().unzip();
        let median = |v: &[f64]| stats::median(v).expect("setup samples");
        Ok((median(&raw), median(&scaled)))
    }
}

/// Section `name` of a reply as JSON, or `Json::Null`.
fn section(reply: &Reply, name: &str) -> Json {
    reply.json(name).unwrap_or(Json::Null)
}

fn num(json: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(json, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Checks every reply and returns the first `result` bytes per key.
fn check_replies(
    report: &mut Report,
    manifest: &Manifest,
    records: &[Record],
) -> BTreeMap<usize, String> {
    let mut results: BTreeMap<usize, String> = BTreeMap::new();
    for r in records {
        report.attempted += 1;
        let label = &manifest.keys[r.key].label;
        let body = match &r.reply {
            Ok(reply) if reply.status == ReplyStatus::Ok => reply.section("result"),
            Ok(reply) => {
                report.failed += 1;
                report.fail(format!("{label}: {:?} reply", reply.status));
                continue;
            }
            Err(err) => {
                report.failed += 1;
                report.fail(format!("{label}: {err}"));
                continue;
            }
        };
        let Some(body) = body else {
            report.fail(format!("{label}: OK reply without a result section"));
            continue;
        };
        match results.get(&r.key) {
            Some(first) if first != body => {
                report.fail(format!("{label}: result bytes differ between replies"))
            }
            Some(_) => {}
            None => {
                results.insert(r.key, body.to_string());
            }
        }
    }
    results
}

/// Compares the served bytes of the first `CHECKED_KEYS` new keys with
/// an in-process solve of the same lowered problem; returns the
/// in-process outcomes' render times in microseconds.
fn check_in_process(
    report: &mut Report,
    manifest: &Manifest,
    addr: std::net::SocketAddr,
    results: &mut BTreeMap<usize, String>,
) -> Vec<f64> {
    let mut render_us = Vec::new();
    for q in 0..CHECKED_KEYS {
        let k = manifest.new_key(0, q);
        let key = &manifest.keys[k];
        if let std::collections::btree_map::Entry::Vacant(slot) = results.entry(k) {
            match submit(addr, &key.request) {
                Ok(reply) if reply.status == ReplyStatus::Ok => {
                    if let Some(body) = reply.section("result") {
                        slot.insert(body.to_string());
                    }
                }
                other => report.fail(format!("{}: check request failed: {other:?}", key.label)),
            }
        }
        let lowered = match parse_as(key.request.format, &key.request.problem_text) {
            Ok(p) => p,
            Err(e) => {
                report.fail(format!("{}: body does not parse: {e}", key.label));
                continue;
            }
        };
        let config = key.request.config().with_threads(1);
        match Rasengan::new(config).solve(&lowered) {
            Ok(outcome) => {
                let started = Instant::now();
                let bytes = render_outcome(&outcome);
                render_us.push(1e6 * started.elapsed().as_secs_f64());
                if results.get(&k) != Some(&bytes) {
                    report.fail(format!(
                        "{}: served result differs from the in-process solve",
                        key.label
                    ));
                }
            }
            Err(e) => report.fail(format!("{}: in-process solve failed: {e}", key.label)),
        }
    }
    render_us
}

/// Digest of the checked keys' result bytes: a fixed key set, so it does
/// not depend on how many requests the timed phase completed.
fn result_digest(manifest: &Manifest, results: &BTreeMap<usize, String>) -> u64 {
    let mut h = Fnv::default();
    for q in 0..CHECKED_KEYS {
        let k = manifest.new_key(0, q);
        let body = results.get(&k).map_or("", String::as_str);
        h.str(&manifest.keys[k].label).str(body);
    }
    h.finish()
}

fn summarize(report: &mut Report, label: &str, records: &[Record]) -> f64 {
    let measured = measured(records);
    let lat: Vec<f64> = measured.iter().map(|(r, _)| latency_ms(r)).collect();
    let hits = measured
        .iter()
        .filter(|(_, reply)| cache_note(reply) == "hit")
        .count();
    let span = measured.iter().map(|(r, _)| r.done).fold(0.0, f64::max)
        - measured
            .iter()
            .map(|(r, _)| r.start)
            .fold(f64::MAX, f64::min);
    let rate = lat.len() as f64 / span;
    let tail = stats::supported_tail(lat.len())
        .and_then(|q| stats::percentile(&lat, q).map(|v| format!(", p{} {v:.3}", q * 100.0)))
        .unwrap_or_default();
    report.note(format!(
        "{label}: {} requests, {} measured ({hits} hits) at {rate:.2}/s; latency ms p50 {:.3}{tail} (n={})",
        records.len(),
        lat.len(),
        stats::median(&lat).unwrap_or(0.0),
        lat.len()
    ));
    rate
}

fn cache_note(reply: &Reply) -> String {
    section(reply, "service")
        .get("cache")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string()
}

/// Runs serve-mix. `Err` means it refused to start.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let window = if traced { seconds / 2.0 } else { seconds };
    check_drift()?;
    let setup = setup(seed)?;
    let mut report = Report {
        input_digest: setup.manifest.digest(),
        ..Report::default()
    };
    let mut sampler = (!traced).then(|| SetupSampler::new(seed, &setup, seconds));
    let manifest = &setup.manifest;
    let server = setup.server;
    let (records, _) = drive(server.addr(), manifest, window, false, || {
        sampler.as_mut().map_or(Ok(()), SetupSampler::tick)
    })?;
    let mut results = check_replies(&mut report, manifest, &records);
    summarize(&mut report, "serve-mix", &records);
    let render_us = check_in_process(&mut report, manifest, server.addr(), &mut results);
    report.result_digest = result_digest(manifest, &results);
    let measured_plain = measured(&records);
    let lat: Vec<f64> = measured_plain.iter().map(|(r, _)| latency_ms(r)).collect();
    let plain_p50 = stats::median(&lat).unwrap_or(f64::NAN);
    let scaled: Vec<f64> = measured_plain
        .iter()
        .map(|(r, _)| latency_ms(r) * r.speed)
        .collect();
    let scaled_p50 = stats::median(&scaled).unwrap_or(f64::NAN);
    let scaled_gm = stats::geomean(&scaled).unwrap_or(f64::NAN);
    let s = server.stats();
    report.note(format!(
        "serve-mix: result cache {} hits / {} misses, compile cache {} hits / {} misses, {} shed",
        s.result_hits, s.result_misses, s.compile_hits, s.compile_misses, s.shed
    ));
    server.shutdown();

    if let Some(sampler) = sampler {
        let (raw_setup_s, setup_s) = sampler.medians()?;
        report.note(format!(
            "serve-mix: latency ms p50 {plain_p50:.3} ({scaled_p50:.3} at the reference speed), geometric mean {:.3} ({scaled_gm:.3}); setup {:.3} ms ({:.3} ms at the reference speed)",
            stats::geomean(&lat).unwrap_or(f64::NAN),
            1000.0 * raw_setup_s,
            1000.0 * setup_s
        ));
        report.set("setup_s", setup_s);
        report.set("latency_ms", scaled_gm);
        report.correct = report.problems.is_empty() && report.failed == 0;
        return Ok(report);
    }

    // The same sequence again on a fresh server, traced: requests carry
    // the `trace` flag and each caller records its own spans.
    let server = serve(server_config()).map_err(|e| format!("serve-mix: bind: {e}"))?;
    let registry = try_global().expect("serve installs the global registry");
    let counter = |name: &str| registry.counter(name) as f64;
    let (calls0, items0) = (counter("qsim.par_map.calls"), counter("qsim.par_map.items"));
    let (traced_records, tree) = drive(server.addr(), manifest, window, true, || Ok(()))?;
    let calls = counter("qsim.par_map.calls") - calls0;
    let items = counter("qsim.par_map.items") - items0;
    let stats = server.stats();
    server.shutdown();
    let traced_results = check_replies(&mut report, manifest, &traced_records);
    for (k, body) in &traced_results {
        if results.get(k).is_some_and(|plain| plain != body) {
            report.fail(format!(
                "{}: tracing changed the result bytes",
                manifest.keys[*k].label
            ));
        }
    }
    let request_rate = summarize(&mut report, "serve-mix traced", &traced_records);
    let tree = tree.expect("traced drive records spans");
    match trace::write_jsonl(&tree, "serve-mix", seed) {
        Ok(path) => report.note(format!(
            "spans: {} written to {}",
            tree.count(),
            path.display()
        )),
        Err(err) => report.note(format!("spans: could not write JSONL: {err}")),
    }

    let mut queue_ms = Vec::new();
    let mut front_ms = Vec::new();
    let mut solve_ms = Vec::new();
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let mut latencies = Vec::new();
    let mut sums = BTreeMap::<&str, f64>::new();
    for (r, reply) in measured(&traced_records) {
        let (service, timing, result) = (
            section(reply, "service"),
            section(reply, "timing"),
            section(reply, "result"),
        );
        let roundtrip = latency_ms(r);
        let queue = num(&service, &["queue_wait_ms"]);
        latencies.push(roundtrip);
        queue_ms.push(queue);
        let note = cache_note(reply);
        if note == "hit" {
            // A hit's `timing` stages are the cached solve's, not work
            // done for this request.
            front_ms.push(roundtrip - queue);
            hit_ms.push(roundtrip);
            continue;
        }
        let stages_ms = 1000.0
            * (num(&timing, &["prepare_s"])
                + num(&timing, &["train_s"])
                + num(&timing, &["execute_s"]));
        front_ms.push(roundtrip - queue - stages_ms);
        miss_ms.push(roundtrip);
        solve_ms.push(stages_ms);
        let mut add = |name: &'static str, value: f64| *sums.entry(name).or_insert(0.0) += value;
        add("misses", 1.0);
        if note == "miss" {
            add("compiles", 1.0);
            add("prepare_ms", 1000.0 * num(&timing, &["prepare_s"]));
        }
        add("evaluations", num(&result, &["evaluations"]));
        add("shots", num(&result, &["total_shots"]));
        add("train_s", num(&timing, &["train_s"]));
        add("execute_s", num(&timing, &["execute_s"]));
        add("stages_ms", stages_ms);
        add("retries", num(&result, &["resilience", "retries"]));
        add(
            "degradations",
            num(&result, &["resilience", "degradations"]),
        );
        add("segments", num(&result, &["stats", "n_segments"]));
        add("kept", num(&result, &["raw_in_constraints_rate"]));
    }
    let sum = |name: &str| sums.get(name).copied().unwrap_or(0.0);
    let misses = sum("misses").max(1.0);
    let args: Vec<f64> = traced_results
        .values()
        .filter_map(|body| rasengan_obs::json::parse(body).ok())
        .map(|j| num(&j, &["arg"]))
        .collect();
    let (parse_us, fingerprint_us) = time_ingest(manifest);
    let p = |v: &[f64], q: f64| stats::percentile(v, q).unwrap_or(0.0);
    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    for (name, value) in [
        (
            "problems.generate_ms",
            1000.0 * setup.generate_s / manifest.keys.len() as f64,
        ),
        ("problems.parse_us", parse_us),
        ("problems.fingerprint_us", fingerprint_us),
        (
            "core.prepare_ms",
            sum("prepare_ms") / sum("compiles").max(1.0),
        ),
        ("core.solves", sum("misses")),
        ("core.evaluations", sum("evaluations") / misses),
        (
            "core.eval_ms",
            1000.0 * sum("train_s") / sum("evaluations").max(1.0),
        ),
        (
            "core.train_share",
            1000.0 * sum("train_s") / sum("stages_ms").max(f64::MIN_POSITIVE),
        ),
        ("core.segments", sum("segments") / misses),
        ("core.purify_kept_frac", sum("kept") / misses),
        ("core.retries", sum("retries")),
        ("core.degradations", sum("degradations")),
        ("core.arg_mean", stats::mean(&args).unwrap_or(0.0)),
        ("qsim.par_map_calls", calls / misses),
        ("qsim.par_map_items_per_call", items / calls.max(1.0)),
        ("qsim.shots", sum("shots") / misses),
        (
            "qsim.us_per_shot",
            1e6 * (sum("train_s") + sum("execute_s")) / sum("shots").max(1.0),
        ),
        (
            "serve.hit_ratio",
            ratio(stats.result_hits, stats.result_misses),
        ),
        (
            "serve.compile_hit_ratio",
            ratio(stats.compile_hits, stats.compile_misses),
        ),
        ("serve.queue_wait_ms_p50", p(&queue_ms, 0.5)),
        ("serve.queue_wait_ms_p90", p(&queue_ms, 0.9)),
        ("serve.front_ms_p50", p(&front_ms, 0.5)),
        ("serve.render_us", stats::mean(&render_us).unwrap_or(0.0)),
        ("serve.solve_ms_p50", p(&solve_ms, 0.5)),
        ("serve.hit_p50_ms", p(&hit_ms, 0.5)),
        ("serve.miss_p50_ms", p(&miss_ms, 0.5)),
        ("serve.latency_p90_ms", p(&latencies, 0.9)),
        ("serve.request_rate", request_rate),
        (
            "obs.trace_overhead_frac",
            p(&latencies, 0.5) / plain_p50 - 1.0,
        ),
        ("obs.spans", tree.count() as f64),
    ] {
        report.set(name, value);
    }
    report.zero_unset(&PER_LAYER);
    report.correct = report.problems.is_empty() && report.failed == 0;
    Ok(report)
}

/// Mean time to parse each key's wire body and to fingerprint the
/// lowered problem, in microseconds, timed from outside the server.
fn time_ingest(manifest: &Manifest) -> (f64, f64) {
    const REPEATS: usize = 20;
    let (mut parse_s, mut fingerprint_s) = (0.0, 0.0);
    for key in &manifest.keys {
        let started = Instant::now();
        let mut parsed = None;
        for _ in 0..REPEATS {
            parsed =
                std::hint::black_box(parse_as(key.request.format, &key.request.problem_text).ok());
        }
        parse_s += started.elapsed().as_secs_f64();
        if let Some(problem) = parsed {
            let started = Instant::now();
            for _ in 0..REPEATS {
                std::hint::black_box(std::hint::black_box(&problem).fingerprint());
            }
            fingerprint_s += started.elapsed().as_secs_f64();
        }
    }
    let n = (manifest.keys.len() * REPEATS) as f64;
    (1e6 * parse_s / n, 1e6 * fingerprint_s / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(m: &Manifest, laps: usize) -> Vec<usize> {
        (0..laps * LAP).map(|i| m.key_at(i)).collect()
    }

    #[test]
    fn manifest_regenerates_byte_identically_from_a_seed() {
        let a = Manifest::build(11).unwrap();
        let b = Manifest::build(11).unwrap();
        assert_eq!(a.text(), b.text());
        let c = Manifest::build(12).unwrap();
        assert_ne!(a.text(), c.text());
        assert_eq!(a.keys.len(), IDS * SOLVER_SEEDS_PER_ID);
        let formats: std::collections::HashSet<Format> =
            a.keys.iter().map(|k| k.request.format).collect();
        assert!(formats.len() >= 3, "formats {formats:?}");
    }

    #[test]
    fn every_lap_asks_for_each_id_once_and_repeats_the_last_lap() {
        let m = Manifest::build(5).unwrap();
        assert_eq!(LAP, 40);
        let seq = sequence(&m, 20);
        for (lap, keys) in seq.chunks(LAP).enumerate() {
            let new: Vec<usize> = keys
                .iter()
                .enumerate()
                .filter(|(p, _)| p % REPEAT_EVERY != REPEAT_EVERY - 1)
                .map(|(_, &k)| k)
                .collect();
            let ids: std::collections::BTreeSet<usize> =
                new.iter().map(|k| k / SOLVER_SEEDS_PER_ID).collect();
            assert_eq!(ids.len(), IDS, "lap {lap} covers every id once");
            assert!(new
                .iter()
                .all(|k| k % SOLVER_SEEDS_PER_ID == lap % SOLVER_SEEDS_PER_ID));
            for (p, k) in keys.iter().enumerate() {
                if p % REPEAT_EVERY == REPEAT_EVERY - 1 {
                    let earlier = &seq[lap.saturating_sub(1) * LAP..lap * LAP + p];
                    assert!(
                        earlier.contains(k),
                        "lap {lap} position {p} repeats a recent key"
                    );
                }
            }
        }
        // 16 laps visit every key.
        let all: std::collections::BTreeSet<usize> = seq.iter().copied().collect();
        assert_eq!(all.len(), IDS * SOLVER_SEEDS_PER_ID);
    }
}
