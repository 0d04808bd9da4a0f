//! `rasengan` — command-line interface to the solver suite.
//!
//! ```text
//! rasengan solve --benchmark F2                     # Rasengan, noise-free
//! rasengan solve --benchmark J1 --algorithm chocoq  # a baseline instead
//! rasengan solve --benchmark K1 --device kyiv --shots 1024
//! rasengan inspect --benchmark S2                   # compiled-chain report
//! rasengan export --benchmark F1 --out segments.qasm
//! rasengan list                                     # the registered benchmarks
//! rasengan corpus list                              # ids + fingerprints
//! rasengan convert -f inst.qubo --recover -o inst.problem
//! rasengan serve --addr 127.0.0.1:7878 --workers 4  # solve service
//! rasengan submit -f inst.lp --addr 127.0.0.1:7878
//! ```

#![forbid(unsafe_code)]

use rasengan::baselines::{BaselineConfig, ChocoQ, GroverAdaptiveSearch, Hea, PQaoa};
use rasengan::core::{Rasengan, RasenganConfig};
use rasengan::problems::ingest::{parse_as, write_as, Format};
use rasengan::problems::io::write_problem;
use rasengan::problems::registry::{all_ids, benchmark, BenchmarkId};
use rasengan::problems::{constraint_topology, enumerate_feasible, optimum, Problem};
use rasengan::qsim::qasm::to_qasm3;
use rasengan::qsim::{Circuit, Device};
use rasengan::serve::{
    serve, submit_with_retry, ReplyStatus, RetryPolicy, ServeConfig, SolveRequest,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    // `corpus` takes a subcommand word before the flags.
    let (flag_args, corpus_sub) = if command == "corpus" {
        match args.get(1).map(String::as_str) {
            Some("list") => (&args[2..], Some("list")),
            other => {
                eprintln!(
                    "error: unknown corpus subcommand `{}` (expected `list`)",
                    other.unwrap_or("")
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        (&args[1..], None)
    };
    let opts = match Options::parse(flag_args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            return ExitCode::FAILURE;
        }
    };

    match command.as_str() {
        "list" => cmd_list(),
        "corpus" => match corpus_sub {
            Some("list") => cmd_corpus_list(),
            _ => unreachable!("subcommand validated above"),
        },
        "save" => cmd_save(&opts),
        "convert" => cmd_convert(&opts),
        "solve" => cmd_solve(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "inspect" => cmd_inspect(&opts),
        "export" => cmd_export(&opts),
        "help" | "--help" | "-h" => {
            print_usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

/// Parsed command-line options.
struct Options {
    benchmark: Option<String>,
    file: Option<String>,
    algorithm: String,
    device: Option<String>,
    shots: Option<usize>,
    seed: u64,
    iterations: usize,
    layers: usize,
    retries: usize,
    degrade: bool,
    out: Option<String>,
    addr: String,
    workers: usize,
    queue: usize,
    deadline_ms: Option<u64>,
    trace: bool,
    trace_path: Option<String>,
    state_dir: Option<String>,
    io_timeout_ms: Option<u64>,
    connect_retries: u32,
    format: Option<Format>,
    to: Option<Format>,
    recover: bool,
    lambda: Option<f64>,
    node_id: Option<String>,
    peers: Vec<String>,
    advertise: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            benchmark: None,
            file: None,
            algorithm: "rasengan".to_string(),
            device: None,
            shots: None,
            seed: 7,
            iterations: 150,
            layers: 5,
            retries: 0,
            degrade: false,
            out: None,
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue: 64,
            deadline_ms: None,
            trace: false,
            trace_path: None,
            state_dir: None,
            io_timeout_ms: None,
            connect_retries: 0,
            format: None,
            to: None,
            recover: false,
            lambda: None,
            node_id: None,
            peers: Vec::new(),
            advertise: None,
        };
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match flag.as_str() {
                "--benchmark" | "-b" => opts.benchmark = Some(value("--benchmark")?),
                "--file" | "-f" => opts.file = Some(value("--file")?),
                "--algorithm" | "-a" => opts.algorithm = value("--algorithm")?.to_lowercase(),
                "--device" | "-d" => opts.device = Some(value("--device")?.to_lowercase()),
                "--shots" => {
                    opts.shots = Some(
                        value("--shots")?
                            .parse()
                            .map_err(|_| "shots must be an integer".to_string())?,
                    )
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "seed must be an integer".to_string())?
                }
                "--iterations" | "-i" => {
                    opts.iterations = value("--iterations")?
                        .parse()
                        .map_err(|_| "iterations must be an integer".to_string())?
                }
                "--layers" => {
                    opts.layers = value("--layers")?
                        .parse()
                        .map_err(|_| "layers must be an integer".to_string())?
                }
                "--retries" => {
                    opts.retries = value("--retries")?
                        .parse()
                        .map_err(|_| "retries must be an integer".to_string())?
                }
                "--degrade" => opts.degrade = true,
                "--trace" => {
                    // Optionally valued: `--trace out.jsonl` exports the
                    // span tree; a bare `--trace` (e.g. for `serve`)
                    // just switches tracing on.
                    opts.trace = true;
                    if let Some(next) = it.peek() {
                        if !next.starts_with('-') {
                            opts.trace_path = it.next().cloned();
                        }
                    }
                }
                "--addr" => opts.addr = value("--addr")?,
                "--workers" => {
                    opts.workers = value("--workers")?
                        .parse()
                        .map_err(|_| "workers must be an integer".to_string())?
                }
                "--queue" => {
                    opts.queue = value("--queue")?
                        .parse()
                        .map_err(|_| "queue must be an integer".to_string())?
                }
                "--deadline-ms" => {
                    opts.deadline_ms = Some(
                        value("--deadline-ms")?
                            .parse()
                            .map_err(|_| "deadline-ms must be an integer".to_string())?,
                    )
                }
                "--state-dir" => opts.state_dir = Some(value("--state-dir")?),
                "--io-timeout-ms" => {
                    opts.io_timeout_ms = Some(
                        value("--io-timeout-ms")?
                            .parse()
                            .map_err(|_| "io-timeout-ms must be an integer".to_string())?,
                    )
                }
                "--connect-retries" => {
                    opts.connect_retries = value("--connect-retries")?
                        .parse()
                        .map_err(|_| "connect-retries must be an integer".to_string())?
                }
                "--out" | "-o" => opts.out = Some(value("--out")?),
                "--format" => {
                    let token = value("--format")?;
                    opts.format = Some(
                        Format::parse(&token).ok_or_else(|| format!("unknown format `{token}`"))?,
                    );
                }
                "--to" => {
                    let token = value("--to")?;
                    opts.to = Some(
                        Format::parse(&token).ok_or_else(|| format!("unknown format `{token}`"))?,
                    );
                }
                "--node-id" => {
                    let id = value("--node-id")?;
                    if id.is_empty() || id.contains(char::is_whitespace) {
                        return Err("node-id must be a single non-empty token".to_string());
                    }
                    opts.node_id = Some(id);
                }
                "--peers" => {
                    // Comma-separated host:port list; empty entries are
                    // tolerated so trailing commas don't error out.
                    opts.peers.extend(
                        value("--peers")?
                            .split(',')
                            .map(str::trim)
                            .filter(|p| !p.is_empty())
                            .map(str::to_string),
                    );
                }
                "--advertise" => opts.advertise = Some(value("--advertise")?),
                "--recover" => opts.recover = true,
                "--lambda" => {
                    opts.lambda = Some(
                        value("--lambda")?
                            .parse()
                            .map_err(|_| "lambda must be a number".to_string())?,
                    )
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The input format of `--file`: explicit `--format`, else the
    /// path extension (`.qubo`, `.lp`, anything else → native), with
    /// `--recover` upgrading QUBO ingestion to penalty-term recovery.
    fn input_format(&self, path: &str) -> Format {
        let format = self.format.unwrap_or_else(|| Format::from_path(path));
        match format {
            Format::Qubo if self.recover => Format::QuboRecover,
            other => other,
        }
    }

    fn problem(&self) -> Result<Problem, String> {
        if let Some(path) = &self.file {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let format = self.input_format(path);
            return parse_as(format, &text).map_err(|e| format!("{path} ({format}): {e}"));
        }
        let name = self
            .benchmark
            .as_deref()
            .ok_or("missing --benchmark or --file")?;
        let id = BenchmarkId::parse(name)
            .ok_or_else(|| format!("unknown benchmark `{name}` (try `rasengan list`)"))?;
        Ok(benchmark(id))
    }

    fn device(&self) -> Result<Option<Device>, String> {
        match self.device.as_deref() {
            None => Ok(None),
            Some("kyiv") => Ok(Some(Device::ibm_kyiv())),
            Some("brisbane") => Ok(Some(Device::ibm_brisbane())),
            Some("quebec") => Ok(Some(Device::ibm_quebec())),
            Some(other) => Err(format!(
                "unknown device `{other}` (kyiv | brisbane | quebec)"
            )),
        }
    }
}

fn print_usage() {
    eprintln!(
        "\
rasengan — transition-Hamiltonian solver for constrained binary optimization

USAGE:
  rasengan <command> [flags]

COMMANDS:
  list         show the registered benchmarks
  corpus list  show every corpus instance with its canonical fingerprint
  solve        run a solver on a benchmark
  serve        run the multi-client solve service (runs until killed;
               epoll reactor on Linux x86_64/aarch64, blocking
               driver elsewhere)
  submit       send a problem to a running service and print the result
  convert      translate between problem formats (native | qubo | lp)
  inspect      show the compiled transition chain without solving
  export       write the compiled segments as OpenQASM 3
  save         write a benchmark instance as a problem file
  help         this message

FLAGS:
  -b, --benchmark <ID>     benchmark id (F1..P4)
  -f, --file <PATH>        load a problem file instead of a benchmark
                           (.qubo/.lp extensions select their parsers)
      --format <NAME>      input format override for --file:
                           native | qubo | qubo-recover | lp
      --to <NAME>          output format for `convert` (default: from
                           the --out extension, else native)
      --recover            lift uniform penalty cliques in a QUBO back
                           into equality constraints on ingestion
      --lambda <X>         penalty weight for QUBO export (default:
                           auto-sized from the objective)
  -a, --algorithm <NAME>   rasengan | chocoq | pqaoa | hea | gas
  -d, --device <NAME>      kyiv | brisbane | quebec (noise + timing)
      --shots <N>          shots per segment/circuit
      --seed <N>           RNG seed (default 7)
  -i, --iterations <N>     optimizer budget (default 150)
      --layers <N>         baseline layer count (default 5)
      --retries <N>        re-run a failed segment up to N times (rasengan)
      --degrade            continue past a dead segment instead of aborting
      --trace [PATH]       record a span tree; solve writes JSONL to PATH,
                           serve traces every request, submit asks the server
      --addr <HOST:PORT>   service address (serve bind / submit target)
      --workers <N>        service worker threads (default 4)
      --queue <N>          service admission-queue capacity (default 64)
      --deadline-ms <N>    per-request deadline for `submit`
      --state-dir <DIR>    crash-safe on-disk warm state for `serve`:
                           finished solves survive restarts
      --io-timeout-ms <N>  per-connection IO deadline for `serve`,
                           bounding stalled reads and stalled writes
      --connect-retries <N> `submit` rides through a restarting server
                           with up to N extra connection attempts
      --peers <LIST>       comma-separated peer addresses; joins `serve`
                           to a multi-node fabric (consistent-hash
                           routing + gossip membership)
      --node-id <ID>       stable fabric identity for this node
                           (default: derived from --addr)
      --advertise <ADDR>   address peers should dial back (default:
                           the bound --addr)
  -o, --out <PATH>         output path for `export`"
    );
}

fn cmd_list() -> ExitCode {
    println!(
        "{:<6} {:>6} {:>7} {:>10} {:>10}",
        "id", "vars", "cons", "feasible", "degree"
    );
    for id in all_ids() {
        let p = benchmark(id);
        let topo = constraint_topology(&p);
        println!(
            "{:<6} {:>6} {:>7} {:>10} {:>10.2}",
            id.to_string(),
            p.n_vars(),
            p.n_constraints(),
            enumerate_feasible(&p).len(),
            topo.avg_degree
        );
    }
    ExitCode::SUCCESS
}

fn cmd_corpus_list() -> ExitCode {
    println!(
        "{:<6} {:<26} {:>6} {:>7}  fingerprint",
        "id", "name", "vars", "cons"
    );
    for id in all_ids() {
        let p = benchmark(id);
        println!(
            "{:<6} {:<26} {:>6} {:>7}  {:032x}",
            id.to_string(),
            p.name(),
            p.n_vars(),
            p.n_constraints(),
            p.fingerprint()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_convert(opts: &Options) -> ExitCode {
    let problem = match opts.problem() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Target format: explicit --to, else the --out extension, else
    // native.
    let target = opts
        .to
        .unwrap_or_else(|| Format::from_path(opts.out.as_deref().unwrap_or("")));
    let rendered = if matches!(target, Format::Qubo | Format::QuboRecover) {
        rasengan::problems::ingest::qubo::write_qubo(&problem, opts.lambda)
    } else {
        write_as(target, &problem)
    };
    let text = match rendered {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot write {} as {target}: {e}", problem.name());
            return ExitCode::FAILURE;
        }
    };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} as {target} to {path}", problem.name());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn cmd_save(opts: &Options) -> ExitCode {
    let problem = match opts.problem() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = write_problem(&problem);
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} to {path}", problem.name());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn cmd_solve(opts: &Options) -> ExitCode {
    let problem = match opts.problem() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let device = match opts.device() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "solving {} ({} vars) with {}{}",
        problem.name(),
        problem.n_vars(),
        opts.algorithm,
        device
            .as_ref()
            .map(|d| format!(" on {}", d.name))
            .unwrap_or_default()
    );

    let mut resilience_note: Option<String> = None;
    let (best_bits, best_value, feasible, arg, rate) = match opts.algorithm.as_str() {
        "rasengan" => {
            let mut cfg = RasenganConfig::default()
                .with_seed(opts.seed)
                .with_max_iterations(opts.iterations)
                .with_retry_budget(opts.retries);
            if opts.degrade {
                cfg = cfg.with_degradation();
            }
            if opts.trace {
                cfg = cfg.with_trace(true);
            }
            if let Some(d) = device {
                cfg = cfg.on_device(d);
            }
            if let Some(s) = opts.shots {
                cfg = cfg.with_shots(s);
            }
            match Rasengan::new(cfg).solve(&problem) {
                Ok(o) => {
                    if !o.resilience.is_clean() {
                        resilience_note = Some(o.resilience.summary());
                    }
                    if let Some(tree) = &o.trace {
                        match &opts.trace_path {
                            Some(path) => {
                                if let Err(e) = std::fs::write(path, tree.to_jsonl()) {
                                    eprintln!("error: cannot write {path}: {e}");
                                    return ExitCode::FAILURE;
                                }
                                println!("trace         : {} spans -> {path}", tree.count());
                            }
                            None => {
                                println!("trace         : {} spans", tree.count());
                            }
                        }
                    }
                    (
                        o.best.bits,
                        o.best.value,
                        o.best.feasible,
                        o.arg,
                        o.in_constraints_rate,
                    )
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        alg @ ("chocoq" | "pqaoa" | "hea" | "gas") => {
            let mut cfg = BaselineConfig::default()
                .with_seed(opts.seed)
                .with_layers(opts.layers)
                .with_max_iterations(opts.iterations);
            if let Some(d) = device {
                cfg = cfg.on_device(d);
            }
            if let Some(s) = opts.shots {
                cfg = cfg.with_shots(s);
            }
            let out = match alg {
                "chocoq" => match ChocoQ::new(cfg).solve(&problem) {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                "pqaoa" => PQaoa::new(cfg).with_frozen_qubits(1).solve(&problem),
                "hea" => Hea::new(cfg).solve(&problem),
                _ => GroverAdaptiveSearch::new(cfg).solve(&problem),
            };
            (
                out.best.bits,
                out.best.value,
                out.best.feasible,
                out.arg,
                out.in_constraints_rate,
            )
        }
        other => {
            eprintln!("error: unknown algorithm `{other}`");
            return ExitCode::FAILURE;
        }
    };

    let (_, e_opt) = optimum(&problem);
    println!("best solution : {best_bits:?}");
    println!("objective     : {best_value} (optimum {e_opt})");
    println!("feasible      : {feasible}");
    println!("ARG           : {arg:.4}");
    println!("in-constraints: {:.1}%", rate * 100.0);
    if let Some(note) = resilience_note {
        println!("resilience    : {note}");
    }
    ExitCode::SUCCESS
}

fn cmd_serve(opts: &Options) -> ExitCode {
    let mut config = ServeConfig::default()
        .with_addr(opts.addr.clone())
        .with_workers(opts.workers)
        .with_queue_capacity(opts.queue);
    if opts.trace {
        config = config.with_trace_all();
    }
    if let Some(dir) = &opts.state_dir {
        config = config.with_state_dir(dir);
    }
    if let Some(ms) = opts.io_timeout_ms {
        config = config.with_io_timeout(std::time::Duration::from_millis(ms.max(1)));
    }
    if !opts.peers.is_empty() || opts.node_id.is_some() {
        let node_id = opts
            .node_id
            .clone()
            .unwrap_or_else(|| format!("node-{}", opts.addr.replace([':', '.'], "-")));
        let mut fabric = rasengan::serve::FabricConfig::new(node_id)
            .with_peers(opts.peers.clone())
            .with_seed(opts.seed);
        if let Some(advertise) = &opts.advertise {
            fabric = fabric.with_advertise(advertise);
        }
        config = config.with_fabric(fabric);
    }
    let fabric_enabled = config.fabric.is_some();
    let event_loop = config.event_loop && rasengan::serve::EVENT_LOOP_SUPPORTED;
    let server = match serve(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot start on {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "rasengan service listening on {} ({} front end, {} workers, queue {}{}{})",
        server.addr(),
        if event_loop { "event-loop" } else { "blocking" },
        opts.workers,
        opts.queue,
        opts.state_dir
            .as_deref()
            .map(|d| format!(", state {d}"))
            .unwrap_or_default(),
        if fabric_enabled {
            format!(", fabric {} peers", opts.peers.len())
        } else {
            String::new()
        }
    );
    let persist = server.stats().persist;
    if opts.state_dir.is_some() {
        println!(
            "state recovered: {} records, {} quarantined, {} stale tmp cleaned",
            persist.recovered, persist.quarantined, persist.tmp_cleaned
        );
    }
    // Run until the process is killed; embedders wanting a graceful
    // drain should use rasengan::serve::serve directly and call
    // ServerHandle::shutdown.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_submit(opts: &Options) -> ExitCode {
    // A --file submission ships the file bytes verbatim with a `format`
    // header — the server does the lowering — while a --benchmark
    // submission serializes the registry instance in native form.
    let (problem_text, format) = if let Some(path) = &opts.file {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        (text, opts.input_format(path))
    } else {
        let problem = match opts.problem() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        (write_problem(&problem), Format::Native)
    };
    let mut request = SolveRequest::new(problem_text)
        .with_format(format)
        .with_seed(opts.seed)
        .with_iterations(opts.iterations)
        .with_retries(opts.retries);
    if let Some(shots) = opts.shots {
        request = request.with_shots(shots);
    }
    if opts.degrade {
        request = request.with_degrade();
    }
    if opts.trace {
        request = request.with_trace();
    }
    if let Some(ms) = opts.deadline_ms {
        request = request.with_deadline_ms(ms);
    }
    let policy = RetryPolicy::attempts(opts.connect_retries.saturating_add(1));
    let reply = match submit_with_retry(opts.addr.as_str(), &request, policy) {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("error: cannot reach {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    match reply.status {
        ReplyStatus::Ok => {
            for (name, body) in &reply.sections {
                println!("{name} {body}");
            }
            ExitCode::SUCCESS
        }
        ReplyStatus::Busy => {
            eprintln!("busy: {}", reply.section("service").unwrap_or("queue full"));
            ExitCode::FAILURE
        }
        ReplyStatus::Error => {
            eprintln!(
                "error: {}",
                reply.section("error").unwrap_or("unknown server error")
            );
            ExitCode::FAILURE
        }
    }
}

fn cmd_inspect(opts: &Options) -> ExitCode {
    let problem = match opts.problem() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prepared =
        match Rasengan::new(RasenganConfig::default().with_seed(opts.seed)).prepare(&problem) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
    println!("benchmark      : {}", problem.name());
    println!("variables      : {}", problem.n_vars());
    println!("constraints    : {}", problem.n_constraints());
    println!("basis size (m) : {}", prepared.stats.m_basis);
    println!(
        "simplification : {} → {} nonzeros",
        prepared.stats.simplify_cost.0, prepared.stats.simplify_cost.1
    );
    println!(
        "chain          : {} scheduled → {} kept ({} pruned{})",
        prepared.stats.raw_ops,
        prepared.stats.kept_ops,
        prepared.chain.pruned,
        if prepared.chain.early_stopped {
            ", early stop"
        } else {
            ""
        }
    );
    println!("segments       : {}", prepared.stats.n_segments);
    println!(
        "segment depth  : {} CX (whole chain {} CX)",
        prepared.stats.max_segment_cx_depth, prepared.stats.total_cx_depth
    );
    println!("parameters     : {}", prepared.stats.n_params);
    for (i, op) in prepared.chain.ops.iter().enumerate() {
        println!("  τ_{i:<2} u = {:?}  ({} CX)", op.u(), op.cx_cost());
    }
    // Draw the first transition operator's synthesized circuit if it
    // fits a terminal comfortably.
    if let Some(op) = prepared.chain.ops.first() {
        if problem.n_vars() <= 12 {
            println!("\nτ_0 synthesized circuit:");
            print!(
                "{}",
                rasengan::qsim::draw::draw_circuit(
                    &op.circuit(std::f64::consts::FRAC_PI_4, problem.n_vars())
                )
            );
        }
    }
    ExitCode::SUCCESS
}

fn cmd_export(opts: &Options) -> ExitCode {
    let problem = match opts.problem() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prepared =
        match Rasengan::new(RasenganConfig::default().with_seed(opts.seed)).prepare(&problem) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
    let mut programs = Vec::new();
    for range in &prepared.plan.segments {
        let mut circuit = Circuit::new(problem.n_vars());
        for op in &prepared.chain.ops[range.clone()] {
            circuit.extend(&op.circuit(std::f64::consts::FRAC_PI_4, problem.n_vars()));
        }
        // Peephole-clean the concatenated segment (adjacent τ shells on
        // a shared pivot partially cancel) before serializing.
        let circuit = rasengan::qsim::peephole::optimize(&circuit);
        programs.push(to_qasm3(&circuit));
    }
    let text = programs.join("\n// ---- next segment ----\n");
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} segments to {path}", programs.len());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}
