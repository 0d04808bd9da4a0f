//! The solve service: TCP front end, worker pool, caches, admission
//! control.
//!
//! Every connection runs the one request/reply state machine,
//! `conn::Conn` over the one parser,
//! [`IncrementalParser`](crate::protocol::IncrementalParser). Two
//! drivers move its bytes, selected by [`ServeConfig::event_loop`]:
//!
//! * **Reactor** (the default on Linux x86_64/aarch64): a single epoll
//!   event loop (`reactor`) owns every socket in non-blocking
//!   mode and enforces IO deadlines with a timer wheel.
//!   Concurrent-connection capacity is bounded by file descriptors,
//!   not threads.
//! * **Blocking** (`event_loop: false`, and every other platform): one
//!   accept thread reads each connection through its verb line with
//!   `SO_RCVTIMEO`/`SO_SNDTIMEO` deadlines; a `SOLVE` goes onto the
//!   queue carrying its connection, and the worker reads the body,
//!   solves, and writes the reply. Capacity is bounded by the worker
//!   count plus the queue.
//!
//! Either way, `STATS`/`PING`/`GOSSIP` are answered inline by the front
//! end and `SOLVE` work is pushed onto a bounded queue
//! ([`rasengan_qsim::parallel::BoundedQueue`]) drained by a fixed
//! worker pool. When the queue is full the request is shed immediately
//! with a structured `BUSY` response (`Shared::admit`) — the front
//! end never blocks on solver work, so load-shedding stays responsive
//! under saturation. The two drivers produce byte-identical replies:
//! the request rules live in `conn`, and `solve_reply` holds
//! all solve-side semantics (caches, persist tier, counters).
//!
//! # Determinism
//!
//! A served solve is bit-identical to an in-process
//! [`Rasengan::solve`] with the same request knobs, at any worker
//! count: workers share nothing but the caches, every solve derives
//! its randomness from the request's seed alone, and cached results
//! are the bytes the original solve produced. The determinism suite
//! byte-compares `result` sections across 1-worker, 4-worker, and
//! in-process runs.
//!
//! # Caches
//!
//! * **Result cache** — finished solves, rendered once into their
//!   `result` text (plus latency, and the `trace` text when traced),
//!   keyed on the problem
//!   [`fingerprint`](mod@rasengan_problems::fingerprint) plus every
//!   training knob the request can set. Worker-thread count is *not*
//!   part of the key: results are invariant under it. A hit renders
//!   only `timing`. A solve cut short by a budget stop depends on the
//!   wall clock, so it is never cached or persisted.
//! * **Compile cache** — [`Prepared`] artifacts (reduced basis,
//!   transition chain, segment plan) keyed on fingerprint alone. That
//!   key is sound because [`Rasengan::prepare`] reads only
//!   compile-side knobs (simplify, prune, early-stop, segmentation,
//!   depth budget), which the protocol pins to their defaults. It is
//!   memory-only: a miss runs [`Rasengan::prepare`], which costs less
//!   than writing a record, so the disk tier holds finished solves alone.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (also run on drop) sets the stop flag,
//! wakes the front end, joins it, closes the queue, and joins the
//! workers — which first drain every request already admitted.
//! Nothing already queued is dropped.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rasengan_core::solver::{Prepared, Rasengan};
use rasengan_obs::json::Json;
use rasengan_obs::metrics::{install_global, Registry};
use rasengan_problems::ingest::parse_as;
use rasengan_qsim::parallel::BoundedQueue;

use crate::cache::ShardedLru;
use crate::conn::{resolve, Conn, ReadOutcome, Step, WriteOutcome};
use crate::fabric::{Fabric, FabricConfig, FabricStats};
use crate::persist::{Persist, PersistStats, ResultKey, Solved, StorageFaultPlan};
use crate::protocol::{error_sections, GossipMessage, Reply, ReplyStatus, SolveRequest, Verb};

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Solve worker threads.
    pub workers: usize,
    /// Admission queue capacity; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Engine threads per solve; `None` defers to `RASENGAN_THREADS`.
    pub solver_threads: Option<usize>,
    /// Per-connection IO deadline, refreshed by every read or write
    /// that moves bytes: bounds how long a stalled client can hold a
    /// connection slot (and, on the blocking driver, a thread).
    pub io_timeout: Duration,
    /// Trace every solve, even when the request omits the `trace`
    /// flag. Responses gain a `trace` section; `result` bytes are
    /// unchanged.
    pub trace_all: bool,
    /// Crash-safe on-disk warm-state tier ([`crate::persist`]). `None`
    /// keeps the service memory-only; `Some(dir)` opens (and recovers)
    /// the state directory at startup, loads result-cache misses from
    /// disk, and flushes fresh untraced solves back.
    pub state_dir: Option<PathBuf>,
    /// Deterministic storage fault injection applied to every persist
    /// write — test scaffolding for the corruption matrix, never armed
    /// in production configs.
    pub storage_faults: Option<StorageFaultPlan>,
    /// Drive connections with the epoll reactor instead of the
    /// blocking driver. Defaults to `true` where the reactor is
    /// supported (Linux x86_64/aarch64) and is ignored — falling back
    /// to the blocking driver — everywhere else.
    pub event_loop: bool,
    /// Pins each accepted socket's kernel send buffer (`SO_SNDBUF`),
    /// bounding per-connection kernel memory. `None` leaves the
    /// kernel's autotuning in charge. Linux-only; ignored elsewhere.
    pub send_buffer_bytes: Option<u32>,
    /// Join a multi-node solve fabric ([`crate::fabric`]): requests
    /// whose fingerprint hashes to another live member are forwarded
    /// there over the line protocol, so every node's caches compose.
    /// `None` keeps the node standalone.
    pub fabric: Option<FabricConfig>,
}

/// Capacity of the result cache (finished solves), and of the cache of
/// results fetched from fabric peers.
const RESULT_CACHE_CAPACITY: usize = 256;

/// Capacity of the compile cache (prepared artifacts).
const COMPILE_CACHE_CAPACITY: usize = 64;

/// Whether the epoll reactor front end can run on this target (the
/// raw-syscall shim in [`crate::sys`] is Linux x86_64/aarch64 only).
pub const EVENT_LOOP_SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            solver_threads: None,
            io_timeout: Duration::from_secs(30),
            trace_all: false,
            state_dir: None,
            storage_faults: None,
            event_loop: EVENT_LOOP_SUPPORTED,
            send_buffer_bytes: None,
            fabric: None,
        }
    }
}

impl ServeConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the admission queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Pins the per-solve engine thread count.
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        self.solver_threads = Some(threads);
        self
    }

    /// Traces every solve regardless of the request's `trace` flag.
    pub fn with_trace_all(mut self) -> Self {
        self.trace_all = true;
        self
    }

    /// Sets the per-connection socket read/write timeout.
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Enables the crash-safe on-disk warm-state tier rooted at `dir`.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Arms deterministic storage fault injection on persist writes.
    pub fn with_storage_faults(mut self, plan: StorageFaultPlan) -> Self {
        self.storage_faults = Some(plan);
        self
    }

    /// Selects the driver: `true` for the epoll reactor (where
    /// supported), `false` for the blocking driver.
    pub fn with_event_loop(mut self, enabled: bool) -> Self {
        self.event_loop = enabled;
        self
    }

    /// Pins each accepted socket's kernel send buffer (`SO_SNDBUF`).
    pub fn with_send_buffer_bytes(mut self, bytes: u32) -> Self {
        self.send_buffer_bytes = Some(bytes);
        self
    }

    /// Joins the multi-node solve fabric described by `fabric`.
    pub fn with_fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = Some(fabric);
        self
    }
}

/// What travels over the admission queue.
pub(crate) enum Work {
    /// A request the reactor parsed. The reactor keeps the socket; the
    /// worker hands its reply back through `reply_to`.
    Parsed {
        request: Box<SolveRequest>,
        reply_to: Box<dyn FnOnce(Reply) + Send>,
        enqueued: Instant,
    },
    /// A blocking-driver connection, read through at least its verb
    /// line (`request` is set when the whole request came with it).
    /// The worker reads the rest, solves, and writes the reply.
    Conn {
        conn: Conn,
        request: Option<Box<SolveRequest>>,
        enqueued: Instant,
    },
}

/// Wakes a front end blocked in `accept`/`epoll_wait` so it sees the
/// shutdown flag.
pub(crate) type Wake = Box<dyn Fn() + Send + Sync>;

pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) queue: BoundedQueue<Work>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) accepted: AtomicU64,
    served_ok: AtomicU64,
    served_error: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) bad_requests: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    /// Connections currently held (either driver), then reactor
    /// counters: readable events dispatched, writes that hit a full
    /// socket buffer, and event-loop iterations (zero on the blocking
    /// driver).
    pub(crate) conns_open: AtomicU64,
    pub(crate) readable_events: AtomicU64,
    pub(crate) writable_stalls: AtomicU64,
    pub(crate) loop_iterations: AtomicU64,
    results: ShardedLru<ResultKey, Arc<Solved>>,
    compiles: ShardedLru<u128, Arc<Prepared>>,
    /// Read-through copies of forwarded replies, read back into a
    /// [`Solved`] so a repeat request on this non-owner node answers
    /// locally with byte-identical `result` and its own `timing`.
    remote: ShardedLru<ResultKey, Arc<Solved>>,
    /// The multi-node fabric state, when the config joins one.
    pub(crate) fabric: Option<Arc<Fabric>>,
    /// The on-disk warm-state tier, when `--state-dir` is set.
    persist: Option<Persist>,
    /// The process-wide metrics registry (`obs`). The engine's own
    /// hooks (fusion counters, queue depth) land here too, so a
    /// `STATS` snapshot covers the whole stack.
    registry: &'static Registry,
}

/// A point-in-time snapshot of the service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Solves answered `OK`.
    pub served_ok: u64,
    /// Solves answered `ERROR` (solver-side failures).
    pub served_error: u64,
    /// Requests shed with `BUSY`.
    pub shed: u64,
    /// Malformed requests rejected.
    pub bad_requests: u64,
    /// Connections dropped because the per-connection IO deadline
    /// expired mid-request.
    pub timeouts: u64,
    /// Result-cache hits / misses.
    pub result_hits: u64,
    /// Result-cache misses.
    pub result_misses: u64,
    /// Compile-cache hits.
    pub compile_hits: u64,
    /// Compile-cache misses.
    pub compile_misses: u64,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: usize,
    /// Connections currently held: the reactor's connection table, or
    /// the blocking driver's accepted connections not yet closed (on
    /// the accept thread, queued, or with a worker).
    pub conns_open: u64,
    /// Readable events dispatched by the reactor.
    pub readable_events: u64,
    /// Reply writes that hit a full socket buffer and had to wait for
    /// writability (reactor front end).
    pub writable_stalls: u64,
    /// Reactor event-loop iterations.
    pub loop_iterations: u64,
    /// Disk-tier counters (all zero when no state dir is configured).
    pub persist: PersistStats,
    /// Fabric counters (all zero when the node is standalone).
    pub fabric: FabricStats,
}

impl Shared {
    /// Offers work to the pool; `None` once admitted. A full queue
    /// sheds it — the one copy of the `BUSY` rule, for both drivers: a
    /// `shed` tick, and the work handed back with the structured reply
    /// to send instead.
    pub(crate) fn admit(&self, work: Work) -> Option<(Work, Reply)> {
        let work = self.queue.try_push(work).err()?;
        self.shed.fetch_add(1, Ordering::Relaxed);
        Some((work, busy_reply(self)))
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            served_ok: self.served_ok.load(Ordering::Relaxed),
            served_error: self.served_error.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            result_hits: self.results.hits(),
            result_misses: self.results.misses(),
            compile_hits: self.compiles.hits(),
            compile_misses: self.compiles.misses(),
            queue_depth: self.queue.len(),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            readable_events: self.readable_events.load(Ordering::Relaxed),
            writable_stalls: self.writable_stalls.load(Ordering::Relaxed),
            loop_iterations: self.loop_iterations.load(Ordering::Relaxed),
            persist: self.persist.as_ref().map(|p| p.stats()).unwrap_or_default(),
            fabric: self.fabric.as_ref().map(|f| f.stats()).unwrap_or_default(),
        }
    }

    pub(crate) fn stats_json(&self) -> Json {
        let s = self.stats();
        // Mirror the reactor counters into the registry so they ride
        // in the `metrics` section alongside the engine's own hooks.
        let clamp = |v: u64| v.min(i64::MAX as u64) as i64;
        self.registry
            .gauge_set("serve.conns_open", clamp(s.conns_open));
        self.registry
            .gauge_set("serve.readable_events", clamp(s.readable_events));
        self.registry
            .gauge_set("serve.writable_stalls", clamp(s.writable_stalls));
        self.registry
            .gauge_set("serve.loop_iterations", clamp(s.loop_iterations));
        Json::obj(vec![
            ("accepted", Json::Int(s.accepted as i128)),
            ("served_ok", Json::Int(s.served_ok as i128)),
            ("served_error", Json::Int(s.served_error as i128)),
            ("shed", Json::Int(s.shed as i128)),
            ("bad_requests", Json::Int(s.bad_requests as i128)),
            ("result_hits", Json::Int(s.result_hits as i128)),
            ("result_misses", Json::Int(s.result_misses as i128)),
            ("compile_hits", Json::Int(s.compile_hits as i128)),
            ("compile_misses", Json::Int(s.compile_misses as i128)),
            ("queue_depth", Json::Int(s.queue_depth as i128)),
            ("queue_capacity", Json::Int(self.queue.capacity() as i128)),
            ("workers", Json::Int(self.config.workers as i128)),
            ("timeouts", Json::Int(s.timeouts as i128)),
            ("conns_open", Json::Int(s.conns_open as i128)),
            ("readable_events", Json::Int(s.readable_events as i128)),
            ("writable_stalls", Json::Int(s.writable_stalls as i128)),
            ("loop_iterations", Json::Int(s.loop_iterations as i128)),
            (
                "fabric",
                match &self.fabric {
                    Some(fabric) => {
                        // Mirror the fabric counters into the registry
                        // (monotone, so `counter_max` makes stale
                        // snapshots harmless) alongside the gauges.
                        let f = fabric.stats();
                        for (name, value) in [
                            ("fabric.forwards_out", f.forwards_out),
                            ("fabric.forwards_in", f.forwards_in),
                            ("fabric.remote_hits", f.remote_hits),
                            ("fabric.forward_errors", f.forward_errors),
                            ("fabric.peer_suspect", f.peer_suspect),
                            ("fabric.peer_dead", f.peer_dead),
                            ("fabric.gossip_rounds", f.gossip_rounds),
                        ] {
                            self.registry.counter_max(name, value);
                        }
                        self.registry
                            .gauge_set("fabric.ring_version", clamp(f.ring_version));
                        self.registry
                            .gauge_set("fabric.members_alive", clamp(f.members_alive));
                        fabric.stats_json()
                    }
                    None => Json::obj(vec![("enabled", Json::Bool(false))]),
                },
            ),
            (
                "persist",
                Json::obj(vec![
                    ("enabled", Json::Bool(self.persist.is_some())),
                    ("disk_hits", Json::Int(s.persist.disk_hits as i128)),
                    ("disk_misses", Json::Int(s.persist.disk_misses as i128)),
                    ("quarantined", Json::Int(s.persist.quarantined as i128)),
                    ("flushes", Json::Int(s.persist.flushes as i128)),
                    (
                        "faults_injected",
                        Json::Int(s.persist.faults_injected as i128),
                    ),
                    ("recovered", Json::Int(s.persist.recovered as i128)),
                    ("tmp_cleaned", Json::Int(s.persist.tmp_cleaned as i128)),
                ]),
            ),
            ("metrics", self.registry.snapshot_json()),
        ])
    }
}

/// A running service. Dropping the handle shuts the service down
/// gracefully (drains admitted work, then joins every thread).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    wake: Wake,
    workers: Vec<JoinHandle<()>>,
    gossip: Option<JoinHandle<()>>,
}

/// Binds the address in `config` and starts the front end and worker
/// pool.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the
/// filesystem error if a configured state directory cannot be opened.
/// Corrupt state *records* are never an error — the recovery scan
/// quarantines them.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // Installing the global registry also switches on the engine's
    // metric hooks (gate fusion, trajectory-plan cache, queues).
    let registry = install_global();
    let persist = match &config.state_dir {
        Some(dir) => Some(Persist::open_with(
            dir.clone(),
            config.storage_faults,
            Some(registry),
        )?),
        None => None,
    };
    // The fabric learns this node's dial address from the actual bind
    // (ephemeral ports are only known now) unless one is advertised.
    let fabric = config.fabric.clone().map(|fabric_config| {
        let self_addr = fabric_config
            .advertise
            .clone()
            .unwrap_or_else(|| addr.to_string());
        Arc::new(Fabric::new(fabric_config, self_addr))
    });
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_capacity.max(1)),
        shutdown: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        served_ok: AtomicU64::new(0),
        served_error: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        bad_requests: AtomicU64::new(0),
        timeouts: AtomicU64::new(0),
        conns_open: AtomicU64::new(0),
        readable_events: AtomicU64::new(0),
        writable_stalls: AtomicU64::new(0),
        loop_iterations: AtomicU64::new(0),
        results: ShardedLru::new(RESULT_CACHE_CAPACITY, 8),
        compiles: ShardedLru::new(COMPILE_CACHE_CAPACITY, 4),
        remote: ShardedLru::new(RESULT_CACHE_CAPACITY, 8),
        fabric: fabric.clone(),
        persist,
        registry,
        config,
    });

    // The front end starts first: a failure to start it (fd limits)
    // leaves no worker blocked on a queue nobody will close.
    let (accept, wake) = spawn_front_end(listener, &shared)?;
    let workers = (0..shared.config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rasengan-serve-worker-{i}"))
                .spawn(move || {
                    let mut scratch = vec![0u8; 64 << 10];
                    while let Some(work) = shared.queue.pop() {
                        match work {
                            Work::Parsed {
                                request,
                                reply_to,
                                enqueued,
                            } => {
                                let queue_s = enqueued.elapsed().as_secs_f64();
                                reply_to(solve_reply(&shared, &request, queue_s, enqueued));
                            }
                            Work::Conn {
                                conn,
                                request,
                                enqueued,
                            } => finish_solve(&shared, conn, request, enqueued, &mut scratch),
                        }
                    }
                })
                .expect("spawn worker thread")
        })
        .collect();

    // The gossip heartbeat: one round immediately (a fresh node joins
    // the ring before its first request), then one per interval until
    // shutdown.
    let gossip = fabric.map(|fabric| {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("rasengan-serve-gossip".to_string())
            .spawn(move || {
                let interval = fabric.config().heartbeat;
                while !shared.shutdown.load(Ordering::SeqCst) {
                    fabric.tick();
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn gossip thread")
    });

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        wake,
        workers,
        gossip,
    })
}

/// Starts the driver the config selects: the reactor where the
/// platform has it and `event_loop` is set, the blocking accept thread
/// otherwise.
fn spawn_front_end(
    listener: TcpListener,
    shared: &Arc<Shared>,
) -> std::io::Result<(JoinHandle<()>, Wake)> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    if shared.config.event_loop {
        return crate::reactor::spawn(listener, Arc::clone(shared));
    }
    let addr = listener.local_addr()?;
    let shared = Arc::clone(shared);
    let thread = std::thread::Builder::new()
        .name("rasengan-serve-accept".to_string())
        .spawn(move || accept_loop(listener, &shared))?;
    // A nudge connection pops the accept thread out of `accept()`; it
    // re-checks the stop flag before reading anything.
    let wake: Wake = Box::new(move || {
        let _ = TcpStream::connect(addr);
    });
    Ok((thread, wake))
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Graceful shutdown: stop accepting, drain every admitted
    /// request, join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The reactor drains live connections before exiting; the
        // blocking accept thread exits at once, leaving admitted
        // connections to the workers.
        (self.wake)();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // No new work can arrive now; close the queue so workers exit
        // once they have drained what was already admitted.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // The gossip thread re-checks the flag each heartbeat; joining
        // waits at most one interval plus one round of (bounded)
        // gossip roundtrips.
        if let Some(gossip) = self.gossip.take() {
            let _ = gossip.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The blocking driver's accept thread. Each connection is read only
/// through its verb line here: `PING`, `STATS` and `GOSSIP` are
/// answered inline, and a `SOLVE` goes onto the queue carrying its
/// connection for a worker to finish ([`finish_solve`]).
fn accept_loop(listener: TcpListener, shared: &Shared) {
    // One read's worth of request may arrive with the verb line; the
    // parser takes it, and the worker reads whatever is left.
    let mut scratch = vec![0u8; 8 << 10];
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        crate::sys::apply_send_buffer(&stream, shared.config.send_buffer_bytes);
        let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
        let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
        shared.conns_open.fetch_add(1, Ordering::Relaxed);
        let mut conn = Conn::new(stream);
        let mut step = read_blocking(shared, &mut conn, &mut scratch, true);
        if matches!(step, Step::Wait) && conn.verb() == Some(Verb::Gossip) {
            step = read_blocking(shared, &mut conn, &mut scratch, false);
        }
        let request = match step {
            Step::Solve(request) => Some(request),
            // The verb line named `SOLVE`; its body is the worker's.
            Step::Wait => None,
            step => {
                finish(shared, conn, step);
                continue;
            }
        };
        let work = Work::Conn {
            conn,
            request,
            enqueued: Instant::now(),
        };
        if let Some((Work::Conn { conn, .. }, busy)) = shared.admit(work) {
            finish(shared, conn, Step::Reply(busy));
        }
    }
}

/// Reads a blocking connection until its request resolves, the read
/// deadline fires, or — with `until_verb` — its verb line is in
/// ([`Step::Wait`]), and applies the request rules.
fn read_blocking(shared: &Shared, conn: &mut Conn, scratch: &mut [u8], until_verb: bool) -> Step {
    match conn.handle_readable(scratch, until_verb) {
        ReadOutcome::NeedMore { .. } if until_verb && conn.verb().is_some() => Step::Wait,
        // A blocking read comes back empty-handed only when
        // `SO_RCVTIMEO` fired.
        ReadOutcome::NeedMore { .. } => conn.expire(shared),
        outcome => resolve(shared, outcome),
    }
}

/// Serves one admitted `SOLVE` connection on a worker: read the rest of
/// the request, compute the reply, write it back.
fn finish_solve(
    shared: &Shared,
    mut conn: Conn,
    request: Option<Box<SolveRequest>>,
    enqueued: Instant,
    scratch: &mut [u8],
) {
    let queue_s = enqueued.elapsed().as_secs_f64();
    let step = match request {
        Some(request) => Step::Solve(request),
        None => read_blocking(shared, &mut conn, scratch, false),
    };
    let step = match step {
        Step::Solve(request) => Step::Reply(solve_reply(shared, &request, queue_s, enqueued)),
        step => step,
    };
    finish(shared, conn, step);
}

/// Drains a blocking connection's reply, if it has one, and closes it.
fn finish(shared: &Shared, mut conn: Conn, step: Step) {
    if let Step::Reply(reply) = step {
        conn.begin_reply(&reply);
        // A blocking write stops short only when `SO_SNDTIMEO` fired;
        // the connection closes either way, so only the count matters.
        if let WriteOutcome::Blocked { .. } = conn.handle_writable() {
            conn.expire(shared);
        }
    }
    shared.conns_open.fetch_sub(1, Ordering::Relaxed);
}

/// The structured shed response, quoting the queue state that caused
/// it.
fn busy_reply(shared: &Shared) -> Reply {
    Reply::new(
        ReplyStatus::Busy,
        vec![(
            "service",
            Json::obj(vec![
                ("queue_depth", Json::Int(shared.queue.len() as i128)),
                ("queue_capacity", Json::Int(shared.queue.capacity() as i128)),
            ]),
        )],
    )
}

/// Answers a `GOSSIP` exchange: merge-and-reply on a fabric node, a
/// structured rejection on a standalone one.
pub(crate) fn gossip_reply(shared: &Shared, message: &GossipMessage) -> Reply {
    match &shared.fabric {
        Some(fabric) => fabric.handle_gossip(message),
        None => bad_request_reply("fabric not enabled on this node"),
    }
}

fn bad_request_reply(message: &str) -> Reply {
    Reply::new(
        ReplyStatus::Error,
        vec![(
            "error",
            Json::obj(vec![
                ("kind", Json::Str("bad-request".to_string())),
                ("message", Json::Str(message.to_string())),
            ]),
        )],
    )
}

/// Computes the full reply for a parsed `SOLVE` request — caches, disk
/// tier, prepare, solve, counters, metrics — without touching any
/// socket. Both drivers call this, so their `result` bytes are
/// identical by construction.
fn solve_reply(shared: &Shared, request: &SolveRequest, queue_s: f64, enqueued: Instant) -> Reply {
    let problem = match parse_as(request.format, &request.problem_text) {
        Ok(problem) => problem,
        Err(err) => {
            shared.bad_requests.fetch_add(1, Ordering::Relaxed);
            return bad_request_reply(&format!("problem ({}): {err}", request.format));
        }
    };

    let fingerprint = problem.fingerprint();
    let trace = request.trace || shared.config.trace_all;
    let key = ResultKey::new(fingerprint, request, trace);
    // Arrival accounting first: a forwarded request counts as
    // `forwards_in` no matter which tier ends up answering it.
    if let Some(fabric) = &shared.fabric {
        if request.via.is_some() {
            fabric.count_forward_in();
        }
    }
    let ok = |sections, cache_note: &str, owner: Option<&str>| {
        ok_reply(
            shared,
            sections,
            fingerprint,
            queue_s,
            enqueued,
            cache_note,
            owner,
        )
    };
    if let Some(solved) = shared.results.get(&key) {
        return ok(solved.sections(&solved.latency, queue_s, true), "hit", None);
    }

    // Fabric tiers: the local read-through copy of a previously
    // forwarded reply answers without any network, like every other
    // hit.
    if let Some(fabric) = &shared.fabric {
        if let Some(solved) = shared.remote.get(&key) {
            fabric.count_remote_hit();
            return ok(
                solved.sections(&solved.latency, queue_s, true),
                "remote-hit",
                None,
            );
        }
    }

    // Memory miss: the disk tier is next (untraced keys only: a record
    // never carries the span tree). A validated record promotes back
    // into the in-memory LRU; anything corrupt was quarantined by the
    // load and falls through to a recompute.
    let persist = shared.persist.as_ref().filter(|_| !key.trace);
    if let Some(solved) = persist.and_then(|p| p.load_solved(&key)) {
        let sections = solved.sections(&solved.latency, queue_s, true);
        shared.results.insert(key, Arc::new(solved));
        return ok(sections, "disk-hit", None);
    }

    // Fabric forwarding: every local tier missed, this node is not
    // the owner, and the request has not already hopped (`via` bounds
    // routing to one hop). A bounded number of workers may wait on
    // the network at once — at least one worker always stays free to
    // compute, so two nodes forwarding to each other can never
    // deadlock the pools. On any failure the solve falls through to a
    // local compute: it is deterministic, so the bytes are identical
    // either way, only cache placement differs.
    if let Some(fabric) = &shared.fabric {
        if request.via.is_none() {
            let owner = fabric.owner(fingerprint);
            if let Some(owner) = owner.filter(|o| !o.is_self) {
                let permit =
                    fabric.try_forward_permit(shared.config.workers.saturating_sub(1) as u64);
                if let Some(_permit) = permit {
                    let mut forwarded = request.clone();
                    forwarded.trace = trace;
                    forwarded.via = Some(fabric.node_id().to_string());
                    match fabric.forward(&owner.addr, &forwarded.render()) {
                        Ok(reply) => {
                            if let Some(solved) = Solved::from_reply(&reply) {
                                let owner_note = reply
                                    .json("service")
                                    .ok()
                                    .and_then(|s| {
                                        s.get("cache").and_then(|c| c.as_str()).map(str::to_string)
                                    })
                                    .unwrap_or_else(|| "miss".to_string());
                                // A deadline can cut the owner's solve
                                // short, so its reply is not kept for a
                                // repeat.
                                if request.deadline_ms.is_none() {
                                    shared.remote.insert(key, Arc::new(solved));
                                }
                                let sections = reply
                                    .sections
                                    .into_iter()
                                    .filter(|(name, _)| name.as_str() != "service")
                                    .collect();
                                return ok(
                                    sections,
                                    &format!("forward-{owner_note}"),
                                    Some(&owner.id),
                                );
                            }
                            if reply.status == ReplyStatus::Error {
                                // Solver errors are as deterministic as
                                // results; the owner's sections are what
                                // a local compute would produce.
                                shared.served_error.fetch_add(1, Ordering::Relaxed);
                                return reply;
                            }
                            // BUSY (the owner is shedding) or a malformed
                            // OK: compute locally.
                        }
                        Err(_) => fabric.note_unreachable(&owner.id),
                    }
                }
            }
        }
    }

    let mut config = request.config().with_trace(trace);
    if let Some(threads) = shared.config.solver_threads {
        config = config.with_threads(threads);
    }
    let solver = Rasengan::new(config);

    let (prepared, cache_note, prepare_s) = match shared.compiles.get(&fingerprint) {
        // A hit reuses the compiled segment programs directly: no
        // recompilation on the warm path.
        Some(prepared) => (prepared, "compile-hit", 0.0),
        // Compiles are memory-only: `prepare` costs less than a record
        // write, so the disk tier keeps finished solves alone.
        None => {
            let started = Instant::now();
            match solver.prepare(&problem) {
                Ok(prepared) => {
                    let prepared = Arc::new(prepared);
                    shared.compiles.insert(fingerprint, Arc::clone(&prepared));
                    (prepared, "miss", started.elapsed().as_secs_f64())
                }
                Err(err) => {
                    shared.served_error.fetch_add(1, Ordering::Relaxed);
                    return Reply::new(ReplyStatus::Error, error_sections(&err));
                }
            }
        }
    };

    match solver.solve_prepared(&problem, &prepared) {
        Ok(outcome) => {
            // Render once. The cached copy keeps the solve's own
            // latency; this reply reports the prepare time it paid.
            let solved = Solved::render(&outcome);
            let mut latency = solved.latency;
            latency.stages.prepare_s = prepare_s;
            let sections = solved.sections(&latency, queue_s, false);
            // A budget stop depends on the wall clock, not on the key:
            // a repeat could finish, so the cut-short result is never
            // kept.
            if outcome.resilience.budget_exhaustions() == 0 {
                if let Some(persist) = persist {
                    if persist.store_solved(&key, &solved).is_err() {
                        shared.registry.counter_add("persist.write_error", 1);
                    }
                }
                shared.results.insert(key, Arc::new(solved));
            }
            ok(sections, cache_note, None)
        }
        Err(err) => {
            shared.served_error.fetch_add(1, Ordering::Relaxed);
            Reply::new(ReplyStatus::Error, error_sections(&err))
        }
    }
}

/// Builds an `OK` reply: this node's `service` section in front of
/// `sections` — rendered from this node's [`Solved`], or a forwarded
/// owner's bytes verbatim (then `owner` names that node), so the
/// `result` a client reads is identical no matter which node it hit.
fn ok_reply(
    shared: &Shared,
    sections: Vec<(String, String)>,
    fingerprint: u128,
    queue_s: f64,
    enqueued: Instant,
    cache_note: &str,
    owner: Option<&str>,
) -> Reply {
    shared.served_ok.fetch_add(1, Ordering::Relaxed);
    shared.registry.counter_add("serve.requests", 1);
    shared
        .registry
        .histogram_record("serve.queue_wait_us", (queue_s * 1e6) as u64);
    shared.registry.histogram_record(
        "serve.request_us",
        enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64,
    );
    let mut service = vec![
        ("fingerprint", Json::Str(format!("{fingerprint:#034x}"))),
        ("cache", Json::Str(cache_note.to_string())),
        ("queue_wait_ms", Json::Num(queue_s * 1000.0)),
    ];
    if let Some(owner) = owner {
        service.push(("owner", Json::Str(owner.to_string())));
    }
    let mut all = vec![("service".to_string(), Json::obj(service).render())];
    all.extend(sections);
    Reply {
        status: ReplyStatus::Ok,
        sections: all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    fn tiny_problem() -> &'static str {
        include_str!("../../../examples/instances/F1.problem")
    }

    #[test]
    fn result_key_separates_trace_from_untraced() {
        let request = SolveRequest::new(tiny_problem()).with_seed(9);
        let plain = ResultKey::new(1, &request, false);
        let traced = ResultKey::new(1, &request, true);
        assert_ne!(
            plain, traced,
            "a traced solve must not be served an untraced cache entry"
        );
        // The other knobs still distinguish keys as before.
        let reseeded = ResultKey::new(1, &request.clone().with_seed(10), false);
        assert_ne!(plain, reseeded);
        assert_eq!(plain, ResultKey::new(1, &request, false));
    }

    #[test]
    fn stats_reply_carries_registry_snapshot() {
        let server = serve(ServeConfig::default().with_workers(1)).expect("bind");
        let reply = {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(b"RASENGAN/1 STATS\n").unwrap();
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let mut body = String::new();
            stream.read_to_string(&mut body).unwrap();
            Reply::parse(&body).unwrap()
        };
        assert_eq!(reply.status, ReplyStatus::Ok);
        let stats = reply.json("stats").unwrap();
        let metrics = stats.get("metrics").expect("stats include metrics");
        for group in ["counters", "gauges", "histograms"] {
            assert!(metrics.get(group).is_some(), "missing `{group}` group");
        }
        server.shutdown();
    }

    #[test]
    fn stalled_client_gets_structured_timeout_error() {
        // A tight IO deadline: connect, send only the verb line, then
        // stall. The body read must expire and answer with a structured
        // `timeout` error instead of holding the connection — on either
        // driver.
        let drivers: &[bool] = if EVENT_LOOP_SUPPORTED {
            &[true, false]
        } else {
            &[false]
        };
        for &event_loop in drivers {
            let server = serve(
                ServeConfig::default()
                    .with_event_loop(event_loop)
                    .with_workers(1)
                    .with_io_timeout(Duration::from_millis(100)),
            )
            .expect("bind");
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(b"RASENGAN/1 SOLVE\n").unwrap();
            // Do not shut down the write side: the server sees silence,
            // not EOF, until its read deadline fires.
            let mut body = String::new();
            stream.read_to_string(&mut body).unwrap();
            let reply = Reply::parse(&body).unwrap();
            assert_eq!(reply.status, ReplyStatus::Error, "{body:?}");
            let error = reply.json("error").unwrap();
            assert_eq!(
                error.get("kind").and_then(|k| k.as_str()),
                Some("timeout"),
                "event_loop={event_loop}: {body:?}"
            );
            let stats = server.stats();
            assert_eq!(stats.timeouts, 1, "event_loop={event_loop}");
            assert_eq!(stats.bad_requests, 0, "event_loop={event_loop}");
            server.shutdown();
        }
    }

    #[test]
    fn warm_state_survives_server_restart() {
        let dir =
            std::env::temp_dir().join(format!("rasengan-serve-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let request = SolveRequest::new(tiny_problem())
            .with_seed(3)
            .with_shots(128)
            .with_iterations(4);
        let submit = |addr: SocketAddr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(request.render().as_bytes()).unwrap();
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let mut body = String::new();
            stream.read_to_string(&mut body).unwrap();
            Reply::parse(&body).unwrap()
        };
        // Cold server: the solve misses everything and flushes its
        // solved record to disk (compiles are never persisted).
        let first = serve(ServeConfig::default().with_state_dir(&dir)).expect("bind");
        let cold = submit(first.addr());
        assert_eq!(cold.status, ReplyStatus::Ok);
        let cold_result = cold.section("result").unwrap().to_string();
        assert_eq!(first.stats().persist.flushes, 1);
        first.shutdown();
        // Restarted server, same state dir: the recovery scan admits
        // the record and the replayed request is served from disk,
        // byte-identical, without a solve.
        let second = serve(ServeConfig::default().with_state_dir(&dir)).expect("bind");
        assert_eq!(second.stats().persist.recovered, 1);
        let warm = submit(second.addr());
        assert_eq!(warm.status, ReplyStatus::Ok);
        assert_eq!(
            warm.json("service")
                .unwrap()
                .get("cache")
                .and_then(|c| c.as_str()),
            Some("disk-hit")
        );
        assert_eq!(warm.section("result").unwrap(), cold_result);
        let stats = second.stats();
        assert_eq!(stats.persist.disk_hits, 1);
        assert_eq!(stats.persist.quarantined, 0);
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timing_has_one_shape_on_miss_hit_and_disk_hit() {
        let dir =
            std::env::temp_dir().join(format!("rasengan-serve-timing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let request = SolveRequest::new(tiny_problem())
            .with_seed(4)
            .with_shots(64)
            .with_iterations(3);
        let config = || ServeConfig::default().with_workers(1).with_state_dir(&dir);
        let first = serve(config()).expect("bind");
        let miss = crate::client::submit(first.addr(), &request).unwrap();
        let hit = crate::client::submit(first.addr(), &request).unwrap();
        first.shutdown();
        let second = serve(config()).expect("bind");
        let disk = crate::client::submit(second.addr(), &request).unwrap();
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        for (reply, note, cache_hit) in [
            (&miss, "miss", false),
            (&hit, "hit", true),
            (&disk, "disk-hit", true),
        ] {
            assert_eq!(reply.status, ReplyStatus::Ok, "{note}");
            let service = reply.json("service").unwrap();
            assert_eq!(service.get("cache").and_then(|c| c.as_str()), Some(note));
            let Json::Obj(fields) = reply.json("timing").unwrap() else {
                panic!("{note}: timing is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "quantum_s",
                    "classical_s",
                    "prepare_s",
                    "train_s",
                    "execute_s",
                    "retry_s",
                    "queue_s",
                    "cache_hit"
                ],
                "{note}"
            );
            assert_eq!(fields[7].1, Json::Bool(cache_hit), "{note}");
            assert_eq!(reply.section("result"), miss.section("result"), "{note}");
        }
    }

    #[test]
    fn traced_requests_bypass_the_disk_tier() {
        let dir =
            std::env::temp_dir().join(format!("rasengan-serve-traced-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = serve(ServeConfig::default().with_state_dir(&dir)).expect("bind");
        let request = SolveRequest::new(tiny_problem())
            .with_shots(64)
            .with_iterations(2)
            .with_trace();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(request.render().as_bytes()).unwrap();
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        let reply = Reply::parse(&body).unwrap();
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert!(reply.section("trace").is_some());
        // The traced outcome is not persisted: its record could never
        // carry the span tree back. Compiles never reach the disk.
        let stats = server.stats();
        assert_eq!(stats.persist.flushes, 0);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_queued_solves_before_joining() {
        // One worker, several admitted requests: write the requests,
        // call shutdown *before* reading any reply, then read. Every
        // admitted connection must still receive a complete response —
        // the drain happens during shutdown, in admission order.
        let server = serve(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(8),
        )
        .expect("bind");
        let addr = server.addr();
        let request = SolveRequest::new(tiny_problem())
            .with_shots(64)
            .with_iterations(2);
        let streams: Vec<TcpStream> = (0..3)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(request.render().as_bytes()).unwrap();
                let _ = stream.shutdown(std::net::Shutdown::Write);
                stream
            })
            .collect();
        // Wait for admission: either driver finishes every connection
        // it accepted (the reactor keeps serving after shutdown starts;
        // the accept thread admits its current connection before it
        // sees the flag), so none can be lost by the shutdown below.
        while server.stats().accepted < 3 {
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
        for (i, mut stream) in streams.into_iter().enumerate() {
            let mut body = String::new();
            stream.read_to_string(&mut body).unwrap();
            let reply =
                Reply::parse(&body).unwrap_or_else(|e| panic!("stream {i}: {e}; body {body:?}"));
            assert_eq!(reply.status, ReplyStatus::Ok, "stream {i}: {body:?}");
            assert!(reply.section("result").is_some());
        }
    }
}
