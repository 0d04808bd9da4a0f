//! Multi-client solve service for the Rasengan reproduction —
//! std-only (`std::net` + threads), no async runtime.
//!
//! | Module | Role |
//! |---|---|
//! | [`protocol`] | wire format: line-oriented requests (one incremental parser), sectioned JSON responses |
//! | [`server`] | blocking driver, worker pool, admission control, graceful drain |
//! | `reactor` | epoll driver: non-blocking sockets, timer wheel, completion wakeups (Linux x86_64/aarch64) |
//! | `conn` | the per-connection read/solve/write state machine and request rules, driven by both front ends |
//! | [`sys`] | the platform shim: raw epoll/eventfd syscalls (Linux x86_64/aarch64), portable socket options |
//! | [`cache`] | sharded LRU for rendered solves and compiled artifacts |
//! | [`persist`] | crash-safe on-disk warm-state tier: versioned records, quarantine, recovery |
//! | [`client`] | blocking submit/stats/ping helpers |
//! | [`fabric`] | multi-node fabric: consistent-hash ring, single-hop forwarding, gossip membership |
//!
//! The design contract, inherited from the repo's determinism
//! discipline: a served solve is **bit-identical** to an in-process
//! [`Rasengan::solve`](rasengan_core::solver::Rasengan::solve) with
//! the same seed and knobs, at any worker count. The `result` section
//! of a response carries only deterministic output (wall-clock lives
//! in `timing`), so the guarantee is testable by comparing bytes.
//!
//! # Example
//!
//! ```no_run
//! use rasengan_problems::io::write_problem;
//! use rasengan_problems::registry::{benchmark, BenchmarkId};
//! use rasengan_serve::{serve, submit, ServeConfig, SolveRequest};
//!
//! let server = serve(ServeConfig::default()).unwrap();
//! let problem = benchmark(BenchmarkId::parse("F1").unwrap());
//! let request = SolveRequest::new(write_problem(&problem))
//!     .with_seed(7)
//!     .with_shots(256)
//!     .with_iterations(20);
//! let reply = submit(server.addr(), &request).unwrap();
//! println!("{}", reply.section("result").unwrap());
//! server.shutdown();
//! ```

#![deny(unsafe_code)]

pub mod cache;
pub mod client;
pub(crate) mod conn;
pub mod fabric;
pub mod persist;
pub mod protocol;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod reactor;
pub mod server;
#[allow(unsafe_code)]
pub mod sys;

pub use client::{
    ping, stats, submit, submit_trickled, submit_with_retry, HeldConnection, RetryPolicy,
};
pub use fabric::{key_point, Fabric, FabricConfig, FabricStats, Ring, DEFAULT_VNODES};
pub use persist::{Persist, PersistStats, StorageFault, StorageFaultPlan};
pub use protocol::{
    render_outcome, IncrementalParser, ParseProgress, Reply, ReplyStatus, RequestError,
    SolveRequest, Verb,
};
pub use server::{serve, ServeConfig, ServeStats, ServerHandle, EVENT_LOOP_SUPPORTED};
