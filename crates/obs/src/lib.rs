//! Observability for the Rasengan reproduction — std only, no deps.
//!
//! Three pieces, deliberately small:
//!
//! * [`json`] — the canonical JSON tree/writer/parser (moved here from
//!   `rasengan-serve` so both the wire protocol and the trace exporter
//!   share one byte-stable serializer).
//! * [`span`] — hierarchical spans with *deterministic* IDs. A span's
//!   ID is derived from its parent's ID, its call-site label, and its
//!   ordinal among siblings via the SplitMix64 finalizer, so the span
//!   tree of a fixed-seed solve is byte-identical at any
//!   `RASENGAN_THREADS`. Wall-clock durations are carried alongside
//!   but excluded from the deterministic rendering.
//! * [`metrics`] — a lock-sharded registry of counters, gauges, and
//!   log-bucketed mergeable histograms, with a deterministic JSON
//!   snapshot. A process-global registry can be installed once
//!   (`metrics::install_global`) for engine-level hooks; when it is
//!   not installed the hooks cost one relaxed atomic load.
//!
//! The tracer is a no-op when disabled: [`span::Tracer::off`] records
//! stage boundaries (a handful of `Instant` reads per solve, exactly
//! what the old ad-hoc `StageTimes` plumbing cost) and builds nothing.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod span;

pub use json::Json;
pub use metrics::{Histogram, Registry};
pub use span::{fnv64, span_id, splitmix64, Fnv64, Span, SpanToken, TraceTree, Tracer};
