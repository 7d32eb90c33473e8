//! # trace — std-only observability substrate for the prover stack
//!
//! Every layer of the stack (the `objlang` kernel, the `fpop` elaborator,
//! the `fmltt` core theory, the `engine` service) reports into this crate;
//! nothing in this crate depends on any of them, so it sits at the very
//! bottom of the dependency graph and costs nothing to adopt.
//!
//! Three instruments, one module each:
//!
//! * [`mod@span`] — **hierarchical wall-time spans**. `span!("elaborate",
//!   "family={name}")` returns a guard; when the guard drops (including
//!   during a panic unwind) the span's duration is recorded into a global
//!   **lock-free ring-buffer collector** ([`ring`]). When no collector is
//!   installed the entire path is one relaxed atomic load; with the cargo
//!   feature `off` the macro compiles to a zero-sized no-op.
//! * [`metrics`] — **counters, gauges and log2-bucketed histograms** on
//!   plain atomics, the named [`metrics::Registry`] each check session
//!   owns, and its Prometheus-style text exposition (the payload of the
//!   engine's `Metrics` protocol request).
//! * [`chrome`] — exports collected spans as Chrome `trace_event` JSON
//!   (load the file at `chrome://tracing` or <https://ui.perfetto.dev>
//!   for a flamegraph). Written by `fpopd --trace-dump`.
//!
//! ## Example
//!
//! ```
//! // Install a collector (usually done once, in main).
//! trace::install(1024);
//!
//! {
//!     let _outer = trace::span!("build", "what=demo");
//!     let _inner = trace::span!("step");
//!     // ... work ...
//! } // both spans record on drop
//!
//! let spans = trace::drain();
//! assert!(spans.len() <= 2); // exactly 2 unless built with `off`
//! let json = trace::chrome::chrome_trace_json(&spans);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```
//!
//! ## Compile-out guarantee
//!
//! Building with `--features trace/off` replaces [`SpanGuard::enter`] with
//! an `#[inline(always)]` constructor returning `SpanGuard(None)`; the
//! optimizer removes the guard, the closure building the detail string is
//! never called, and instrumented hot paths are byte-for-byte the
//! uninstrumented ones. The `engine_throughput` bench measures the
//! *enabled* overhead (collector installed vs not); EXPERIMENTS.md records
//! the delta.

#![warn(missing_docs)]

pub mod chrome;
pub mod metrics;
pub mod ring;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use span::{
    current_depth, drain, install, installed, is_active, set_active, snapshot, SpanGuard,
    SpanRecord,
};
