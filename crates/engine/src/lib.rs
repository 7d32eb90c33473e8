//! # engine — `fpopd`, a long-lived prover engine over the fpop check session
//!
//! PR 1 made the check session a thread-safe, content-addressed proof
//! cache that any number of universes can share *within one process*.
//! This crate turns that substrate into a *service*: a resident engine
//! that owns one [`fpop::Session`] for its whole lifetime, schedules
//! elaboration requests over a fixed worker pool, and persists the proof
//! cache across restarts so that the second process start is as warm as
//! the thousandth request.
//!
//! The pieces, one module each:
//!
//! * [`queue`] — a bounded **priority job queue** (std `Mutex` +
//!   `Condvar`, no dependencies) with blocking push for backpressure and
//!   a close-then-drain shutdown protocol.
//! * [`request`] — the request/response vocabulary ([`Request`],
//!   [`Response`], [`Priority`], [`EngineError`]) plus the *stable*
//!   content hash used to deduplicate identical in-flight requests.
//! * [`engine`] — the [`Engine`] itself: worker pool, in-flight dedup,
//!   per-request deadlines and cancellation, graceful drain-on-shutdown,
//!   and warm-start/checkpoint wiring to the snapshot codec.
//! * [`snapshot`] — the persistent proof-cache snapshot: a versioned,
//!   dependency-free binary codec (magic, format version, varint-framed
//!   entries, trailing integrity hash) with a *total* decoder — corrupt
//!   or stale snapshots are rejected loudly and the engine falls back to
//!   a cold cache.
//! * [`proto`] — the line-based text protocol over the library API, and
//!   the one server entry point, [`proto::serve`]: both protocols through
//!   the nonblocking connection layer. Unix only — there is no blocking
//!   fallback, and `fpopd` exits on other platforms.
//! * [`fpopb`] — the `fpopb/1` **binary frame protocol**: varint-framed,
//!   checksum-trailed, **pipelined** (correlation ids, out-of-order
//!   completion) with pre-elaborated **template requests** served from a
//!   memoized response registry. Spec in `docs/PROTOCOL.md`.
//! * [`poll`] *(unix)* — a std-only readiness abstraction (hand-rolled
//!   epoll on Linux, poll(2) elsewhere) with a cross-thread waker.
//! * `conn` *(unix, private)* — the nonblocking event loop, the one
//!   server loop of `fpopd` and `fpoprouter`: one poller thread
//!   multiplexes every connection, sniffs the protocol by first byte,
//!   answers `Hello`/`Ping`/`Shutdown` and malformed input itself, hands
//!   every other request to a backend — the local engine or the fleet
//!   router — and batches response writes per readiness turn.
//! * [`term_parse`] — the closed-term surface grammar of the protocol's
//!   `eval` request, which evaluates terms under a registered family's
//!   signature via the session's digest-keyed compiled-code cache (the
//!   objlang bytecode VM), interpreter fallback included.
//! * [`diff`] — the `FPOPDIFF` v1 snapshot-delta codec: base-digest-pinned,
//!   varint-framed added entries, FNV-64 trailer; applying a diff to its
//!   base reproduces the full snapshot byte-for-byte.
//! * [`store`] — the shared content-addressed store directory: full
//!   `FPOPSNAP` segments plus `FPOPDIFF` chains, published at checkpoint
//!   and replayed at boot so a restarted replica catches up by delta.
//! * [`fleet`] *(unix)* — the consistent-hash router in front of N fpopd
//!   shards, a backend of the same event loop: digest-keyed routing over
//!   one pipelined `fpopb/1` upstream per live shard, shard-death
//!   detection with re-routing, and re-admission after restart.
//!
//! ## Warm restart, the headline property
//!
//! ```no_run
//! use engine::{Engine, EngineConfig, Request};
//!
//! let cfg = EngineConfig {
//!     snapshot_path: Some("/tmp/fpop.snap".into()),
//!     ..EngineConfig::default()
//! };
//! // First life: builds the 15-variant lattice cold, snapshots on shutdown.
//! let a = Engine::start(cfg.clone());
//! a.run(Request::lattice_full()).unwrap();
//! a.shutdown().unwrap();
//!
//! // Second life: loads the snapshot; the same build is 100% cache hits —
//! // zero kernel re-checks, `StatsSnapshot.misses == 0`.
//! let b = Engine::start(cfg);
//! assert!(b.warm_loaded() > 0);
//! b.run(Request::lattice_full()).unwrap();
//! assert_eq!(b.stats().misses, 0);
//! ```

#![warn(missing_docs)]

#[cfg(unix)]
mod conn;
pub mod diff;
pub mod engine;
#[cfg(unix)]
pub mod fleet;
pub mod fpopb;
#[cfg(unix)]
pub mod poll;
pub mod proto;
pub mod queue;
pub mod request;
pub mod snapshot;
pub mod store;
pub mod term_parse;

pub use diff::{apply_diff, decode_diff, encode_diff, snapshot_digest, DiffError};
pub use engine::{Engine, EngineConfig, EngineMetrics, SlowEntry, Ticket};
pub use queue::{PrioQueue, PushError};
pub use request::{EngineError, LatticeLedger, Priority, Request, Response};
pub use snapshot::{
    decode_snapshot, encode_snapshot, load_snapshot, write_snapshot, SnapshotError,
};
pub use store::SharedStore;

#[cfg(test)]
mod send_sync_asserts {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_types_are_send_sync() {
        assert_send_sync::<Engine>();
        assert_send_sync::<Ticket>();
        assert_send_sync::<Request>();
        assert_send_sync::<Response>();
        assert_send_sync::<PrioQueue<u32>>();
    }
}
