//! `fpopd` — the resident fpop prover engine, serving both wire
//! protocols (newline-delimited text and pipelined `fpopb/1` binary
//! frames, sniffed by the first byte — see `docs/PROTOCOL.md`) on one
//! TCP socket.
//!
//! ```text
//! fpopd [--addr HOST:PORT] [--workers N] [--sched-workers N] [--queue N]
//!       [--snapshot PATH] [--store DIR] [--compact-chain N]
//!       [--deadline-ms N] [--slow-ms N] [--slow-top N] [--trace-dump PATH]
//! ```
//!
//! Defaults: `--addr 127.0.0.1:7878`, workers = min(cores, 4), queue 64,
//! no snapshot (pass `--snapshot` to enable warm restarts), no shared
//! store (pass `--store DIR` to join a fleet's content-addressed proof
//! store — catch up from it at boot, publish into it at checkpoint), no
//! deadline, slow log at 500 ms / top 8, no trace dump. `--compact-chain`
//! (default 8) bounds the store's diff chains: past that many deltas the
//! next checkpoint republishes a compacted full segment. `--sched-workers`
//! sets the task-DAG scheduler threads *inside* each `BuildLattice`
//! request (0 = auto: all cores, or the `FPOP_SCHED_WORKERS` environment
//! variable). Passing port 0 binds an ephemeral port; the actual bound
//! address is reported on the `fpopd: listening on` stderr line.
//!
//! `--trace-dump PATH` installs the global span collector at startup and,
//! at shutdown, writes every collected span as Chrome `trace_event` JSON
//! to `PATH` — load it at `chrome://tracing` or <https://ui.perfetto.dev>
//! for a flamegraph of everything the engine elaborated. `--slow-ms` /
//! `--slow-top` tune the slow-elaboration log served by the protocol's
//! `slowlog` command. See `docs/OBSERVABILITY.md` for the operator story.
//!
//! Try it:
//!
//! ```text
//! $ fpopd --snapshot /tmp/fpop.snap --trace-dump /tmp/fpop-trace.json &
//! $ printf 'lattice full\nmetrics\nslowlog\nshutdown\n' | nc 127.0.0.1 7878
//! ```

// Only `main` differs off unix; the helpers it would use go unused there.
#![cfg_attr(not(unix), allow(dead_code, unused_imports))]

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use engine::{proto, Engine, EngineConfig};

struct Args {
    addr: String,
    config: EngineConfig,
    /// Where to write the Chrome trace at shutdown; `None` = tracing off.
    trace_dump: Option<PathBuf>,
}

fn usage() -> String {
    "usage: fpopd [--addr HOST:PORT] [--workers N] [--sched-workers N] \
     [--queue N] [--snapshot PATH] [--store DIR] [--compact-chain N] \
     [--deadline-ms N] [--slow-ms N] [--slow-top N] [--trace-dump PATH]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        config: EngineConfig::default(),
        trace_dump: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--sched-workers" => {
                args.config.sched_workers = value("--sched-workers")?
                    .parse()
                    .map_err(|e| format!("--sched-workers: {e}"))?
            }
            "--queue" => {
                args.config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--snapshot" => args.config.snapshot_path = Some(value("--snapshot")?.into()),
            "--store" => args.config.shared_store = Some(value("--store")?.into()),
            "--compact-chain" => {
                args.config.compact_chain_at = value("--compact-chain")?
                    .parse()
                    .map_err(|e| format!("--compact-chain: {e}"))?
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                args.config.default_deadline = Some(Duration::from_millis(ms));
            }
            "--slow-ms" => {
                let ms: u64 = value("--slow-ms")?
                    .parse()
                    .map_err(|e| format!("--slow-ms: {e}"))?;
                args.config.slow_threshold = Duration::from_millis(ms);
            }
            "--slow-top" => {
                args.config.slow_log_capacity = value("--slow-top")?
                    .parse()
                    .map_err(|e| format!("--slow-top: {e}"))?
            }
            "--trace-dump" => args.trace_dump = Some(value("--trace-dump")?.into()),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Span-collector capacity when `--trace-dump` is active: enough for a
/// full extended-lattice build (31 variants × a few hundred spans each)
/// with headroom; the ring overwrites the oldest beyond that.
const TRACE_CAPACITY: usize = 65_536;

#[cfg(not(unix))]
fn main() -> ExitCode {
    eprintln!("fpopd: the prover daemon requires a unix platform");
    ExitCode::FAILURE
}

#[cfg(unix)]
fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if args.trace_dump.is_some() {
        trace::install(TRACE_CAPACITY);
    }

    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fpopd: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };

    let engine = Arc::new(Engine::start(args.config.clone()));
    match (engine.warm_loaded(), engine.load_error()) {
        (n, None) if n > 0 => eprintln!("fpopd: warm start — {n} proofs loaded from snapshot"),
        (_, Some(e)) => eprintln!("fpopd: cold start — snapshot rejected: {e}"),
        _ => eprintln!("fpopd: cold start — empty proof cache"),
    }
    // Report the *bound* address: with `--addr 127.0.0.1:0` the kernel
    // picks the port, and callers (tests, fleet scripts) parse this line.
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.addr.clone());
    eprintln!(
        "fpopd: listening on {} ({} workers, queue {})",
        bound, args.config.workers, args.config.queue_capacity
    );

    let stop = Arc::new(AtomicBool::new(false));
    if let Err(e) = proto::serve(Arc::clone(&engine), listener, Arc::clone(&stop)) {
        eprintln!("fpopd: listener error: {e}");
    }

    let mut code = ExitCode::SUCCESS;
    match engine.shutdown() {
        Ok(Some(bytes)) => eprintln!("fpopd: drained; snapshot written ({bytes} bytes)"),
        Ok(None) => eprintln!("fpopd: drained; no snapshot configured"),
        Err(e) => {
            eprintln!("fpopd: snapshot write failed: {e}");
            code = ExitCode::FAILURE;
        }
    }

    // Dump spans last: shutdown drains the workers, so the trace covers
    // every request the engine ever executed (bounded by the ring).
    if let Some(path) = &args.trace_dump {
        let spans = trace::drain();
        let json = trace::chrome::chrome_trace_json(&spans);
        match std::fs::write(path, json) {
            Ok(()) => eprintln!(
                "fpopd: trace written ({} spans) to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("fpopd: trace write failed: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}
