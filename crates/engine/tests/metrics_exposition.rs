//! The `Metrics` request's Prometheus exposition must be parseable and
//! must agree, count for count, with the structured `StatsSnapshot` /
//! `EngineMetrics` the engine reports — the acceptance criterion for the
//! observability layer. Also covers the protocol-level `metrics` and
//! `slowlog` commands end-to-end over TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use engine::{proto, Engine, EngineConfig, Request, Response};
use families_stlc::Feature;

fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        snapshot_path: None,
        ..EngineConfig::default()
    }
}

/// The elaborator's per-site proof-cache lookup counters.
const PROVENANCE: [&str; 8] = [
    "fpop_cache_theorem_hits_total",
    "fpop_cache_theorem_misses_total",
    "fpop_cache_reprove_hits_total",
    "fpop_cache_reprove_misses_total",
    "fpop_cache_induction_hits_total",
    "fpop_cache_induction_misses_total",
    "fpop_cache_data_induction_hits_total",
    "fpop_cache_data_induction_misses_total",
];

/// Extracts the value of a plain `name value` sample line.
fn sample(text: &str, name: &str) -> u64 {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(v) = rest.strip_prefix(' ') {
                return v.trim().parse().unwrap_or_else(|e| {
                    panic!("sample {name}: bad value {v:?}: {e}");
                });
            }
        }
    }
    panic!("sample {name} not found in exposition:\n{text}");
}

/// Extracts every `name_bucket{{le="..."}} value` pair, in order.
fn buckets(text: &str, name: &str) -> Vec<(String, u64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le, rest) = rest.split_once("\"}")?;
            Some((le.to_string(), rest.trim().parse().ok()?))
        })
        .collect()
}

#[test]
fn exposition_agrees_with_stats_snapshot() {
    let e = Engine::start(config(2));
    // Real work first, so the cache counters are non-trivial.
    let r = e.run(Request::BuildLattice {
        features: vec![Feature::Fix],
    });
    assert!(r.is_ok(), "lattice build failed: {r:?}");

    let text = match e.run(Request::Metrics) {
        Ok(Response::Metrics { text }) => text,
        other => panic!("expected Metrics response, got {other:?}"),
    };

    // Structure: HELP/TYPE headers present, no blank-value lines.
    assert!(text.contains("# HELP engine_submitted_total"));
    assert!(text.contains("# TYPE engine_service_micros histogram"));

    // Session cache counters agree count-for-count with the snapshot
    // (the Metrics request itself never touches the cache).
    let s = e.stats();
    assert_eq!(sample(&text, "fpop_session_cache_hits_total"), s.hits);
    assert_eq!(sample(&text, "fpop_session_cache_misses_total"), s.misses);
    assert_eq!(sample(&text, "fpop_session_cache_inserts_total"), s.inserts);
    assert_eq!(sample(&text, "fpop_session_cached_proofs"), s.cached_proofs);

    // Compiled-code cache counters agree with the session's own stats
    // (lattice families carry concrete recursions, so defining them
    // exercised the VM compiler through the warm-up hook).
    let code = e.session().code_cache().stats();
    assert_eq!(
        sample(&text, "fpop_session_code_cache_hits_total"),
        code.hits
    );
    assert_eq!(
        sample(&text, "fpop_session_code_cache_misses_total"),
        code.misses
    );
    assert_eq!(
        sample(&text, "fpop_session_code_compiled_total"),
        code.compiled
    );
    assert_eq!(
        sample(&text, "fpop_session_code_rejected_total"),
        code.rejected
    );
    // The session's code cache also carries the VM's execution counter
    // (its compile count is `fpop_session_code_compiled_total` above).
    assert!(text.contains("# TYPE objlang_vm_exec_total counter"));

    // Scheduling counters: only the lattice had completed when the
    // exposition was rendered (the Metrics request renders *during* its
    // own execution; its own `submitted` bump lands after the queue push,
    // so the render may or may not see it).
    let submitted = sample(&text, "engine_submitted_total");
    assert!((1..=2).contains(&submitted), "submitted: {submitted}");
    assert_eq!(sample(&text, "engine_completed_total"), 1);
    assert_eq!(sample(&text, "engine_failed_total"), 0);
    assert_eq!(sample(&text, "engine_queue_capacity"), 64);

    // Service-time histogram: one observation (the lattice), cumulative
    // buckets non-decreasing, +Inf bucket equals the count.
    assert_eq!(sample(&text, "engine_service_micros_count"), 1);
    let bs = buckets(&text, "engine_service_micros");
    assert!(!bs.is_empty(), "histogram has bucket samples");
    assert!(
        bs.windows(2).all(|w| w[0].1 <= w[1].1),
        "cumulative buckets must be non-decreasing: {bs:?}"
    );
    let (last_le, last_v) = bs.last().unwrap();
    assert_eq!(last_le, "+Inf");
    assert_eq!(*last_v, sample(&text, "engine_service_micros_count"));
    // Wait histogram saw both dequeues by render time.
    assert_eq!(sample(&text, "engine_wait_micros_count"), 2);

    // The elaborator's provenance counters tie back to the session
    // totals: every session-level lookup happened at exactly one
    // provenance site, and both live in this engine's registry.
    let prov_total: u64 = PROVENANCE.iter().map(|n| sample(&text, n)).sum();
    assert_eq!(
        prov_total,
        s.hits + s.misses,
        "provenance counters must sum to the session's lookups ({} + {})",
        s.hits,
        s.misses
    );

    // The facade accessor renders the same surface.
    let direct = e.prometheus();
    assert_eq!(
        sample(&direct, "fpop_session_cache_hits_total"),
        s.hits,
        "Engine::prometheus agrees with the protocol payload"
    );
    e.shutdown().unwrap();
}

/// Two engines in one process keep disjoint counts: each engine's
/// exposition reads 0 for work only the other did.
#[test]
fn engines_in_one_process_report_only_their_own_work() {
    let a = Engine::start(config(1));
    let b = Engine::start(config(1));
    a.run(Request::BuildLattice {
        features: vec![Feature::Fix],
    })
    .expect("lattice builds");
    // A family with a recursion and no theorems: defining it proves
    // nothing, and evaluating in it runs the VM.
    let src = "Family NatAdd.\n  FRecursion add on nat params (m : nat) returns nat :=\n    \
               Case zero := m.\n    Case succ(n) := succ(add(n, m)).\n  End add.\nEnd NatAdd.\n";
    b.run(Request::CheckSource { source: src.into() })
        .expect("family checks");
    b.run(Request::Eval {
        family: "NatAdd".into(),
        term: "add(2, 3)".into(),
    })
    .expect("term evaluates");

    let (text_a, text_b) = (a.prometheus(), b.prometheus());
    let provenance = |text: &str| PROVENANCE.iter().map(|n| sample(text, n)).sum::<u64>();
    // A's proof work stays out of B …
    assert!(sample(&text_a, "fpop_session_cache_misses_total") > 0);
    assert!(provenance(&text_a) > 0);
    assert_eq!(sample(&text_b, "fpop_session_cache_misses_total"), 0);
    assert_eq!(provenance(&text_b), 0);
    // … and B's VM run stays out of A.
    assert!(sample(&text_b, "objlang_vm_exec_total") > 0);
    assert_eq!(sample(&text_a, "objlang_vm_exec_total"), 0);
    // Each engine counts its own requests only.
    assert_eq!(sample(&text_a, "engine_completed_total"), 1);
    assert_eq!(sample(&text_b, "engine_completed_total"), 2);
    a.shutdown().unwrap();
    b.shutdown().unwrap();
}

/// The resident-state gauges: one full `BuildLattice` leaves one lattice
/// plan resident and registers its 16 variants; rebuilding replaces the
/// plan and keeps the same names registered.
#[test]
fn resident_plans_and_registered_families_are_gauged() {
    let e = Engine::start(config(1));
    let text = e.prometheus();
    assert_eq!(sample(&text, "engine_resident_plans"), 0);
    assert_eq!(sample(&text, "engine_registered_families"), 0);
    for _ in 0..2 {
        e.run(Request::lattice_full()).expect("lattice builds");
        let text = e.prometheus();
        assert!(text.contains("# TYPE engine_resident_plans gauge"));
        assert_eq!(sample(&text, "engine_resident_plans"), 1);
        assert_eq!(sample(&text, "engine_registered_families"), 16);
    }
    e.shutdown().unwrap();
}

#[test]
fn metrics_and_slowlog_over_the_wire() {
    let e = Arc::new(Engine::start(EngineConfig {
        workers: 1,
        snapshot_path: None,
        slow_threshold: Duration::ZERO, // log everything
        slow_log_capacity: 4,
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let e = Arc::clone(&e);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || proto::serve(e, listener, stop))
    };

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut send = |line: &str| -> String {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };

    assert_eq!(send("ping"), "ok pong");
    let lattice = send("lattice Fix");
    assert!(lattice.starts_with("ok "), "got: {lattice}");

    let metrics = send("metrics");
    assert!(metrics.starts_with("ok "), "got: {metrics}");
    let text = proto::unescape(&metrics[3..]).unwrap();
    assert!(text.contains("# TYPE engine_queue_depth gauge"));
    assert!(text.contains("engine_submitted_total"));
    assert_eq!(sample(&text, "engine_queue_capacity"), 64);

    let slow = send("slowlog");
    assert!(slow.starts_with("ok "), "got: {slow}");
    let slow_text = proto::unescape(&slow[3..]).unwrap();
    assert!(
        slow_text.contains("lattice[fix]") || slow_text.contains("lattice[Fix]"),
        "slow log names the lattice request: {slow_text}"
    );

    assert_eq!(send("shutdown"), "ok shutting down");
    server.join().unwrap().unwrap();
    e.shutdown().unwrap();
}
