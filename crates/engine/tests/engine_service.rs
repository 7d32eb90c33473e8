//! Scheduling-behavior tests for the engine: dedup, backpressure,
//! deadlines, cancellation, drain-on-shutdown, and the TCP line protocol
//! end-to-end.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use engine::{proto, Engine, EngineConfig, EngineError, Priority, Request, Response};
use families_stlc::Feature;

const PEANO: &str = include_str!("../../../examples/peano.fpop");

fn no_snapshot(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        snapshot_path: None,
        ..EngineConfig::default()
    }
}

#[test]
fn check_source_runs_and_reports_ledger() {
    let e = Engine::start(no_snapshot(2));
    match e.run(Request::CheckSource {
        source: PEANO.to_string(),
    }) {
        Ok(Response::Checked { outputs, ledger }) => {
            assert_eq!(outputs.len(), 2, "peano.fpop has two Check commands");
            assert!(outputs[0].contains("flip_two"));
            assert!(ledger.checked_count() > 0);
        }
        other => panic!("unexpected {other:?}"),
    }
    // The theorems the program proved are now queryable.
    match e.run(Request::QueryTheorem {
        family: "PeanoMul".into(),
        field: "flip_two".into(),
    }) {
        Ok(Response::Theorem { statement, .. }) => assert!(statement.contains("flip_two")),
        other => panic!("unexpected {other:?}"),
    }
    e.shutdown().unwrap();
}

#[test]
fn failed_elaboration_is_an_error_not_a_panic() {
    let e = Engine::start(no_snapshot(1));
    let r = e.run(Request::CheckSource {
        source: "Family Broken. FTheorem nope : True. Proof. fdiscriminate H. Qed. End Broken."
            .into(),
    });
    match r {
        Err(EngineError::Failed(msg)) => assert!(!msg.is_empty()),
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(e.metrics().failed, 1);
    e.shutdown().unwrap();
}

#[test]
fn unknown_theorem_query_fails_cleanly() {
    let e = Engine::start(no_snapshot(1));
    let r = e.run(Request::QueryTheorem {
        family: "Nowhere".into(),
        field: "nothing".into(),
    });
    match r {
        Err(EngineError::Failed(msg)) => assert!(msg.contains("Nowhere.nothing")),
        other => panic!("expected Failed, got {other:?}"),
    }
    e.shutdown().unwrap();
}

#[test]
fn identical_inflight_requests_coalesce() {
    // One worker; the first lattice occupies it long enough that the next
    // two identical submissions (microseconds later) find the job
    // in-flight and ride the same ticket.
    let e = Engine::start(no_snapshot(1));
    let t1 = e.submit(Request::lattice_full()).unwrap();
    let t2 = e.submit(Request::lattice_full()).unwrap();
    let t3 = e.submit(Request::lattice_full()).unwrap();
    assert!(t1.wait().is_ok());
    assert!(t2.wait().is_ok());
    assert!(t3.wait().is_ok());
    let m = e.metrics();
    assert!(
        m.dedup_hits >= 1,
        "identical in-flight submissions must coalesce (dedup_hits={})",
        m.dedup_hits
    );
    assert!(
        m.submitted < 3,
        "coalesced submissions never hit the queue (submitted={})",
        m.submitted
    );
    e.shutdown().unwrap();
}

#[test]
fn full_queue_applies_backpressure() {
    // Single worker, capacity-1 queue, zero submit patience: distinct
    // lattice requests (distinct dedup keys) pile up and get rejected.
    let e = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 1,
        submit_timeout: Duration::ZERO,
        ..EngineConfig::default()
    });
    let subsets: Vec<Vec<Feature>> = vec![
        vec![Feature::Fix],
        vec![Feature::Prod],
        vec![Feature::Sum],
        vec![Feature::Isorec],
        vec![Feature::Fix, Feature::Prod],
        vec![Feature::Fix, Feature::Sum],
    ];
    let mut rejected = 0;
    let mut tickets = Vec::new();
    for features in subsets {
        match e.submit(Request::BuildLattice { features }) {
            Ok(t) => tickets.push(t),
            Err(EngineError::Rejected) => rejected += 1,
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    assert!(rejected >= 1, "capacity-1 queue must shed load");
    assert_eq!(e.metrics().rejected, rejected);
    for t in tickets {
        assert!(t.wait().is_ok(), "accepted work still completes");
    }
    e.shutdown().unwrap();
}

#[test]
fn expired_deadline_is_reported() {
    let e = Engine::start(no_snapshot(1));
    // Occupy the single worker…
    let blocker = e.submit(Request::lattice_full()).unwrap();
    // …then submit with an already-elapsed deadline.
    let doomed = e
        .submit_with(
            Request::CheckSource {
                source: PEANO.to_string(),
            },
            Priority::Normal,
            Some(Duration::ZERO),
        )
        .unwrap();
    assert!(matches!(doomed.wait(), Err(EngineError::DeadlineExpired)));
    assert!(blocker.wait().is_ok());
    assert_eq!(e.metrics().expired, 1);
    e.shutdown().unwrap();
}

#[test]
fn cancelled_ticket_never_executes() {
    let e = Engine::start(no_snapshot(1));
    let blocker = e.submit(Request::lattice_full()).unwrap();
    let victim = e
        .submit(Request::CheckSource {
            source: PEANO.to_string(),
        })
        .unwrap();
    victim.cancel();
    assert!(matches!(victim.wait(), Err(EngineError::Cancelled)));
    assert!(blocker.wait().is_ok());
    assert_eq!(e.metrics().cancelled, 1);
    e.shutdown().unwrap();
}

#[test]
fn shutdown_drains_accepted_work_and_rejects_new() {
    let e = Engine::start(no_snapshot(2));
    let tickets: Vec<_> = [Feature::Fix, Feature::Prod, Feature::Sum]
        .into_iter()
        .map(|f| {
            e.submit(Request::BuildLattice { features: vec![f] })
                .unwrap()
        })
        .collect();
    e.shutdown().unwrap();
    // Every accepted job finished during the drain.
    for t in &tickets {
        assert!(t.is_done(), "drained jobs complete before shutdown returns");
        assert!(t.wait().is_ok());
    }
    // New work is refused.
    assert_eq!(
        e.submit(Request::Stats).map(|_| ()),
        Err(EngineError::ShuttingDown)
    );
    // Idempotent.
    assert_eq!(e.shutdown().unwrap(), None);
}

#[test]
fn redefine_recheck_serves_clean_variants_from_memo() {
    let e = Engine::start(no_snapshot(2));
    // Warm build records elaboration memos in the shared session.
    let rows = match e.run(Request::lattice_full()) {
        Ok(Response::Lattice { report, .. }) => report.rows.len(),
        other => panic!("unexpected {other:?}"),
    };
    let incr = |kind: &str| {
        e.session()
            .registry()
            .counter_value(&format!("fpop_incr_{kind}_total"))
            .expect("every session registers the incr counters")
    };
    let cutoff_before = incr("cutoff");
    let dirty_before = incr("dirty");
    match e.run(Request::Redefine {
        family: "STLCFix".into(),
        field: "step_fix_inv".into(),
        features: Feature::all().to_vec(),
    }) {
        Ok(Response::Lattice { report, ledger }) => {
            assert_eq!(report.rows.len(), rows, "recheck reports the whole lattice");
            assert!(ledger.checked_count() > 0);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        incr("dirty") - dirty_before,
        1,
        "only the touched family re-elaborates"
    );
    assert!(
        incr("cutoff") - cutoff_before > 0,
        "downstream variants early-cut when the touched output is unchanged"
    );
    // The rechecked theorems stay queryable.
    match e.run(Request::QueryTheorem {
        family: "STLCFix".into(),
        field: "step_fix_inv".into(),
    }) {
        Ok(Response::Theorem { statement, .. }) => assert!(!statement.is_empty()),
        other => panic!("unexpected {other:?}"),
    }
    // Unknown field is a request failure, not a panic.
    match e.run(Request::Redefine {
        family: "STLCFix".into(),
        field: "no_such_field".into(),
        features: Feature::all().to_vec(),
    }) {
        Err(EngineError::Failed(msg)) => assert!(msg.contains("no_such_field"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    e.shutdown().unwrap();
}

#[test]
fn stats_request_reports_session_and_engine() {
    let e = Engine::start(no_snapshot(2));
    e.run(Request::BuildLattice {
        features: vec![Feature::Fix],
    })
    .unwrap();
    match e.run(Request::Stats) {
        Ok(Response::Stats { session, engine }) => {
            assert!(session.cached_proofs > 0);
            assert!(engine.completed >= 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    e.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// TCP line protocol, end to end on an ephemeral port.
// ---------------------------------------------------------------------------

fn send(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(conn, "{line}").unwrap();
    conn.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

#[test]
fn tcp_protocol_end_to_end() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::start(no_snapshot(2)));
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || proto::serve(engine, listener, stop))
    };

    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    assert_eq!(send(&mut conn, &mut reader, "ping"), "ok pong");

    let check_line = format!("check {}", proto::escape(PEANO));
    let reply = send(&mut conn, &mut reader, &check_line);
    assert!(reply.starts_with("ok "), "got: {reply}");
    assert!(reply.contains("flip_two"));

    let reply = send(&mut conn, &mut reader, "high lattice Fix,Prod");
    assert!(reply.starts_with("ok "), "got: {reply}");
    assert!(reply.contains("STLCFixProd"));

    let reply = send(&mut conn, &mut reader, "theorem STLCFixProd typesafe");
    assert!(reply.starts_with("ok "), "got: {reply}");

    let reply = send(&mut conn, &mut reader, "stats");
    assert!(reply.starts_with("ok "), "got: {reply}");
    assert!(reply.contains("session: hits="));

    let reply = send(&mut conn, &mut reader, "nonsense");
    assert!(reply.starts_with("err "), "got: {reply}");

    // `checkpoint` without a configured path is a clean error.
    let reply = send(&mut conn, &mut reader, "checkpoint");
    assert!(reply.starts_with("err "), "got: {reply}");

    assert_eq!(send(&mut conn, &mut reader, "shutdown"), "ok shutting down");
    server.join().unwrap().unwrap();
    engine.shutdown().unwrap();
}

/// A store-only shard — `--store` but no `--snapshot`, the fleet's usual
/// configuration — answers `checkpoint` with `ok`: the publish into the
/// shared store *did* happen, and the router counts an `err` reply as a
/// failed shard checkpoint.
#[test]
fn checkpoint_on_a_store_only_shard_is_ok_not_err() {
    let dir = std::env::temp_dir().join(format!("fpop-store-only-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 1,
        snapshot_path: None,
        shared_store: Some(dir.clone()),
        ..EngineConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || proto::serve(engine, listener, stop))
    };

    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    let check_line = format!("check {}", proto::escape(PEANO));
    let reply = send(&mut conn, &mut reader, &check_line);
    assert!(reply.starts_with("ok "), "got: {reply}");

    let reply = send(&mut conn, &mut reader, "checkpoint");
    assert!(
        reply.starts_with("ok checkpoint published to shared store"),
        "got: {reply}"
    );
    let published = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .count();
    assert_eq!(published, 1, "one full base segment after first checkpoint");

    assert_eq!(send(&mut conn, &mut reader, "shutdown"), "ok shutting down");
    server.join().unwrap().unwrap();
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_serves_terms_from_the_session_code_cache() {
    let e = Engine::start(no_snapshot(2));

    // No family registered yet: eval fails cleanly.
    let early = e.run(Request::Eval {
        family: "NatAdd".into(),
        term: "add(1,2)".into(),
    });
    match early {
        Err(EngineError::Failed(msg)) => assert!(msg.contains("no family"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }

    // Defining the family warms the session's compiled-code cache
    // (`add`'s whole call graph is concrete, hence compilable).
    let src = r#"
Family NatAdd.
  FRecursion add on nat params (m : nat) returns nat :=
    Case zero := m.
    Case succ(n) := succ(add(n, m)).
  End add.
End NatAdd.
"#;
    e.run(Request::CheckSource { source: src.into() }).unwrap();
    let warmed = e.session().code_cache().stats();
    assert!(warmed.compiled >= 1, "{warmed:?}");

    match e.run(Request::Eval {
        family: "NatAdd".into(),
        term: "add(succ(zero), 2)".into(),
    }) {
        Ok(Response::Eval {
            family,
            value,
            fuel_used,
        }) => {
            assert_eq!(family, "NatAdd");
            assert_eq!(value, "3", "nat results render as decimals");
            assert!(fuel_used > 0, "eval charges fuel like the interpreter");
        }
        other => panic!("unexpected {other:?}"),
    }
    let after = e.session().code_cache().stats();
    assert!(
        after.hits > warmed.hits,
        "eval hit the compiled cache: {after:?}"
    );

    // A malformed term is a request failure, not a panic.
    match e.run(Request::Eval {
        family: "NatAdd".into(),
        term: "add(1".into(),
    }) {
        Err(EngineError::Failed(msg)) => assert!(msg.contains("parse error"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    e.shutdown().unwrap();
}
