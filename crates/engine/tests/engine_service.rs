//! Scheduling-behavior tests for the engine: dedup, backpressure,
//! deadlines, cancellation, drain-on-shutdown, and the TCP line protocol
//! end-to-end.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use engine::{proto, Engine, EngineConfig, EngineError, Priority, Request, Response};
use families_stlc::{Feature, LatticeReport};
use modsys::CheckLedger;

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

/// Every theorem statement a cold Venn build registers, as the engine
/// serves it and as `FamilyUniverse::check` renders it: a digest of the
/// sorted `(family, field, statement)` list, plus a few statements
/// verbatim.
#[test]
fn venn_theorem_statements_are_pinned() {
    let e = Engine::start(no_snapshot(1));
    let families = match e.run(Request::lattice_full()) {
        Ok(Response::Lattice { ledger, .. }) => ledger.families().to_vec(),
        other => panic!("unexpected {other:?}"),
    };
    let mut u = fpop::universe::FamilyUniverse::new();
    let plan = families_stlc::lattice::Plan::new(&Feature::all()).unwrap();
    families_stlc::lattice::build(&mut u, &plan, 1).unwrap();
    let mut rows = Vec::new();
    for fam in &families {
        for field in fam.theorems.keys() {
            let (family, field) = (fam.name.as_str().to_string(), field.as_str().to_string());
            let statement = match e.run(Request::QueryTheorem {
                family: family.clone(),
                field: field.clone(),
            }) {
                Ok(Response::Theorem { statement, .. }) => statement,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(u.check(&family, &field).unwrap(), statement);
            rows.push((family, field, statement));
        }
    }
    e.shutdown().unwrap();
    rows.sort();
    assert_eq!(rows.len(), 352, "theorem fields of the 16 Venn families");
    let statement = |family: &str, field: &str| {
        rows.iter()
            .find(|(f, n, _)| f == family && n == field)
            .map(|(_, _, s)| s.as_str())
            .unwrap()
    };
    assert_eq!(
        statement("STLC", "step_unit_inv"),
        "STLC.step_unit_inv : forall (t' : tm), (STLC.step STLC.tm_unit t') -> False"
    );
    assert_eq!(
        statement("STLCFix", "step_fix_inv"),
        "STLCFix.step_fix_inv : forall (x : id), forall (b : tm), forall (t' : tm), \
         (STLCFix.step (STLCFix.tm_fix x b) t') -> t' = (STLCFix.subst b x (STLCFix.tm_fix x b))"
    );
    assert_eq!(
        statement("STLCFixProdSumIsorec", "typesafe"),
        "STLCFixProdSumIsorec.typesafe : forall (ta : tm), forall (tb : tm), \
         (STLCFixProdSumIsorec.steps ta tb) -> forall (T : ty), \
         (STLCFixProdSumIsorec.hasty STLCFixProdSumIsorec.empty ta T) -> \
         ((STLCFixProdSumIsorec.value tb) \\/ exists (t'' : tm), \
         (STLCFixProdSumIsorec.step tb t''))"
    );
    // FNV-1a over the sorted rows, one `family\tfield\tstatement\n` each.
    let digest = rows.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, (f, n, s)| {
        format!("{f}\t{n}\t{s}\n")
            .bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    });
    assert_eq!(
        digest, 0xa9cd_d79c_287d_823f,
        "rendered theorem statements changed"
    );
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

/// The last line of a rendered lattice reply: the totals of every
/// variant's ledger, as the wire carries them.
fn totals_line(resp: &Response) -> String {
    let rendered = proto::render_response(resp);
    rendered.lines().last().unwrap_or_default().to_string()
}

/// The wire totals of a cold full lattice build, and of a `Redefine
/// STLC.typesafe` on it, which re-proves the base under a warm proof
/// cache and serves the other 15 variants from the memo.
#[test]
fn lattice_replies_render_their_ledger_totals() {
    let e = Engine::start(no_snapshot(1));
    let built = e.run(Request::lattice_full()).unwrap();
    assert_eq!(
        totals_line(&built),
        "[variants 16 | checked 405 | shared 747 | cache hit ratio 68.1%]"
    );
    let redefined = e
        .run(Request::Redefine {
            family: "STLC".into(),
            field: "typesafe".into(),
            features: Feature::all().to_vec(),
        })
        .unwrap();
    assert_eq!(
        totals_line(&redefined),
        "[variants 16 | checked 377 | shared 775 | cache hit ratio 71.2%]"
    );
    e.shutdown().unwrap();
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

/// A client that shuts its write side right after its lines (`printf … |
/// nc`) still gets every reply, in order, and then the server closes the
/// connection instead of watching it spin.
#[test]
fn half_closed_text_client_gets_every_reply() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::start(no_snapshot(2)));
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
        std::thread::spawn(move || proto::serve(engine, listener, stop))
    };

    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(format!("check {}\nping\n", proto::escape(PEANO)).as_bytes())
        .unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = String::new();
    std::io::Read::read_to_string(&mut conn, &mut replies).unwrap();
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), 2, "got: {replies:?}");
    assert!(lines[0].contains("flip_two"), "got: {replies:?}");
    assert_eq!(lines[1], "ok pong");

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    server.join().unwrap().unwrap();
    let reg = engine.session().registry();
    assert_eq!(
        reg.counter_value("engine_conn_accepted_total"),
        reg.counter_value("engine_conn_closed_total")
    );
    engine.shutdown().unwrap();
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

// ---------------------------------------------------------------------------
// The resident lattice plan and the family registry.
// ---------------------------------------------------------------------------

/// A term every lattice variant evaluates (`subst` is a base field).
const SUBST_TERM: &str = r#"subst(tm_var("x"), "x", tm_unit)"#;

/// The value of a gauge in the engine's exposition.
fn gauge(e: &Engine, name: &str) -> i64 {
    e.prometheus()
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample for {name}"))
}

/// Runs a `Redefine`; returns its reply and the `(dirty, cutoff, replay)`
/// incremental-recheck counts this engine recorded for it.
fn redefine(e: &Engine, request: Request) -> (LatticeReport, CheckLedger, (u64, u64, u64)) {
    let reg = e.session().registry();
    let split = || {
        let get = |kind: &str| {
            reg.counter_value(&format!("fpop_incr_{kind}_total"))
                .expect("every session registers the incr counters")
        };
        (get("dirty"), get("cutoff"), get("replay"))
    };
    let before = split();
    let (report, ledger) = match e.run(request) {
        Ok(Response::Lattice { report, ledger }) => (report, ledger.merged().clone()),
        other => panic!("expected a lattice reply, got {other:?}"),
    };
    let after = split();
    let counts = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    (report, ledger, counts)
}

fn theorem(e: &Engine, family: &str, field: &str) -> Result<String, EngineError> {
    e.run(Request::QueryTheorem {
        family: family.into(),
        field: field.into(),
    })
    .map(|r| match r {
        Response::Theorem { statement, .. } => statement,
        other => panic!("expected a theorem reply, got {other:?}"),
    })
}

fn eval(e: &Engine, family: &str, term: &str) -> Result<String, EngineError> {
    e.run(Request::Eval {
        family: family.into(),
        term: term.into(),
    })
    .map(|r| match r {
        Response::Eval { value, .. } => value,
        other => panic!("expected an eval reply, got {other:?}"),
    })
}

fn lattice_shape(rep: &LatticeReport) -> Vec<(String, usize, usize, usize, usize)> {
    rep.rows
        .iter()
        .map(|r| (r.name.clone(), r.arity, r.fields, r.checked, r.shared))
        .collect()
}

/// A `Redefine` must answer alike whichever plan is resident: the same
/// feature set's (`same` built `{Fix, Prod}`, and its redefine runs on
/// that plan), another feature set's (`other` built the full lattice, so
/// its redefine plans `{Fix, Prod}` afresh), or none (`cold` never built
/// a lattice).
#[test]
fn redefine_answers_alike_whatever_universe_is_resident() {
    let feats = vec![Feature::Fix, Feature::Prod];
    let same = Engine::start(no_snapshot(1));
    same.run(Request::BuildLattice {
        features: feats.clone(),
    })
    .unwrap();
    let other = Engine::start(no_snapshot(1));
    other.run(Request::lattice_full()).unwrap();
    let cold = Engine::start(no_snapshot(1));
    assert_eq!(gauge(&cold, "engine_resident_plans"), 0);

    let request = Request::Redefine {
        family: "STLCFix".into(),
        field: "step_fix_inv".into(),
        features: feats,
    };
    let (want, want_ledger, want_split) = redefine(&same, request.clone());
    assert_eq!(want_split, (1, 1, 2));
    // `other`'s session built the `{Fix, Prod}` variants as `same`'s did,
    // so the rows and ledger agree exactly.
    let (got, got_ledger, got_split) = redefine(&other, request.clone());
    assert_eq!(got_split, (1, 1, 2));
    assert_eq!(lattice_shape(&got), lattice_shape(&want));
    assert!(got_ledger.same_counts(&want_ledger));
    // `cold`'s empty elaboration memo re-proves every variant, so only
    // the rows' checked/shared counts may differ.
    let (got, _, got_split) = redefine(&cold, request);
    assert_eq!(got_split, (4, 0, 0));
    let fields = |rep: &LatticeReport| {
        rep.rows
            .iter()
            .map(|r| (r.name.clone(), r.fields))
            .collect::<Vec<_>>()
    };
    assert_eq!(fields(&got), fields(&want));
    for e in [&other, &cold] {
        for row in &want.rows {
            let n = &row.name;
            assert_eq!(
                theorem(e, n, "typesafe").unwrap(),
                theorem(&same, n, "typesafe").unwrap()
            );
            assert_eq!(
                eval(e, n, SUBST_TERM).unwrap(),
                eval(&same, n, SUBST_TERM).unwrap()
            );
        }
        assert_eq!(gauge(e, "engine_resident_plans"), 1);
    }
    for e in [same, other, cold] {
        e.shutdown().unwrap();
    }
}

/// The resident plan is the last feature set built, whichever it is.
/// After a `{Fix, Prod}` `Redefine` replaces the full lattice's plan, a
/// full `Redefine` plans the full lattice afresh and answers as it does
/// on the full lattice's own plan, re-proving only the touched variant.
#[test]
fn a_full_redefine_plans_afresh_after_a_smaller_resident_plan() {
    let smaller = Engine::start(no_snapshot(1));
    let full = Engine::start(no_snapshot(1));
    // The same edit on both, so both memos hold the same history; only
    // `smaller` is left with a `{Fix, Prod}` plan resident.
    for (e, features) in [
        (&smaller, vec![Feature::Fix, Feature::Prod]),
        (&full, Feature::all().to_vec()),
    ] {
        e.run(Request::lattice_full()).unwrap();
        redefine(
            e,
            Request::Redefine {
                family: "STLCFix".into(),
                field: "step_fix_inv".into(),
                features,
            },
        );
    }
    // Touching the base makes every other variant an early cutoff;
    // touching the top variant leaves all the others replays.
    for (family, split) in [("STLC", (1, 15, 0)), ("STLCFixProdSumIsorec", (1, 0, 15))] {
        let request = Request::Redefine {
            family: family.into(),
            field: "typesafe".into(),
            features: Feature::all().to_vec(),
        };
        let (got, got_ledger, got_split) = redefine(&smaller, request.clone());
        let (want, want_ledger, want_split) = redefine(&full, request);
        assert_eq!((got_split, want_split), (split, split), "{family}");
        assert_eq!(lattice_shape(&got), lattice_shape(&want), "{family}");
        assert!(got_ledger.same_counts(&want_ledger), "{family}");
        for row in &want.rows {
            let n = &row.name;
            assert_eq!(
                theorem(&smaller, n, "typesafe").unwrap(),
                theorem(&full, n, "typesafe").unwrap()
            );
        }
    }
    assert_eq!(gauge(&smaller, "engine_resident_plans"), 1);
    assert_eq!(gauge(&smaller, "engine_registered_families"), 16);
    for e in [smaller, full] {
        e.shutdown().unwrap();
    }
}

/// `CheckSource`, `BuildLattice` and `Redefine` overwrite each other's
/// family registrations, last writer winning. A `CheckSource` that
/// defines its own `STLCFix` and `STLCProd` between the lattice build and
/// a `Redefine STLCFix` loses both names back to the lattice — `STLCProd`
/// too, although the redefine only replays it.
#[test]
fn the_last_request_to_register_a_family_wins() {
    let e = Engine::start(no_snapshot(1));
    e.run(Request::lattice_full()).unwrap();
    let names = ["STLCFix", "STLCProd"];
    let lattice: Vec<(String, String)> = names
        .iter()
        .map(|n| {
            (
                theorem(&e, n, "typesafe").unwrap(),
                eval(&e, n, SUBST_TERM).unwrap(),
            )
        })
        .collect();

    let impostor = |name: &str| {
        format!(
            "Family {name}.\n  FInductive tm := tm_unit | tm_one.\n  \
             FRecursion subst on tm returns tm :=\n    Case tm_unit := tm_one.\n    \
             Case tm_one := tm_unit.\n  End subst.\n  \
             FTheorem typesafe : subst(tm_unit) = tm_one.\n  \
             Proof. fsimpl. reflexivity. Qed.\nEnd {name}.\n"
        )
    };
    let source = names.iter().map(|n| impostor(n)).collect::<String>();
    e.run(Request::CheckSource { source }).unwrap();
    for (n, (stmt, value)) in names.iter().zip(&lattice) {
        assert_ne!(&theorem(&e, n, "typesafe").unwrap(), stmt, "{n}");
        assert_ne!(eval(&e, n, SUBST_TERM).ok().as_ref(), Some(value), "{n}");
    }

    e.run(Request::Redefine {
        family: "STLCFix".into(),
        field: "step_fix_inv".into(),
        features: Feature::all().to_vec(),
    })
    .unwrap();
    for (n, (stmt, value)) in names.iter().zip(&lattice) {
        assert_eq!(&theorem(&e, n, "typesafe").unwrap(), stmt, "{n}");
        assert_eq!(&eval(&e, n, SUBST_TERM).unwrap(), value, "{n}");
    }
    e.shutdown().unwrap();
}
