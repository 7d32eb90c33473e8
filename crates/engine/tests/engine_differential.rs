//! Differential oracle 4: **engine vs. in-process elaboration**.
//!
//! Random batches of requests — vernacular checks with known verdicts,
//! lattice builds, theorem queries — go through the full `fpopd` engine
//! (worker pool, dedup coalescing, deadlines, cancellation) and must
//! produce exactly the verdicts direct in-process elaboration produces.
//! Scheduling outcomes (`Cancelled`, `DeadlineExpired`, `Rejected`) are
//! legitimate engine answers but never count as verdicts; whenever the
//! engine *does* answer, it must agree with the kernel.

use std::time::Duration;

use engine::{Engine, EngineConfig, EngineError, Priority, Request, Response};
use fpop::universe::FamilyUniverse;
use testkit::family_gen::gen_feature_subset;
use testkit::lattice_ref::build_sequential;
use testkit::script_gen::{gen_vernacular, Verdict, VernacularProgram};
use testkit::{run_cases, Rng};

fn no_snapshot(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        snapshot_path: None,
        ..EngineConfig::default()
    }
}

/// What the engine said, reduced to a verdict when it said anything.
enum Outcome {
    Accepted,
    Rejected,
    Scheduling(EngineError),
}

fn classify(r: Result<Response, EngineError>) -> Outcome {
    match r {
        Ok(Response::Checked { .. }) => Outcome::Accepted,
        Ok(other) => panic!("CheckSource answered with {other:?}"),
        Err(EngineError::Failed(_)) => Outcome::Rejected,
        Err(e) => Outcome::Scheduling(e),
    }
}

fn expect_accept(p: &VernacularProgram) -> bool {
    p.expect == Verdict::Accept
}

/// Random request batches — with duplicate submissions injected — settle
/// to the generator's expected verdicts, and coalesced duplicates always
/// agree with their primaries.
#[test]
fn random_batches_match_in_process_verdicts() {
    let engine = Engine::start(no_snapshot(3));
    run_cases("engine_batch_verdicts", 0xE7611E, 8, |r: &mut Rng| {
        let batch: Vec<VernacularProgram> = (0..r.range(2, 6)).map(|_| gen_vernacular(r)).collect();
        let mut tickets = Vec::new();
        for p in &batch {
            let req = Request::CheckSource {
                source: p.source.clone(),
            };
            let primary = engine.submit(req.clone()).expect("submit");
            // ~Half the programs are double-submitted while the primary
            // is (possibly) still in flight, exercising dedup coalescing.
            let dup = if r.flip() {
                Some(engine.submit(req).expect("submit dup"))
            } else {
                None
            };
            tickets.push((p, primary, dup));
        }
        for (p, primary, dup) in tickets {
            let want_accept = expect_accept(p);
            match classify(primary.wait()) {
                Outcome::Accepted => assert!(want_accept, "engine accepted:\n{}", p.source),
                Outcome::Rejected => assert!(!want_accept, "engine rejected:\n{}", p.source),
                Outcome::Scheduling(e) => panic!("unexpected scheduling outcome {e:?}"),
            }
            if let Some(d) = dup {
                match classify(d.wait()) {
                    Outcome::Accepted => {
                        assert!(want_accept, "duplicate diverged on:\n{}", p.source)
                    }
                    Outcome::Rejected => {
                        assert!(!want_accept, "duplicate diverged on:\n{}", p.source)
                    }
                    Outcome::Scheduling(e) => panic!("duplicate got {e:?}"),
                }
            }
        }
    });
    let m = engine.metrics();
    assert!(m.submitted > 0);
    engine.shutdown().unwrap();
}

/// Cancellation and expired deadlines never corrupt verdicts: a ticket
/// either reports a scheduling outcome or the correct verdict, and the
/// engine keeps answering correctly afterwards.
#[test]
fn cancellation_and_deadlines_never_corrupt_verdicts() {
    let engine = Engine::start(no_snapshot(2));
    run_cases("engine_cancel_deadline", 0xCA9CE1, 8, |r: &mut Rng| {
        let p = gen_vernacular(r);
        let req = Request::CheckSource {
            source: p.source.clone(),
        };
        let outcome = if r.flip() {
            // Cancel immediately after submitting.
            let t = engine.submit(req).expect("submit");
            t.cancel();
            t.wait()
        } else {
            // A deadline that has effectively already expired.
            engine
                .submit_with(req, Priority::Normal, Some(Duration::from_nanos(1)))
                .expect("submit")
                .wait()
        };
        match classify(outcome) {
            // If the job still ran, its verdict must be the true one.
            Outcome::Accepted => assert!(expect_accept(&p), "accepted:\n{}", p.source),
            Outcome::Rejected => assert!(!expect_accept(&p), "rejected:\n{}", p.source),
            Outcome::Scheduling(
                EngineError::Cancelled | EngineError::DeadlineExpired | EngineError::Rejected,
            ) => {}
            Outcome::Scheduling(e) => panic!("unexpected scheduling outcome {e:?}"),
        }
        // The engine still answers fresh uncontested work correctly.
        let q = gen_vernacular(r);
        match classify(engine.run(Request::CheckSource {
            source: q.source.clone(),
        })) {
            Outcome::Accepted => assert!(expect_accept(&q), "accepted:\n{}", q.source),
            Outcome::Rejected => assert!(!expect_accept(&q), "rejected:\n{}", q.source),
            Outcome::Scheduling(e) => panic!("follow-up got {e:?}"),
        }
    });
    engine.shutdown().unwrap();
}

/// Engine lattice builds agree row-for-row with testkit's sequential
/// reference build of the same random feature subset, and the theorems
/// they register are queryable with the statements the kernel proved.
#[test]
fn engine_lattice_matches_in_process_lattice() {
    let engine = Engine::start(no_snapshot(3));
    run_cases("engine_lattice_differential", 0x1A77DE, 3, |r: &mut Rng| {
        let subset = gen_feature_subset(r);
        let (report, ledger) = match engine.run(Request::BuildLattice {
            features: subset.raw.clone(),
        }) {
            Ok(Response::Lattice { report, ledger }) => (report, ledger),
            other => panic!("lattice request answered {other:?}"),
        };
        let mut u = FamilyUniverse::new();
        let direct = build_sequential(&mut u, &subset.normalized).expect("in-process build");
        assert_eq!(report.rows.len(), direct.rows.len(), "row counts differ");
        for (e, d) in report.rows.iter().zip(&direct.rows) {
            assert_eq!(e.name, d.name, "variant order differs");
            assert_eq!(
                (e.arity, e.fields),
                (d.arity, d.fields),
                "{}: engine and in-process structure differs",
                e.name
            );
            // The engine's long-lived session may be warm from earlier
            // requests, shifting units from `checked` into `shared` — but
            // the per-variant unit *total* is scheduling-independent.
            assert_eq!(
                e.checked + e.shared,
                d.checked + d.shared,
                "{}: unit totals differ (engine {}+{}, in-process {}+{})",
                e.name,
                e.checked,
                e.shared,
                d.checked,
                d.shared
            );
        }
        assert!(ledger.checked_count() > 0 || ledger.shared_count() > 0);
        // The subset's top variant is queryable for its safety theorem.
        match engine.run(Request::QueryTheorem {
            family: subset.top_variant(),
            field: "typesafe".into(),
        }) {
            Ok(Response::Theorem { statement, .. }) => {
                assert!(!statement.is_empty());
            }
            other => panic!("theorem query answered {other:?}"),
        }
    });
    engine.shutdown().unwrap();
}
