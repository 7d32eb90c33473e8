//! The **task-DAG scheduler** against the sequential reference — the
//! scheduler half of differential oracle 2 (`differential_lattice.rs`;
//! see the oracle catalogue in `docs/TESTING.md`).
//!
//! `differential_lattice.rs` compares reports and aggregate ledgers on
//! random sublattices with the default worker count; this suite pins the
//! scheduler-specific guarantees of the field-level DAG build against
//! [`testkit::lattice_ref::build_sequential`]:
//!
//! * identical verdicts, row-identical reports, and `same_counts`
//!   aggregate ledgers under a *forced* 8-worker schedule (far more
//!   workers than this lattice has independent chains, maximizing
//!   steal/park churn);
//! * **byte-identical session contents**: the exported proof-cache
//!   entries of the parallel and sequential builds render to identical
//!   bytes, so everything downstream of the session (snapshots,
//!   warm restarts, the engine's `FPOPSNAP` codec) is oblivious to how
//!   the lattice was scheduled;
//! * the same session hit/miss/insert counts, so the DAG loses no cache
//!   hit the sequential walk takes;
//! * a deliberately cyclic task graph fails *loudly* with a diagnostic
//!   naming the cycle, instead of hanging the build.

use families_stlc::{lattice, Feature};
use fpop::sched::{SchedError, TaskDag};
use fpop::universe::FamilyUniverse;
use testkit::family_gen::{gen_feature_subset, FeatureSubset};
use testkit::forall;
use testkit::lattice_ref::{build_sequential, reports_match};

/// The session's exported entries as comparable bytes. `export()` orders
/// entries content-deterministically, and every `Debug` rendering in the
/// payload is structural (names, never interner ids), so equal bytes ⇔
/// equal session contents.
fn export_bytes(u: &FamilyUniverse) -> Vec<u8> {
    format!("{:?}", u.session().export()).into_bytes()
}

/// The session's (hits, misses, inserts). Equal export bytes do not imply
/// equal counts: an obligation proved again instead of served from the
/// cache inserts the same entry, so a lost hit shows only here.
fn session_series(u: &FamilyUniverse) -> (u64, u64, u64) {
    let s = u.session().snapshot_stats();
    (s.hits, s.misses, s.inserts)
}

/// Random sublattices elaborate identically under a seeded 8-worker DAG
/// schedule and the sequential walk: same verdicts, same report rows,
/// `same_counts` aggregate ledgers, and byte-identical exported proofs.
#[test]
fn random_sublattices_dag_8_workers_match_sequential_bytes() {
    forall(
        "sched_dag_8w_eq_seq",
        0x5C4ED11F,
        4,
        gen_feature_subset,
        |s: &FeatureSubset| {
            let mut seq_u = FamilyUniverse::new();
            let seq = build_sequential(&mut seq_u, &s.normalized)
                .map_err(|e| format!("sequential build failed: {e:?}"))?;
            let mut par_u = FamilyUniverse::new();
            let plan = lattice::Plan::new(&s.normalized).unwrap();
            let par = lattice::build(&mut par_u, &plan, 8)
                .map_err(|e| format!("8-worker DAG build failed: {e:?}"))?;
            reports_match(&seq, &par)?;
            if !seq_u.modenv.ledger.same_counts(&par_u.modenv.ledger) {
                return Err(format!(
                    "aggregate ledgers diverge: seq checked={} shared={} vs par checked={} shared={}",
                    seq_u.modenv.ledger.checked_count(),
                    seq_u.modenv.ledger.shared_count(),
                    par_u.modenv.ledger.checked_count(),
                    par_u.modenv.ledger.shared_count(),
                ));
            }
            if export_bytes(&seq_u) != export_bytes(&par_u) {
                return Err("exported session entries differ byte-for-byte".into());
            }
            if session_series(&seq_u) != session_series(&par_u) {
                return Err(format!(
                    "session (hits, misses, inserts) differ: seq {:?} vs par {:?}",
                    session_series(&seq_u),
                    session_series(&par_u)
                ));
            }
            Ok(())
        },
    );
}

/// Stress: the full 15-variant Venn lattice under 2, 4, and 8 workers —
/// every schedule must reproduce the sequential build exactly, including
/// the session's exported bytes.
#[test]
fn full_lattice_stress_across_worker_counts() {
    let mut seq_u = FamilyUniverse::new();
    let seq = build_sequential(&mut seq_u, &Feature::all()).expect("sequential build");
    let seq_bytes = export_bytes(&seq_u);
    for workers in [2, 4, 8] {
        let mut par_u = FamilyUniverse::new();
        let plan = lattice::Plan::new(&Feature::all()).unwrap();
        let par = lattice::build(&mut par_u, &plan, workers)
            .unwrap_or_else(|e| panic!("{workers}-worker build failed: {e:?}"));
        reports_match(&seq, &par).unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert!(
            seq_u.modenv.ledger.same_counts(&par_u.modenv.ledger),
            "{workers} workers: aggregate ledgers diverge"
        );
        assert_eq!(
            seq_bytes,
            export_bytes(&par_u),
            "{workers} workers: exported session entries differ"
        );
        assert_eq!(
            session_series(&seq_u),
            session_series(&par_u),
            "{workers} workers: session (hits, misses, inserts) differ"
        );
    }
}

/// A deliberately cyclic dependency graph is rejected with a loud
/// diagnostic naming the cycle — it must not hang a worker pool.
#[test]
fn deliberate_cycle_is_a_loud_diagnostic_not_a_hang() {
    let mut dag = TaskDag::new();
    let a = dag.add_node("STLCLoop◦tm");
    let b = dag.add_node("STLCLoop◦subst");
    let c = dag.add_node("STLCLoop◦typesafe");
    dag.add_edge(a, b);
    dag.add_edge(b, c);
    dag.add_edge(c, a);
    let err = dag
        .run(8, &trace::Gauge::new(), |_| Ok::<(), String>(()))
        .expect_err("a cyclic graph must not execute");
    match err {
        SchedError::Cycle(diag) => {
            let msg = diag.to_string();
            assert!(msg.contains("dependency cycle"), "weak diagnostic: {msg}");
            assert!(
                msg.contains("refusing to schedule"),
                "weak diagnostic: {msg}"
            );
            assert!(msg.contains("STLCLoop◦tm"), "cycle not named: {msg}");
        }
        SchedError::Task { label, .. } => panic!("ran {label} despite the cycle"),
    }
}
