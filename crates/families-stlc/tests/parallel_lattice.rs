//! The task-DAG lattice build: independence from the worker count, and
//! the shared-session reuse channel it rides on.
//!
//! These are the acceptance tests of the check-session architecture: a
//! build on one scheduler worker and a build on several must be
//! *observationally identical* (same rows, same per-variant checked/shared
//! counts, same aggregate ledger), and the shared session must
//! demonstrably serve proofs across variants (strictly positive cache-hit
//! count over the 31-variant extended lattice). The extended lattice is
//! also held to testkit's sequential reference here, session series
//! included; the oracles in `differential_lattice.rs` and
//! `sched_differential.rs` do the same on other sub-lattices.

use families_stlc::{lattice, Feature};
use fpop::universe::FamilyUniverse;
use testkit::lattice_ref::{build_sequential, reports_match};

/// Workers of the wide build each test compares with a one-worker build.
const WIDE: usize = 4;

#[test]
fn parallel_venn_lattice_is_deterministic() {
    let mut one_u = FamilyUniverse::new();
    let plan = lattice::Plan::new(&Feature::all()).unwrap();
    let one = lattice::build(&mut one_u, &plan, 1).expect("one-worker lattice");
    let mut wide_u = FamilyUniverse::new();
    let wide = lattice::build(&mut wide_u, &plan, WIDE).expect("parallel lattice");

    reports_match(&one, &wide).unwrap();
    assert!(
        one_u.modenv.ledger.same_counts(&wide_u.modenv.ledger),
        "aggregate module-env ledgers diverge:\n1 worker checked={} shared={}\n{WIDE} workers checked={} shared={}",
        one_u.modenv.ledger.checked_count(),
        one_u.modenv.ledger.shared_count(),
        wide_u.modenv.ledger.checked_count(),
        wide_u.modenv.ledger.shared_count(),
    );
    // Per-variant ledgers agree too (checked/shared series, not just sums).
    for row in &one.rows {
        let a = &one_u.modenv.ledger;
        let b = &wide_u.modenv.ledger;
        assert_eq!(
            a.unit_time(&row.name).is_some(),
            b.unit_time(&row.name).is_some()
        );
    }
    // And the parallel universe answers the same Check queries.
    for row in &wide.rows {
        let out = wide_u.check(&row.name, "typesafe").unwrap();
        assert!(out.contains(&format!("{}.typesafe", row.name)), "{out}");
        assert!(wide_u.family(&row.name).unwrap().assumptions.is_empty());
    }
}

#[test]
fn parallel_extended_lattice_shares_through_the_session() {
    let mut u = FamilyUniverse::new();
    let plan = lattice::Plan::new(&Feature::all_extended()).unwrap();
    let report = lattice::build(&mut u, &plan, WIDE).expect("extended lattice");
    assert_eq!(report.rows.len(), 32); // base + 31 variants

    // The shared session demonstrably served proofs across variants.
    let stats = u.session().snapshot_stats();
    assert!(
        stats.hits > 0,
        "expected cross-variant cache hits, got {stats:?}"
    );
    assert!(stats.inserts > 0, "no proofs committed: {stats:?}");

    // Reuse is at least as strong as the sequential seed's bar (the
    // quad composite reuses > 60% of its units).
    let quad = report
        .rows
        .iter()
        .find(|r| r.name == "STLCFixProdSumIsorec")
        .unwrap();
    assert!(quad.reuse_ratio > 0.6, "quad reuse {}", quad.reuse_ratio);

    // Per-family ledger cache counters sum to the session's totals: the
    // two instruments (local ledgers, global session) agree.
    let (mut hits, mut misses) = (0u64, 0u64);
    for name in u.names().to_vec() {
        let fam = u.family(name.as_str()).unwrap();
        hits += fam.ledger.cache_hits() as u64;
        misses += fam.ledger.cache_misses() as u64;
    }
    assert_eq!(hits, stats.hits);
    assert_eq!(misses, stats.misses);
}

/// The extended lattice on the DAG, at one worker and at [`WIDE`], against
/// testkit's sequential reference: identical rows and aggregate ledgers,
/// and the same session series — the 1492 hits / 572 misses / 572 inserts
/// that `examples/check_session.rs` prints from the DAG build and
/// `tests/paper_counts.rs` pins on the `define` route. Exported session
/// bytes would not catch a lost hit (a re-proved obligation inserts the
/// same entry), so the hit/miss/insert counts are compared directly.
#[test]
fn extended_lattices_agree_and_report_hits() {
    let series = |u: &FamilyUniverse| {
        let s = u.session().snapshot_stats();
        (s.hits, s.misses, s.inserts)
    };
    let mut seq_u = FamilyUniverse::new();
    let seq = build_sequential(&mut seq_u, &Feature::all_extended())
        .expect("sequential extended lattice");
    assert_eq!(series(&seq_u), (1492, 572, 572));
    for workers in [1, WIDE] {
        let mut dag_u = FamilyUniverse::new();
        let plan = lattice::Plan::new(&Feature::all_extended()).unwrap();
        let dag = lattice::build(&mut dag_u, &plan, workers).expect("DAG extended lattice");
        reports_match(&seq, &dag).unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert!(
            seq_u.modenv.ledger.same_counts(&dag_u.modenv.ledger),
            "{workers} workers: aggregate ledgers diverge"
        );
        assert_eq!(
            series(&seq_u),
            series(&dag_u),
            "{workers} workers: the session series must match the sequential build"
        );
    }
}

#[test]
fn one_session_spans_universes() {
    // Build the Venn lattice twice, in two *different* universes drawing on
    // one session: the second build's proofs are all cache hits, which is
    // the cross-family reuse channel of the CS1-share experiment. The
    // counts are the DAG's side of the cold 610/286/286 and warm
    // +896/+0/+0 series `examples/check_session.rs` prints.
    let session = fpop::Session::new();
    let mut first = FamilyUniverse::with_session(session.clone());
    let plan = lattice::Plan::new(&Feature::all()).unwrap();
    lattice::build(&mut first, &plan, 1).expect("first lattice");
    let after_first = session.snapshot_stats();
    assert_eq!(
        (after_first.hits, after_first.misses, after_first.inserts),
        (610, 286, 286)
    );

    let mut second = FamilyUniverse::with_session(session.clone());
    lattice::build(&mut second, &plan, WIDE).expect("second lattice");
    let after_second = session.snapshot_stats();

    // Every proof the second build looked up was served by the session.
    assert_eq!(
        after_second.inserts, after_first.inserts,
        "second build re-inserted proofs instead of reusing them"
    );
    let second_lookups =
        (after_second.hits + after_second.misses) - (after_first.hits + after_first.misses);
    let second_hits = after_second.hits - after_first.hits;
    assert_eq!(second_lookups, 896);
    assert_eq!(
        second_hits, second_lookups,
        "second universe must hit on every lookup"
    );
}
