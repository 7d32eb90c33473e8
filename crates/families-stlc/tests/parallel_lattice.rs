//! The parallel lattice build: determinism against the sequential build,
//! and the shared-session reuse channel it rides on.
//!
//! These are the acceptance tests of the check-session architecture: the
//! wave-parallel build must be *observationally identical* to the
//! sequential one (same rows, same per-variant checked/shared counts, same
//! aggregate ledger), and the shared session must demonstrably serve
//! proofs across variants (strictly positive cache-hit count over the
//! 31-variant extended lattice).

use families_stlc::{
    build_extended_lattice, build_extended_lattice_parallel, build_lattice, build_lattice_parallel,
    LatticeReport,
};
use fpop::universe::FamilyUniverse;

/// Row-by-row equality modulo wall time (which is never deterministic).
fn assert_reports_match(seq: &LatticeReport, par: &LatticeReport) {
    assert_eq!(seq.rows.len(), par.rows.len(), "row count differs");
    for (s, p) in seq.rows.iter().zip(&par.rows) {
        assert_eq!(s.name, p.name, "variant order differs");
        assert_eq!(s.arity, p.arity, "{}: arity differs", s.name);
        assert_eq!(s.fields, p.fields, "{}: field count differs", s.name);
        assert_eq!(s.checked, p.checked, "{}: checked count differs", s.name);
        assert_eq!(s.shared, p.shared, "{}: shared count differs", s.name);
    }
}

#[test]
fn parallel_venn_lattice_is_deterministic() {
    let mut seq_u = FamilyUniverse::new();
    let seq = build_lattice(&mut seq_u).expect("sequential lattice");
    let mut par_u = FamilyUniverse::new();
    let par = build_lattice_parallel(&mut par_u).expect("parallel lattice");

    assert_reports_match(&seq, &par);
    assert!(
        seq_u.modenv.ledger.same_counts(&par_u.modenv.ledger),
        "aggregate module-env ledgers diverge:\nseq checked={} shared={}\npar checked={} shared={}",
        seq_u.modenv.ledger.checked_count(),
        seq_u.modenv.ledger.shared_count(),
        par_u.modenv.ledger.checked_count(),
        par_u.modenv.ledger.shared_count(),
    );
    // Per-variant ledgers agree too (checked/shared series, not just sums).
    for row in &seq.rows {
        let a = &seq_u.modenv.ledger;
        let b = &par_u.modenv.ledger;
        assert_eq!(
            a.unit_time(&row.name).is_some(),
            b.unit_time(&row.name).is_some()
        );
    }
    // And the parallel universe answers the same Check queries.
    for row in &par.rows {
        let out = par_u.check(&row.name, "typesafe").unwrap();
        assert!(out.contains(&format!("{}.typesafe", row.name)), "{out}");
        assert!(par_u.family(&row.name).unwrap().assumptions.is_empty());
    }
}

#[test]
fn parallel_extended_lattice_shares_through_the_session() {
    let mut u = FamilyUniverse::new();
    let report = build_extended_lattice_parallel(&mut u).expect("extended lattice");
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

#[test]
fn extended_lattices_agree_and_report_hits() {
    let mut seq_u = FamilyUniverse::new();
    let seq = build_extended_lattice(&mut seq_u).expect("sequential extended lattice");
    let mut par_u = FamilyUniverse::new();
    let par = build_extended_lattice_parallel(&mut par_u).expect("parallel extended lattice");
    assert_reports_match(&seq, &par);
    assert!(seq_u.modenv.ledger.same_counts(&par_u.modenv.ledger));
    assert_eq!(
        seq_u.session().snapshot_stats().hits,
        par_u.session().snapshot_stats().hits,
        "cache-hit series must be order-insensitive under wave semantics"
    );
}

#[test]
fn one_session_spans_universes() {
    // Build the Venn lattice twice, in two *different* universes drawing on
    // one session: the second build's proofs are all cache hits, which is
    // the cross-family reuse channel of the CS1-share experiment.
    let session = fpop::Session::new();
    let mut first = FamilyUniverse::with_session(session.clone());
    build_lattice(&mut first).expect("first lattice");
    let after_first = session.snapshot_stats();

    let mut second = FamilyUniverse::with_session(session.clone());
    build_lattice(&mut second).expect("second lattice");
    let after_second = session.snapshot_stats();

    // Every proof the second build looked up was served by the session.
    assert_eq!(
        after_second.inserts, after_first.inserts,
        "second build re-inserted proofs instead of reusing them"
    );
    let second_lookups =
        (after_second.hits + after_second.misses) - (after_first.hits + after_first.misses);
    let second_hits = after_second.hits - after_first.hits;
    assert!(second_lookups > 0);
    assert_eq!(
        second_hits, second_lookups,
        "second universe must hit on every lookup"
    );
}
