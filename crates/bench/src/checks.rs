//! Whole-check-path benches: compiling family `STLC` (Figure 2 → Figure 4)
//! and the derived `STLCFix` (Figure 5), plus the Section 7 composition
//! lattice (15 variants; testkit's sequential reference and the task DAG
//! at several worker counts) — the cold-check workloads the hash-consing
//! acceptance criterion is measured on.
//!
//! Results land in `BENCH_engine.json` together with the engine series.

use crate::harness::Bencher;
use families_stlc::{lattice, subset_defs, Feature};
use fpop::universe::FamilyUniverse;
use std::time::Instant;
use testkit::lattice_ref::build_sequential;

/// Registers the compile/lattice series on `b`.
pub fn run(b: &mut Bencher) {
    eprintln!("\n== checks: family compilation and the composition lattice ==");

    b.bench("compile/stlc_base_cold", 1.0, || {
        let mut u = FamilyUniverse::new();
        u.define(families_stlc::stlc_family()).unwrap();
        u.family("STLC").unwrap().ledger.checked_count()
    });

    b.bench_time("compile/stlc_fix_extension", 1.0, || {
        // Base compiled outside the timed region; measure only the
        // derived family (the Figure 5 `(* reuse *)` path).
        let mut u = FamilyUniverse::new();
        u.define(families_stlc::stlc_family()).unwrap();
        let t = Instant::now();
        u.define(families_stlc::fix::stlc_fix_family()).unwrap();
        let d = t.elapsed();
        assert!(u.family("STLCFix").unwrap().ledger.shared_count() > 0);
        d
    });

    // Base + the 15 compositions.
    let n_variants = subset_defs(&Feature::all()).len();

    b.bench("lattice/build_cold", n_variants as f64, || {
        let mut u = FamilyUniverse::new();
        let rep = build_sequential(&mut u, &Feature::all()).unwrap();
        assert_eq!(rep.rows.len(), n_variants);
        rep.rows.len()
    });

    b.bench("lattice/build_cold_parallel", n_variants as f64, || {
        let mut u = FamilyUniverse::new();
        let plan = lattice::Plan::new(&Feature::all()).unwrap();
        let rep = lattice::build(&mut u, &plan, fpop::sched::default_workers()).unwrap();
        assert_eq!(rep.rows.len(), n_variants);
        rep.rows.len()
    });
    b.mark_speedup("lattice/build_cold_parallel", "lattice/build_cold");

    // One DAG worker vs the sequential reference: the same work on the
    // same thread, so the ratio is pure scheduler bookkeeping —
    // task-graph construction, the ready queue, the COW env overlays.
    // Healthy is ≈ 1.0; this row is the pin the single-worker-overhead
    // satellite work moves.
    b.bench("lattice/build_cold_1w", n_variants as f64, || {
        let mut u = FamilyUniverse::new();
        let plan = lattice::Plan::new(&Feature::all()).unwrap();
        let rep = lattice::build(&mut u, &plan, 1).unwrap();
        assert_eq!(rep.rows.len(), n_variants);
        rep.rows.len()
    });
    b.mark_speedup("lattice/build_cold_1w", "lattice/build_cold");

    // Thread series over the task-DAG scheduler: same workload, forced
    // worker counts. The `speedup_vs_seq` JSON field on each lets
    // bench-smoke CI catch parallel-path regressions without parsing
    // two rows.
    for workers in [2usize, 4, 8] {
        let name = format!("lattice/build_cold_parallel_{workers}w");
        b.bench(&name, n_variants as f64, || {
            let mut u = FamilyUniverse::new();
            let plan = lattice::Plan::new(&Feature::all()).unwrap();
            let rep = lattice::build(&mut u, &plan, workers).unwrap();
            assert_eq!(rep.rows.len(), n_variants);
            rep.rows.len()
        });
        b.mark_speedup(&name, "lattice/build_cold");
    }
}
