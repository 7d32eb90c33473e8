//! The check-session architecture in action: one shared, thread-safe
//! proof cache spanning every family elaboration in a run.
//!
//! Run with `cargo run --release --example check_session`. Prints:
//! 1. the 31-variant extended lattice built on the task DAG with one
//!    scheduler worker and with the default worker count, with the
//!    determinism cross-check;
//! 2. the session cache series (hits / misses / inserts);
//! 3. a warm-session rebuild — a second universe re-deriving the whole
//!    lattice with every proof served from the shared session.

use std::time::Instant;

use families_stlc::{lattice, Feature};
use fpop::sched::default_workers;
use fpop::universe::FamilyUniverse;
use fpop::Session;

fn main() {
    // 1. One worker vs the default width over the extended (31-variant)
    //    lattice.
    let workers = default_workers();
    let extended = lattice::Plan::new(&Feature::all_extended()).unwrap();
    let t = Instant::now();
    let mut one_u = FamilyUniverse::new();
    let one = lattice::build(&mut one_u, &extended, 1).unwrap();
    let one_time = t.elapsed();

    let t = Instant::now();
    let mut par_u = FamilyUniverse::new();
    let par = lattice::build(&mut par_u, &extended, workers).unwrap();
    let par_time = t.elapsed();

    assert_eq!(one.rows.len(), par.rows.len());
    assert!(
        one_u.modenv.ledger.same_counts(&par_u.modenv.ledger),
        "the build must not depend on the worker count"
    );
    println!("== extended lattice: {} variants ==", par.rows.len() - 1);
    println!("{}", par.to_table());
    println!(
        "1 worker {one_time:.2?}  |  {workers} workers {par_time:.2?}  (speedup {:.2}x, ledgers identical)",
        one_time.as_secs_f64() / par_time.as_secs_f64()
    );

    // 2. The session cache series behind the parallel build.
    let stats = par_u.session().snapshot_stats();
    println!(
        "session: {} hits / {} misses (hit ratio {:.1}%), {} proofs committed",
        stats.hits,
        stats.misses,
        stats.hit_ratio() * 100.0,
        stats.inserts
    );

    // 3. Cross-universe reuse: rebuild the Venn lattice against a warm
    //    session — every proof a cache hit, zero new inserts.
    let session = Session::new();
    let venn = lattice::Plan::new(&Feature::all()).unwrap();
    let t = Instant::now();
    let mut first = FamilyUniverse::with_session(session.clone());
    lattice::build(&mut first, &venn, workers).unwrap();
    let cold_time = t.elapsed();
    let cold = session.snapshot_stats();

    let t = Instant::now();
    let mut second = FamilyUniverse::with_session(session.clone());
    lattice::build(&mut second, &venn, workers).unwrap();
    let warm_time = t.elapsed();
    let warm = session.snapshot_stats();

    println!("\n== warm-session rebuild (15-variant Venn lattice) ==");
    println!(
        "cold: {cold_time:.2?} ({} hits / {} misses, {} inserts)",
        cold.hits, cold.misses, cold.inserts
    );
    println!(
        "warm: {warm_time:.2?} ({} hits / {} misses, {} new inserts)",
        warm.hits - cold.hits,
        warm.misses - cold.misses,
        warm.inserts - cold.inserts
    );
    assert_eq!(warm.inserts, cold.inserts);
}
