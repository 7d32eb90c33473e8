//! Satellite: `StatsSnapshot` (the session's own accounting) must agree
//! with the sum of per-family `CheckLedger` traffic — two independent
//! bookkeepers, one for the shared store and one per elaboration, that
//! count the same events.

use std::sync::Arc;

use families_stlc::{lattice, Feature};
use fpop::sched::default_workers;
use fpop::{FamilyUniverse, Session};
use modsys::CheckLedger;

fn summed_ledger(u: &FamilyUniverse) -> CheckLedger {
    let mut combined = CheckLedger::new();
    for name in u.names() {
        let fam = u.family(name.as_str()).expect("compiled family present");
        combined.absorb(&fam.ledger);
    }
    combined
}

#[test]
fn snapshot_agrees_with_summed_ledgers_on_full_lattice() {
    let session = Session::new();
    let mut u = FamilyUniverse::with_session(Arc::clone(&session));
    let plan = lattice::Plan::new(&Feature::all()).unwrap();
    lattice::build(&mut u, &plan, default_workers()).expect("lattice builds");

    let snapshot = session.snapshot_stats();
    let combined = summed_ledger(&u);

    assert_eq!(
        snapshot.hits,
        combined.cache_hits() as u64,
        "session hit counter == Σ per-family ledger hits"
    );
    assert_eq!(
        snapshot.misses,
        combined.cache_misses() as u64,
        "session miss counter == Σ per-family ledger misses"
    );
    // One build commits each proof once, in canonical order, so the
    // insert counter equals the store size.
    assert_eq!(snapshot.inserts, snapshot.cached_proofs);
    assert!(snapshot.hits > 0 && snapshot.misses > 0);
}

#[test]
fn snapshot_tracks_incremental_builds() {
    let session = Session::new();

    let mut u1 = FamilyUniverse::with_session(Arc::clone(&session));
    let plan = lattice::Plan::new(&[Feature::Fix, Feature::Prod]).unwrap();
    lattice::build(&mut u1, &plan, default_workers()).unwrap();
    let after_first = session.snapshot_stats();
    let combined_first = summed_ledger(&u1);
    assert_eq!(after_first.hits, combined_first.cache_hits() as u64);
    assert_eq!(after_first.misses, combined_first.cache_misses() as u64);

    // A second universe over the same session: the session counters keep
    // accumulating, and the deltas match the new universe's ledger sums.
    let mut u2 = FamilyUniverse::with_session(Arc::clone(&session));
    lattice::build(&mut u2, &plan, default_workers()).unwrap();
    let after_second = session.snapshot_stats();
    let combined_second = summed_ledger(&u2);

    assert_eq!(
        after_second.hits - after_first.hits,
        combined_second.cache_hits() as u64
    );
    assert_eq!(
        after_second.misses - after_first.misses,
        combined_second.cache_misses() as u64
    );
    assert_eq!(
        combined_second.cache_misses(),
        0,
        "identical rebuild over a warm session never misses"
    );
    assert_eq!(
        after_second.cached_proofs, after_first.cached_proofs,
        "no new proofs enter the store on a fully warm rebuild"
    );
    assert_eq!(after_second.inserts, after_first.inserts);

    // hit_ratio is consistent with the raw counters.
    let ratio = after_second.hit_ratio();
    let expect = after_second.hits as f64 / (after_second.hits + after_second.misses) as f64;
    assert!((ratio - expect).abs() < 1e-12);
}
