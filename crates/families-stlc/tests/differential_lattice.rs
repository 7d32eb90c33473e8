//! Differential oracle 2: **task-DAG vs. sequential lattice builds** on
//! *randomized* feature subsets.
//!
//! `parallel_lattice.rs` pins the two fixed lattices (Venn and extended);
//! this suite drives the same observational-equivalence property across
//! random sublattices drawn by [`testkit::family_gen`], with integrated
//! shrinking: a failing subset is minimized feature by feature before the
//! harness reports its replay seed. The control is testkit's sequential
//! reference ([`testkit::lattice_ref::build_sequential`]).

use families_stlc::{lattice, normalize_features, variant_name};
use fpop::sched::default_workers;
use fpop::universe::FamilyUniverse;
use testkit::family_gen::{gen_composition_chain, gen_feature_subset, FeatureSubset};
use testkit::lattice_ref::{build_sequential, reports_match};
use testkit::{forall, run_cases};

/// Random sublattices elaborate to ledger-identical reports whether the
/// variants are defined one by one or run on the task DAG's worker pool.
#[test]
fn random_sublattices_build_identically_parallel_and_sequential() {
    forall(
        "sublattice_par_eq_seq",
        0x1A771CE,
        4,
        gen_feature_subset,
        |s: &FeatureSubset| {
            let mut seq_u = FamilyUniverse::new();
            let seq = build_sequential(&mut seq_u, &s.normalized)
                .map_err(|e| format!("sequential build failed: {e:?}"))?;
            let mut par_u = FamilyUniverse::new();
            let plan = lattice::Plan::new(&s.normalized).unwrap();
            let par = lattice::build(&mut par_u, &plan, default_workers())
                .map_err(|e| format!("parallel build failed: {e:?}"))?;
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
            // The top variant of the subset must be present and named
            // canonically.
            let top = s.top_variant();
            if !seq.rows.iter().any(|r| r.name == top) {
                return Err(format!("top variant {top} missing from report"));
            }
            Ok(())
        },
    );
}

/// Rebuilding the same random subset in a *fresh* universe is fully
/// deterministic: identical rows, identical ledger counts.
#[test]
fn sublattice_rebuilds_are_deterministic() {
    forall(
        "sublattice_determinism",
        0xD37E12,
        3,
        gen_feature_subset,
        |s: &FeatureSubset| {
            let mut u1 = FamilyUniverse::new();
            let plan = lattice::Plan::new(&s.normalized).unwrap();
            let r1 = lattice::build(&mut u1, &plan, default_workers())
                .map_err(|e| format!("first build failed: {e:?}"))?;
            let mut u2 = FamilyUniverse::new();
            let r2 = lattice::build(&mut u2, &plan, default_workers())
                .map_err(|e| format!("second build failed: {e:?}"))?;
            reports_match(&r1, &r2)?;
            if !u1.modenv.ledger.same_counts(&u2.modenv.ledger) {
                return Err("rebuild ledgers diverge".into());
            }
            Ok(())
        },
    );
}

/// Feature normalization is a retraction and variant naming is
/// order-invariant: every prefix of a random composition chain names the
/// same variant no matter how its features are permuted.
#[test]
fn chain_prefixes_name_canonical_variants() {
    run_cases("chain_canonical_names", 0xC0FFEE, 200, |r| {
        let chain = gen_composition_chain(r);
        for step in &chain {
            let n = normalize_features(step);
            assert_eq!(n, normalize_features(&n), "normalize not idempotent");
            let mut rev = step.clone();
            rev.reverse();
            assert_eq!(
                variant_name(&normalize_features(&rev)),
                variant_name(&n),
                "variant name depends on composition order: {step:?}"
            );
        }
        // Chains grow monotonically: each step's normalized set contains
        // the previous step's.
        for w in chain.windows(2) {
            let prev = normalize_features(&w[0]);
            let next = normalize_features(&w[1]);
            assert!(
                prev.iter().all(|f| next.contains(f)),
                "chain step dropped features: {prev:?} -> {next:?}"
            );
        }
    });
}
