//! The exact counts behind EXPERIMENTS.md's paper-facing claims: F1/F2,
//! F4/F5, §3.6, CS1-share and its session-cache addendum.
//!
//! Every lattice family here is defined through [`FamilyUniverse::define`]
//! in the lattice's canonical plan order ([`subset_defs`]), so the counts
//! do not depend on which lattice builder produced them. The copy-paste
//! foil is [`baseline::standalone_cost`].

use families_stlc::{subset_defs, variant_name, Feature};
use fpop::family::FamilyDef;
use fpop::universe::FamilyUniverse;
use fpop::Session;
use objlang::sig::CtorSig;
use objlang::syntax::{Prop, Term};
use objlang::Tactic;

/// Defines every variant of the sub-lattice spanned by `features` in plan
/// order; returns each variant's (name, units checked).
fn define_lattice(u: &mut FamilyUniverse, features: &[Feature]) -> Vec<(String, usize)> {
    subset_defs(features)
        .into_iter()
        .map(|def| {
            let name = def.name.to_string();
            u.define(def).expect("lattice variant elaborates");
            let checked = u
                .family(&name)
                .expect("just defined")
                .ledger
                .checked_count();
            (name, checked)
        })
        .collect()
}

/// The 15 non-empty feature subsets of the Venn diagram.
fn venn_subsets() -> Vec<Vec<Feature>> {
    let all = Feature::all();
    (1u32..1 << all.len())
        .map(|mask| {
            all.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &f)| f)
                .collect()
        })
        .collect()
}

/// F1/F2: the base family checks all 43 of its units; the fixpoints
/// extension checks its 15-unit delta and reuses 33.
#[test]
fn f1_f2_base_and_fix_units() {
    let mut u = FamilyUniverse::new();
    u.define(families_stlc::stlc_family()).unwrap();
    u.define(families_stlc::fix::stlc_fix_family()).unwrap();
    let units = |name: &str| {
        let ledger = &u.family(name).unwrap().ledger;
        (ledger.checked_count(), ledger.shared_count())
    };
    assert_eq!(units("STLC"), (43, 0));
    assert_eq!(units("STLCFix"), (15, 33));
}

/// F4/F5: STLC + STLCFix compile to 78 module entities — 62 module types
/// and 16 modules. Two of the modules are the aggregates `STLC` and
/// `STLCFix`; the other 76 entities are per-field (`Fam◦field…`).
#[test]
fn f4_f5_module_entities() {
    let mut u = FamilyUniverse::new();
    u.define(families_stlc::stlc_family()).unwrap();
    u.define(families_stlc::fix::stlc_fix_family()).unwrap();
    let env = &u.modenv;
    let names = env.names();
    let types = names
        .iter()
        .filter(|n| env.module_type(n).is_some())
        .count();
    let modules = names.iter().filter(|n| env.module(n).is_some()).count();
    let per_field = names.iter().filter(|n| n.contains('◦')).count();
    assert_eq!((names.len(), types, modules), (78, 62, 16));
    assert_eq!(per_field, 76);
    assert!(env.module("STLC").is_some() && env.module("STLCFix").is_some());
}

/// §3.6 / Theorem 3.1: a disjointness lemma proved with `fdiscriminate`
/// (a partial recursor) is shared by a derived family that adds three
/// constructors, with no recheck; the closed-world formulation (a
/// reprove-on-extend lemma proved by `discriminate`) is re-proved once.
/// Returns the derived family's (shares, rechecks) of the lemma.
fn disjointness_route(via_partial_recursor: bool) -> (usize, usize) {
    let statement = Prop::imp(Prop::eq(Term::c0("k_a"), Term::c0("k_b")), Prop::False);
    let base = FamilyDef::new("PBase").inductive(
        "d0",
        vec![CtorSig::new("k_a", vec![]), CtorSig::new("k_b", vec![])],
    );
    let base = if via_partial_recursor {
        base.theorem(
            "a_neq_b",
            statement,
            vec![Tactic::Intro, Tactic::FDiscriminate("H".into())],
        )
    } else {
        base.reprove_lemma(
            "a_neq_b",
            statement,
            vec![Tactic::Intro, Tactic::Discriminate("H".into())],
            &["d0"],
        )
    };
    let extra = (0..3)
        .map(|i| CtorSig::new(&format!("k_extra{i}"), vec![]))
        .collect();
    let derived = FamilyDef::extending("PDerived", "PBase").extend_inductive("d0", extra);
    let mut u = FamilyUniverse::new();
    u.define(base).unwrap();
    u.define(derived).unwrap();
    let ledger = &u.family("PDerived").unwrap().ledger;
    let count = |units: Vec<String>| units.iter().filter(|n| n.contains("a_neq_b")).count();
    (count(ledger.shared()), count(ledger.checked()))
}

#[test]
fn s3_6_partial_recursor_lemma_is_shared_closed_world_lemma_reproved() {
    assert_eq!(disjointness_route(true), (1, 0), "fdiscriminate route");
    assert_eq!(disjointness_route(false), (0, 1), "closed-world route");
}

/// CS1-share: over the Venn lattice the family route checks 405 units —
/// base `STLC`'s 43 plus 362 over the 15 variants — where copying the
/// code into 15 standalone developments checks 1109.
#[test]
fn cs1_share_family_route_vs_copy_paste() {
    let mut u = FamilyUniverse::new();
    let rows = define_lattice(&mut u, &Feature::all());
    assert_eq!(rows.len(), 16);
    assert_eq!(rows[0], ("STLC".to_string(), 43));
    let family_route: usize = rows.iter().map(|(_, checked)| checked).sum();
    assert_eq!(family_route, 405);
    assert_eq!(family_route - rows[0].1, 362);

    let subsets = venn_subsets();
    assert_eq!(subsets.len(), 15);
    let mut copy_paste = 0;
    for features in &subsets {
        let cost = baseline::standalone_cost(features).expect("standalone copy elaborates");
        assert_eq!(cost.name, variant_name(features));
        copy_paste += cost.checked;
    }
    assert_eq!(copy_paste, 1109);
}

/// The CS1-share addendum's session series: the extended lattice reads
/// 1492 hits / 572 misses / 572 inserts; the Venn lattice 610 / 286 / 286
/// cold, and a rebuild in a second universe on the warm session adds
/// 896 hits and nothing else.
#[test]
fn cs1_share_session_series() {
    let mut ext = FamilyUniverse::new();
    define_lattice(&mut ext, &Feature::all_extended());
    let s = ext.session().snapshot_stats();
    assert_eq!((s.hits, s.misses, s.inserts), (1492, 572, 572));

    let session = Session::new();
    define_lattice(
        &mut FamilyUniverse::with_session(session.clone()),
        &Feature::all(),
    );
    let cold = session.snapshot_stats();
    assert_eq!((cold.hits, cold.misses, cold.inserts), (610, 286, 286));
    define_lattice(
        &mut FamilyUniverse::with_session(session.clone()),
        &Feature::all(),
    );
    let warm = session.snapshot_stats();
    assert_eq!(
        (
            warm.hits - cold.hits,
            warm.misses - cold.misses,
            warm.inserts - cold.inserts
        ),
        (896, 0, 0)
    );
}
