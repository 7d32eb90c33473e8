//! The exact counts behind EXPERIMENTS.md's paper-facing claims: F1/F2,
//! F4/F5, CS1-share and its session-cache addendum.
//!
//! Every family here is defined through [`FamilyUniverse::define`] in the
//! lattice's canonical plan order ([`subset_defs`]), so the counts do not
//! depend on which lattice builder produced them. The copy-paste foil is
//! [`baseline::standalone_cost`].

use families_stlc::{subset_defs, variant_name, Feature};
use fpop::universe::FamilyUniverse;
use fpop::Session;

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
