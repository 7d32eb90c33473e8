//! The full Venn-diagram lattice: 15 STLC variants, all type-safe
//! (Section 7, case study 1).

use std::sync::Arc;

use families_stlc::{lattice, subset_defs, Feature, LatticeReport};
use fpop::sched::default_workers;
use fpop::universe::FamilyUniverse;
use objlang::sig::{FnDef, Signature};

/// EXPERIMENTS.md's CS1 table, row for row in canonical plan order:
/// (variant, merged fields, units checked, units shared) of a cold build.
const CS1: [(&str, usize, usize, usize); 16] = [
    ("STLC", 29, 43, 0),
    ("STLCFix", 30, 15, 33),
    ("STLCProd", 34, 30, 31),
    ("STLCSum", 35, 32, 31),
    ("STLCIsorec", 35, 27, 31),
    ("STLCFixProd", 35, 18, 48),
    ("STLCFixSum", 36, 19, 49),
    ("STLCProdSum", 40, 23, 58),
    ("STLCFixIsorec", 36, 19, 44),
    ("STLCProdIsorec", 40, 23, 53),
    ("STLCSumIsorec", 41, 24, 54),
    ("STLCFixProdSum", 41, 24, 62),
    ("STLCFixProdIsorec", 41, 24, 57),
    ("STLCFixSumIsorec", 42, 25, 58),
    ("STLCProdSumIsorec", 46, 29, 67),
    ("STLCFixProdSumIsorec", 47, 30, 71),
];

/// Proof obligations a cold Venn-lattice build misses on, and proofs it
/// commits (CS1-share in EXPERIMENTS.md).
const COLD_MISSES: u64 = 286;

fn assert_cs1(report: &LatticeReport, build: &str) {
    let rows: Vec<(&str, usize, usize, usize)> = report
        .rows
        .iter()
        .map(|r| (r.name.as_str(), r.fields, r.checked, r.shared))
        .collect();
    assert_eq!(rows, CS1, "{build} build disagrees with the CS1 table");
}

#[test]
fn venn_lattice_all_typesafe() {
    let mut u = FamilyUniverse::new();
    let plan = lattice::Plan::new(&Feature::all()).unwrap();
    let report = lattice::build(&mut u, &plan, default_workers()).expect("lattice must compile");
    assert_eq!(report.rows.len(), 16); // base + 15 variants
    for row in &report.rows {
        let out = u.check(&row.name, "typesafe").unwrap();
        assert!(out.contains(&format!("{}.typesafe", row.name)), "{out}");
        assert!(u.family(&row.name).unwrap().assumptions.is_empty());
    }
    // Composites reuse heavily.
    let quad = report
        .rows
        .iter()
        .find(|r| r.name == "STLCFixProdSumIsorec")
        .unwrap();
    assert!(quad.reuse_ratio > 0.6, "quad reuse {}", quad.reuse_ratio);
    assert_cs1(&report, "default-width DAG");
    println!("{}", report.to_table());
}

#[test]
fn dag_build_reproduces_cs1_and_the_session_series() {
    let mut u = FamilyUniverse::new();
    let plan = lattice::Plan::new(&Feature::all()).unwrap();
    let report = lattice::build(&mut u, &plan, 1).expect("lattice builds");
    assert_cs1(&report, "1-worker DAG");
    let cold = u.session().snapshot_stats();
    assert_eq!((cold.misses, cold.inserts), (COLD_MISSES, COLD_MISSES));

    // A warm rebuild on the same session proves nothing new.
    let mut warm_u = FamilyUniverse::with_session(u.session().clone());
    lattice::build(&mut warm_u, &plan, 1).expect("warm lattice builds");
    let warm = u.session().snapshot_stats();
    assert_eq!(
        (warm.misses - cold.misses, warm.inserts - cold.inserts),
        (0, 0)
    );

    // A served redefine answers with the same variants and field counts.
    let (_, reply, _) =
        lattice::redefine(u.session(), &plan, "STLCFix", "typesafe", 1).expect("redefine rechecks");
    let rows: Vec<(&str, usize)> = reply
        .rows
        .iter()
        .map(|r| (r.name.as_str(), r.fields))
        .collect();
    let table: Vec<(&str, usize)> = CS1.iter().map(|&(n, f, _, _)| (n, f)).collect();
    assert_eq!(rows, table);
}

/// A family's code-cache lookups: compiling a family looks up every
/// recursive or alias function of its signature once.
fn compilable_functions(sig: &Signature) -> u64 {
    sig.functions()
        .filter(|f| matches!(f, FnDef::Rec(_) | FnDef::Alias(_)))
        .count() as u64
}

/// A redefine warms the code cache for the variant it re-ran and for no
/// variant it served from the memo: the cache counts one lookup per
/// recursive or alias function of `STLCFix`, not of all 16 variants.
#[test]
fn a_redefine_warms_the_code_cache_only_for_the_variant_it_reran() {
    let mut u = FamilyUniverse::new();
    let plan = lattice::Plan::new(&Feature::all()).unwrap();
    lattice::build(&mut u, &plan, 1).expect("lattice builds");
    let lookups = || {
        let count = |kind: &str| {
            let name = format!("fpop_session_code_cache_{kind}_total");
            u.session().registry().counter_value(&name).expect(&name)
        };
        count("hits") + count("misses")
    };
    let all: u64 = u.families().map(|f| compilable_functions(&f.sig)).sum();
    assert_eq!(lookups(), all, "the cold build warms every variant once");

    let before = lookups();
    let (_, _, outcome) =
        lattice::redefine(u.session(), &plan, "STLCFix", "typesafe", 1).expect("redefine rechecks");
    assert_eq!(outcome.ran, ["STLCFix"]);
    let fix = compilable_functions(&u.family("STLCFix").expect("STLCFix is built").sig);
    assert!(fix > 0 && fix < all);
    assert_eq!(lookups() - before, fix);
}

#[test]
fn replanning_shares_the_field_lists_of_unchanged_variants() {
    let feats = Feature::all();
    let mut u = FamilyUniverse::new();
    let plan = lattice::Plan::new(&feats).unwrap();
    lattice::build(&mut u, &plan, 1).expect("lattice builds");
    let resident = |name: &str| u.family(name).expect("variant is resident");

    // Nothing edited: every merge is the resident family's own list.
    let defs = subset_defs(&feats);
    let replan = u.replan_after_edit(defs.iter()).expect("lattice replans");
    assert_eq!(replan.len(), 16);
    for m in &replan {
        let c = resident(m.name.as_str());
        assert!(Arc::ptr_eq(&m.fields, &c.fields), "{} was copied", m.name);
        assert_eq!(m.src_digest, c.src_digest, "{}", m.name);
    }

    // Edit STLCFix: it and every variant mixing it in re-merge; the rest
    // keep sharing.
    let edited: Vec<_> = defs
        .into_iter()
        .map(|d| {
            if d.name.as_str() == "STLCFix" {
                let atom = objlang::Term::lit("edit");
                d.theorem(
                    "scratch_edit",
                    objlang::syntax::Prop::eq(atom.clone(), atom),
                    vec![objlang::tactic::Tactic::Reflexivity],
                )
            } else {
                d
            }
        })
        .collect();
    let replan = u
        .replan_after_edit(edited.iter())
        .expect("edited lattice replans");
    for m in &replan {
        let c = resident(m.name.as_str());
        let uses_fix = m.name.as_str().contains("Fix");
        assert_eq!(
            !Arc::ptr_eq(&m.fields, &c.fields),
            uses_fix,
            "{}: fresh list iff it uses the edited STLCFix",
            m.name
        );
        assert_eq!(m.src_digest != c.src_digest, uses_fix, "{}", m.name);
    }
}

#[test]
fn retrofit_obligation_enforced() {
    // Composing µ with × without the tysubst retrofit case is a static
    // error (Figure 3 / C1).
    let mut u = FamilyUniverse::new();
    u.define(families_stlc::stlc_family()).unwrap();
    u.define(families_stlc::prod::stlc_prod_family()).unwrap();
    u.define(families_stlc::isorec::stlc_isorec_family())
        .unwrap();
    let bad = fpop::family::FamilyDef::extending_with(
        "STLCProdIsorecBad",
        "STLC",
        &[Feature::Prod.family_name(), Feature::Isorec.family_name()],
    );
    let err = u.define(bad).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("tysubst") && msg.contains("ty_prod"),
        "got: {msg}"
    );
}

#[test]
fn value_irreducibility_across_the_lattice() {
    // The new metatheorem `value_irred` (values don't step) is inherited by
    // every variant, with feature-added value forms handled by the
    // retroactive FInduction cases.
    let mut u = FamilyUniverse::new();
    let plan = lattice::Plan::new(&Feature::all_extended()).unwrap();
    let report = lattice::build(&mut u, &plan, default_workers()).unwrap();
    for row in &report.rows {
        let out = u.check(&row.name, "value_irred").unwrap();
        assert!(out.contains(&format!("{}.value_irred", row.name)), "{out}");
    }
}
