//! The booleans extension (the Section 6.5 family, surface level) and the
//! extended 31-variant lattice.

use families_stlc::{lattice, Feature};
use fpop::universe::FamilyUniverse;

#[test]
fn stlc_bool_inherits_typesafe() {
    let mut u = FamilyUniverse::new();
    u.define(families_stlc::stlc_family()).unwrap();
    u.define(families_stlc::boolean::stlc_bool_family())
        .expect("STLCBool must compile");
    let out = u.check("STLCBool", "typesafe").unwrap();
    assert!(out.contains("STLCBool.typesafe"), "{out}");
    assert!(u.family("STLCBool").unwrap().assumptions.is_empty());
}

#[test]
fn extended_lattice_31_variants() {
    let mut u = FamilyUniverse::new();
    let plan = lattice::Plan::new(&Feature::all_extended()).unwrap();
    let report =
        lattice::build(&mut u, &plan, fpop::sched::default_workers()).expect("extended lattice");
    assert_eq!(report.rows.len(), 32); // base + 31 variants
    for row in &report.rows {
        assert!(
            u.check(&row.name, "typesafe").is_ok(),
            "{} lost typesafe",
            row.name
        );
        assert!(u.family(&row.name).unwrap().assumptions.is_empty());
    }
}
