//! The Section 7 Venn diagram: all 15 STLC feature combinations
//! (ε fixpoints, × products, + sums, µ iso-recursive types), composed as
//! mixins, each with an inherited type-safety theorem — including the
//! Figure 3 retrofit obligation (`tysubst` must cover `ty_prod`/`ty_sum`
//! whenever µ meets × or +).
//!
//! Run with: `cargo run --release --example stlc_extensions`

use families_stlc::{lattice, Feature};
use fpop::sched::default_workers;
use fpop::universe::FamilyUniverse;

fn main() {
    let mut universe = FamilyUniverse::new();
    let t = std::time::Instant::now();
    let plan = lattice::Plan::new(&Feature::all()).expect("lattice plans");
    let report =
        lattice::build(&mut universe, &plan, default_workers()).expect("lattice must compile");
    println!(
        "Built the full composition lattice ({} variants) in {:.2?}:\n",
        report.rows.len(),
        t.elapsed()
    );
    println!("{}", report.to_table());

    // Every variant's typesafe is available under its qualified name.
    for row in &report.rows {
        let out = universe.check(&row.name, "typesafe").unwrap();
        assert!(out.contains(&format!("{}.typesafe", row.name)));
    }
    println!(
        "All {} variants: Check <variant>.typesafe ✓",
        report.rows.len()
    );

    // The extended lattice: add the Section 6.5 STLCBool family as a fifth
    // feature — 31 variants.
    let mut u2 = FamilyUniverse::new();
    let t2 = std::time::Instant::now();
    let plan = lattice::Plan::new(&Feature::all_extended()).expect("extended lattice plans");
    let ext = lattice::build(&mut u2, &plan, default_workers()).expect("extended lattice");
    println!(
        "Extended lattice with STLCBool (5 features, {} variants) in {:.2?}; all type-safe.\n",
        ext.rows.len() - 1,
        t2.elapsed()
    );

    // The retrofit obligation is a *static error* when forgotten.
    let bad = fpop::family::FamilyDef::extending_with(
        "STLCProdIsorecForgotten",
        "STLC",
        &["STLCProd", "STLCIsorec"],
    );
    match universe.define(bad) {
        Err(e) => println!(
            "\nForgetting the Figure 3 retrofit case is rejected:\n  {}",
            first_line(&format!("{e}"))
        ),
        Ok(_) => unreachable!("the exhaustivity check must fire"),
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}
