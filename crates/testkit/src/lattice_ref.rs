//! The sequential lattice reference and the report comparator.
//!
//! [`build_sequential`] builds a sub-lattice the plain way: it walks
//! [`subset_plan`] order and hands each definition to
//! [`FamilyUniverse::define`], one variant after another, with no task
//! graph, no detached worlds and no elaboration memo. The library's
//! task-DAG builds (`families_stlc::lattice::{build, rebuild, redefine}`)
//! promise reports, ledgers and session contents identical to this walk
//! whatever their worker count; the differential oracles and the
//! `lattice/build_cold` and `lattice/full_rebuild_warm` bench rows hold
//! them to it.

use std::time::{Duration, Instant};

use families_stlc::lattice::{
    plan_with_defs, subset_plan, Feature, LatticeReport, PlanEntry, VariantStat,
};
use fpop::family::FamilyDef;
use fpop::universe::FamilyUniverse;
use objlang::error::Result;

/// Defines every variant of the sub-lattice spanned by `features` in `u`,
/// in plan order; returns one row per variant.
///
/// # Errors
///
/// Propagates any elaboration failure.
pub fn build_sequential(u: &mut FamilyUniverse, features: &[Feature]) -> Result<LatticeReport> {
    define_plan(u, subset_plan(features))
}

/// [`build_sequential`] over an edited definition list (as produced by
/// `subset_defs` and then modified): the from-scratch control for the
/// incremental `rebuild`.
///
/// # Errors
///
/// Rejects a definition list that does not name the plan's variants in
/// plan order (the check of [`plan_with_defs`]); propagates any
/// elaboration failure.
pub fn build_sequential_defs(
    u: &mut FamilyUniverse,
    features: &[Feature],
    defs: Vec<FamilyDef>,
) -> Result<LatticeReport> {
    define_plan(u, plan_with_defs(features, defs)?)
}

/// Defines each entry of `plan` in order, recording its row.
fn define_plan(u: &mut FamilyUniverse, plan: Vec<PlanEntry>) -> Result<LatticeReport> {
    let mut report = LatticeReport::default();
    for entry in plan {
        let name = entry.def.name.to_string();
        let t = Instant::now();
        u.define(entry.def)?;
        report.rows.push(record(u, &name, entry.arity, t.elapsed()));
    }
    Ok(report)
}

fn record(u: &FamilyUniverse, name: &str, arity: usize, elapsed: Duration) -> VariantStat {
    let fam = u.family(name).expect("just defined");
    VariantStat {
        name: name.to_string(),
        arity,
        fields: fam.fields.len(),
        checked: fam.ledger.checked_count(),
        shared: fam.ledger.shared_count(),
        reuse_ratio: fam.ledger.reuse_ratio(),
        elapsed,
    }
}

/// Compares two report rows modulo wall time: name, arity, fields, units
/// checked and units shared.
///
/// # Errors
///
/// Describes the first difference.
pub fn rows_match(a: &VariantStat, b: &VariantStat) -> std::result::Result<(), String> {
    if a.name != b.name {
        return Err(format!("variant order differs: {} vs {}", a.name, b.name));
    }
    let stat = |r: &VariantStat| (r.arity, r.fields, r.checked, r.shared);
    if stat(a) != stat(b) {
        return Err(format!(
            "{}: (arity, fields, checked, shared) = {:?} vs {:?}",
            a.name,
            stat(a),
            stat(b)
        ));
    }
    Ok(())
}

/// Compares two reports row by row with [`rows_match`].
///
/// # Errors
///
/// Describes the first difference, or a differing row count.
pub fn reports_match(a: &LatticeReport, b: &LatticeReport) -> std::result::Result<(), String> {
    if a.rows.len() != b.rows.len() {
        return Err(format!(
            "row count differs: {} vs {}",
            a.rows.len(),
            b.rows.len()
        ));
    }
    a.rows
        .iter()
        .zip(&b.rows)
        .try_for_each(|(x, y)| rows_match(x, y))
}
