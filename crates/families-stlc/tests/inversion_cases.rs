//! Pins the exact cases `inversion` produces on the top Venn variant's
//! typing (`hasty`) and step (`step`) relations.
//!
//! Inversion is the closed-world step every reprove-on-extend lemma runs
//! (paper §7): it enumerates the predicate's rules, drops those whose
//! conclusion clashes with the inverted hypothesis on a constructor, and
//! turns each surviving rule into a case with freshly named binders, index
//! equations (substituted where they determine a variable) and premise
//! hypotheses. A case is rendered with its variables, hypothesis names,
//! hypotheses and goal, so any change to which rules survive, the fresh
//! names they get, or the order of their hypotheses shows up here.

use std::sync::Arc;

use families_stlc::util::{c, c0, empty, hasty, step, v};
use families_stlc::{lattice, Feature};
use fpop::universe::FamilyUniverse;
use objlang::proof::Sequent;
use objlang::sig::Signature;
use objlang::syntax::{Prop, Sort};
use objlang::{sym, ProofState};

/// The cases, captured from the kernel before inversion learned to drop
/// clashing rules before building their cases.
const EXPECTED: &str = include_str!("data/inversion_cases.txt");

fn top_variant() -> Arc<Signature> {
    let mut u = FamilyUniverse::new();
    let plan = lattice::Plan::new(&Feature::all()).unwrap();
    lattice::build(&mut u, &plan, 1).expect("Venn lattice builds");
    Arc::clone(&u.family("STLCFixProdSumIsorec").expect("top variant").sig)
}

/// Inverts hypothesis `H : hyp` in a closed-world proof of `goal` with the
/// given variables, and renders every produced case.
fn invert(sig: &Signature, vars: &[(&str, &str)], hyp: Prop, goal: Prop) -> String {
    let seq = Sequent {
        vars: vars
            .iter()
            .map(|(x, s)| {
                let sort = if *s == "id" { Sort::Id } else { Sort::named(s) };
                (sym(x), sort)
            })
            .collect(),
        hyps: vec![(sym("Hother"), goal), (sym("H"), hyp)],
        goal,
    };
    let mut st = ProofState::with_sequent(sig, seq).unwrap();
    st.closed_world = true;
    st.inversion("H").unwrap();
    let mut out = format!("{} case(s)\n", st.num_goals());
    for (i, case) in st.goals().iter().enumerate() {
        out.push_str(&format!("-- case {i}\n{case}"));
    }
    out
}

#[test]
fn inversion_cases_on_the_top_variant() {
    let sig = top_variant();
    let sig = &sig;
    let arrow = |a, b| c("ty_arrow", vec![a, b]);
    let cases = [
        // application (typing)
        invert(
            sig,
            &[("G", "env"), ("t1", "tm"), ("t2", "tm"), ("T", "ty")],
            hasty(v("G"), c("tm_app", vec![v("t1"), v("t2")]), v("T")),
            hasty(v("G"), v("t1"), v("T")),
        ),
        // abstraction (typing), at an arrow type
        invert(
            sig,
            &[("x", "id"), ("b", "tm"), ("T1", "ty"), ("T2", "ty")],
            hasty(
                empty(),
                c("tm_abs", vec![v("x"), v("b")]),
                arrow(v("T1"), v("T2")),
            ),
            hasty(empty(), v("b"), v("T2")),
        ),
        // variable (typing)
        invert(
            sig,
            &[("G", "env"), ("x", "id"), ("T", "ty")],
            hasty(v("G"), c("tm_var", vec![v("x")]), v("T")),
            Prop::False,
        ),
        // an unconstrained term: every typing rule survives
        invert(
            sig,
            &[("G", "env"), ("t", "tm"), ("T", "ty")],
            hasty(v("G"), v("t"), v("T")),
            Prop::False,
        ),
        // projection (typing and step)
        invert(
            sig,
            &[("G", "env"), ("t", "tm"), ("T", "ty")],
            hasty(v("G"), c("tm_fst", vec![v("t")]), v("T")),
            Prop::False,
        ),
        invert(
            sig,
            &[("t", "tm"), ("t'", "tm")],
            step(c("tm_fst", vec![v("t")]), v("t'")),
            step(v("t"), v("t'")),
        ),
        // application (step)
        invert(
            sig,
            &[("t1", "tm"), ("t2", "tm"), ("t'", "tm")],
            step(c("tm_app", vec![v("t1"), v("t2")]), v("t'")),
            Prop::False,
        ),
        // clashes below the top constructor: a projection of a unit, and
        // an application of a variable (no `st_beta` case)
        invert(
            sig,
            &[("t'", "tm")],
            step(c("tm_fst", vec![c0("tm_unit")]), v("t'")),
            Prop::False,
        ),
        invert(
            sig,
            &[("x", "id"), ("t2", "tm"), ("t'", "tm")],
            step(
                c("tm_app", vec![c("tm_var", vec![v("x")]), v("t2")]),
                v("t'"),
            ),
            step(v("t2"), v("t'")),
        ),
        // no rule matches
        invert(
            sig,
            &[("t'", "tm")],
            step(c0("tm_unit"), v("t'")),
            Prop::False,
        ),
        invert(
            sig,
            &[("T1", "ty"), ("T2", "ty")],
            hasty(empty(), c0("tm_unit"), arrow(v("T1"), v("T2"))),
            Prop::False,
        ),
    ];
    let mut got = String::new();
    for (i, text) in cases.iter().enumerate() {
        got.push_str(&format!("==== scenario {i}\n{text}\n"));
    }
    assert_eq!(
        got.trim_end(),
        EXPECTED.trim_end(),
        "inversion produced different cases on the top Venn variant"
    );
}
