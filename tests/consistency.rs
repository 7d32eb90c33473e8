//! Cross-crate consistency tests: the paper's soundness story end to end
//! (Sections 3.4, 5).

use fpop::family::FamilyDef;
use fpop::universe::FamilyUniverse;
use objlang::syntax::Prop;
use objlang::Tactic;

/// Section 3.4's circular-reasoning counterexample, verbatim.
#[test]
fn paper_circularity_example_rejected() {
    let mut u = FamilyUniverse::new();
    // Family A.  FLemma f : False. Admitted.  FLemma g : False := f.  End A.
    u.define(FamilyDef::new("A").admitted("f", Prop::False).theorem(
        "g",
        Prop::False,
        vec![Tactic::ApplyFact("f".into(), vec![])],
    ))
    .unwrap();
    // A is openly inconsistent — but only via the *Admitted* axiom, which
    // the assumption audit reports.
    assert_eq!(u.family("A").unwrap().assumptions.len(), 1);

    // Family B extends A.  FLemma f : False := g.  (* circular — rejected *)
    let b = FamilyDef::extending("B", "A")
        .override_theorem("f", vec![Tactic::ApplyFact("g".into(), vec![])]);
    let err = u.define(b).unwrap_err();
    assert!(
        format!("{err}").contains("g"),
        "the override must fail to see g (context preservation): {err}"
    );
}

/// The kernel-level counterpart: ⊥ stays uninhabited (Theorem 5.1).
#[test]
fn kernel_bot_uninhabited() {
    use fmltt::Tm;
    use std::rc::Rc;
    for candidate in [
        Tm::Unit,
        Tm::True,
        Tm::False,
        Tm::Lam(Rc::new(Tm::Var(0))),
        Tm::Pair(Rc::new(Tm::Unit), Rc::new(Tm::Unit)),
        Tm::Refl(Rc::new(Tm::True)),
    ] {
        assert!(
            fmltt::canon::refutes_bot(&candidate),
            "{candidate} must not check at ⊥"
        );
    }
}

/// The object-logic kernel refuses closed-world reasoning on extensible
/// types outside reprove-on-extend proofs (C1) — the property that makes
/// cross-family proof reuse sound.
#[test]
fn open_world_restriction_enforced() {
    use objlang::sig::{CtorSig, Datatype};
    use objlang::{ProofState, Signature, Sort, Term};

    let mut sig = Signature::new();
    objlang::prelude::install(&mut sig).unwrap();
    sig.add_datatype(Datatype {
        name: objlang::sym("open_d"),
        ctors: vec![CtorSig::new("od_a", vec![])],
        extensible: true,
    })
    .unwrap();
    let goal = Prop::forall(
        "t",
        Sort::named("open_d"),
        Prop::eq(Term::var("t"), Term::var("t")),
    );
    let mut st = ProofState::new(&sig, goal).unwrap();
    let t = st.intro().unwrap();
    // Case analysis and induction both refused.
    assert!(st.case_split(&Term::Var(t)).is_err());
    assert!(st.induction(t.as_str()).is_err());
}

/// Every family in the full STLC lattice closes with an empty assumption
/// audit — the paper's `Print Assumptions` criterion (Section 4).
#[test]
fn lattice_assumption_audit_clean() {
    let mut u = FamilyUniverse::new();
    let plan = families_stlc::lattice::Plan::new(&families_stlc::Feature::all()).unwrap();
    let report =
        families_stlc::lattice::build(&mut u, &plan, fpop::sched::default_workers()).unwrap();
    for row in &report.rows {
        let fam = u.family(&row.name).unwrap();
        assert!(
            fam.assumptions.is_empty(),
            "{}: {:?}",
            row.name,
            fam.assumptions
        );
    }
}

/// The Imp framework's parameters are the *only* assumptions, and the
/// instances discharge all of them.
#[test]
fn imp_assumption_audit() {
    let mut u = FamilyUniverse::new();
    u.define(families_imp::imp_family()).unwrap();
    u.define(families_imp::imp_gai_family()).unwrap();
    u.define(families_imp::imp_ti_family()).unwrap();
    u.define(families_imp::imp_cp_family()).unwrap();
    assert_eq!(u.family("ImpGAI").unwrap().assumptions.len(), 6);
    assert!(u.family("ImpTI").unwrap().assumptions.is_empty());
    assert!(u.family("ImpCP").unwrap().assumptions.is_empty());
}
