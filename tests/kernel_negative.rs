//! Negative tests for the FMLTT kernel: the Figure 6/7 rules *reject*
//! ill-typed programs — type mismatches, out-of-range constructor indices,
//! linkage shape errors, and misuse of universes.

use fmltt::check::{check, check_closed, infer_closed, Ctx};
use fmltt::encoding;
use fmltt::{Tm, Ty};
use std::rc::Rc;

fn rc<T>(x: T) -> Rc<T> {
    Rc::new(x)
}

#[test]
fn branch_type_mismatch_rejected() {
    // if tt then () else ff  at B — the true branch is not a boolean.
    let t = Tm::If(rc(Tm::True), rc(Tm::Unit), rc(Tm::False), rc(Ty::Bool));
    assert!(check_closed(&t, &Ty::Bool).is_err());
}

#[test]
fn application_domain_mismatch_rejected() {
    // (λx:B. x) ()  — argument has type ⊤.
    let t = Tm::app_to(Tm::Lam(rc(Tm::Var(0))), Tm::Unit);
    assert!(check_closed(&t, &Ty::Bool).is_err());
}

#[test]
fn unbound_variable_rejected() {
    assert!(infer_closed(&Tm::Var(0)).is_err());
}

#[test]
fn fst_of_non_pair_rejected() {
    assert!(infer_closed(&Tm::Fst(rc(Tm::True))).is_err());
}

#[test]
fn el_of_non_code_rejected() {
    // El(tt) — tt is not a universe inhabitant.
    let ty = Ty::El(rc(Tm::True));
    assert!(fmltt::check::check_ty(&Ctx::new(), &ty).is_err());
}

#[test]
fn wsup_index_out_of_range_rejected() {
    let tau = encoding::tau_tm(); // 4 constructors: indices 0..=3
    let bad = Tm::WSup(7, rc(tau.clone()), rc(Tm::Unit), rc(Tm::Var(0)));
    let wty = Ty::El(rc(Tm::WCode(rc(tau))));
    assert!(check_closed(&bad, &wty).is_err());
}

#[test]
fn wsup_argument_type_checked() {
    // tm_var expects a B argument (T_id = B); () is rejected.
    let tau = encoding::tau_tm();
    let elw = Ty::El(rc(Tm::WCode(rc(tau.clone()))));
    let bad = Tm::WSup(
        2,
        rc(tau),
        rc(Tm::Unit), // should be a boolean
        rc(Tm::Absurd(rc(elw.clone()), rc(Tm::Var(0)))),
    );
    assert!(check_closed(&bad, &elw).is_err());
}

#[test]
fn linkage_against_wrong_length_rejected() {
    // µ• against a one-field signature, and a one-field linkage against ν•.
    let sig1 = fmltt::LSig::Add(
        rc(fmltt::LSig::Nil),
        rc(Ty::Top),
        rc(Tm::Unit),
        rc(Ty::wk(Ty::Bool, 1)),
    );
    let one = Tm::LCons(rc(Tm::LNil), rc(Tm::Unit), rc(Tm::wk(Tm::True, 1)));
    let ctx = Ctx::new();
    let entries1 = fmltt::sem::eval_lsig(&fmltt::Env::new(), &sig1).unwrap();
    assert!(fmltt::check::check_linkage(&ctx, &Tm::LNil, &entries1).is_err());
    assert!(fmltt::check::check_linkage(&ctx, &one, &Vec::new()).is_err());
}

#[test]
fn linkage_field_type_checked() {
    // The field body must match the signature's field type (B here, ()
    // given).
    let sig = fmltt::LSig::Add(
        rc(fmltt::LSig::Nil),
        rc(Ty::Top),
        rc(Tm::Unit),
        rc(Ty::wk(Ty::Bool, 1)),
    );
    let bad = Tm::LCons(rc(Tm::LNil), rc(Tm::Unit), rc(Tm::wk(Tm::Unit, 1)));
    let entries = fmltt::sem::eval_lsig(&fmltt::Env::new(), &sig).unwrap();
    assert!(fmltt::check::check_linkage(&Ctx::new(), &bad, &entries).is_err());
}

#[test]
fn wrec_requires_exhaustive_cases() {
    // A case linkage with too few handlers is rejected against RecSig(τ, B).
    let tau = encoding::tau_tm();
    let short_cases = Tm::LCons(
        rc(Tm::LNil),
        rc(Tm::Var(0)),
        rc(Tm::Lam(rc(Tm::Lam(rc(Tm::True))))),
    );
    let scrut = encoding::ctors::tm_unit(&tau, 0);
    let t = Tm::WRec(rc(tau), rc(Ty::Bool), rc(short_cases), rc(scrut));
    assert!(check_closed(&t, &Ty::Bool).is_err());
}

#[test]
fn singleton_rejects_wrong_inhabitant() {
    // ff : S(tt) must fail; tt : S(tt) must succeed.
    let sty = Ty::Sing(rc(Tm::True), rc(Ty::Bool));
    assert!(check_closed(&Tm::False, &sty).is_err());
    assert!(check_closed(&Tm::True, &sty).is_ok());
}

#[test]
fn eq_requires_same_endpoint_types() {
    // refl(tt) : Eq(⊤, (), ()) is a type error.
    let ty = Ty::Eq(rc(Ty::Top), rc(Tm::Unit), rc(Tm::Unit));
    assert!(check_closed(&Tm::Refl(rc(Tm::True)), &ty).is_err());
    let ok = Ty::Eq(rc(Ty::Bool), rc(Tm::True), rc(Tm::True));
    assert!(check_closed(&Tm::Refl(rc(Tm::True)), &ok).is_ok());
}

#[test]
fn j_computes_on_refl() {
    // J with motive B and base tt, applied to refl: evaluates to the base.
    let eqty = Ty::Eq(rc(Ty::Bool), rc(Tm::True), rc(Tm::True));
    let j = Tm::J(
        rc(Ty::wk(Ty::Bool, 2)),
        rc(Tm::True),
        rc(Tm::Refl(rc(Tm::True))),
    );
    let _ = eqty;
    let got = fmltt::canon::canonical_bool(&j).unwrap();
    assert_eq!(got, fmltt::canon::CanonicalBool::True);
}

#[test]
fn universe_codes_decode() {
    // El(c(B)) ≡ B — checking tt against El(c(B)) succeeds.
    let ty = Ty::El(rc(Tm::Code(rc(Ty::Bool))));
    check_closed(&Tm::True, &ty).unwrap();
}

#[test]
fn weakening_out_of_range_rejected() {
    let t = Tm::Sub(rc(Tm::True), rc(fmltt::Sub::Wk(3)));
    let ctx = Ctx::new();
    assert!(check(&ctx, &t, &Rc::new(fmltt::VTy::Bool)).is_err());
}

/// Negative `fdiscriminate`/`finjection` paths (§3.6) across three
/// compiled lattice variants: ill-matched hypotheses are *refused* with
/// an error — never silently proved, never panicked on. The positive
/// controls beside each refusal pin that the licence itself works, so a
/// failure here means the tactic's shape check regressed, not the lattice.
mod family_tactics {
    use families_stlc::{lattice, Feature};
    use fpop::universe::FamilyUniverse;
    use objlang::sig::Signature;
    use objlang::syntax::{Prop, Term};
    use objlang::ProofState;

    /// The closed signatures of three single-feature variants.
    fn variant_sigs() -> Vec<(&'static str, Signature)> {
        let mut u = FamilyUniverse::new();
        let features = [Feature::Prod, Feature::Sum, Feature::Bool];
        let plan = lattice::Plan::new(&features).unwrap();
        lattice::build(&mut u, &plan, fpop::sched::default_workers()).expect("lattice builds");
        ["STLCProd", "STLCSum", "STLCBool"]
            .into_iter()
            .map(|n| (n, (*u.family(n).expect("variant compiled").sig).clone()))
            .collect()
    }

    fn unit() -> Term {
        Term::c0("tm_unit")
    }

    /// An unevaluated `subst` redex of sort `tm`: not a constructor form,
    /// so it can never witness a clash (distinct literals *do* clash).
    fn redex() -> Term {
        Term::func("subst", vec![unit(), Term::lit("x"), unit()])
    }

    /// Per variant, a same-constructor equality whose arguments differ
    /// only at a non-constructor position: no clash anywhere inside.
    fn same_ctor_eq(variant: &str) -> (Term, Term) {
        match variant {
            "STLCProd" => (
                Term::ctor("tm_pair", vec![redex(), unit()]),
                Term::ctor("tm_pair", vec![unit(), unit()]),
            ),
            "STLCSum" => (
                Term::ctor("tm_inl", vec![redex()]),
                Term::ctor("tm_inl", vec![unit()]),
            ),
            "STLCBool" => (
                Term::ctor("tm_ite", vec![redex(), unit(), unit()]),
                Term::ctor("tm_ite", vec![unit(), unit(), unit()]),
            ),
            other => panic!("no fixture for {other}"),
        }
    }

    /// Per variant, an equality between *distinct* constructors of the
    /// feature's datatype extension.
    fn distinct_ctor_eq(variant: &str) -> (Term, Term) {
        match variant {
            "STLCProd" => (
                Term::ctor("tm_pair", vec![unit(), unit()]),
                Term::ctor("tm_fst", vec![unit()]),
            ),
            "STLCSum" => (
                Term::ctor("tm_inl", vec![unit()]),
                Term::ctor("tm_inr", vec![unit()]),
            ),
            "STLCBool" => (Term::c0("tm_true"), Term::c0("tm_false")),
            other => panic!("no fixture for {other}"),
        }
    }

    /// `fdiscriminate` refuses a same-constructor hypothesis in every
    /// variant — while `finjection` (the correct tactic for that shape)
    /// still works on the very same hypothesis.
    #[test]
    fn same_constructor_refuses_discriminate_but_injects() {
        for (variant, sig) in variant_sigs() {
            let (lhs, rhs) = same_ctor_eq(variant);
            let goal = Prop::imp(Prop::Eq(lhs, rhs), Prop::False);
            let mut st = ProofState::new(&sig, goal.clone()).unwrap();
            st.intro().unwrap();
            let err = st.discriminate("H").expect_err(variant);
            assert!(
                err.to_string().contains("not a constructor clash"),
                "[{variant}] wrong refusal: {err}"
            );
            // Positive control: the licence is fine; injection derives
            // the component equality from the same hypothesis.
            let mut st2 = ProofState::new(&sig, goal).unwrap();
            st2.intro().unwrap();
            st2.injection("H").unwrap_or_else(|e| {
                panic!("[{variant}] injection on same-ctor equality failed: {e}")
            });
        }
    }

    /// `finjection` refuses a distinct-constructor hypothesis in every
    /// variant — while `fdiscriminate` closes the same goal outright.
    #[test]
    fn distinct_constructors_refuse_injection_but_discriminate() {
        for (variant, sig) in variant_sigs() {
            let (lhs, rhs) = distinct_ctor_eq(variant);
            let goal = Prop::imp(Prop::Eq(lhs, rhs), Prop::False);
            let mut st = ProofState::new(&sig, goal.clone()).unwrap();
            st.intro().unwrap();
            let err = st.injection("H").expect_err(variant);
            assert!(
                err.to_string().contains("not a same-constructor equality"),
                "[{variant}] wrong refusal: {err}"
            );
            // Positive control: discriminate closes the clash and qed
            // accepts the finished proof.
            let mut st2 = ProofState::new(&sig, goal).unwrap();
            st2.intro().unwrap();
            st2.discriminate("H")
                .unwrap_or_else(|e| panic!("[{variant}] clash not licensed: {e}"));
            st2.qed().unwrap();
        }
    }

    /// Both tactics refuse non-equality hypotheses and unknown hypothesis
    /// names, in every variant.
    #[test]
    fn non_equality_and_missing_hypotheses_refused() {
        for (variant, sig) in variant_sigs() {
            let goal = Prop::imp(Prop::False, Prop::False);
            let mut st = ProofState::new(&sig, goal).unwrap();
            st.intro().unwrap();
            assert!(st.discriminate("H").is_err(), "[{variant}] False clashed");
            assert!(st.injection("H").is_err(), "[{variant}] False injected");
            assert!(st.discriminate("Nope").is_err(), "[{variant}] ghost hyp");
            assert!(st.injection("Nope").is_err(), "[{variant}] ghost hyp");
        }
    }

    /// Statements mentioning constructors foreign to the variant, or
    /// equating terms of different sorts, are refused at statement-check
    /// time — before any tactic can run on them.
    #[test]
    fn foreign_and_ill_sorted_statements_refused() {
        let sigs = variant_sigs();
        // tm_pair does not exist in STLCBool; tm_true not in STLCProd.
        let foreign = [
            ("STLCBool", Term::ctor("tm_pair", vec![unit(), unit()])),
            ("STLCProd", Term::c0("tm_true")),
            ("STLCSum", Term::c0("tm_true")),
        ];
        for (variant, alien) in foreign {
            let sig = &sigs.iter().find(|(n, _)| *n == variant).unwrap().1;
            let goal = Prop::imp(Prop::Eq(alien.clone(), unit()), Prop::False);
            assert!(
                ProofState::new(sig, goal).is_err(),
                "[{variant}] foreign constructor accepted in statement"
            );
        }
        // tm-vs-ty equality is heterogeneous in every variant.
        for (variant, sig) in &sigs {
            let ty_ctor = match *variant {
                "STLCProd" => Term::ctor("ty_prod", vec![Term::c0("ty_unit"), Term::c0("ty_unit")]),
                "STLCSum" => Term::ctor("ty_sum", vec![Term::c0("ty_unit"), Term::c0("ty_unit")]),
                _ => Term::c0("ty_bool"),
            };
            let goal = Prop::imp(Prop::Eq(unit(), ty_ctor), Prop::False);
            assert!(
                ProofState::new(sig, goal).is_err(),
                "[{variant}] heterogeneous equality accepted"
            );
        }
    }
}
