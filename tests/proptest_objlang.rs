//! Property-based tests for the object-logic substrate: substitution
//! invariants, evaluator/equation agreement, and the partial-recursor
//! consequences of Section 3.6 / Theorem 3.1.
//!
//! Formerly written against `proptest`; now a seeded random-input suite
//! on the shared `testkit` harness, so the repository tests build with no
//! external dependencies (and therefore with no network access). Failing
//! cases print a `FPOP_TEST_SEED=0x…` replay recipe; `FPOP_TEST_ITERS`
//! scales every case count (the nightly deep-fuzz job).

#[path = "support/rng.rs"]
mod rng;

use rng::{run_cases, Rng};
use std::collections::HashMap;

use objlang::sig::{CtorSig, Datatype, Signature};
use objlang::syntax::{Prop, Sort, Term};
use objlang::{sym, ProofState, Symbol};

fn nat_sig() -> Signature {
    let mut s = Signature::new();
    objlang::prelude::install(&mut s).unwrap();
    objlang::prelude::install_nat_add(&mut s).unwrap();
    s
}

/// Generator of closed nat terms built from zero/succ/add, with their
/// meta-level value.
fn nat_term(r: &mut Rng, depth: u32) -> (Term, u64) {
    if depth == 0 || r.below(3) == 0 {
        let n = r.below(5);
        (objlang::eval::nat_lit(n), n)
    } else if r.flip() {
        let (t, n) = nat_term(r, depth - 1);
        (Term::ctor("succ", vec![t]), n + 1)
    } else {
        let (a, n) = nat_term(r, depth - 1);
        let (b, m) = nat_term(r, depth - 1);
        (Term::func("add", vec![a, b]), n + m)
    }
}

/// Generator of open terms over the fixed variable set {vx, vy}.
fn open_term(r: &mut Rng, depth: u32) -> Term {
    if depth == 0 || r.below(3) == 0 {
        match r.below(3) {
            0 => Term::var("vx"),
            1 => Term::var("vy"),
            _ => objlang::eval::nat_lit(r.below(3)),
        }
    } else if r.flip() {
        Term::ctor("succ", vec![open_term(r, depth - 1)])
    } else {
        Term::func(
            "add",
            vec![open_term(r, depth - 1), open_term(r, depth - 1)],
        )
    }
}

/// The evaluator agrees with the meta-level meaning of add-chains — i.e.
/// with the computation equations it is justified by.
#[test]
fn eval_agrees_with_meaning() {
    let s = nat_sig();
    run_cases("eval_agrees_with_meaning", 0xA11CE, 256, |r| {
        let (t, n) = nat_term(r, 5);
        let v = objlang::eval::eval_default(&s, &t).unwrap();
        assert_eq!(objlang::eval::nat_value(&v), Some(n), "term {t:?}");
    });
}

/// Substitution commutes with evaluation: eval(t[x:=a]) computed in one
/// step equals substituting the evaluated pieces.
#[test]
fn subst_then_eval_composes() {
    let s = nat_sig();
    run_cases("subst_then_eval_composes", 0xB0B, 256, |r| {
        let t = open_term(r, 4);
        let a = r.below(4);
        let b = r.below(4);
        let mut m = HashMap::new();
        m.insert(sym("vx"), objlang::eval::nat_lit(a));
        m.insert(sym("vy"), objlang::eval::nat_lit(b));
        let closed = t.subst(&m);
        let v1 = objlang::eval::eval_default(&s, &closed).unwrap();
        // Substituting twice is idempotent on the closed result.
        let closed2 = closed.subst(&m);
        let v2 = objlang::eval::eval_default(&s, &closed2).unwrap();
        assert_eq!(v1, v2, "term {t:?}");
    });
}

/// Free variables after substitution never include the substituted
/// variable.
#[test]
fn subst_removes_variable() {
    run_cases("subst_removes_variable", 0xC0FFEE, 256, |r| {
        let t = open_term(r, 4);
        let t2 = t.subst1(sym("vx"), &objlang::eval::nat_lit(0));
        assert!(!t2.free_vars().contains(&sym("vx")), "term {t:?}");
    });
}

/// Prop substitution is capture-avoiding: the bound variable of a ∀ never
/// captures a substituted term.
#[test]
fn prop_subst_capture_avoiding() {
    run_cases("prop_subst_capture_avoiding", 0xD00D, 256, |r| {
        let t = open_term(r, 4);
        let p = Prop::forall(
            "vx",
            Sort::named("nat"),
            Prop::eq(Term::var("vx"), Term::var("vz")),
        );
        let q = p.subst1(sym("vz"), &t);
        // The binder was renamed iff t mentions vx; either way the result
        // is alpha-stable under a second disjoint substitution.
        let q2 = q.subst1(sym("vz"), &Term::c0("zero"));
        assert!(q.alpha_eq(&q2), "term {t:?}");
    });
}

/// Section 3.6 / Theorem 3.1: for randomly shaped extensible datatypes,
/// the registered partial recursor licenses the disjointness and
/// injectivity of every pair of constructors — and the licence survives
/// extension.
mod prec {
    use super::*;

    fn arb_ctor_arities(r: &mut Rng) -> Vec<usize> {
        let len = r.range(2, 5) as usize;
        (0..len).map(|_| r.below(3) as usize).collect()
    }

    fn build_sig(arities: &[usize], extensible: bool) -> (Signature, Vec<Symbol>) {
        let mut s = Signature::new();
        objlang::prelude::install(&mut s).unwrap();
        let name = sym("gen_d");
        let ctors: Vec<CtorSig> = arities
            .iter()
            .enumerate()
            .map(|(i, a)| CtorSig {
                name: sym(&format!("gen_c{i}")),
                args: vec![Sort::named("nat"); *a],
            })
            .collect();
        let names = ctors.iter().map(|c| c.name).collect();
        s.add_datatype(Datatype {
            name,
            ctors,
            extensible,
        })
        .unwrap();
        if extensible {
            s.add_partial_recursor(name, sym("GenFam")).unwrap();
        }
        (s, names)
    }

    fn saturate(c: Symbol, arity: usize, base: u64) -> Term {
        Term::Ctor(
            c,
            (0..arity)
                .map(|i| objlang::eval::nat_lit(base + i as u64))
                .collect(),
        )
    }

    /// Disjointness of distinct constructors is provable via the
    /// partial-recursor licence for every generated datatype.
    #[test]
    fn disjointness_for_generated_datatypes() {
        run_cases("disjointness_for_generated_datatypes", 0x1111, 64, |r| {
            let arities = arb_ctor_arities(r);
            let (sig, names) = build_sig(&arities, true);
            for i in 0..names.len() {
                for j in 0..names.len() {
                    if i == j {
                        continue;
                    }
                    let lhs = saturate(names[i], arities[i], 0);
                    let rhs = saturate(names[j], arities[j], 0);
                    let goal = Prop::imp(Prop::Eq(lhs, rhs), Prop::False);
                    let mut st = ProofState::new(&sig, goal).unwrap();
                    st.intro().unwrap();
                    st.discriminate("H").unwrap();
                    st.qed().unwrap();
                }
            }
        });
    }

    /// Injectivity: `C x̄ = C ȳ → xᵢ = yᵢ` via the licence.
    #[test]
    fn injectivity_for_generated_datatypes() {
        run_cases("injectivity_for_generated_datatypes", 0x2222, 64, |r| {
            let arities = arb_ctor_arities(r);
            let (sig, names) = build_sig(&arities, true);
            for (i, &arity) in arities.iter().enumerate() {
                if arity == 0 {
                    continue;
                }
                let lhs = saturate(names[i], arity, 0);
                let rhs = saturate(names[i], arity, 10);
                let goal = Prop::imp(
                    Prop::Eq(lhs, rhs),
                    Prop::eq(objlang::eval::nat_lit(0), objlang::eval::nat_lit(10)),
                );
                let mut st = ProofState::new(&sig, goal).unwrap();
                st.intro().unwrap();
                st.injection("H").unwrap();
                // The first component equality is now a hypothesis.
                st.exact("Hi").unwrap();
            }
        });
    }

    /// Without a partial recursor, the same reasoning is refused on
    /// extensible datatypes (C1 enforcement is not accidental).
    #[test]
    fn no_licence_no_disjointness() {
        run_cases("no_licence_no_disjointness", 0x3333, 64, |r| {
            let arities = arb_ctor_arities(r);
            // Declare as extensible but WITHOUT a partial recursor.
            let mut s2 = Signature::new();
            objlang::prelude::install(&mut s2).unwrap();
            let ctors: Vec<CtorSig> = arities
                .iter()
                .enumerate()
                .map(|(i, a)| CtorSig {
                    name: sym(&format!("gen_e{i}")),
                    args: vec![Sort::named("nat"); *a],
                })
                .collect();
            s2.add_datatype(Datatype {
                name: sym("gen_e"),
                ctors: ctors.clone(),
                extensible: true,
            })
            .unwrap();
            let sig = s2;
            let lhs = saturate(ctors[0].name, arities[0], 0);
            let rhs = saturate(ctors[1].name, arities[1], 0);
            let goal = Prop::imp(Prop::Eq(lhs, rhs), Prop::False);
            let mut st = ProofState::new(&sig, goal).unwrap();
            st.intro().unwrap();
            assert!(st.discriminate("H").is_err());
        });
    }
}

/// The STLC family's closed signature is executable: substitution behaves
/// like textbook capture-avoiding substitution on sampled terms.
mod stlc_exec {
    use super::*;
    use fpop::universe::FamilyUniverse;

    fn stlc_closed_sig() -> Signature {
        let mut u = FamilyUniverse::new();
        u.define(families_stlc::stlc_family()).unwrap();
        (*u.family("STLC").unwrap().sig).clone()
    }

    /// subst (λy. x) x s replaces free occurrences under non-shadowing
    /// binders and respects shadowing.
    #[test]
    fn subst_respects_shadowing() {
        let sig = stlc_closed_sig();
        for shadow in [false, true] {
            let binder = if shadow { "x" } else { "y" };
            let body = Term::ctor(
                "tm_abs",
                vec![
                    Term::lit(binder),
                    Term::ctor("tm_var", vec![Term::lit("x")]),
                ],
            );
            let result = objlang::eval::eval_default(
                &sig,
                &Term::func("subst", vec![body, Term::lit("x"), Term::c0("tm_unit")]),
            )
            .unwrap();
            let expected_inner = if shadow {
                Term::ctor("tm_var", vec![Term::lit("x")])
            } else {
                Term::c0("tm_unit")
            };
            assert_eq!(
                result,
                Term::ctor("tm_abs", vec![Term::lit(binder), expected_inner])
            );
        }
    }
}
