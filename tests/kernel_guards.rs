//! LCF-guard tests for the object-logic kernel: every unsound move must be
//! refused, and bookkeeping primitives must behave exactly as specified.

use objlang::sig::{CtorSig, Datatype, FactKind, Signature};
use objlang::syntax::{Prop, Sort, Term};
use objlang::{sym, ProofState};

fn sig() -> Signature {
    let mut s = Signature::new();
    objlang::prelude::install(&mut s).unwrap();
    objlang::prelude::install_nat_add(&mut s).unwrap();
    s
}
fn nat() -> Sort {
    Sort::named("nat")
}

#[test]
fn qed_refuses_open_goals() {
    let s = sig();
    let st = ProofState::new(&s, Prop::True).unwrap();
    assert!(st.qed().is_err());
}

#[test]
fn exact_refuses_mismatch() {
    let s = sig();
    let goal = Prop::imp(Prop::True, Prop::False);
    let mut st = ProofState::new(&s, goal).unwrap();
    let h = st.intro().unwrap();
    assert!(st.exact(h.as_str()).is_err());
}

#[test]
fn reflexivity_is_syntactic() {
    let s = sig();
    // add zero zero = zero is true but not syntactically reflexive.
    let goal = Prop::eq(
        Term::func("add", vec![Term::c0("zero"), Term::c0("zero")]),
        Term::c0("zero"),
    );
    let mut st = ProofState::new(&s, goal).unwrap();
    assert!(st.reflexivity().is_err());
    st.fsimpl().unwrap();
    st.reflexivity().unwrap();
    st.qed().unwrap();
}

#[test]
fn rewrite_requires_an_occurrence() {
    let s = sig();
    let goal = Prop::imp(
        Prop::eq(Term::var("unused_lhs_xx"), Term::var("unused_lhs_xx")),
        Prop::True,
    );
    // Statement must be closed; use a closed variant instead.
    let goal = Prop::forall(
        "n",
        nat(),
        goal.subst1(sym("unused_lhs_xx"), &Term::var("n")),
    );
    let mut st = ProofState::new(&s, goal).unwrap();
    st.intro().unwrap();
    let h = st.intro().unwrap();
    // The goal (True) contains no occurrence of the hypothesis's lhs.
    assert!(st.rewrite(h.as_str()).is_err());
    st.trivial().unwrap();
    st.qed().unwrap();
}

/// The four ways a `rewrite` can fail, each with its exact message, in
/// both directions and inside a hypothesis.
#[test]
fn rewrite_error_texts() {
    let s = sig();
    let zero = Term::c0("zero");
    let succ = |t| Term::ctor("succ", vec![t]);
    // H1: an equation, H2: a conditional one, H3: not an equation,
    // H4: an equation whose binder `k` the left side does not determine.
    let goal = Prop::imps(
        &[
            Prop::eq(succ(zero), zero),
            Prop::imp(Prop::True, Prop::eq(zero, zero)),
            Prop::True,
            Prop::forall("k", nat(), Prop::eq(succ(zero), Term::var("k"))),
        ],
        Prop::eq(succ(zero), succ(zero)),
    );
    let mut st = ProofState::new(&s, goal).unwrap();
    for h in ["H1", "H2", "H3", "H4"] {
        st.intro_as(h).unwrap();
    }
    let text = |r: objlang::Result<()>| r.unwrap_err().to_string();
    assert_eq!(
        text(st.rewrite("add_zero_eq")),
        "rewrite: no occurrence of (add zero ?m)"
    );
    assert_eq!(
        text(st.rewrite_rev("add_succ_eq")),
        "rewrite: no occurrence of (succ (add ?n ?m))"
    );
    assert_eq!(
        text(st.rewrite_in("add_succ_eq", "H1")),
        "rewrite: no occurrence of (add (succ ?n) ?m)"
    );
    assert_eq!(
        text(st.rewrite("H2")),
        "rewrite: conditional equations are not supported"
    );
    assert_eq!(text(st.rewrite("H3")), "rewrite: not an equation: True");
    assert_eq!(
        text(st.rewrite_rev_in("H3", "H1")),
        "rewrite: not an equation: True"
    );
    assert_eq!(
        text(st.rewrite("H4")),
        "rewrite: variable ?k of the equation not determined by the match"
    );
    // A failed rewrite leaves the goal as it was.
    assert_eq!(st.focused().unwrap().goal, Prop::eq(succ(zero), succ(zero)));
    st.rewrite("H1").unwrap();
    assert_eq!(st.focused().unwrap().goal, Prop::eq(zero, zero));
}

#[test]
fn exists_checks_witness_sort() {
    let s = sig();
    let goal = Prop::exists("n", nat(), Prop::eq(Term::var("n"), Term::var("n")));
    let mut st = ProofState::new(&s, goal).unwrap();
    // An id literal is not a nat.
    assert!(st.exists(Term::lit("oops")).is_err());
    st.exists(Term::c0("zero")).unwrap();
    st.reflexivity().unwrap();
    st.qed().unwrap();
}

#[test]
fn intro_as_refuses_taken_names() {
    let s = sig();
    let goal = Prop::forall(
        "a",
        nat(),
        Prop::forall("b", nat(), Prop::eq(Term::var("a"), Term::var("a"))),
    );
    let mut st = ProofState::new(&s, goal).unwrap();
    st.intro_as("n").unwrap();
    assert!(st.intro_as("n").is_err());
    st.intro_as("m").unwrap();
    st.reflexivity().unwrap();
    st.qed().unwrap();
}

#[test]
fn induction_refuses_dependent_hypotheses() {
    let s = sig();
    // ∀n, n = n → n = n: after intros, H mentions n.
    let goal = Prop::forall(
        "n",
        nat(),
        Prop::imp(
            Prop::eq(Term::var("n"), Term::var("n")),
            Prop::eq(Term::var("n"), Term::var("n")),
        ),
    );
    let mut st = ProofState::new(&s, goal).unwrap();
    let n = st.intro().unwrap();
    let h = st.intro().unwrap();
    assert!(st.induction(n.as_str()).is_err());
    // Reverting the hypothesis unblocks it.
    st.revert(h.as_str()).unwrap();
    st.induction(n.as_str()).unwrap();
    assert_eq!(st.num_goals(), 2);
}

#[test]
fn subst_var_occurs_check() {
    let s = sig();
    // H : n = succ n cannot be eliminated by substitution.
    let goal = Prop::forall(
        "n",
        nat(),
        Prop::imp(
            Prop::eq(Term::var("n"), Term::ctor("succ", vec![Term::var("n")])),
            Prop::True,
        ),
    );
    let mut st = ProofState::new(&s, goal).unwrap();
    st.intro().unwrap();
    let h = st.intro().unwrap();
    assert!(st.subst_var(h.as_str()).is_err());
    st.trivial().unwrap();
    st.qed().unwrap();
}

#[test]
fn statement_must_be_closed_and_well_sorted() {
    let s = sig();
    // Free variable in the statement.
    assert!(ProofState::new(&s, Prop::eq(Term::var("ghost"), Term::var("ghost"))).is_err());
    // Heterogeneous equality.
    assert!(ProofState::new(
        &s,
        Prop::forall("n", nat(), Prop::eq(Term::var("n"), Term::c0("true")),),
    )
    .is_err());
}

#[test]
fn assert_side_goal_ordering() {
    let s = sig();
    let goal = Prop::True;
    let mut st = ProofState::new(&s, goal).unwrap();
    st.assert("Hmid", Prop::eq(Term::c0("zero"), Term::c0("zero")))
        .unwrap();
    assert_eq!(st.num_goals(), 2);
    // The assertion is focused first.
    assert!(matches!(st.focused().unwrap().goal, Prop::Eq(..)));
    st.reflexivity().unwrap();
    // Back to the main goal, with the assertion available.
    assert!(st.focused().unwrap().hyp(sym("Hmid")).is_some());
    st.trivial().unwrap();
    st.qed().unwrap();
}

#[test]
fn specialize_and_forward_chain() {
    let mut s = sig();
    s.add_fact(
        sym("succ_cong"),
        Prop::forall(
            "a",
            nat(),
            Prop::forall(
                "b",
                nat(),
                Prop::imp(
                    Prop::eq(Term::var("a"), Term::var("b")),
                    Prop::eq(
                        Term::ctor("succ", vec![Term::var("a")]),
                        Term::ctor("succ", vec![Term::var("b")]),
                    ),
                ),
            ),
        ),
        FactKind::Lemma,
    )
    .unwrap();
    let goal = Prop::forall(
        "n",
        nat(),
        Prop::imp(
            Prop::eq(Term::var("n"), Term::c0("zero")),
            Prop::eq(
                Term::ctor("succ", vec![Term::var("n")]),
                Term::ctor("succ", vec![Term::c0("zero")]),
            ),
        ),
    );
    let mut st = ProofState::new(&s, goal).unwrap();
    st.intro_as("n").unwrap();
    st.intro_as("H").unwrap();
    st.pose_fact("succ_cong", &[Term::var("n"), Term::c0("zero")], "Hc")
        .unwrap();
    st.forward("Hc", "H").unwrap();
    st.exact("Hc").unwrap();
    st.qed().unwrap();
}

#[test]
fn case_split_requires_enumerable_sort() {
    let s = sig();
    // Cannot case split on the builtin id sort.
    let goal = Prop::forall("x", Sort::Id, Prop::eq(Term::var("x"), Term::var("x")));
    let mut st = ProofState::new(&s, goal).unwrap();
    let x = st.intro().unwrap();
    assert!(st.case_split(&Term::Var(x)).is_err());
    st.reflexivity().unwrap();
    st.qed().unwrap();
}

#[test]
fn inversion_refused_on_extensible_without_closed_world() {
    let mut s = sig();
    s.add_datatype(Datatype {
        name: sym("guard_d"),
        ctors: vec![CtorSig::new("gd_a", vec![])],
        extensible: true,
    })
    .unwrap();
    s.add_pred(objlang::sig::IndPred {
        name: sym("guard_p"),
        arg_sorts: vec![Sort::named("guard_d")],
        rules: vec![objlang::sig::Rule {
            name: sym("gp_a"),
            binders: vec![],
            premises: vec![],
            conclusion: vec![Term::c0("gd_a")],
        }],
        extensible: true,
    })
    .unwrap();
    let goal = Prop::forall(
        "t",
        Sort::named("guard_d"),
        Prop::imp(Prop::atom("guard_p", vec![Term::var("t")]), Prop::True),
    );
    let mut st = ProofState::new(&s, goal).unwrap();
    st.intro().unwrap();
    let h = st.intro().unwrap();
    assert!(st.inversion(h.as_str()).is_err());
    st.closed_world = true;
    st.inversion(h.as_str()).unwrap();
    st.trivial().unwrap();
    st.qed().unwrap();
}

#[test]
fn clear_and_rename() {
    let s = sig();
    let goal = Prop::imp(Prop::True, Prop::imp(Prop::True, Prop::True));
    let mut st = ProofState::new(&s, goal).unwrap();
    let h1 = st.intro().unwrap();
    let _h2 = st.intro().unwrap();
    st.rename_hyp(h1.as_str(), "Hfirst").unwrap();
    assert!(st.rename_hyp("Hfirst", "H'0").is_err()); // name taken
    st.clear("Hfirst").unwrap();
    assert!(st.clear("Hfirst").is_err());
    st.trivial().unwrap();
    st.qed().unwrap();
}
