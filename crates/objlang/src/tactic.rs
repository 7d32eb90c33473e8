//! Tactics as data, plus an interpreter and bounded proof search.
//!
//! Proof scripts are first-class values (`Vec<Tactic>`): the family layer
//! stores them so that reprove-on-extend lemmas can be *re-run* in derived
//! families (paper Section 7's treatment of inversion lemmas), and so that
//! inherited `FInduction` cases can be replayed or reused. The interpreter
//! only calls kernel primitives from [`crate::proof`], so scripts cannot
//! subvert soundness.

use crate::error::{Error, Result};
use crate::proof::ProofState;
use crate::syntax::{Prop, Term};

/// A proof step. Mirrors the kernel primitives one-to-one plus a few
/// combinators; `FSimpl`, `FInjection` and `FDiscriminate` carry the
/// paper's tactic names (Sections 3.2 and 3.6).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Tactic {
    /// Introduce one ∀/→.
    Intro,
    /// Introduce with an explicit name.
    IntroAs(String),
    /// Introduce as long as possible.
    Intros,
    /// Move a hypothesis back into the goal.
    Revert(String),
    /// Move a variable back into the goal.
    RevertVar(String),
    /// Drop a hypothesis.
    Clear(String),
    /// Rename a hypothesis.
    Rename(String, String),
    /// Close the goal with a named hypothesis.
    Exact(String),
    /// Close the goal with any matching hypothesis.
    Assumption,
    /// Close `True` / `t = t`.
    Trivial,
    /// Close a reflexive equation.
    Reflexivity,
    /// Swap an equality goal.
    Symmetry,
    /// Swap an equality hypothesis.
    SymmetryIn(String),
    /// Split a conjunction.
    Split,
    /// Choose the left disjunct.
    Left,
    /// Choose the right disjunct.
    Right,
    /// Provide an existential witness.
    Exists(Term),
    /// Decompose a hypothesis (∧/∨/∃/⊥/⊤).
    Destruct(String),
    /// Replace the goal with `False`.
    Exfalso,
    /// Close the goal from contradictory hypotheses.
    Contradiction,
    /// Constructor-clash elimination (licensed; see kernel docs).
    Discriminate(String),
    /// Paper-named alias of `Discriminate`, powered by partial recursors.
    FDiscriminate(String),
    /// Constructor injectivity (licensed).
    Injection(String),
    /// Paper-named alias of `Injection`.
    FInjection(String),
    /// Eliminate `x = t` by substitution.
    SubstVar(String),
    /// Eliminate all variable equations.
    SubstAll,
    /// Rewrite the goal left-to-right with a hypothesis or fact.
    Rewrite(String),
    /// Rewrite the goal right-to-left.
    RewriteRev(String),
    /// Rewrite a hypothesis left-to-right.
    RewriteIn(String, String),
    /// Rewrite a hypothesis right-to-left.
    RewriteRevIn(String, String),
    /// Simplify the goal with registered computation equations (§3.2).
    FSimpl,
    /// Simplify one hypothesis.
    FSimplIn(String),
    /// Simplify goal and hypotheses.
    FSimplAll,
    /// Backward-apply a fact; extra instantiations for undetermined binders.
    ApplyFact(String, Vec<Term>),
    /// Backward-apply a hypothesis.
    ApplyHyp(String, Vec<Term>),
    /// Backward-apply a rule of a predicate (`constructor`).
    ApplyRule(String, String, Vec<Term>),
    /// Add an instantiated fact as a hypothesis.
    PoseFact(String, Vec<Term>, String),
    /// Instantiate a ∀-hypothesis.
    Specialize(String, Vec<Term>),
    /// Modus ponens inside a hypothesis.
    Forward(String, String),
    /// Prove an intermediate proposition with a nested (closing) script.
    Assert(String, Prop, Vec<Tactic>),
    /// Case analysis on a term.
    CaseTerm(Term),
    /// Structural induction on a variable.
    Induction(String),
    /// Inversion of a predicate hypothesis.
    Inversion(String),
    /// Unfold a defined proposition in the goal.
    Unfold(String),
    /// Unfold in a hypothesis.
    UnfoldIn(String, String),
    /// Bounded backward-chaining proof search over hints.
    Auto(u32),
    /// Try a tactic; ignore failure.
    TryT(Box<Tactic>),
    /// Repeat a tactic until it fails (at least zero times).
    Repeat(Box<Tactic>),
    /// Run a tactic, then close each produced goal with its own script.
    Branch(Box<Tactic>, Vec<Vec<Tactic>>),
    /// Run a tactic, then run one script on every produced goal, closing
    /// each (`t; s` in Coq).
    ThenAll(Box<Tactic>, Vec<Tactic>),
    /// Try candidate scripts in order; commit to the first one that closes
    /// the focused goal (`first [s1 | s2 | …]` in Coq). Used by
    /// reprove-on-extend lemmas so the same script survives extensions that
    /// add inversion cases.
    First(Vec<Vec<Tactic>>),
}

/// Runs a single tactic against the focused goal.
pub fn run_tactic(st: &mut ProofState<'_>, t: &Tactic) -> Result<()> {
    match t {
        Tactic::Intro => st.intro().map(|_| ()),
        Tactic::IntroAs(n) => st.intro_as(n).map(|_| ()),
        Tactic::Intros => st.intros().map(|_| ()),
        Tactic::Revert(h) => st.revert(h),
        Tactic::RevertVar(v) => st.revert_var(v),
        Tactic::Clear(h) => st.clear(h),
        Tactic::Rename(old, new) => st.rename_hyp(old, new),
        Tactic::Exact(h) => st.exact(h),
        Tactic::Assumption => st.assumption(),
        Tactic::Trivial => st.trivial(),
        Tactic::Reflexivity => st.reflexivity(),
        Tactic::Symmetry => st.symmetry(),
        Tactic::SymmetryIn(h) => st.symmetry_in(h),
        Tactic::Split => st.split(),
        Tactic::Left => st.left(),
        Tactic::Right => st.right(),
        Tactic::Exists(w) => st.exists(w.clone()),
        Tactic::Destruct(h) => st.destruct(h),
        Tactic::Exfalso => st.exfalso(),
        Tactic::Contradiction => st.contradiction(),
        Tactic::Discriminate(h) | Tactic::FDiscriminate(h) => st.discriminate(h),
        Tactic::Injection(h) | Tactic::FInjection(h) => st.injection(h),
        Tactic::SubstVar(h) => st.subst_var(h),
        Tactic::SubstAll => st.subst_all(),
        Tactic::Rewrite(s) => st.rewrite(s),
        Tactic::RewriteRev(s) => st.rewrite_rev(s),
        Tactic::RewriteIn(s, h) => st.rewrite_in(s, h),
        Tactic::RewriteRevIn(s, h) => st.rewrite_rev_in(s, h),
        Tactic::FSimpl => st.fsimpl(),
        Tactic::FSimplIn(h) => st.fsimpl_in(h),
        Tactic::FSimplAll => st.fsimpl_all(),
        Tactic::ApplyFact(n, with) => st.apply_fact(n, with),
        Tactic::ApplyHyp(h, with) => st.apply_hyp(h, with),
        Tactic::ApplyRule(p, r, with) => st.apply_rule(p, r, with),
        Tactic::PoseFact(n, with, as_name) => st.pose_fact(n, with, as_name),
        Tactic::Specialize(h, with) => st.specialize(h, with),
        Tactic::Forward(h, arg) => st.forward(h, arg),
        Tactic::Assert(name, prop, script) => {
            let before = st.num_goals();
            st.assert(name, prop.clone())?;
            run_script(st, script)?;
            if st.num_goals() != before {
                return Err(Error::new(format!(
                    "assert {name}: nested script did not close the assertion"
                )));
            }
            Ok(())
        }
        Tactic::CaseTerm(t) => st.case_split(t),
        Tactic::Induction(v) => st.induction(v),
        Tactic::Inversion(h) => st.inversion(h),
        Tactic::Unfold(n) => st.unfold(n),
        Tactic::UnfoldIn(n, h) => st.unfold_in(n, h),
        Tactic::Auto(depth) => auto(st, *depth),
        Tactic::TryT(inner) => {
            let snapshot = st.clone();
            if run_tactic(st, inner).is_err() {
                *st = snapshot;
            }
            Ok(())
        }
        Tactic::Repeat(inner) => {
            loop {
                let snapshot = st.clone();
                match run_tactic(st, inner) {
                    Ok(()) => {
                        if st.goals() == snapshot.goals() {
                            break; // no progress
                        }
                    }
                    Err(_) => {
                        *st = snapshot;
                        break;
                    }
                }
            }
            Ok(())
        }
        Tactic::Branch(inner, scripts) => {
            let before = st.num_goals();
            run_tactic(st, inner)?;
            let produced = st.num_goals() + 1 - before;
            if produced != scripts.len() {
                return Err(Error::new(format!(
                    "branch: tactic produced {produced} goals but {} scripts given",
                    scripts.len()
                )));
            }
            for (i, script) in scripts.iter().enumerate() {
                let target = st.num_goals() - 1;
                run_script(st, script).map_err(|e| e.with_context(format!("branch {i}")))?;
                if st.num_goals() != target {
                    return Err(Error::new(format!(
                        "branch {i}: script did not close its goal"
                    )));
                }
            }
            Ok(())
        }
        Tactic::First(candidates) => {
            let target = st.num_goals().saturating_sub(1);
            for (i, cand) in candidates.iter().enumerate() {
                let snapshot = st.clone();
                if run_script(st, cand).is_ok() && st.num_goals() == target {
                    return Ok(());
                }
                let _ = i;
                *st = snapshot;
            }
            Err(Error::new("first: no candidate script closed the goal"))
        }
        Tactic::ThenAll(inner, script) => {
            let before = st.num_goals();
            run_tactic(st, inner)?;
            let produced = st.num_goals() + 1 - before;
            for i in 0..produced {
                let target = st.num_goals() - 1;
                run_script(st, script).map_err(|e| e.with_context(format!("then-all goal {i}")))?;
                if st.num_goals() != target {
                    return Err(Error::new(format!("then-all: script left goal {i} open")));
                }
            }
            Ok(())
        }
    }
}

/// Runs a script (a sequence of tactics) against the state.
pub fn run_script(st: &mut ProofState<'_>, script: &[Tactic]) -> Result<()> {
    for (i, t) in script.iter().enumerate() {
        run_tactic(st, t).map_err(|e| e.with_context(format!("tactic #{i} {t:?}")))?;
    }
    Ok(())
}

/// Bounded backward-chaining search, in the spirit of Coq's `eauto`.
///
/// Closes the focused goal (and every subgoal it spawns) or restores the
/// state and fails. Candidate steps: assumption/trivial/contradiction,
/// `fsimpl`-then-reflexivity, intro/split (cost-free), then depth-costed
/// application of hypotheses, hint facts, hint-predicate rules, and
/// disjunct selection.
pub fn auto(st: &mut ProofState<'_>, depth: u32) -> Result<()> {
    let target = st.num_goals() - 1;
    let snapshot = st.clone();
    if auto_go(st, depth, target) {
        Ok(())
    } else {
        *st = snapshot;
        Err(Error::new("auto: search failed"))
    }
}

fn auto_go(st: &mut ProofState<'_>, depth: u32, target: usize) -> bool {
    if st.num_goals() == target {
        return true;
    }
    if st.num_goals() < target {
        return false;
    }
    // Cost-free closers.
    for quick in [Tactic::Assumption, Tactic::Trivial, Tactic::Contradiction] {
        let snap = st.clone();
        if run_tactic(st, &quick).is_ok() && auto_go(st, depth, target) {
            return true;
        }
        *st = snap;
    }
    // fsimpl; reflexivity
    {
        let snap = st.clone();
        if st.fsimpl().is_ok() && st.reflexivity().is_ok() && auto_go(st, depth, target) {
            return true;
        }
        *st = snap;
    }
    // Cost-free structure.
    {
        let snap = st.clone();
        if st.intro().is_ok() && auto_go(st, depth, target) {
            return true;
        }
        *st = snap;
    }
    {
        let snap = st.clone();
        if st.split().is_ok() && auto_go(st, depth, target) {
            return true;
        }
        *st = snap;
    }
    if depth == 0 {
        return false;
    }
    // Depth-costed moves.
    let hyp_names: Vec<String> = match st.focused() {
        Ok(seq) => seq
            .hyps
            .iter()
            .map(|(n, _)| n.as_str().to_string())
            .collect(),
        Err(_) => return false,
    };
    for h in &hyp_names {
        let snap = st.clone();
        if st.apply_hyp(h, &[]).is_ok() && auto_go(st, depth - 1, target) {
            return true;
        }
        *st = snap;
    }
    let hint_preds: Vec<_> = st.signature().hint_preds.clone();
    for p in hint_preds {
        let rules: Vec<_> = match st.signature().pred(p) {
            Some(pred) => pred.rules.iter().map(|r| r.name).collect(),
            None => continue,
        };
        for r in rules {
            let snap = st.clone();
            if st.apply_rule(p.as_str(), r.as_str(), &[]).is_ok() && auto_go(st, depth - 1, target)
            {
                return true;
            }
            *st = snap;
        }
    }
    let hints: Vec<_> = st.signature().hints.clone();
    for hname in hints {
        let snap = st.clone();
        if st.apply_fact(hname.as_str(), &[]).is_ok() && auto_go(st, depth - 1, target) {
            return true;
        }
        *st = snap;
    }
    for dir in [Tactic::Left, Tactic::Right] {
        let snap = st.clone();
        if run_tactic(st, &dir).is_ok() && auto_go(st, depth - 1, target) {
            return true;
        }
        *st = snap;
    }
    false
}

/// Convenience: proves a closed proposition with a script, returning the
/// theorem.
pub fn prove(
    sig: &crate::sig::Signature,
    prop: Prop,
    script: &[Tactic],
) -> Result<crate::proof::Theorem> {
    prove_in(sig, prop, false, script)
}

/// Proves a closed proposition with closed-world reasoning permitted on
/// extensible datatypes and predicates: the reprove-on-extend proofs
/// (paper §7) that every family extending the inspected types re-runs.
pub fn prove_closed_world(
    sig: &crate::sig::Signature,
    prop: Prop,
    script: &[Tactic],
) -> Result<crate::proof::Theorem> {
    prove_in(sig, prop, true, script)
}

fn prove_in(
    sig: &crate::sig::Signature,
    prop: Prop,
    closed_world: bool,
    script: &[Tactic],
) -> Result<crate::proof::Theorem> {
    let _span = trace::span!("objlang.prove", "tactics={}", script.len());
    let mut st = ProofState::new(sig, prop)?;
    st.closed_world = closed_world;
    run_script(&mut st, script)?;
    st.qed()
}

/// Convenience: proves a sequent with a script.
pub fn prove_sequent(
    sig: &crate::sig::Signature,
    seq: crate::proof::Sequent,
    closed_world: bool,
    script: &[Tactic],
) -> Result<crate::proof::ProvedSequent> {
    let _span = trace::span!("objlang.prove_sequent", "tactics={}", script.len());
    let mut st = ProofState::with_sequent(sig, seq)?;
    st.closed_world = closed_world;
    run_script(&mut st, script)?;
    st.qed_sequent()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::sym;
    use crate::sig::{
        CtorSig, Datatype, FactKind, FnDef, IndPred, RecCase, RecFn, Rule, Signature,
    };
    use crate::syntax::Sort;

    fn sig() -> Signature {
        let mut s = Signature::new();
        s.add_datatype(Datatype {
            name: sym("nat"),
            ctors: vec![
                CtorSig::new("zero", vec![]),
                CtorSig::new("succ", vec![Sort::named("nat")]),
            ],
            extensible: false,
        })
        .unwrap();
        s.add_pred(IndPred {
            name: sym("even"),
            arg_sorts: vec![Sort::named("nat")],
            rules: vec![
                Rule {
                    name: sym("even_zero"),
                    binders: vec![],
                    premises: vec![],
                    conclusion: vec![Term::c0("zero")],
                },
                Rule {
                    name: sym("even_ss"),
                    binders: vec![(sym("n"), Sort::named("nat"))],
                    premises: vec![Prop::atom("even", vec![Term::var("n")])],
                    conclusion: vec![Term::ctor(
                        "succ",
                        vec![Term::ctor("succ", vec![Term::var("n")])],
                    )],
                },
            ],
            extensible: false,
        })
        .unwrap();
        s.add_hint_pred("even");
        let add = RecFn {
            name: sym("add"),
            rec_sort: sym("nat"),
            params: vec![(sym("m"), Sort::named("nat"))],
            ret: Sort::named("nat"),
            cases: vec![
                RecCase {
                    ctor: sym("zero"),
                    arg_vars: vec![],
                    body: Term::var("m"),
                },
                RecCase {
                    ctor: sym("succ"),
                    arg_vars: vec![sym("n")],
                    body: Term::ctor(
                        "succ",
                        vec![Term::func("add", vec![Term::var("n"), Term::var("m")])],
                    ),
                },
            ],
        };
        let dt = s.datatype(sym("nat")).unwrap().clone();
        for (case, ctor) in add.cases.iter().zip(&dt.ctors) {
            s.add_fact(
                sym(&format!("add_{}_eq", ctor.name)),
                add.case_equation(case, ctor),
                FactKind::CompEq,
            )
            .unwrap();
        }
        s.add_fn(FnDef::Rec(add)).unwrap();
        s
    }

    #[test]
    fn auto_proves_even_six() {
        let s = sig();
        let goal = Prop::atom("even", vec![crate::eval::nat_lit(6)]);
        prove(&s, goal, &[Tactic::Auto(5)]).unwrap();
    }

    #[test]
    fn auto_fails_on_odd() {
        let s = sig();
        let goal = Prop::atom("even", vec![crate::eval::nat_lit(3)]);
        assert!(prove(&s, goal, &[Tactic::Auto(5)]).is_err());
    }

    #[test]
    fn branch_closes_each_case() {
        let s = sig();
        // forall n, add zero n = n /\ True
        let goal = Prop::forall(
            "n",
            Sort::named("nat"),
            Prop::and(
                Prop::eq(
                    Term::func("add", vec![Term::c0("zero"), Term::var("n")]),
                    Term::var("n"),
                ),
                Prop::True,
            ),
        );
        prove(
            &s,
            goal,
            &[
                Tactic::Intro,
                Tactic::Branch(
                    Box::new(Tactic::Split),
                    vec![
                        vec![Tactic::FSimpl, Tactic::Reflexivity],
                        vec![Tactic::Trivial],
                    ],
                ),
            ],
        )
        .unwrap();
    }

    #[test]
    fn branch_arity_mismatch_errors() {
        let s = sig();
        let goal = Prop::and(Prop::True, Prop::True);
        let err = prove(
            &s,
            goal,
            &[Tactic::Branch(
                Box::new(Tactic::Split),
                vec![vec![Tactic::Trivial]],
            )],
        )
        .unwrap_err();
        assert!(format!("{err}").contains("branch"));
    }

    #[test]
    fn then_all_runs_on_each_goal() {
        let s = sig();
        let goal = Prop::forall(
            "n",
            Sort::named("nat"),
            Prop::eq(
                Term::func("add", vec![Term::var("n"), Term::c0("zero")]),
                Term::var("n"),
            ),
        );
        prove(
            &s,
            goal,
            &[
                Tactic::IntroAs("n".into()),
                Tactic::ThenAll(
                    Box::new(Tactic::Induction("n".into())),
                    vec![
                        Tactic::FSimpl,
                        Tactic::TryT(Box::new(Tactic::Rewrite("IH0".into()))),
                        Tactic::Reflexivity,
                    ],
                ),
            ],
        )
        .unwrap();
    }

    #[test]
    fn try_restores_on_failure() {
        let s = sig();
        let goal = Prop::True;
        prove(
            &s,
            goal,
            &[
                Tactic::TryT(Box::new(Tactic::Exact("nonexistent".into()))),
                Tactic::Trivial,
            ],
        )
        .unwrap();
    }

    #[test]
    fn repeat_intro() {
        let s = sig();
        let goal = Prop::forall(
            "a",
            Sort::named("nat"),
            Prop::forall("b", Sort::named("nat"), Prop::imp(Prop::True, Prop::True)),
        );
        prove(
            &s,
            goal,
            &[Tactic::Repeat(Box::new(Tactic::Intro)), Tactic::Trivial],
        )
        .unwrap();
    }

    #[test]
    fn assert_nested_script() {
        let s = sig();
        let goal = Prop::imp(Prop::True, Prop::True);
        prove(
            &s,
            goal,
            &[
                Tactic::Intro,
                Tactic::Assert("Hside".into(), Prop::True, vec![Tactic::Trivial]),
                Tactic::Exact("Hside".into()),
            ],
        )
        .unwrap();
    }
}
