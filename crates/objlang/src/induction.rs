//! Rule induction over inductively defined predicates — the logical core
//! of the paper's `FInduction` command (Section 3.1).
//!
//! `FInduction lemma on P motive M` produces one proof obligation per rule
//! of `P`; each obligation is a [`Sequent`] built by [`case_sequent`]. A
//! [`RuleInduction`] derives all of them once, from the predicate the
//! signature records, and keeps them: the elaborator proves (or looks up)
//! a case against the stored obligation, and when every rule of the
//! predicate's *final* constructor set has a proven case,
//! [`RuleInduction::conclude`] compares each proof with that same
//! obligation and assembles the theorem `∀ x̄, P(x̄) → M(x̄)`.
//! [`DataInduction`] is the datatype twin. Exhaustivity over newly added
//! rules is what the family layer enforces at `End` (paper C1); this
//! module refuses to assemble with missing or mismatched cases.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::ident::Symbol;
use crate::proof::{ProvedSequent, Sequent, Theorem};
use crate::sig::{Datatype, IndPred, Rule, Signature};
use crate::syntax::{Prop, Sort, Term};

/// The motive of a recursion or induction: a proposition abstracted over
/// the predicate's arguments (`FInduction … motive λ x̄ (_ : P x̄), body`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Motive {
    /// One parameter per predicate argument, with the predicate's sorts.
    pub params: Vec<(Symbol, Sort)>,
    /// The motive body over the parameters.
    pub body: Prop,
}

impl Motive {
    /// Builds a motive, checking arity and sorts against a predicate.
    pub fn for_pred(pred: &IndPred, params: Vec<(Symbol, Sort)>, body: Prop) -> Result<Motive> {
        if params.len() != pred.arg_sorts.len() {
            return Err(Error::new(format!(
                "motive arity {} does not match predicate {} arity {}",
                params.len(),
                pred.name,
                pred.arg_sorts.len()
            )));
        }
        for ((_, s), expect) in params.iter().zip(&pred.arg_sorts) {
            if s != expect {
                return Err(Error::new(format!(
                    "motive parameter sort {s} does not match predicate sort {expect}"
                )));
            }
        }
        Ok(Motive { params, body })
    }

    /// Instantiates the motive at concrete arguments.
    pub fn apply(&self, args: &[Term]) -> Prop {
        let mut map = HashMap::new();
        for ((p, _), a) in self.params.iter().zip(args) {
            map.insert(*p, a.clone());
        }
        self.body.subst(&map)
    }

    /// The induction conclusion `∀ x̄, P(x̄) → M(x̄)`.
    pub fn conclusion(&self, pred: Symbol) -> Prop {
        let args: Vec<Term> = self.params.iter().map(|(v, _)| Term::Var(*v)).collect();
        Prop::foralls(
            &self.params,
            Prop::imp(Prop::Atom(pred, args.into()), self.body.clone()),
        )
    }
}

/// Builds the proof obligation for one rule of the induction.
///
/// The sequent binds the rule's variables, assumes each premise, and
/// additionally assumes the induction hypothesis `M(ā)` for every premise
/// of the form `P(ā)` (paper Section 3.1's description of the goal and IH
/// for case `ht_abs`). Nested/higher-order premises mentioning `P` under a
/// connective are rejected — the same restriction the plugin documents in
/// Section 4.1.
pub fn case_sequent(
    sig: &Signature,
    pred: &IndPred,
    rule: &Rule,
    motive: &Motive,
) -> Result<Sequent> {
    sig.check_rule(pred, rule)?;
    let mut hyps: Vec<(Symbol, Prop)> = Vec::new();
    for (i, prem) in rule.premises.iter().enumerate() {
        if mentions_pred_under_connective(prem, pred.name) {
            return Err(Error::new(format!(
                "rule {}: premise {prem} mentions {} under a connective; \
                 nested induction is not supported (paper §4.1)",
                rule.name, pred.name
            )));
        }
        hyps.push((Symbol::new(&format!("Hp{i}")), prem.clone()));
        if let Prop::Atom(q, args) = prem {
            if *q == pred.name {
                hyps.push((Symbol::new(&format!("IH{i}")), motive.apply(args)));
            }
        }
    }
    Ok(Sequent {
        vars: rule.binders.clone(),
        hyps,
        goal: motive.apply(&rule.conclusion),
    })
}

fn mentions_pred_under_connective(p: &Prop, pred: Symbol) -> bool {
    fn mentions(p: &Prop, pred: Symbol) -> bool {
        match p {
            Prop::Atom(q, _) => *q == pred,
            Prop::And(a, b) | Prop::Or(a, b) | Prop::Imp(a, b) => {
                mentions(a, pred) || mentions(b, pred)
            }
            Prop::Forall(_, _, b) | Prop::Exists(_, _, b) => mentions(b, pred),
            _ => false,
        }
    }
    match p {
        Prop::Atom(..) => false, // top-level atom is the supported form
        other => mentions(other, pred),
    }
}

/// The obligations of one rule induction, derived once by the kernel.
///
/// [`RuleInduction::new`] looks the predicate up in the signature by name
/// and builds every rule's obligation with [`case_sequent`], in rule
/// order. The borrow `'s` pins that signature until
/// [`RuleInduction::conclude`], so the obligations a proof is checked
/// against are the ones its cases were stated from.
pub struct RuleInduction<'s> {
    pred: &'s IndPred,
    motive: Motive,
    obligations: Vec<Sequent>,
}

impl<'s> RuleInduction<'s> {
    /// Derives the obligation of every rule of `pred` (the *final* rule
    /// set recorded in `sig`, i.e. at family `End`).
    pub fn new(sig: &'s Signature, pred: Symbol, motive: Motive) -> Result<RuleInduction<'s>> {
        let p = sig
            .pred(pred)
            .ok_or_else(|| Error::new(format!("unknown predicate {pred}")))?;
        let obligations = p
            .rules
            .iter()
            .map(|rule| case_sequent(sig, p, rule, &motive))
            .collect::<Result<_>>()?;
        Ok(RuleInduction {
            pred: p,
            motive,
            obligations,
        })
    }

    /// Each rule's name with its obligation, in rule order.
    pub fn obligations(&self) -> impl Iterator<Item = (Symbol, &Sequent)> {
        self.pred
            .rules
            .iter()
            .map(|r| r.name)
            .zip(&self.obligations)
    }

    /// Assembles the rule-induction theorem from proven cases.
    ///
    /// `cases` maps each rule name to the proof of its obligation. Every
    /// rule must be covered, and each proof's sequent must be exactly the
    /// stored obligation.
    pub fn conclude(self, cases: &HashMap<Symbol, ProvedSequent>) -> Result<Theorem> {
        let pred = self.pred.name;
        for (rule, expected) in self.obligations() {
            let proved = cases.get(&rule).ok_or_else(|| {
                Error::new(format!(
                    "induction on {pred}: missing case for rule {rule} \
                     (exhaustivity, paper C1)"
                ))
            })?;
            if !sequent_matches(proved.sequent(), expected) {
                return Err(Error::new(format!(
                    "induction on {pred}: proof for rule {rule} does not match \
                     its obligation;\nexpected:\n{expected}\ngot:\n{}",
                    proved.sequent()
                )));
            }
        }
        Ok(Theorem::trusted(self.motive.conclusion(pred)))
    }
}

/// Compares a proved sequent against an obligation up to alpha-renaming of
/// goal-level props; variables and hypothesis lists must agree pointwise.
fn sequent_matches(got: &Sequent, expected: &Sequent) -> bool {
    got.vars == expected.vars
        && got.hyps.len() == expected.hyps.len()
        && got
            .hyps
            .iter()
            .zip(&expected.hyps)
            .all(|((_, p), (_, q))| p.alpha_eq(q))
        && got.goal.alpha_eq(&expected.goal)
}

/// The motive of a *datatype* induction (`FInduction … on tm`): a
/// proposition abstracted over one element of the datatype.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DataMotive {
    /// The bound element variable.
    pub param: Symbol,
    /// The datatype sort.
    pub sort: Sort,
    /// The motive body.
    pub body: Prop,
}

impl DataMotive {
    /// Instantiates the motive at a term.
    pub fn apply(&self, t: &Term) -> Prop {
        self.body.subst1(self.param, t)
    }

    /// The induction conclusion `∀ x : D, M(x)`.
    pub fn conclusion(&self) -> Prop {
        Prop::Forall(self.param, self.sort, self.body.clone().into())
    }
}

/// Builds the proof obligation for one constructor of a datatype
/// induction: constructor arguments become variables, recursive arguments
/// contribute induction hypotheses.
pub fn data_case_sequent(
    sig: &Signature,
    datatype: Symbol,
    ctor: Symbol,
    motive: &DataMotive,
) -> Result<Sequent> {
    let dt = sig
        .datatype(datatype)
        .ok_or_else(|| Error::new(format!("unknown datatype {datatype}")))?;
    let csig = dt
        .ctors
        .iter()
        .find(|c| c.name == ctor)
        .ok_or_else(|| Error::new(format!("no constructor {ctor} in {datatype}")))?;
    let mut vars = Vec::new();
    let mut hyps = Vec::new();
    let mut args = Vec::new();
    for (i, s) in csig.args.iter().enumerate() {
        let v = Symbol::new(&format!("{}{}", short_name(ctor), i));
        vars.push((v, *s));
        args.push(Term::Var(v));
        if *s == Sort::Named(datatype) {
            hyps.push((
                Symbol::new(&format!("IH{}", hyps.len())),
                motive.apply(&Term::Var(v)),
            ));
        }
    }
    Ok(Sequent {
        vars,
        hyps,
        goal: motive.apply(&Term::Ctor(ctor, args.into())),
    })
}

fn short_name(ctor: Symbol) -> String {
    let s = ctor.as_str();
    match s.rsplit('_').next() {
        Some(t) if !t.is_empty() => t.to_string(),
        _ => "a".into(),
    }
}

/// The obligations of one datatype induction, derived once by the kernel:
/// the twin of [`RuleInduction`] over [`data_case_sequent`], one
/// obligation per constructor of the datatype's final set.
pub struct DataInduction<'s> {
    datatype: &'s Datatype,
    motive: DataMotive,
    obligations: Vec<Sequent>,
}

impl<'s> DataInduction<'s> {
    /// Derives the obligation of every constructor of `datatype` as
    /// recorded in `sig`.
    pub fn new(
        sig: &'s Signature,
        datatype: Symbol,
        motive: DataMotive,
    ) -> Result<DataInduction<'s>> {
        let dt = sig
            .datatype(datatype)
            .ok_or_else(|| Error::new(format!("unknown datatype {datatype}")))?;
        let obligations = dt
            .ctors
            .iter()
            .map(|ctor| data_case_sequent(sig, datatype, ctor.name, &motive))
            .collect::<Result<_>>()?;
        Ok(DataInduction {
            datatype: dt,
            motive,
            obligations,
        })
    }

    /// Each constructor's name with its obligation, in constructor order.
    pub fn obligations(&self) -> impl Iterator<Item = (Symbol, &Sequent)> {
        self.datatype
            .ctors
            .iter()
            .map(|c| c.name)
            .zip(&self.obligations)
    }

    /// Assembles the datatype-induction theorem `∀ x : D, M(x)` from
    /// proven cases: every constructor must be covered, and each proof's
    /// sequent must be exactly the stored obligation.
    pub fn conclude(self, cases: &HashMap<Symbol, ProvedSequent>) -> Result<Theorem> {
        let datatype = self.datatype.name;
        for (ctor, expected) in self.obligations() {
            let proved = cases.get(&ctor).ok_or_else(|| {
                Error::new(format!(
                    "induction on {datatype}: missing case for constructor {ctor} \
                     (exhaustivity, paper C1)"
                ))
            })?;
            if !sequent_matches(proved.sequent(), expected) {
                return Err(Error::new(format!(
                    "induction on {datatype}: proof for constructor {ctor} does not \
                     match its obligation;\nexpected:\n{expected}\ngot:\n{}",
                    proved.sequent()
                )));
            }
        }
        Ok(Theorem::trusted(self.motive.conclusion()))
    }
}

/// Builds the structural-recursion obligations check used by `FRecursion`
/// at family `End`: every constructor of the datatype must have a case.
/// Returns the missing constructor names (empty means exhaustive).
pub fn missing_recursion_cases(sig: &Signature, f: &crate::sig::RecFn) -> Vec<Symbol> {
    match sig.datatype(f.rec_sort) {
        Some(dt) => dt
            .ctors
            .iter()
            .filter(|c| !f.cases.iter().any(|case| case.ctor == c.name))
            .map(|c| c.name)
            .collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::sym;
    use crate::proof::ProofState;
    use crate::sig::{CtorSig, Datatype, FactKind, FnDef, RecCase, RecFn};

    fn even_sig() -> Signature {
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
        // double : nat -> nat
        let double = RecFn {
            name: sym("double"),
            rec_sort: sym("nat"),
            params: vec![],
            ret: Sort::named("nat"),
            cases: vec![
                RecCase {
                    ctor: sym("zero"),
                    arg_vars: vec![],
                    body: Term::c0("zero"),
                },
                RecCase {
                    ctor: sym("succ"),
                    arg_vars: vec![sym("n")],
                    body: Term::ctor(
                        "succ",
                        vec![Term::ctor(
                            "succ",
                            vec![Term::func("double", vec![Term::var("n")])],
                        )],
                    ),
                },
            ],
        };
        let dt = s.datatype(sym("nat")).unwrap().clone();
        for (case, ctor) in double.cases.iter().zip(&dt.ctors) {
            s.add_fact(
                Symbol::new(&format!("double_{}_eq", ctor.name)),
                double.case_equation(case, ctor),
                FactKind::CompEq,
            )
            .unwrap();
        }
        s.add_fn(FnDef::Rec(double)).unwrap();
        s
    }

    fn exists_double_motive(pred: &IndPred) -> Motive {
        // forall n, even n -> exists m, n = double m
        Motive::for_pred(
            pred,
            vec![(sym("n"), Sort::named("nat"))],
            Prop::exists(
                "m",
                Sort::named("nat"),
                Prop::eq(Term::var("n"), Term::func("double", vec![Term::var("m")])),
            ),
        )
        .unwrap()
    }

    fn true_motive(sig: &Signature) -> Motive {
        let pred = sig.pred(sym("even")).unwrap();
        Motive::for_pred(pred, vec![(sym("n"), Sort::named("nat"))], Prop::True).unwrap()
    }

    /// `∀ n : nat, double n = double n`, by reflexivity in every case.
    fn double_refl_motive() -> DataMotive {
        DataMotive {
            param: sym("n"),
            sort: Sort::named("nat"),
            body: Prop::eq(
                Term::func("double", vec![Term::var("n")]),
                Term::func("double", vec![Term::var("n")]),
            ),
        }
    }

    fn prove_trivially(sig: &Signature, seq: &Sequent) -> ProvedSequent {
        let mut st = ProofState::with_sequent(sig, seq.clone()).unwrap();
        st.trivial().unwrap();
        st.qed_sequent().unwrap()
    }

    #[test]
    fn even_implies_exists_double() {
        let sig = even_sig();
        let motive = exists_double_motive(sig.pred(sym("even")).unwrap());
        let expected = motive.conclusion(sym("even"));
        let induction = RuleInduction::new(&sig, sym("even"), motive).unwrap();
        let obligations: Vec<(Symbol, &Sequent)> = induction.obligations().collect();
        let mut cases = HashMap::new();

        // Case even_zero: exists m, zero = double m; witness zero.
        let (rule, seq0) = obligations[0];
        assert_eq!(rule, sym("even_zero"));
        let mut st = ProofState::with_sequent(&sig, seq0.clone()).unwrap();
        st.exists(Term::c0("zero")).unwrap();
        st.fsimpl().unwrap();
        st.reflexivity().unwrap();
        cases.insert(rule, st.qed_sequent().unwrap());

        // Case even_ss: IH gives n = double m; witness succ m.
        let (rule, seq1) = obligations[1];
        assert_eq!(rule, sym("even_ss"));
        let mut st = ProofState::with_sequent(&sig, seq1.clone()).unwrap();
        st.destruct("IH0").unwrap();
        // hyp: n = double m'; goal: exists m, succ (succ n) = double m
        let witness_var = st
            .focused()
            .unwrap()
            .vars
            .iter()
            .map(|(v, _)| *v)
            .find(|v| v.as_str().starts_with('m'))
            .unwrap();
        st.exists(Term::ctor("succ", vec![Term::Var(witness_var)]))
            .unwrap();
        st.fsimpl().unwrap();
        st.rewrite("IH0").unwrap();
        st.reflexivity().unwrap();
        cases.insert(rule, st.qed_sequent().unwrap());

        let thm = induction.conclude(&cases).unwrap();
        assert!(thm.prop().alpha_eq(&expected));
    }

    #[test]
    fn rule_obligations_are_the_case_sequents_in_rule_order() {
        let sig = even_sig();
        let pred = sig.pred(sym("even")).unwrap();
        let motive = exists_double_motive(pred);
        let induction = RuleInduction::new(&sig, sym("even"), motive.clone()).unwrap();
        let got: Vec<(Symbol, Sequent)> = induction
            .obligations()
            .map(|(rule, seq)| (rule, seq.clone()))
            .collect();
        let want: Vec<(Symbol, Sequent)> = pred
            .rules
            .iter()
            .map(|rule| (rule.name, case_sequent(&sig, pred, rule, &motive).unwrap()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn unknown_predicate_rejected() {
        let sig = even_sig();
        let motive = true_motive(&sig);
        let err = RuleInduction::new(&sig, sym("odd"), motive).err().unwrap();
        assert_eq!(format!("{err}"), "unknown predicate odd");
    }

    #[test]
    fn missing_case_rejected() {
        let sig = even_sig();
        let induction = RuleInduction::new(&sig, sym("even"), true_motive(&sig)).unwrap();
        // Only the first rule has a proof.
        let (rule, seq) = induction.obligations().next().unwrap();
        let cases = HashMap::from([(rule, prove_trivially(&sig, seq))]);
        let err = induction.conclude(&cases).unwrap_err();
        assert_eq!(
            format!("{err}"),
            "induction on even: missing case for rule even_ss (exhaustivity, paper C1)"
        );
    }

    #[test]
    fn mismatched_case_rejected() {
        let sig = even_sig();
        let induction = RuleInduction::new(&sig, sym("even"), true_motive(&sig)).unwrap();
        // Prove True for the zero case but register it under even_ss.
        let (_, seq) = induction.obligations().next().unwrap();
        let proved = prove_trivially(&sig, seq);
        let mut cases = HashMap::new();
        cases.insert(sym("even_ss"), proved.clone());
        cases.insert(sym("even_zero"), proved);
        let err = induction.conclude(&cases).unwrap_err();
        assert!(
            format!("{err}")
                .starts_with("induction on even: proof for rule even_ss does not match"),
            "{err}"
        );
    }

    #[test]
    fn assumed_proof_of_another_sequent_rejected() {
        // A proof re-admitted without replay (a snapshot-loaded cache
        // entry) is checked against the obligation like a fresh one: the
        // exact obligations conclude, but the even_ss sequent of another
        // motive does not discharge this one.
        let sig = even_sig();
        let other: Vec<Sequent> = RuleInduction::new(&sig, sym("even"), true_motive(&sig))
            .unwrap()
            .obligations()
            .map(|(_, seq)| seq.clone())
            .collect();
        let motive = exists_double_motive(sig.pred(sym("even")).unwrap());
        let induction = RuleInduction::new(&sig, sym("even"), motive.clone()).unwrap();
        let mut cases: HashMap<Symbol, ProvedSequent> = induction
            .obligations()
            .map(|(rule, seq)| (rule, ProvedSequent::assume_checked(seq.clone())))
            .collect();
        assert!(induction.conclude(&cases).is_ok());

        let induction = RuleInduction::new(&sig, sym("even"), motive).unwrap();
        cases.insert(
            sym("even_ss"),
            ProvedSequent::assume_checked(other[1].clone()),
        );
        let err = induction.conclude(&cases).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.starts_with("induction on even: proof for rule even_ss does not match"),
            "{msg}"
        );
        assert!(msg.contains(&format!("got:\n{}", other[1])), "{msg}");
    }

    #[test]
    fn data_induction_concludes_over_every_constructor() {
        let sig = even_sig();
        let motive = double_refl_motive();
        let expected = motive.conclusion();
        let induction = DataInduction::new(&sig, sym("nat"), motive).unwrap();
        let cases: HashMap<Symbol, ProvedSequent> = induction
            .obligations()
            .map(|(ctor, seq)| {
                let mut st = ProofState::with_sequent(&sig, seq.clone()).unwrap();
                st.reflexivity().unwrap();
                (ctor, st.qed_sequent().unwrap())
            })
            .collect();
        let thm = induction.conclude(&cases).unwrap();
        assert!(thm.prop().alpha_eq(&expected));
    }

    #[test]
    fn data_obligations_are_the_case_sequents_in_constructor_order() {
        let sig = even_sig();
        let motive = double_refl_motive();
        let induction = DataInduction::new(&sig, sym("nat"), motive.clone()).unwrap();
        let got: Vec<(Symbol, Sequent)> = induction
            .obligations()
            .map(|(ctor, seq)| (ctor, seq.clone()))
            .collect();
        let want: Vec<(Symbol, Sequent)> = sig
            .datatype(sym("nat"))
            .unwrap()
            .ctors
            .iter()
            .map(|c| {
                let seq = data_case_sequent(&sig, sym("nat"), c.name, &motive).unwrap();
                (c.name, seq)
            })
            .collect();
        assert_eq!(got, want);
        let err = DataInduction::new(&sig, sym("list"), motive).err().unwrap();
        assert_eq!(format!("{err}"), "unknown datatype list");
    }

    #[test]
    fn data_missing_constructor_rejected() {
        let sig = even_sig();
        let motive = DataMotive {
            body: Prop::True,
            ..double_refl_motive()
        };
        let induction = DataInduction::new(&sig, sym("nat"), motive).unwrap();
        let (ctor, seq) = induction.obligations().next().unwrap();
        let cases = HashMap::from([(ctor, prove_trivially(&sig, seq))]);
        let err = induction.conclude(&cases).unwrap_err();
        assert_eq!(
            format!("{err}"),
            "induction on nat: missing case for constructor succ (exhaustivity, paper C1)"
        );
    }

    #[test]
    fn data_mismatched_case_rejected() {
        let sig = even_sig();
        let motive = DataMotive {
            body: Prop::True,
            ..double_refl_motive()
        };
        let induction = DataInduction::new(&sig, sym("nat"), motive).unwrap();
        // Prove True for the zero case but register it under succ too.
        let (_, seq) = induction.obligations().next().unwrap();
        let proved = prove_trivially(&sig, seq);
        let mut cases = HashMap::new();
        cases.insert(sym("succ"), proved.clone());
        cases.insert(sym("zero"), proved);
        let err = induction.conclude(&cases).unwrap_err();
        assert!(
            format!("{err}")
                .starts_with("induction on nat: proof for constructor succ does not match"),
            "{err}"
        );
    }

    #[test]
    fn motive_arity_checked() {
        let sig = even_sig();
        let pred = sig.pred(sym("even")).unwrap().clone();
        assert!(Motive::for_pred(&pred, vec![], Prop::True).is_err());
    }

    #[test]
    fn missing_recursion_cases_found() {
        let sig = even_sig();
        let partial = RecFn {
            name: sym("partial"),
            rec_sort: sym("nat"),
            params: vec![],
            ret: Sort::named("nat"),
            cases: vec![RecCase {
                ctor: sym("zero"),
                arg_vars: vec![],
                body: Term::c0("zero"),
            }],
        };
        let missing = missing_recursion_cases(&sig, &partial);
        assert_eq!(missing, vec![sym("succ")]);
    }
}
