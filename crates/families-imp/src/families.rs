//! The four families of the abstract-interpretation case study.

use fpop::family::FamilyDef;
use objlang::induction::DataMotive;
use objlang::sig::{AliasFn, CtorSig, PropDef, RecCase};
use objlang::syntax::{Prop, Sort, Term};
use objlang::{sym, Symbol, Tactic};

fn v(s: &str) -> Term {
    Term::var(s)
}
fn c(s: &str, args: Vec<Term>) -> Term {
    Term::ctor(s, args)
}
fn f(s: &str, args: Vec<Term>) -> Term {
    Term::func(s, args)
}
fn ctor(name: &str, args: Vec<Sort>) -> CtorSig {
    CtorSig {
        name: Symbol::new(name),
        args,
    }
}
fn case(ctor: &str, vars: &[&str], body: Term) -> RecCase {
    RecCase {
        ctor: Symbol::new(ctor),
        arg_vars: vars.iter().map(|s| Symbol::new(s)).collect(),
        body,
    }
}
fn nat() -> Sort {
    Sort::named("nat")
}
fn aexp() -> Sort {
    Sort::named("aexp")
}
fn stmt() -> Sort {
    Sort::named("stmt")
}
fn state() -> Sort {
    Sort::named("state")
}
fn absval() -> Sort {
    Sort::named("absval")
}
fn astate() -> Sort {
    Sort::named("astate")
}
fn rval(n: Term, a: Term) -> Prop {
    Prop::atom("rval", vec![n, a])
}
fn rstate(s: Term, a: Term) -> Prop {
    Prop::Def(sym("rstate"), vec![s, a].into())
}
fn i(n: &str) -> Tactic {
    Tactic::IntroAs(n.into())
}
fn ex(h: &str) -> Tactic {
    Tactic::Exact(h.into())
}
fn ah(h: &str, with: Vec<Term>) -> Tactic {
    Tactic::ApplyHyp(h.into(), with)
}
fn af(n: &str, with: Vec<Term>) -> Tactic {
    Tactic::ApplyFact(n.into(), with)
}
fn ar(p: &str, r: &str, with: Vec<Term>) -> Tactic {
    Tactic::ApplyRule(p.into(), r.into(), with)
}
fn fs() -> Tactic {
    Tactic::FSimpl
}
fn rw(src: &str) -> Tactic {
    Tactic::Rewrite(src.into())
}

/// Family `Imp`: syntax and the concrete interpreter (Section 7's base,
/// ~200 LoC in the paper).
pub fn imp_family() -> FamilyDef {
    let id = Sort::Id;
    FamilyDef::new("Imp")
        // arithmetic expressions
        .inductive(
            "aexp",
            vec![
                ctor("a_num", vec![nat()]),
                ctor("a_var", vec![id]),
                ctor("a_plus", vec![aexp(), aexp()]),
            ],
        )
        // concrete states: association lists of id ↦ nat (missing = zero)
        .data(
            "state",
            vec![
                ctor("st_nil", vec![]),
                ctor("st_cons", vec![id, nat(), state()]),
            ],
        )
        .recursion(
            "ite_nat",
            "bool",
            vec![(sym("then_"), nat()), (sym("else_"), nat())],
            nat(),
            vec![
                case("true", &[], v("then_")),
                case("false", &[], v("else_")),
            ],
        )
        .recursion(
            "lookup_st",
            "state",
            vec![(sym("x"), id)],
            nat(),
            vec![
                case("st_nil", &[], Term::c0("zero")),
                case(
                    "st_cons",
                    &["y", "n", "S"],
                    f(
                        "ite_nat",
                        vec![
                            f("id_eqb", vec![v("x"), v("y")]),
                            v("n"),
                            f("lookup_st", vec![v("S"), v("x")]),
                        ],
                    ),
                ),
            ],
        )
        // nat addition (prelude-style, as a family field so it is in scope)
        .recursion(
            "nadd",
            "nat",
            vec![(sym("m"), nat())],
            nat(),
            vec![
                case("zero", &[], v("m")),
                case(
                    "succ",
                    &["n"],
                    c("succ", vec![f("nadd", vec![v("n"), v("m")])]),
                ),
            ],
        )
        // the expression evaluator (FRecursion)
        .recursion(
            "aeval",
            "aexp",
            vec![(sym("S"), state())],
            nat(),
            vec![
                case("a_num", &["n"], v("n")),
                case("a_var", &["x"], f("lookup_st", vec![v("S"), v("x")])),
                case(
                    "a_plus",
                    &["a1", "a2"],
                    f(
                        "nadd",
                        vec![
                            f("aeval", vec![v("a1"), v("S")]),
                            f("aeval", vec![v("a2"), v("S")]),
                        ],
                    ),
                ),
            ],
        )
        // statements
        .inductive(
            "stmt",
            vec![
                ctor("s_skip", vec![]),
                ctor("s_assign", vec![id, aexp()]),
                ctor("s_seq", vec![stmt(), stmt()]),
            ],
        )
        // the statement interpreter (FRecursion; the paper's CEK machine)
        .recursion(
            "exec",
            "stmt",
            vec![(sym("S"), state())],
            state(),
            vec![
                case("s_skip", &[], v("S")),
                case(
                    "s_assign",
                    &["x", "a"],
                    c(
                        "st_cons",
                        vec![v("x"), f("aeval", vec![v("a"), v("S")]), v("S")],
                    ),
                ),
                case(
                    "s_seq",
                    &["s1", "s2"],
                    f("exec", vec![v("s2"), f("exec", vec![v("s1"), v("S")])]),
                ),
            ],
        )
}

/// Family `ImpGAI extends Imp`: the generic abstract-interpretation
/// framework (~550 LoC in the paper). Leaves the abstract domain and the
/// soundness of its transfer functions as further-bindable parameters.
pub fn imp_gai_family() -> FamilyDef {
    let id = Sort::Id;
    FamilyDef::extending("ImpGAI", "Imp")
        // the abstract value domain: extensible, initially empty
        .field(fpop::family::Field::Inductive {
            name: sym("absval"),
            ctors: vec![],
        })
        // abstract transfer functions — framework parameters (§7: fields
        // "largely unspecified", to be further bound by derived families)
        .abstract_fn("av_default", vec![], absval())
        .abstract_fn("av_num", vec![nat()], absval())
        .abstract_fn("av_plus", vec![absval(), absval()], absval())
        // abstract states
        .data(
            "astate",
            vec![
                ctor("ast_nil", vec![]),
                ctor("ast_cons", vec![id, absval(), astate()]),
            ],
        )
        .recursion(
            "ite_absval",
            "bool",
            vec![(sym("then_"), absval()), (sym("else_"), absval())],
            absval(),
            vec![
                case("true", &[], v("then_")),
                case("false", &[], v("else_")),
            ],
        )
        .recursion(
            "lookup_abs",
            "astate",
            vec![(sym("x"), id)],
            absval(),
            vec![
                case("ast_nil", &[], f("av_default", vec![])),
                case(
                    "ast_cons",
                    &["y", "a", "A"],
                    f(
                        "ite_absval",
                        vec![
                            f("id_eqb", vec![v("x"), v("y")]),
                            v("a"),
                            f("lookup_abs", vec![v("A"), v("x")]),
                        ],
                    ),
                ),
            ],
        )
        // the generic abstract evaluator and analyzer
        .recursion(
            "aeval_abs",
            "aexp",
            vec![(sym("A"), astate())],
            absval(),
            vec![
                case("a_num", &["n"], f("av_num", vec![v("n")])),
                case("a_var", &["x"], f("lookup_abs", vec![v("A"), v("x")])),
                case(
                    "a_plus",
                    &["a1", "a2"],
                    f(
                        "av_plus",
                        vec![
                            f("aeval_abs", vec![v("a1"), v("A")]),
                            f("aeval_abs", vec![v("a2"), v("A")]),
                        ],
                    ),
                ),
            ],
        )
        .recursion(
            "analyze",
            "stmt",
            vec![(sym("A"), astate())],
            astate(),
            vec![
                case("s_skip", &[], v("A")),
                case(
                    "s_assign",
                    &["x", "a"],
                    c(
                        "ast_cons",
                        vec![v("x"), f("aeval_abs", vec![v("a"), v("A")]), v("A")],
                    ),
                ),
                case(
                    "s_seq",
                    &["s1", "s2"],
                    f(
                        "analyze",
                        vec![v("s2"), f("analyze", vec![v("s1"), v("A")])],
                    ),
                ),
            ],
        )
        // the concretization relation: extensible, initially empty — each
        // derived family populates it for its own domain
        .predicate("rval", vec![nat(), absval()], vec![])
        .prop_definition(PropDef {
            name: sym("rstate"),
            params: vec![(sym("S"), state()), (sym("A"), astate())],
            body: Prop::forall(
                "x",
                id,
                rval(
                    f("lookup_st", vec![v("S"), v("x")]),
                    f("lookup_abs", vec![v("A"), v("x")]),
                ),
            ),
        })
        // framework parameters: soundness of the transfer functions
        .parameter(
            "rval_default",
            Prop::forall("n", nat(), rval(v("n"), f("av_default", vec![]))),
        )
        .parameter(
            "rval_num",
            Prop::forall("n", nat(), rval(v("n"), f("av_num", vec![v("n")]))),
        )
        .parameter(
            "rval_plus",
            Prop::foralls(
                &[
                    (sym("n1"), nat()),
                    (sym("n2"), nat()),
                    (sym("a1"), absval()),
                    (sym("a2"), absval()),
                ],
                Prop::imps(
                    &[rval(v("n1"), v("a1")), rval(v("n2"), v("a2"))],
                    rval(
                        f("nadd", vec![v("n1"), v("n2")]),
                        f("av_plus", vec![v("a1"), v("a2")]),
                    ),
                ),
            ),
        )
        // generic soundness of the abstract evaluator (FInduction on aexp)
        .data_induction(
            "aeval_sound",
            "aexp",
            DataMotive {
                param: sym("a"),
                sort: aexp(),
                body: Prop::forall(
                    "S",
                    state(),
                    Prop::forall(
                        "A",
                        astate(),
                        Prop::imp(
                            rstate(v("S"), v("A")),
                            rval(
                                f("aeval", vec![v("a"), v("S")]),
                                f("aeval_abs", vec![v("a"), v("A")]),
                            ),
                        ),
                    ),
                ),
            },
            vec![
                (
                    "a_num",
                    vec![
                        i("S"),
                        i("A"),
                        i("H"),
                        rw("aeval_a_num_eq"),
                        rw("aeval_abs_a_num_eq"),
                        af("rval_num", vec![]),
                    ],
                ),
                (
                    "a_var",
                    vec![
                        i("S"),
                        i("A"),
                        i("H"),
                        rw("aeval_a_var_eq"),
                        rw("aeval_abs_a_var_eq"),
                        Tactic::UnfoldIn("rstate".into(), "H".into()),
                        ah("H", vec![]),
                    ],
                ),
                (
                    "a_plus",
                    vec![
                        i("S"),
                        i("A"),
                        i("H"),
                        rw("aeval_a_plus_eq"),
                        rw("aeval_abs_a_plus_eq"),
                        af("rval_plus", vec![]),
                        ah("IH0", vec![]),
                        ex("H"),
                        ah("IH1", vec![]),
                        ex("H"),
                    ],
                ),
            ],
        )
        // generic soundness of the analyzer (FInduction on stmt): the
        // paper's headline theorem for this case study
        .data_induction(
            "analyze_sound",
            "stmt",
            DataMotive {
                param: sym("s"),
                sort: stmt(),
                body: Prop::forall(
                    "S",
                    state(),
                    Prop::forall(
                        "A",
                        astate(),
                        Prop::imp(
                            rstate(v("S"), v("A")),
                            rstate(
                                f("exec", vec![v("s"), v("S")]),
                                f("analyze", vec![v("s"), v("A")]),
                            ),
                        ),
                    ),
                ),
            },
            vec![
                (
                    "s_skip",
                    vec![
                        i("S"),
                        i("A"),
                        i("H"),
                        rw("exec_s_skip_eq"),
                        rw("analyze_s_skip_eq"),
                        ex("H"),
                    ],
                ),
                (
                    "s_assign",
                    vec![
                        i("S"),
                        i("A"),
                        i("H"),
                        rw("exec_s_assign_eq"),
                        rw("analyze_s_assign_eq"),
                        Tactic::Unfold("rstate".into()),
                        i("x0"),
                        rw("lookup_st_st_cons_eq"),
                        rw("lookup_abs_ast_cons_eq"),
                        Tactic::Branch(
                            Box::new(Tactic::CaseTerm(f("id_eqb", vec![v("x0"), v("assign0")]))),
                            vec![
                                vec![
                                    Tactic::Rewrite("Hcase".into()),
                                    rw("ite_nat_true_eq"),
                                    rw("ite_absval_true_eq"),
                                    af("aeval_sound", vec![]),
                                    ex("H"),
                                ],
                                vec![
                                    Tactic::Rewrite("Hcase".into()),
                                    rw("ite_nat_false_eq"),
                                    rw("ite_absval_false_eq"),
                                    Tactic::UnfoldIn("rstate".into(), "H".into()),
                                    ah("H", vec![]),
                                ],
                            ],
                        ),
                    ],
                ),
                (
                    "s_seq",
                    vec![
                        i("S"),
                        i("A"),
                        i("H"),
                        rw("exec_s_seq_eq"),
                        rw("analyze_s_seq_eq"),
                        ah("IH1", vec![]),
                        ah("IH0", vec![]),
                        ex("H"),
                    ],
                ),
            ],
        )
}

/// Family `ImpTI extends ImpGAI`: type inference — the single-type domain
/// `Nat` (the paper's TI instance, ~200 LoC).
pub fn imp_ti_family() -> FamilyDef {
    FamilyDef::extending("ImpTI", "ImpGAI")
        .extend_inductive("absval", vec![ctor("av_tnat", vec![])])
        .override_definition(AliasFn {
            name: sym("av_default"),
            params: vec![],
            ret: absval(),
            body: Term::c0("av_tnat"),
        })
        .override_definition(AliasFn {
            name: sym("av_num"),
            params: vec![(sym("n"), nat())],
            ret: absval(),
            body: Term::c0("av_tnat"),
        })
        .override_definition(AliasFn {
            name: sym("av_plus"),
            params: vec![(sym("a"), absval()), (sym("b"), absval())],
            ret: absval(),
            body: Term::c0("av_tnat"),
        })
        .extend_predicate(
            "rval",
            vec![objlang::sig::Rule {
                name: sym("rv_tnat"),
                binders: vec![(sym("n"), nat())],
                premises: vec![],
                conclusion: vec![v("n"), Term::c0("av_tnat")],
            }],
        )
        .override_theorem(
            "rval_default",
            vec![i("n"), fs(), ar("rval", "rv_tnat", vec![])],
        )
        .override_theorem(
            "rval_num",
            vec![i("n"), fs(), ar("rval", "rv_tnat", vec![])],
        )
        .override_theorem(
            "rval_plus",
            vec![
                i("n1"),
                i("n2"),
                i("a1"),
                i("a2"),
                i("H1"),
                i("H2"),
                fs(),
                ar("rval", "rv_tnat", vec![]),
            ],
        )
}

/// Family `ImpCP extends ImpGAI`: constant propagation over the flat
/// lattice `av_top / av_const n` (the paper's CP instance, ~300 LoC).
pub fn imp_cp_family() -> FamilyDef {
    FamilyDef::extending("ImpCP", "ImpGAI")
        .extend_inductive(
            "absval",
            vec![ctor("av_top", vec![]), ctor("av_const", vec![nat()])],
        )
        .override_definition(AliasFn {
            name: sym("av_default"),
            params: vec![],
            ret: absval(),
            body: Term::c0("av_top"),
        })
        .override_definition(AliasFn {
            name: sym("av_num"),
            params: vec![(sym("n"), nat())],
            ret: absval(),
            body: c("av_const", vec![v("n")]),
        })
        // abstract addition, defined by (late-bound) recursion on absval
        .recursion(
            "cp_plus2",
            "absval",
            vec![(sym("n"), nat())],
            absval(),
            vec![
                case("av_top", &[], Term::c0("av_top")),
                case(
                    "av_const",
                    &["m"],
                    c("av_const", vec![f("nadd", vec![v("n"), v("m")])]),
                ),
            ],
        )
        .recursion(
            "cp_plus",
            "absval",
            vec![(sym("b"), absval())],
            absval(),
            vec![
                case("av_top", &[], Term::c0("av_top")),
                case("av_const", &["n"], f("cp_plus2", vec![v("b"), v("n")])),
            ],
        )
        .override_definition(AliasFn {
            name: sym("av_plus"),
            params: vec![(sym("a"), absval()), (sym("b"), absval())],
            ret: absval(),
            body: f("cp_plus", vec![v("a"), v("b")]),
        })
        .extend_predicate(
            "rval",
            vec![
                objlang::sig::Rule {
                    name: sym("rv_top"),
                    binders: vec![(sym("n"), nat())],
                    premises: vec![],
                    conclusion: vec![v("n"), Term::c0("av_top")],
                },
                objlang::sig::Rule {
                    name: sym("rv_const"),
                    binders: vec![(sym("n"), nat())],
                    premises: vec![],
                    conclusion: vec![v("n"), c("av_const", vec![v("n")])],
                },
            ],
        )
        .override_theorem(
            "rval_default",
            vec![i("n"), fs(), ar("rval", "rv_top", vec![])],
        )
        .override_theorem(
            "rval_num",
            vec![i("n"), fs(), ar("rval", "rv_const", vec![])],
        )
        // rval_plus needs closed-world inversion of rval — a
        // reprove-on-extend proof, like the paper's inversion lemmas.
        .field(fpop::family::Field::OverrideTheorem {
            name: sym("rval_plus"),
            proof: fpop::family::ProofSpec::ReproveOnExtend {
                script: vec![
                    i("n1"),
                    i("n2"),
                    i("a1"),
                    i("a2"),
                    i("H1"),
                    i("H2"),
                    fs(),
                    Tactic::Branch(
                        Box::new(Tactic::Inversion("H1".into())),
                        vec![
                            // a1 = av_top
                            vec![fs(), ar("rval", "rv_top", vec![])],
                            // a1 = av_const n1
                            vec![
                                fs(),
                                Tactic::Branch(
                                    Box::new(Tactic::Inversion("H2".into())),
                                    vec![
                                        vec![fs(), ar("rval", "rv_top", vec![])],
                                        vec![fs(), ar("rval", "rv_const", vec![])],
                                    ],
                                ),
                            ],
                        ],
                    ),
                ]
                .into(),
                depends_on: vec![sym("rval"), sym("absval")],
            },
        })
}

/// Family `ImpCPDouble extends ImpCP`: extends the *expression syntax*
/// with `a_double` (doubling), further binding the interpreter, the
/// abstract evaluator, and the generic soundness proof — the Imp
/// counterpart of the STLC feature extensions, showing the framework stays
/// extensible after instantiation.
pub fn imp_cp_double_family() -> FamilyDef {
    FamilyDef::extending("ImpCPDouble", "ImpCP")
        .extend_inductive("aexp", vec![ctor("a_double", vec![aexp()])])
        .extend_recursion(
            "aeval",
            vec![case(
                "a_double",
                &["a"],
                f(
                    "nadd",
                    vec![
                        f("aeval", vec![v("a"), v("S")]),
                        f("aeval", vec![v("a"), v("S")]),
                    ],
                ),
            )],
        )
        .extend_recursion(
            "aeval_abs",
            vec![case(
                "a_double",
                &["a"],
                f(
                    "av_plus",
                    vec![
                        f("aeval_abs", vec![v("a"), v("A")]),
                        f("aeval_abs", vec![v("a"), v("A")]),
                    ],
                ),
            )],
        )
        .extend_data_induction(
            "aeval_sound",
            vec![(
                "a_double",
                vec![
                    i("S"),
                    i("A"),
                    i("H"),
                    rw("aeval_a_double_eq"),
                    rw("aeval_abs_a_double_eq"),
                    af("rval_plus", vec![]),
                    ah("IH0", vec![]),
                    ex("H"),
                    ah("IH0", vec![]),
                    ex("H"),
                ],
            )],
        )
}
