//! Case study 2 end-to-end: the generic framework, its two instances, and
//! the extracted interpreters (Section 7).

use families_imp::programs::{assign_num, assign_plus_vars, program, run_analysis, run_exec};
use fpop::universe::FamilyUniverse;
use objlang::Term;

fn build() -> FamilyUniverse {
    let mut u = FamilyUniverse::new();
    u.define(families_imp::imp_family()).expect("Imp");
    u.define(families_imp::imp_gai_family()).expect("ImpGAI");
    u.define(families_imp::imp_ti_family()).expect("ImpTI");
    u.define(families_imp::imp_cp_family()).expect("ImpCP");
    u
}

#[test]
fn framework_has_parameters_instances_do_not() {
    let u = build();
    let gai = u.family("ImpGAI").unwrap();
    // av_default/av_num/av_plus + 3 rval parameters are open in the framework.
    assert_eq!(gai.assumptions.len(), 6, "{:?}", gai.assumptions);
    assert!(u.family("ImpTI").unwrap().assumptions.is_empty());
    assert!(u.family("ImpCP").unwrap().assumptions.is_empty());
}

#[test]
fn soundness_theorem_inherited_by_instances() {
    let u = build();
    for fam in ["ImpGAI", "ImpTI", "ImpCP"] {
        let out = u.check(fam, "analyze_sound").unwrap();
        assert!(out.contains(&format!("{fam}.analyze_sound")), "{out}");
        assert!(out.contains(&format!("{fam}.exec")), "{out}");
    }
}

#[test]
fn extracted_constant_propagation_runs() {
    let u = build();
    let cp = u.family("ImpCP").unwrap();
    // x := 2; y := 3; z := x + y
    let prog = program(vec![
        assign_num("x", 2),
        assign_num("y", 3),
        assign_plus_vars("z", "x", "y"),
    ]);
    // Concrete run: z = 5.
    assert_eq!(run_exec(cp, &prog, "z").unwrap(), 5);
    // CP analysis: z is the constant 5.
    let av = run_analysis(cp, &prog, "z").unwrap();
    assert_eq!(av, Term::ctor("av_const", vec![objlang::eval::nat_lit(5)]));
    // An unassigned variable is ⊤.
    let av_w = run_analysis(cp, &prog, "w").unwrap();
    assert_eq!(av_w, Term::c0("av_top"));
}

#[test]
fn extracted_type_inference_runs() {
    let u = build();
    let ti = u.family("ImpTI").unwrap();
    let prog = program(vec![assign_num("x", 7), assign_plus_vars("y", "x", "x")]);
    assert_eq!(run_exec(ti, &prog, "y").unwrap(), 14);
    // TI infers the (only) type Nat for every variable.
    assert_eq!(run_analysis(ti, &prog, "y").unwrap(), Term::c0("av_tnat"));
    assert_eq!(run_analysis(ti, &prog, "x").unwrap(), Term::c0("av_tnat"));
}

#[test]
fn rstate_preserved_dynamically() {
    // Spot-check the soundness theorem's statement on concrete runs: the
    // analysis result of each variable concretizes its concrete value.
    let u = build();
    let cp = u.family("ImpCP").unwrap();
    let chain = program(vec![
        assign_num("a", 1),
        assign_plus_vars("b", "a", "a"),
        assign_plus_vars("c", "b", "a"),
    ]);
    // The CS2 row's Fibonacci-by-CP chain: f0 := 1; f1 := 1;
    // fk := f(k-2) + f(k-1) up to f7, the constant 21.
    let f = |k: usize| format!("f{k}");
    let mut fib = vec![assign_num("f0", 1), assign_num("f1", 1)];
    for k in 2..8 {
        fib.push(assign_plus_vars(&f(k), &f(k - 2), &f(k - 1)));
    }
    let fib = program(fib);
    for (prog, x, expect) in [
        (&chain, "a", 1u64),
        (&chain, "b", 2),
        (&chain, "c", 3),
        (&fib, "f7", 21),
    ] {
        let n = run_exec(cp, prog, x).unwrap();
        assert_eq!(n, expect);
        let av = run_analysis(cp, prog, x).unwrap();
        assert_eq!(av, Term::ctor("av_const", vec![objlang::eval::nat_lit(n)]));
    }
}

#[test]
fn syntax_extension_after_instantiation() {
    // ImpCPDouble extends the instantiated analyzer with new *syntax*:
    // the paper's extensibility composes with the framework pattern.
    let mut u = build();
    u.define(families_imp::imp_cp_double_family())
        .expect("ImpCPDouble");
    let fam = u.family("ImpCPDouble").unwrap();
    assert!(fam.assumptions.is_empty());
    // Soundness still inherited + extended.
    let out = u.check("ImpCPDouble", "analyze_sound").unwrap();
    assert!(out.contains("ImpCPDouble.analyze_sound"), "{out}");
    // x := 3; y := double(x)  ⇒ CP infers y = 6.
    let prog = program(vec![
        assign_num("x", 3),
        Term::ctor(
            "s_assign",
            vec![
                Term::lit("y"),
                Term::ctor("a_double", vec![Term::ctor("a_var", vec![Term::lit("x")])]),
            ],
        ),
    ]);
    assert_eq!(run_exec(fam, &prog, "y").unwrap(), 6);
    let av = run_analysis(fam, &prog, "y").unwrap();
    assert_eq!(av, Term::ctor("av_const", vec![objlang::eval::nat_lit(6)]));
}

#[test]
fn forgetting_aeval_case_is_exhaustivity_error() {
    // Extending aexp without further binding aeval is the C1 error.
    let mut u = build();
    let bad = fpop::family::FamilyDef::extending("ImpBad", "ImpCP")
        .extend_inductive("aexp", vec![objlang::sig::CtorSig::new("a_bogus", vec![])]);
    let err = u.define(bad).unwrap_err();
    assert!(format!("{err}").contains("not exhaustive"), "{err}");
}
