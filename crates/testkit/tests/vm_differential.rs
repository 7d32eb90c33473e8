//! Differential oracle #7: the objlang bytecode VM against the
//! tree-walking interpreter.
//!
//! The VM PR's claim is *observational identity*: for every signature and
//! every closed term, `eval_with_cache` (compile + stack VM where the
//! call graph allows, interpreter fallback otherwise, per-application
//! deopt on malformed constructors) produces the same verdict as
//! `eval_interp` — same value on success, same error string on failure,
//! and the **same remaining fuel**, to the unit, in both cases. Fuel is
//! the sharpest observable: the interpreter charges one unit per `eval`
//! entry in pre-order, so any divergence in traversal order, lump-sum
//! accounting, or deopt handling shows up as a fuel delta long before it
//! corrupts a value.
//!
//! Random definition sets come from `testkit::objfun_gen` (structural
//! recursions, aliases, abstract functions — so some graphs compile and
//! some must fall back); random root terms include wrong-arity calls,
//! malformed constructor values, `id_eqb` misuse, unknown functions, and
//! open variables. Each case sweeps fuel budgets from starvation to
//! surplus — including every value below the interpreter's own
//! consumption, so out-of-fuel frontiers must coincide exactly.
//!
//! Replay a failure with `FPOP_TEST_SEED=0x… cargo test -p testkit
//! --test vm_differential`; scale with `FPOP_TEST_ITERS=N`.

use objlang::eval::{eval_interp, eval_with_cache, nat_lit};
use objlang::sig::Signature;
use objlang::syntax::Term;
use objlang::vm::CodeCache;
use testkit::{forall, run_cases, Rng};

/// One evaluation, summarized for comparison: verdict (value display or
/// error string) plus the fuel left in the budget.
fn outcome(
    run: impl FnOnce(&mut u64) -> Result<Term, objlang::error::Error>,
    fuel: u64,
) -> (Result<String, String>, u64) {
    let mut budget = fuel;
    let verdict = run(&mut budget)
        .map(|v| v.to_string())
        .map_err(|e| e.to_string());
    (verdict, budget)
}

/// Asserts interpreter/VM agreement for one (sig, term, fuel) triple.
fn check_parity(sig: &Signature, cache: &CodeCache, t: &Term, fuel: u64) -> Result<(), String> {
    let (iv, ifuel) = outcome(|f| eval_interp(sig, t, f), fuel);
    let (vv, vfuel) = outcome(|f| eval_with_cache(sig, t, f, cache), fuel);
    if iv != vv {
        return Err(format!(
            "verdict divergence at fuel {fuel} on {t}:\n  interp: {iv:?}\n  vm:     {vv:?}"
        ));
    }
    if ifuel != vfuel {
        return Err(format!(
            "fuel divergence at fuel {fuel} on {t} (verdict {iv:?}): \
             interp left {ifuel}, vm left {vfuel}"
        ));
    }
    Ok(())
}

/// The main oracle: random signatures × random terms × a fuel sweep.
/// One `CodeCache` per signature, so later terms of a case exercise the
/// digest-keyed hit path as well as cold compilation.
#[test]
fn vm_agrees_with_interpreter_on_random_programs() {
    run_cases("vm_differential", 0x7e57_0b7e, 60, |r| {
        let (sig, fns) = testkit::objfun_gen::gen_sig(r);
        let cache = CodeCache::new();
        for _ in 0..8 {
            let t = testkit::objfun_gen::gen_eval_term(r, &fns, 3);
            // How much does the interpreter actually need? Bound the
            // low-fuel sweep by it so starvation frontiers are covered.
            let mut probe = 50_000u64;
            let _ = eval_interp(&sig, &t, &mut probe);
            let used = 50_000 - probe;
            // Every budget below consumption, a few around it, surplus.
            for fuel in 0..used.min(40) {
                if let Err(e) = check_parity(&sig, &cache, &t, fuel) {
                    panic!("{e}");
                }
            }
            for fuel in [used.saturating_sub(1), used, used + 1, 50_000] {
                if let Err(e) = check_parity(&sig, &cache, &t, fuel) {
                    panic!("{e}");
                }
            }
        }
    });
}

/// Seeded low-fuel audit on the canonical `add` recursion: sweeps every
/// budget from 0 to beyond full consumption, replayable and **shrinking**
/// (a failure reports the minimal `(m, n, fuel)` triple).
#[test]
fn low_fuel_frontier_shrinks_to_minimal_triple() {
    let sig = add_sig();
    let cache = CodeCache::new();
    forall(
        "vm_low_fuel_frontier",
        0xf0e1_d2c3,
        40,
        |r: &mut Rng| vec![r.below(12), r.below(12), r.below(400)],
        |v: &Vec<u64>| {
            let (m, n, fuel) = (
                v.first().copied().unwrap_or(0),
                v.get(1).copied().unwrap_or(0),
                v.get(2).copied().unwrap_or(0),
            );
            let t = Term::func("add", vec![nat_lit(m), nat_lit(n)]);
            check_parity(&sig, &cache, &t, fuel)
        },
    );
}

/// Non-compilable graphs (an abstract function in the closure) must take
/// the interpreter fallback with a cached negative verdict — and still
/// agree on everything, including the "close the family first" error.
#[test]
fn abstract_closures_fall_back_with_identical_verdicts() {
    use objlang::ident::sym;
    use objlang::sig::{AliasFn, FnDef};
    use objlang::syntax::Sort;

    let mut sig = add_sig();
    sig.add_fn(FnDef::Abstract {
        name: sym("mystery"),
        params: vec![Sort::named("nat")],
        ret: Sort::named("nat"),
    })
    .unwrap();
    sig.add_fn(FnDef::Alias(AliasFn {
        name: sym("wraps_mystery"),
        params: vec![(sym("x"), Sort::named("nat"))],
        ret: Sort::named("nat"),
        body: Term::func("mystery", vec![Term::var("x")]),
    }))
    .unwrap();

    // A session's code cache: it counts its traffic, which the checks
    // below read back.
    let session = fpop::Session::new();
    let cache = session.code_cache();
    let t = Term::func("wraps_mystery", vec![nat_lit(2)]);
    for fuel in 0..20u64 {
        check_parity(&sig, cache, &t, fuel).unwrap();
    }
    let stats = cache.stats();
    assert!(stats.rejected >= 1, "negative verdict cached: {stats:?}");
    assert_eq!(stats.compiled, 0, "nothing compiled: {stats:?}");
}

fn add_sig() -> Signature {
    use objlang::ident::sym;
    use objlang::sig::{FnDef, RecCase, RecFn};
    use objlang::syntax::Sort;
    let mut sig = Signature::new();
    objlang::prelude::install(&mut sig).unwrap();
    sig.add_fn(FnDef::Rec(RecFn {
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
    }))
    .unwrap();
    sig
}
