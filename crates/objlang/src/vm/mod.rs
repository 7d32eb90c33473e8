//! Bytecode compilation for the evaluator: a digest-keyed compiler from
//! structurally-recursive function definitions to a flat stack bytecode,
//! plus a fuel-metered VM.
//!
//! The tree-walking interpreter in [`crate::eval`] re-traverses every
//! substituted value on every recursion step, so `add(n, m)` on Peano
//! numerals costs O(n·(n+m)) fuel *and* time. The VM destructures interned
//! scrutinees in O(1), binds locals positionally, and charges the exact
//! same fuel via lump sums of the interner's cached value sizes — so it is
//! observationally identical to the interpreter (same values, same error
//! strings, same remaining fuel) while running the recursion in linear
//! time.
//!
//! Pipeline:
//!
//! 1. `compile::analyze` walks the call graph from the root function,
//!    folding every reachable definition (bodies by their hash-consed
//!    PR-5 digests) into a content-addressed *closure digest*;
//! 2. the digest keys a lookup in a [`CodeCache`] — the process-global
//!    [`global_cache`] for transparent `eval` dispatch, or a
//!    session-scoped cache (`fpop::Session`) for engine-served requests,
//!    which counts its traffic in the session's metrics registry;
//! 3. on miss, `compile::compile` flattens each `Rec` case and `Alias`
//!    body into straight-line stack code (negative verdicts are cached
//!    too);
//! 4. `exec::run` applies the compiled entry to already-evaluated
//!    arguments. Anything the compiler cannot prove static — abstract
//!    (late-bound) functions anywhere in the closure, unknown heads,
//!    unbound variables, call-arity mismatches — leaves the whole graph
//!    `NotCompilable`, and the interpreter keeps serving it unchanged.
//!
//! Compiled code is **derived, never trusted from disk**: the cache is
//! in-memory only, is not part of session snapshots, and is rebuilt from
//! checked signatures on demand. Nothing here can change a verdict — a
//! miscompile could change *performance*, and the differential oracle
//! (`testkit/tests/vm_differential.rs`) guards the semantics.

pub(crate) mod cache;
pub(crate) mod compile;
pub(crate) mod exec;

use std::sync::Arc;
use std::time::Instant;

use crate::ident::Symbol;
use crate::sig::{FnDef, Signature};
use crate::syntax::Term;

pub use cache::{global_cache, CodeCache, CodeCacheStats};

use cache::Slot;
use compile::Program;

/// Looks up (or compiles) the program for `root`'s call-graph closure in
/// `cache`. `None` means the closure is not compilable and callers must
/// use the interpreter.
fn lookup_or_compile(cache: &CodeCache, sig: &Signature, root: Symbol) -> Option<Arc<Program>> {
    let analysis = compile::analyze(sig, root);
    if let Some(slot) = cache.lookup(analysis.key) {
        return match slot {
            Slot::Compiled(p) => Some(p),
            Slot::NotCompilable => None,
        };
    }
    let start = Instant::now();
    let compiled = compile::compile(sig, &analysis).map(Arc::new);
    cache.note_compile(start.elapsed());
    match compiled {
        Some(p) => {
            cache.insert(analysis.key, Slot::Compiled(Arc::clone(&p)));
            Some(p)
        }
        None => {
            cache.insert(analysis.key, Slot::NotCompilable);
            None
        }
    }
}

/// Attempts to dispatch the application of `f` to the already-evaluated
/// `vals` into compiled code. `None` means "not handled here" — the
/// caller falls through to the interpreter's `apply` (unknown, abstract
/// or builtin heads, arity mismatches at the root, uncompilable
/// closures). `Some(result)` is observationally identical to what the
/// interpreter would have produced: same value or error, same fuel left.
pub(crate) fn dispatch(
    sig: &Signature,
    f: Symbol,
    vals: &[Term],
    fuel: &mut u64,
    cache: &CodeCache,
) -> Option<crate::error::Result<Term>> {
    let arity = match sig.function(f)? {
        FnDef::Rec(r) => 1 + r.params.len(),
        FnDef::Alias(a) => a.params.len(),
        // `id_eqb` is cheaper interpreted; abstract always errors there.
        FnDef::IdEqb | FnDef::Abstract { .. } => return None,
    };
    if vals.len() != arity {
        // The interpreter's zip semantics truncate mismatched argument
        // lists; keep those shapes on the reference path.
        return None;
    }
    let prog = lookup_or_compile(cache, sig, f)?;
    let (res, deopts) = exec::run(sig, &prog, vals, fuel);
    cache.note_exec(deopts);
    Some(res)
}

/// Compiles `root`'s closure into `cache` ahead of time (e.g. when a
/// family closes its late-bound recursions). Returns `true` if the
/// closure is compiled (now or already), `false` if it is not compilable.
pub fn precompile(sig: &Signature, root: Symbol, cache: &CodeCache) -> bool {
    lookup_or_compile(cache, sig, root).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_interp, eval_with_cache, nat_lit, nat_value};
    use crate::ident::sym;
    use crate::sig::{AliasFn, CtorSig, Datatype, RecCase, RecFn};
    use crate::syntax::Sort;

    fn nat_sig() -> Signature {
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
        s.add_fn(FnDef::Rec(RecFn {
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
        s
    }

    /// Differential check against the interpreter: same verdict (value or
    /// error string) *and* same remaining fuel, across every fuel level
    /// from 0 past the exact requirement.
    fn assert_parity_all_fuels(sig: &Signature, t: &Term, max_fuel: u64) {
        let cache = CodeCache::new();
        for f0 in 0..=max_fuel {
            let (mut fi, mut fv) = (f0, f0);
            let ri = eval_interp(sig, t, &mut fi);
            let rv = eval_with_cache(sig, t, &mut fv, &cache);
            let show = |r: &crate::error::Result<Term>| match r {
                Ok(v) => format!("Ok({v})"),
                Err(e) => format!("Err({e})"),
            };
            assert_eq!(show(&ri), show(&rv), "verdict diverged at fuel {f0} on {t}");
            assert_eq!(fi, fv, "remaining fuel diverged at fuel {f0} on {t}");
        }
    }

    #[test]
    fn vm_add_matches_interpreter() {
        let s = nat_sig();
        let t = Term::func("add", vec![nat_lit(13), nat_lit(29)]);
        let cache = CodeCache::counted(&trace::Registry::new());
        let mut fuel = 1_000_000;
        let v = eval_with_cache(&s, &t, &mut fuel, &cache).unwrap();
        assert_eq!(nat_value(&v), Some(42));
        assert_eq!(cache.stats().compiled, 1);
        // Second run hits the cache.
        let mut fuel2 = 1_000_000;
        eval_with_cache(&s, &t, &mut fuel2, &cache).unwrap();
        assert!(cache.stats().hits >= 1);
        assert_eq!(fuel, fuel2, "fuel accounting must be deterministic");
    }

    #[test]
    fn fuel_parity_exhaustive_low_fuel() {
        let s = nat_sig();
        // Exact requirement for add(3,4) is small; sweep well past it.
        assert_parity_all_fuels(&s, &Term::func("add", vec![nat_lit(3), nat_lit(4)]), 120);
    }

    #[test]
    fn fuel_parity_on_error_paths() {
        let mut s = nat_sig();
        s.add_fn(FnDef::IdEqb).unwrap();
        // Missing case: strip nothing — instead apply add to a literal
        // (non-constructor scrutinee).
        assert_parity_all_fuels(&s, &Term::func("add", vec![Term::lit("x"), nat_lit(1)]), 16);
        // id_eqb inside a compiled body, applied to non-literals.
        s.add_fn(FnDef::Alias(AliasFn {
            name: sym("eqz"),
            params: vec![(sym("a"), Sort::Id)],
            ret: Sort::named("bool"),
            body: Term::func("id_eqb", vec![Term::var("a"), Term::lit("k")]),
        }))
        .unwrap();
        assert_parity_all_fuels(&s, &Term::func("eqz", vec![Term::lit("k")]), 8);
        assert_parity_all_fuels(&s, &Term::func("eqz", vec![nat_lit(2)]), 8);
    }

    #[test]
    fn missing_case_matches_interpreter() {
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
        // Only a zero case: succ inputs hit "no case for constructor".
        s.add_fn(FnDef::Rec(RecFn {
            name: sym("pred0"),
            rec_sort: sym("nat"),
            params: vec![],
            ret: Sort::named("nat"),
            cases: vec![RecCase {
                ctor: sym("zero"),
                arg_vars: vec![],
                body: Term::c0("zero"),
            }],
        }))
        .unwrap();
        assert_parity_all_fuels(&s, &Term::func("pred0", vec![nat_lit(2)]), 12);
    }

    #[test]
    fn abstract_closure_falls_back() {
        let mut s = nat_sig();
        s.add_fn(FnDef::Abstract {
            name: sym("mystery"),
            params: vec![Sort::named("nat")],
            ret: Sort::named("nat"),
        })
        .unwrap();
        // touch calls an abstract function in one branch only: the whole
        // closure is uncompilable, and evaluation must still agree with
        // the interpreter on the branch that avoids the abstract call.
        s.add_fn(FnDef::Rec(RecFn {
            name: sym("touch"),
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
                    body: Term::func("mystery", vec![Term::var("n")]),
                },
            ],
        }))
        .unwrap();
        let cache = CodeCache::counted(&trace::Registry::new());
        let t_ok = Term::func("touch", vec![nat_lit(0)]);
        let mut fuel = 1_000;
        let v = eval_with_cache(&s, &t_ok, &mut fuel, &cache).unwrap();
        assert_eq!(nat_value(&v), Some(0));
        assert_eq!(
            cache.stats().compiled,
            0,
            "abstract closure must not compile"
        );
        assert_eq!(cache.stats().rejected, 1);
        assert_parity_all_fuels(&s, &Term::func("touch", vec![nat_lit(2)]), 16);
    }

    #[test]
    fn content_addressing_shares_code_across_signatures() {
        // Two independently built signatures with identical definitions
        // produce the same closure digest: one compile, then hits.
        let s1 = nat_sig();
        let s2 = nat_sig();
        let cache = CodeCache::counted(&trace::Registry::new());
        assert!(precompile(&s1, sym("add"), &cache));
        assert!(precompile(&s2, sym("add"), &cache));
        let st = cache.stats();
        assert_eq!(st.compiled, 1);
        assert!(st.hits >= 1);
        // A semantically different add (swapped case body) gets a new key.
        let mut s3 = Signature::new();
        s3.add_datatype(Datatype {
            name: sym("nat"),
            ctors: vec![
                CtorSig::new("zero", vec![]),
                CtorSig::new("succ", vec![Sort::named("nat")]),
            ],
            extensible: false,
        })
        .unwrap();
        s3.add_fn(FnDef::Rec(RecFn {
            name: sym("add"),
            rec_sort: sym("nat"),
            params: vec![(sym("m"), Sort::named("nat"))],
            ret: Sort::named("nat"),
            cases: vec![
                RecCase {
                    ctor: sym("zero"),
                    arg_vars: vec![],
                    body: Term::c0("zero"), // not the identity!
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
        assert!(precompile(&s3, sym("add"), &cache));
        assert_eq!(cache.stats().compiled, 2);
    }

    #[test]
    fn runtime_arity_mismatch_deopts_to_interpreter() {
        let s = nat_sig();
        // succ with two arguments: no sort-checker saw this value, and
        // the case binds one var. The interpreter's zip truncates; the VM
        // must hand the application back and agree exactly.
        let weird = Term::ctor("succ", vec![nat_lit(1), nat_lit(7)]);
        let t = Term::func("add", vec![weird, nat_lit(2)]);
        assert_parity_all_fuels(&s, &t, 40);
    }

    #[test]
    fn transparent_eval_default_uses_vm() {
        // A function name no other test uses gives a closure digest the
        // (process-wide, uncounted) global cache has never seen, so its
        // entry count must grow whatever other tests run concurrently.
        let mut s = nat_sig();
        s.add_fn(FnDef::Alias(AliasFn {
            name: sym("add_via_global_cache"),
            params: vec![
                (sym("a"), Sort::named("nat")),
                (sym("b"), Sort::named("nat")),
            ],
            ret: Sort::named("nat"),
            body: Term::func("add", vec![Term::var("a"), Term::var("b")]),
        }))
        .unwrap();
        let before = global_cache().entries();
        let t = Term::func("add_via_global_cache", vec![nat_lit(8), nat_lit(9)]);
        let v = crate::eval::eval_default(&s, &t).unwrap();
        assert_eq!(nat_value(&v), Some(17));
        assert!(
            global_cache().entries() > before,
            "eval_default must consult the global code cache"
        );
    }
}
