//! Kernel micro-benchmarks: the `objlang` term/prop operations on the hot
//! path of every check — construction, equality, substitution, free-var
//! collection, subterm replacement, evaluation, and a full `fsimpl` proof
//! — plus the incremental-recheck series (PERF-incr): what a one-field
//! edit costs against a warm full rebuild of the same lattice.
//!
//! These are the direct before/after probes for the hash-consed term
//! representation and the fingerprint memo; results land in
//! `BENCH_kernel.json`.

use crate::harness::Bencher;
use objlang::eval::{eval_default, nat_lit, nat_value};
use objlang::ident::sym;
use objlang::prelude;
use objlang::proof::ProofState;
use objlang::sig::Signature;
use objlang::syntax::{Prop, Sort, Term};
use std::collections::HashMap;

/// `succ^n(x)` — a deep chain ending in a variable.
fn deep_with_var(n: usize, v: &str) -> Term {
    let mut t = Term::var(v);
    for _ in 0..n {
        t = Term::ctor("succ", vec![t]);
    }
    t
}

/// A wide, moderately deep term: `f(pair(x_{i mod 32}, 8), …)` with `n`
/// arguments.
fn wide(n: usize) -> Term {
    Term::func(
        "f",
        (0..n)
            .map(|i| Term::ctor("pair", vec![Term::var(&format!("x{}", i % 32)), nat_lit(8)]))
            .collect(),
    )
}

/// A signature with `nat` and `add` for the evaluator / prover benches.
fn nat_sig() -> Signature {
    let mut sig = Signature::new();
    prelude::install(&mut sig).unwrap();
    prelude::install_nat_add(&mut sig).unwrap();
    sig
}

/// Registers the kernel series on `b`.
pub fn run(b: &mut Bencher) {
    eprintln!("\n== kernel: objlang term/prop operations ==");

    b.bench("kernel/build_nat_512", 1.0, || nat_lit(512));

    {
        let x = nat_lit(512);
        let y = nat_lit(512);
        b.bench("kernel/eq_deep_equal", 1.0, || x == y);
        let z = nat_lit(511);
        b.bench("kernel/eq_deep_diff", 1.0, || x == z);
    }

    {
        let t = deep_with_var(256, "x");
        let mut hit = HashMap::new();
        hit.insert(sym("x"), nat_lit(16));
        let mut miss = HashMap::new();
        miss.insert(sym("y"), nat_lit(16));
        b.bench("kernel/subst_deep_hit", 1.0, || t.subst(&hit));
        b.bench("kernel/subst_deep_miss", 1.0, || t.subst(&miss));
        let v = nat_lit(16);
        b.bench("kernel/subst1_deep", 1.0, || t.subst1(sym("x"), &v));
    }

    {
        let t = wide(256);
        let v = nat_lit(4);
        b.bench("kernel/subst1_wide", 1.0, || t.subst1(sym("x7"), &v));
        b.bench("kernel/free_vars_wide", 1.0, || t.free_vars());
        let needle = Term::var("x31");
        b.bench("kernel/contains_wide", 1.0, || t.contains(&needle));
        let from = nat_lit(8);
        let to = nat_lit(0);
        b.bench("kernel/replace_wide", 1.0, || t.replace(&from, &to));
        b.bench("kernel/size_wide", 1.0, || t.size());
    }

    {
        // Quantified prop substitution: exercises the capture-avoidance
        // machinery (free-var scans of every mapped term per binder).
        let body = Prop::eq(
            Term::func("add", vec![Term::var("a"), Term::var("n")]),
            Term::func("add", vec![Term::var("n"), Term::var("a")]),
        );
        let p = Prop::foralls(
            &[
                (sym("n"), Sort::named("nat")),
                (sym("m"), Sort::named("nat")),
                (sym("k"), Sort::named("nat")),
            ],
            body,
        );
        let v = nat_lit(32);
        b.bench("kernel/prop_subst1_quant", 1.0, || p.subst1(sym("a"), &v));
        let q = p.clone();
        b.bench("kernel/prop_alpha_eq", 1.0, || p.alpha_eq(&q));
    }

    {
        // The evaluator series. `eval_default` transparently dispatches
        // compilable call graphs to the bytecode VM (via the process
        // global compiled-code cache), so `kernel/eval_add_64` is the
        // *served* cost — the series history across PRs measures the VM
        // win directly. The `_interp` twins force the tree-walking
        // reference path; `_vm` names the explicit cache-served path on
        // a dedicated cache (identical to the default path after the
        // first iteration warms the compile).
        let sig = nat_sig();
        let t = Term::func("add", vec![nat_lit(64), nat_lit(64)]);
        b.bench("kernel/eval_add_64", 1.0, || {
            let v = eval_default(&sig, &t).unwrap();
            assert_eq!(nat_value(&v), Some(128));
            v
        });
        b.bench("kernel/eval_add_64_interp", 1.0, || {
            let mut fuel = 1_000_000;
            let v = objlang::eval::eval_interp(&sig, &t, &mut fuel).unwrap();
            assert_eq!(nat_value(&v), Some(128));
            v
        });
        let cache = objlang::vm::CodeCache::new();
        b.bench("kernel/eval_add_64_vm", 1.0, || {
            let mut fuel = 1_000_000;
            let v = objlang::eval::eval_with_cache(&sig, &t, &mut fuel, &cache).unwrap();
            assert_eq!(nat_value(&v), Some(128));
            v
        });
        b.mark_speedup_vs_interp("kernel/eval_add_64_vm", "kernel/eval_add_64_interp");
        b.mark_speedup_vs_interp("kernel/eval_add_64", "kernel/eval_add_64_interp");

        // Deeper recursion: 512+512 unfolds ~1k applications and builds
        // a 1k-deep numeral; interpreter fuel stays well under the 1M
        // default budget (~400k), so both paths complete.
        let big = Term::func("add", vec![nat_lit(512), nat_lit(512)]);
        b.bench("kernel/eval_add_512_interp", 1.0, || {
            let mut fuel = 1_000_000;
            let v = objlang::eval::eval_interp(&sig, &big, &mut fuel).unwrap();
            assert_eq!(nat_value(&v), Some(1024));
            v
        });
        b.bench("kernel/eval_add_512_vm", 1.0, || {
            let mut fuel = 1_000_000;
            let v = objlang::eval::eval_with_cache(&sig, &big, &mut fuel, &cache).unwrap();
            assert_eq!(nat_value(&v), Some(1024));
            v
        });
        b.mark_speedup_vs_interp("kernel/eval_add_512_vm", "kernel/eval_add_512_interp");

        // One-time compile cost of `add`'s closure (analysis + bytecode
        // + cache insert, fresh cache every iteration) — the price the
        // first evaluation of a graph pays before the digest-keyed cache
        // amortizes it to a lookup.
        b.bench("kernel/vm_compile_add", 1.0, || {
            let fresh = objlang::vm::CodeCache::new();
            objlang::vm::precompile(&sig, sym("add"), &fresh)
        });
    }

    {
        // A whole kernel proof driven by the fsimpl rewriting loop — the
        // macro-level probe for rewrite memoization.
        let sig = nat_sig();
        let goal = Prop::forall(
            "n",
            Sort::named("nat"),
            Prop::eq(
                Term::func("add", vec![Term::c0("zero"), Term::var("n")]),
                Term::var("n"),
            ),
        );
        b.bench("kernel/prove_add_zero", 1.0, || {
            let mut st = ProofState::new(&sig, goal.clone()).unwrap();
            st.intro().unwrap();
            st.fsimpl().unwrap();
            st.reflexivity().unwrap();
            st.qed().unwrap()
        });
    }

    recheck_series(b);
}

/// PERF-incr: the edit-to-reverified latency series on the 16-variant
/// `Feature::all()` sub-lattice.
///
/// * `lattice/full_rebuild_warm` — the pre-memo behavior on *any* edit:
///   re-elaborate every variant (testkit's sequential reference, every
///   variant defined in plan order). The session's proof cache is warm (the
///   obligations all hit), so this isolates elaboration itself, which is
///   exactly what the fingerprint memo avoids.
/// * `lattice/recheck_one_field` — the `redefine` verb on the cold
///   build's plan: one variant is forced dirty, its dependency cone is
///   served by early cutoff, and independent variants replay.
/// * `lattice/recheck_noop` — resubmitting the unchanged lattice: zero
///   dirty variants, every row replays from the memo. The floor of the
///   series — pure fingerprinting + replay cost.
///
/// `speedup_vs_full_rebuild` on the two recheck rows is the headline
/// PERF-incr number (acceptance: `recheck_one_field` ≥ 5×). The ratio is
/// work-proportionality, not thread parallelism, so it is meaningful on
/// a single core.
fn recheck_series(b: &mut Bencher) {
    use families_stlc::{lattice, subset_defs, Feature};
    use fpop::universe::FamilyUniverse;
    use testkit::lattice_ref::build_sequential;

    eprintln!("\n== kernel: incremental recheck (fingerprint early cutoff) ==");
    let feats = Feature::all();

    // One cold build warms both caches the series leans on: the session
    // proof cache and the elaboration memo. Its plan is the one the
    // served redefine keeps.
    let plan = lattice::Plan::new(&feats).expect("lattice plans");
    let mut warm = FamilyUniverse::new();
    let rows = lattice::build(&mut warm, &plan, 1)
        .expect("cold lattice build")
        .rows
        .len();

    b.bench("lattice/full_rebuild_warm", rows as f64, || {
        let mut u = FamilyUniverse::with_session(warm.session().clone());
        let rep = build_sequential(&mut u, &feats).expect("warm full rebuild");
        assert_eq!(rep.rows.len(), rows);
        rep.rows.len()
    });

    b.bench("lattice/recheck_one_field", rows as f64, || {
        let (_, rep, outcome) =
            lattice::redefine(warm.session(), &plan, "STLCFix", "step_fix_inv", 1)
                .expect("recheck");
        assert_eq!(outcome.dirty, 1, "exactly the touched variant re-runs");
        rep.rows.len()
    });

    b.bench("lattice/recheck_noop", rows as f64, || {
        let (_, rep, outcome) =
            lattice::rebuild(&warm, &feats, subset_defs(&feats), &[], 1).expect("no-op recheck");
        assert_eq!(outcome.dirty, 0, "an unchanged lattice re-proves nothing");
        rep.rows.len()
    });

    b.mark_speedup_vs_full_rebuild("lattice/recheck_one_field", "lattice/full_rebuild_warm");
    b.mark_speedup_vs_full_rebuild("lattice/recheck_noop", "lattice/full_rebuild_warm");
}
