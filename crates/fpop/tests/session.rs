//! Integration tests for the check-session architecture at the `fpop`
//! level: cross-universe proof reuse through a shared [`Session`], and a
//! multi-threaded elaboration stress run (many universes, one session,
//! concurrent `define`s — the substrate the parallel lattice build
//! relies on).

use std::sync::Arc;

use fpop::family::FamilyDef;
use fpop::universe::FamilyUniverse;
use fpop::Session;
use objlang::sig::CtorSig;
use objlang::syntax::{Prop, Sort, Term};
use objlang::Tactic;

/// A small base family with one real proof obligation.
fn base_family(name: &str) -> FamilyDef {
    FamilyDef::new(name)
        .inductive("t", vec![CtorSig::new(&format!("{name}_one"), vec![])])
        .theorem(
            "one_exists",
            Prop::exists(
                "x",
                Sort::named("t"),
                Prop::eq(Term::var("x"), Term::var("x")),
            ),
            vec![
                Tactic::Exists(Term::c0(&format!("{name}_one"))),
                Tactic::Reflexivity,
            ],
        )
}

#[test]
fn private_sessions_do_not_share() {
    let mut a = FamilyUniverse::new();
    a.define(base_family("PrivA")).unwrap();
    let mut b = FamilyUniverse::new();
    b.define(base_family("PrivA2")).unwrap();
    // Different sessions: no hits crossed between them.
    assert_eq!(a.session().snapshot_stats().hits, 0);
    assert_eq!(b.session().snapshot_stats().hits, 0);
    assert!(a.session().snapshot_stats().inserts > 0);
}

#[test]
fn shared_session_reuses_identical_proofs_across_universes() {
    let session = Session::new();
    let mut a = FamilyUniverse::with_session(session.clone());
    a.define(base_family("Shared")).unwrap();
    let after_a = session.snapshot_stats();
    assert!(after_a.inserts > 0);

    // A second universe defines the *same* family content: every proof is
    // served from the session, nothing is re-inserted.
    let mut b = FamilyUniverse::with_session(session.clone());
    b.define(base_family("Shared")).unwrap();
    let after_b = session.snapshot_stats();
    assert_eq!(after_b.inserts, after_a.inserts);
    assert!(after_b.hits > after_a.hits);

    // Both universes answer Check identically.
    assert_eq!(
        a.check("Shared", "one_exists").unwrap(),
        b.check("Shared", "one_exists").unwrap()
    );
}

#[test]
fn concurrent_universes_one_session_stress() {
    const THREADS: usize = 8;
    let session = Session::new();

    // Warm the session with the proof all threads will reuse.
    let mut warm = FamilyUniverse::with_session(session.clone());
    warm.define(base_family("Stress")).unwrap();
    let warm_inserts = session.snapshot_stats().inserts;

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let session = Arc::clone(&session);
            s.spawn(move || {
                // Each thread runs several universes; every universe
                // defines the shared family (cache hits) plus a
                // thread-unique derived one (fresh checks), interleaving
                // interning, elaboration and session traffic.
                for round in 0..4 {
                    let mut u = FamilyUniverse::with_session(session.clone());
                    u.define(base_family("Stress")).unwrap();
                    let derived = format!("StressT{t}R{round}");
                    u.define(FamilyDef::extending(&derived, "Stress").extend_inductive(
                        "t",
                        vec![CtorSig::new(&format!("{derived}_extra"), vec![])],
                    ))
                    .unwrap();
                    let out = u.check(&derived, "one_exists").unwrap();
                    assert!(out.contains(&format!("{derived}.one_exists")), "{out}");
                }
            });
        }
    });

    let stats = session.snapshot_stats();
    // Every thread×round redefinition of `Stress` hit the warm proof.
    assert!(
        stats.hits as usize >= THREADS * 4,
        "expected ≥{} hits, got {stats:?}",
        THREADS * 4
    );
    // Identical proofs raced from many threads still deduplicate.
    assert_eq!(stats.inserts, warm_inserts, "duplicate inserts leaked");
}

/// A family with a nat-like datatype and a concrete structural recursion
/// — compilable by the bytecode VM, so defining it warms the session's
/// compiled-code cache.
fn nat_family(name: &str) -> FamilyDef {
    use objlang::ident::sym;
    use objlang::sig::RecCase;
    FamilyDef::new(name)
        // `nat` (zero/succ) comes from the prelude installed into every
        // elaboration; the family only closes the recursion over it.
        .recursion(
            "add",
            "nat",
            vec![(sym("m"), Sort::named("nat"))],
            Sort::named("nat"),
            vec![
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
        )
}

#[test]
fn shared_session_shares_compiled_code_across_universes() {
    let session = Session::new();

    // Defining a family with a concrete recursion compiles it into the
    // session's code cache.
    let mut a = FamilyUniverse::with_session(session.clone());
    a.define(nat_family("VmA")).unwrap();
    let after_a = session.code_cache().stats();
    assert_eq!(after_a.compiled, 1, "{after_a:?}");

    // A second universe on the same session closing `add` to the *same*
    // definition is a pure content-addressed hit: nothing recompiles.
    let mut b = FamilyUniverse::with_session(session.clone());
    b.define(nat_family("VmB")).unwrap();
    let after_b = session.code_cache().stats();
    assert_eq!(
        after_b.compiled, after_a.compiled,
        "recompiled: {after_b:?}"
    );
    assert!(after_b.hits > after_a.hits, "{after_b:?}");

    // Serving an eval from the session cache uses the compiled program
    // and agrees with the reference interpreter, fuel included.
    let fam = a.family("VmA").unwrap();
    let t = Term::func(
        "add",
        vec![objlang::eval::nat_lit(6), objlang::eval::nat_lit(7)],
    );
    let mut fuel_vm = 10_000u64;
    let v =
        objlang::eval::eval_with_cache(&fam.sig, &t, &mut fuel_vm, session.code_cache()).unwrap();
    assert_eq!(objlang::eval::nat_value(&v), Some(13));
    let mut fuel_interp = 10_000u64;
    let w = objlang::eval::eval_interp(&fam.sig, &t, &mut fuel_interp).unwrap();
    assert_eq!(v, w);
    assert_eq!(fuel_vm, fuel_interp, "fuel parity");
}
