//! Differential oracle 5: **executable progress & preservation** across
//! randomly composed STLC variants.
//!
//! For a random feature subset, the composed variant is built (so its
//! closed signature carries the *compiled* `subst` recursion, including
//! every retrofitted case), and random well-typed closed terms of that
//! variant are stepped under the reference CBV interpreter:
//!
//! * **preservation** — each reduct re-infers at the original type;
//! * **progress** — a term that cannot step is a value;
//! * **subst differential** — every substitution a step performs is
//!   replayed through the compiled family's `subst` function via
//!   [`objlang::eval`], and must produce exactly the erasure of the
//!   reference substitution (same shadowing, same binder semantics).
//!
//! The third point is the executable face of the paper's Section 7
//! metatheory: the generated `tm_fix`/`tm_case`/`tm_abs` binder handling
//! of every variant's `subst` agrees with textbook substitution.

use std::sync::Arc;

use families_stlc::lattice;
use fpop::universe::FamilyUniverse;
use fpop::Session;
use objlang::syntax::Term;
use testkit::family_gen::gen_feature_subset;
use testkit::harness::with_big_stack;
use testkit::term_gen::{erase, gen_typed_term, infer, is_value, meta_subst, step, term_size};
use testkit::{run_cases, Rng};

#[test]
fn random_variants_satisfy_executable_progress_preservation() {
    with_big_stack(run_oracle);
}

fn run_oracle() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // One shared proof-cache session keeps later variant builds warm.
    let session = Session::new();
    let subst_checks = AtomicUsize::new(0);
    run_cases("progress_preservation", 0x9209A3, 6, |r: &mut Rng| {
        let subset = gen_feature_subset(r);
        let feats = subset.normalized.clone();
        let mut u = FamilyUniverse::with_session(Arc::clone(&session));
        let plan = lattice::Plan::new(&feats).unwrap();
        lattice::build(&mut u, &plan, fpop::sched::default_workers())
            .expect("variant lattice builds");
        let top = subset.top_variant();
        let sig = &u.family(&top).expect("top variant compiled").sig;

        for _ in 0..4 {
            let tt = gen_typed_term(r, &feats, 3);
            let mut t = tt.term.clone();
            for _ in 0..40 {
                // st_fix copies the whole fixpoint into its own body, so
                // term size can grow geometrically; stop while recursive
                // traversal is still cheap and stack-safe.
                if term_size(&t) > 800 {
                    break;
                }
                match step(&t) {
                    None => {
                        assert!(
                            is_value(&t),
                            "[{top}] progress violated: stuck non-value {t:?}"
                        );
                        break;
                    }
                    Some((next, ev)) => {
                        // Preservation under the reference typechecker.
                        assert_eq!(
                            infer(&mut Vec::new(), &next).as_ref(),
                            Ok(&tt.ty),
                            "[{top}] preservation violated stepping {t:?}"
                        );
                        // Differential: replay the substitution through
                        // the *compiled* family's subst recursion.
                        if let Some(ev) = ev {
                            let call = Term::func(
                                "subst",
                                vec![erase(&ev.body), Term::lit(&ev.binder), erase(&ev.arg)],
                            );
                            let got = objlang::eval::eval_default(sig, &call).unwrap_or_else(|e| {
                                panic!("[{top}] compiled subst diverged/failed: {e:?}")
                            });
                            let want = erase(&meta_subst(&ev.body, &ev.binder, &ev.arg));
                            assert_eq!(
                                got, want,
                                "[{top}] compiled subst disagrees with reference \
                                 substituting {} into {:?}",
                                ev.binder, ev.body
                            );
                            subst_checks.fetch_add(1, Ordering::Relaxed);
                        }
                        t = next;
                    }
                }
            }
        }
    });
    // Non-vacuity: the subst differential must actually have fired
    // (unless a replay seed pinned a single substitution-free case).
    if std::env::var("FPOP_TEST_SEED").is_err() {
        assert!(
            subst_checks.load(Ordering::Relaxed) > 0,
            "no substitution was ever replayed through a compiled subst"
        );
    }
}
