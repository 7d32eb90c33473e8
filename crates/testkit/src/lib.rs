//! # testkit — the differential metatheory testing toolkit
//!
//! The paper's claims are metatheoretic, but after the check-session,
//! engine, and snapshot PRs the riskiest code in this repository is
//! *infrastructure* the paper never had: a concurrent content-addressed
//! proof cache, parallel lattice builders, a binary snapshot codec, and a
//! TCP daemon. This crate is the correctness tooling that continuously
//! checks those optimized paths against slow reference oracles — the
//! test-archetype analogue of a race detector for a proof engine.
//!
//! The pieces, one module each:
//!
//! * [`rng`] — the repo-standard xorshift64* PRNG (the same algorithm the
//!   in-tree `tests/support/rng.rs` shim re-exports).
//! * [`harness`] — seeded property runners with **failure-seed reporting**
//!   (`FPOP_TEST_SEED=0x… replays exactly one failing universe),
//!   iteration scaling for the nightly deep-fuzz job
//!   (`FPOP_TEST_ITERS=N` multiplies case counts), and **integrated
//!   shrinking** via the [`harness::Shrink`] trait.
//! * [`term_gen`] — feature-aware generators of *well-typed* STLC terms
//!   for every variant of the Section 7 lattice, plus the reference
//!   metatheory they are checked against: an annotated AST, a
//!   typechecker, capture-handling substitution, and a CBV small-step
//!   interpreter mirroring the families' `step` rules. Erasure maps the
//!   annotated terms onto the object syntax so the *compiled* families'
//!   `subst` can be run differentially via `objlang::eval`.
//! * [`script_gen`] — generators of vernacular programs (with a known
//!   expected verdict) and of random tactic scripts for
//!   robustness/totality testing of the prover front end.
//! * [`family_gen`] — random feature subsets and incremental
//!   family-composition (linkage-transformer) chains over the lattice.
//! * [`edit_gen`] — random edit scripts (touch / add-lemma /
//!   remove-lemma over a sub-lattice, with shrinking), feeding oracle
//!   #10: incremental recheck vs from-scratch rebuild.
//! * [`lattice_ref`] — the sequential lattice reference (every variant
//!   defined one by one in plan order) that the task-DAG builds are
//!   compared against, and the one report-row comparator the oracles
//!   share.
//! * [`store_gen`] — random proof-cache stores ([`fpop::ExportEntry`]
//!   vectors with arbitrary terms, props, tactics, and sequents) for
//!   exercising the `FPOPSNAP` codec.
//! * [`objfun_gen`] — random objlang definition sets (structural
//!   recursions, aliases, abstract functions — all passing the kernel's
//!   own `check_recfn`) and adversarial closed evaluation terms, feeding
//!   oracle #7: the bytecode VM against the tree-walking interpreter.
//!
//! The differential oracles built on these generators live in the
//! consuming crates' `tests/` directories (plus oracle #6, the
//! naive-vs-hash-consed term-representation check, in this crate's own
//! `tests/terms_differential.rs`); see `docs/TESTING.md` for the
//! catalogue and replay instructions.

#![warn(missing_docs)]

pub mod edit_gen;
pub mod family_gen;
pub mod harness;
pub mod lattice_ref;
pub mod objfun_gen;
pub mod rng;
pub mod script_gen;
pub mod store_gen;
pub mod term_gen;

pub use harness::{forall, run_cases, Shrink};
pub use rng::Rng;
