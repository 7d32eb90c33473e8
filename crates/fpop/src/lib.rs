//! # fpop — Family POlymorphism for a Proof assistant, in Rust
//!
//! The primary contribution of the reproduced paper, *Extensible
//! Metatheory Mechanization via Family Polymorphism* (PLDI 2023): a
//! language layer that makes code and proofs polymorphic to their
//! enclosing **family**, so that a derived family inherits and reuses
//! mechanized metatheory while adding constructors to inductive types and
//! cases to recursive functions and induction proofs.
//!
//! The crate provides:
//!
//! * [`family`] — the surface constructs (`FInductive`, `FRecursion`,
//!   `FInduction`, `FDefinition`, `FTheorem`, `+=`, `Overridable`,
//!   mixins);
//! * [`merge`] — inheritance and mixin composition with context
//!   preservation (Section 3.4) and conflict detection (Section 3.5);
//! * [`elab`] — per-field checking under late binding, exhaustivity
//!   enforcement (C1), proof reuse accounting, and compilation to the
//!   parameterized-module structure of Figures 4–5;
//! * [`session`] — the check session: a thread-safe, content-addressed
//!   proof cache shared across every family elaboration in a run (the
//!   substrate of the parallel lattice build and the `CS1-share`
//!   experiment);
//! * [`universe`] — the top-level API ([`FamilyUniverse`]) and the `Check`
//!   command;
//! * [`parse`] — a vernacular parser for a Figure-2-style surface syntax.
//!
//! # Example
//!
//! ```
//! use fpop::family::FamilyDef;
//! use fpop::universe::FamilyUniverse;
//! use objlang::sig::CtorSig;
//! use objlang::syntax::{Prop, Sort, Term};
//!
//! # fn main() -> Result<(), objlang::Error> {
//! let mut u = FamilyUniverse::new();
//! u.define(
//!     FamilyDef::new("Base")
//!         .inductive("t", vec![CtorSig::new("t_one", vec![])])
//!         .theorem(
//!             "one_exists",
//!             Prop::exists("x", Sort::named("t"), Prop::eq(Term::var("x"), Term::var("x"))),
//!             vec![
//!                 objlang::Tactic::Exists(Term::c0("t_one")),
//!                 objlang::Tactic::Reflexivity,
//!             ],
//!         ),
//! )?;
//! u.define(
//!     FamilyDef::extending("Derived", "Base")
//!         .extend_inductive("t", vec![CtorSig::new("t_two", vec![])]),
//! )?;
//! // `one_exists` is inherited — reused without rechecking.
//! assert!(u.check("Derived", "one_exists")?.contains("Derived.one_exists"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod elab;
pub mod family;
pub mod incr;
pub mod merge;
pub mod parse;
pub mod report;
pub mod sched;
pub mod session;
pub mod stable;
pub mod universe;

pub use elab::CompiledFamily;
pub use family::{FamilyDef, Field, ProofSpec};
pub use incr::IncrOutcome;
pub use sched::TaskDag;
pub use session::{CacheTxn, ExportEntry, ExportMark, Session, StatsSnapshot, TxnParts};
pub use universe::FamilyUniverse;

// Concurrency audit: compiled families cross thread boundaries in the
// task-DAG lattice build, and the universe itself must be shareable by
// reference with worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledFamily>();
    assert_send_sync::<FamilyUniverse>();
    assert_send_sync::<Session>();
};
