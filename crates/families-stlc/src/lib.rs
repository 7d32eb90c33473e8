//! # families-stlc — case study 1: extensible STLC metatheory
//!
//! Reproduces Section 7's first case study: the type-safety development of
//! the simply typed λ-calculus as a base family `STLC`, four feature
//! families (ε fixpoints, × products, + sums, µ iso-recursive types), and
//! the full mixin-composition lattice of the paper's Venn diagram — 15
//! feature combinations, each with an inherited `typesafe` theorem.
//! [`lattice::build`], [`lattice::rebuild`] and [`lattice::redefine`] build
//! it (or any sub-lattice) on the task DAG.

pub mod base;
pub mod boolean;
pub mod determinism;
pub mod fix;
pub mod isorec;
pub mod lattice;
pub mod prod;
pub mod sum;
pub mod util;

pub use base::stlc_family;
pub use lattice::{
    normalize_features, subset_defs, variant_name, Feature, LatticeReport, Plan, VariantStat,
};
